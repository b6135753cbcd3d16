"""Step-response scan kernel.

scan samples the one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

from x[0] = 0 with the divergence rule: at the first sample where any state
or output magnitude leaves [-limit, limit] (NaN counts as leaving), that
sample and all later ones are pinned to +limit or -limit with the sign of
the triggering value, except that a triggering state leaves its sample's
output as computed. Sample 0 is tested like any other, and a 0-state map
(a pure gain) follows the same rule.

Each sample is one row [z[k], x[k]], and it computes BLOCK rows per matvec.
With M = step_mat, v = step_vec and c = c_row, unrolling the update j times
from any state gives

    x[s+j] = M^j x[s] + x[j],
    z[s+j] = c M^j x[s] + c x[j] + feed,    j = 1..BLOCK,

where x[j] is the response from x[0] = 0. Row block j of the step table is
the output row [c M^j | c x[j] + feed] above the state rows [M^j | x[j]],
so a block of samples s+1..s+BLOCK is one matvec with [x[s], 1], the last
state of the block before. Sample 0, [feed, 0...0], is a block of one row,
and block k holds samples 1+k*BLOCK..(k+1)*BLOCK. Every block is computed
whole, the last one too, of which only the live rows are kept, so the bits
of sample k do not depend on n_samples.

The table is built in np.longdouble by doubling, the up-sweep of
Blelloch's prefix sums ("Prefix sums and their applications", 1990) on the
affine maps: with A = [[M, v], [0, 1]], the powers A^(k+1)..A^(2k) are A^k
applied to A^1..A^k, one stacked matmul per level, so BLOCK, a power of two,
takes log2(BLOCK) levels. Whatever error the table holds, every block
applies again, so on a growing oscillation it adds up coherently, where
per-step rounding does not. On such loops (a complex pair of modulus
1.004-1.015), at block length 4, a float64 table reached 1.09 of the oracle
test's error bound, and a long-double table rounded to float64 once 1.73.
So the table keeps, below each entry rounded to float64, what the rounding
left out; the matvec takes both halves and adds them, which carries the
long-double table's accuracy. Row block j is then within 0.59 j long-double
eps of the exact power, relative to its largest entry, on the loops that
tests/test_lti.py pins. Over 8,000 uniform and 1,600 growing loops
(tests/stress_scan.py, seeds 1-4) the scan's worst distance from the
float64 oracle is 0.41 of the bound, on a growing loop where the oracle is
itself 0.40 of it from a 60-digit recursion of the map and the scan 0.01.
On four growing loops and the benchmark3 ZN loop the scan is at most 0.03
of the bound from that recursion, and a step per matvec up to 0.40.
np.longdouble is 80-bit on x86-64 Linux, but equals double on some
platforms, such as Windows; there the low half is zero and that margin is
gone.

The loop is bound by per-call overhead, not arithmetic, and a block's
state rows, apart from its last, serve only the band test. So scan also
keeps a fast table: the BLOCK output rows, high then low, over the n rows
[M^BLOCK | x[BLOCK]] of the block's last state, high then low. Before each
block it bounds the block from the carried state x, in Python floats:

    b = (G sum_i |x_i| + Q)(1 + 4 (n + 2) eps) + tiny,

where G is the largest |high| + |low| over the state columns of every row of
the step table, Q the largest in its constant column, eps the float64
epsilon and tiny the smallest normal float. If b <= limit the block is
cleared: one matvec of the fast table with [x, 1], one add of the output
halves straight into the output, which holds whole blocks, and one add of
the state halves into the next [x, 1]. No value of a cleared block can be
out of band. Each row (h, l) of the table yields fl(fl(h.[x, 1]) +
fl(l.[x, 1])), and by the triangle inequality the exact sum of the two dots
is at most sum_i (|h_i| + |l_i|) |x_i| + |h_n| + |l_n| <= G sum_i |x_i| + Q.
Rounded, a dot of n + 1 products, summed in any order, with or without
fused multiply-adds, is at most 1 + gamma(n + 1) times the sum of their
magnitudes, gamma(n + 1) being about (n + 1) u with u = eps / 2, and the add
of the two dots at most 1 + u times the sum of theirs. Rounding G, Q, the
sum and b itself takes at most n + 4 more factors 1 + u, so about
(2n + 6) u of the margin's 8 (n + 2) u is spent, and tiny covers products
that underflow. A NaN or infinite state, or a table entry that is not
finite, makes b NaN or inf, which fails the test.
A block that is not cleared takes the full path: the whole table's matvec,
the add of its halves, the test np.abs(block).max() <= limit, which NaN
fails, and only when that fails the in-order read of its live rows for the
trigger, the first entry of [z, x...] out of band (an output wins over the
states of its sample); then its z column is copied out and its last state
carried. OpenBLAS on x86-64 computes each row's dot from that row and
[x, 1] alone, so a row has the same bits in either table: over 6,000 random
loops (ORACLE_PLANTS, gains in [-10, 10]^3, limits 1e6, 10 and 3, 1 to
10,001 samples) the values and flags equal those of the full path alone. A
BLAS that summed a row by its place would move a cleared block's samples
within rounding, but not with n_samples, which the bound does not read.

A cleared block costs about 2.7 us (1.05 the matvec, 1.2 the adds, 0.5 the
bound), a full one about 5.6 (2.4 the matvec, 0.5 the add, 2.2 the max-abs
test, 0.4 the z copy), at n = 4 on one CPU in its fast state; in the loop,
3.1 against 6.5 us. Every block of the benchmark3 ZN loop is cleared; the
loop with gains (-5, 8, 3), whose state grows until it leaves the band at
sample 3,272, is refused from block 46 on. Isolated, the ZN loop (median of
201 calls alternating with the full path in one process) takes 0.61 against
1.12 ms at 10,001 samples, 0.23 against 0.31 ms at 2,001 and 0.135 against
0.121 ms at 101: the fast table and G and Q cost about 20 us a call, which
the blocks repay from about 400 samples on. The step table's 6 levels take
0.10-0.15 ms. perfbench keeps a record per score call, about 100 B each, so
its peak_rss_mb grows with the calls a faster scan lets a 30 s run make:
against the full path alone, the median of 10 paired runs rose 4.2% on
zn_tune and 4.5% on random_tune, and fell 0.5% on frames_tune.

Products that overflow leave the clamp's sign to the order of the sums, as
they did with a step per matvec: on step_mat [[1e308, 1e308], [0, 0]] from
state [9.99, -10], the scalar oracle sums inf and -inf to NaN and clamps to
+limit, where ndarray.dot clamps to -limit. An entry of M^j that overflows
float64 makes NaN against a zero state, and so does an infinite c_i against
a zero entry of M^j, so such a map may clamp a few samples earlier, or with
the other sign, than stepping would. At BLOCK 64 an entry of M^j overflows
before j = 64 once an entry of M grows faster than about 6.5e4
(1e308^(1/64)) per step; at 16 that took about 1.9e19. Block 1 is a
product with x[0] = 0 like any other, so this holds from sample 1 on.

``tests/helpers.sequential_scan`` states the same rule with scalar loops,
and ``tests/test_lti.py`` pins scan to it.
"""

import numpy as np

BLOCK = 64


def _step_table(step_mat, step_vec, c_row, feed):
    """The step table: row block j, j = 1..BLOCK, is the output row
    [c M^j | c x[j] + feed] above the state rows [M^j | x[j]], that is
    [[c, feed], [I, 0]] A^j with A = [[M, v], [0, 1]]. The powers are built
    by doubling in long double: given A^1..A^k, A^(k+1)..A^(2k) are A^k
    applied to them, M^k [M^j | x[j]] plus x[k] in the last column. The
    table holds each entry rounded to float64 and, below all of those, what
    the rounding left out, so that the two halves of a product with [x, 1]
    add up to the long-double table's."""
    n = step_mat.shape[0]
    rows = np.zeros((BLOCK, n + 1, n + 1), np.longdouble)
    rows[0, 1:] = np.column_stack((step_mat, step_vec))
    k = 1
    while k < BLOCK:
        power = rows[k - 1, 1:]
        rows[k : 2 * k, 1:] = power[:, :n] @ rows[:k, 1:]
        rows[k : 2 * k, 1:, n] += power[:, n]
        k *= 2
    rows[:, 0] = c_row @ rows[:, 1:]
    rows[:, 0, n] += feed
    high = rows.astype(float)
    # An infinite entry would leave inf - inf = NaN below it.
    low = np.where(np.isfinite(high), rows - high, 0.0).astype(float)
    return np.concatenate((high, low)).reshape(-1, n + 1)


# perfbench/tracer.py reads n_samples at position 4 of this signature.
def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, BLOCK samples per matvec; returns (values, diverged)."""
    n = step_mat.shape[0]
    table = _step_table(step_mat, step_vec, c_row, feed)
    halves = table.reshape(2, BLOCK, n + 1, n + 1)
    # The fast table: the output rows, high then low, over the last state's
    # rows, high then low. A block that the bound clears needs no other row.
    fast = np.vstack((*halves[:, :, 0], *halves[:, -1, 1:]))
    # G and Q of the module docstring's bound, with its margin and tiny
    # folded in.
    sizes = np.abs(halves[0]) + np.abs(halves[1])
    margin = 1.0 + 4 * (n + 2) * np.finfo(float).eps
    g = float(sizes[..., :n].max(initial=0.0)) * margin
    q = float(sizes[..., n].max()) * margin + np.finfo(float).tiny
    products = np.empty(len(table))
    high, low = products.reshape(2, BLOCK, n + 1)
    fast_products = np.empty(len(fast))
    z_high, z_low = fast_products[: 2 * BLOCK].reshape(2, BLOCK)
    x_high, x_low = fast_products[2 * BLOCK :].reshape(2, n)
    # Whole blocks after sample 0; the dead rows of the last are cut off.
    out = np.empty(1 + -(-(n_samples - 1) // BLOCK) * BLOCK)
    block = np.empty((BLOCK, n + 1))
    x_one = np.ones(n + 1)
    x = x_one[:n]
    # Sample 0 is [feed, 0...0], a block of one row.
    block[-1] = [feed] + [0.0] * n
    live, start = block[-1:], 0
    while True:
        if not np.abs(live).max() <= limit:
            for j, row in enumerate(live.tolist()):
                trigger = next((v for v in row if not abs(v) <= limit), None)
                if trigger is not None:
                    clamp = -limit if trigger < 0.0 else limit
                    out[start : start + j] = live[:j, 0]
                    out[start + j] = row[0] if abs(row[0]) <= limit else clamp
                    out[start + j + 1 :] = clamp
                    return out[:n_samples], True
        out[start : start + len(live)] = live[:, 0]
        x[:] = live[-1, 1:]
        start += len(live)
        # Cleared blocks form only their outputs and last state.
        while start < n_samples and g * sum(map(abs, x.tolist())) + q <= limit:
            np.dot(fast, x_one, out=fast_products)
            np.add(z_high, z_low, out=out[start : start + BLOCK])
            np.add(x_high, x_low, out=x)
            start += BLOCK
        if start >= n_samples:
            return out[:n_samples], False
        # A block the bound does not clear: every row, then the band test.
        np.dot(table, x_one, out=products)
        np.add(high, low, out=block)
        live = block[: n_samples - start]
