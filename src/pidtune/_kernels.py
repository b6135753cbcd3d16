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

The loop is bound by per-call overhead, not arithmetic. A block is one
matvec, one add of the two halves, one test np.abs(block).max() <= limit,
which NaN fails, and one copy of its z column into the output. Only when
the test fails are the block's live rows read in order, and the trigger is
the first entry of [z, x...] out of band: an output wins over the states of
its sample. BLOCK is 64: a 10,001-sample scan takes 157 matvecs, and about
a quarter of its time at 16 (1.2-1.3 against 3.9-5.6 ms on the benchmark3
ZN loop) and a third at 2,001 samples (0.37 against 1.1 ms). The table's 6
levels take 0.10-0.15 ms, 4 took 0.08, so a 101-sample scan takes a little
longer (0.13 against 0.10 ms). perfbench keeps a record per score call,
about 100 B each, so its peak_rss_mb grows with the calls a faster scan
lets a 30 s run make: against BLOCK 16, the median of paired runs rose 5.8%
on zn_tune, 4.0% on random_tune and 1.2% on frames_tune, inside the 0.1
bound.

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
    out = np.empty(n_samples)
    products = np.empty(len(table))
    high, low = products.reshape(2, BLOCK, n + 1)
    # Each buffer holds a block's rows [z, x], then a constant 1: the last
    # state and the 1 are the [x, 1] that the next block's matvec reads, so
    # the two buffers alternate. Sample 0, [feed, 0...0], is a one-row block
    # in front of the first buffer's [x, 1].
    bufs = np.ones((2, BLOCK * (n + 1) + 1))
    cur, nxt = ((buf[:-1].reshape(BLOCK, n + 1), buf[-n - 1 :]) for buf in bufs)
    block = bufs[0, -n - 2 : -1].reshape(1, n + 1)
    block[0] = [feed] + [0.0] * n
    start = 0
    while True:
        live = block[: n_samples - start]
        if not np.abs(block).max() <= limit:
            for j, row in enumerate(live.tolist()):
                trigger = next((v for v in row if not abs(v) <= limit), None)
                if trigger is not None:
                    clamp = -limit if trigger < 0.0 else limit
                    out[start : start + j] = live[:j, 0]
                    out[start + j] = row[0] if abs(row[0]) <= limit else clamp
                    out[start + j + 1 :] = clamp
                    return out, True
        out[start : start + len(live)] = live[:, 0]
        start += len(live)
        if start == n_samples:
            return out, False
        np.dot(table, cur[1], out=products)
        cur, nxt = nxt, cur
        block = cur[0]
        np.add(high, low, out=block)
