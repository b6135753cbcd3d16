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
per-step rounding does not. So each row of the table is [high | low]: its
long-double entries rounded to float64, then what the rounding left out.
One dot with [x, 1, x, 1] sums both halves and so carries the long-double
table's accuracy (CHANGES.md gives the measurements). np.longdouble is
80-bit on x86-64 Linux, but equals double on some platforms, such as
Windows; there the low half is zero and the table is only as accurate as
one built in float64.

A block's state rows, apart from its last, serve only the band test. So
scan also keeps a fast table: the BLOCK output rows over the n rows
[M^BLOCK | x[BLOCK]] of the block's last state. Before each block it bounds
the block from the carried state x, in Python floats:

    b = (G sum_i |x_i| + Q)(1 + 4 (n + 2) eps) + tiny,

where G is the largest |high| + |low| over the state columns of every row of
the step table, Q the largest in its constant column, eps the float64
epsilon and tiny the smallest normal float. If b <= limit the block is
cleared: one matvec of the fast table writes its outputs straight into the
output array and its last state into the n slots after them, which the
next block overwrites, and the state is copied into both halves of
[x, 1, x, 1]. No value of a cleared block can be out of band. In exact
arithmetic a row [h | l] times [x, 1, x, 1] is at most
sum_i (|h_i| + |l_i|) |x_i| + |h_n| + |l_n| <= G sum_i |x_i| + Q in
magnitude. Rounded, a dot of 2n + 2 products, summed in any order, with or
without fused multiply-adds, is at most 1 + gamma(2n + 2) times the sum of
their magnitudes, gamma(m) being about m u with u = eps / 2 (Higham 2002,
"Accuracy and Stability of Numerical Algorithms", ch. 3). Rounding G, Q,
the sum and b itself takes at most n + 4 more factors 1 + u, so about
(2n + 2) u + (n + 4) u of the margin's 8 (n + 2) u is spent, and tiny
covers products that underflow. A NaN or infinite state, or a table entry
that is not finite, makes b NaN or inf, which fails the test.

A block that is not cleared takes the full path: the whole table's matvec,
the test np.abs(block).max() <= limit, which NaN fails, and only when that
fails the in-order read of its live rows for the trigger, the first entry
of [z, x...] out of band (an output wins over the states of its sample);
then its z column is copied out and its last state carried. A row has the
same bits in either table only if the BLAS computes each row's dot from
that row and the vector alone, as OpenBLAS on x86-64 does;
tests/test_lti.py pins scan bit for bit to tests/helpers.full_table_scan,
which takes every block through the whole table. A BLAS that summed a row
by its place would move a cleared block's samples within rounding, but not
with n_samples, which the bound does not read.

Products that overflow leave the clamp's sign to the order of the sums: on
step_mat [[1e308, 1e308], [0, 0]] from state [9.99, -10], the scalar oracle
sums inf and -inf to NaN and clamps to +limit, where ndarray.dot clamps to
-limit. An entry of M^j that overflows float64 makes NaN against a zero
state, and so does an infinite c_i against a zero entry of M^j, so such a
map may clamp a few samples earlier, or with the other sign, than stepping
would. An entry of M^j overflows before j = BLOCK once an entry of M grows
faster than about 1e308^(1 / BLOCK) per step, 6.5e4 at BLOCK 64. Block 1 is
a product with x[0] = 0 like any other, so this holds from sample 1 on.

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
    applied to them, M^k [M^j | x[j]] plus x[k] in the last column. Each row
    holds its entries rounded to float64 and, beside them, what the rounding
    left out, so that its dot with [x, 1, x, 1] sums to the long-double
    table's."""
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
    # An infinite entry would leave inf - inf = NaN beside it.
    low = np.where(np.isfinite(high), rows - high, 0.0).astype(float)
    return np.concatenate((high, low), axis=2).reshape(-1, 2 * n + 2)


# perfbench/tracer.py reads n_samples at position 4 of this signature.
def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, BLOCK samples per matvec; returns (values, diverged)."""
    n = step_mat.shape[0]
    table = _step_table(step_mat, step_vec, c_row, feed)
    rows = table.reshape(BLOCK, n + 1, 2 * n + 2)
    # The fast table: the output rows over the last state's rows. A block
    # that the bound clears needs no other row.
    fast = np.vstack((rows[:, 0], rows[-1, 1:]))
    # G and Q of the module docstring's bound, with its margin and tiny
    # folded in.
    sizes = np.abs(table[:, : n + 1]) + np.abs(table[:, n + 1 :])
    margin = 1.0 + 4 * (n + 2) * np.finfo(float).eps
    g = float(sizes[:, :n].max(initial=0.0)) * margin
    q = float(sizes[:, n].max()) * margin + np.finfo(float).tiny
    # Whole blocks after sample 0, then n slots for a cleared last block's
    # state; the dead rows are cut off.
    out = np.empty(1 + -(-(n_samples - 1) // BLOCK) * BLOCK + n)
    block = np.empty((BLOCK, n + 1))
    # [x, 1, x, 1], a copy of [x, 1] for each half of a row; states writes
    # both copies of x at once.
    x_one = np.ones(2 * n + 2)
    x = x_one[:n]
    states = x_one.reshape(2, n + 1)[:, :n]
    # Sample 0 is [feed, 0...0], a block of one row.
    block[-1] = [feed] + [0.0] * n
    live, start = block[-1:], 0
    while True:
        if not np.abs(live).max() <= limit:
            for j, row in enumerate(live.tolist()):
                trigger = next((e for e in row if not abs(e) <= limit), None)
                if trigger is not None:
                    clamp = -limit if trigger < 0.0 else limit
                    out[start : start + j] = live[:j, 0]
                    out[start + j] = row[0] if abs(row[0]) <= limit else clamp
                    out[start + j + 1 :] = clamp
                    return out[:n_samples], True
        out[start : start + len(live)] = live[:, 0]
        states[:] = live[-1, 1:]
        start += len(live)
        # Cleared blocks form only their outputs and last state.
        while start < n_samples and g * sum(map(abs, x.tolist())) + q <= limit:
            np.dot(fast, x_one, out=out[start : start + BLOCK + n])
            start += BLOCK
            states[:] = out[start : start + n]
        if start >= n_samples:
            return out[:n_samples], False
        # A block the bound does not clear: every row, then the band test.
        np.dot(table, x_one, out=block.reshape(-1))
        live = block[: n_samples - start]
