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

It computes BLOCK samples per matvec. With M = step_mat and v = step_vec,
unrolling the update j times from any state gives

    x[s+j] = M^j x[s] + x[j],    j = 1..BLOCK,

where x[j] is the response from x[0] = 0. The step table stacks the rows
[M^j | x[j]] for j = 1..BLOCK, so a block of samples s+1..s+BLOCK is one
matvec with [x[s], 1], the last state of the block before; its outputs come
from its own states. The first block, x[0]..x[BLOCK-1], is taken from the
table's build itself, and sample 0's output is feed: a product with x[0] = 0
would turn an infinite entry into NaN and flip the clamp's sign. Every block is computed whole, the last
one too, of which only the live rows are kept, so the bits of sample k do
not depend on n_samples.

The table is built by a linear chain in np.longdouble. Whatever error the
table holds, every block applies again, so on a growing oscillation it adds
up coherently, where per-step rounding does not. On such loops (a complex
pair of modulus 1.004-1.015) a float64 chain reached 1.09 of the oracle
test's error bound, and the long-double chain rounded to float64 once 1.73.
So the table keeps, below each entry rounded to float64, what the rounding
left out; the matvec takes both halves and adds them, which carries the
long-double table's accuracy. Then the worst error over 4,000 uniform and
1,600 growing loops (tests/stress_scan.py) is 0.53 of the bound, against
0.33 for a step per matvec, and on the loops above the scan is closer to a
long-double reference than a step per matvec is. np.longdouble is 80-bit on
x86-64 Linux, but equals double on some platforms, such as Windows; there
the low half is zero and that margin is gone.

The loop is bound by per-call overhead, not arithmetic: a block costs about
as many numpy calls as one step did. Each block is tested once, states and
outputs together, by np.abs(block).max() <= limit, which NaN fails; only
when that fails is the first bad row looked for, and the rule applied to it.
BLOCK is 4: that makes a scan about 1.9 times faster than a step per
matvec. A longer block is faster still, but perfbench keeps a record per
score call, and at BLOCK 8 the calls it could then make in a run would take
its own list near the peak-RSS bound (ROADMAP item 1).

Products that overflow leave the clamp's sign to the order of the sums, as
they did with a step per matvec: on step_mat [[1e308, 1e308], [0, 0]] from
state [9.99, -10], the scalar oracle sums inf and -inf to NaN and clamps to
+limit, where ndarray.dot and this table both clamp to -limit. An entry of
M^j that overflows float64 makes NaN against a zero state, so such a map may
clamp a few samples earlier than stepping would.

``tests/helpers.sequential_scan`` states the same rule with scalar loops,
and ``tests/test_lti.py`` pins scan to it.
"""

import numpy as np

BLOCK = 4


def _step_table(step_mat, step_vec):
    """The step table, and the first block's states x[0]..x[BLOCK-1].

    Row block j of the table is [M^j | x[j]], j = 1..BLOCK, the top of
    [[M, v], [0, 1]]^j; the chain runs in long double. The table holds each
    entry rounded to float64 and, below all of those, what the rounding left
    out, so that the two halves of a product with [x, 1] add up to the
    long-double table's."""
    n = step_mat.shape[0]
    m = step_mat.astype(np.longdouble)
    chain = np.zeros((BLOCK + 1, n, n + 1), np.longdouble)
    chain[0, :, :n] = np.eye(n)
    for j in range(BLOCK):
        chain[j + 1] = m @ chain[j]
        chain[j + 1, :, n] += step_vec
    high = chain[1:].astype(float)
    low = (chain[1:] - high).astype(float)
    table = np.concatenate((high, low)).reshape(2 * BLOCK * n, n + 1)
    return table, chain[:BLOCK, :, n].astype(float)


# perfbench/tracer.py reads n_samples at position 4 of this signature.
def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, BLOCK samples per matvec; returns (values, diverged)."""
    n = step_mat.shape[0]
    table, first = _step_table(step_mat, step_vec)
    out = np.empty(n_samples)
    products = np.empty(2 * BLOCK * n)
    high, low = products.reshape(2, BLOCK, n)
    # Each buffer holds a block's outputs, its states, then a constant 1: the
    # last state and the 1 are the [x, 1] that the next block's matvec reads,
    # so the two buffers alternate.
    cur, prev = (
        (buf[:-1], buf[:BLOCK], buf[BLOCK:-1].reshape(BLOCK, n), buf[-n - 1 :])
        for buf in np.ones((2, BLOCK * (n + 1) + 1))
    )
    _, outputs, states, _ = cur
    states[:] = first
    np.dot(states, c_row, out=outputs)
    outputs += feed
    outputs[0] = feed  # x[0] = 0 exactly: an infinite c_i would make c_row @ x NaN
    for start in range(0, n_samples, BLOCK):
        block, outputs, states, _ = cur
        if start:
            np.dot(table, prev[3], out=products)
            np.add(high, low, out=states)
            np.dot(states, c_row, out=outputs)
            outputs += feed
        live = outputs[: n_samples - start]
        if not np.abs(block).max() <= limit:
            for j, (z, row) in enumerate(zip(live.tolist(), states.tolist())):
                z_bad = not (abs(z) <= limit)
                if z_bad or not all(abs(s) <= limit for s in row):
                    trigger = z if z_bad else next(s for s in row if not abs(s) <= limit)
                    clamp = -limit if trigger < 0.0 else limit
                    out[start : start + j] = live[:j]
                    out[start + j] = clamp if z_bad else z
                    out[start + j + 1 :] = clamp
                    return out, True
        out[start : start + BLOCK] = live
        cur, prev = prev, cur
    return out, False
