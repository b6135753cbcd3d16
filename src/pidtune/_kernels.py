"""Step-response scan kernel.

scan iterates the one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

from x[0] = 0 with the divergence rule: at the first sample where any state
or output magnitude leaves [-limit, limit] (NaN counts as leaving), that
sample and all later ones are pinned to +limit or -limit with the sign of
the triggering value, except that a triggering state leaves its sample's
output as computed. Sample 0 is tested like any other, and a 0-state map
(a pure gain) follows the same rule.

The loop is bound by per-call overhead, not arithmetic: the state has a
handful of elements. ``ndarray.dot`` gives the same bits as ``@`` on these
operands and skips the matmul gufunc dispatch. The divergence test runs
on the state as Python floats (one ``tolist`` per step), which costs less
than numpy's ``abs``, compare and ``all`` on a few elements; ``abs(s) <=
limit`` is false for NaN, as the rule requires.

``tests/helpers.sequential_scan`` states the same rule with scalar loops,
and ``tests/test_lti.py`` pins scan to it.
"""

import numpy as np


# perfbench/tracer.py reads n_samples at position 4 of this signature.
def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, one matvec per step; returns (values, diverged)."""
    out = np.empty(n_samples)
    x = np.zeros(step_mat.shape[0])
    z = feed
    for k in range(n_samples):
        if k > 0:
            x = step_mat.dot(x) + step_vec
            z = feed + c_row.dot(x)
        states = x.tolist()
        z_bad = not (abs(z) <= limit)
        if z_bad or not all(abs(s) <= limit for s in states):
            trigger = z if z_bad else next(s for s in states if not abs(s) <= limit)
            clamp = -limit if trigger < 0.0 else limit
            out[k] = clamp if z_bad else z
            out[k + 1 :] = clamp
            return out, True
        out[k] = z
    return out, False
