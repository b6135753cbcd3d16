"""Step-response scan kernel.

scan iterates the one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

from x[0] = 0 with the divergence rule: at the first sample where any state
or output magnitude leaves [-limit, limit] (NaN counts as leaving), that
sample and all later ones are pinned to +limit or -limit with the sign of
the triggering value, except that a triggering state leaves its sample's
output as computed. Sample 0 is tested like any other.

``tests/helpers.sequential_scan`` states the same rule with scalar loops,
and ``tests/test_lti.py`` pins scan to it.
"""

import numpy as np


def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, one matvec per step; returns (values, diverged)."""
    out = np.empty(n_samples)
    x = np.zeros(step_mat.shape[0])
    z = feed
    for k in range(n_samples):
        if k > 0:
            x = step_mat @ x + step_vec
            z = feed + c_row @ x
        inside = np.abs(x) <= limit
        z_bad = not (abs(z) <= limit)
        if z_bad or not inside.all():
            trigger = z if z_bad else x[np.argmin(inside)]
            clamp = -limit if trigger < 0.0 else limit
            out[k] = clamp if z_bad else z
            out[k + 1 :] = clamp
            return out, True
        out[k] = z
    return out, False
