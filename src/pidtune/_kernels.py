"""Step-response scan kernel.

scan iterates the one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

with the divergence rule: once any state or output magnitude leaves
[-limit, limit] (NaN counts as leaving), the remaining samples are pinned
to +limit or -limit with the sign of the triggering value, and the
triggering output sample itself is clipped into the band.

There is one kernel and no backend switch. ``tests/helpers.sequential_scan``
states the same rule with scalar loops, and ``tests/test_lti.py`` pins scan
to it.
"""

import numpy as np


def scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Sample the response, one matvec per step; returns (values, diverged)."""
    out = np.empty(n_samples)
    x = np.zeros(step_mat.shape[0])
    diverged = False
    clamp = limit
    z = feed
    if not (abs(z) <= limit):
        diverged = True
        clamp = -limit if z < 0.0 else limit
        out[0] = clamp
    else:
        out[0] = z
    for k in range(1, n_samples):
        if diverged:
            out[k:] = clamp
            break
        x = step_mat @ x + step_vec
        z = feed + c_row @ x
        inside = np.abs(x) <= limit
        z_bad = not (abs(z) <= limit)
        if z_bad or not inside.all():
            diverged = True
            trigger = z if z_bad else x[np.argmin(inside)]
            clamp = -limit if trigger < 0.0 else limit
            out[k] = clamp if z_bad else z
        else:
            out[k] = z
    return out, bool(diverged)
