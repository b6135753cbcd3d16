"""Step-response scan kernels: numba-jitted hot path plus a numpy fallback.

Both kernels iterate the same one-step affine update

    x[k+1] = step_mat @ x[k] + step_vec
    z[k]   = c_row @ x[k] + feed

and share the divergence rule: once any state or output magnitude leaves
[-limit, limit] (NaN counts as leaving), the remaining samples are pinned
to +limit or -limit with the sign of the triggering value, and the
triggering output sample itself is clipped into the band.

Backend selection happens once at import: the numba kernel is used unless
the environment variable ``PIDTUNE_BACKEND`` is set to ``numpy`` or numba
is not importable. ``tests/test_lti.py::TestBackends`` checks that the two
agree, and ``perfbench/run.py`` prints the backend a run used.
"""

import os

import numpy as np


def _scan_loop(step_mat, step_vec, c_row, feed, n_samples, limit):
    # Scalar loops on purpose: this body is what numba compiles.
    n = step_mat.shape[0]
    out = np.empty(n_samples)
    x = np.zeros(n)
    xn = np.zeros(n)
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
            out[k] = clamp
            continue
        for i in range(n):
            acc = step_vec[i]
            for j in range(n):
                acc += step_mat[i, j] * x[j]
            xn[i] = acc
        z = feed
        bad = False
        trigger = 0.0
        for i in range(n):
            xi = xn[i]
            z += c_row[i] * xi
            if not bad and not (abs(xi) <= limit):
                bad = True
                trigger = xi
        z_bad = not (abs(z) <= limit)
        if z_bad:
            bad = True
            trigger = z
        if bad:
            diverged = True
            clamp = -limit if trigger < 0.0 else limit
            out[k] = clamp if z_bad else z
        else:
            out[k] = z
        for i in range(n):
            x[i] = xn[i]
    return out, diverged


def numpy_scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """Pure-numpy fallback: one matvec per step instead of compiled loops."""
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


try:
    from numba import njit

    numba_scan = njit(cache=True)(_scan_loop)
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba_scan = None


def choose_backend(env_value: str | None, numba_available: bool) -> str:
    if env_value is not None and env_value.strip().lower() == "numpy":
        return "numpy"
    return "numba" if numba_available else "numpy"


BACKEND = choose_backend(os.environ.get("PIDTUNE_BACKEND"), numba_scan is not None)
scan = numba_scan if BACKEND == "numba" else numpy_scan
