"""Shared test oracles: slow, direct-scan reimplementations that cross-check
the library's fast paths, plus generators for randomized cases."""

import contextlib
import ctypes
import decimal
import itertools
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pidtune import (
    EvaluationRecord,
    ImproperLoop,
    PidGains,
    SimConfig,
    StepResponse,
    TransferFunction,
    _kernels,
    close_unity_feedback,
    render_animation,
    step_response,
    tf_to_state_space,
)
from pidtune.lti import _rk4_step_map

BENCH3 = TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))

# Plants for the scan oracle checks: benchmark3, an integrator chain, a plant
# with a zero, and a relative-degree-1 plant whose PID loop has feedthrough.
ORACLE_PLANTS = (
    BENCH3,
    TransferFunction((1.0,), (1.0, 3.0, 2.0, 0.0)),
    TransferFunction((2.0, 1.0), (1.0, 4.0, 5.0, 2.0)),
    TransferFunction((1.0,), (1.0, 1.0)),
)


def gain_bits(gains: PidGains) -> bytes:
    """The exact bits of a gain vector, so that 0.0 and -0.0 differ."""
    return struct.pack("<3d", gains.kp, gains.ki, gains.kd)


def sequential_scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """The scan rule of pidtune._kernels.scan with scalar loops: every state
    update, output sum and divergence test written out one element at a
    time. Returns (values, diverged)."""
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


def full_table_scan(step_mat, step_vec, c_row, feed, n_samples, limit, carried=None):
    """pidtune._kernels.scan's blocks with no bound: every block takes scan's
    refusal path, the fast table's dot and the state table's, each with
    [x, 1, x, 1], and its rows, each output over the states of its sample,
    are read in order under sequential_scan's rule.
    A list given as carried gets the state each block starts from, as a
    list of floats: one per block that scan tests against its bound.
    Returns (values, diverged)."""
    n = step_mat.shape[0]
    fast, powers, _ = _kernels._fast_table(step_mat, step_vec, c_row, feed)
    table = _kernels._state_table(powers)
    vec = np.ones(2 * n + 2)
    out = np.empty(n_samples)
    rows, k = [[feed] + [0.0] * n], 0
    while True:
        for row in rows:
            if k == n_samples:
                return out, False
            trigger = next((a for a in row if not abs(a) <= limit), None)
            if trigger is not None:
                clamp = -limit if trigger < 0.0 else limit
                out[k] = row[0] if abs(row[0]) <= limit else clamp
                out[k + 1 :] = clamp
                return out, True
            out[k] = row[0]
            k += 1
        if carried is not None:
            carried.append(rows[-1][1:])
        vec[:n] = vec[n + 1 : -1] = rows[-1][1:]
        products = (np.dot(fast, vec)[:, None], np.dot(table, vec)[:, None])
        rows = table_blocks(*products).reshape(-1, n + 1).tolist()


def table_blocks(fast, states):
    """The rows of _kernels._fast_table and _kernels._state_table (or of
    their products with one vector, as columns) as BLOCK row blocks: block
    j - 1 holds output row j over the n state rows of A^j."""
    block = _kernels.BLOCK
    n = len(fast) - block
    ordered = np.concatenate((states, fast[block:])).reshape(block, n, *fast.shape[1:])
    return np.concatenate((fast[:block, None], ordered), axis=1)


@contextlib.contextmanager
def counting_state_tables():
    """Counts the calls of _kernels._state_table, scan's build of the
    refusal path's state rows, in the one-item list it yields, while the
    block runs."""
    builds = [0]
    state_table = _kernels._state_table

    def counting(*args):
        builds[0] += 1
        return state_table(*args)

    _kernels._state_table = counting
    try:
        yield builds
    finally:
        _kernels._state_table = state_table


def decimal_scan(step_mat, step_vec, c_row, feed, n_samples, limit):
    """sequential_scan's rule on the same float64 map, each sum and product
    carried to 60 significant digits. Settles a crossing of the limit that
    lies within the float64 oracle's own rounding. The map's entries must be
    finite. Returns (values, diverged)."""
    with decimal.localcontext(prec=60):
        m = [[decimal.Decimal(a) for a in row] for row in step_mat.tolist()]
        v = [decimal.Decimal(a) for a in step_vec.tolist()]
        c = [decimal.Decimal(a) for a in c_row.tolist()]
        bound = decimal.Decimal(limit)
        x = [decimal.Decimal(0)] * len(v)
        out = np.empty(n_samples)
        for k in range(n_samples):
            z = decimal.Decimal(feed) + sum(ci * xi for ci, xi in zip(c, x))
            trigger = next((a for a in (z, *x) if abs(a) > bound), None)
            if trigger is not None:
                clamp = -limit if trigger < 0 else limit
                out[k:] = clamp
                if abs(z) <= bound:  # a state triggered: z stands
                    out[k] = float(z)
                return out, True
            out[k] = float(z)
            x = [sum(mi * xi for mi, xi in zip(row, x)) + vi for row, vi in zip(m, v)]
    return out, False


def first_clamped(values, limit, diverged) -> int:
    """Index of the first clamped sample of a scan: the start of the
    trailing run of +limit or -limit of one that diverged, so that an
    in-band sample equal to the limit before it does not count; len(values)
    for one that did not, or whose state left the band at its last sample."""
    if not (diverged and abs(values[-1]) == limit):
        return len(values)
    unclamped = np.flatnonzero(values != values[-1])
    return int(unclamped[-1]) + 1 if unclamped.size else 0


def loop_step_map(plant, gains, dt=0.01):
    """(step_mat, step_vec, c_row, feed) of the unity-feedback PID loop
    around plant: the arguments of scan before n_samples. Raises
    ImproperLoop where the loop has no realization; overflow is left to the
    caller's np.errstate."""
    ss = tf_to_state_space(close_unity_feedback(PidGains(*gains), plant))
    m, v = _rk4_step_map(ss.a, ss.b, dt)
    return m, v, np.ascontiguousarray(ss.c.ravel()), ss.d


# The limits seeded loops are scanned at: the program's, and two that only
# tests use, at which the bound clears fewer blocks.
LIMITS = (1e6, 10.0, 3.0)


def _growing(step_mat) -> bool:
    eig = np.linalg.eigvals(step_mat)
    return bool(np.any((eig.imag != 0.0) & (np.abs(eig) > 1.0) & (np.abs(eig) < 1.03)))


def draw_loops(rng, count, growing):
    """Yield count (plant index, gains, limit, scan arguments) PID loops
    around ORACLE_PLANTS, gains uniform in [-10, 10]^3 and limits drawn from
    LIMITS. With growing, only loops whose step map has a complex pair of
    modulus in (1, 1.03) are kept, at limit 1e6. Overflow is left to the
    caller's np.errstate, as in loop_step_map."""
    kept = 0
    while kept < count:
        plant = int(rng.integers(len(ORACLE_PLANTS)))
        gains = tuple(float(g) for g in rng.uniform(-10.0, 10.0, 3))
        limit = 1e6 if growing else LIMITS[int(rng.integers(len(LIMITS)))]
        try:
            args = loop_step_map(ORACLE_PLANTS[plant], gains)
        except ImproperLoop:
            continue
        if growing and not _growing(args[0]):
            continue
        kept += 1
        yield plant, gains, limit, args


def scan_error_bound(step_mat, step_vec, c_row, feed, n_samples):
    """Per-sample bound on |scan - sequential_scan| over the first n_samples
    samples, for samples before the clamp.

    Both evaluate the same recursion in different summation orders. A
    length-(n + 1) sum is off by at most (n + 1) u times the sum of its
    terms' magnitudes, so each step adds at most (n + 1) u S_k, where S_k is
    the largest |d| + sum_i |c_i x_i| up to step k; an error made earlier
    grows with the trajectory, so k steps add at most k such terms. That
    term models relative rounding only; a product that underflows is off by
    up to 2^-1075 absolute (Higham, Accuracy and Stability of Numerical
    Algorithms, 2.1), so each step may add (n + 1) 2^-1075 more."""
    x = np.zeros(len(c_row))
    magnitude = np.empty(n_samples)
    for k in range(n_samples):
        magnitude[k] = abs(feed) + np.abs(c_row) @ np.abs(x)
        x = step_mat @ x + step_vec
    steps = np.arange(1, n_samples + 1)
    tol = steps * (len(c_row) + 1) * np.finfo(float).eps / 2 * np.maximum.accumulate(magnitude)
    # 2^-1075 itself rounds to 0.0, so halve the count, not the subnormal.
    tol += steps * (len(c_row) + 1) / 2 * np.finfo(float).smallest_subnormal
    return tol


# The kernel OpenBLAS reports for each OPENBLAS_CORETYPE that tests run
# under.
OPENBLAS_CORES = {"Haswell": "Haswell"}

# A child that prints the kernel of the OpenBLAS numpy loaded, at the path
# given first, then runs pytest on the rest of its arguments.
_KERNEL_CHILD = """\
import ctypes, sys
import numpy, pytest
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode(), flush=True)
sys.exit(pytest.main(sys.argv[2:]))
"""


def run_under_blas_kernel(coretype, pytest_args) -> str:
    """Runs pytest on pytest_args in a child process under
    OPENBLAS_CORETYPE=coretype, and asserts that it passes on the kernel
    OPENBLAS_CORES names: OpenBLAS runs the CPU's own kernel, without a
    word, for a core type it does not know. The child asks numpy's bundled
    OpenBLAS through scipy_openblas_get_corename64_; the calling test skips
    where that library or that symbol is absent. Returns pytest's report."""
    libs = sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        pytest.skip("numpy has no bundled OpenBLAS (numpy.libs/libscipy_openblas64_*.so)")
    if not hasattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_corename64_"):
        pytest.skip(f"{libs[0].name} has no scipy_openblas_get_corename64_")
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(libs[0]), "-q", "-p", "no:cacheprovider",
         *pytest_args],
        cwd=Path(__file__).parents[1], capture_output=True, text=True, timeout=600,
        env={**os.environ, "OPENBLAS_CORETYPE": coretype},
    )
    core, _, report = proc.stdout.partition("\n")
    assert core == OPENBLAS_CORES[coretype], proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, report[-3000:]
    return report


def film_finished(trace, responses, out_dir, plant=BENCH3) -> int:
    """render_animation over a search that has already run: replays the
    trace's records, handing record k the k-th response as evaluate would,
    and the first record at its point as optimize would. A record at a point
    an earlier record had gets no response, as the search reuses the first
    score there, and its response is dropped. Responses beyond the last
    record are left unclaimed. Returns the number of records in the trace
    render_animation returns."""
    feed = iter(responses)
    firsts = {}

    def run(on_record, pending):
        for rec in trace.records:
            response = list(itertools.islice(feed, 1))
            first = firsts.setdefault(gain_bits(rec.gains), rec)
            if first is rec:
                pending.extend(response)
            on_record(rec, first)
        pending.extend(feed)
        return trace

    return len(render_animation(run, out_dir, plant).records)


def compass_search_records(start, score, cfg) -> list[EvaluationRecord]:
    """The records of a compass search that calls score at every poll, the
    plain statement of the search's polling rule: no cache, no early hook."""
    directions = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                  (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
    best, best_value = start, score(start)
    records = [EvaluationRecord(1, start, best_value, True, best_value.total)]
    step = cfg.initial_step
    while step >= cfg.min_step:
        for dkp, dki, dkd in directions:
            if len(records) >= cfg.max_evals:
                return records
            cand = PidGains(best.kp + step * dkp, best.ki + step * dki, best.kd + step * dkd)
            value = score(cand)
            improved = value.total < best_value.total
            if improved:
                best, best_value = cand, value
            records.append(
                EvaluationRecord(len(records) + 1, cand, value, improved, best_value.total)
            )
            if improved:
                step = min(step * cfg.expand, cfg.initial_step)
                break
        else:
            step *= cfg.shrink
    return records


def polyline_points(resp: StepResponse) -> str:
    """The points attribute of a frame's response curve, one vertex at a
    time: the scalar form of render_frame's plot mapping and its 1,200-vertex
    cap."""
    vals = resp.values
    y_lo = min(0.0, float(np.min(vals)))
    y_hi = max(1.1, float(np.max(vals)))
    margin = 0.05 * (y_hi - y_lo)
    y_lo -= margin
    y_hi += margin
    x0, y0, x1, y1 = 62.0, 18.0, 624.0, 434.0
    if len(vals) > 1200:
        idx = np.linspace(0, len(vals) - 1, 1200).round().astype(int)
    else:
        idx = np.arange(len(vals))
    vertices = []
    for k in idx:
        x = x0 + (x1 - x0) * (k * resp.dt) / resp.t_end
        y = y1 - (y1 - y0) * (vals[k] - y_lo) / (y_hi - y_lo)
        vertices.append(f"{x:.2f},{y:.2f}")
    return " ".join(vertices)


def brute_force_score(values, dt, t_max):
    """Objective by direct scan over the samples: first crossing of the rise
    level 0.98 with linear interpolation, max violation above the band
    [0.98, 1.02] for t > 0, max violation below it for t > rise. Returns
    (total, rise, dev, rose)."""
    rise = None
    for k in range(len(values)):
        if values[k] >= 0.98:
            if k == 0:
                rise = 0.0
            else:
                v0 = float(values[k - 1])
                v1 = float(values[k])
                rise = (k - 1 + (0.98 - v0) / (v1 - v0)) * dt
            break
    rose = rise is not None
    rt = rise if rose else t_max
    deviation = brute_force_deviation(values, dt, rt, rose)
    return rt / t_max + deviation, rt, deviation, rose


def brute_force_deviation(values, dt, rise, rose):
    """Band deviation by direct scan: max violation above 1.02 for t > 0,
    below 0.98 for t = k * dt > rise (only when the response rose)."""
    over = 0.0
    for k in range(1, len(values)):
        over = max(over, float(values[k]) - 1.02)
    over = max(over, 0.0)
    under = 0.0
    if rose:
        for k in range(len(values)):
            if k * dt > rise:
                under = max(under, 0.98 - float(values[k]))
        under = max(under, 0.0)
    return max(over, under)


def random_proper_tf(rng: np.random.Generator, max_degree: int = 5) -> TransferFunction:
    """Random proper transfer function with coefficients in [-10, 10] and a
    leading denominator coefficient bounded away from zero."""
    den_deg = int(rng.integers(1, max_degree + 1))
    num_deg = int(rng.integers(0, den_deg + 1))
    den = rng.uniform(-10.0, 10.0, den_deg + 1)
    lead = rng.uniform(0.1, 10.0) * (1 if rng.random() < 0.5 else -1)
    den[0] = lead
    num = rng.uniform(-10.0, 10.0, num_deg + 1)
    if num[0] == 0.0:
        num[0] = 1.0
    return TransferFunction(tuple(num), tuple(den))


def random_pole_plant(rng: np.random.Generator) -> TransferFunction:
    """A plant of 2-4 real stable poles, each in [-4, -0.2), over a constant
    gain in [0.3, 3)."""
    n_poles = int(rng.integers(2, 5))
    poles = -rng.uniform(0.2, 4.0, n_poles)
    return TransferFunction((float(rng.uniform(0.3, 3.0)),), tuple(np.poly(poles)))


def random_stable_cases(rng: np.random.Generator, count: int):
    """(gains, plant) pairs whose closed-loop step response stays clamped-free
    over the default horizon."""
    cfg = SimConfig()
    cases = []
    while len(cases) < count:
        plant = random_pole_plant(rng)
        kp, ki, kd = rng.uniform(0.0, 2.0, 3)
        gains = PidGains(float(kp), float(ki), float(kd))
        if not step_response(gains, plant, cfg).diverged:
            cases.append((gains, plant))
    return cases
