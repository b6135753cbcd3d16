"""Shared test oracles: slow, direct-scan reimplementations that cross-check
the library's fast paths, plus generators for randomized cases."""

import itertools
import struct

import numpy as np

from pidtune import (
    EvaluationRecord,
    PidGains,
    SimConfig,
    StepResponse,
    TransferFunction,
    render_animation,
    step_response,
)

BENCH3 = TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))


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


def film_finished(trace, responses, out_dir, plant=BENCH3) -> int:
    """render_animation over a search that has already run: replays the
    trace's records, handing record k the k-th response as evaluate would,
    and the first record at its point as optimize would. A record at a point
    an earlier record had gets no response, as the search reuses the first
    score there, and its response is dropped. Responses beyond the last
    record are left unclaimed. Returns the number of records in the trace
    render_animation returns."""
    pending = []
    feed = iter(responses)
    firsts = {}

    def run(on_record):
        for rec in trace.records:
            response = list(itertools.islice(feed, 1))
            first = firsts.setdefault(gain_bits(rec.gains), rec)
            if first is rec:
                pending.extend(response)
            on_record(rec, first)
        pending.extend(feed)
        return trace

    return len(render_animation(run, pending, out_dir, plant).records)


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


def random_stable_cases(rng: np.random.Generator, count: int):
    """(gains, plant) pairs whose closed-loop step response stays clamped-free
    over the default horizon."""
    cfg = SimConfig()
    cases = []
    while len(cases) < count:
        n_poles = int(rng.integers(2, 5))
        poles = -rng.uniform(0.2, 4.0, n_poles)
        plant = TransferFunction((float(rng.uniform(0.3, 3.0)),), tuple(np.poly(poles)))
        kp, ki, kd = rng.uniform(0.0, 2.0, 3)
        gains = PidGains(float(kp), float(ki), float(kd))
        if not step_response(gains, plant, cfg).diverged:
            cases.append((gains, plant))
    return cases
