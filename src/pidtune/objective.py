"""Step-response scoring: rise time over the horizon plus the worst
settling-band violation.

The band is the paper's and fixed: the response has risen at its first
crossing of RISE_LEVEL, it must stay at or below BAND_UPPER for all t > 0,
and at or above BAND_LOWER after the rise time. With hit the first sample
at or above RISE_LEVEL, the rise time lies in [(hit - 1) dt, hit dt], so the
under window starts at sample hit. That sample may sit exactly at the rise
time; reading it is safe because RISE_LEVEL >= BAND_LOWER, and evaluate's
settled prefix needs BAND_LOWER >= RISE_LEVEL, so the two levels are equal.
"""

from dataclasses import dataclass

import numpy as np

from .lti import (
    PidGains,
    SimConfig,
    StepResponse,
    TransferFunction,
    close_unity_feedback,
    simulate_step,
    tf_to_state_space,
)


BAND_UPPER = 1.02
BAND_LOWER = 0.98
RISE_LEVEL = 0.98


@dataclass(frozen=True)
class ObjectiveValue:
    """One scored response: total = rise_term + deviation, exactly."""

    total: float
    rise_time: float
    rise_term: float
    deviation: float
    rose: bool


def _first_risen(vals: np.ndarray) -> int | None:
    """Index of the first sample at or above RISE_LEVEL, or None when no
    sample gets there (a NaN sample never does)."""
    risen = vals >= RISE_LEVEL
    hit = int(risen.argmax())
    return hit if risen[hit] else None  # argmax of all-False is 0


def rise_time(resp: StepResponse) -> tuple[float, bool]:
    """Time of the first crossing of RISE_LEVEL, linearly interpolated.

    Returns (t_end, False) when no sample reaches the rise level; the flag
    distinguishes that sentinel from a genuine last-sample crossing.
    """
    vals = resp.values
    hit = _first_risen(vals)
    if hit is None:
        return resp.t_end, False
    if hit == 0:
        return 0.0, True
    v0 = float(vals[hit - 1])
    v1 = float(vals[hit])
    frac = (RISE_LEVEL - v0) / (v1 - v0)
    return (hit - 1 + frac) * resp.dt, True


def band_deviation(resp: StepResponse) -> float:
    """Largest settling-range violation.

    Over-deviation is measured on every sample with t > 0; under-deviation
    from the first sample at or above RISE_LEVEL on, and not at all when no
    sample gets there (the lower bound holds only after the rise time).
    """
    # ndarray methods: np.max, np.min and np.argmax add about a microsecond
    # of dispatch each, as much as one reduction of a settled prefix costs
    vals = resp.values
    over = max(0.0, float(vals[1:].max(initial=-np.inf)) - BAND_UPPER)
    hit = _first_risen(vals)
    under = 0.0 if hit is None else max(0.0, BAND_LOWER - float(vals[hit:].min()))
    return max(over, under)


def step_response(
    gains: PidGains,
    plant: TransferFunction,
    cfg: SimConfig = SimConfig(),
    settle: tuple[float, float] | None = None,
) -> StepResponse:
    """Unit-step response of the plant under the ideal PID in unity feedback:
    the one place that closes the loop, realizes it and simulates it, with
    settle passed on to simulate_step. Raises ImproperLoop (from loop
    closure) when kd makes the loop improper, and InvalidInput when the
    closed loop's coefficients or its realization overflow float64."""
    return simulate_step(tf_to_state_space(close_unity_feedback(gains, plant)), cfg, settle=settle)


def evaluate(
    gains: PidGains,
    plant: TransferFunction,
    cfg: SimConfig = SimConfig(),
    responses: list[StepResponse] | None = None,
) -> ObjectiveValue:
    """Score a gain vector on a plant: take its step_response and decompose
    it into the rise term and the deviation from the fixed band (BAND_LOWER,
    BAND_UPPER, RISE_LEVEL).

    Always finite: divergent responses are clamped by the simulator, so the
    deviation term is bounded by BLOW_UP_LIMIT and the search landscape stays
    total even for destabilizing gains. Raises ImproperLoop and InvalidInput
    as step_response does. When responses is given, the simulated step
    response is appended to it, so callers that also need the samples
    (frames, CSV output) do not simulate a second time. Without it the
    simulation may stop once a Lyapunov certificate shows that the rest of
    the risen response stays inside the band, or just after a diverged
    response's first clamped sample; either leaves every field the same to
    the bit. A response that never rose is scored at cfg.t_max, however many
    samples it kept.
    """
    # A settled prefix ends in the band, at or above BAND_LOWER >= RISE_LEVEL,
    # so it holds the first crossing of RISE_LEVEL and every sample outside
    # the band; a diverged one holds its clamp after sample 0, which every
    # later sample repeats.
    settle = (BAND_LOWER, BAND_UPPER) if responses is None else None
    resp = step_response(gains, plant, cfg, settle=settle)
    if responses is not None:
        responses.append(resp)
    rt, rose = rise_time(resp)
    if not rose:
        rt = cfg.t_max
    rise_term = rt / cfg.t_max
    deviation = band_deviation(resp)
    return ObjectiveValue(
        total=rise_term + deviation,
        rise_time=rt,
        rise_term=rise_term,
        deviation=deviation,
        rose=rose,
    )
