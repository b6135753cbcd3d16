"""Step-response scoring: rise time over the horizon plus the worst
settling-band violation."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .lti import (
    PidGains,
    SimConfig,
    StepResponse,
    TransferFunction,
    close_unity_feedback,
    pid_transfer_function,
    simulate_step,
    tf_to_state_space,
)


@dataclass(frozen=True)
class SettlingBand:
    """Settling range: the upper level binds for all t > 0, the lower level
    only after the rise time."""

    upper: float = 1.02
    lower: float = 0.98
    rise_level: float = 0.98

    def __post_init__(self):
        if not (self.lower <= self.rise_level < self.upper):
            raise InvalidInput(
                f"need lower <= rise_level < upper, got {self.lower}, "
                f"{self.rise_level}, {self.upper}"
            )


@dataclass(frozen=True)
class ObjectiveValue:
    """One scored response: total = rise_term + deviation, exactly."""

    total: float
    rise_time: float
    rise_term: float
    deviation: float
    rose: bool


def rise_time(resp: StepResponse, band: SettlingBand) -> tuple[float, bool]:
    """Time of the first crossing of band.rise_level, linearly interpolated.

    Returns (t_end, False) when no sample reaches the rise level; the flag
    distinguishes that sentinel from a genuine last-sample crossing.
    """
    vals = resp.values
    hit = int(np.argmax(vals >= band.rise_level))
    if vals[hit] < band.rise_level:  # argmax of all-False is 0
        return resp.t_end, False
    if hit == 0:
        return 0.0, True
    v0 = float(vals[hit - 1])
    v1 = float(vals[hit])
    frac = (band.rise_level - v0) / (v1 - v0)
    return (hit - 1 + frac) * resp.dt, True


def band_deviation(
    resp: StepResponse, band: SettlingBand, rise: float, rose: bool
) -> float:
    """Largest settling-range violation.

    Over-deviation is measured on every sample with t > 0; under-deviation
    only on samples with t > rise, and not at all when the response never
    rose (the lower bound holds only after the rise time).
    """
    vals = resp.values
    over = 0.0
    if len(vals) > 1:
        over = max(0.0, float(np.max(vals[1:])) - band.upper)
    under = 0.0
    if rose:
        k = _first_sample_after(rise, resp.dt, len(vals))
        if k < len(vals):
            under = max(0.0, band.lower - float(np.min(vals[k:])))
    return max(over, under)


def _first_sample_after(t: float, dt: float, n: int) -> int:
    """Smallest k in [0, n] with k * dt > t, or n if there is none.

    The same test as resp.times() > t, sample by sample, without building the
    times array: k * dt is the product times() computes, and it is
    non-decreasing in k (IEEE rounding is monotone), so the samples it
    selects are a suffix. t / dt only guesses k; the checks at k - 1 and k
    make the answer exact (for any t: a NaN or infinite t selects nothing).
    """
    guess = t / dt
    k = min(max(int(guess) + 1, 0), n) if guess < n else n
    while k > 0 and (k - 1) * dt > t:
        k -= 1
    while k < n and not k * dt > t:
        k += 1
    return k


def evaluate(
    gains: PidGains,
    plant: TransferFunction,
    cfg: SimConfig | None = None,
    band: SettlingBand | None = None,
    responses: list[StepResponse] | None = None,
) -> ObjectiveValue:
    """Score a gain vector on a plant: close the loop, simulate, decompose.

    Always finite: divergent responses are clamped by the simulator, so the
    deviation term is bounded by BLOW_UP_LIMIT and the search landscape stays
    total even for destabilizing gains. Raises ImproperLoop (propagated from
    loop closure) when kd makes the loop improper. When responses is given,
    the simulated step response is appended to it, so callers that also need
    the samples (frames, CSV output) do not simulate a second time.
    """
    cfg = cfg if cfg is not None else SimConfig()
    band = band if band is not None else SettlingBand()
    loop = close_unity_feedback(pid_transfer_function(gains), plant)
    resp = simulate_step(tf_to_state_space(loop), cfg)
    if responses is not None:
        responses.append(resp)
    rt, rose = rise_time(resp, band)
    if not rose:
        rt = cfg.t_max
    rise_term = rt / cfg.t_max
    deviation = band_deviation(resp, band, rt, rose)
    return ObjectiveValue(
        total=rise_term + deviation,
        rise_time=rt,
        rise_term=rise_term,
        deviation=deviation,
        rose=rose,
    )
