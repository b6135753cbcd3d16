"""Compass search over the three gains, recording every objective evaluation."""

import math
import struct
from dataclasses import dataclass
from typing import Callable

from .errors import GainOverflow, InvalidInput, NonFiniteStart
from .lti import PidGains
from .objective import ObjectiveValue

STEP_CONVERGED = "step-converged"
BUDGET_EXHAUSTED = "budget-exhausted"

# Fixed poll order; determinism of the trace depends on it.
_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0),
)

# Repeat-cache key: the exact bits of (kp, ki, kd), so 0.0 and -0.0 differ.
_key = struct.Struct("<3d").pack


@dataclass(frozen=True)
class SearchConfig:
    initial_step: float = 1.0
    shrink: float = 0.5
    expand: float = 2.0
    min_step: float = 1e-6
    max_evals: int = 5000

    def __post_init__(self):
        if not (0.0 < self.shrink < 1.0 <= self.expand):
            raise InvalidInput(f"need 0 < shrink < 1 <= expand, got {self.shrink}, {self.expand}")
        if not (0.0 < self.min_step < self.initial_step < math.inf):
            raise InvalidInput(
                f"need 0 < min_step < initial_step < inf, got {self.min_step}, "
                f"{self.initial_step}"
            )
        if self.max_evals < 1:
            raise InvalidInput(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class EvaluationRecord:
    """One objective evaluation in poll order. improved is strict: true iff
    this total beats every prior one (record 1 improves by convention)."""

    index: int
    gains: PidGains
    objective: ObjectiveValue
    improved: bool
    best_so_far: float


@dataclass(frozen=True)
class SearchTrace:
    records: tuple[EvaluationRecord, ...]
    incumbent: PidGains
    incumbent_value: ObjectiveValue
    termination: str
    config: SearchConfig


def optimize(
    start: PidGains,
    score: Callable[[PidGains], ObjectiveValue],
    cfg: SearchConfig | None = None,
    on_record: Callable[[EvaluationRecord], None] | None = None,
) -> SearchTrace:
    """Minimize score by coordinate compass search with opportunistic polling.

    Polls +/- each coordinate in fixed order around the incumbent; the first
    strictly improving point is accepted immediately, the step expands (capped
    at initial_step) and the poll restarts there. A full cycle without
    improvement shrinks the step. Stops when the step falls below min_step or
    the evaluation budget is spent. Every evaluation lands in the trace,
    rejected polls included. Polls often return to a point already scored
    (most often the previous incumbent); such a repeat reuses the first
    score at that point, keyed on the exact bits of the gains, instead of
    calling score again, and still gets its own record. The cache lives for
    this call only. When on_record is given it is called with each record
    right after the record is appended, in poll order, so a caller can act
    on an evaluation (write its frame) before the next one runs. Raises
    GainOverflow when a poll's gains overflow to a non-finite value.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    scored = {}

    def score_once(gains):
        key = _key(gains.kp, gains.ki, gains.kd)
        value = scored.get(key)
        if value is None:
            value = scored[key] = score(gains)
        return value

    first = score_once(start)
    if not math.isfinite(first.total):
        raise NonFiniteStart(f"score at the starting gains is {first.total}")
    records = []

    def append(record):
        records.append(record)
        if on_record is not None:
            on_record(record)

    append(
        EvaluationRecord(
            index=1, gains=start, objective=first, improved=True, best_so_far=first.total
        )
    )
    best_gains = start
    best_value = first
    step = cfg.initial_step
    termination = None
    while termination is None:
        if step < cfg.min_step:
            termination = STEP_CONVERGED
            break
        moved = False
        for dkp, dki, dkd in _DIRECTIONS:
            if len(records) >= cfg.max_evals:
                termination = BUDGET_EXHAUSTED
                break
            coords = (
                best_gains.kp + step * dkp,
                best_gains.ki + step * dki,
                best_gains.kd + step * dkd,
            )
            if not all(map(math.isfinite, coords)):
                raise GainOverflow(
                    f"poll {len(records) + 1} at step {step:.6g} overflows the gains "
                    f"(kp, ki, kd) to {coords}"
                )
            cand = PidGains(*coords)
            value = score_once(cand)
            improved = bool(value.total < best_value.total)
            if improved:
                best_gains = cand
                best_value = value
            append(
                EvaluationRecord(
                    index=len(records) + 1,
                    gains=cand,
                    objective=value,
                    improved=improved,
                    best_so_far=best_value.total,
                )
            )
            if improved:
                step = min(step * cfg.expand, cfg.initial_step)
                moved = True
                break
        if termination is None and not moved:
            step *= cfg.shrink
    return SearchTrace(
        records=tuple(records),
        incumbent=best_gains,
        incumbent_value=best_value,
        termination=termination,
        config=cfg,
    )
