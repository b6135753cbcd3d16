"""Compass search over the three gains, recording every objective evaluation."""

import math
import struct
from dataclasses import dataclass, field
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
    # the paper's fixed step ratios after a failed poll cycle and after a
    # success; fields so that the trace's config block lists them
    shrink: float = field(default=0.5, init=False)
    expand: float = field(default=2.0, init=False)
    min_step: float = 1e-6
    max_evals: int = 5000

    def __post_init__(self):
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
    cfg: SearchConfig = SearchConfig(),
    on_record: Callable[[EvaluationRecord, EvaluationRecord], None] | None = None,
) -> SearchTrace:
    """Minimize score by coordinate compass search with opportunistic polling.

    Polls +/- each coordinate in fixed order around the incumbent; the first
    strictly improving point is accepted immediately, the step doubles (capped
    at initial_step) and the poll restarts there. A full cycle without
    improvement halves the step. Stops when the step falls below min_step or
    the evaluation budget is spent; when the last poll of a failed cycle
    spends the budget and the halving takes the step below min_step, it
    ends step-converged. Every evaluation lands in the trace,
    rejected polls included. Polls often return to a point already scored
    (most often the previous incumbent); such a repeat reuses the score of
    the first record at that point, keyed on the exact bits of the gains (so
    0.0 and -0.0 differ), instead of calling score again, and still gets its
    own record. The cache lives for this call only. When on_record is given
    it is called as on_record(record, first) right after each record is
    appended, in poll order, where first is the first record at the same
    point: record itself for a new point, so score has just run for it, and
    an earlier record for a repeat. A caller can so act on an evaluation
    (write its frame) before the next one runs. Raises NonFiniteStart, before
    any record, when the start scores non-finite, and GainOverflow when a
    poll's gains overflow to a non-finite value.
    """
    records = []
    firsts = {}  # gains bits -> the first record at that point

    def poll(gains, best):
        """Record an evaluation at gains; it improves when its total is
        strictly below best, the incumbent's total."""
        key = _key(gains.kp, gains.ki, gains.kd)
        first = firsts.get(key)
        value = score(gains) if first is None else first.objective
        if not records and not math.isfinite(value.total):
            raise NonFiniteStart(f"score at the starting gains is {value.total}")
        improved = bool(value.total < best)
        rec = EvaluationRecord(
            len(records) + 1, gains, value, improved, value.total if improved else best
        )
        first = firsts.setdefault(key, rec)
        records.append(rec)
        if on_record is not None:
            on_record(rec, first)
        return rec

    best = poll(start, math.inf)
    step = cfg.initial_step
    while step >= cfg.min_step and len(records) < cfg.max_evals:
        for dkp, dki, dkd in _DIRECTIONS:
            if len(records) >= cfg.max_evals:
                break
            coords = (
                best.gains.kp + step * dkp,
                best.gains.ki + step * dki,
                best.gains.kd + step * dkd,
            )
            if not all(map(math.isfinite, coords)):
                raise GainOverflow(
                    f"poll {len(records) + 1} at step {step:.6g} overflows the gains "
                    f"(kp, ki, kd) to {coords}"
                )
            rec = poll(PidGains(*coords), best.objective.total)
            if rec.improved:
                best = rec
                step = min(step * cfg.expand, cfg.initial_step)
                break
        else:
            step *= cfg.shrink
    return SearchTrace(
        records=tuple(records),
        incumbent=best.gains,
        incumbent_value=best.objective,
        termination=STEP_CONVERGED if step < cfg.min_step else BUDGET_EXHAUSTED,
        config=cfg,
    )
