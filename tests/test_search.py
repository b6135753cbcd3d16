import math

import numpy as np
import pytest

from pidtune import (
    BUDGET_EXHAUSTED,
    STEP_CONVERGED,
    NonFiniteStart,
    ObjectiveValue,
    PidGains,
    SearchConfig,
    optimize,
)

from helpers import BENCH3
from pidtune.objective import evaluate


def synth(total: float) -> ObjectiveValue:
    return ObjectiveValue(
        total=total, rise_time=0.0, rise_term=0.0, deviation=total, rose=False
    )


def sphere(g: PidGains) -> ObjectiveValue:
    return synth(g.kp**2 + g.ki**2 + g.kd**2)


def rederive_flags(records):
    best = math.inf
    out = []
    for rec in records:
        improved = rec.objective.total < best
        best = min(best, rec.objective.total)
        out.append((improved, best))
    return out


class TestOptimize:
    def test_sphere_converges(self):
        trace = optimize(PidGains(1.0, 1.0, 1.0), sphere)
        assert trace.termination == STEP_CONVERGED
        assert len(trace.records) < 600
        assert trace.incumbent_value.total < 1e-8
        assert max(abs(v) for v in (trace.incumbent.kp, trace.incumbent.ki, trace.incumbent.kd)) < 1e-4

    def test_constant_score_shrinks_to_termination(self):
        start = PidGains(3.0, -2.0, 0.5)
        trace = optimize(start, lambda g: synth(7.0))
        assert trace.incumbent == start
        assert trace.termination == STEP_CONVERGED
        assert all(not r.improved for r in trace.records[1:])
        cycles = math.ceil(math.log2(1.0 / 1e-6))
        assert len(trace.records) == 1 + 6 * cycles

    def test_single_eval_budget(self):
        start = PidGains(1.0, 2.0, 3.0)
        trace = optimize(start, sphere, SearchConfig(max_evals=1))
        assert len(trace.records) == 1
        assert trace.incumbent == start
        assert trace.termination == BUDGET_EXHAUSTED

    def test_budget_stops_mid_poll(self):
        trace = optimize(PidGains(1.0, 1.0, 1.0), sphere, SearchConfig(max_evals=10))
        assert len(trace.records) == 10
        assert trace.termination == BUDGET_EXHAUSTED

    def test_first_record_improves_by_convention(self):
        trace = optimize(PidGains(0.0, 0.0, 0.0), sphere, SearchConfig(max_evals=3))
        assert trace.records[0].improved
        assert trace.records[0].index == 1
        assert trace.records[0].best_so_far == 0.0

    def test_indices_contiguous(self):
        trace = optimize(PidGains(1.0, 1.0, 1.0), sphere)
        assert [r.index for r in trace.records] == list(range(1, len(trace.records) + 1))

    def test_flags_match_posthoc_scan(self):
        trace = optimize(PidGains(4.8, 2.6464, 2.1766), lambda g: evaluate(g, BENCH3))
        derived = rederive_flags(trace.records)
        for rec, (improved, best) in zip(trace.records, derived):
            assert rec.improved == improved
            assert rec.best_so_far == best

    def test_best_so_far_non_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, b, c = rng.uniform(0.5, 3.0, 3)
            x0, y0, z0 = rng.uniform(-4.0, 4.0, 3)

            def quad(g):
                return synth(a * (g.kp - x0) ** 2 + b * (g.ki - y0) ** 2 + c * (g.kd - z0) ** 2)

            trace = optimize(PidGains(1.0, -1.0, 2.0), quad)
            bests = [r.best_so_far for r in trace.records]
            assert all(u >= v for u, v in zip(bests, bests[1:]))
            assert trace.incumbent_value.total == min(r.objective.total for r in trace.records)

    def test_every_score_call_recorded(self):
        calls = 0

        def counting(g):
            nonlocal calls
            calls += 1
            return sphere(g)

        trace = optimize(PidGains(1.0, 1.0, 1.0), counting)
        assert calls == len(trace.records)

    def test_on_record_sees_each_record_once_in_order(self):
        seen = []
        calls = 0

        def counting(g):
            nonlocal calls
            calls += 1
            # the previous evaluation's record was handed over before this call
            assert len(seen) == calls - 1
            return sphere(g)

        trace = optimize(PidGains(1.0, 1.0, 1.0), counting, on_record=seen.append)
        assert tuple(seen) == trace.records
        assert trace.records == optimize(PidGains(1.0, 1.0, 1.0), sphere).records

    def test_deterministic(self):
        a = optimize(PidGains(1.0, 1.0, 1.0), sphere)
        b = optimize(PidGains(1.0, 1.0, 1.0), sphere)
        assert a.records == b.records
        assert a.incumbent == b.incumbent
        assert a.termination == b.termination

    def test_ties_are_not_improvements(self):
        # piecewise-constant score: every poll ties with the incumbent
        trace = optimize(PidGains(0.0, 0.0, 0.0), lambda g: synth(1.0), SearchConfig(max_evals=20))
        assert all(not r.improved for r in trace.records[1:])
        assert trace.incumbent == PidGains(0.0, 0.0, 0.0)

    def test_non_finite_start_raises(self):
        with pytest.raises(NonFiniteStart):
            optimize(PidGains(1.0, 1.0, 1.0), lambda g: synth(float("inf")))

    def test_poll_order_is_fixed(self):
        trace = optimize(PidGains(0.0, 0.0, 0.0), lambda g: synth(1.0), SearchConfig(max_evals=7))
        polls = [(r.gains.kp, r.gains.ki, r.gains.kd) for r in trace.records[1:]]
        assert polls == [
            (1.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
        ]

    def test_opportunistic_restart_after_improvement(self):
        # descending kp direction improves immediately; the next poll must
        # restart at +kp around the new incumbent with an expanded step
        seen = []

        def score(g):
            seen.append((g.kp, g.ki, g.kd))
            return synth(abs(g.kp + 9.0))

        optimize(PidGains(0.0, 0.0, 0.0), score, SearchConfig(max_evals=4))
        assert seen[0] == (0.0, 0.0, 0.0)
        assert seen[1] == (1.0, 0.0, 0.0)  # rejected
        assert seen[2] == (-1.0, 0.0, 0.0)  # accepted
        assert seen[3] == (0.0, 0.0, 0.0)  # +kp from new incumbent, step capped at 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(shrink=1.0)
        with pytest.raises(ValueError):
            SearchConfig(expand=0.9)
        with pytest.raises(ValueError):
            SearchConfig(min_step=2.0, initial_step=1.0)
        with pytest.raises(ValueError):
            SearchConfig(max_evals=0)
