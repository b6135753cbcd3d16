import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidtune import (
    BUDGET_EXHAUSTED,
    STEP_CONVERGED,
    GainOverflow,
    InvalidInput,
    NonFiniteStart,
    ObjectiveValue,
    PidGains,
    SearchConfig,
    optimize,
)

from helpers import BENCH3, compass_search_records, gain_bits
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

    @pytest.mark.parametrize("max_evals, records, termination", [
        # the 20th failed cycle spends the budget and takes the step below
        # min_step at once: the step decides
        (121, 121, STEP_CONVERGED),
        (115, 115, BUDGET_EXHAUSTED),
    ])
    def test_budget_and_step_ending_together(self, max_evals, records, termination):
        trace = optimize(PidGains(3.0, -2.0, 0.5), lambda g: synth(7.0),
                         SearchConfig(max_evals=max_evals))
        assert (len(trace.records), trace.termination) == (records, termination)

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
        # every point scored lands in the trace, once per distinct point;
        # polls that repeat a point are recorded too, without a second call
        calls = []

        def counting(g):
            calls.append(gain_bits(g))
            return sphere(g)

        trace = optimize(PidGains(1.0, 1.0, 1.0), counting)
        first_seen = list(dict.fromkeys(gain_bits(r.gains) for r in trace.records))
        assert calls == first_seen
        assert len(trace.records) > len(calls)  # the sphere search repeats points

    def test_on_record_sees_each_record_once_in_order(self):
        seen = []
        scored = []

        def counting(g):
            # every record made so far was handed over before this call, and
            # this call scores a point none of them holds
            assert {gain_bits(r.gains) for r in seen} == set(scored)
            scored.append(gain_bits(g))
            return sphere(g)

        trace = optimize(
            PidGains(1.0, 1.0, 1.0), counting, on_record=lambda rec, first: seen.append(rec)
        )
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

        trace = optimize(PidGains(0.0, 0.0, 0.0), score, SearchConfig(max_evals=4))
        polls = [(r.gains.kp, r.gains.ki, r.gains.kd) for r in trace.records]
        assert polls[0] == (0.0, 0.0, 0.0)
        assert polls[1] == (1.0, 0.0, 0.0)  # rejected
        assert polls[2] == (-1.0, 0.0, 0.0)  # accepted
        assert polls[3] == (0.0, 0.0, 0.0)  # +kp from new incumbent, step capped at 1
        # the 4th poll repeats the start, so it reuses the start's score
        assert seen == polls[:3]
        assert trace.records[3].objective is trace.records[0].objective
        assert not trace.records[3].improved

    def test_gain_overflow_names_the_poll(self):
        start = PidGains(0.0, 0.0, 1e308)
        cfg = SearchConfig(initial_step=1e308, max_evals=40)
        seen = []
        with pytest.raises(GainOverflow, match=r"poll 6 at step 1e\+308"):
            optimize(start, lambda g: synth(1.0), cfg,
                     on_record=lambda rec, first: seen.append(rec))
        assert [r.index for r in seen] == [1, 2, 3, 4, 5]  # no poll skipped

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(min_step=2.0, initial_step=1.0)
        with pytest.raises(ValueError):
            SearchConfig(max_evals=0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_non_finite_initial_step_is_invalid_input(self, step):
        # an infinite step passed 0 < min_step < initial_step and overflowed
        # the gains at the first poll
        with pytest.raises(InvalidInput, match="initial_step < inf"):
            SearchConfig(initial_step=step)


class TestRepeatCache:
    def test_signed_zeros_are_scored_separately(self):
        # from the incumbent -1, the +kp poll lands on 0.0, the start's -0.0
        # flipped: equal as floats, distinct as points
        seen = []

        def score(g):
            seen.append(gain_bits(g))
            return synth(abs(g.kp + 9.0))

        trace = optimize(PidGains(-0.0, 0.0, 0.0), score, SearchConfig(max_evals=4))
        assert [gain_bits(r.gains) for r in trace.records] == seen
        assert gain_bits(trace.records[0].gains) != gain_bits(trace.records[3].gains)
        assert trace.records[0].gains == trace.records[3].gains

    @pytest.mark.parametrize(
        "start, want_firsts",
        [
            # record 11 is the third visit to the start: its first is record 1,
            # not record 4, the repeat in between
            (0.0, [1, 2, 3, 1, 5, 6, 7, 5, 9, 10, 1]),
            # from -0.0, record 4 lands on 0.0, a new point, and record 11 on
            # the same 0.0 again
            (-0.0, [1, 2, 3, 4, 5, 6, 7, 5, 9, 10, 4]),
        ],
    )
    def test_on_record_is_handed_the_first_record_at_the_point(self, start, want_firsts):
        # the incumbent walks (0,0,0) -> (1,0,0) -> (1,1,0) -> (0,1,0), and
        # each of the last three polls the start's point back
        path = {(0.0, 0.0, 0.0): 4.0, (1.0, 0.0, 0.0): 3.0, (1.0, 1.0, 0.0): 2.0,
                (0.0, 1.0, 0.0): 1.0}
        scored = []

        def score(g):
            scored.append(gain_bits(g))
            return synth(path.get((g.kp, g.ki, g.kd), 10.0))

        pairs = []
        trace = optimize(PidGains(start, 0.0, 0.0), score, SearchConfig(max_evals=11),
                         on_record=lambda rec, first: pairs.append((rec, first)))
        assert [rec for rec, _ in pairs] == list(trace.records)
        assert [first.index for _, first in pairs] == want_firsts
        for rec, first in pairs:
            assert first is trace.records[first.index - 1]
            assert gain_bits(first.gains) == gain_bits(rec.gains)
            assert rec.objective is first.objective
        assert scored == [gain_bits(rec.gains) for rec, first in pairs if first is rec]

    def test_cache_lives_for_one_call(self):
        calls = 0

        def counting(g):
            nonlocal calls
            calls += 1
            return sphere(g)

        first = optimize(PidGains(1.0, 1.0, 1.0), counting)
        per_search = calls
        second = optimize(PidGains(1.0, 1.0, 1.0), counting)
        assert calls == 2 * per_search
        assert first.records == second.records

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.tuples(*[st.floats(0.1, 5.0)] * 3),
        center=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        start=st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.75])] * 3),
        step=st.sampled_from([0.25, 1.0, 3.0, 10.0]),
        quantum=st.sampled_from([0.0, 0.5, 2.0]),
        max_evals=st.integers(1, 200),
    )
    def test_repeats_score_once_and_change_no_record(
        self, weights, center, start, step, quantum, max_evals
    ):
        # quadratic bowls, coarsened into plateaus when quantum > 0 so that
        # ties and non-improving cycles occur too
        def quad(g):
            total = sum(w * (x - c) ** 2 for w, x, c in zip(weights, (g.kp, g.ki, g.kd), center))
            return synth(math.floor(total / quantum) * quantum if quantum else total)

        calls = Counter()

        def counting(g):
            calls[gain_bits(g)] += 1
            return quad(g)

        cfg = SearchConfig(initial_step=step, min_step=1e-3, max_evals=max_evals)
        firsts = []
        trace = optimize(PidGains(*start), counting, cfg,
                         on_record=lambda rec, first: firsts.append(first))
        want = {}
        assert firsts == [want.setdefault(gain_bits(r.gains), r) for r in trace.records]
        assert set(calls) == {gain_bits(r.gains) for r in trace.records}
        assert set(calls.values()) == {1}
        for rec in trace.records:
            assert rec.objective == quad(rec.gains)
        assert list(trace.records) == compass_search_records(PidGains(*start), quad, cfg)
