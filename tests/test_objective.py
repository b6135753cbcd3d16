from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidtune import (
    ImproperLoop,
    PidGains,
    SimConfig,
    StepResponse,
    TransferFunction,
    band_deviation,
    close_unity_feedback,
    evaluate,
    rise_time,
    simulate_step,
    step_response,
    tf_to_state_space,
)
from pidtune.lti import BLOW_UP_LIMIT
from pidtune.objective import BAND_LOWER, BAND_UPPER, RISE_LEVEL
from pidtune.tuning import ultimate_point, zn_pid_gains

from helpers import (
    BENCH3,
    ORACLE_PLANTS,
    brute_force_score,
    first_clamped,
    random_stable_cases,
)

ZN = zn_pid_gains(ultimate_point(BENCH3))


def make_resp(values, dt=1.0, diverged=False):
    return StepResponse(dt=dt, values=np.asarray(values, dtype=float), diverged=diverged)


# the CLI's round steps, whose multiples k * dt often round off k's decimal
# value, plus arbitrary ones
STEPS = st.one_of(
    st.sampled_from([0.01, 0.1, 0.05, 0.003, 0.3, 1.0]),
    st.floats(1e-3, 2.0),
)


class TestRiseTime:
    def test_exponential_crossing(self):
        t = np.arange(0.0, 100.0 + 1e-9, 0.01)
        resp = make_resp(1 - np.exp(-t), dt=0.01)
        rt, rose = rise_time(resp)
        assert rose
        assert abs(rt - (-np.log(0.02))) < 0.01

    def test_immediate_crossing(self):
        rt, rose = rise_time(make_resp([1.0, 1.0, 1.0]))
        assert (rt, rose) == (0.0, True)

    def test_never_crosses(self):
        rt, rose = rise_time(make_resp([0.5] * 11, dt=0.1))
        assert not rose
        assert rt == pytest.approx(1.0)

    def test_nan_first_sample_is_no_rise(self):
        # argmax of an all-False mask is 0; a NaN there is not a crossing,
        # as band_deviation, which finds no risen sample, agrees
        resp = make_resp([np.nan, 0.5, 0.2])
        assert rise_time(resp) == (2.0, False)
        assert band_deviation(resp) == 0.0

    def test_interpolation_between_samples(self):
        # crosses 0.98 between samples 1 and 2: 0.5 + frac * 0.6 = 0.98
        rt, rose = rise_time(make_resp([0.0, 0.5, 1.1]))
        assert rose
        assert rt == pytest.approx(1.0 + 0.48 / 0.6)

    def test_interpolated_time_within_dt_of_first_crossing(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            vals = np.cumsum(rng.uniform(0.0, 0.2, n))
            dt = float(rng.uniform(0.01, 1.0))
            resp = make_resp(vals, dt=dt)
            rt, rose = rise_time(resp)
            if rose:
                k = int(np.argmax(vals >= RISE_LEVEL))
                assert abs(rt - k * dt) < dt


class TestBandDeviation:
    def test_monotone_exponential_has_none(self):
        t = np.arange(0.0, 100.0 + 1e-9, 0.01)
        assert band_deviation(make_resp(1 - np.exp(-t), dt=0.01)) == 0.0

    def test_overshoot(self):
        dev = band_deviation(make_resp([0.0, 0.5, 0.99, 1.30, 1.0, 1.0]))
        assert dev == pytest.approx(1.30 - 1.02, abs=1e-15)

    def test_undershoot_after_rise(self):
        dev = band_deviation(make_resp([0.0, 0.99, 0.90, 0.95, 1.0, 1.0]))
        assert dev == pytest.approx(0.98 - 0.90, abs=1e-15)

    def test_no_under_window_when_never_rose(self):
        # dips far below but never reached the rise level: only over counts
        resp = make_resp([0.0, 0.5, -5.0, 0.5, 0.5])
        assert not rise_time(resp)[1]
        assert band_deviation(resp) == 0.0

    def test_t0_sample_excluded_from_over(self):
        resp = make_resp([5.0, 1.0, 1.0, 1.0])
        assert rise_time(resp) == (0.0, True)
        assert band_deviation(resp) == 0.0

    def test_horizon_exclusion_isolates_each_term(self):
        # one response only overshoots, one only undershoots after its rise,
        # and one that does both scores the larger violation
        over_only = make_resp([0.0, 0.99, 1.50, 1.0, 1.0, 1.0])
        under_only = make_resp([0.0, 0.99, 1.0, 0.90, 1.0, 1.0])
        both = make_resp([0.0, 0.99, 1.50, 0.90, 1.0, 1.0])
        over, under, full = (band_deviation(r) for r in (over_only, under_only, both))
        assert over == pytest.approx(1.50 - 1.02, abs=1e-15)
        assert under == pytest.approx(0.98 - 0.90, abs=1e-15)
        assert full == max(over, under)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.lists(st.floats(-2.0, 0.97), max_size=30),
        tail=st.lists(st.floats(-2.0, 3.0), max_size=30),
        dt=STEPS,
        on_grid=st.booleans(),
    )
    def test_score_matches_brute_force_on_grid_crossings(self, head, tail, dt, on_grid):
        # with a sample exactly at the rise level the interpolated rise time
        # is that sample's own k * dt: the reference leaves it out of the
        # under window, and band_deviation reads it
        values = [*head, RISE_LEVEL if on_grid else 0.99, *tail]
        resp = make_resp(values, dt=dt)
        rt, rose = rise_time(resp)
        if on_grid:
            assert rt == len(head) * dt
        t_max = resp.t_end if len(values) > 1 else dt
        want_total, want_rt, want_dev, want_rose = brute_force_score(values, dt, t_max)
        assert (rt, rose) == (want_rt, want_rose)
        assert band_deviation(resp) == want_dev

    @pytest.mark.parametrize("values", [
        [5.0],  # one sample: no t > 0 for over, and the under window is that sample
    ], ids=["one_sample"])
    def test_empty_windows_score_zero(self, values):
        assert band_deviation(make_resp(values)) == 0.0


class TestStepResponse:
    @pytest.mark.parametrize("gains,diverged", [
        (PidGains(4.8, 2.64638, 2.17656), False),  # ZN-like, settles
        (PidGains(-8.0, -5.0, 6.0), True),
    ])
    def test_is_the_loop_chain_and_what_evaluate_appends(self, gains, diverged):
        cfg = SimConfig(t_max=20.0)
        resp = step_response(gains, BENCH3, cfg)
        loop = close_unity_feedback(gains, BENCH3)
        chain = simulate_step(tf_to_state_space(loop), cfg)
        responses = []
        evaluate(gains, BENCH3, cfg, responses)
        assert resp.diverged == diverged
        for other in (chain, *responses):
            assert np.array_equal(resp.values, other.values)
            assert (other.dt, other.diverged) == (resp.dt, resp.diverged)
        assert len(responses) == 1

    def test_default_grid_is_simconfig(self):
        gains = PidGains(1.0, 0.5, 0.0)
        want = step_response(gains, BENCH3, SimConfig())
        assert np.array_equal(step_response(gains, BENCH3).values, want.values)


class TestEvaluate:
    def test_integrator_plant_analytic(self):
        plant = TransferFunction((1.0,), (1.0, 0.0))
        v = evaluate(PidGains(1.0, 0.0, 0.0), plant)
        assert abs(v.total - 0.039120) < 2e-4
        assert abs(v.rise_time - 3.9120) < 0.01
        assert v.deviation == 0.0
        assert v.rose

    def test_low_gain_never_rises(self):
        # loop s/(s^2+2s): steady state 0.5, stuck below the rise level
        plant = TransferFunction((1.0,), (1.0, 1.0))
        v = evaluate(PidGains(1.0, 0.0, 0.0), plant)
        assert v.total == 1.0
        assert v.rise_term == 1.0
        assert v.rise_time == 100.0
        assert v.deviation == 0.0
        assert not v.rose

    def test_zero_controller_scores_one(self):
        v = evaluate(PidGains(0.0, 0.0, 0.0), BENCH3)
        assert v.total == 1.0
        assert not v.rose

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = PidGains(*(float(x) for x in rng.uniform(-10.0, 10.0, 3)))
            v = evaluate(g, BENCH3, SimConfig(t_max=20.0, dt=0.01))
            assert v.total == v.rise_term + v.deviation

    @settings(max_examples=60, deadline=None)
    @given(
        kp=st.floats(-1e30, 1e30, allow_nan=False),
        ki=st.floats(-1e30, 1e30, allow_nan=False),
        kd=st.floats(-1e30, 1e30, allow_nan=False),
    )
    def test_totality_on_arbitrary_finite_gains(self, kp, ki, kd):
        v = evaluate(PidGains(kp, ki, kd), BENCH3, SimConfig(t_max=5.0, dt=0.01))
        assert np.isfinite(v.total)
        assert np.isfinite(v.rise_time)
        assert np.isfinite(v.deviation)
        assert 0.0 <= v.rise_term <= 1.0
        assert v.deviation >= 0.0

    def test_divergent_gains_score_finite_and_bounded(self):
        cfg = SimConfig()
        v = evaluate(PidGains(-8.0, -5.0, 6.0), BENCH3, cfg)
        assert np.isfinite(v.total)
        assert v.total <= 1.0 + (BLOW_UP_LIMIT - BAND_LOWER)

    def test_oracle_equivalence_on_random_stable_loops(self):
        rng = np.random.default_rng(20240522)
        cfg = SimConfig()
        for gains, plant in random_stable_cases(rng, 100):
            v = evaluate(gains, plant, cfg)
            resp = step_response(gains, plant, cfg)
            total, rt, dev, rose = brute_force_score(resp.values, resp.dt, cfg.t_max)
            assert rose == v.rose
            assert abs(v.total - total) <= 1e-12
            assert abs(v.rise_time - rt) <= 1e-12
            assert abs(v.deviation - dev) <= 1e-12


def value_bits(value):
    """Every field of an ObjectiveValue, floats as their exact hex, so that
    0.0 and -0.0 differ."""
    return [f.hex() if isinstance(f, float) else f for f in astuple(value)]


# Beyond the oracle plants: a slow lag (a pole near -0.144), whose stable
# loops settle late in the horizon, and an integrator with a zero at -0.5.
SETTLE_PLANTS = (
    *ORACLE_PLANTS,
    TransferFunction((1.0,), (1.0, 1.2, 0.5, 0.05)),
    TransferFunction((1.0, 0.5), (1.0, 2.0, 1.0, 0.0)),
)


# Diverging responses: plant, gains, t_max, the first clamped sample and
# the samples a settled scan keeps, up to and including the first clamped
# one after sample 0, or all of them.
DIVERGING = {
    # feedthrough kd / (1 + kd) beyond the limit: clamped from sample 0
    "sample_0_plus": (ORACLE_PLANTS[3], (0.0, 0.0, -1.0000001), 100.0, 0, 2),
    "sample_0_minus": (ORACLE_PLANTS[3], (0.0, 0.0, -0.9999999), 100.0, 0, 2),
    # a state leaves first, at sample 6,047: its output, -167,418.67, stands
    # and the clamp, +limit, takes the state's sign
    "state_keeps_its_output": (ORACLE_PLANTS[3], (0.07, -0.28, 0.47), 100.0, 6048, 6049),
    # -582,882.5 at sample 3, then +limit: the clamp is the first rise
    "clamp_is_the_first_rise": (BENCH3, (1.5e5, -8e5, 6.7e5), 100.0, 4, 5),
    "output_in_the_last_sample": (BENCH3, (1.5e5, -8e5, 6.7e5), 0.045, 4, 5),
    # a state leaves at sample 7,617, the last: no sample is clamped
    "state_in_the_last_sample": (SETTLE_PLANTS[4], (0.075, 0.155, -0.114), 76.175, 7618, 7618),
}


class TestSettledEvaluate:
    """evaluate without responses may stop the scan once the response is
    certified settled; it must give the same ObjectiveValue, bit for bit,
    as evaluate with responses, which always scans the full horizon."""

    def test_a_prefix_in_the_band_holds_the_rise(self):
        # Both scoring shortcuts rest on RISE_LEVEL == BAND_LOWER. evaluate
        # hands the settle rule the band alone: a prefix that ends at or above
        # BAND_LOWER has crossed RISE_LEVEL only if BAND_LOWER >= RISE_LEVEL.
        # band_deviation's under window starts at the first sample at or above
        # RISE_LEVEL, which may sit exactly at the rise time: reading it
        # cannot lower the minimum only if RISE_LEVEL >= BAND_LOWER.
        assert RISE_LEVEL == BAND_LOWER

    def test_zn_response_is_scored_from_a_prefix(self):
        cfg = SimConfig()
        settle = (BAND_LOWER, BAND_UPPER)
        assert len(step_response(ZN, BENCH3, cfg, settle=settle).values) < cfg.n_samples // 4
        assert value_bits(evaluate(ZN, BENCH3, cfg)) == value_bits(evaluate(ZN, BENCH3, cfg, []))

    @settings(max_examples=150, deadline=None)
    @given(
        plant=st.sampled_from(SETTLE_PLANTS),
        kp=st.floats(0.0, 8.0),
        ki=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        kd=st.floats(0.0, 4.0),
        t_max=st.sampled_from([100.0, 20.0, 5.0]),
    )
    @example(plant=BENCH3, kp=ZN.kp, ki=ZN.ki, kd=ZN.kd, t_max=100.0)
    # ki = 0 leaves the loop a pole at s = 0, so I - M is singular and the
    # certificate is refused; around the integrator chain the response
    # still rises and settles at 1
    @example(plant=ORACLE_PLANTS[1], kp=1.0, ki=0.0, kd=1.0, t_max=100.0)
    # ki = 0 around a plant without an integrator: the response settles at
    # kp / (1 + kp), below the band, and never rises
    @example(plant=BENCH3, kp=2.0, ki=0.0, kd=1.0, t_max=100.0)
    # diverging responses, scored from a prefix that ends after the clamp
    # begins (DIVERGING names each case)
    @example(plant=ORACLE_PLANTS[3], kp=0.0, ki=0.0, kd=-1.0000001, t_max=100.0)
    @example(plant=ORACLE_PLANTS[3], kp=0.0, ki=0.0, kd=-0.9999999, t_max=100.0)
    @example(plant=ORACLE_PLANTS[3], kp=0.07, ki=-0.28, kd=0.47, t_max=100.0)
    @example(plant=BENCH3, kp=1.5e5, ki=-8e5, kd=6.7e5, t_max=100.0)
    @example(plant=BENCH3, kp=1.5e5, ki=-8e5, kd=6.7e5, t_max=0.045)
    @example(plant=SETTLE_PLANTS[4], kp=0.075, ki=0.155, kd=-0.114, t_max=76.175)
    def test_equals_the_full_scan_bit_for_bit(self, plant, kp, ki, kd, t_max):
        gains, cfg = PidGains(kp, ki, kd), SimConfig(t_max=t_max)
        try:
            want = evaluate(gains, plant, cfg, [])
        except ImproperLoop:
            return
        assert value_bits(evaluate(gains, plant, cfg)) == value_bits(want)

    @pytest.mark.parametrize("case", DIVERGING.values(), ids=DIVERGING.keys())
    def test_diverged_response_is_scored_from_a_prefix(self, case):
        plant, gains, t_max, first, kept = case
        gains, cfg = PidGains(*gains), SimConfig(t_max=t_max)
        full = step_response(gains, plant, cfg)
        part = step_response(gains, plant, cfg, settle=(BAND_LOWER, BAND_UPPER))
        assert full.diverged and part.diverged
        assert first_clamped(full.values, BLOW_UP_LIMIT) == first
        assert len(part.values) == kept and np.array_equal(part.values, full.values[:kept])
        want = evaluate(gains, plant, cfg, [])
        assert value_bits(evaluate(gains, plant, cfg)) == value_bits(want)
