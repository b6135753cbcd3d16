import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidtune import (
    PidGains,
    SettlingBand,
    SimConfig,
    StepResponse,
    TransferFunction,
    band_deviation,
    evaluate,
    rise_time,
)

from helpers import BENCH3, brute_force_score, loop_response, random_stable_cases


def make_resp(values, dt=1.0, diverged=False):
    return StepResponse(dt=dt, values=np.asarray(values, dtype=float), diverged=diverged)


BAND = SettlingBand()


class TestSettlingBand:
    def test_defaults(self):
        assert (BAND.upper, BAND.lower, BAND.rise_level) == (1.02, 0.98, 0.98)

    def test_validation(self):
        with pytest.raises(ValueError):
            SettlingBand(upper=0.9, lower=0.98, rise_level=0.98)
        with pytest.raises(ValueError):
            SettlingBand(lower=0.99, rise_level=0.98)


class TestRiseTime:
    def test_exponential_crossing(self):
        t = np.arange(0.0, 100.0 + 1e-9, 0.01)
        resp = make_resp(1 - np.exp(-t), dt=0.01)
        rt, rose = rise_time(resp, BAND)
        assert rose
        assert abs(rt - (-np.log(0.02))) < 0.01

    def test_immediate_crossing(self):
        rt, rose = rise_time(make_resp([1.0, 1.0, 1.0]), BAND)
        assert (rt, rose) == (0.0, True)

    def test_never_crosses(self):
        rt, rose = rise_time(make_resp([0.5] * 11, dt=0.1), BAND)
        assert not rose
        assert rt == pytest.approx(1.0)

    def test_interpolation_between_samples(self):
        # crosses 0.98 between samples 1 and 2: 0.5 + frac * 0.6 = 0.98
        rt, rose = rise_time(make_resp([0.0, 0.5, 1.1]), BAND)
        assert rose
        assert rt == pytest.approx(1.0 + 0.48 / 0.6)

    def test_interpolated_time_within_dt_of_first_crossing(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            vals = np.cumsum(rng.uniform(0.0, 0.2, n))
            dt = float(rng.uniform(0.01, 1.0))
            resp = make_resp(vals, dt=dt)
            rt, rose = rise_time(resp, BAND)
            if rose:
                k = int(np.argmax(vals >= BAND.rise_level))
                assert abs(rt - k * dt) < dt


class TestBandDeviation:
    def test_monotone_exponential_has_none(self):
        t = np.arange(0.0, 100.0 + 1e-9, 0.01)
        resp = make_resp(1 - np.exp(-t), dt=0.01)
        rt, rose = rise_time(resp, BAND)
        assert band_deviation(resp, BAND, rt, rose) == 0.0

    def test_overshoot(self):
        resp = make_resp([0.0, 0.5, 0.99, 1.30, 1.0, 1.0])
        rt, rose = rise_time(resp, BAND)
        dev = band_deviation(resp, BAND, rt, rose)
        assert dev == pytest.approx(1.30 - 1.02, abs=1e-15)

    def test_undershoot_after_rise(self):
        resp = make_resp([0.0, 0.99, 0.90, 0.95, 1.0, 1.0])
        rt, rose = rise_time(resp, BAND)
        dev = band_deviation(resp, BAND, rt, rose)
        assert dev == pytest.approx(0.98 - 0.90, abs=1e-15)

    def test_no_under_window_when_never_rose(self):
        # dips far below but never reached the rise level: only over counts
        resp = make_resp([0.0, 0.5, -5.0, 0.5, 0.5])
        rt, rose = rise_time(resp, BAND)
        assert not rose
        assert band_deviation(resp, BAND, rt, rose) == 0.0

    def test_t0_sample_excluded_from_over(self):
        resp = make_resp([5.0, 1.0, 1.0, 1.0])
        rt, rose = rise_time(resp, BAND)
        assert (rt, rose) == (0.0, True)
        assert band_deviation(resp, BAND, rt, rose) == 0.0

    def test_horizon_exclusion_isolates_each_term(self):
        resp = make_resp([0.0, 0.99, 1.50, 0.90, 1.0, 1.0])
        rt, rose = rise_time(resp, BAND)
        full = band_deviation(resp, BAND, rt, rose)
        over_only = band_deviation(
            resp, SettlingBand(upper=1.02, lower=-1e9, rise_level=0.98), rt, rose
        )
        under_only = band_deviation(
            resp, SettlingBand(upper=1e9, lower=0.98, rise_level=0.98), rt, rose
        )
        assert over_only == pytest.approx(1.50 - 1.02, abs=1e-15)
        assert under_only == pytest.approx(0.98 - 0.90, abs=1e-15)
        assert full == max(over_only, under_only)


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
        assert v.total <= 1.0 + (cfg.blow_up_limit - BAND.lower)

    def test_oracle_equivalence_on_random_stable_loops(self):
        rng = np.random.default_rng(20240522)
        cfg = SimConfig()
        for gains, plant in random_stable_cases(rng, 100):
            v = evaluate(gains, plant, cfg)
            resp = loop_response(gains, plant, cfg)
            total, rt, dev, rose = brute_force_score(
                resp.values, resp.dt, cfg.t_max, BAND
            )
            assert rose == v.rose
            assert abs(v.total - total) <= 1e-12
            assert abs(v.rise_time - rt) <= 1e-12
            assert abs(v.deviation - dev) <= 1e-12
