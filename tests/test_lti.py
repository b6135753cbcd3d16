import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal

from pidtune import (
    ImproperLoop,
    ImproperSystem,
    PidGains,
    SimConfig,
    TransferFunction,
    close_unity_feedback,
    pid_transfer_function,
    simulate_step,
    step_response,
    tf_to_state_space,
)
from pidtune import _kernels
from pidtune.lti import BLOW_UP_LIMIT, MAX_SAMPLES, _rk4_step_map

from helpers import BENCH3, random_proper_tf, sequential_scan


class TestTransferFunction:
    def test_rejects_empty_den(self):
        with pytest.raises(ValueError):
            TransferFunction((1.0,), ())

    def test_rejects_zero_leading_den(self):
        with pytest.raises(ValueError):
            TransferFunction((1.0,), (0.0, 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TransferFunction((float("nan"),), (1.0,))
        with pytest.raises(ValueError):
            TransferFunction((1.0,), (1.0, float("inf")))

    def test_degrees_ignore_leading_zeros(self):
        tf = TransferFunction((0.0, 1.0, 0.0), (1.0, 0.0))
        assert tf.num_degree == 1
        assert tf.den_degree == 1
        assert tf.relative_degree == 0
        assert tf.is_proper

    def test_text_round_trip(self):
        tf = TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))
        assert tf.to_text() == "num: 1 / den: 1 3 3 1"


class TestPidTransferFunction:
    def test_pure_proportional(self):
        tf = pid_transfer_function(PidGains(1.0, 0.0, 0.0))
        assert tf.num == (0.0, 1.0, 0.0)
        assert tf.den == (1.0, 0.0)

    def test_full_pid(self):
        tf = pid_transfer_function(PidGains(2.0, 3.0, 0.5))
        assert tf.num == (0.5, 2.0, 3.0)
        assert tf.den == (1.0, 0.0)

    def test_zero_controller(self):
        tf = pid_transfer_function(PidGains(0.0, 0.0, 0.0))
        assert tf.num == (0.0, 0.0, 0.0)
        assert tf.den == (1.0, 0.0)

    def test_rejects_non_finite_gains(self):
        with pytest.raises(ValueError):
            PidGains(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            PidGains(0.0, float("inf"), 0.0)

    def test_negative_gains_permitted(self):
        g = PidGains(-3.0, -1.0, -0.5)
        assert pid_transfer_function(g).num == (-0.5, -3.0, -1.0)


class TestCloseUnityFeedback:
    def test_unit_controller_integrator_plant(self):
        c = TransferFunction((1.0,), (1.0,))
        g = TransferFunction((1.0,), (1.0, 0.0))
        t = close_unity_feedback(c, g)
        assert t.num == (1.0,)
        assert t.den == (1.0, 1.0)

    def test_constant_controller_first_order_plant(self):
        c = TransferFunction((2.0,), (1.0,))
        g = TransferFunction((1.0,), (1.0, 1.0))
        t = close_unity_feedback(c, g)
        assert t.num == (2.0,)
        assert t.den == (1.0, 3.0)

    def test_kd_on_static_plant_is_improper(self):
        c = pid_transfer_function(PidGains(1.0, 1.0, 1.0))
        g = TransferFunction((1.0,), (1.0,))
        with pytest.raises(ImproperLoop):
            close_unity_feedback(c, g)

    def test_degree_tie_is_accepted(self):
        # kd with a relative-degree-1 plant: product degrees tie at 2
        c = pid_transfer_function(PidGains(1.0, 1.0, 1.0))
        g = TransferFunction((1.0,), (1.0, 1.0))
        t = close_unity_feedback(c, g)
        assert t.num == (1.0, 1.0, 1.0)
        assert t.den == (2.0, 2.0, 1.0)

    def test_leading_cancellation_is_improper(self):
        # kd = -1 against 1/(s+1): leading coefficients of 1 + C*G cancel
        c = pid_transfer_function(PidGains(1.0, 1.0, -1.0))
        g = TransferFunction((1.0,), (1.0, 1.0))
        with pytest.raises(ImproperLoop):
            close_unity_feedback(c, g)

    def test_no_cancellation_of_common_factors(self):
        # C = s/s must stay second order over third, not collapse
        c = pid_transfer_function(PidGains(1.0, 0.0, 0.0))
        g = TransferFunction((1.0,), (1.0, 0.0))
        t = close_unity_feedback(c, g)
        assert t.num == (0.0, 1.0, 0.0)
        assert t.den == (1.0, 1.0, 0.0)


class TestTfToStateSpace:
    def test_first_order(self):
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0, 1.0)))
        assert ss.a.tolist() == [[-1.0]]
        assert ss.b.tolist() == [[1.0]]
        assert ss.c.tolist() == [[1.0]]
        assert ss.d == 0.0

    def test_second_order_with_zero(self):
        ss = tf_to_state_space(TransferFunction((1.0, 2.0), (1.0, 3.0, 2.0)))
        assert ss.a.tolist() == [[0.0, 1.0], [-2.0, -3.0]]
        assert ss.b.tolist() == [[0.0], [1.0]]
        assert ss.c.tolist() == [[2.0, 1.0]]
        assert ss.d == 0.0

    def test_degree_tie_feedthrough(self):
        # (2s+1)/(s+1) = 2 - 1/(s+1)
        ss = tf_to_state_space(TransferFunction((2.0, 1.0), (1.0, 1.0)))
        assert ss.d == 2.0
        assert ss.a.tolist() == [[-1.0]]
        assert ss.b.tolist() == [[1.0]]
        assert ss.c.tolist() == [[-1.0]]

    def test_pure_gain(self):
        ss = tf_to_state_space(TransferFunction((3.0,), (2.0,)))
        assert ss.order == 0
        assert ss.d == 1.5

    @pytest.mark.parametrize("den, a, b", [
        ((2.0,), np.zeros((0, 0)), np.zeros((0, 1))),
        ((2.0, 1.0), [[-0.5]], [[1.0]]),
        ((2.0, 4.0, 1.0), [[0.0, 1.0], [-0.5, -2.0]], [[0.0], [1.0]]),
    ], ids=["order0", "order1", "order2"])
    def test_zero_numerator(self, den, a, b):
        # the zero polynomial has degree -1: no numerator coefficient is placed
        ss = tf_to_state_space(TransferFunction((0.0,) * len(den), den))
        # array_equal compares shapes too, so order 0 must give (0, 0), (0, 1), (1, 0)
        assert np.array_equal(ss.a, a) and np.array_equal(ss.b, b)
        assert np.array_equal(ss.c, np.zeros((1, len(den) - 1)))
        assert ss.d == 0.0

    def test_improper_rejected(self):
        with pytest.raises(ImproperSystem):
            tf_to_state_space(TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0)))

    def test_round_trip_against_scipy(self):
        # realization recovered through an independent path (scipy ss2tf)
        rng = np.random.default_rng(20240521)
        for _ in range(200):
            tf = random_proper_tf(rng)
            ss = tf_to_state_space(tf)
            num_rec, den_rec = signal.ss2tf(ss.a, ss.b, ss.c, np.array([[ss.d]]))
            den_in = np.asarray(tf.den) / tf.den[0]
            num_in = np.zeros(len(den_in))
            src = np.trim_zeros(np.asarray(tf.num), "f")
            if src.size:
                num_in[len(num_in) - src.size :] = src / tf.den[0]
            assert np.allclose(den_rec, den_in, rtol=1e-9, atol=1e-9)
            assert np.allclose(num_rec.ravel(), num_in, rtol=1e-9, atol=1e-9)


class TestSimulateStep:
    def test_first_order_matches_analytic(self):
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0, 1.0)))
        resp = simulate_step(ss, SimConfig(t_max=100.0, dt=0.01))
        t = resp.times()
        assert not resp.diverged
        assert np.max(np.abs(resp.values - (1 - np.exp(-t)))) < 1e-6

    def test_pure_gain_is_constant(self):
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0,)))
        resp = simulate_step(ss, SimConfig(t_max=5.0, dt=0.1))
        assert not resp.diverged
        assert np.all(resp.values == 1.0)

    @pytest.mark.parametrize("gain", [3e6, -3e6])
    def test_pure_gain_beyond_the_limit_clamps_every_sample(self, gain):
        ss = tf_to_state_space(TransferFunction((gain,), (1.0,)))
        resp = simulate_step(ss, SimConfig(t_max=5.0, dt=0.1))
        assert resp.diverged
        assert np.all(resp.values == np.copysign(BLOW_UP_LIMIT, gain))

    def test_unstable_pole_clamps(self):
        # e^t - 1 passes 1e6 near t = 13.8
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0, -1.0)))
        resp = simulate_step(ss, SimConfig(t_max=100.0, dt=0.01))
        assert resp.diverged
        assert resp.values[-1] == 1e6
        assert np.all(resp.values <= 1e6)
        first_clamped = int(np.argmax(resp.values >= 1e6))
        assert abs(first_clamped * 0.01 - np.log(1e6 + 1)) < 0.05

    def test_negative_divergence_clamps_negative(self):
        ss = tf_to_state_space(TransferFunction((-1.0,), (1.0, -1.0)))
        resp = simulate_step(ss, SimConfig(t_max=100.0, dt=0.01))
        assert resp.diverged
        assert resp.values[-1] == -1e6
        assert np.all(np.isfinite(resp.values))

    def test_overflow_on_the_way_to_the_clamp_is_silent(self):
        # kp = 1e308 overflows the RK4 step map itself to inf and NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = step_response(PidGains(1e308, 2.6, 2.2), BENCH3, SimConfig(t_max=5.0))
        assert resp.diverged
        assert np.all(np.abs(resp.values) <= 1e6)

    def test_grid_exactness(self):
        for t_max, dt in [(100.0, 0.01), (1.0, 0.1), (0.95, 0.3), (2.0, 2.0), (10.0, 0.7)]:
            cfg = SimConfig(t_max=t_max, dt=dt)
            ss = tf_to_state_space(TransferFunction((1.0,), (1.0, 1.0)))
            resp = simulate_step(ss, cfg)
            assert len(resp.values) == int(np.floor(t_max / dt)) + 1
            assert len(resp.values) == cfg.n_samples

    def test_linearity(self):
        rng = np.random.default_rng(7)
        cfg = SimConfig(t_max=20.0, dt=0.01)
        for _ in range(20):
            den = (1.0, float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            num = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)))
            alpha = float(rng.uniform(-5.0, 5.0))
            base = simulate_step(tf_to_state_space(TransferFunction(num, den)), cfg)
            scaled = simulate_step(
                tf_to_state_space(TransferFunction(tuple(alpha * c for c in num), den)), cfg
            )
            assert not base.diverged and not scaled.diverged
            assert np.allclose(scaled.values, alpha * base.values, rtol=1e-9, atol=1e-9)

    def test_rk4_order_of_convergence(self):
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0, 1.0)))
        errs = []
        for dt in (0.04, 0.02, 0.01):
            resp = simulate_step(ss, SimConfig(t_max=100.0, dt=dt))
            t = resp.times()
            errs.append(np.max(np.abs(resp.values - (1 - np.exp(-t)))))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_determinism_bit_identical(self):
        ss = tf_to_state_space(TransferFunction((1.0,), (1.0, 3.0, 3.0, 9.0)))
        cfg = SimConfig(t_max=50.0, dt=0.01)
        a = simulate_step(ss, cfg)
        b = simulate_step(ss, cfg)
        assert np.array_equal(a.values, b.values)
        assert a.diverged == b.diverged

    def test_feedthrough_at_t0(self):
        ss = tf_to_state_space(TransferFunction((2.0, 1.0), (1.0, 1.0)))
        resp = simulate_step(ss, SimConfig(t_max=1.0, dt=0.01))
        assert resp.values[0] == 2.0


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(t_max=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_max=1.0, dt=2.0)

    def test_sample_cap(self):
        assert SimConfig(t_max=float(MAX_SAMPLES - 1), dt=1.0).n_samples == MAX_SAMPLES
        with pytest.raises(ValueError):
            SimConfig(t_max=float(MAX_SAMPLES), dt=1.0)
        with pytest.raises(ValueError):
            SimConfig(t_max=1e9, dt=1e-9)
        with pytest.raises(ValueError):
            SimConfig(t_max=float("inf"))

    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.t_max == 100.0
        assert cfg.dt == 0.01
        assert BLOW_UP_LIMIT == 1e6
        assert cfg.n_samples == 10001


# Plants for the oracle test: benchmark3, an integrator chain, a plant with
# a zero, and a relative-degree-1 plant whose PID loop has feedthrough.
ORACLE_PLANTS = (
    BENCH3,
    TransferFunction((1.0,), (1.0, 3.0, 2.0, 0.0)),
    TransferFunction((2.0, 1.0), (1.0, 4.0, 5.0, 2.0)),
    TransferFunction((1.0,), (1.0, 1.0)),
)


# Hand-built maps (two states, or none for a pure gain) whose arithmetic is
# exact in any order, so the kernel must match the oracle bit for bit. Each
# case: step_mat, step_vec, c_row, feed, limit, then the expected first
# clamped sample and clamp.
RULE_CASES = {
    "zero_states_feed_beyond_limit": (np.zeros((0, 0)), [], [], -20.0, 10.0, 0, -10.0),
    "nan_state": ([[0, 0], [0, 0]], [np.nan, 0], [1, 1], 0.0, 1e6, 1, 1e6),
    "nan_output_states_in_band": ([[0, 0], [0, 0]], [0, 1], [np.inf, 1], 0.0, 1e6, 1, 1e6),
    "plus_inf_state": ([[0, 0], [0, 0]], [np.inf, 0], [1, 1], 0.0, 1e6, 1, 1e6),
    "minus_inf_state": ([[0, 0], [0, 0]], [0, -np.inf], [1, 1], 0.0, 1e6, 1, -1e6),
    "first_state_positive": ([[0, 0], [0, 0]], [20, -20], [0, 0], 0.5, 10.0, 2, 10.0),
    "first_state_negative": ([[0, 0], [0, 0]], [-20, 20], [0, 0], 0.5, 10.0, 2, -10.0),
    # x0 runs 0, 1, 3, 7: 3 is in band, 7 triggers at sample 3 with z = 2
    "limit_3": ([[2, 0], [0, 0]], [1, 0.25], [0.25, 1], 0.0, 3.0, 4, 3.0),
}


def _first_clamped(values, limit) -> int:
    hits = np.flatnonzero(np.abs(values) == limit)
    return int(hits[0]) if hits.size else len(values)


class TestScan:
    @settings(max_examples=60, deadline=None)
    @given(
        plant=st.sampled_from(ORACLE_PLANTS),
        gains=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        limit=st.sampled_from((1e6, 10.0, 3.0)),
    )
    # feedthrough kd / (1 + kd) = -4 against 1/(s + 1): out of band at sample 0
    @example(plant=ORACLE_PLANTS[3], gains=(1.0, 1.0, -0.8), limit=3.0)
    # subnormal gains: products underflow, so the orders differ by a subnormal step
    @example(plant=ORACLE_PLANTS[1], gains=(0.0, 0.0, 2.225073858507e-311), limit=1e6)
    @example(plant=ORACLE_PLANTS[1], gains=(0.0, 3e-320, 0.0), limit=1e6)
    def test_matches_sequential_oracle(self, plant, gains, limit):
        try:
            loop = close_unity_feedback(pid_transfer_function(PidGains(*gains)), plant)
        except ImproperLoop:  # kd = -1 against 1/(s + 1) cancels the leading s^2
            assume(False)
        ss = tf_to_state_space(loop)
        n_samples = 3001
        with np.errstate(all="ignore"):
            m, v = _rk4_step_map(ss.a, ss.b, 0.01)
            c = np.ascontiguousarray(ss.c.ravel())
            out, diverged = _kernels.scan(m, v, c, ss.d, n_samples, limit)
            ref, ref_diverged = sequential_scan(m, v, c, ss.d, n_samples, limit)
        assert diverged == ref_diverged
        k_clamp = _first_clamped(ref, limit)
        assert _first_clamped(out, limit) == k_clamp
        assert np.array_equal(out[k_clamp:], ref[k_clamp:])
        # Both evaluate the same recursion in different summation orders. A
        # length-(n + 1) sum is off by at most (n + 1) u times the sum of its
        # terms' magnitudes, so each step adds at most (n + 1) u S_k, where
        # S_k is the largest |d| + sum_i |c_i x_i| up to step k; an error made
        # earlier grows with the trajectory, so k steps add at most k such
        # terms. Measured worst over 700 random loops: 0.32 of this bound.
        # That term models relative rounding only; a product that underflows
        # is off by up to 2^-1075 absolute (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2.1), so each step may add (n + 1) 2^-1075 more.
        x = np.zeros(len(c))
        magnitude = np.empty(k_clamp)
        for k in range(k_clamp):
            magnitude[k] = abs(ss.d) + np.abs(c) @ np.abs(x)
            x = m @ x + v
        steps = np.arange(1, k_clamp + 1)
        tol = steps * (len(c) + 1) * np.finfo(float).eps / 2 * np.maximum.accumulate(magnitude)
        # 2^-1075 itself rounds to 0.0, so halve the count, not the subnormal.
        tol += steps * (len(c) + 1) / 2 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(out[:k_clamp] - ref[:k_clamp]) <= tol)

    @pytest.mark.parametrize("case", RULE_CASES.values(), ids=RULE_CASES.keys())
    def test_divergence_rule_matches_oracle_exactly(self, case):
        mat, vec, c, feed, limit, k_clamp, clamp = case
        args = (np.array(mat, float), np.array(vec, float), np.array(c, float), feed, 6, limit)
        with np.errstate(all="ignore"):
            out, diverged = _kernels.scan(*args)
            ref, ref_diverged = sequential_scan(*args)
        assert diverged and ref_diverged
        assert np.array_equal(out, ref)
        assert np.all(out[k_clamp:] == clamp) and not np.any(np.abs(out[:k_clamp]) == limit)

    def test_zero_state_map_in_band_matches_oracle(self):
        args = (np.zeros((0, 0)), np.zeros(0), np.zeros(0), 0.5, 6, 10.0)
        out, diverged = _kernels.scan(*args)
        ref, ref_diverged = sequential_scan(*args)
        assert not diverged and not ref_diverged
        assert np.array_equal(out, ref) and np.all(out == 0.5)
