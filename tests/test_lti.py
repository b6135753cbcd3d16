import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal

from pidtune import (
    ImproperLoop,
    InvalidInput,
    PidGains,
    SimConfig,
    TransferFunction,
    close_unity_feedback,
    evaluate,
    optimize,
    simulate_step,
    step_response,
    tf_to_state_space,
)
from pidtune import _kernels
from pidtune._kernels import BLOCK
from pidtune.lti import BLOW_UP_LIMIT, MAX_SAMPLES, _rk4_step_map
from pidtune.objective import BAND_LOWER, BAND_UPPER
from pidtune.tuning import ultimate_point, zn_pid_gains

from helpers import (
    BENCH3,
    ORACLE_PLANTS,
    counting_state_tables,
    decimal_scan,
    draw_loops,
    first_clamped,
    full_table_scan,
    loop_step_map,
    random_proper_tf,
    scan_error_bound,
    sequential_scan,
    table_blocks,
)


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

    def test_improper_rejected(self):
        with pytest.raises(InvalidInput, match="num degree 2 > den degree 1"):
            TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0))

    def test_text_round_trip(self):
        tf = TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))
        assert tf.to_text() == "num: 1 / den: 1 3 3 1"


class TestPidGains:
    def test_rejects_non_finite_gains(self):
        with pytest.raises(ValueError):
            PidGains(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            PidGains(0.0, float("inf"), 0.0)


LAG1 = TransferFunction((1.0,), (1.0, 1.0))


class TestCloseUnityFeedback:
    # The PID is [kd, kp, ki] over [1, 0] for every gain vector, so around
    # 1/(s + 1) the loop is (kd s^2 + kp s + ki) / ((1 + kd) s^2 + (1 + kp) s + ki).
    def test_pure_proportional(self):
        t = close_unity_feedback(PidGains(1.0, 0.0, 0.0), LAG1)
        assert t.num == (0.0, 1.0, 0.0)
        assert t.den == (1.0, 2.0, 0.0)

    def test_full_pid(self):
        t = close_unity_feedback(PidGains(2.0, 3.0, 0.5), LAG1)
        assert t.num == (0.5, 2.0, 3.0)
        assert t.den == (1.5, 3.0, 3.0)

    def test_zero_controller(self):
        # zero gains keep the integrator's pole at s = 0
        t = close_unity_feedback(PidGains(0.0, 0.0, 0.0), LAG1)
        assert t.num == (0.0, 0.0, 0.0)
        assert t.den == (1.0, 1.0, 0.0)

    def test_negative_gains_permitted(self):
        t = close_unity_feedback(PidGains(-3.0, -1.0, -0.5), LAG1)
        assert t.num == (-0.5, -3.0, -1.0)
        assert t.den == (0.5, -2.0, -1.0)

    def test_kd_on_static_plant_is_improper(self):
        g = TransferFunction((1.0,), (1.0,))
        with pytest.raises(ImproperLoop, match="relative degree -1"):
            close_unity_feedback(PidGains(1.0, 1.0, 1.0), g)

    def test_degree_tie_is_accepted(self):
        # kd with a relative-degree-1 plant: product degrees tie at 2
        t = close_unity_feedback(PidGains(1.0, 1.0, 1.0), LAG1)
        assert t.num == (1.0, 1.0, 1.0)
        assert t.den == (2.0, 2.0, 1.0)

    def test_leading_cancellation_is_improper(self):
        # kd = -1 against 1/(s+1): leading coefficients of 1 + C*G cancel
        with pytest.raises(ImproperLoop, match=r"leading coefficients of 1 \+ C\*G cancelled"):
            close_unity_feedback(PidGains(1.0, 1.0, -1.0), LAG1)

    def test_every_coefficient_cancelled_is_improper(self):
        # kp = -1, ki = 0, kd = -1 against 1/(s+1): 1 + C*G is identically 0
        with pytest.raises(ImproperLoop, match=r"leading coefficients of 1 \+ C\*G cancelled"):
            close_unity_feedback(PidGains(-1.0, 0.0, -1.0), LAG1)

    def test_no_cancellation_of_common_factors(self):
        # C = s/s must stay second order over third, not collapse
        g = TransferFunction((1.0,), (1.0, 0.0))
        t = close_unity_feedback(PidGains(1.0, 0.0, 0.0), g)
        assert t.num == (0.0, 1.0, 0.0)
        assert t.den == (1.0, 1.0, 0.0)


    def test_numerator_coefficients_are_rounded_once(self):
        # s^2's coefficient is ki + kp + kd = 1e16 + 2 exactly; adding from
        # ki rounds 1e16 + 1 to 1e16 twice
        g = TransferFunction((1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0))
        t = close_unity_feedback(PidGains(1.0, 1e16, 1.0), g)
        assert t.num[2] == 1e16 + 2

    @pytest.mark.parametrize("gains, num", [
        (PidGains(1e308, 0.0, 0.0), (10.0, 10.0)),  # a product overflows
        (PidGains(1e308, 0.0, 1e308), (1.0, 1.0)),  # finite products, their sum overflows
        (PidGains(1e308, 0.0, -1e308), (10.0, 10.0)),  # inf - inf
    ], ids=["product", "sum", "inf_minus_inf"])
    def test_overflowing_coefficient_is_invalid_input(self, gains, num):
        g = TransferFunction(num, (1.0, 1.0, 1.0))
        with pytest.raises(InvalidInput, match="closed loop's coefficients overflow float64"):
            close_unity_feedback(gains, g)


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


def _fraction_series(ha, coeffs):
    """sum_j coeffs[j] ha^j, exactly, over the float64 matrix ha: a list of
    rows of Fractions."""
    n = len(ha)
    h = [[Fraction(e) for e in row] for row in ha.tolist()]
    power = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    total = [[Fraction(0)] * n for _ in range(n)]
    for coeff in coeffs:
        total = [[t + coeff * p for t, p in zip(trow, prow)] for trow, prow in zip(total, power)]
        power = [[sum(p * h[i][k] for i, p in enumerate(prow)) for k in range(n)] for prow in power]
    return total


class TestStepMap:
    def test_matches_the_exact_series(self):
        # Against the series in exact arithmetic over the float64 ha = dt a:
        # m = sum_{j<=4} ha^j / j! and v = dt sum_{j<=3} ha^j / (j + 1)! b.
        # Each entry's terms' magnitudes sum to the same series over |ha|
        # and |b|. Summed term by term from the powers, or by Horner's rule,
        # each entry rounds by at most gamma(4 (n + 2)), about 2 (n + 2) eps,
        # times that sum (Higham 2002, ch. 3); the test allows twice that.
        # Measured on these loops: 0.33 (n + 2) eps term by term, 0.22 by
        # Horner's rule.
        rng = np.random.default_rng(20261021)
        dt = 0.01
        loops = []
        while len(loops) < 60:
            plant = (ORACLE_PLANTS[int(rng.integers(len(ORACLE_PLANTS)))]
                     if len(loops) < 30 else random_proper_tf(rng))
            try:
                loops.append(tf_to_state_space(
                    close_unity_feedback(PidGains(*rng.uniform(-10.0, 10.0, 3).tolist()), plant)
                ))
            except ImproperLoop:
                continue
        eps, h = Fraction(np.finfo(float).eps), Fraction(dt)
        m_coeffs = [Fraction(1, k) for k in (1, 1, 2, 6, 24)]
        vc_coeffs = [Fraction(1, k) for k in (1, 2, 6, 24)]
        for ss in loops:
            n = ss.order
            m, v = _rk4_step_map(ss.a, ss.b, dt)
            ha = dt * ss.a
            exact_m, mag_m = (_fraction_series(x, m_coeffs) for x in (ha, np.abs(ha)))
            exact_vc, mag_vc = (_fraction_series(x, vc_coeffs) for x in (ha, np.abs(ha)))
            # b is e_n, so dt vc b is dt times vc's last column.
            assert ss.b.ravel().tolist() == [0.0] * (n - 1) + [1.0]
            got = [*m.ravel().tolist(), *v.tolist()]
            exact = [*itertools.chain(*exact_m), *(h * row[-1] for row in exact_vc)]
            magnitude = [*itertools.chain(*mag_m), *(h * row[-1] for row in mag_vc)]
            for g, e, mag in zip(got, exact, magnitude, strict=True):
                assert abs(Fraction(g) - e) <= 4 * (n + 2) * eps * mag, (n, g, float(e))


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


# Hand-built maps (two states, or none for a pure gain) whose arithmetic is
# exact in any order, so the kernel must match the oracle bit for bit. Each
# case: step_mat, step_vec, c_row, feed, limit, then the expected first
# clamped sample and clamp.
RULE_CASES = {
    "zero_states_feed_beyond_limit": (np.zeros((0, 0)), [], [], -20.0, 10.0, 0, -10.0),
    "feed_beyond_limit": ([[2, 0], [0, 0]], [1, 0], [1, 0], -20.0, 10.0, 0, -10.0),
    "nan_state": ([[0, 0], [0, 0]], [np.nan, 0], [1, 1], 0.0, 1e6, 1, 1e6),
    "nan_output_states_in_band": ([[0, 0], [0, 0]], [0, 1], [np.inf, 1], 0.0, 1e6, 1, 1e6),
    "plus_inf_state": ([[0, 0], [0, 0]], [np.inf, 0], [1, 1], 0.0, 1e6, 1, 1e6),
    "minus_inf_state": ([[0, 0], [0, 0]], [0, -np.inf], [1, 1], 0.0, 1e6, 1, -1e6),
    "first_state_positive": ([[0, 0], [0, 0]], [20, -20], [0, 0], 0.5, 10.0, 2, 10.0),
    "first_state_negative": ([[0, 0], [0, 0]], [-20, 20], [0, 0], 0.5, 10.0, 2, -10.0),
    # x0 runs 0, 1, 3, 7: 3 is in band, 7 triggers at sample 3 with z = 2
    "limit_3": ([[2, 0], [0, 0]], [1, 0.25], [0.25, 1], 0.0, 3.0, 4, 3.0),
}

# Growing oscillations (a complex pair of modulus 1.004-1.015), about 1 in
# 750 uniform draws, on which a step table's rounding adds up block after
# block. A float64 doubling table at block length 8 gives 1.04 and 1.73 of
# the bound on the first two. A long-double table rounded to float64 once
# gives 0.73 on the third at block length 6 and 1.73 on the fourth at 4.
GROWING = (
    (ORACLE_PLANTS[0], (-0.014442751197700332, 2.029967152467149, -9.42621983256111)),
    (ORACLE_PLANTS[3], (-9.318994421059248, 6.917802128901151, 1.7576388133372092)),
    (ORACLE_PLANTS[3], (-7.267857827098569, 2.9753529806347885, 2.515723202950607)),
    (ORACLE_PLANTS[3], (-8.370448339195523, 1.80692561711329, 7.106578935070026)),
)


def _growing_or_zn_loop(loop):
    """The step map of GROWING[loop], or of the benchmark3 ZN loop."""
    if loop == "zn":
        zn = zn_pid_gains(ultimate_point(BENCH3))
        return loop_step_map(BENCH3, (zn.kp, zn.ki, zn.kd))
    return loop_step_map(*GROWING[loop])


def _fraction_step_table(step_mat, step_vec, c_row, feed):
    """Row blocks j = 1..BLOCK of [[c, feed], [I, 0]] A^j with
    A = [[M, v], [0, 1]], the step table in exact rational arithmetic on the
    float64 map."""
    n = len(step_vec)
    a = [[Fraction(e) for e in row] for row in np.column_stack((step_mat, step_vec)).tolist()]
    a.append([Fraction(0)] * n + [Fraction(1)])
    rows = [[Fraction(e) for e in [*c_row.tolist(), feed]]]
    rows += [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n)]
    blocks = []
    for _ in range(BLOCK):
        rows = [[sum(r[k] * a[k][j] for k in range(n + 1)) for j in range(n + 1)] for r in rows]
        blocks.append(rows)
    return blocks


def _assert_matches_oracle(args, n_samples, limit):
    """scan against the sequential oracle: the same flag, the same first
    clamped sample and tail, and earlier samples within scan_error_bound.
    Where the two differ in flag or first clamped sample, scan must agree
    with decimal_scan instead, and the tail and the bound hold past and
    before both clamps. Returns scan's (values, diverged)."""
    with np.errstate(all="ignore"):
        out, diverged = _kernels.scan(*args, n_samples, limit)
        ref, ref_diverged = sequential_scan(*args, n_samples, limit)
        k_out = first_clamped(out, limit, diverged)
        k_ref = first_clamped(ref, limit, ref_diverged)
        if (diverged, k_out) != (ref_diverged, k_ref):
            # The oracle is not authoritative when a crossing lies within its
            # own rounding: a 60-digit recursion of the same map decides.
            exact, exact_diverged = decimal_scan(*args, n_samples, limit)
            k_exact = first_clamped(exact, limit, exact_diverged)
            assert (diverged, k_out) == (exact_diverged, k_exact)
        k_clamp, k_tail = sorted((k_out, k_ref))
        assert np.array_equal(out[k_tail:], ref[k_tail:])
        # Measured worst over 8,000 uniform and 1,600 growing-oscillation loops
        # (tests/stress_scan.py, seeds 1-4) at block length 64: 0.38 of this
        # bound, on GROWING[3], where the oracle is itself 0.40 of it from
        # decimal_scan and the scan 0.02.
        tol = scan_error_bound(*args, k_clamp)
    assert np.all(np.abs(out[:k_clamp] - ref[:k_clamp]) <= tol)
    return out, diverged


class TestScan:
    def test_block_length_is_a_power_of_two(self):
        # _fast_table squares A^k up to A^BLOCK and doubles the output rows
        # with each square: a length that is not a power of two is never
        # reached, and a block of one leaves nothing to double.
        assert BLOCK >= 2 and BLOCK & (BLOCK - 1) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        plant=st.sampled_from(ORACLE_PLANTS),
        gains=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        limit=st.sampled_from((1e6, 10.0, 3.0)),
    )
    # feedthrough kd / (1 + kd) = -4 against 1/(s + 1): out of band at sample 0
    @example(plant=ORACLE_PLANTS[3], gains=(1.0, 1.0, -0.8), limit=3.0)
    # a crossing within the oracle's rounding: state 0 at sample 2,050 is
    # 10 - 3.0e-15 in exact arithmetic and 10 + 2.8e-13 in the oracle's
    @example(plant=ORACLE_PLANTS[3], gains=(1.0, 0.0, 0.0), limit=10.0)
    # subnormal gains: products underflow, so the orders differ by a subnormal step
    @example(plant=ORACLE_PLANTS[1], gains=(0.0, 0.0, 2.225073858507e-311), limit=1e6)
    @example(plant=ORACLE_PLANTS[1], gains=(0.0, 3e-320, 0.0), limit=1e6)
    @example(plant=GROWING[0][0], gains=GROWING[0][1], limit=1e6)
    @example(plant=GROWING[1][0], gains=GROWING[1][1], limit=1e6)
    @example(plant=GROWING[2][0], gains=GROWING[2][1], limit=1e6)
    @example(plant=GROWING[3][0], gains=GROWING[3][1], limit=1e6)
    # sample 0 is feed = kd / (1 + kd) = 3.0 exactly, in band at the limit,
    # before the response diverges
    @example(plant=ORACLE_PLANTS[3], gains=(-2.0, 0.0, -1.5), limit=3.0)
    def test_matches_sequential_oracle(self, plant, gains, limit):
        with np.errstate(all="ignore"):
            try:
                args = loop_step_map(plant, gains)
            except ImproperLoop:  # kd = -1 against 1/(s + 1) cancels the leading s^2
                assume(False)
        _assert_matches_oracle(args, 3001, limit)

    # 4-10 samples end on inner rows of the first block. Ids name the cases
    # relative to B = BLOCK, so that they hold at any block length.
    @pytest.mark.parametrize(
        "n_samples",
        [1, 2, 4, 5, 6, 9, 10, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 2 * BLOCK + 2],
        ids=["1", "2", "4", "5", "6", "9", "10", "B", "B+1", "B+2", "2B+1", "2B+2"],
    )
    @pytest.mark.parametrize("plant", [ORACLE_PLANTS[0], ORACLE_PLANTS[3]], ids=["bench3", "feedthrough"])
    def test_block_boundaries_match_oracle(self, plant, n_samples):
        _assert_matches_oracle(loop_step_map(plant, (2.0, 1.0, 1.0)), n_samples, 1e6)

    # x0 runs 0, 1, 2, ..., exact in float64 at any block length, so the
    # limit below is first left at sample k_bad. Sample 0 is a block of its
    # own and block k holds samples 1 + kB..(k + 1)B, so k_bad falls inside
    # the first block (2-12), on its last row, and on the first, an inner and
    # the last row of later blocks. An output of 4 x0 triggers; one of x0 / 4
    # leaves it to the state.
    @pytest.mark.parametrize(
        "k_bad",
        [2, 4, 5, 7, 9, 12, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1, 3 * BLOCK],
        ids=["2", "4", "5", "7", "9", "12", "B", "B+1", "2B-1", "2B+1", "3B"],
    )
    @pytest.mark.parametrize("c0", [4.0, 0.25], ids=["output", "state"])
    def test_divergence_at_block_boundaries_matches_oracle(self, k_bad, c0):
        args = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), np.array([c0, 0.0]), 0.0)
        limit = max(c0, 1.0) * k_bad - 0.5
        out, diverged = _assert_matches_oracle(args, 6 * BLOCK, limit)
        assert diverged and np.all(np.abs(out[k_bad + 1 :]) == limit)
        assert not np.any(np.abs(out[:k_bad]) == limit)

    @pytest.mark.parametrize("k_bad", [2, 7, 2 * BLOCK - 1], ids=["2", "7", "2B-1"])
    def test_divergence_in_a_dead_row_of_the_last_block_is_not_seen(self, k_bad):
        # The last block is computed whole; its rows past n_samples may leave
        # the band without making the response diverge.
        args = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), np.array([0.25, 0.0]), 0.0)
        out, diverged = _assert_matches_oracle(args, k_bad, k_bad - 0.5)
        assert not diverged

    def test_matches_full_table_bit_for_bit(self):
        # Every block's samples and carry come from the fast table's dot,
        # and a refused block's inner states from the state table's, at any
        # loop order: ORACLE_PLANTS' loops have orders 2 and 4, the poles
        # below orders 3, 5 and 6. Of the first set about 90% clear a
        # block, 80% refuse one and 70% do both, so both paths and the
        # moves between them are covered.
        _assert_matches_full_table(ORACLE_PLANTS, 20261019, 1000)
        plants = [TransferFunction((1.0,), tuple(np.poly([-1.0] * k))) for k in (2, 4, 5)]
        _assert_matches_full_table(plants, 20261020, 600)

    @pytest.mark.parametrize("loop", [*range(len(GROWING)), "zn"])
    def test_step_table_matches_exact_powers(self, loop):
        # Doubling's error in A^j grows about linearly in j: each level
        # doubles the error of the power it applies and adds its own rounding.
        # Measured worst at block lengths 16 and 64: 0.59 j eps, and 0.49 j
        # eps with the table built in float64; at 64 with the output and
        # state rows doubled from the row side, 0.59 j eps on an output row
        # and 0.45 on a state row. high + low holds about 106 bits, which
        # bounds it where long double is wider still. The output rows and
        # A^BLOCK's state rows are the fast table's, the inner state rows
        # the state table's.
        args = _growing_or_zn_loop(loop)
        fast, powers, _ = _kernels._fast_table(*args)
        halves = np.split(table_blocks(fast, _kernels._state_table(powers)), 2, axis=2)
        high, low = (half.reshape(BLOCK, -1).tolist() for half in halves)
        eps = Fraction(max(float(np.finfo(np.longdouble).eps), np.finfo(float).eps ** 2))
        for j, exact in enumerate(_fraction_step_table(*args), 1):
            exact = [e for row in exact for e in row]
            scale = max(abs(e) for e in exact)
            pairs = zip(high[j - 1], low[j - 1], exact)
            err = max(abs(Fraction(h) + Fraction(lo) - e) for h, lo, e in pairs)
            assert err <= j * eps * scale, (j, float(err / scale / eps))

    @pytest.mark.parametrize("loop", [*range(len(GROWING)), "zn"])
    def test_scan_is_no_farther_from_exact_than_the_oracle(self, loop):
        # scan_error_bound measures the distance between two roundings of
        # the map; on a growing oscillation the oracle may be the farther
        # from the map's exact trajectory. Measured shares of the bound at
        # block length 64: scan 0.006/0.031/0.029/0.017/0.004, oracle
        # 0.071/0.232/0.085/0.400/0.051.
        args = _growing_or_zn_loop(loop)
        with np.errstate(all="ignore"):
            out, out_diverged = _kernels.scan(*args, 3001, BLOW_UP_LIMIT)
            ref, ref_diverged = sequential_scan(*args, 3001, BLOW_UP_LIMIT)
        exact, exact_diverged = decimal_scan(*args, 3001, BLOW_UP_LIMIT)
        flags = ((out, out_diverged), (ref, ref_diverged), (exact, exact_diverged))
        k = min(first_clamped(values, BLOW_UP_LIMIT, flag) for values, flag in flags)
        tol = scan_error_bound(*args, k)

        def share(values):
            return float(np.max(np.abs(values[:k] - exact[:k]) / tol, initial=0.0))

        assert share(out) <= share(ref), (share(out), share(ref))

    @pytest.mark.parametrize("start", ["zn", "diverging"])
    def test_prefix_of_a_longer_scan_is_bit_identical(self, start):
        # Sample k's bits may not depend on how many samples follow it. The
        # diverging start leaves the band at sample 3,272. At block length 64
        # its state first grows past what the bound clears in block 46,
        # samples 2,945-3,008, so 2,945 samples end in a cleared block and
        # 2,946 and 3,009 in refused ones.
        zn = zn_pid_gains(ultimate_point(BENCH3))
        gains, first_bad = {"zn": ((zn.kp, zn.ki, zn.kd), 4001), "diverging": ((-5.0, 8.0, 3.0), 3272)}[start]
        args = loop_step_map(BENCH3, gains)
        full, _ = _kernels.scan(*args, 4001, BLOW_UP_LIMIT)
        refused = [2944, 2945, 2946, 2947, 3008, 3009, 3010]
        for k in [*range(1, 3 * BLOCK + 2), 97, 1000, *refused, 3271, 3272, 3273, 4000]:
            part, diverged = _kernels.scan(*args, k, BLOW_UP_LIMIT)
            assert np.array_equal(part, full[:k]), k
            assert diverged == (k > first_bad), k

    @pytest.mark.parametrize("near_miss", [False, True], ids=["excursion", "near_miss"])
    def test_transient_inside_a_later_block_is_seen(self, near_miss):
        # x0 runs 0, -1, -2, ... and x1 = sum of (x0 + p), the parabola
        # pk - k(k - 1)/2: integers, exact in any order. x1 reads the peak
        # p(p + 1)/2 less 3, 1, 0, 0, 1, 3 on samples p - 2..p + 3, so a
        # limit 1.5 below the peak is left on samples p - 1..p + 2 only,
        # inside block 2, which ends back in band. Its twin peaks at
        # limit (1 - 1e-9) and stays in band.
        p = 5 * BLOCK // 2
        peak = p * (p + 1) / 2
        limit = peak / (1 - 1e-9) if near_miss else peak - 1.5
        args = (np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([-1.0, p]), np.array([0.0, 0.5]), 0.0)
        out, diverged = _kernels.scan(*args, 4 * BLOCK + 1, limit)
        ref, ref_diverged = sequential_scan(*args, 4 * BLOCK + 1, limit)
        assert np.array_equal(out, ref) and diverged == ref_diverged == (not near_miss)
        if near_miss:
            assert out.max() == peak / 2
        else:
            last = 3 * BLOCK  # block 2 holds samples 2B + 1..3B
            assert 2 * BLOCK < p - 1 and p + 2 < last and p * last - last * (last - 1) / 2 < limit
            # The state triggers at p - 1, which leaves that sample's output.
            assert out[p - 1] == (peak - 1) / 2 and np.all(out[p:] == limit)
            assert not np.any(out[: p - 1] == limit)

    def test_working_set_is_bounded(self):
        # Beyond the output array, a scan holds O(BLOCK n) floats however
        # many samples it takes (lti.MAX_SAMPLES counts on it), on either
        # path. The bound clears every block of the ZN loop. The rotation by
        # 0.1 circles x* = (I - M)^-1 v = (0.5, 9.99) through 0, so its
        # second state sweeps [0, 19.996]. The bound is at least sum_i |x_i|
        # plus the largest |x[j]|, j <= BLOCK, so at a limit of 20.2 it
        # refuses almost every block, though none leaves the band.
        zn = zn_pid_gains(ultimate_point(BENCH3))
        turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        loops = [
            (loop_step_map(BENCH3, (zn.kp, zn.ki, zn.kd)), BLOW_UP_LIMIT),
            ((turn, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0), 20.2),
        ]
        for args, limit in loops:
            tracemalloc.start()
            try:
                out, diverged = _kernels.scan(*args, 10**6, limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not diverged and peak - out.nbytes < 2**20

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


def _assert_matches_full_table(plants, seed, count):
    """scan against helpers.full_table_scan, bit for bit, on count seeded
    PID loops around plants, gains uniform in [-10, 10]^3, at limits and
    lengths drawn as well; some of them diverge and some do not, and the
    bound clears some of their blocks and refuses others."""
    rng = np.random.default_rng(seed)
    mismatches, diverged, loops, cleared = [], 0, 0, set()
    while loops < count:
        plant = int(rng.integers(len(plants)))
        gains = tuple(float(g) for g in rng.uniform(-10.0, 10.0, 3))
        limit = (1e6, 10.0, 3.0)[int(rng.integers(3))]
        n_samples = int(rng.integers(1, 10002))
        with np.errstate(all="ignore"):
            try:
                args = loop_step_map(plants[plant], gains)
            except ImproperLoop:
                continue
            out, flag = _kernels.scan(*args, n_samples, limit)
            carried = []
            ref, ref_flag = full_table_scan(*args, n_samples, limit, carried)
            size = _kernels._fast_table(*args)[2]
        loops += 1
        diverged += ref_flag
        cleared.update(size * (1.0 + sum(map(abs, x))) <= limit for x in carried)
        if flag != ref_flag or not np.array_equal(out, ref):
            mismatches.append((plant, gains, limit, n_samples))
    assert mismatches == []
    assert 0 < diverged < loops and cleared == {True, False}


def _seeded_loops(count, seed):
    """count (plant index, gains, limit, scan arguments) uniform draws of
    helpers.draw_loops, seeded."""
    with np.errstate(all="ignore"):
        return list(draw_loops(np.random.default_rng(seed), count, False))


# A map whose powers overflow float64 from A^4 on, though not long double.
OVERFLOWING = (
    np.array([[1e100, 0.0], [1.0, 0.5]]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0
)


# A map whose squares' norms are 2^k: A^BLOCK's state row, 2^64, outgrows
# both the output rows and the other six squares' product, 2^63.
DOUBLING = (np.array([[2.0]]), np.array([0.0]), np.array([1e-3]), 0.0)


def _table_cases():
    """Scan arguments for the step-table tests: 300 seeded loops, GROWING,
    the benchmark3 ZN loop, DOUBLING and OVERFLOWING."""
    cases = [args for _, _, _, args in _seeded_loops(300, 20261020)]
    cases += [_growing_or_zn_loop(loop) for loop in [*range(len(GROWING)), "zn"]]
    return [*cases, DOUBLING, OVERFLOWING]


class TestStepTable:
    def test_size_bounds_every_row(self):
        # size bounds the sum of |high| + |low| over every row the refusal
        # path can read, output rows and state rows alike, though the state
        # rows before A^BLOCK are built only there. Compared after the same
        # margin, which rounds monotonically.
        finite = 0
        for args in _table_cases():
            n = len(args[1])
            margin = 1.0 + 4 * (n + 2) * _kernels.EPS
            with np.errstate(all="ignore"):
                fast, powers, size = _kernels._fast_table(*args)
                rows = np.concatenate((fast, _kernels._state_table(powers)))
                sums = np.abs(rows).sum(axis=1)
            if not np.isfinite(size):
                assert not np.isfinite(sums).all()
                continue
            finite += 1
            assert float(sums.max()) * margin <= size
        assert finite > 250

    def test_overflowing_powers_refuse_every_block(self):
        # A^4 overflows float64, so size is infinite and no block is
        # cleared: the state table is built for the first block, and only once.
        with np.errstate(all="ignore"):
            _, _, size = _kernels._fast_table(*OVERFLOWING)
        assert not np.isfinite(size)
        with np.errstate(all="ignore"), counting_state_tables() as builds:
            out, diverged = _kernels.scan(*OVERFLOWING, 6 * BLOCK, 1e6)
            ref, ref_diverged = sequential_scan(*OVERFLOWING, 6 * BLOCK, 1e6)
        assert builds == [1]
        assert diverged and ref_diverged and np.array_equal(out, ref)

    def test_zn_loop_never_builds_state_rows(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the state rows were built")

        monkeypatch.setattr(_kernels, "_state_table", refuse)
        args = _growing_or_zn_loop("zn")
        out, diverged = _kernels.scan(*args, 10_001, BLOW_UP_LIMIT)
        assert len(out) == 10_001 and not diverged
        assert len(_kernels.scan(*args, 10_001, BLOW_UP_LIMIT, SETTLE)[0]) < 10_001

    @pytest.mark.parametrize("loop", ["diverging", "rotation"])
    def test_state_rows_are_built_once_per_call(self, loop):
        # The diverging start's bound refuses its blocks from sample 2,945
        # on; the rotation's refuses almost all of them and never diverges.
        turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        args, limit, want = {
            "diverging": (loop_step_map(BENCH3, (-5.0, 8.0, 3.0)), BLOW_UP_LIMIT, True),
            "rotation": ((turn, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0), 20.2, False),
        }[loop]
        with counting_state_tables() as builds:
            for calls in range(1, 4):
                assert _kernels.scan(*args, 10_001, limit)[1] == want
                assert builds == [calls]


# The objective's band, which evaluate hands the settle rule.
SETTLE = (BAND_LOWER, BAND_UPPER)


def _decay(a, c0, feed):
    """A one-state map whose state runs 1 - a^k to 1, seen as c0 x + feed."""
    return np.array([[a]]), np.array([1.0 - a]), np.array([c0]), feed


def _late_hump(sign):
    """z = x0 + x2 with x0 running 1 - 0.97^k to 1 and x2 a slow hump of the
    given sign: x1 integrates 1 - x0 and leaks at 0.998 per step, and x2
    follows x1 as slowly. z enters [0.98, 1.02] before sample 170, leaves
    it near sample 280, is 1 +- 0.0245 at its extreme near sample 535 and
    is back inside after sample 923."""
    a, b, g = 0.97, 0.998, 0.002 * sign
    mat = np.array([[a, 0.0, 0.0], [-g, b, 0.0], [0.0, 1.0 - b, b]])
    return mat, np.array([1.0 - a, g, 0.0]), np.array([1.0, 0.0, 1.0]), 0.0


def _assert_settles_soundly(args, n_samples, settle, limit=BLOW_UP_LIMIT):
    """scan with settle against the full scan: its values are the full
    scan's first ones, bit for bit and no more than n_samples of them, with
    the same flag. A diverged scan ends just after its first clamped sample
    (after sample 1 if that is sample 0), or at n_samples, and every later
    sample is that clamp. Where a scan that did not diverge stops early, the
    last value and every later sample lie in [lower, upper]. Returns how
    many values it gave."""
    with np.errstate(all="ignore"):
        full, diverged = _kernels.scan(*args, n_samples, limit)
        part, part_diverged = _kernels.scan(*args, n_samples, limit, settle)
    k = len(part)
    assert k <= n_samples and np.array_equal(part, full[:k])
    assert part_diverged == diverged
    if diverged:
        first = first_clamped(full, limit, diverged)
        assert k == min(max(first, 1) + 1, n_samples), (k, first)
        assert first == n_samples or np.all(full[first:] == full[k - 1]), first
    elif k < n_samples:
        lower, upper = settle
        assert np.all((lower <= full[k - 1 :]) & (full[k - 1 :] <= upper)), k
    return k


class TestSettle:
    def test_zn_loop_stops_early_at_any_length(self):
        # The ZN response leaves the band for the last time at sample 937
        # and is certified before the block that starts at sample 1,473. A
        # scan at least that long stops there, and one that ends inside the
        # certifying block is not extended.
        zn = zn_pid_gains(ultimate_point(BENCH3))
        args = loop_step_map(BENCH3, (zn.kp, zn.ki, zn.kd))
        k = _assert_settles_soundly(args, 10_001, SETTLE)
        assert k < 10_001 // 4
        for n_samples in [k - 1, k, k + 1, k + 2, k + BLOCK - 1, k + BLOCK, k + BLOCK + 1]:
            assert _assert_settles_soundly(args, n_samples, SETTLE) == min(k, n_samples)

    def test_zn_search_keeps_few_samples(self):
        # The output-weighted certificate settles the ZN search's distinct
        # points within 0.134 of their samples; weighting every state alike
        # kept 0.177.
        cfg = SimConfig()
        kept = []

        def score(gains):
            kept.append(len(step_response(gains, BENCH3, cfg, settle=SETTLE).values))
            return evaluate(gains, BENCH3, cfg)

        optimize(zn_pid_gains(ultimate_point(BENCH3)), score)
        assert len(kept) > 200 and sum(kept) <= 0.15 * len(kept) * cfg.n_samples

    def test_stops_only_within_half_the_room(self):
        # z = 1 + 0.05 * 0.999^k falls into the band at sample 916 and stays
        # in (0.01, 0.02] above z_ref = 1 for about 11 blocks: a certificate
        # without the margin would stop there. For one state the bound is
        # exact, so z at the carried state is within half the room.
        args = _decay(0.999, -0.05, 1.05)
        k = _assert_settles_soundly(args, 4001, SETTLE)
        last = _kernels.scan(*args, k, BLOW_UP_LIMIT)[0][-1]
        assert k < 4001 and abs(last - 1.0) <= 0.01

    def test_stops_once_settled_from_below(self):
        # z = 1 - 0.99^k settles inside the band from below.
        args = _decay(0.99, 1.0, 0.0)
        assert _assert_settles_soundly(args, 4001, SETTLE) < 4001

    def test_unstable_mode_is_refused(self):
        # x1 departs from 1e-4 below its fixed point by 1.005 per step, so z
        # is in the band from sample 387 to 1,063 and then leaves it for
        # good. The Kronecker system still has a solution, an indefinite P.
        args = (np.diag([0.99, 1.005]), np.array([0.01, 5e-7]), np.array([1.0, 1.0]), 0.0)
        assert _assert_settles_soundly(args, 3001, SETTLE) == 3001

    def test_lyapunov_solution_is_checked(self, monkeypatch):
        # 0.3 P is positive definite but leaves the residual 0.7 W, whose
        # norm is at least 0.7 (W >= I) and exceeds 1/2: the certificate
        # must test the solve it got.
        zn = zn_pid_gains(ultimate_point(BENCH3))
        args = loop_step_map(BENCH3, (zn.kp, zn.ki, zn.kd))
        n = len(args[1])
        assert _kernels._certificate(*args, BLOW_UP_LIMIT, SETTLE, 10.0)
        solve = np.linalg.solve

        def scaled_lyapunov_solve(a, b):
            return solve(a, b) * (0.3 if a.shape == (n * n, n * n) else 1.0)

        monkeypatch.setattr(np.linalg, "solve", scaled_lyapunov_solve)
        assert _kernels._certificate(*args, BLOW_UP_LIMIT, SETTLE, 10.0) == ()

    @pytest.mark.parametrize("loop", ["ki_zero", "kronecker"])
    def test_singular_systems_are_refused(self, loop):
        # ki = 0 keeps a closed-loop pole at s = 0, so I - M is singular;
        # eigenvalues 2 and 1/2 multiply to 1, so the Kronecker system is.
        args = {
            "ki_zero": loop_step_map(ORACLE_PLANTS[1], (1.0, 0.0, 1.0)),
            "kronecker": (np.diag([2.0, 0.5]), np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.0),
        }[loop]
        assert _kernels._certificate(*args, BLOW_UP_LIMIT, SETTLE, 10.0) == ()

    def test_diverged_scan_ends_after_its_clamp(self):
        # Seeded loops at the three limits, at one, two and 3,001 samples,
        # and the rule's hand-built cases, whose triggers include outputs
        # and states at sample 0 and states that keep their sample's output.
        diverged = 0
        for _, _, limit, args in _seeded_loops(300, 20261021):
            for n_samples in (1, 2, 3001):
                _assert_settles_soundly(args, n_samples, SETTLE, limit)
            diverged += _kernels.scan(*args, 3001, limit)[1]
        assert 50 < diverged < 250
        for mat, vec, c, feed, limit, _, _ in RULE_CASES.values():
            args = (np.array(mat, float), np.array(vec, float), np.array(c, float), feed)
            for n_samples in (1, 2, 3, 6):
                _assert_settles_soundly(args, n_samples, SETTLE, limit)

    @pytest.mark.parametrize("sign", [1, -1], ids=["upper", "lower"])
    @pytest.mark.parametrize("leaves", [False, True], ids=["grazes", "leaves"])
    def test_late_hump_to_a_band_edge(self, sign, leaves):
        # The band's edge on the hump's side is put at the hump's extreme,
        # which then grazes it, or one ulp inside it, which the hump then
        # leaves there, about 340 samples after the first checkpoint saw z
        # inside the band.
        args = _late_hump(sign)
        full, _ = _kernels.scan(*args, 6001, BLOW_UP_LIMIT)
        edge = float(full[300:].max() if sign > 0 else full[300:].min())
        if leaves:
            edge = float(np.nextafter(edge, 1.0))
        lower, upper = (0.98, edge) if sign > 0 else (edge, 1.02)
        first = _kernels.CHECK_START
        assert lower <= full[first - 1] <= upper and first < 400
        k = _assert_settles_soundly(args, 6001, (lower, upper))
        assert 1000 < k < 6001
