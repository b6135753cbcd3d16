"""Linear time-invariant plumbing: transfer functions, PID loop closure,
state-space realization and fixed-step unit-step simulation."""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ImproperLoop, ImproperSystem, InvalidInput


def _as_coeffs(seq, name: str) -> tuple[float, ...]:
    coeffs = tuple(float(c) for c in seq)
    if not coeffs:
        raise InvalidInput(f"{name} must have at least one coefficient")
    if not all(math.isfinite(c) for c in coeffs):
        raise InvalidInput(f"{name} coefficients must be finite, got {coeffs}")
    return coeffs


def poly_degree(coeffs) -> int:
    """True degree of a highest-first coefficient sequence; -1 for the zero polynomial."""
    for i, c in enumerate(coeffs):
        if c != 0.0:
            return len(coeffs) - 1 - i
    return -1


@dataclass(frozen=True)
class TransferFunction:
    """Ratio of real polynomials in the Laplace variable, highest degree first.

    The denominator must be non-empty with a nonzero leading coefficient.
    Improper ratios (numerator degree above denominator degree) are
    representable: the ideal PID controller is one whenever kd != 0.
    Properness is enforced where it matters, at loop closure and at
    state-space realization.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __init__(self, num, den):
        object.__setattr__(self, "num", _as_coeffs(num, "num"))
        object.__setattr__(self, "den", _as_coeffs(den, "den"))
        if self.den[0] == 0.0:
            raise InvalidInput("den leading coefficient must be nonzero")

    @property
    def num_degree(self) -> int:
        return poly_degree(self.num)

    @property
    def den_degree(self) -> int:
        return poly_degree(self.den)

    @property
    def relative_degree(self) -> int:
        return self.den_degree - self.num_degree

    @property
    def is_proper(self) -> bool:
        return self.num_degree <= self.den_degree

    def to_text(self) -> str:
        """Serialize as ``num: c_n ... c_0 / den: d_m ... d_0``."""
        num = " ".join(f"{c:.17g}" for c in self.num)
        den = " ".join(f"{c:.17g}" for c in self.den)
        return f"num: {num} / den: {den}"


@dataclass(frozen=True)
class PidGains:
    """The decision vector: proportional, integral and derivative gains."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInput(f"{name} must be finite, got {v}")


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Single-input single-output realization dx/dt = a x + b u, z = c x + d u."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    def __post_init__(self):
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape != (n, 1) or self.c.shape != (1, n):
            raise InvalidInput(
                f"inconsistent dimensions a{self.a.shape} b{self.b.shape} c{self.c.shape}"
            )
        if not (
            np.all(np.isfinite(self.a))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.c))
            and math.isfinite(self.d)
        ):
            raise InvalidInput("state-space entries must be finite")

    @property
    def order(self) -> int:
        return self.a.shape[0]


# Largest sample count per response: 10**7 float64 samples are 80 MB, and a
# search holds one response at a time (frames included), and the scan adds
# only O(_kernels.BLOCK * order) floats to it.
MAX_SAMPLES = 10**7

# Magnitude at which a response is declared divergent and clamped.
BLOW_UP_LIMIT = 1e6


@dataclass(frozen=True)
class SimConfig:
    """Fixed-grid simulation settings.

    t_max is the evaluation horizon in seconds (default 100) and dt the
    integration step. The grid may hold at most MAX_SAMPLES samples.
    """

    t_max: float = 100.0
    dt: float = 0.01

    def __post_init__(self):
        if not (self.t_max > 0 and self.dt > 0 and self.dt <= self.t_max):
            raise InvalidInput(f"need 0 < dt <= t_max, got dt={self.dt} t_max={self.t_max}")
        # n_samples <= MAX_SAMPLES exactly when t_max/dt < MAX_SAMPLES; the
        # ratio is tested before int() so an infinite one cannot overflow
        if not self.t_max / self.dt < MAX_SAMPLES:
            raise InvalidInput(
                f"t_max/dt = {self.t_max / self.dt:.6g} exceeds the limit of "
                f"{MAX_SAMPLES} samples per response"
            )

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.t_max / self.dt)) + 1


@dataclass(frozen=True, eq=False)
class StepResponse:
    """Uniformly sampled unit-step output z(k*dt), clamped after divergence."""

    dt: float
    values: np.ndarray
    diverged: bool

    @property
    def t_end(self) -> float:
        return (len(self.values) - 1) * self.dt

    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


def pid_transfer_function(gains: PidGains) -> TransferFunction:
    """Ideal parallel PID, C(s) = (kd s^2 + kp s + ki) / s.

    No derivative filter and no pole-zero cancellation: the coefficient
    layout is always [kd, kp, ki] over [1, 0], even for zero gains.
    """
    return TransferFunction((gains.kd, gains.kp, gains.ki), (1.0, 0.0))


def close_unity_feedback(
    controller: TransferFunction, plant: TransferFunction
) -> TransferFunction:
    """Unity-feedback closed loop T = C G / (1 + C G), kept in product form.

    The numerator is num_C*num_G and the denominator den_C*den_G + num_C*num_G;
    common factors are never cancelled. Raises ImproperLoop when the open-loop
    product has numerator degree above denominator degree (a kd-driven
    improperness with a low-relative-degree plant), or when leading-coefficient
    cancellation in the sum leaves an improper ratio.
    """
    num = np.convolve(controller.num, plant.num)
    den_open = np.convolve(controller.den, plant.den)
    if poly_degree(num) > poly_degree(den_open):
        raise ImproperLoop(
            f"open-loop product has relative degree "
            f"{poly_degree(den_open) - poly_degree(num)}; the closed loop is not proper"
        )
    # An overflowing sum is left to TransferFunction, which rejects
    # non-finite coefficients, so numpy has nothing to warn about.
    with np.errstate(all="ignore"):
        den = np.polyadd(den_open, num)
    lead = next((i for i, c in enumerate(den) if c != 0.0), None)
    if lead is None or poly_degree(num) > len(den) - 1 - lead:
        raise ImproperLoop(
            "leading coefficients of 1 + C*G cancelled; the closed loop is not proper"
        )
    return TransferFunction(num, den[lead:])


def tf_to_state_space(tf: TransferFunction) -> StateSpace:
    """Controllable canonical realization with the companion row at the bottom.

    The denominator is normalized to be monic. For den = s^n + a_{n-1} s^{n-1}
    + ... + a_0 the state matrix has ones on the superdiagonal and bottom row
    [-a_0, ..., -a_{n-1}]; b = e_n; c holds the ascending coefficients of
    num - d*den; d is the leading-coefficient quotient when degrees tie, else 0.
    """
    n = tf.den_degree
    if tf.num_degree > n:
        raise ImproperSystem(
            f"numerator degree {tf.num_degree} exceeds denominator degree {n}"
        )
    den = np.asarray(tf.den, dtype=float)
    lead = den[0]
    num = np.zeros(n + 1)
    src = np.asarray(tf.num, dtype=float)
    deg = tf.num_degree
    # A tiny leading coefficient can overflow the normalization; StateSpace
    # rejects the non-finite result, so numpy has nothing to warn about.
    # A zero numerator (degree -1) assigns an empty slice.
    with np.errstate(all="ignore"):
        den = den / lead
        num[n - deg :] = src[len(src) - 1 - deg :] / lead
        d = float(num[0])
        rem = num[1:] - d * den[1:]  # descending, length n
    a = np.eye(n, k=1)
    a[-1:] = -den[1:][::-1]
    b = np.zeros((n, 1))
    b[-1:] = 1.0
    c = rem[::-1].reshape(1, n)
    return StateSpace(a=a, b=b, c=c, d=d)


def _rk4_step_map(a: np.ndarray, b: np.ndarray, dt: float):
    """Precompute the classical-RK4 one-step affine map for dx = a x + b.

    One RK4 step with constant unit input is exactly
    x+ = (sum_{j<=4} (dt a)^j / j!) x + dt (sum_{j<=3} (dt a)^j / (j+1)!) b,
    so the whole trajectory is an iterated affine update.
    """
    n = a.shape[0]
    ha = dt * a
    m = np.eye(n)
    vc = np.eye(n)
    power = np.eye(n)
    fact = 1.0
    for j in range(1, 5):
        power = power @ ha
        fact *= j
        m = m + power / fact
        if j <= 3:
            vc = vc + power / (fact * (j + 1))
    v = dt * (vc @ b).ravel()
    return m, v


def simulate_step(ss: StateSpace, cfg: SimConfig) -> StepResponse:
    """Unit-step response on the fixed grid t = 0, dt, ..., floor(t_max/dt)*dt.

    Integrates with classical fixed-step RK4 (precomputed one-step map) from
    x(0) = 0 under u(t) = 1; every order, a pure gain's 0 states included,
    goes through that map and _kernels.scan, which applies its powers to
    take _kernels.BLOCK samples per matvec, and forms a block's states only
    when a bound from the state before it does not keep the block in band.
    The samples match stepping the map one sample at a time to within
    rounding (tests/helpers.py's scan_error_bound), and sample k does not
    depend on how many follow it.
    Divergence is never an error:
    once any state or output magnitude exceeds BLOW_UP_LIMIT the remaining
    samples are clamped to +/-BLOW_UP_LIMIT so downstream scoring stays
    total; numpy's floating-point warnings on the way there are suppressed.
    """
    # Huge gains overflow the step map and the states on the way to the
    # clamp: the defined divergent outcome, not a fault to warn of. Every
    # kind is ignored, since no division occurs here.
    with np.errstate(all="ignore"):
        m, v = _rk4_step_map(ss.a, ss.b, cfg.dt)
        values, diverged = _kernels.scan(
            m, v, ss.c.ravel(), float(ss.d), cfg.n_samples, BLOW_UP_LIMIT
        )
    values.setflags(write=False)
    return StepResponse(dt=cfg.dt, values=values, diverged=diverged)
