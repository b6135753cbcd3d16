"""Linear time-invariant plumbing: transfer functions, PID loop closure,
state-space realization and fixed-step unit-step simulation."""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ImproperLoop, InvalidInput


def _as_coeffs(seq, name: str) -> tuple[float, ...]:
    coeffs = tuple(map(float, seq))
    if not coeffs:
        raise InvalidInput(f"{name} must have at least one coefficient")
    if not all(map(math.isfinite, coeffs)):
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
    """Proper ratio of real polynomials in the Laplace variable, highest degree first.

    The denominator must be non-empty with a nonzero leading coefficient,
    and the numerator's degree may not exceed the denominator's, so every
    instance can be realized in state space.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __init__(self, num, den):
        object.__setattr__(self, "num", _as_coeffs(num, "num"))
        object.__setattr__(self, "den", _as_coeffs(den, "den"))
        if self.den[0] == 0.0:
            raise InvalidInput("den leading coefficient must be nonzero")
        if self.num_degree > self.den_degree:
            raise InvalidInput(
                f"improper ratio: num degree {self.num_degree} > den degree {self.den_degree}"
            )

    @property
    def num_degree(self) -> int:
        return poly_degree(self.num)

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    @property
    def relative_degree(self) -> int:
        return self.den_degree - self.num_degree

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
        # One pass over Python floats: at a loop's order it costs less than
        # a numpy test per array.
        entries = [*self.a.ravel().tolist(), *self.b.ravel().tolist(), *self.c.ravel().tolist()]
        if not all(map(math.isfinite, [*entries, self.d])):
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


_CLOSURE_OVERFLOW = (
    "the closed loop's coefficients overflow float64; the gains are too large for this plant"
)


def close_unity_feedback(gains: PidGains, plant: TransferFunction) -> TransferFunction:
    """Unity-feedback closed loop T = C G / (1 + C G) of the plant G under the
    ideal parallel PID C(s) = (kd s^2 + kp s + ki) / s, kept in product form.

    C has no derivative filter: it is [kd, kp, ki] over [1, 0], even for zero
    gains. The numerator is num_C*num_G and the denominator den_C*den_G +
    num_C*num_G; common factors are never cancelled. Raises ImproperLoop when
    the open-loop product has numerator degree above denominator degree (a
    kd-driven improperness with a low-relative-degree plant), or when
    leading-coefficient cancellation in the sum leaves an improper ratio, and
    InvalidInput when a coefficient of the closed loop overflows float64.
    """
    # Each coefficient of num_C*num_G is the exact sum of its products
    # rounded once (math.fsum), so no summation order shows in its bits.
    pid, padded = (gains.ki, gains.kp, gains.kd), (0.0, 0.0, *plant.num, 0.0, 0.0)
    try:
        num = [math.fsum(map(operator.mul, pid, padded[i : i + 3])) for i in range(len(padded) - 2)]
    except (OverflowError, ValueError):  # the exact sum overflows, or holds inf - inf
        raise InvalidInput(_CLOSURE_OVERFLOW) from None
    den_open = [*plant.den, 0.0]
    num_degree = poly_degree(num)
    if num_degree > poly_degree(den_open):
        raise ImproperLoop(
            f"open-loop product has relative degree "
            f"{poly_degree(den_open) - num_degree}; the closed loop is not proper"
        )
    # np.polyadd's sum on Python floats: the shorter list padded with leading
    # zeros, and every entry added, so 0.0 + -0.0 gives 0.0 as it does there.
    width = max(len(num), len(den_open))
    den = [
        a + b
        for a, b in zip([0.0] * (width - len(den_open)) + den_open,
                        [0.0] * (width - len(num)) + num)
    ]
    den_degree = poly_degree(den)
    if num_degree > den_degree:
        raise ImproperLoop(
            "leading coefficients of 1 + C*G cancelled; the closed loop is not proper"
        )
    try:
        return TransferFunction(num, den[len(den) - 1 - den_degree :])
    except InvalidInput:
        # The inputs are finite, so a coefficient that is not has overflowed.
        raise InvalidInput(_CLOSURE_OVERFLOW) from None


def tf_to_state_space(tf: TransferFunction) -> StateSpace:
    """Controllable canonical realization with the companion row at the bottom.

    The denominator is normalized to be monic. For den = s^n + a_{n-1} s^{n-1}
    + ... + a_0 the state matrix has ones on the superdiagonal and bottom row
    [-a_0, ..., -a_{n-1}]; b = e_n; c holds the ascending coefficients of
    num - d*den; d is the leading-coefficient quotient when degrees tie, else 0.
    Raises InvalidInput when the realization overflows float64.
    """
    n = tf.den_degree
    deg = tf.num_degree
    # The normalization and num - d*den as numpy's elementwise operations,
    # on Python floats, which round alike and never warn. A zero numerator
    # (degree -1) keeps only the zeros.
    lead = tf.den[0]
    den = [a / lead for a in tf.den[1:]]
    num = [0.0] * (n - deg) + [b / lead for b in tf.num[len(tf.num) - 1 - deg :]]
    d = num[0]
    rem = [b - d * a for a, b in zip(den, num[1:])]  # descending, length n
    a = _companion(n).copy()
    a[-1:] = [-c for c in reversed(den)]
    try:
        return StateSpace(a=a, b=_last_unit(n), c=np.array([rem[::-1]]), d=d)
    except InvalidInput:
        # The inputs are finite, so an entry that is not has overflowed.
        raise InvalidInput(
            "the closed loop's realization overflows float64; its leading "
            f"denominator coefficient {lead:g} is too small to normalize by"
        ) from None


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    return _read_only(np.eye(n))


@functools.cache
def _companion(n: int) -> np.ndarray:
    """Read-only n x n shift matrix: ones on the superdiagonal."""
    return _read_only(np.eye(n, k=1))


@functools.cache
def _last_unit(n: int) -> np.ndarray:
    """Read-only n x 1 column e_n."""
    b = np.zeros((n, 1))
    b[-1:] = 1.0
    return _read_only(b)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _rk4_step_map(a: np.ndarray, b: np.ndarray, dt: float):
    """Precompute the classical-RK4 one-step affine map for dx = a x + b.

    One RK4 step with constant unit input is exactly
    x+ = (sum_{j<=4} (dt a)^j / j!) x + dt (sum_{j<=3} (dt a)^j / (j+1)!) b,
    so the whole trajectory is an iterated affine update. With ha = dt a,
    both sums come from vc = I + ha/2 (I + ha/3 (I + ha/4)) by Horner's
    rule: m = I + ha vc and v = dt vc b, three matrix products and a matvec.
    """
    eye = _identity(a.shape[0])
    ha = dt * a
    vc = eye + ha / 4
    for j in (3, 2):
        vc = eye + (ha / j) @ vc
    m = eye + ha @ vc
    v = dt * (vc @ b).ravel()
    return m, v


def simulate_step(
    ss: StateSpace, cfg: SimConfig, settle: tuple[float, float] | None = None
) -> StepResponse:
    """Unit-step response on the fixed grid t = 0, dt, ..., floor(t_max/dt)*dt.

    Integrates with classical fixed-step RK4 (precomputed one-step map) from
    x(0) = 0 under u(t) = 1; every order, a pure gain's 0 states included,
    goes through that map. Divergence is never an error: at the first sample
    where any state or output magnitude exceeds BLOW_UP_LIMIT (NaN counts),
    that sample and all later ones are clamped to +/-BLOW_UP_LIMIT with the
    sign of the value that left, except that a state leaving keeps its
    sample's output, so downstream scoring stays total; numpy's
    floating-point warnings on the way there are suppressed. The samples
    match stepping the map one sample at a time to within rounding
    (tests/helpers.py's scan_error_bound), and sample k does not depend on
    how many samples follow it. _kernels describes how the scan gets them.
    Given settle = (lower, upper), the values may end early: at a block
    boundary, once _kernels' settle rule shows that the last value and
    every later sample lie in [lower, upper], or, for a diverged response,
    just after its first clamped sample (after sample 1 when sample 0 is
    clamped), since every later sample is that clamp.

    The scan's step table is built in np.longdouble and carried as float64
    pairs. Its accuracy, and so the last bits of the samples, depend on the
    platform: long double is 80-bit on x86-64 Linux, but only double on some
    platforms, such as Windows and macOS on arm64, where the table is as
    accurate as one built in float64. The same inputs then give samples
    that differ within rounding, and scores that may differ in their last
    bits.
    """
    # Huge gains overflow the step map and the states on the way to the
    # clamp: the defined divergent outcome, not a fault to warn of. Every
    # kind is ignored, since no division occurs here.
    with np.errstate(all="ignore"):
        m, v = _rk4_step_map(ss.a, ss.b, cfg.dt)
        values, diverged = _kernels.scan(
            m, v, ss.c.ravel(), float(ss.d), cfg.n_samples, BLOW_UP_LIMIT, settle=settle
        )
    values.setflags(write=False)
    return StepResponse(dt=cfg.dt, values=values, diverged=diverged)
