"""Starting points for the search: Ziegler-Nichols gains from the ultimate
point, a root of the crossing equation, and seeded uniform random gains."""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoUltimateGain
from .lti import PidGains, TransferFunction

K_SEARCH_MAX = 1e6
_K_SEARCH_MIN = 1e-12
_ROUNDING = 1e-9  # relative slack at the bracket's ends: the hunt and the equation round apart


@dataclass(frozen=True)
class UltimatePoint:
    """Proportional gain and oscillation period at the stability boundary."""

    ku: float
    tu: float

    def __post_init__(self):
        if not (self.ku > 0 and self.tu > 0):
            raise InvalidInput(f"ku and tu must be positive, got {self.ku}, {self.tu}")


def _roots(poly, what: str) -> np.ndarray:
    """np.roots of poly; NoUltimateGain where it or np.roots' scaling overflows."""
    with contextlib.suppress(np.linalg.LinAlgError):
        if np.all(np.isfinite(poly)):
            return np.roots(poly)
    raise NoUltimateGain(f"{what} overflow floating point")


def _stability_margin(plant: TransferFunction, k: float) -> float:
    """Max real part of the roots of den + k*num; negative = stable."""
    poly = np.polyadd(plant.den, [k * c for c in plant.num])
    return float(np.max(_roots(poly, f"closed-loop roots at k={k:g}").real, initial=-math.inf))


@np.errstate(all="ignore")
def ultimate_point(plant: TransferFunction) -> UltimatePoint:
    """The proportional-only stability boundary: the first gain k above a
    stable one at which den + k*num has a root s = jw.

    A hunt brackets k, doubling upward from the largest stable gain (halving
    below 1 first if the loop is unstable there). k is real where the crossing
    equation Im(den(jw) conj num(jw)) = 0, a polynomial in w, holds: there
    k = -Re(den(jw)/num(jw)). ku is the smallest in the bracket, tu = 2 pi / w.
    Raises NoUltimateGain when the stability indicator never changes sign for
    k in (0, K_SEARCH_MAX], when roots overflow, or when the first crossing is
    through a real root (w = 0, or infinity when the degrees tie).
    """
    # Each hunt stops at its first probe with the wanted sign; a NaN margin
    # has neither, so it halves on down and counts as stable going up.
    k = 1.0
    while k >= _K_SEARCH_MIN and not _stability_margin(plant, k) < 0.0:
        k /= 2.0
    if k < _K_SEARCH_MIN:
        raise NoUltimateGain(
            "proportional loop is unstable for every gain down to "
            f"{_K_SEARCH_MIN}; no stable-to-unstable transition exists"
        )
    k_lo, k_hi = k, k * 2.0
    while k_hi <= K_SEARCH_MAX and not _stability_margin(plant, k_hi) >= 0.0:
        k_lo, k_hi = k_hi, k_hi * 2.0
    if k_hi > K_SEARCH_MAX:
        raise NoUltimateGain(
            f"stability indicator never changes sign for k in (0, {K_SEARCH_MAX:g}]"
        )
    # Each polynomial at s = jw as one in w (s^e's coefficient times j^e), over
    # a power of two near its largest coefficient so their product stays in range.
    num, den = (np.ldexp(c, -np.frexp(max(map(abs, c)))[1]) * 1j ** np.arange(len(c))[::-1]
                for c in (plant.num, plant.den))
    w = _roots(np.polymul(den, num.conj()).imag, "the crossing equation's roots")
    w = w.real[(w.imag == 0.0) & (w.real >= 0.0)]
    ks = -(np.polyval(plant.den, 1j * w) / np.polyval(plant.num, 1j * w)).real
    crossings = [*zip(ks.tolist(), w.tolist())]
    if plant.num_degree == plant.den_degree:
        crossings.append((-plant.den[0] / plant.num[-1 - plant.num_degree], math.inf))
    # A bracket in which no crossing is found changed sign through a real root.
    lo, hi = k_lo * (1.0 - _ROUNDING), k_hi * (1.0 + _ROUNDING)
    ku, omega = min((c for c in crossings if lo <= c[0] <= hi), default=(k_hi, 0.0))
    if not 0.0 < omega < math.inf:
        raise NoUltimateGain(
            f"boundary crossing at k={ku:g} is through a real root; "
            "no oscillation period exists"
        )
    return UltimatePoint(ku=ku, tu=2.0 * math.pi / omega)


def zn_pid_gains(up: UltimatePoint) -> PidGains:
    """Classic closed-loop Ziegler-Nichols PID row: kp = 0.6 ku, Ti = tu/2,
    Td = tu/8, i.e. ki = 1.2 ku/tu and kd = 0.075 ku tu."""
    return PidGains(
        kp=0.6 * up.ku,
        ki=1.2 * up.ku / up.tu,
        kd=0.075 * up.ku * up.tu,
    )


def draw_gains(rng: "np.random.Generator") -> PidGains:
    """One (kp, ki, kd) triple of independent uniforms on [-10, 10) from an
    existing stream."""
    kp, ki, kd = rng.uniform(-10.0, 10.0, size=3)
    return PidGains(kp=float(kp), ki=float(ki), kd=float(kd))

