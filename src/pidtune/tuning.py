"""Starting points for the search: classic Ziegler-Nichols gains from the
proportional stability boundary, and seeded uniform random gains."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoUltimateGain
from .lti import PidGains, TransferFunction

K_SEARCH_MAX = 1e6
_K_SEARCH_MIN = 1e-12
_BISECT_RTOL = 1e-9


@dataclass(frozen=True)
class UltimatePoint:
    """Proportional gain and oscillation period at the stability boundary."""

    ku: float
    tu: float

    def __post_init__(self):
        if not (self.ku > 0 and self.tu > 0):
            raise InvalidInput(f"ku and tu must be positive, got {self.ku}, {self.tu}")


def _closed_loop_roots(plant: TransferFunction, k: float) -> np.ndarray:
    """Roots of the characteristic polynomial den + k*num of the proportional
    loop. Raises NoUltimateGain where the polynomial or np.roots'
    normalization overflows, since stability is undecidable there."""
    with np.errstate(all="ignore"):
        poly = np.polyadd(plant.den, [k * c for c in plant.num])
        try:
            if np.all(np.isfinite(poly)):
                return np.roots(poly)
        except np.linalg.LinAlgError:
            pass
    raise NoUltimateGain(f"closed-loop roots at k={k:g} overflow floating point")


def _stability_margin(plant: TransferFunction, k: float) -> float:
    """Max real part of the proportional closed-loop roots; negative = stable."""
    return float(np.max(_closed_loop_roots(plant, k).real, initial=-math.inf))


def ultimate_point(plant: TransferFunction) -> UltimatePoint:
    """Locate the proportional-only stability boundary by bisection on the
    max real part of the closed-loop roots (companion-matrix eigenvalues).
    The plant is proper, as every TransferFunction is, so den + k*num never outgrows den.

    The bracket hunt doubles upward from the largest stable gain (halving
    below 1 first if the loop is already unstable there). Raises
    NoUltimateGain when the stability indicator never changes sign for
    k in (0, K_SEARCH_MAX], when the roots at a probed k overflow floating
    point, or when the boundary crossing is through a real root, which has
    no oscillation period.
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
    while (k_hi - k_lo) > _BISECT_RTOL * k_hi:
        mid = 0.5 * (k_lo + k_hi)
        if _stability_margin(plant, mid) < 0.0:
            k_lo = mid
        else:
            k_hi = mid
    ku = k_hi
    roots = _closed_loop_roots(plant, ku)
    boundary = roots[np.argmax(roots.real)]
    omega = float(abs(boundary.imag))
    if omega <= 1e-9:
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

