"""Closed-form extremal families that realize the sharp radii.

The analytic family is a disk automorphism with a real zero, precomposed with
the affine map of the unit disk onto the enlarged disk: it maps the enlarged
disk univalently onto the unit disk and its unit-disk restriction has
coefficients with an explicit geometric decay.  The harmonic family pairs a
member of the analytic family with a scaled copy of itself as co-analytic
part, giving a constant dilatation modulus k * lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries, TailBound, _check_gamma

__all__ = [
    "MobiusFamilyParams",
    "HarmonicExtremalParams",
    "mobius_family_coeffs",
    "harmonic_extremal",
    "sharpness_a_grid",
]


@dataclass(frozen=True)
class MobiusFamilyParams:
    """Parameters (a, gamma) of the analytic extremal family.

    a = 0 degenerates (the coefficient formula divides by a) and is rejected.
    ``sharpness_witness`` additionally enforces a > gamma, which the
    near-extremal arguments need so the constant term stays nonnegative.
    """

    a: float
    gamma: float = 0.0
    sharpness_witness: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {self.a}")
        _check_gamma(self.gamma)
        if self.sharpness_witness and not self.a > self.gamma:
            raise ValueError("sharpness witnesses require a > gamma")

    @property
    def decay_ratio(self) -> float:
        """Geometric ratio q = a(1-gamma)/(1-a*gamma) of the coefficients; q in (0, 1)."""
        return self.a * (1.0 - self.gamma) / (1.0 - self.a * self.gamma)

    @property
    def constant_term(self) -> float:
        return (self.a - self.gamma) / (1.0 - self.a * self.gamma)

    @property
    def coefficient_scale(self) -> float:
        """C with |a_n| = C * q**n for n >= 1."""
        return (1.0 - self.a**2) / (self.a * (1.0 - self.a * self.gamma))


def mobius_family_coeffs(params: MobiusFamilyParams, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Unit-disk Taylor coefficients of a family member.

    The series is A_0 - sum_{n>=1} A_n z^n with A_0 = (a-gamma)/(1-a*gamma)
    and A_n = C * q**n, and it carries the exact tail certificate (q, C).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    q = params.decay_ratio
    scale = params.coefficient_scale
    # q**n < 2^-1100 rounds to zero, which libm is slow to reach: store zeros
    kept = min(order, int(1100.0 / -math.log2(q))) if q > 0.0 else 0
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[0] = params.constant_term
    coeffs[1 : kept + 1] = -scale * q ** np.arange(1, kept + 1)
    return PowerSeries(coeffs, TailBound(q, scale))


@dataclass(frozen=True)
class HarmonicExtremalParams:
    """Analytic family member plus co-analytic part k * lambda * (h - h(0))."""

    a: float
    gamma: float = 0.0
    k: float = 1.0
    lambda_mix: float = 1.0

    def __post_init__(self) -> None:
        MobiusFamilyParams(self.a, self.gamma)
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must lie in [0, 1], got {self.k}")
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError(f"lambda_mix must lie in [0, 1], got {self.lambda_mix}")

    @property
    def analytic(self) -> MobiusFamilyParams:
        return MobiusFamilyParams(self.a, self.gamma)


def harmonic_extremal(
    params: HarmonicExtremalParams, order: int = DEFAULT_ORDER
) -> tuple[PowerSeries, PowerSeries]:
    """Return (h, g) with h the analytic family member and g = k*lambda*(h - h(0)).

    The dilatation g'/h' is the constant k*lambda, so |g'| <= k |h'| holds
    pointwise for any lambda in [0, 1].
    """
    h = mobius_family_coeffs(params.analytic, order)
    weight = params.k * params.lambda_mix
    g_coeffs = weight * h.coeffs
    g_coeffs[0] = 0.0
    g_tail = None if h.tail is None else TailBound(h.tail.q, weight * h.tail.C)
    return h, PowerSeries(g_coeffs, g_tail)


def sharpness_a_grid(j_max: int = 14) -> np.ndarray:
    """Dyadic grid a_j = 1 - 2**(-j), j = 1..j_max, approaching the extremal limit."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    return 1.0 - 2.0 ** -np.arange(1, j_max + 1)
