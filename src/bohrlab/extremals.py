"""Closed-form extremal families that realize the sharp radii.

The analytic family is a disk automorphism with a real zero, precomposed with
the affine map of the unit disk onto the enlarged disk: it maps the enlarged
disk univalently onto the unit disk and its unit-disk restriction has
coefficients with an explicit geometric decay.  The harmonic family pairs a
member of the analytic family with a scaled copy of itself as co-analytic
part, giving a constant dilatation modulus k * lambda.

This is the one module that writes the family's closed forms: the constants
(A_0, q, C), the geometric sums, the limit weight K* and the deficits of
the bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .functionals import _CUT, _FIRST_LENGTH, DEFAULT_AREA_WEIGHT, SeriesStack

__all__ = [
    "family_constants",
    "family_majorant_and_area",
    "family_limit_weight",
    "family_area_deficit",
    "family_norm_deficit",
    "family_harmonic_deficit",
    "mobius_family_coeffs",
    "harmonic_extremal",
    "sharpness_a_grid",
]


def family_constants(a, gamma):
    """(A_0, q, C) of the member(s) at a, a float or an array: the member is
    A_0 - sum_{n>=1} C q^n z^n.  An array element gets its float's value bit
    for bit: a^2 is ``float_power``, rounded as Python's float ``**`` rounds
    it, where numpy's ``**`` squares and can round an ulp apart."""
    den = 1.0 - a * gamma
    return (a - gamma) / den, a * (1.0 - gamma) / den, (1.0 - np.float_power(a, 2)) / (a * den)


def family_majorant_and_area(a, gamma, r):
    """The majorant sum |A_0| + sum C q^n r^n of the member at a and its
    Dirichlet area sum n C^2 q^2n rho^2n at rho = r(1-gamma), in closed form:
    with x = q r and y = (x (1-gamma))^2 they are |A_0| + C x/(1-x) and
    C^2 y/(1-y)^2.  ``a`` and ``r`` broadcast against each other."""
    a0, q, scale = family_constants(a, gamma)
    x = q * r
    y = (x * (1.0 - gamma)) ** 2
    return np.abs(a0) + scale * x / (1.0 - x), scale**2 * y / (1.0 - y) ** 2


def family_limit_weight(gamma: float) -> float:
    """K*(gamma) = [(4 + g - g^2)(2 + g + g^2) / (2 (1-g)(3+g))]^2, the limit
    a -> 1 of the family's (1 - majorant) / area at the sharp radius
    (1+g)/(3+g) and its infimum over r up to that radius: no area weight above
    K* keeps every member's area-refined total at most one.  Rising in gamma
    from 16/9 at gamma = 0, the sharp weight on the unit disk (Kayumov and
    Ponnusamy, C. R. Math. 356, 2018)."""
    g = gamma
    return ((4.0 + g - g * g) * (2.0 + g + g * g) / (2.0 * (1.0 - g) * (3.0 + g))) ** 2


def family_area_deficit(r, a, gamma, weight=DEFAULT_AREA_WEIGHT):
    """Deficit below one of the area-refined total on the extremal family,
    scaled by (1-a): total = 1 - (1-a) * deficit."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    lead = (1.0 + gamma) / (1.0 - a * gamma)
    series_term = (1.0 + a) / (1.0 - a * gamma) * (r * (1.0 - gamma)) / d
    denom = (1.0 - a * gamma) ** 2 - a**2 * r**2 * (1.0 - gamma) ** 4
    area_term = weight * (1.0 - a) * (1.0 + a) ** 2 * (1.0 - gamma) ** 4 * r**2 / denom**2
    return lead - series_term - area_term


def family_norm_deficit(r, a, gamma):
    """Deficit of the norm-refined total on the family, scaled by (1-a)/(1-a*gamma)."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    t2 = (1.0 + a) * (1.0 - gamma) * r / d
    pref = (1.0 - a * gamma) / ((1.0 + a) * (1.0 - gamma)) + r / (1.0 - r)
    denom = (1.0 - a * gamma) ** 2 - a**2 * (1.0 - gamma) ** 2 * r**2
    t3 = pref * (1.0 + a) * (1.0 - a**2) / (1.0 - a * gamma) * (1.0 - gamma) ** 2 * r**2 / denom
    return (1.0 + gamma) - t2 - t3


def family_harmonic_deficit(r, a, gamma, k, lam):
    """Deficit of the harmonic joint majorant on the family, scaled by
    (1-a)/(1-a*gamma); the tail sum carries the multiplier 1 + k*lambda."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    return (1.0 + gamma) - (1.0 + k * lam) * (1.0 + a) * (1.0 - gamma) * r / d


def mobius_family_coeffs(a, gamma, order: int, r_max=None) -> SeriesStack:
    """The family members at (a, gamma), one stack row each: member i is
    A_0 - sum_{n>=1} C q^n z^n with the constants of :func:`family_constants`,
    written in place, with the exact tail certificate (q, C).  ``a``,
    ``gamma`` and ``r_max`` are floats or arrays, one entry per row; a = 0
    degenerates (C divides by a), so every a must lie in (0, 1).  The
    coefficients are real, so the rows are float64, and every evaluator value
    equals that of the complex member row: ``abs`` of a real x equals the
    complex ``hypot(x, 0)`` bit for bit.

    With ``r_max``, the largest radius in [0, 1) at which each row will be
    read, the rows stop at the shortest order N in 32, 64, 128, ... (else
    ``order``) with C x^(N+1) / (1 - x) <= 2^-60, x = q r_max, on every row,
    and each is the first N + 1 terms of the full-order row.  This is sound:
    the coefficients are exactly C q^n for n >= 1, so the certificate (q, C)
    bounds everything past N, and the evaluators add that bound to
    ``tail_error`` as they do past ``order``.  It is also nearly free: at r <=
    r_max the dropped terms add at most 2^-60 to a majorant sum, and less to
    the norm and area sums, which run in x^2 (their tails are below (N + 1)
    times that bound squared).  A sum cut at 2^-60 on both stacks then moves
    by at most 2^-59 plus the rounding of a sum of another length.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    a, gamma = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(gamma, dtype=float))
    if not (np.all((0.0 < a) & (a < 1.0)) and np.all((0.0 <= gamma) & (gamma < 1.0))):
        raise ValueError(f"every a must lie in (0, 1) and every gamma in [0, 1), got a={a}, gamma={gamma}")
    a0, q, scale = family_constants(a, gamma)
    if not np.all(np.isfinite(scale)):  # a below about 1e-308
        raise ValueError(f"the tail constant C = (1 - a^2) / (a (1 - a gamma)) overflows at a={a}")
    if r_max is not None:
        r_max = np.broadcast_to(np.asarray(r_max, dtype=float), a.shape)
        if not np.all((0.0 <= r_max) & (r_max < 1.0)):
            raise ValueError(f"every r_max must lie in [0, 1), got {r_max}")
        x, length = q * r_max, _FIRST_LENGTH
        while length < order and np.max(scale * np.power(x, length + 1) / (1.0 - x)) > _CUT:
            length *= 2
        order = min(length, order)
    coeffs = np.zeros((a.size, order + 1))
    # q**n < 2^-1100 rounds to zero, which libm is slow to reach: each row
    # stops at its own cut and stays zero past it
    kept = [min(order, int(1100.0 / -math.log2(x))) if x > 0.0 else 0 for x in q.tolist()]
    n = np.arange(1, max(kept, default=0) + 1)
    terms = coeffs[:, 1 : n.size + 1]
    written = n <= np.array(kept)[:, None]
    np.power(q[:, None], n, out=terms, where=written)
    np.multiply(-scale[:, None], terms, out=terms, where=written)
    coeffs[:, 0] = a0
    return SeriesStack(coeffs, q, scale)


def harmonic_extremal(a, gamma, weight, order: int, r_max=None) -> tuple[SeriesStack, SeriesStack]:
    """The harmonic pairs (h, g) at (a, gamma), one stack row per member: h is
    :func:`mobius_family_coeffs` and g = weight * (h - h(0)), with ``weight``
    (k * lambda, in [0, 1]) a float or an array, one entry per row.

    The dilatation g'/h' is the constant ``weight``, so |g'| <= k |h'| holds
    pointwise for any lambda in [0, 1].
    """
    h = mobius_family_coeffs(a, gamma, order, r_max)
    weight = np.broadcast_to(np.asarray(weight, dtype=float), h.tail.q.shape)
    if not np.all((0.0 <= weight) & (weight <= 1.0)):
        raise ValueError(f"every weight must lie in [0, 1], got {weight}")
    g = weight[:, None] * h.coeffs
    g[:, 0] = 0.0
    return h, SeriesStack(g, h.tail.q, weight * h.tail.C)


def sharpness_a_grid() -> np.ndarray:
    """Dyadic grid a_j = 1 - 2**(-j), j = 1..14, approaching the extremal limit."""
    return 1.0 - 2.0 ** -np.arange(1, 15)
