"""Evaluators for every majorant-type bound used by the radius solvers.

Each evaluator returns a :class:`FunctionalValue` splitting the result into
the majorant part (absolute-coefficient sum) and a correction part (image
area, squared-coefficient norm, or co-analytic majorant), together with a
truncation bound derived from the series tail certificate.  ``tail_error``
is always an upper bound on the neglected mass, so asserting
``total + tail_error <= 1`` errs on the safe side.

Every sum, tail bound and evaluator takes the radius ``r`` as a float or a
1-D array of radii.  A float gives plain floats; an array gives values
shaped like ``r``, each equal bit for bit to the scalar call at that radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PowerSeries, _check_gamma

__all__ = [
    "FunctionalValue",
    "majorant",
    "majorant_tail_bound",
    "norm_f0",
    "norm_f0_tail_bound",
    "dirichlet_area",
    "dirichlet_area_tail_bound",
    "area_upper_bound",
    "bohr_total",
    "area_refined_total",
    "norm_refined_total",
    "domain_ratio_area_total",
    "harmonic_total",
    "sharp_majorant_radius",
    "sharp_harmonic_radius",
    "DEFAULT_AREA_WEIGHT",
]

# Admissible weight of the image-area correction on any enlarged disk.
DEFAULT_AREA_WEIGHT = 8.0 / 9.0


@dataclass(frozen=True)
class FunctionalValue:
    """Value of one bound at radius r: total = majorant + correction exactly,
    and the true (untruncated) value lies within total +- tail_error."""

    total: float | np.ndarray
    majorant: float | np.ndarray
    correction: float | np.ndarray
    r: float | np.ndarray
    tail_error: float | np.ndarray

    def padded(self) -> float | np.ndarray:
        """Safe-side value for <= 1 assertions."""
        return self.total + self.tail_error

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "majorant": self.majorant,
            "correction": self.correction,
            "r": self.r,
            "tail_error": self.tail_error,
        }


def _check_radius(r: float | np.ndarray) -> None:
    if isinstance(r, np.ndarray):
        ok = r.ndim == 1 and bool(np.all((0.0 <= r) & (r < 1.0)))
    else:
        ok = 0.0 <= r < 1.0
    if not ok:
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def _like_radius(value, r):
    """``value`` as a plain float for a scalar radius, as it is for an array."""
    return value if isinstance(r, np.ndarray) else float(value)


def _power_sum(weights: np.ndarray, n: np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """sum_k weights_k x^n_k for each x, one dot product per row of powers,
    so every radius rounds exactly as the scalar ``weights @ x**n`` does."""
    return _like_radius(np.vecdot(np.power.outer(x, n), weights), x)


def majorant(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Sum of |a_n| r^n over the stored coefficients."""
    _check_radius(r)
    return _power_sum(np.abs(p.coeffs), np.arange(p.order + 1, dtype=float), r)


def majorant_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Upper bound on sum_{n>N} |a_n| r^n from the tail certificate (0 if absent)."""
    _check_radius(r)
    if p.tail is None or p.tail.C == 0.0:
        return 0.0 * r
    x = p.tail.q * r  # below one: q < 1 and r < 1
    return _like_radius(p.tail.C * np.power(x, p.order + 1) / (1.0 - x), r)


def norm_f0(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Squared-coefficient norm of the constant-free part: sum_{n>=1} |a_n|^2 r^{2n}."""
    _check_radius(r)
    n = np.arange(1, p.order + 1, dtype=float)
    # squares are products: Python's float ** 2 and numpy's can round apart
    return _power_sum(np.abs(p.coeffs[1:]) ** 2, n, r * r)


def norm_f0_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    _check_radius(r)
    if p.tail is None or p.tail.C == 0.0:
        return 0.0 * r
    x = (p.tail.q * r) * (p.tail.q * r)
    return _like_radius(p.tail.C**2 * np.power(x, p.order + 1) / (1.0 - x), r)


def dirichlet_area(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Multiplicity-counted image area over pi: sum_{n>=1} n |a_n|^2 r^{2n}.

    By Parseval this equals (1/pi) * integral of |f'|^2 over the disk of
    radius r; for univalent f it is exactly the image area over pi.
    """
    _check_radius(r)
    n = np.arange(1, p.order + 1, dtype=float)
    return _power_sum(n * np.abs(p.coeffs[1:]) ** 2, n, r * r)


def dirichlet_area_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Upper bound on sum_{n>N} n |a_n|^2 r^{2n} from the tail certificate."""
    _check_radius(r)
    if p.tail is None or p.tail.C == 0.0:
        return 0.0 * r
    x = (p.tail.q * r) * (p.tail.q * r)
    n1 = p.order + 1
    # sum_{n>N} n x^n = x^{N+1} ((N+1) - N x) / (1-x)^2
    tail = p.tail.C**2 * np.power(x, n1) * (n1 - p.order * x) / ((1.0 - x) * (1.0 - x))
    return _like_radius(tail, r)


def area_upper_bound(a0_abs: float, r: float) -> float:
    """Bound (1-|a_0|^2)^2 r^2 / (1-r^2)^2 on the Dirichlet area of any bounded function."""
    if not 0.0 <= a0_abs <= 1.0:
        raise ValueError(f"|a_0| must lie in [0, 1], got {a0_abs}")
    _check_radius(r)
    return (1.0 - a0_abs**2) ** 2 * r**2 / (1.0 - r**2) ** 2


def bohr_total(p: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Plain majorant with no correction term."""
    m = majorant(p, r)
    return FunctionalValue(m, m, 0.0 * r, r, majorant_tail_bound(p, r))


def area_refined_total(
    p: PowerSeries, r: float | np.ndarray, gamma: float, weight: float = DEFAULT_AREA_WEIGHT
) -> FunctionalValue:
    """Majorant plus weighted image-area correction for functions bounded on
    the enlarged disk of parameter gamma.

    The area is the Dirichlet area of the unit-disk restriction over the
    subdisk of radius r*(1-gamma); this is identical to the area of the image
    of the matching off-center subdisk under the recentred function, so both
    readings of the correction term agree.
    """
    _check_gamma(gamma)
    m = majorant(p, r)
    area = dirichlet_area(p, r * (1.0 - gamma))
    tail = majorant_tail_bound(p, r) + weight * dirichlet_area_tail_bound(p, r * (1.0 - gamma))
    return FunctionalValue(m + weight * area, m, weight * area, r, tail)


def norm_refined_total(p: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Majorant plus the squared-coefficient norm correction
    (1/(1+|a_0|) + r/(1-r)) * sum_{n>=1} |a_n|^2 r^{2n}."""
    _check_radius(r)
    a0 = float(abs(p.coeffs[0]))
    factor = 1.0 / (1.0 + a0) + r / (1.0 - r)
    m = majorant(p, r)
    corr = factor * norm_f0(p, r)
    tail = majorant_tail_bound(p, r) + factor * norm_f0_tail_bound(p, r)
    return FunctionalValue(m + corr, m, corr, r, tail)


def domain_ratio_area_total(p: PowerSeries, r: float | np.ndarray, ratio_sup: float) -> FunctionalValue:
    """Majorant plus 2 ((1+L)/(1+2L))^2 times the Dirichlet area, where L is
    the domain's coefficient-ratio supremum sup |a_n|/(1-|a_0|^2)."""
    if not ratio_sup > 0.0:
        raise ValueError(f"coefficient-ratio supremum must be positive, got {ratio_sup}")
    weight = 2.0 * ((1.0 + ratio_sup) / (1.0 + 2.0 * ratio_sup)) ** 2
    m = majorant(p, r)
    corr = weight * dirichlet_area(p, r)
    tail = majorant_tail_bound(p, r) + weight * dirichlet_area_tail_bound(p, r)
    return FunctionalValue(m + corr, m, corr, r, tail)


def harmonic_total(h: PowerSeries, g: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Joint majorant of a harmonic mapping h + conj(g): the analytic majorant
    plus the co-analytic majorant without its constant term."""
    m_h = majorant(h, r)
    m_g = majorant(g, r) - float(abs(g.coeffs[0]))
    tail = majorant_tail_bound(h, r) + majorant_tail_bound(g, r)
    total = m_h + m_g
    return FunctionalValue(total, total, 0.0 * r, r, tail)


def sharp_majorant_radius(gamma: float) -> float:
    """Largest radius below which the majorant bound holds on the enlarged disk."""
    _check_gamma(gamma)
    return (1.0 + gamma) / (3.0 + gamma)


def sharp_harmonic_radius(gamma: float, k: float) -> float:
    """Harmonic counterpart with dilatation bound k: (1+gamma)/(3+2k+gamma)."""
    _check_gamma(gamma)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"k must lie in [0, 1], got {k}")
    return (1.0 + gamma) / (3.0 + 2.0 * k + gamma)
