"""Evaluators for every majorant-type bound used by the radius solvers.

Each evaluator returns a :class:`FunctionalValue` splitting the result into
the majorant part (absolute-coefficient sum) and a correction part (image
area, squared-coefficient norm, or co-analytic majorant), together with a
truncation bound.  ``tail_error`` is always an upper bound on the neglected
mass, so asserting ``total + tail_error <= 1`` errs on the safe side.  The
neglected mass is the series past the stored order, bounded by the tail
certificate, plus the stored terms past the cut: each sum stops where the
stored terms it skips are certified to add at most 2^-60.

Every sum, tail bound and evaluator takes the radius ``r`` as a float or a
1-D array of radii.  A float gives plain floats; an array gives values
shaped like ``r``, each equal bit for bit to the scalar call at that radius.
In place of a series, each also takes a :class:`SeriesStack` of same-order
series with one radius per member: row i then equals, bit for bit, the call
on member i alone at r[i], so a family is evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .series import PowerSeries, _check_gamma

__all__ = [
    "FunctionalValue",
    "SeriesStack",
    "majorant",
    "majorant_tail_bound",
    "norm_f0",
    "norm_f0_tail_bound",
    "dirichlet_area",
    "dirichlet_area_tail_bound",
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


class SeriesStack:
    """Series of one order, evaluated together at one radius per member.

    ``coeffs`` and the evaluators' weight tables have one row per member;
    ``tail.q`` and ``tail.C`` are arrays, 0 where a member has no certificate.
    """

    def __init__(self, members: Iterable[PowerSeries]) -> None:
        members = tuple(members)
        if not members or len({m.order for m in members}) != 1:
            raise ValueError("a stack needs one or more series of one order")
        self.coeffs = np.stack([m.coeffs for m in members])
        self.order = members[0].order
        tails = [(m.tail.q, m.tail.C) if m.tail is not None else (0.0, 0.0) for m in members]
        self.tail = SimpleNamespace(q=np.array([q for q, _ in tails]), C=np.array([c for _, c in tails]))
        self._memo: dict = {}


def _check_radius(r: float | np.ndarray, *series) -> None:
    if isinstance(r, np.ndarray):
        ok = r.ndim == 1 and bool(np.all((0.0 <= r) & (r < 1.0)))
    else:
        ok = 0.0 <= r < 1.0
    if not ok:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    for p in series:
        if isinstance(p, SeriesStack) and np.shape(r) != p.coeffs.shape[:1]:
            raise ValueError(f"a stack of series takes one radius per member, got {r}")


def _like_radius(value, r):
    """``value`` as a plain float for a scalar radius, as it is for an array."""
    return value if isinstance(r, np.ndarray) else float(value)


def _constant_modulus(p, r):
    """|a_0|, one per row for a stack, each rounded as the scalar ``abs()`` rounds
    it: numpy's vectorised complex ``np.abs`` can differ by an ulp, ``np.hypot`` can not."""
    a0 = p.coeffs.T[0]
    return _like_radius(np.hypot(a0.real, a0.imag) if a0.ndim else abs(a0), r)


# A sum stops at the shortest length L on the ladder 32, 64, 128, ... whose
# skipped stored terms provably add at most _CUT; that bound goes into the
# sum's tail bound.  Far below every tolerance, and below the rounding of any
# sum near one, so the stored digits of a total barely ever change.
_CUT = 2.0**-60
_FIRST_LENGTH = 32


@dataclass(frozen=True)
class _Terms:
    """Terms w_k x^n_k of one power sum, with the lengths L it may stop at.

    ``lengths`` ends with the full length; ``heads[j]`` is the exponent of the
    first term skipped at ``lengths[j]`` and ``suffix[..., j]`` bounds the
    skipped weights, sum_{k >= L} w_k, from above (0 at the full length).
    For a stack, ``weights`` and ``suffix`` have one row per member; the
    exponents, lengths and heads depend on the order alone.
    """

    weights: np.ndarray
    exponents: np.ndarray
    lengths: np.ndarray
    heads: np.ndarray
    suffix: np.ndarray


def _terms(p: PowerSeries, kind: str) -> _Terms:
    """The terms of one of the three sums over p's coefficients, built once per series or stack."""
    memo = p._memo
    if kind not in memo:
        n = np.arange(p.order + 1, dtype=float)
        if kind == "majorant":
            weights = np.abs(p.coeffs)
        else:  # "norm" and "area" run from n = 1
            n = n[1:]
            weights = np.abs(p.coeffs[..., 1:]) ** 2
            if kind == "area":
                weights = n * weights
        size = weights.shape[-1]
        lengths = [_FIRST_LENGTH << j for j in range(size.bit_length()) if _FIRST_LENGTH << j < size]
        # suffix sums of nonnegative terms err by less than size * 2^-53
        # relative; the factor covers that and the rounding of x^n_L * S_L
        tails = np.cumsum(weights[..., ::-1], axis=-1)[..., ::-1]
        suffix = np.zeros(weights.shape[:-1] + (len(lengths) + 1,))  # 0 at the full length
        suffix[..., :-1] = tails[..., lengths] * (1.0 + size * 2.0**-52)
        memo[kind] = _Terms(weights, n, np.array(lengths + [size]), np.append(n[lengths], 0.0), suffix)
    return memo[kind]


def _power_sum(terms: _Terms, x: float | np.ndarray):
    """(sum_k w_k x^n_k, bound on the stored terms it skipped) for each x.

    The weights are one row per x, or one vector shared by every x.  Each x
    sums its first L terms, L the shortest length with x^n_L S_L <= _CUT:
    every skipped term is at most x^n_L times its weight, as x < 1 and the
    exponents increase.  L depends on x and its row alone and each sum is one
    dot product, so every x rounds exactly as the scalar call does.
    """
    xs = np.atleast_1d(x)
    bounds = np.power.outer(xs, terms.heads) * terms.suffix
    pick = np.argmax(bounds <= _CUT, axis=1)
    skipped = bounds[np.arange(xs.size), pick]
    lengths = terms.lengths[pick]
    value = np.empty(xs.shape)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for length in sorted(set(lengths.tolist())):
        rows = lengths == length
        powers = np.power.outer(xs[rows], terms.exponents[:length])
        weights = terms.weights[..., :length]
        value[rows] = np.vecdot(powers, weights if weights.ndim == 1 else weights[rows])
    if isinstance(x, np.ndarray):
        return value, skipped
    return float(value[0]), float(skipped[0])


def _rounded_up(tail, p: PowerSeries, x, r):
    """A certificate tail at radius r, scaled up to cover its rounding: x =
    fl(q r) or fl(fl(q r)^2) is off by a relative e <= u = 2^-53 or 4u (against
    q^2 r*r, exact or rounded), which moves x^(N+1) by (N+1) e, 1/(1-x)^k by
    k e/(1-x) and N+1 - N x by at most S e, S = N+1 + 1/(1-x) >= 2; the form's
    own roundings add at most (S + 10) u.  The worst, the area form, is off by
    2S * 4u + (S + 10) u <= 14 S u, under the factor's 8 S 2^-52 = 16 S u."""
    return _like_radius(tail * (1.0 + 8.0 * (p.order + 1 + 1.0 / (1.0 - x)) * 2.0**-52), r)


def _majorant(p: PowerSeries, r):
    """(sum of |a_n| r^n over the terms summed, bound on the rest of the series)."""
    value, skipped = _power_sum(_terms(p, "majorant"), r)
    if p.tail is None:  # a certificate with C = 0 (a stack row without one) adds exactly 0
        return value, skipped
    x = p.tail.q * r  # below one: q < 1 and r < 1
    return value, _rounded_up(p.tail.C * np.power(x, p.order + 1) / (1.0 - x), p, x, r) + skipped


def _norm_f0(p: PowerSeries, r):
    # squares are products: Python's float ** 2 and numpy's can round apart
    value, skipped = _power_sum(_terms(p, "norm"), r * r)
    if p.tail is None:
        return value, skipped
    x = (p.tail.q * r) * (p.tail.q * r)
    tail = p.tail.C * p.tail.C * np.power(x, p.order + 1) / (1.0 - x)
    return value, _rounded_up(tail, p, x, r) + skipped


def _dirichlet_area(p: PowerSeries, r):
    value, skipped = _power_sum(_terms(p, "area"), r * r)
    if p.tail is None:
        return value, skipped
    x = (p.tail.q * r) * (p.tail.q * r)
    n1 = p.order + 1
    # sum_{n>N} n x^n = x^{N+1} ((N+1) - N x) / (1-x)^2
    tail = p.tail.C * p.tail.C * np.power(x, n1) * (n1 - p.order * x) / ((1.0 - x) * (1.0 - x))
    return value, _rounded_up(tail, p, x, r) + skipped


def majorant(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Sum of |a_n| r^n over the stored coefficients, up to the cut."""
    _check_radius(r, p)
    return _majorant(p, r)[0]


def majorant_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Upper bound on the rest of sum |a_n| r^n: the stored terms past the cut,
    plus sum_{n>N} from the tail certificate (nothing if absent)."""
    _check_radius(r, p)
    return _majorant(p, r)[1]


def norm_f0(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Squared-coefficient norm of the constant-free part: sum_{n>=1} |a_n|^2 r^{2n}."""
    _check_radius(r, p)
    return _norm_f0(p, r)[0]


def norm_f0_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    _check_radius(r, p)
    return _norm_f0(p, r)[1]


def dirichlet_area(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Multiplicity-counted image area over pi: sum_{n>=1} n |a_n|^2 r^{2n}.

    By Parseval this equals (1/pi) * integral of |f'|^2 over the disk of
    radius r; for univalent f it is exactly the image area over pi.
    """
    _check_radius(r, p)
    return _dirichlet_area(p, r)[0]


def dirichlet_area_tail_bound(p: PowerSeries, r: float | np.ndarray) -> float | np.ndarray:
    """Upper bound on the rest of sum n |a_n|^2 r^{2n}, as for the majorant."""
    _check_radius(r, p)
    return _dirichlet_area(p, r)[1]


def bohr_total(p: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Plain majorant with no correction term."""
    _check_radius(r, p)
    m, tail = _majorant(p, r)
    return FunctionalValue(m, m, 0.0 * r, r, tail)


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
    _check_radius(r, p)
    m, m_tail = _majorant(p, r)
    area, area_tail = _dirichlet_area(p, r * (1.0 - gamma))
    return FunctionalValue(m + weight * area, m, weight * area, r, m_tail + weight * area_tail)


def norm_refined_total(p: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Majorant plus the squared-coefficient norm correction
    (1/(1+|a_0|) + r/(1-r)) * sum_{n>=1} |a_n|^2 r^{2n}."""
    _check_radius(r, p)
    a0 = _constant_modulus(p, r)
    factor = 1.0 / (1.0 + a0) + r / (1.0 - r)
    m, m_tail = _majorant(p, r)
    norm, norm_tail = _norm_f0(p, r)
    corr = factor * norm
    return FunctionalValue(m + corr, m, corr, r, m_tail + factor * norm_tail)


def domain_ratio_area_total(p: PowerSeries, r: float | np.ndarray, ratio_sup: float) -> FunctionalValue:
    """Majorant plus 2 ((1+L)/(1+2L))^2 times the Dirichlet area, where L is
    the domain's coefficient-ratio supremum sup |a_n|/(1-|a_0|^2)."""
    if not ratio_sup > 0.0:
        raise ValueError(f"coefficient-ratio supremum must be positive, got {ratio_sup}")
    weight = 2.0 * ((1.0 + ratio_sup) / (1.0 + 2.0 * ratio_sup)) ** 2
    _check_radius(r, p)
    m, m_tail = _majorant(p, r)
    area, area_tail = _dirichlet_area(p, r)
    corr = weight * area
    return FunctionalValue(m + corr, m, corr, r, m_tail + weight * area_tail)


def harmonic_total(h: PowerSeries, g: PowerSeries, r: float | np.ndarray) -> FunctionalValue:
    """Joint majorant of a harmonic mapping h + conj(g): the analytic majorant
    plus the co-analytic majorant without its constant term."""
    _check_radius(r, h, g)
    m_h, h_tail = _majorant(h, r)
    m_g, g_tail = _majorant(g, r)
    total = m_h + (m_g - _constant_modulus(g, r))
    return FunctionalValue(total, total, 0.0 * r, r, h_tail + g_tail)


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
