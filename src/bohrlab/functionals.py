"""Evaluators for every majorant-type bound used by the radius solvers.

Each evaluator returns a :class:`FunctionalValue` splitting the result into
the majorant part (absolute-coefficient sum) and a correction part (image
area, squared-coefficient norm, or co-analytic majorant), together with a
truncation bound.  ``tail_error`` is always an upper bound on the neglected
mass, so asserting ``total + tail_error <= 1`` errs on the safe side.  The
neglected mass is the series past the stored order, bounded by the tail
certificate, plus the stored terms past the cut: each sum stops where the
stored terms it skips are certified to add at most 2^-60.

Every sum and evaluator takes a :class:`SeriesStack` of M same-order
series (one series is a one-row stack) and its radii as an array, in one of
two shapes.  A 1-D array of M radii gives one radius per member, and values
of shape (M,) whose row i equals, bit for bit, the call on member i alone at
r[i:i+1], so a family is evaluated in one call.  One radius row of shape
(1, R) that every member shares gives (M, R) arrays whose row i equals, bit
for bit, the call on member i alone on that row, and each entry the call at
that one radius; each power table x^n is then built once for the whole
stack.  Any other radius, a float included, is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import SeriesStack, _check_gamma

__all__ = [
    "FunctionalValue",
    "SeriesStack",
    "majorant",
    "dirichlet_area",
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

    total: np.ndarray
    majorant: np.ndarray
    correction: np.ndarray
    tail_error: np.ndarray

    def padded(self) -> np.ndarray:
        """Safe-side value for <= 1 assertions."""
        return self.total + self.tail_error


def _check_radius(r: np.ndarray, *series: SeriesStack) -> None:
    """r in [0, 1): one radius per member of stacks all of one size, or one (1, R) row they share."""
    members = {p.coeffs.shape[0] for p in series}
    if not (isinstance(r, np.ndarray) and len(members) == 1
            and (r.shape == (*members,) or (r.ndim == 2 and len(r) == 1))):
        raise ValueError("radius must be an array: a stack of M series takes M radii, one per member, or one (1, R) "
                         f"row that every member shares; got {type(r).__name__} of shape {np.shape(r)} for "
                         f"stacks of {sorted(members)} members")
    if r.size and not (r.min() >= 0.0 and r.max() < 1.0):  # a NaN fails both; an empty r passes
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def _check_radius_and_gamma(r, gamma: float | np.ndarray, p) -> None:
    """:func:`_check_radius`, and gamma in [0, 1): a float, or with one radius
    per member, one gamma per member."""
    if isinstance(gamma, np.ndarray):
        if gamma.shape != p.coeffs.shape[:1] or np.ndim(r) != 1:
            raise ValueError(f"an array of gamma needs one radius and one gamma per member, got {gamma}")
        if not np.all((0.0 <= gamma) & (gamma < 1.0)):
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    else:
        _check_gamma(gamma)
    _check_radius(r, p)


def _per_member(values, r):
    """A stack's per-member ``values`` as a column when its members share one radius row."""
    return values[:, None] if r.ndim == 2 else values


def _constant_modulus(p, r):
    """|a_0|, one per row, each rounded as the scalar ``abs()`` rounds it:
    numpy's vectorised complex ``np.abs`` can differ by an ulp, ``np.hypot`` can not."""
    a0 = p.coeffs[:, 0]
    return _per_member(np.hypot(a0.real, a0.imag), r)


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
    ``weights`` and ``suffix`` have one row per member of the stack; the
    exponents, lengths and heads depend on the order alone.
    """

    weights: np.ndarray
    exponents: np.ndarray
    lengths: np.ndarray
    heads: np.ndarray
    suffix: np.ndarray


def _terms(p: SeriesStack, kind: str) -> _Terms:
    """The terms of one of the three sums over p's coefficients, built once per stack."""
    memo = p._memo
    if kind not in memo:
        n = np.arange(p.order + 1, dtype=float)
        if kind == "majorant":
            weights = np.abs(p.coeffs)
        else:  # "norm" and "area" run from n = 1; the area weights are n times the norm weights
            n = n[1:]
            weights = memo["norm"].weights if "norm" in memo else np.abs(p.coeffs[..., 1:]) ** 2
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


def _power_sum(terms: _Terms, x: np.ndarray):
    """(sum_k w_k x^n_k, bound on the stored terms it skipped) for each x.

    The weights are one row per x, or, for a (1, R) row of x, one row per
    member of a stack, each against every x.  Each x sums its first L terms,
    L the shortest length with x^n_L S_L <= _CUT: every skipped term is at
    most x^n_L times its weight, as x < 1 and the exponents increase.  L
    depends on x and its row alone and each sum is one dot product, so every
    x rounds exactly as it does alone.
    """
    shared = x.ndim == 2  # one row of x for every member: an (M, R) result
    bounds = np.power.outer(x, terms.heads) * (terms.suffix[:, None] if shared else terms.suffix)
    pick = np.argmax(bounds <= _CUT, axis=-1)
    if pick.size and (first := pick.max()) == pick.min():  # the usual case: every x sums one length
        length = terms.lengths[first]
        weights = terms.weights[:, None, :length] if shared else terms.weights[:, :length]
        return np.vecdot(np.power.outer(x[0] if shared else x, terms.exponents[:length]), weights), bounds[..., first]
    if shared:
        skipped = np.take_along_axis(bounds, pick[..., None], axis=-1)[..., 0]
    else:  # the same, at a third of the call overhead
        skipped = bounds[np.arange(x.size), pick]
    lengths = terms.lengths[pick]
    value = np.empty(lengths.shape)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for length in sorted(set(lengths.ravel().tolist())):
        cells = lengths == length
        weights = terms.weights[:, :length]
        if shared:  # the powers of each x that any member needs, once; every member dots them
            cols = cells.any(axis=0)
            sums = np.vecdot(np.power.outer(x[0, cols], terms.exponents[:length]), weights[:, None])
            value[:, cols] = np.where(cells[:, cols], sums, value[:, cols])
        else:
            value[cells] = np.vecdot(np.power.outer(x[cells], terms.exponents[:length]), weights[cells])
    return value, skipped


def _rounded_up(tail, p: SeriesStack, x):
    """A certificate tail, scaled up to cover its rounding: x =
    fl(q r) or fl(fl(q r)^2) is off by a relative e <= u = 2^-53 or 4u (against
    q^2 r*r, exact or rounded), which moves x^(N+1) by (N+1) e, 1/(1-x)^k by
    k e/(1-x) and N+1 - N x by at most S e, S = N+1 + 1/(1-x) >= 2; the form's
    own roundings add at most (S + 10) u.  The worst, the area form, is off by
    2S * 4u + (S + 10) u <= 14 S u, under the factor's 8 S 2^-52 = 16 S u."""
    return tail * (1.0 + 8.0 * (p.order + 1 + 1.0 / (1.0 - x)) * 2.0**-52)


def _sum(p: SeriesStack, kind: str, r):
    """(sum over the terms summed, bound on the rest of the series) of one of
    the three sums at r: ``"majorant"``, sum |a_n| r^n; ``"norm"``, the
    squared-coefficient norm of the constant-free part, sum_{n>=1} |a_n|^2
    r^{2n}; ``"area"``, sum_{n>=1} n |a_n|^2 r^{2n}.  The bound covers the
    stored terms past the cut plus sum_{n>N} from the tail certificate, whose
    closed form starts with the head C^k x^(N+1) (k = 1, x = q r; or k = 2,
    x = (q r)^2).  Where the head is 0 in every cell (C = 0, or x^(N+1)
    underflowed and C is finite) the closed form and its rounding-up are
    exactly 0, so the bound is the skipped mass as it stands, bit for bit;
    a C of inf or NaN makes the head NaN, which takes the closed form.
    """
    square = kind != "majorant"
    # squares are products: Python's float ** 2 and numpy's can round apart
    value, skipped = _power_sum(_terms(p, kind), r * r if square else r)
    q, c = _per_member(p.tail.q, r), _per_member(p.tail.C, r)
    x = q * r  # below one: q < 1 and r < 1
    if square:
        x, c = x * x, c * c
    n1 = p.order + 1
    head = c * np.power(x, n1)
    if not head.any():
        return value, skipped
    if kind == "area":  # sum_{n>N} n x^n = x^{N+1} ((N+1) - N x) / (1-x)^2
        tail = head * (n1 - p.order * x) / ((1.0 - x) * (1.0 - x))
    else:
        tail = head / (1.0 - x)
    return value, _rounded_up(tail, p, x) + skipped


def majorant(p: SeriesStack, r: np.ndarray) -> np.ndarray:
    """Sum of |a_n| r^n over the stored coefficients, up to the cut."""
    _check_radius(r, p)
    return _sum(p, "majorant", r)[0]


def dirichlet_area(p: SeriesStack, r: np.ndarray) -> np.ndarray:
    """Multiplicity-counted image area over pi: sum_{n>=1} n |a_n|^2 r^{2n}.

    By Parseval this equals (1/pi) * integral of |f'|^2 over the disk of
    radius r; for univalent f it is exactly the image area over pi.
    """
    _check_radius(r, p)
    return _sum(p, "area", r)[0]


def bohr_total(p: SeriesStack, r: np.ndarray) -> FunctionalValue:
    """Plain majorant with no correction term."""
    _check_radius(r, p)
    m, tail = _sum(p, "majorant", r)
    return FunctionalValue(m, m, 0.0 * m, tail)  # m >= 0: the correction is +0.0


def area_refined_total(
    p: SeriesStack, r: np.ndarray, gamma: float | np.ndarray, weight: float = DEFAULT_AREA_WEIGHT
) -> FunctionalValue:
    """Majorant plus weighted image-area correction for functions bounded on
    the enlarged disk of parameter gamma.

    The area is the Dirichlet area of the unit-disk restriction over the
    subdisk of radius r*(1-gamma); this is identical to the area of the image
    of the matching off-center subdisk under the recentred function, so both
    readings of the correction term agree.

    With one radius per member, ``gamma`` may also be one value per member,
    as ``r`` is.
    """
    _check_radius_and_gamma(r, gamma, p)
    m, m_tail = _sum(p, "majorant", r)
    area, area_tail = _sum(p, "area", r * (1.0 - gamma))
    return FunctionalValue(m + weight * area, m, weight * area, m_tail + weight * area_tail)


def norm_refined_total(p: SeriesStack, r: np.ndarray) -> FunctionalValue:
    """Majorant plus the squared-coefficient norm correction
    (1/(1+|a_0|) + r/(1-r)) * sum_{n>=1} |a_n|^2 r^{2n}."""
    _check_radius(r, p)
    a0 = _constant_modulus(p, r)
    factor = 1.0 / (1.0 + a0) + r / (1.0 - r)
    m, m_tail = _sum(p, "majorant", r)
    norm, norm_tail = _sum(p, "norm", r)
    corr = factor * norm
    return FunctionalValue(m + corr, m, corr, m_tail + factor * norm_tail)


def domain_ratio_area_total(p: SeriesStack, r: np.ndarray, ratio_sup: float) -> FunctionalValue:
    """Majorant plus 2 ((1+L)/(1+2L))^2 times the Dirichlet area, where L is
    the domain's coefficient-ratio supremum sup |a_n|/(1-|a_0|^2)."""
    if not ratio_sup > 0.0:
        raise ValueError(f"coefficient-ratio supremum must be positive, got {ratio_sup}")
    weight = 2.0 * ((1.0 + ratio_sup) / (1.0 + 2.0 * ratio_sup)) ** 2
    _check_radius(r, p)
    m, m_tail = _sum(p, "majorant", r)
    area, area_tail = _sum(p, "area", r)
    corr = weight * area
    return FunctionalValue(m + corr, m, corr, m_tail + weight * area_tail)


def harmonic_total(h: SeriesStack, g: SeriesStack, r: np.ndarray) -> FunctionalValue:
    """Joint majorant of a harmonic mapping h + conj(g): the analytic majorant
    plus the co-analytic majorant without its constant term."""
    _check_radius(r, h, g)
    m_h, h_tail = _sum(h, "majorant", r)
    m_g, g_tail = _sum(g, "majorant", r)
    total = m_h + (m_g - _constant_modulus(g, r))
    return FunctionalValue(total, total, 0.0 * m_h, h_tail + g_tail)  # m_h >= 0: +0.0


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
