"""Sharp-radius solvers for monotone majorant-type bounds.

The per-function radius is the largest r at which the (tail-padded) bound
stays at or below one.  All bounds handled here are nondecreasing in r, so
ITP bracketing on a fixed bracket is both robust and cheap: it never takes
more than ceil(log2(upper/tol)) + 1 steps, one over bisection's worst case.
A family's radius is the minimum over the members it is given.

ITP's estimate is the zero of the Moebius function (a r + b)/(c r + d)
through the two bracket ends and the end most recently replaced.  The bounds
of theorems B, A and 4 and of the corollary have that form in r (|A0| +
C q r/(1 - q r)), and those of theorems 1-3 nearly so at the crossing, while
regula falsi barely moves on a bound that explodes as r -> 1, as theorem 2's
does.  At tol = 1e-10 and gamma <= 0.99 each of the members a = 1 - 2^-j,
j = 11..14, of the extremal families closes in at most 7 steps, where
bisection takes 34.

The ITP loop is a generator that yields probe points and is sent the padded
bound there.  A family solve steps one per member in lockstep: each round is
one call of the family's bound, and each member takes the steps it would
take alone.

The family radii are sharp only in the limit a -> 1, which
:func:`a_to_one_limit` reaches by Richardson extrapolation on the members
nearest it (A. Sidi, Practical Extrapolation Methods, CUP 2003).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Sequence

import numpy as np

from .functionals import FunctionalValue

__all__ = ["UPPER_LIMIT", "SMALLEST_TOL", "LIMIT_MEMBERS", "RadiusResult", "Limit", "bohr_radius_of_function",
           "family_infimum_radius", "a_to_one_limit"]

# Fixed search bracket; the bounds lose smoothness as r -> 1, so the
# search never probes past this point.
UPPER_LIMIT = 1.0 - 1e-6

# Smallest tolerance: the step budget log2(upper / tol) stays finite down to
# 2^-1024 (about 5.6e-309) for every upper < 1, and overflows below it
SMALLEST_TOL = 2.0**-1024

# ITP constants (Oliveira and Takahashi, ACM TOMS 47(1), 2020)
_KAPPA_1, _KAPPA_2, _N0 = 0.02, 2.0, 1

# Sharpness witnesses the a -> 1 limit reads, and the rounding of one member's
# radius near a = 1 - 2^-14: a total's few-ulp error over its O(1 - a) slope in r
LIMIT_MEMBERS = 4
_MEMBER_ROUNDING = 1e-12


@dataclass(frozen=True)
class RadiusResult:
    """Computed sharp radius with its bracketing interval.

    status is "constrained" when the bound actually crosses one,
    "unconstrained" when it never does on [0, UPPER_LIMIT] (the radius then
    lies in the bracket (UPPER_LIMIT, 1)), and "no_radius" when the bound
    already exceeds one at r = 0.  ``members`` lists each member of a family
    solve, in the order given: a, radius, iterations.  Every field is a
    float, int, str, None, or a tuple or dict of them, so the fields as they
    stand (``vars(result)``) are the JSON form, as ``dataclasses.asdict``'s
    deep copy is.
    """

    radius: float
    bracket: tuple[float, float]
    tol: float
    iterations: int
    witness: dict | None
    status: str
    diagnostics: tuple[str, ...] = ()
    members: tuple[dict, ...] = ()

    @property
    def constrained(self) -> bool:
        return self.status == "constrained"


def _mobius_zero(x0: float, f0: float, x1: float, f1: float, x2: float, f2: float) -> float:
    """Zero of the Moebius function (a x + b)/(c x + d) through three points,
    by the invariance of the cross-ratio; NaN when the points fix none."""
    try:
        m = f0 * (f1 - f2) * (x1 - x0) / (f2 * (f1 - f0) * (x1 - x2))
        return (x0 - m * x2) / (1.0 - m)
    except ZeroDivisionError:
        return math.nan


def _itp(tol: float):
    """One ITP solve on [0, ``UPPER_LIMIT``] as a generator: it yields each
    probe point, is sent the padded bound there, and returns the
    :class:`RadiusResult`."""
    if not tol >= SMALLEST_TOL:
        raise ValueError(f"tolerance must be at least 2^-1024 (below it the step budget overflows), got {tol}")
    if (f_lo := (yield 0.0) - 1.0) > 0.0:
        return RadiusResult(math.nan, (0.0, 0.0), tol, 0, None, "no_radius")
    if (f_hi := (yield UPPER_LIMIT) - 1.0) <= 0.0:
        return RadiusResult(UPPER_LIMIT, (UPPER_LIMIT, 1.0), 1.0 - UPPER_LIMIT, 1, None, "unconstrained")
    lo, hi = 0.0, UPPER_LIMIT
    # after step j the bracket is at most target * 2^(steps - j - 1) wide;
    # target sits a few ulps under tol to absorb each step's rounding
    steps, target = math.ceil(math.log2(UPPER_LIMIT / tol)) + _N0, tol - 8.0 * math.ulp(UPPER_LIMIT)
    replaced = None  # (x, f) of the bracket end the last step moved away from
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol is below the float spacing at the crossing
            break
        if f_lo == 0.0:  # the crossing is within rounding of lo, where an interpolant
            point = lo + target  # would stay, creeping a few ulps a step
        elif replaced is None:  # two points fix no Moebius function
            point = mid
        else:
            estimate = _mobius_zero(lo, f_lo, hi, f_hi, *replaced)
            if not lo < estimate < hi:  # NaN included
                estimate = mid
            # truncate toward mid by _KAPPA_1/UPPER_LIMIT * width^_KAPPA_2, but by at least a quarter
            # of target (Brent's minimum step, 1973, ch. 4): an exact estimate then lands just past
            # the root, and two of them close the bracket
            shift = max(_KAPPA_1 / UPPER_LIMIT * (hi - lo) ** _KAPPA_2, 0.25 * target)
            point = estimate + math.copysign(shift, mid - estimate) if shift <= abs(mid - estimate) else mid
        # project into the band that keeps the step budget
        band = max(math.ldexp(target, steps - iterations - 1) - 0.5 * (hi - lo), 0.0)
        point = min(max(point, mid - band), mid + band)
        point = point if lo < point < hi else mid  # NaN included
        value = yield point
        if value <= 1.0:
            replaced, lo, f_lo = (lo, f_lo), point, value - 1.0
        else:
            replaced, hi, f_hi = (hi, f_hi), point, value - 1.0
        iterations += 1
    return RadiusResult(lo, (lo, hi), hi - lo, iterations, None, "constrained")


def _solve_together(bound, count: int, tol: float) -> list[RadiusResult]:
    """``count`` ITP solves stepped together: each round calls ``bound`` once on
    their probe points and sends each solve its padded value.  A finished solve
    is fed its final ``lo``, and the value that comes back is dropped."""
    solves = [_itp(tol) for _ in range(count)]
    points = [next(solve) for solve in solves]
    results: list[RadiusResult | None] = [None] * count
    while any(res is None for res in results):
        value = bound(np.array(points))
        value = value.padded() if isinstance(value, FunctionalValue) else value
        for i, padded in enumerate(np.atleast_1d(value).tolist()):
            if results[i] is None:
                try:
                    points[i] = solves[i].send(padded)
                except StopIteration as stop:
                    results[i] = stop.value
                    points[i] = stop.value.bracket[0]
    return results


def bohr_radius_of_function(bound: Callable[[float], FunctionalValue | float], tol: float) -> RadiusResult:
    """Largest r in [0, ``UPPER_LIMIT``] with bound(r) <= 1, found by ITP
    bracketing in at most ceil(log2(UPPER_LIMIT/tol)) + 1 steps, for
    tol >= ``SMALLEST_TOL``; ``bound`` is called with one float radius at a
    time.

    The predicate "bound <= 1" is monotone and decides which end moves, so on
    a plateau where the bound sits exactly at one the search converges to the
    plateau's upper end, matching the supremum semantics of the radius
    definition.
    """
    return _solve_together(lambda r: bound(float(r[0])), 1, tol)[0]


def family_infimum_radius(
    bound: Callable[[np.ndarray], FunctionalValue | np.ndarray],
    a: Sequence[float],
    gamma: float,
    tol: float,
) -> RadiusResult:
    """Minimum per-function radius over the family members at ``a`` and ``gamma``.

    ``bound(r)`` takes a 1-D array of one radius per member, in the order of
    ``a``, and returns their values (a :class:`FunctionalValue` of arrays or
    the padded values), as an evaluator on a ``functionals.SeriesStack``
    does.  The members' ITP solves step together, one call of ``bound`` per
    round; a lone member is the single solve of :func:`bohr_radius_of_function`.
    The witness is the argmin's {"a", "gamma"}.  Among the sharpness witnesses
    (a > gamma) the radius should not rise with a; a rise is reported in
    ``diagnostics``.
    """
    a = [float(x) for x in a]
    if not a:
        raise ValueError("family must be nonempty")

    if len(a) == 1:  # nothing to step together: a single solve, traced as one
        results = [bohr_radius_of_function(lambda r: bound(np.array([r])), tol)]
    else:
        results = _solve_together(bound, len(a), tol)
    for x, res in zip(a, results):
        if res.status == "no_radius":
            return dataclasses.replace(res, witness={"a": x, "gamma": gamma})

    witnesses = sorted((x, res.radius) for x, res in zip(a, results) if x > gamma)
    rises = any(left < right - tol for (_, left), (_, right) in pairwise(witnesses))
    diagnostics = ("per-function radius is not nonincreasing in a",) if rises else ()

    best = min(range(len(a)), key=lambda i: results[i].radius)
    base = results[best]
    return RadiusResult(
        radius=base.radius,
        bracket=(base.radius, base.radius + base.tol),
        tol=tol if base.constrained else base.tol,
        iterations=sum(r.iterations for r in results),
        witness={"a": a[best], "gamma": gamma},
        # a constrained member's radius lies below every unconstrained one's
        status=base.status,
        diagnostics=diagnostics,
        members=tuple(dict(a=x, radius=r.radius, iterations=r.iterations) for x, r in zip(a, results)),
    )


@dataclass(frozen=True)
class Limit:
    """A family's a -> 1 limit radius: ``value``, with ``error`` bounding
    |value - limit|, or None when ``value`` is the grid minimum, which has no
    error estimate; ``notes`` are diagnostics."""

    value: float
    error: float | None
    notes: tuple[str, ...] = ()


def a_to_one_limit(result: RadiusResult, gamma: float) -> Limit:
    """The a -> 1 limit of the family radius in ``result``, from its last
    ``LIMIT_MEMBERS`` constrained sharpness witnesses (a > gamma), along which
    u = 1 - a must halve from one member to the next.

    With r(u) = r* + c1 u + c2 u^2 + O(u^3), the one-step value
    E(u) = 2 r(u/2) - r(u) cancels c1, and T(u) = (4 E(u/2) - E(u))/3 =
    (8 r(u/4) - 6 r(u/2) + r(u))/3 cancels c2.  ``value`` is the last T, and
    ``error`` = |T - previous T| + 5 max(tol, 1e-12): the gap estimates the
    O(u^3) remainder, and each member lies up to tol below its root, plus its
    rounding near a = 1, which the weights (8/3, -2, 1/3) pass on with their
    absolute sum 5.  In the asymptotic regime the gaps between successive E
    shrink about fourfold; a ratio outside [2, 8] is noted.  With fewer
    witnesses ``value`` is the grid minimum ``result.radius``.
    """
    witnesses = sorted((m["a"], m["radius"]) for m in result.members
                       if m["a"] > gamma and m["radius"] < UPPER_LIMIT)[-LIMIT_MEMBERS:]
    if len(witnesses) < LIMIT_MEMBERS:
        return Limit(result.radius, None, (
            f"fewer than {LIMIT_MEMBERS} members are constrained sharpness witnesses (a > gamma): "
            "the radius is the grid minimum, with no limit error",))
    u = [1.0 - a for a, _ in witnesses]
    if any(left != 2.0 * right for left, right in pairwise(u)):
        raise ValueError(f"1 - a must halve from one witness to the next, got {u}")
    r = [radius for _, radius in witnesses]
    one_step = [2.0 * right - left for left, right in pairwise(r)]
    two_step = [(8.0 * r[j] - 6.0 * r[j - 1] + r[j - 2]) / 3.0 for j in (2, 3)]
    error = abs(two_step[1] - two_step[0]) + 5.0 * max(result.tol, _MEMBER_ROUNDING)
    gaps = [right - left for left, right in pairwise(one_step)]
    ratio = gaps[0] / gaps[1] if gaps[1] else math.inf
    notes = () if 2.0 <= ratio <= 8.0 else (
        f"the one-step gaps shrink {ratio:.3g}-fold, not about 4-fold: the grid is not in the "
        "asymptotic regime, so limit_error may understate the error",)
    return Limit(two_step[1], error, notes)
