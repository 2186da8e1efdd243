"""Sharp-radius solvers for monotone majorant-type bounds.

The per-function radius is the largest r at which the (tail-padded) bound
stays at or below one.  All bounds handled here are nondecreasing in r, so
ITP bracketing on a fixed bracket is both robust and cheap (at most one
step more than bisection's worst case); a family's radius is the minimum
over the members it is given.

The ITP loop is a generator that yields probe points and is sent the padded
bound there.  A family solve steps one per member in lockstep: each round is
one call of the family's bound, and each member takes the steps it would
take alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Any, Callable, Iterable

import numpy as np

from .functionals import FunctionalValue

__all__ = ["UPPER_LIMIT", "RadiusResult", "bohr_radius_of_function", "family_infimum_radius"]

# Fixed search bracket; the bounds lose smoothness as r -> 1, so the
# search never probes past this point.
UPPER_LIMIT = 1.0 - 1e-6

# ITP constants (Oliveira and Takahashi, ACM TOMS 47(1), 2020)
_KAPPA_1, _KAPPA_2, _N0 = 0.2, 2.0, 1


@dataclass(frozen=True)
class RadiusResult:
    """Computed sharp radius with its bracketing interval.

    status is "constrained" when the bound actually crosses one,
    "unconstrained" when it never does on [0, UPPER_LIMIT] (the radius then
    lies in the bracket (UPPER_LIMIT, 1)), and "no_radius" when the bound
    already exceeds one at r = 0.  ``members`` lists each member of a family
    solve, in the order given: a, radius, iterations.  ``dataclasses.asdict``
    gives the JSON form.
    """

    radius: float
    bracket: tuple[float, float]
    tol: float
    iterations: int
    witness: Any = None
    status: str = "constrained"
    diagnostics: tuple[str, ...] = ()
    members: tuple[dict, ...] = ()

    @property
    def constrained(self) -> bool:
        return self.status == "constrained"


def _itp(tol: float, upper: float):
    """One ITP solve as a generator: it yields each probe point, is sent the
    padded bound there, and returns the :class:`RadiusResult`."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if (f_lo := (yield 0.0) - 1.0) > 0.0:
        return RadiusResult(math.nan, (0.0, 0.0), tol, 0, None, "no_radius")
    if (f_hi := (yield upper) - 1.0) <= 0.0:
        return RadiusResult(upper, (upper, 1.0), 1.0 - upper, 1, None, "unconstrained")
    lo, hi = 0.0, upper
    # after step j the bracket is at most target * 2^(steps - j - 1) wide;
    # target sits a few ulps under tol to absorb each step's rounding
    steps, target = math.ceil(math.log2(upper / tol)) + _N0, tol - 8.0 * math.ulp(upper)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol is below the float spacing at the crossing
            break
        # interpolate (regula falsi), truncate toward mid by _KAPPA_1/upper *
        # width^_KAPPA_2, project into the band that keeps the step budget
        falsi = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        shift = _KAPPA_1 / upper * (hi - lo) ** _KAPPA_2
        point = falsi + math.copysign(shift, mid - falsi) if shift <= abs(mid - falsi) else mid
        band = max(math.ldexp(target, steps - iterations - 1) - 0.5 * (hi - lo), 0.0)
        point = min(max(point, mid - band), mid + band)
        point = point if lo < point < hi else mid  # NaN included
        value = yield point
        if value <= 1.0:
            lo, f_lo = point, value - 1.0
        else:
            hi, f_hi = point, value - 1.0
        iterations += 1
    return RadiusResult(lo, (lo, hi), hi - lo, iterations, None, "constrained")


def _solve_together(bound, count: int, tol: float, upper: float = UPPER_LIMIT) -> list[RadiusResult]:
    """``count`` ITP solves stepped together: each round calls ``bound`` once on
    their probe points and sends each solve its padded value.  A finished solve
    is fed its final ``lo``, and the value that comes back is dropped."""
    solves = [_itp(tol, upper) for _ in range(count)]
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


def bohr_radius_of_function(
    bound: Callable[[float], FunctionalValue | float],
    tol: float = 1e-10,
    upper: float = UPPER_LIMIT,
) -> RadiusResult:
    """Largest r in [0, upper] with bound(r) <= 1, found by ITP bracketing
    in at most ceil(log2(upper/tol)) + 1 steps; ``bound`` is called with one
    float radius at a time.

    The predicate "bound <= 1" is monotone and decides which end moves, so on
    a plateau where the bound sits exactly at one the search converges to the
    plateau's upper end, matching the supremum semantics of the radius
    definition.
    """
    return _solve_together(lambda r: bound(float(r[0])), 1, tol, upper)[0]


def family_infimum_radius(
    bound: Callable[[np.ndarray], FunctionalValue | np.ndarray],
    family: Iterable[Any],
    tol: float = 1e-10,
) -> RadiusResult:
    """Minimum per-function radius over a parameter family.

    ``bound(r)`` takes a 1-D array of one radius per member, in the order
    given, and returns their values (a :class:`FunctionalValue` of arrays or
    the padded values), as an evaluator on a ``functionals.SeriesStack``
    does.  The members' ITP solves step together, one call of ``bound`` per
    round; a lone member is the single solve of :func:`bohr_radius_of_function`.
    Members carry ``a`` and ``gamma``; the witness is the argmin's parameters.
    Among the sharpness witnesses (a > gamma) the radius should not rise with
    a; a rise is reported in ``diagnostics``.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")

    if len(members) == 1:  # nothing to step together: a single solve, traced as one
        results = [bohr_radius_of_function(lambda r: bound(np.array([r])), tol)]
    else:
        results = _solve_together(bound, len(members), tol)
    for params, res in zip(members, results):
        if res.status == "no_radius":
            return dataclasses.replace(res, witness=params)

    witnesses = sorted((p.a, res.radius) for p, res in zip(members, results) if p.a > p.gamma)
    rises = any(left < right - tol for (_, left), (_, right) in pairwise(witnesses))
    diagnostics = ("per-function radius is not nonincreasing in a",) if rises else ()

    best = min(range(len(members)), key=lambda i: results[i].radius)
    base = results[best]
    return RadiusResult(
        radius=base.radius,
        bracket=(base.radius, base.radius + base.tol),
        tol=tol if base.constrained else base.tol,
        iterations=sum(r.iterations for r in results),
        witness=members[best],
        # a constrained member's radius lies below every unconstrained one's
        status=base.status,
        diagnostics=diagnostics,
        members=tuple(dict(a=p.a, radius=r.radius, iterations=r.iterations)
                      for p, r in zip(members, results)),
    )
