"""Sharp-radius solvers for monotone majorant-type bounds.

The per-function radius is the largest r at which the (tail-padded) bound
stays at or below one.  All bounds handled here are nondecreasing in r, so
ITP bracketing on a fixed bracket is both robust and cheap (at most one
step more than bisection's worst case); a family's radius is the minimum
over the members it is given.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Any, Callable, Iterable

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


def _padded(value) -> float:
    if isinstance(value, FunctionalValue):
        return value.padded()
    return float(value)


def bohr_radius_of_function(
    bound: Callable[[float], FunctionalValue | float],
    tol: float = 1e-10,
    upper: float = UPPER_LIMIT,
) -> RadiusResult:
    """Largest r in [0, upper] with bound(r) <= 1, found by ITP bracketing
    in at most ceil(log2(upper/tol)) + 1 steps.

    The predicate "bound <= 1" is monotone and decides which end moves, so on
    a plateau where the bound sits exactly at one the search converges to the
    plateau's upper end, matching the supremum semantics of the radius
    definition.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if (f_lo := _padded(bound(0.0)) - 1.0) > 0.0:
        return RadiusResult(math.nan, (0.0, 0.0), tol, 0, None, "no_radius")
    if (f_hi := _padded(bound(upper)) - 1.0) <= 0.0:
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
        value = _padded(bound(point))
        if value <= 1.0:
            lo, f_lo = point, value - 1.0
        else:
            hi, f_hi = point, value - 1.0
        iterations += 1
    return RadiusResult(lo, (lo, hi), hi - lo, iterations, None, "constrained")


def family_infimum_radius(
    bound_for: Callable[[Any], Callable[[float], FunctionalValue | float]],
    family: Iterable[Any],
    tol: float = 1e-10,
) -> RadiusResult:
    """Minimum per-function radius over a parameter family.

    ``bound_for(params)`` must return the radius-indexed bound of one family
    member, whose params carry ``a`` and ``gamma``.  The witness is the
    argmin's parameters.  Among the sharpness witnesses (a > gamma) the
    radius should not rise with a; a rise is reported in ``diagnostics``.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")

    results = [bohr_radius_of_function(bound_for(p), tol) for p in members]
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
