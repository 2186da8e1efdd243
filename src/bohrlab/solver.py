"""Sharp-radius solvers for monotone majorant-type bounds.

The per-function radius is the largest r at which the (tail-padded) bound
stays at or below one.  All bounds handled here are nondecreasing in r, so
plain bisection on a fixed bracket is both robust and cheap; family sweeps
take a minimum over an explicit witness grid and refine locally around the
argmin.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .functionals import FunctionalValue

__all__ = ["UPPER_LIMIT", "RadiusResult", "bohr_radius_of_function", "family_infimum_radius"]

# Fixed bisection bracket; the bounds lose smoothness as r -> 1, so the
# search never probes past this point.
UPPER_LIMIT = 1.0 - 1e-6


@dataclass(frozen=True)
class RadiusResult:
    """Computed sharp radius with its bracketing interval.

    status is "constrained" when the bound actually crosses one,
    "unconstrained" when it never does on [0, UPPER_LIMIT], and "no_radius"
    when the bound already exceeds one at r = 0.
    """

    radius: float
    bracket: tuple[float, float]
    tol: float
    iterations: int
    witness: Any = None
    status: str = "constrained"
    diagnostics: tuple[str, ...] = ()

    @property
    def constrained(self) -> bool:
        return self.status == "constrained"

    def to_dict(self) -> dict:
        witness = self.witness
        if dataclasses.is_dataclass(witness):
            witness = dataclasses.asdict(witness)
        return {
            "radius": self.radius,
            "bracket": list(self.bracket),
            "tol": self.tol,
            "iterations": self.iterations,
            "witness": witness,
            "status": self.status,
            "diagnostics": list(self.diagnostics),
        }


def _padded(value) -> float:
    if isinstance(value, FunctionalValue):
        return value.padded()
    return float(value)


def bohr_radius_of_function(
    bound: Callable[[float], FunctionalValue | float],
    tol: float = 1e-10,
    upper: float = UPPER_LIMIT,
) -> RadiusResult:
    """Largest r in [0, upper] with bound(r) <= 1, found by bisection.

    The boolean predicate "bound <= 1" is monotone, so on a plateau where the
    bound sits exactly at one the search converges to the plateau's upper
    end, matching the supremum semantics of the radius definition.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if _padded(bound(0.0)) > 1.0:
        return RadiusResult(math.nan, (0.0, 0.0), tol, 0, None, "no_radius")
    if _padded(bound(upper)) <= 1.0:
        return RadiusResult(upper, (upper, upper), tol, 1, None, "unconstrained")
    lo, hi = 0.0, upper
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # tol is below the float spacing at the crossing
            break
        if _padded(bound(mid)) <= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(lo, (lo, hi), hi - lo, iterations, None, "constrained")


def _dyadic_midpoints(family: Sequence[Any], index: int) -> list[Any]:
    """Midpoints (geometric in 1-a) between the argmin and its neighbors."""
    params = family[index]
    if not (dataclasses.is_dataclass(params) and hasattr(params, "a")):
        return []
    extra = []
    for j in (index - 1, index + 1):
        if 0 <= j < len(family):
            other = family[j]
            if not hasattr(other, "a"):
                continue
            a_mid = 1.0 - math.sqrt((1.0 - params.a) * (1.0 - other.a))
            if 0.0 < a_mid < 1.0:
                extra.append(dataclasses.replace(params, a=a_mid))
    return extra


def family_infimum_radius(
    bound_for: Callable[[Any], Callable[[float], FunctionalValue | float]],
    family: Iterable[Any],
    tol: float = 1e-10,
) -> RadiusResult:
    """Minimum per-function radius over a parameter family.

    ``bound_for(params)`` must return the radius-indexed bound of one family
    member.  The witness is the argmin's parameters.  One local refinement
    pass inserts dyadic midpoints around the argmin (for families exposing an
    ``a`` field) and the reported tolerance adds the difference between the
    coarse and refined minima as a grid-limit estimate.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")

    results = [bohr_radius_of_function(bound_for(p), tol) for p in members]
    for params, res in zip(members, results):
        if res.status == "no_radius":
            return dataclasses.replace(res, witness=params)

    diagnostics: list[str] = []
    if all(hasattr(p, "a") for p in members):
        by_a = sorted(zip(members, results), key=lambda pr: pr[0].a)
        radii = [res.radius for _, res in by_a]
        if any(radii[i] < radii[i + 1] - tol for i in range(len(radii) - 1)):
            diagnostics.append("per-function radius is not nonincreasing in a")

    best = min(range(len(members)), key=lambda i: results[i].radius)
    base = results[best]
    witness = members[best]
    radius = base.radius

    for params in _dyadic_midpoints(members, best):
        res = bohr_radius_of_function(bound_for(params), tol)
        if res.status != "no_radius" and res.radius < radius:
            radius = res.radius
            witness = params
    grid_error = abs(base.radius - radius)

    status = "constrained" if any(r.constrained for r in results) else "unconstrained"
    return RadiusResult(
        radius=radius,
        bracket=(radius, radius + base.tol),
        tol=tol + grid_error,
        iterations=sum(r.iterations for r in results),
        witness=witness,
        status=status,
        diagnostics=tuple(diagnostics),
    )
