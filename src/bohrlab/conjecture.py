"""Grid explorer for the best admissible area-correction weight.

For each gamma the explorer searches the extremal family for the smallest
value of (1 - majorant) / area over admissible radii.  Any weight above that
infimum is violated by the witnessing family member, so the estimate is an
upper bound on the true optimal weight; the proven weight 8/9 is a hard
floor, and a computed value below it indicates a bug, not a discovery.

The search is deterministic: fixed grids, fixed refinement schedule, and an
optional seeded augmentation with random bounded samples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import functionals
from .extremals import MobiusFamilyParams, family_majorant_and_area, mobius_family_coeffs
from .functionals import sharp_majorant_radius
from .series import DEFAULT_ORDER, DiskDomain, _check_gamma, numeric_taylor
from .verify import bounded_on_disk_domain, random_blaschke

__all__ = [
    "ConstantEstimate",
    "estimate_constant",
    "sweep_conjecture",
    "non_monotonic_pairs",
    "write_estimates_csv",
    "witness_violates",
    "window_edges",
]

CSV_HEADER = ["gamma", "K_hat", "a_witness", "r_witness", "refinements"]


@dataclass(frozen=True)
class ConstantEstimate:
    """Estimated supremal admissible area weight at one gamma.

    k_hat is an upper bound on the true optimal weight (witness families can
    only certify violation), and never drops below 8/9 up to roundoff.
    witness_a is NaN when a random augmented sample, rather than a family
    member, attains the minimum.
    """

    gamma: float
    k_hat: float
    witness_a: float
    witness_r: float
    refinements: int
    grid_stats: dict


def _ratio(majorants, areas):
    """(1 - majorant) / area, with degenerate areas masked to inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 - majorants) / areas
    ratio[areas <= 0.0] = np.inf
    return ratio


def _ratio_grid(gamma: float, a_values: np.ndarray, r_values: np.ndarray) -> np.ndarray:
    """(1 - majorant) / area on the (a, r) grid of family members, from the
    family's closed-form geometric sums."""
    return _ratio(*family_majorant_and_area(a_values[:, None], gamma, r_values))


def estimate_constant(
    gamma: float,
    a_bounds: tuple[float, float] = (0.05, 0.99),
    r_min: float = 1e-3,
    grid: int = 64,
    refinements: int = 3,
    augment_samples: int = 0,
    seed: int = 42,
    augment_order: int = 192,
) -> ConstantEstimate:
    """Two-level grid search: a coarse (a, r) grid, then local refinements
    shrinking the window by a factor of four around the running argmin.

    Radii start at r_min > 0 so the degenerate zero-area corner never enters
    the infimum.  The default a grid stops at 0.99: that keeps the witness's
    area term large enough for the violation margin of k_hat + 1e-6 to stand
    clear of roundoff, while still probing the extremal corner.
    """
    _check_gamma(gamma)
    r_max = sharp_majorant_radius(gamma)
    a_lo, a_hi = a_bounds
    r_lo, r_hi = r_min, r_max
    if not 0.0 < a_lo < a_hi < 1.0 or not 0.0 < r_lo < r_hi:
        raise ValueError("degenerate search window")

    best = np.inf
    best_a = best_r = np.nan
    levels = []
    win_a, win_r = a_hi - a_lo, r_hi - r_lo
    lo_a, lo_r = a_lo, r_lo
    for level in range(refinements + 1):
        a_vals = np.linspace(lo_a, lo_a + win_a, grid)
        r_vals = np.linspace(lo_r, lo_r + win_r, grid)
        ratio = _ratio_grid(gamma, a_vals, r_vals)
        i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
        if ratio[i, j] < best:
            best = float(ratio[i, j])
            best_a, best_r = float(a_vals[i]), float(r_vals[j])
        levels.append(
            {
                "level": level,
                "min": float(ratio[i, j]),
                "a_window": [float(a_vals[0]), float(a_vals[-1])],
                "r_window": [float(r_vals[0]), float(r_vals[-1])],
            }
        )
        win_a, win_r = win_a / 4.0, win_r / 4.0
        lo_a = min(max(best_a - win_a / 2.0, a_bounds[0]), a_bounds[1] - win_a)
        lo_r = min(max(best_r - win_r / 2.0, r_min), r_max - win_r)

    stats: dict = {"levels": levels, "a_bounds": list(a_bounds), "r_min": r_min, "grid": grid}
    if augment_samples > 0:
        rng = np.random.default_rng(seed)
        domain = DiskDomain(gamma)
        r_vals = np.linspace(r_min, r_max, grid)
        aug_min, aug_idx = np.inf, None
        for s in range(augment_samples):
            f = bounded_on_disk_domain(random_blaschke(rng), domain)
            p = numeric_taylor(f, augment_order, rho=0.9)
            ratio = _ratio(
                functionals.majorant(p, r_vals), functionals.dirichlet_area(p, r_vals * (1.0 - gamma))
            )
            j = int(np.argmin(ratio))
            if ratio[j] < aug_min:
                aug_min, aug_idx = float(ratio[j]), s
                aug_r = float(r_vals[j])
        stats["augment"] = {"count": augment_samples, "seed": seed, "min": aug_min, "winner": None}
        if aug_min < best:
            best, best_a, best_r = aug_min, float("nan"), aug_r
            stats["augment"]["winner"] = aug_idx
    return ConstantEstimate(gamma, best, best_a, best_r, refinements, stats)


def witness_violates(estimate: ConstantEstimate, bump: float = 1e-6, order: int = DEFAULT_ORDER) -> bool:
    """True when raising the weight to k_hat + bump makes the stored family
    witness exceed one; only meaningful for family witnesses (finite a)."""
    if not np.isfinite(estimate.witness_a):
        return False
    p = mobius_family_coeffs(MobiusFamilyParams(estimate.witness_a, estimate.gamma), order)
    value = functionals.area_refined_total(
        p, estimate.witness_r, estimate.gamma, weight=estimate.k_hat + bump
    )
    return value.total > 1.0


def window_edges(estimate: ConstantEstimate) -> list[str]:
    """The witness coordinates that lie on an edge of the search window, as
    "a=0.99 on the upper edge of [0.05, 0.99]".

    The a window is ``a_bounds`` and the r window is [r_min, r0], r0 the sharp
    radius.  A witness on an edge marks the window's minimum: the ratio may
    keep falling outside it, so k_hat is no interior optimum there.
    """
    stats = estimate.grid_stats
    windows = (
        ("a", estimate.witness_a, stats["a_bounds"]),
        ("r", estimate.witness_r, (stats["r_min"], sharp_majorant_radius(estimate.gamma))),
    )
    edges = []
    for name, value, (lo, hi) in windows:
        for side, edge in (("lower", lo), ("upper", hi)):
            # far below one step of the finest grid: only the edge point itself
            if abs(value - edge) <= 1e-9 * (hi - lo):
                edges.append(f"{name}={value:g} on the {side} edge of [{lo:g}, {hi:g}]")
    return edges


def sweep_conjecture(gammas: Sequence[float], **kwargs) -> list[ConstantEstimate]:
    """Run :func:`estimate_constant` across a gamma grid, in grid order."""
    return [estimate_constant(float(g), **kwargs) for g in gammas]


def non_monotonic_pairs(estimates: Sequence[ConstantEstimate]) -> list[tuple[float, float]]:
    """Adjacent gamma pairs where the estimate increases.

    The conjectured optimal weight decreases in gamma; the family estimate is
    only an upper bound for it, so these flags are diagnostics, never errors.
    """
    pairs = []
    for left, right in zip(estimates, estimates[1:]):
        if right.k_hat > left.k_hat:
            pairs.append((left.gamma, right.gamma))
    return pairs


def write_estimates_csv(estimates: Sequence[ConstantEstimate], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for e in estimates:
            a = "" if not np.isfinite(e.witness_a) else repr(e.witness_a)
            writer.writerow([repr(e.gamma), repr(e.k_hat), a, repr(e.witness_r), e.refinements])
