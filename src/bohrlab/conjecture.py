"""Grid explorer for the best admissible area-correction weight.

The optimal weight K_opt(gamma) is bracketed in closed form,
K_cert(gamma) <= K_opt(gamma) <= K*(gamma): K_cert
(:func:`verify.certified_area_weight`) is the largest weight the recentred
slack certificate proves, and K* (:func:`extremals.family_limit_weight`) is
the infimum of (1 - majorant) / area over the extremal family, its corner
limit a -> 1 at the sharp radius.  The explorer evaluates that ratio on one
coarse (a, r) grid of family members: any weight above the grid's minimum
K_hat is violated by the witnessing member, so K_hat is an upper bound on
K_opt that no family member can push below K*.  The proven weight 8/9 is a
hard floor, and a computed value below it indicates a bug, not a discovery.

The grid is fixed; an optional seeded augmentation adds random bounded
samples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import functionals
from .extremals import family_limit_weight, family_majorant_and_area, mobius_family_coeffs
from .functionals import sharp_majorant_radius
from .series import DEFAULT_ORDER, DiskDomain, _check_gamma, numeric_taylor
from .verify import bounded_on_disk_domain, random_blaschke

__all__ = [
    "ConstantEstimate",
    "estimate_constant",
    "non_monotonic_pairs",
    "write_estimates_csv",
    "witness_violates",
    "at_window_corner",
    "check_gammas",
    "MAX_GAMMA",
]

CSV_HEADER = ["gamma", "K_hat", "a_witness", "r_witness", "refinements"]
# The grid's window: a in A_BOUNDS, r in [R_MIN, r0] with r0 the sharp radius.
# R_MIN > 0 keeps the degenerate zero-area corner out of the minimum, and a
# stops at 0.99 so the witness's area term keeps the violation margin of
# k_hat + 1e-6 clear of roundoff.
A_BOUNDS = (0.05, 0.99)
R_MIN = 1e-3
# The largest gamma estimate_constant takes (see check_gammas)
MAX_GAMMA = 0.999
_WITNESS_BUMP = 1e-6  # the weight past K_hat at which witness_violates reads the family witness
# Augmented samples per numeric_taylor, majorant and area call (on the shared
# radius row): a block's 64 rows of 1536 circle samples take about 1.5 MB.
_AUGMENT_BLOCK = 64


@dataclass(frozen=True)
class ConstantEstimate:
    """The minimum K_hat of the family ratio on the grid at one gamma.

    k_hat is an upper bound on the true optimal weight (witness families can
    only certify violation); a family witness has k_hat >= K*(gamma), and
    k_hat never drops below 8/9 up to roundoff.  witness_a is NaN when a
    random augmented sample, rather than a family member, attains the minimum.
    """

    gamma: float
    k_hat: float
    witness_a: float
    witness_r: float
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


def estimate_constant(gamma: float, grid: int, augment_samples: int, seed: int) -> ConstantEstimate:
    """The family ratio's minimum on a grid x grid lattice of the window
    a in ``A_BOUNDS``, r in [``R_MIN``, r0], lowered by any augmented sample's;
    gamma is at most ``MAX_GAMMA``."""
    _check_gamma(gamma)
    check_gammas([gamma])
    r_max = sharp_majorant_radius(gamma)
    a_vals = np.linspace(*A_BOUNDS, grid)
    r_vals = np.linspace(R_MIN, r_max, grid)
    ratio = _ratio_grid(gamma, a_vals, r_vals)
    i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    best, best_a, best_r = float(ratio[i, j]), float(a_vals[i]), float(r_vals[j])
    level = {"level": 0, "min": best, "a_window": list(A_BOUNDS), "r_window": [R_MIN, r_max]}
    stats: dict = {"levels": [level], "grid": grid}
    if augment_samples > 0:
        rng = np.random.default_rng(seed)
        domain = DiskDomain(gamma)
        aug_min, aug_idx = np.inf, None
        r_row, area_row = r_vals[None, :], (r_vals * (1.0 - gamma))[None, :]
        for start in range(0, augment_samples, _AUGMENT_BLOCK):
            block = [bounded_on_disk_domain(random_blaschke(rng), domain)
                     for _ in range(min(_AUGMENT_BLOCK, augment_samples - start))]
            p = numeric_taylor(lambda z: [f(z) for f in block], 192, rho=0.9)
            ratio = _ratio(functionals.majorant(p, r_row), functionals.dirichlet_area(p, area_row))
            # the first minimum in sample order, as a running strict minimum finds it
            i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
            if ratio[i, j] < aug_min:
                aug_min, aug_idx, aug_r = float(ratio[i, j]), start + int(i), float(r_vals[j])
        stats["augment"] = {"count": augment_samples, "seed": seed, "min": aug_min, "winner": None}
        if aug_min < best:
            best, best_a, best_r = aug_min, float("nan"), aug_r
            stats["augment"]["winner"] = aug_idx
    return ConstantEstimate(gamma, best, best_a, best_r, stats)


def check_gammas(gammas: Sequence[float]) -> None:
    """Raise ``ValueError`` when a gamma exceeds ``MAX_GAMMA``.

    Above it a family witness's K_hat nears 1e8 (1.4e7 at 0.999, 1.8e8 at
    0.9996) and the 1e-6 weight bump of :func:`witness_violates` times its
    area falls below one ulp of its total, so the bump cannot show: at
    gamma = 0.9996 a K_hat above K* read as a violation.
    """
    if max(gammas) > MAX_GAMMA:
        bump = np.format_float_scientific(_WITNESS_BUMP, trim="-", exp_digits=1)  # 1e-6, as written
        raise ValueError(f"every gamma must be at most {MAX_GAMMA:g}, got {max(gammas)!r}: past it the witness "
                         f"check's weight bump of {bump} falls below the rounding of the witness's total")


def at_window_corner(estimate: ConstantEstimate) -> bool:
    """True when the witness is the window's corner (a = ``A_BOUNDS[1]``, r = r0),
    where K_hat tends to K* as the window's a reaches 1: the minimum then lies
    on the window's edge, not inside it."""
    return (estimate.witness_a, estimate.witness_r) == (A_BOUNDS[1], sharp_majorant_radius(estimate.gamma))


def witness_violates(estimate: ConstantEstimate) -> bool:
    """True when raising the weight to k_hat + 1e-6 makes the stored family
    witness exceed one; only meaningful for family witnesses (finite a)."""
    if not np.isfinite(estimate.witness_a):
        return False
    p = mobius_family_coeffs(estimate.witness_a, estimate.gamma, DEFAULT_ORDER)
    value = functionals.area_refined_total(
        p, np.array([estimate.witness_r]), estimate.gamma, weight=estimate.k_hat + _WITNESS_BUMP
    )
    return bool(value.total[0] > 1.0)


def non_monotonic_pairs(estimates: Sequence[ConstantEstimate]) -> list[tuple[float, float]]:
    """Adjacent gamma pairs where K_hat falls while K* rises.

    K* rises in gamma and bounds every family witness's K_hat from below, so
    K_hat is expected to rise with it; a fall marks a witness off that trend,
    such as an augmented sample.  The flags are diagnostics, never errors.
    """
    pairs = []
    for left, right in zip(estimates, estimates[1:]):
        if right.k_hat < left.k_hat and family_limit_weight(right.gamma) > family_limit_weight(left.gamma):
            pairs.append((left.gamma, right.gamma))
    return pairs


def write_estimates_csv(estimates: Sequence[ConstantEstimate], path) -> None:
    """One row per estimate; the ``refinements`` column, kept for readers of
    the five-column layout, is always 0: the grid is never refined."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for e in estimates:
            a = "" if not np.isfinite(e.witness_a) else repr(e.witness_a)
            writer.writerow([repr(e.gamma), repr(e.k_hat), a, repr(e.witness_r), 0])
