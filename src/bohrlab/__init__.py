"""Numerical laboratory for sharp majorant-series inequalities on enlarged disks.

The package computes, verifies, and sharpness-tests the radius bounds
satisfied by bounded analytic and harmonic mappings whose domain is a disk
that contains the unit disk and touches it internally: truncated series
arithmetic, closed-form extremal families, bound evaluators, ITP
radius solvers, a sampled inequality-check suite, and a grid explorer for
the best admissible area-correction weight.
"""

from .conjecture import ConstantEstimate, estimate_constant, sweep_conjecture
from .extremals import (
    HarmonicExtremalParams,
    MobiusFamilyParams,
    harmonic_extremal,
    mobius_family_coeffs,
    sharpness_a_grid,
)
from .functionals import (
    FunctionalValue,
    SeriesStack,
    area_refined_total,
    bohr_total,
    dirichlet_area,
    domain_ratio_area_total,
    harmonic_total,
    majorant,
    norm_f0,
    norm_refined_total,
    sharp_harmonic_radius,
    sharp_majorant_radius,
)
from .series import (
    DEFAULT_ORDER,
    DiskDomain,
    PowerSeries,
    TailBound,
    differentiate,
    mul,
    numeric_taylor,
    recenter_affine,
)
from .solver import RadiusResult, bohr_radius_of_function, family_infimum_radius
from .verify import CheckReport, run_default_checks

__version__ = "0.1.0"
