"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances are pinned here, not configurable.
"""

import time
from functools import lru_cache

import numpy as np

from bohrlab import conjecture, functionals, verify
from bohrlab.extremals import (
    HarmonicExtremalParams,
    MobiusFamilyParams,
    harmonic_extremal,
    mobius_family_coeffs,
    sharpness_a_grid,
)
from bohrlab.functionals import (
    area_refined_total,
    bohr_total,
    dirichlet_area,
    domain_ratio_area_total,
    harmonic_total,
    norm_refined_total,
    sharp_harmonic_radius,
    sharp_majorant_radius,
)
from bohrlab.series import DiskDomain, PowerSeries, numeric_taylor
from bohrlab.solver import family_infimum_radius
from bohrlab.verify import random_blaschke

from oracles import family_member, quadrature_mean_square_derivative, random_decaying_series, stacked_bound

GAMMA_GRID = [round(0.1 * i, 10) for i in range(10)]
A_GRID = [float(a) for a in sharpness_a_grid(14)]
N_RADII = 64


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@lru_cache(maxsize=None)
def _family_series(a: float, gamma: float):
    return mobius_family_coeffs(MobiusFamilyParams(a, gamma))


def _majorant_bound(params):
    p = _family_series(params.a, params.gamma)
    return lambda r: bohr_total(p, r)


def test_criterion_01_classical_bohr_radius():
    t0 = time.perf_counter()
    family = [MobiusFamilyParams(a, 0.0) for a in A_GRID]
    result = family_infimum_radius(stacked_bound(_majorant_bound, family), family, tol=1e-10)
    elapsed = time.perf_counter() - t0
    diff = abs(result.radius - 1.0 / 3.0)
    ok = diff < 1e-3 and elapsed < 5.0
    _report(1, "classical-bohr-radius", ok,
            f"radius={result.radius:.6f} |diff|={diff:.2e} < 1e-3, {elapsed:.2f}s < 5s")


def test_criterion_02_enlarged_disk_radii():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in GAMMA_GRID:
        family = [MobiusFamilyParams(a, gamma) for a in A_GRID]
        result = family_infimum_radius(stacked_bound(_majorant_bound, family), family, tol=1e-10)
        worst = max(worst, abs(result.radius - sharp_majorant_radius(gamma)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _report(2, "enlarged-disk-radii", ok,
            f"worst |diff|={worst:.2e} < 1e-3 over 10 gammas, {elapsed:.2f}s < 30s")


def test_criterion_03_area_refined_admissibility():
    violations = 0
    min_slack = np.inf
    for gamma in GAMMA_GRID:
        radii = np.linspace(0.0, sharp_majorant_radius(gamma), N_RADII)
        for a in A_GRID:
            p = _family_series(a, gamma)
            for r in radii:
                fv = area_refined_total(p, float(r), gamma)
                slack = 1.0 - fv.padded()
                min_slack = min(min_slack, slack)
                if slack < 0.0:
                    violations += 1
    ok = violations == 0
    _report(3, "area-refined-admissibility", ok,
            f"{violations} violations on 10x14x{N_RADII} grid (min slack {min_slack:.2e})")


def test_criterion_04_area_refined_sharpness():
    failed = []
    for gamma in GAMMA_GRID:
        r = sharp_majorant_radius(gamma) + 0.01
        if not any(area_refined_total(_family_series(a, gamma), r, gamma).total > 1.0 for a in A_GRID):
            failed.append(gamma)
    _report(4, "area-refined-sharpness", not failed,
            f"violation witness found at r0+0.01 for every gamma (failed: {failed})")


def test_criterion_05_norm_refined_bound():
    violations = 0
    for gamma in GAMMA_GRID:
        radii = np.linspace(0.0, sharp_majorant_radius(gamma), N_RADII)
        for a in A_GRID:
            p = _family_series(a, gamma)
            for r in radii:
                if norm_refined_total(p, float(r)).padded() > 1.0:
                    violations += 1
    sharp_ok = all(
        any(norm_refined_total(_family_series(a, gamma), sharp_majorant_radius(gamma) + 0.01).total > 1.0
            for a in A_GRID)
        for gamma in GAMMA_GRID
    )
    rng = np.random.default_rng(42)
    sample_ok = True
    for _ in range(200):
        p = numeric_taylor(random_blaschke(rng), 64, rho=0.9)
        if norm_refined_total(p, 1.0 / 3.0).total > 1.0 + 1e-9:
            sample_ok = False
    ok = violations == 0 and sharp_ok and sample_ok
    _report(5, "norm-refined-bound", ok,
            f"{violations} grid violations, sharpness={sharp_ok}, 200 random samples pass={sample_ok}")


def test_criterion_06_ratio_weighted_area_bound():
    worst_identity = 0.0
    violations = 0
    for gamma in GAMMA_GRID:
        lam = DiskDomain(gamma).coefficient_ratio_sup
        threshold = 1.0 / (1.0 + 2.0 * lam)
        worst_identity = max(worst_identity, abs(threshold - sharp_majorant_radius(gamma)))
        radii = np.linspace(0.0, threshold, N_RADII)
        for a in A_GRID:
            p = _family_series(a, gamma)
            for r in radii:
                if domain_ratio_area_total(p, float(r), lam).padded() > 1.0:
                    violations += 1
    ok = worst_identity < 1e-14 and violations == 0
    _report(6, "ratio-weighted-area-bound", ok,
            f"threshold identity worst={worst_identity:.2e} < 1e-14, {violations} grid violations")


def test_criterion_07_harmonic_radii():
    t0 = time.perf_counter()
    worst = 0.0
    corollary_value = None
    for k in (0.0, 0.25, 0.5, 1.0):
        for gamma in GAMMA_GRID:
            family = [HarmonicExtremalParams(a, gamma, k, 1.0) for a in A_GRID]

            def bound_for(params):
                h, g = harmonic_extremal(params)
                return lambda r: harmonic_total(h, g, r)

            result = family_infimum_radius(stacked_bound(bound_for, family), family, tol=1e-10)
            worst = max(worst, abs(result.radius - sharp_harmonic_radius(gamma, k)))
            if k == 1.0 and gamma == 0.0:
                corollary_value = result.radius
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and abs(corollary_value - 0.2) < 1e-3
    _report(7, "harmonic-radii", ok,
            f"worst |diff|={worst:.2e} < 1e-3 over 4 k x 10 gammas; "
            f"k=1 gamma=0 gives {corollary_value:.6f} (~0.2); {elapsed:.1f}s")


def test_criterion_08_inequality_suites():
    reports = [
        verify.check_schwarz_pick(n_samples=200, seed=42),
        verify.check_coefficient_bounds(n_samples=120, seed=42),
        verify.check_ruscheweyh(n_samples=100, seed=42),
        verify.check_dilatation_coefficients(n_samples=100, seed=42),
    ]
    ok = all(r.samples >= 100 and r.worst_slack >= -1e-8 for r in reports)
    detail = "; ".join(f"{r.name}: n={r.samples} slack={r.worst_slack:+.1e}" for r in reports)
    _report(8, "inequality-suites", ok, detail)


def test_criterion_09_closed_form_anchors():
    anchors = (
        verify.area_coupling(0.0) == 0.375
        and verify.weighted_area_slack(0.0) == 3.0
        and verify.weighted_area_slack(1.0) == 0.0
    )
    x = np.linspace(0.0, 1.0, 1000)
    g = np.linspace(0.0, 1.0, 1000, endpoint=False)
    envelope_max = float(np.max(verify.recentred_slack_envelope(x[:, None], g[None, :])))
    g_dense = np.linspace(0.0, 0.999, 1000)
    root_worst = float(np.max(np.abs(verify.norm_radius_criterion((1.0 + g_dense) / (3.0 + g_dense), g_dense))))
    ok = anchors and envelope_max <= 1e-12 and root_worst <= 1e-14
    _report(9, "closed-form-anchors", ok,
            f"anchors exact={anchors}, envelope max={envelope_max:.1e} <= 1e-12 on 1e3x1e3 grid, "
            f"criterion root residual={root_worst:.1e} <= 1e-14")


def test_criterion_10_deficit_identities():
    report = verify.check_family_deficit_identity(n_samples=100, seed=42, tol=1e-10)
    ok = report.passed
    _report(10, "deficit-identities", ok,
            f"max residual={-report.worst_slack:.2e} <= 1e-10 over {report.samples} random triples")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_area = 0.0
    for _ in range(50):
        coeffs = random_decaying_series(rng, int(rng.integers(2, 12)))
        r = float(rng.uniform(0.1, 0.9))
        p = PowerSeries.polynomial(coeffs)
        worst_area = max(worst_area, abs(dirichlet_area(p, r) - quadrature_mean_square_derivative(coeffs, r)))
    params = MobiusFamilyParams(0.5, 0.25)
    numeric = numeric_taylor(lambda z: family_member(params, z), 32, rho=0.9)
    closed = mobius_family_coeffs(params, 32)
    worst_coeff = float(np.max(np.abs(numeric.coeffs - closed.coeffs)))
    ok = worst_area < 1e-8 and worst_coeff < 1e-10
    _report(11, "oracle-equivalence", ok,
            f"area vs quadrature worst={worst_area:.2e} < 1e-8 on 50 polynomials; "
            f"numeric vs closed-form coefficients worst={worst_coeff:.2e} < 1e-10")


def test_criterion_12_constant_explorer():
    floor = 8.0 / 9.0 - 1e-6
    estimates = conjecture.sweep_conjecture([0.0, 0.25, 0.5, 0.75, 0.9])
    floor_ok = all(e.k_hat >= floor for e in estimates)
    witness_ok = all(conjecture.witness_violates(e, bump=1e-6) for e in estimates)
    endpoint = estimates[0].k_hat
    ok = floor_ok and witness_ok
    _report(12, "constant-explorer", ok,
            f"floor 8/9-1e-6 holds={floor_ok}, witness validity={witness_ok}; "
            f"gamma=0 endpoint estimate {endpoint:.6f} vs 16/9={16/9:.6f} "
            f"(deviation {abs(endpoint - 16/9):.2e}, reported not asserted)")
