"""Bisection radius solver and family sweeps."""

import math

import pytest

from bohrlab.extremals import HarmonicExtremalParams, MobiusFamilyParams, harmonic_extremal, mobius_family_coeffs, sharpness_a_grid
from bohrlab.functionals import bohr_total, harmonic_total, sharp_harmonic_radius
from bohrlab.series import PowerSeries
from bohrlab.solver import UPPER_LIMIT, bohr_radius_of_function, family_infimum_radius


def majorant_bound(params, order=2048):
    p = mobius_family_coeffs(params, order)
    return lambda r: bohr_total(p, r)


def test_unconstrained_small_constant():
    p = PowerSeries.constant(0.5)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT


def test_no_radius_when_already_violated():
    p = PowerSeries.constant(1.2)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "no_radius"
    assert math.isnan(res.radius)


def test_plateau_tie_break_returns_supremum_end():
    # constant exactly one: the bound is identically 1, never above
    p = PowerSeries.constant(1.0)
    res = bohr_radius_of_function(lambda r: bohr_total(p, r))
    assert res.status == "unconstrained"
    assert res.radius == UPPER_LIMIT
    # synthetic plateau that eventually exceeds one: converge to its end
    bound = lambda r: 1.0 if r <= 0.4 else 1.0 + (r - 0.4)
    res = bohr_radius_of_function(bound, tol=1e-10)
    assert abs(res.radius - 0.4) <= 1e-9


def test_near_extremal_member_radius():
    res = bohr_radius_of_function(majorant_bound(MobiusFamilyParams(1.0 - 2.0**-10, 0.0)))
    assert res.status == "constrained"
    assert abs(res.radius - 1.0 / 3.0) < 1e-2

    res = bohr_radius_of_function(majorant_bound(MobiusFamilyParams(1.0 - 2.0**-10, 0.5)))
    assert abs(res.radius - 3.0 / 7.0) < 1e-2


def test_bisection_postconditions_and_iteration_bound():
    tol = 1e-10
    bound_fn = majorant_bound(MobiusFamilyParams(0.9, 0.0))
    res = bohr_radius_of_function(bound_fn, tol=tol)
    lo, hi = res.bracket
    assert lo <= res.radius <= hi
    assert hi - lo <= tol
    assert bound_fn(max(res.radius - tol, 0.0)).padded() <= 1.0
    assert bound_fn(res.radius + tol).padded() > 1.0
    assert res.iterations <= math.ceil(math.log2(1.0 / tol)) + 2


def test_solver_requires_positive_tolerance():
    with pytest.raises(ValueError):
        bohr_radius_of_function(lambda r: r, tol=0.0)


def test_family_classical_radius():
    family = [MobiusFamilyParams(float(a), 0.0) for a in sharpness_a_grid(14)]
    res = family_infimum_radius(majorant_bound, family, tol=1e-10)
    assert abs(res.radius - 1.0 / 3.0) < 1e-3
    assert res.witness.a >= 1.0 - 2.0**-13
    assert res.diagnostics == ()


def test_family_witness_violates_just_past_radius():
    family = [MobiusFamilyParams(float(a), 0.25) for a in sharpness_a_grid(12)]
    res = family_infimum_radius(majorant_bound, family, tol=1e-10)
    bound_fn = majorant_bound(res.witness)
    assert bound_fn(res.radius + 2.0 * res.tol).padded() > 1.0


def test_family_harmonic_corollary_case():
    family = [HarmonicExtremalParams(float(a), 0.25, k=1.0, lambda_mix=1.0) for a in sharpness_a_grid(14)]

    def bound_for(params):
        h, g = harmonic_extremal(params)
        return lambda r: harmonic_total(h, g, r)

    res = family_infimum_radius(bound_for, family, tol=1e-10)
    assert abs(res.radius - 1.25 / 5.25) < 1e-3
    assert abs(res.radius - sharp_harmonic_radius(0.25, 1.0)) < 1e-3


def test_single_element_family_degenerates():
    params = MobiusFamilyParams(0.9, 0.0)
    single = family_infimum_radius(majorant_bound, [params], tol=1e-10)
    alone = bohr_radius_of_function(majorant_bound(params), tol=1e-10)
    assert abs(single.radius - alone.radius) < 1e-12
    assert single.witness == params


def test_family_propagates_no_radius():
    class Big:
        a = 0.5

    def bound_for(params):
        return lambda r: 2.0  # always violated

    res = family_infimum_radius(bound_for, [Big()], tol=1e-6)
    assert res.status == "no_radius"


def test_family_monotonicity_diagnostic():
    # artificial bound whose radius grows with a: flagged, not fatal
    def bound_for(params):
        return lambda r: r / params.a

    family = [MobiusFamilyParams(0.3, 0.0), MobiusFamilyParams(0.6, 0.0)]
    res = family_infimum_radius(bound_for, family, tol=1e-8)
    assert any("nonincreasing" in d for d in res.diagnostics)
    assert abs(res.radius - 0.3) < 1e-6


def test_family_empty_rejected():
    with pytest.raises(ValueError):
        family_infimum_radius(majorant_bound, [])


def test_result_serialization():
    res = bohr_radius_of_function(majorant_bound(MobiusFamilyParams(0.9, 0.0)))
    data = res.to_dict()
    assert set(data) >= {"radius", "bracket", "tol", "iterations", "witness", "status"}
