"""Inequality check suite: trivial cases, closed-form oracles, and determinism."""

import json

import numpy as np
import pytest

from bohrlab import functionals
from bohrlab.extremals import MobiusFamilyParams, mobius_family_coeffs
from bohrlab.series import DiskDomain, PowerSeries, numeric_taylor
from bohrlab.verify import (
    CheckReport,
    area_coupling,
    bounded_on_disk_domain,
    check_coefficient_bounds,
    check_dilatation_coefficients,
    check_family_deficit_identity,
    check_recentred_consistency,
    check_recentred_slack_certificate,
    check_ruscheweyh,
    check_schwarz_pick,
    family_area_deficit,
    family_harmonic_deficit,
    family_norm_deficit,
    harmonic_radius_cap,
    norm_envelope,
    norm_envelope_coeffs,
    norm_radius_criterion,
    random_blaschke,
    recentred_area_total,
    recentred_slack,
    recentred_slack_envelope,
    reports_to_json,
    run_default_checks,
    shape_reports,
    weighted_area_slack,
)

from bohrlab import verify
from oracles import (
    AnalyticSample,
    automorphism_coeffs,
    blaschke_deriv_reference,
    dilatation_coefficients_reference,
    family_deficit_identity_reference,
    random_decaying_series,
    recentred_slack_certificate_reference,
    ruscheweyh_reference,
    schwarz_pick_reference,
)


def test_blaschke_product_bounded_and_derivative():
    rng = np.random.default_rng(2)
    z = 0.97 * np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(20):
        b = random_blaschke(rng)
        assert np.all(np.abs(b(z)) <= 1.0 + 1e-12)
        h = 1e-7
        for w in (0.2 + 0.1j, -0.4j):
            fd = (b(w + h) - b(w - h)) / (2 * h)
            assert abs(b.deriv(w) - fd) < 1e-6


def test_value_and_deriv_equals_call_and_reference_derivative():
    rng = np.random.default_rng(8)
    z = verify._disk_grid()
    for _ in range(50):
        b = random_blaschke(rng)
        value, deriv = b.value_and_deriv(z)
        assert np.array_equal(value, b(z))
        assert np.array_equal(deriv, blaschke_deriv_reference(b, z))
        assert np.array_equal(b.deriv(z), deriv)
        value0, deriv0 = b.value_and_deriv(0.3 - 0.2j)
        assert value0 == b(0.3 - 0.2j) and deriv0 == blaschke_deriv_reference(b, 0.3 - 0.2j)
        assert np.ndim(value0) == 0 and np.ndim(deriv0) == 0


@pytest.mark.parametrize("seed", [42, 5, 7])
@pytest.mark.parametrize("check, reference, kwargs", [
    (check_schwarz_pick, schwarz_pick_reference, {"n_samples": 200}),
    (check_ruscheweyh, ruscheweyh_reference, {"n_samples": 100}),
    (check_family_deficit_identity, family_deficit_identity_reference, {"n_samples": 40}),
    (check_recentred_slack_certificate, recentred_slack_certificate_reference, {"n_samples": 30}),
    (check_dilatation_coefficients, dilatation_coefficients_reference, {"n_samples": 100}),
    (check_dilatation_coefficients, dilatation_coefficients_reference, {"n_samples": 30, "k": 0.9, "order": 64}),
], ids=["schwarz-pick", "ruscheweyh", "family-deficit-identity", "recentred-slack-certificate",
        "dilatation-coefficients", "dilatation-coefficients-k0.9-order64"])
def test_rewritten_checks_equal_their_per_sample_references(check, reference, kwargs, seed):
    assert check(seed=seed, **kwargs) == reference(seed=seed, **kwargs)


def test_dilatation_samples_equal_the_per_sample_reference(monkeypatch):
    # the k = 0 extremal combos pin the worst slack at exactly 0 unless a sample
    # fails; products scaled by 10 (past the unit disk) make the samples fail, so each
    # report carries its worst sample's slack to the last bit
    blaschke = verify.random_blaschke
    monkeypatch.setattr(verify, "random_blaschke", lambda rng: (lambda f: lambda z: 10.0 * f(z))(blaschke(rng)))
    for seed in (42, 5):
        for n in range(1, 9):
            report = check_dilatation_coefficients(n_samples=n, seed=seed)
            assert report.witness["kind"] == "integrated-dilatation"
            assert report == dilatation_coefficients_reference(n_samples=n, seed=seed)


def test_ruscheweyh_skips_and_counts_non_finite_rows(monkeypatch):
    # the identity, but NaN right of Re z = 0.25, which only the circle about 0.3 reaches
    nan_near = lambda rng: (lambda z: np.where(z.real > 0.25, np.nan, z))
    monkeypatch.setattr(verify, "random_blaschke", nan_near)
    report = check_ruscheweyh(n_samples=3)
    assert report.witness["skipped"] == 3
    assert report.witness["alpha"] != [0.3, 0.0]
    assert report == ruscheweyh_reference(n_samples=3)


def test_schwarz_pick_identity_map_has_zero_slack():
    ident = AnalyticSample(lambda z: np.asarray(z), lambda z: np.ones_like(np.asarray(z, dtype=complex)))
    report = check_schwarz_pick(samples=[ident])
    assert report.passed
    assert abs(report.worst_slack) < 1e-12


def test_schwarz_pick_constant_sample():
    const = AnalyticSample(
        lambda z: np.full_like(np.asarray(z, dtype=complex), 0.3),
        lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
    )
    report = check_schwarz_pick(samples=[const])
    assert report.passed
    assert report.worst_slack > 0.0


def test_schwarz_pick_random_suite():
    report = check_schwarz_pick(n_samples=200, seed=42)
    assert report.passed
    assert report.samples == 200
    assert report.worst_slack >= -1e-10


def test_coefficient_bounds_suite_and_constant():
    report = check_coefficient_bounds(n_samples=120, seed=42)
    assert report.passed and report.worst_slack >= -1e-8
    # constant sample: every higher coefficient vanishes, slack is the bound itself
    gamma = 0.5
    const = lambda w: np.full_like(np.asarray(w, dtype=complex), 0.0)
    p = numeric_taylor(const, 8)
    assert np.all(np.abs(p.coeffs[1:]) < 1e-14)


def test_coefficient_bound_near_extremality():
    # the first family coefficient meets the bound exactly, for every a
    for a in (0.5, 1.0 - 2.0**-12):
        for gamma in (0.0, 0.25, 0.7):
            p = mobius_family_coeffs(MobiusFamilyParams(a, gamma), 8)
            a0 = abs(p.coeffs[0])
            bound = (1.0 - a0**2) / (1.0 + gamma)
            slack = bound - abs(p.coeffs[1])
            assert abs(slack) < 1e-3
            assert slack > -1e-12


def test_ruscheweyh_suite():
    report = check_ruscheweyh(n_samples=100, seed=42)
    assert report.passed and report.worst_slack >= -1e-8
    assert report.witness["skipped"] == 0


def test_ruscheweyh_automorphism_closed_form():
    # at alpha = 0 the bound is 1 - a^2 and the coefficients are known
    a = 0.6
    coeffs = automorphism_coeffs(a, 8)
    bound = 1.0 - a**2
    assert np.all(np.abs(coeffs[1:]) <= bound + 1e-14)
    assert abs(abs(coeffs[1]) - bound) < 1e-14  # equality at n = 1


def test_dilatation_coefficients_suite_and_zero_case():
    report = check_dilatation_coefficients(n_samples=100, seed=42)
    assert report.passed and report.worst_slack >= -1e-8
    # g identically zero: slack equals the k^2-weighted analytic sum
    h = PowerSeries.polynomial([0.5, 0.25])
    lhs = 0.0
    rhs = 0.5**2 * (abs(h.coeffs[0]) ** 2 + abs(h.coeffs[1]) ** 2 * 0.5)
    assert rhs - lhs > 0.0


def test_deficit_identity_frozen_point():
    # evaluated totals vs closed-form deficits at one hand-computed point
    p = mobius_family_coeffs(MobiusFamilyParams(0.5, 0.0))
    total = functionals.area_refined_total(p, 1.0 / 3.0, 0.0).total
    assert abs(total - (1.0 - 0.5 * family_area_deficit(1.0 / 3.0, 0.5, 0.0))) < 1e-12
    total2 = functionals.norm_refined_total(p, 0.25).total
    assert abs(total2 - 0.75) < 1e-12  # frozen: 0.7142857.. + 1.0 * 0.0357142..
    assert abs(family_norm_deficit(0.25, 0.5, 0.0) - 0.5) < 1e-12


def test_deficit_identity_random_suite():
    report = check_family_deficit_identity(n_samples=100, seed=42)
    assert report.passed
    assert -report.worst_slack <= 1e-10


def test_deficit_small_radius_limit():
    # r -> 0: total -> A_0 and 1 - (1-a) * deficit(0) must match it
    a, gamma = 0.6, 0.2
    deficit0 = family_area_deficit(0.0, a, gamma)
    a0 = (a - gamma) / (1.0 - a * gamma)
    assert abs((1.0 - (1.0 - a) * deficit0) - a0) < 1e-15


def test_deficits_negative_past_radius_near_extremal_limit():
    a = 1.0 - 2.0**-14
    for gamma in (0.0, 0.3, 0.6):
        r0 = functionals.sharp_majorant_radius(gamma)
        assert family_area_deficit(r0 + 0.01, a, gamma) < 0.0
        assert family_norm_deficit(r0 + 0.01, a, gamma) < 0.0
        rh = functionals.sharp_harmonic_radius(gamma, 1.0)
        assert family_harmonic_deficit(rh + 0.01, a, gamma, 1.0, 1.0) < 0.0


def test_recentred_consistency_check():
    report = check_recentred_consistency(seed=42)
    assert report.passed


def test_recentred_functional_matches_centered_route():
    gamma = 0.4
    p = mobius_family_coeffs(MobiusFamilyParams(0.7, gamma), 128)
    alpha = PowerSeries(p.coeffs / (1.0 - gamma) ** np.arange(129))
    r = 0.37
    direct = functionals.area_refined_total(p, r, gamma).total
    recentred = recentred_area_total(alpha, r * (1.0 - gamma), gamma).total
    assert abs(direct - recentred) < 1e-12


def test_vector_recentred_area_total_equals_scalar_calls():
    rng = np.random.default_rng(9)
    alpha = PowerSeries(random_decaying_series(rng, 96, 0.8))
    for gamma in (0.0, 0.3, 0.6):
        r = np.linspace(0.05, 0.8 * (1.0 - gamma), 6)
        vector = recentred_area_total(alpha, r, gamma)
        for j, rj in enumerate(r):
            scalar = recentred_area_total(alpha, float(rj), gamma)
            for field in ("total", "majorant", "correction", "tail_error"):
                assert getattr(vector, field)[j] == getattr(scalar, field), field
            assert isinstance(scalar.total, float)


def test_recentred_slack_certificate_suite():
    report = check_recentred_slack_certificate(seed=42)
    assert report.passed


def test_proof_internal_anchor_values():
    assert area_coupling(0.0) == 0.375  # exactly 3/8
    assert weighted_area_slack(0.0) == 3.0
    assert weighted_area_slack(1.0) == 0.0
    assert abs(harmonic_radius_cap(1.0, 0.0, 1.0) - 0.2) < 1e-15


def test_norm_radius_criterion_root_and_signs():
    for gamma in np.linspace(0.0, 0.9, 10):
        r0 = functionals.sharp_majorant_radius(float(gamma))
        assert abs(norm_radius_criterion(r0, float(gamma))) < 1e-14
        assert norm_radius_criterion(r0 - 0.05, float(gamma)) < 0.0
        assert norm_radius_criterion(r0 + 0.05, float(gamma)) > 0.0


def test_norm_envelope_attains_one_at_the_edge():
    A, B, C = norm_envelope_coeffs(0.25, 0.3)
    assert abs(norm_envelope(1.0, A, B, C) - 1.0) < 1e-15


def test_recentred_slack_domain_guard():
    with pytest.raises(ValueError):
        recentred_slack(0.8, 0.5, 0.4)  # r >= 1 - gamma


def test_slack_envelope_nonpositive_at_admissible_weight():
    x = np.linspace(0.0, 1.0, 501)
    g = np.linspace(0.0, 0.999, 501)
    values = recentred_slack_envelope(x[:, None], g[None, :])
    assert np.max(values) <= 1e-12
    # a larger weight breaks nonpositivity somewhere
    assert np.max(recentred_slack_envelope(x, 0.0, weight=1.5)) > 0.0


def test_shape_reports_all_pass():
    for report in shape_reports():
        assert report.passed, report.name


def test_bounded_on_disk_domain_stays_bounded():
    rng = np.random.default_rng(4)
    dom = DiskDomain(0.6)
    f = bounded_on_disk_domain(random_blaschke(rng), dom)
    w = (dom.center + 0.98 * dom.radius * np.exp(2j * np.pi * np.arange(32) / 32))
    assert np.all(np.abs(f(w)) <= 1.0 + 1e-10)


def test_reports_json_round_trip_and_determinism():
    r1 = run_default_checks(seed=42, fast=True)
    r2 = run_default_checks(seed=42, fast=True)
    assert reports_to_json(r1) == reports_to_json(r2)
    parsed = json.loads(reports_to_json(r1))
    assert all(set(item) == {"name", "samples", "worst_slack", "witness", "passed", "tolerance"} for item in parsed)
    assert all(item["passed"] for item in parsed)


def test_check_report_pass_criterion_matches_tolerance():
    report = CheckReport.from_slack("demo", 1, -2e-9, {}, 1e-9)
    assert not report.passed
    report = CheckReport.from_slack("demo", 1, -0.5e-9, {}, 1e-9)
    assert report.passed
