"""Inequality check suite: trivial cases, closed-form oracles, and determinism."""

import functools
import json
import tracemalloc

import numpy as np
import pytest

from bohrlab import functionals
from bohrlab.extremals import (
    family_area_deficit,
    family_harmonic_deficit,
    family_norm_deficit,
)
from bohrlab.series import DiskDomain, numeric_taylor
from bohrlab.verify import (
    BlaschkeProduct,
    CheckReport,
    area_coupling,
    bounded_on_disk_domain,
    certified_area_weight,
    check_coefficient_bounds,
    check_dilatation_coefficients,
    check_family_deficit_identity,
    check_recentred_consistency,
    check_recentred_slack_certificate,
    check_ruscheweyh,
    check_schwarz_pick,
    harmonic_radius_cap,
    norm_envelope,
    norm_envelope_coeffs,
    norm_radius_criterion,
    random_blaschke,
    recentred_area_total,
    recentred_slack,
    recentred_slack_envelope,
    reports_to_json,
    shape_reports,
    weighted_area_slack,
)

from bohrlab import verify
from oracles import (
    automorphism_coeffs,
    blaschke_deriv_reference,
    blaschke_samples,
    coefficient_bounds_reference,
    dilatation_coefficients_reference,
    family_deficit_identity_reference,
    from_unit_disk,
    member,
    random_decaying_series,
    recentred_consistency_reference,
    recentred_slack_certificate_reference,
    ruscheweyh_one_shot_reference,
    ruscheweyh_reference,
    schwarz_pick_reference,
    series,
    slack_envelope_full_grid_reference,
    stack_of,
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
            assert abs(b.value_and_deriv(w)[1] - fd) < 1e-6


def test_value_and_deriv_equals_call_and_reference_derivative():
    rng = np.random.default_rng(8)
    z = verify._disk_grid()
    for _ in range(50):
        b = random_blaschke(rng)
        value, deriv = b.value_and_deriv(z)
        assert np.array_equal(value, b(z))
        assert np.array_equal(deriv, blaschke_deriv_reference(b, z))
        value0, deriv0 = b.value_and_deriv(0.3 - 0.2j)
        assert value0 == b(0.3 - 0.2j) and deriv0 == blaschke_deriv_reference(b, 0.3 - 0.2j)
        assert np.ndim(value0) == 0 and np.ndim(deriv0) == 0


# The checks that take their products as their first argument
_TAKE_SAMPLES = (check_schwarz_pick, check_coefficient_bounds, check_ruscheweyh, check_dilatation_coefficients,
                 check_recentred_slack_certificate)


def on_stream(check, n_samples, seed, **kwargs):
    """``check`` on the first n_samples products of the seed's stream (dilatation: n_samples pairs)."""
    per_sample = 2 if check is check_dilatation_coefficients else 1
    return check(blaschke_samples(per_sample * n_samples, seed), **kwargs)


@pytest.mark.parametrize("seed", [42, 5, 7])
@pytest.mark.parametrize("check, reference, kwargs", [
    (check_schwarz_pick, schwarz_pick_reference, {"n_samples": 200}),
    (check_ruscheweyh, ruscheweyh_reference, {"n_samples": 100}),
    (check_family_deficit_identity, family_deficit_identity_reference, {"n_samples": 40, "order": 2048, "tol": 1e-10}),
    (check_recentred_slack_certificate, recentred_slack_certificate_reference, {"n_samples": 30}),
    # 7 samples: the gammas (3 or 5) and the centres' blocks do not divide them evenly
    (check_ruscheweyh, ruscheweyh_reference, {"n_samples": 7}),
    (check_recentred_slack_certificate, recentred_slack_certificate_reference, {"n_samples": 7}),
    (check_dilatation_coefficients, dilatation_coefficients_reference, {"n_samples": 100}),
    (check_dilatation_coefficients, dilatation_coefficients_reference, {"n_samples": 30}),
    (check_coefficient_bounds, coefficient_bounds_reference, {"n_samples": 120}),
    (check_coefficient_bounds, coefficient_bounds_reference, {"n_samples": 7}),
    (check_recentred_consistency, recentred_consistency_reference, {}),  # 25 samples at order 128
], ids=["schwarz-pick", "ruscheweyh", "family-deficit-identity", "recentred-slack-certificate",
        "ruscheweyh-7-samples", "recentred-slack-certificate-7-samples", "dilatation-coefficients",
        "dilatation-coefficients-30-samples", "coefficient-bounds", "coefficient-bounds-7-samples",
        "recentred-consistency"])
def test_rewritten_checks_equal_their_per_sample_references(check, reference, kwargs, seed):
    run = functools.partial(on_stream, check) if check in _TAKE_SAMPLES else check
    assert run(seed=seed, **kwargs) == reference(seed=seed, **kwargs)


@pytest.mark.parametrize("seed", [42, 5, 7])
@pytest.mark.parametrize("order", [64, 1024, 2048])
@pytest.mark.parametrize("n_samples", [1, 9, 10, 11, 49, 50, 51, 100])  # around and past one stack of 50
def test_stacked_family_deficit_identity_equals_the_per_sample_reference(n_samples, order, seed):
    kwargs = {"n_samples": n_samples, "seed": seed, "order": order, "tol": 1e-10}
    assert check_family_deficit_identity(**kwargs) == family_deficit_identity_reference(**kwargs)


@pytest.mark.parametrize("seed", range(20))
def test_uniform_rows_equal_the_per_sample_draws(seed):
    # rng.uniform(low, high) is low + (high - low) * next_double, whatever the bounds
    lows = np.array([0.0, 0.05, 0.01, 0.0, -3.5])
    highs = np.array([0.9, 0.995, 0.9, 1.0, 1e-3])
    rows = verify._uniform(np.random.default_rng(seed).random((50, lows.size)), lows, highs)
    rng = np.random.default_rng(seed)
    draws = [[rng.uniform(low, high) for low, high in zip(lows.tolist(), highs.tolist())] for _ in range(50)]
    assert rows.tolist() == draws


# (check, its sample count in default_checks(fast=False), in default_checks(fast=True))
_SAMPLED = {
    "schwarz-pick": (check_schwarz_pick, 200, 80),
    "coefficient-bounds": (check_coefficient_bounds, 120, 48),
    "ruscheweyh-derivatives": (check_ruscheweyh, 100, 40),
    "dilatation-coefficients": (check_dilatation_coefficients, 100, 40),
    "recentred-slack-certificate": (check_recentred_slack_certificate, 30, 12),
}


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("seed", [42, 5, 7])
def test_shared_sample_stream_reports_equal_each_check_alone(seed, fast):
    checks = verify.default_checks(seed, fast)
    # in reverse, so the first check run draws the whole pool
    for name, (check, n, n_fast) in reversed(_SAMPLED.items()):
        assert checks[name]() == on_stream(check, n_fast if fast else n, seed), name
    assert checks["recentred-consistency"]() == check_recentred_consistency(seed=seed)


def test_shared_sample_stream_draws_each_product_once_and_only_as_needed(monkeypatch):
    drawn = []
    blaschke = verify.random_blaschke
    monkeypatch.setattr(verify, "random_blaschke", lambda rng: drawn.append(1) or blaschke(rng))
    checks = verify.default_checks(42, fast=True)
    checks["recentred-slack-certificate"]()
    assert len(drawn) == 12
    checks["coefficient-bounds"]()
    assert len(drawn) == 48
    for name in _SAMPLED:
        checks[name]()
    assert len(drawn) == 80  # the largest prefix: schwarz-pick's 80, dilatation's 40 pairs


def test_dilatation_samples_equal_the_per_sample_reference(monkeypatch):
    # products scaled by 10 (past the unit disk) make the samples fail, so each
    # report carries a negative worst slack to the last bit
    blaschke = verify.random_blaschke
    monkeypatch.setattr(verify, "random_blaschke", lambda rng: (lambda f: lambda z: 10.0 * f(z))(blaschke(rng)))
    for seed in (42, 5):
        for n in range(1, 9):
            report = on_stream(check_dilatation_coefficients, n, seed)
            assert report.witness["kind"] == "integrated-dilatation"
            assert report == dilatation_coefficients_reference(n_samples=n, seed=seed)


def test_dilatation_report_reads_its_random_samples():
    # no closed-form row (whose k = 0 cases had slack exactly 0) joins the fold
    report = on_stream(check_dilatation_coefficients, 100, 42)
    assert report.samples == 100 and report.passed
    assert report.witness == {"sample": 45, "kind": "integrated-dilatation", "k": 0.5, "r": 0.05}
    assert report.worst_slack == pytest.approx(3.1715e-4, rel=1e-4)


def test_ruscheweyh_skips_and_counts_non_finite_rows(monkeypatch):
    # the identity, but NaN right of Re z = 0.25, which only the circle about 0.3 reaches
    nan_near = lambda rng: (lambda z: np.where(z.real > 0.25, np.nan, z))
    monkeypatch.setattr(verify, "random_blaschke", nan_near)
    report = check_ruscheweyh(blaschke_samples(3, 42))
    assert report.witness["skipped"] == 3
    assert report.witness["alpha"] != [0.3, 0.0]
    assert report == ruscheweyh_reference(n_samples=3)


def _nan_right_of(cut):
    """Sample wrapper: NaN right of Re z = cut, which skips the (sample, centre) rows reaching there."""
    return lambda f: (lambda z: np.where(z.real > cut, np.nan, f(z)))


# samples per Ruscheweyh block at the default 5 centres and 64 points per circle
_RUSCHEWEYH_BLOCK = verify._block_rows(5 * 64 * 16)


@pytest.mark.parametrize("seed", [1, 2, 3, 42, 77])
@pytest.mark.parametrize("n_samples", [1, _RUSCHEWEYH_BLOCK - 1, _RUSCHEWEYH_BLOCK, _RUSCHEWEYH_BLOCK + 1,
                                       100, 2 * _RUSCHEWEYH_BLOCK + 3])
def test_blocked_ruscheweyh_equals_the_one_shot_check(seed, n_samples):
    samples = blaschke_samples(n_samples, seed)
    assert check_ruscheweyh(samples) == ruscheweyh_one_shot_reference(samples)
    # rows skipped on both sides of the first block edge, and every row of one sample
    edge = _RUSCHEWEYH_BLOCK
    for i, cut in ((edge - 1, 0.25), (edge, 0.25), (edge + 1, -2.0)):
        if i < n_samples:
            samples[i] = _nan_right_of(cut)(samples[i])
    report = check_ruscheweyh(samples)
    assert report == ruscheweyh_one_shot_reference(samples)
    if n_samples > edge + 1:
        assert report.witness["skipped"] == 2 + 5


def test_ruscheweyh_with_every_row_skipped_reports_no_witness():
    samples = [_nan_right_of(-2.0)(f) for f in blaschke_samples(_RUSCHEWEYH_BLOCK + 2, 4)]
    report = check_ruscheweyh(samples)
    assert report == ruscheweyh_one_shot_reference(samples)
    assert report.witness == {"skipped": 5 * len(samples)} and report.worst_slack == np.inf


def test_blocked_slack_envelope_reports_equal_the_full_grid():
    reports = {r.name: r for r in shape_reports()}
    for reference in slack_envelope_full_grid_reference():
        assert reports[reference.name] == reference


def _traced_peak(fn) -> int:
    fn()  # caches and lazily loaded modules (the FFT's) first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the whole-grid and one-shot versions peak at about 2.6 MB and 1.65 MB
@pytest.mark.parametrize("check", [shape_reports, functools.partial(check_ruscheweyh, blaschke_samples(100, 42))],
                         ids=["shape-reports", "ruscheweyh-100-samples"])
def test_blocked_checks_keep_their_working_set_under_one_megabyte(check):
    assert _traced_peak(check) <= 2**20


def test_schwarz_pick_identity_map_has_zero_slack():
    ident = BlaschkeProduct((0j,), -1)  # -(0 - z) = z
    report = check_schwarz_pick([ident])
    assert report.passed
    assert abs(report.worst_slack) < 1e-12


def test_schwarz_pick_constant_sample():
    const = BlaschkeProduct((), 0.3)
    report = check_schwarz_pick([const])
    assert report.passed
    assert report.worst_slack > 0.0


def test_schwarz_pick_random_suite():
    report = check_schwarz_pick(blaschke_samples(200, 42))
    assert report.passed
    assert report.samples == 200
    assert report.worst_slack >= -1e-10


def test_coefficient_bounds_suite_and_constant():
    report = check_coefficient_bounds(blaschke_samples(120, 42))
    assert report.passed and report.worst_slack >= -1e-8
    # constant sample: every higher coefficient vanishes, slack is the bound itself
    gamma = 0.5
    const = lambda w: np.full_like(np.asarray(w, dtype=complex), 0.0)
    p = numeric_taylor(const, 8, 0.5)
    assert np.all(np.abs(p.coeffs[0, 1:]) < 1e-14)


def test_coefficient_bound_near_extremality():
    # the first family coefficient meets the bound exactly, for every a
    for a in (0.5, 1.0 - 2.0**-12):
        for gamma in (0.0, 0.25, 0.7):
            c = member(a, gamma, 8).coeffs[0]
            a0 = abs(c[0])
            bound = (1.0 - a0**2) / (1.0 + gamma)
            slack = bound - abs(c[1])
            assert abs(slack) < 1e-3
            assert slack > -1e-12


def test_ruscheweyh_suite():
    report = check_ruscheweyh(blaschke_samples(100, 42))
    assert report.passed and report.worst_slack >= -1e-8
    assert report.witness["skipped"] == 0


def test_ruscheweyh_automorphism_closed_form():
    # at alpha = 0 the bound is 1 - a^2 and the coefficients are known
    a = 0.6
    coeffs = automorphism_coeffs(a, 8)
    bound = 1.0 - a**2
    assert np.all(np.abs(coeffs[1:]) <= bound + 1e-14)
    assert abs(abs(coeffs[1]) - bound) < 1e-14  # equality at n = 1


def test_dilatation_coefficients_suite_passes():
    report = on_stream(check_dilatation_coefficients, 100, 42)
    assert report.passed and report.worst_slack >= -1e-8


def test_deficit_identity_frozen_point():
    # evaluated totals vs closed-form deficits at one hand-computed point
    p = member(0.5, 0.0)
    total = functionals.area_refined_total(p, np.array([1.0 / 3.0]), 0.0).total[0]
    assert abs(total - (1.0 - 0.5 * family_area_deficit(1.0 / 3.0, 0.5, 0.0))) < 1e-12
    total2 = functionals.norm_refined_total(p, np.array([0.25])).total[0]
    assert abs(total2 - 0.75) < 1e-12  # frozen: 0.7142857.. + 1.0 * 0.0357142..
    assert abs(family_norm_deficit(0.25, 0.5, 0.0) - 0.5) < 1e-12


def test_deficit_identity_random_suite():
    report = check_family_deficit_identity(n_samples=100, seed=42, order=2048, tol=1e-10)
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
    p = member(0.7, gamma, 128)
    alpha = series(p.coeffs / (1.0 - gamma) ** np.arange(129))
    r = 0.37
    direct = functionals.area_refined_total(p, np.array([r]), gamma).total
    recentred = recentred_area_total(alpha, np.array([r * (1.0 - gamma)]), gamma).total
    assert abs(direct - recentred) < 1e-12


_FIELDS = ("total", "majorant", "correction", "tail_error")


def test_vector_recentred_area_total_equals_scalar_calls():
    # a one-row stack on a radius row equals, entry by entry, its calls at one radius each
    rng = np.random.default_rng(9)
    alpha = series(random_decaying_series(rng, 96, 0.8))
    for gamma in (0.0, 0.3, 0.6):
        r = np.linspace(0.05, 0.8 * (1.0 - gamma), 6)
        vector = recentred_area_total(alpha, r[None, :], gamma)
        for j in range(r.size):
            scalar = recentred_area_total(alpha, r[j : j + 1], gamma)
            for field in _FIELDS:
                assert getattr(vector, field)[0, j] == getattr(scalar, field)[0], field
    # a stack, its rows with and without a tail certificate: row i equals the
    # call on member i alone, on a shared (1, R) row and at one r and gamma each
    members = [series(random_decaying_series(rng, 96, 0.8)) for _ in range(3)]
    members += [member(a, 0.2, 96) for a in (0.4, 0.93)]
    stack = stack_of(members)
    for gamma in (0.0, 0.3, 0.6):
        row = np.linspace(0.05, 0.8 * (1.0 - gamma), 6)
        shared = recentred_area_total(stack, row[None, :], gamma, weight=1.5)
        assert shared.total.shape == (len(members), row.size)
        for i, one in enumerate(members):
            alone = recentred_area_total(one, row[None, :], gamma, weight=1.5)
            for field in _FIELDS:
                assert np.array_equal(getattr(shared, field)[i], getattr(alone, field)[0]), field
    gammas = np.array([0.0, 0.3, 0.6, 0.85, 0.45])
    radii = np.array([0.7, 0.05, 0.3, 0.1, 0.5])
    per_member = recentred_area_total(stack, radii, gammas)
    for i, one in enumerate(members):
        alone = recentred_area_total(one, radii[i : i + 1], float(gammas[i]))
        for field in _FIELDS:
            assert getattr(per_member, field)[i] == getattr(alone, field)[0], field


def test_stacked_recentred_area_total_rejects_bad_radii_and_gammas():
    stack = stack_of([member(a, 0.2, 32) for a in (0.4, 0.9)])
    with pytest.raises(ValueError, match="radius"):
        recentred_area_total(stack, np.array([0.1, 0.2, 0.3]), 0.2)
    with pytest.raises(ValueError, match="gamma"):
        recentred_area_total(stack, np.array([0.1, 0.2]), np.array([0.2, 1.0]))


def test_recentred_slack_certificate_suite():
    report = check_recentred_slack_certificate(blaschke_samples(30, 42))
    assert report.passed


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9])
def test_recentred_slack_certificate_holds_at_the_certified_weight(gamma):
    # K_cert(gamma), the largest weight the recentred slack envelope proves (8/9 at gamma = 0)
    report = recentred_slack_certificate_reference(gammas=(gamma,), seed=42, weight=certified_area_weight(gamma))
    assert report.passed and report.worst_slack > 0.0


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
    w = from_unit_disk(dom, 0.98 * np.exp(2j * np.pi * np.arange(32) / 32))
    assert np.all(np.abs(f(w)) <= 1.0 + 1e-10)


def test_reports_json_round_trip_and_determinism():
    r1 = [check() for check in verify.default_checks(seed=42, fast=True).values()]
    r2 = [check() for check in verify.default_checks(seed=42, fast=True).values()]
    assert reports_to_json(r1) == reports_to_json(r2)
    parsed = json.loads(reports_to_json(r1))
    assert all(set(item) == {"name", "samples", "worst_slack", "witness", "passed", "tolerance"} for item in parsed)
    assert all(item["passed"] for item in parsed)


def test_check_report_pass_criterion_matches_tolerance():
    report = CheckReport.from_slack("demo", 1, -2e-9, {}, 1e-9)
    assert not report.passed
    report = CheckReport.from_slack("demo", 1, -0.5e-9, {}, 1e-9)
    assert report.passed
