"""Constant explorer: admissibility floor, witness validity, determinism,
and the closed-form bracket K_cert <= K_opt <= K* of the optimal weight."""

import dataclasses
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bohrlab import conjecture, functionals
from bohrlab.conjecture import (
    MAX_GAMMA,
    _ratio_grid,
    check_gammas,
    estimate_constant,
    non_monotonic_pairs,
    witness_violates,
    write_estimates_csv,
)
from bohrlab.extremals import family_area_deficit, family_limit_weight
from bohrlab.verify import area_coupling, certified_area_weight, recentred_slack_envelope

from oracles import estimate_constant_reference, member, ratio_grid_reference

FLOOR = 8.0 / 9.0 - 1e-6


def test_single_gamma_estimate():
    est = estimate_constant(0.0, 64, 0, 42)
    assert est.gamma == 0.0
    assert est.k_hat >= FLOOR
    assert 0.0 < est.witness_a < 1.0
    assert 0.0 < est.witness_r <= functionals.sharp_majorant_radius(0.0)
    assert len(est.grid_stats["levels"]) == 1


@pytest.mark.parametrize("gamma", [0.9996, 0.9999, np.nextafter(MAX_GAMMA, 1.0)])
def test_estimate_past_the_gamma_cap_raises(gamma):
    # past the cap the 1e-6 bump of witness_violates is lost in the rounding of
    # the witness's total: at 0.9996 K_hat = 1.8e8 lies above K* = 2.5e7, yet
    # the witness read as no violation
    with pytest.raises(ValueError, match="at most 0.999"):
        estimate_constant(gamma, 64, 0, 42)
    with pytest.raises(ValueError) as raised:
        check_gammas([0.0, gamma, 0.5])
    assert str(raised.value) == (f"every gamma must be at most 0.999, got {gamma!r}: past it the witness check's "
                                 "weight bump of 1e-6 falls below the rounding of the witness's total")
    check_gammas([0.0, MAX_GAMMA])


def test_estimate_at_the_gamma_cap_is_a_violating_family_witness():
    est = estimate_constant(MAX_GAMMA, 64, 0, 42)
    assert witness_violates(est) and est.k_hat >= family_limit_weight(MAX_GAMMA)


def test_gamma_zero_bracket_runs_from_eight_ninths_to_sixteen_ninths():
    # K_cert(0) is the paper's weight and K*(0) the sharp unit-disk weight
    # of Kayumov and Ponnusamy; the grid's corner lies just above K*
    ulp = np.spacing(1.0)
    assert abs(family_limit_weight(0.0) - 16.0 / 9.0) <= 2 * ulp
    assert abs(certified_area_weight(0.0) - 8.0 / 9.0) <= ulp
    est = estimate_constant(0.0, 64, 0, 42)
    assert 16.0 / 9.0 < est.k_hat < 1.02 * 16.0 / 9.0


def test_sweep_floor_and_witness_validity():
    estimates = [estimate_constant(gamma, 64, 0, 42) for gamma in (0.0, 0.25, 0.5, 0.75)]
    assert len(estimates) == 4
    for est in estimates:
        assert est.k_hat >= FLOOR
        assert witness_violates(est)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9, MAX_GAMMA])
@pytest.mark.parametrize("bump", [1e-6, -1e-6])
def test_witness_violates_reads_the_scalar_total_of_its_member(gamma, bump):
    # the one-row stack at the witness radius against the member's own series at that float:
    # the member exceeds one just above k_hat, as witness_violates reads it at its fixed bump, and not below
    est = estimate_constant(gamma, 64, 0, 42)
    value = functionals.area_refined_total(member(est.witness_a, gamma), np.array([est.witness_r]), gamma,
                                           weight=est.k_hat + bump)
    assert (value.total[0] > 1.0) == (bump > 0.0)
    if bump == conjecture._WITNESS_BUMP:
        assert witness_violates(est) == (value.total[0] > 1.0)


def test_high_gamma_probe():
    est = estimate_constant(0.99, 32, 0, 42)
    assert est.k_hat >= family_limit_weight(0.99)


def test_determinism_bit_identical_csv(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_estimates_csv([estimate_constant(gamma, 32, 0, 42) for gamma in (0.0, 0.5)], f1)
    write_estimates_csv([estimate_constant(gamma, 32, 0, 42) for gamma in (0.0, 0.5)], f2)
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header == "gamma,K_hat,a_witness,r_witness,refinements"


def test_augmentation_only_lowers_the_estimate():
    base = estimate_constant(0.25, 32, 0, 42)
    aug = estimate_constant(0.25, 32, 8, 42)
    assert aug.k_hat <= base.k_hat + 1e-15
    assert aug.k_hat >= FLOOR
    assert aug.grid_stats["augment"]["count"] == 8


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("masked", [False, True])
def test_augmentation_blocks_equal_the_per_sample_reference(samples, masked):
    # each block of samples is expanded and summed in one call; its first
    # minimum in sample order is the running strict minimum of the samples
    # taken one at a time.  With the family grid masked to inf, an augmented
    # sample is the witness and grid_stats names its index
    grid = np.full((16, 16), np.inf) if masked else None
    with mock.patch.object(conjecture, "_ratio_grid", (lambda gamma, a, r: grid) if masked else _ratio_grid):
        for gamma, seed in ((0.0, 3), (0.5, 11), (0.9, 42)):
            est = estimate_constant(gamma, 16, samples, seed)
            ref = estimate_constant_reference(gamma, grid=16, augment_samples=samples, seed=seed)
            assert est.k_hat == ref.k_hat and est.witness_r == ref.witness_r
            assert est.witness_a == ref.witness_a or np.isnan(est.witness_a) and np.isnan(ref.witness_a)
            assert est.grid_stats["augment"] == ref.grid_stats["augment"]
            assert (est.grid_stats["augment"]["winner"] is not None) == masked


def test_non_monotonic_pairs_are_diagnostics():
    estimates = [estimate_constant(gamma, 32, 0, 42) for gamma in (0.0, 0.5)]
    pairs = non_monotonic_pairs(estimates)
    assert isinstance(pairs, list)
    # K_hat rises with K*, so nothing is flagged; a K_hat that falls while K* rises is
    assert pairs == []
    assert non_monotonic_pairs([estimates[0], dataclasses.replace(estimates[1], k_hat=1.0)]) == [(0.0, 0.5)]
    # from 0.5 down to 0 both fall: no flag
    assert non_monotonic_pairs(estimates[::-1]) == []


def test_degenerate_single_point_sweep(tmp_path):
    write_estimates_csv([estimate_constant(0.0, 32, 0, 42)], tmp_path / "one.csv")
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 2  # the header and one row


def test_ratio_grid_matches_the_series_evaluator():
    # the closed-form geometric sums against the order-2048 series; a < gamma
    # gives a negative constant term A_0
    for gamma in (0.0, 0.4, 0.8):
        a_values = np.array([0.05, 0.3, 0.6, 0.9, 0.99])
        r_values = np.linspace(1e-3, functionals.sharp_majorant_radius(gamma), 16)
        grid = _ratio_grid(gamma, a_values, r_values)
        for i, a in enumerate(a_values):
            p = member(float(a), gamma)
            fv = functionals.area_refined_total(p, r_values[None, :], gamma, weight=1.0)
            series = (1.0 - fv.majorant[0]) / fv.correction[0]
            # 1 - majorant cancels near the sharp radius, which puts about
            # eps / area of absolute rounding error into the series side
            slack = 1e-12 * series + 4.0 * np.finfo(float).eps / fv.correction[0]
            assert np.all(np.abs(grid[i] - series) <= slack)


@settings(max_examples=40)
@given(
    gamma=st.floats(0.0, 0.95),
    a_window=st.tuples(st.floats(1e-3, 0.999), st.floats(1e-3, 0.999)),
    grid=st.integers(2, 64),
)
# this a grid holds 0.2239869934967484, whose float ** 2 and array ** 2 round apart
@example(gamma=0.3, a_window=(0.05, 0.99), grid=2000)
def test_ratio_grid_equals_the_per_member_reference_bit_for_bit(gamma, a_window, grid):
    a_values = np.linspace(*sorted(a_window), grid)
    r_values = np.linspace(1e-3, functionals.sharp_majorant_radius(gamma), grid)
    assert np.array_equal(_ratio_grid(gamma, a_values, r_values), ratio_grid_reference(gamma, a_values, r_values))


_G = sp.Symbol("gamma", nonnegative=True)


def _family_limit_weight_sympy(g=_G):
    return ((4 + g - g**2) * (2 + g + g**2) / (2 * (1 - g) * (3 + g))) ** 2


def _family_ratio(a, g, r):
    """(1 - majorant) / area of the member at (a, g) for a > g, from its
    constants (A_0, q, C); sympy or mpmath arithmetic, as the arguments are."""
    den = 1 - a * g
    a0, q, scale = (a - g) / den, a * (1 - g) / den, (1 - a**2) / (a * den)
    x = q * r
    y = (x * (1 - g)) ** 2
    return (1 - a0 - scale * x / (1 - x)) / (scale**2 * y / (1 - y) ** 2)


def test_limit_weight_is_the_family_ratio_at_the_corner_and_rises_in_gamma():
    u = sp.Symbol("u", positive=True)
    ratio = sp.cancel(sp.together(_family_ratio(1 - u, _G, (1 + _G) / (3 + _G))))
    assert sp.simplify(ratio.subs(u, 0) - _family_limit_weight_sympy()) == 0
    # K* is the square of a positive root whose derivative is P / (2 (1-g)^2 (3+g)^2),
    # with P positive at 0 and no root in [0, 1]
    root = (4 + _G - _G**2) * (2 + _G + _G**2) / (2 * (1 - _G) * (3 + _G))
    num, den = sp.fraction(sp.together(sp.diff(root, _G)))
    assert sp.expand(den - 2 * ((1 - _G) * (3 + _G)) ** 2) == 0
    poly = sp.Poly(sp.expand(num), _G)
    assert poly.eval(0) > 0 and poly.count_roots(0, 1) == 0
    assert root.subs(_G, 0) > 0
    # the float function against the exact value at its float argument
    for g in (0.25, 0.5, 0.75, 0.99):
        exact = _family_limit_weight_sympy(sp.Rational(g))
        assert abs(family_limit_weight(g) - exact) <= 8 * np.spacing(float(exact)), g


def test_slack_envelope_is_nonpositive_exactly_up_to_the_certified_weight():
    x, w, coupling = sp.symbols("x w A", positive=True)
    envelope = 1 + 2 * w * coupling**2 * (1 - x**2) - 2 / (1 + x)
    k_cert = 1 / (8 * coupling**2)
    # at K_cert the envelope is -(1-x)^2 (3+x) / (4 (1+x)) <= 0, and it rises
    # with the weight at rate 2 A^2 (1 - x^2) >= 0: nonpositive for w <= K_cert
    assert sp.simplify(envelope.subs(w, k_cert) + (1 - x) ** 2 * (3 + x) / (4 * (1 + x))) == 0
    assert sp.simplify(sp.diff(envelope, w) - 2 * coupling**2 * (1 - x**2)) == 0
    # it vanishes at x = 1 with slope 1/2 - 4 w A^2, negative past K_cert: positive just below 1
    assert envelope.subs(x, 1) == 0
    assert sp.simplify(sp.diff(envelope, x).subs(x, 1) - (sp.Rational(1, 2) - 4 * w * coupling**2)) == 0
    # the float functions follow: 8/9 at gamma = 0, and the envelope's sign flips at K_cert
    g = sp.Rational(0)
    a_exact = (3 + g) * (1 - g**2) / ((3 + g) ** 2 - (1 - g**2) ** 2)
    assert 1 / (8 * a_exact**2) == sp.Rational(8, 9)
    xs = np.linspace(0.0, 1.0, 2001)
    for gamma in (0.0, 0.3, 0.75, 0.95):
        weight = certified_area_weight(gamma)
        assert weight == 1.0 / (8.0 * area_coupling(gamma) ** 2)
        assert np.max(recentred_slack_envelope(xs, gamma, weight)) <= 1e-15
        assert np.max(recentred_slack_envelope(xs, gamma, weight * (1.0 + 1e-3))) > 0.0


def test_limit_weight_against_the_family_ratio_at_fifty_digits():
    # the ratio converges to K* linearly in 1 - a; 1 - majorant is O((1-a)^2),
    # so at 1 - a = 1e-20 about ten of the fifty digits survive its cancellation
    with mpmath.workdps(50):
        for g in ("0", "0.25", "0.5", "0.75", "0.9", "0.99"):
            gm = mpmath.mpf(g)
            ratio = _family_ratio(1 - mpmath.mpf("1e-20"), gm, (1 + gm) / (3 + gm))
            assert abs(ratio / _family_limit_weight_sympy(gm) - 1) < 1e-8, g
            # the float function against the exact value at its float argument
            exact = _family_limit_weight_sympy(mpmath.mpf(float(g)))
            assert abs(family_limit_weight(float(g)) / exact - 1) < 8 * np.finfo(float).eps, g


@settings(max_examples=60)
@given(gamma=st.floats(0.0, 0.99), grid=st.integers(2, 64))
def test_family_grid_stays_above_the_limit_weight(gamma, grid):
    est = estimate_constant(gamma, grid, 0, 42)
    assert est.k_hat >= family_limit_weight(gamma)
    assert certified_area_weight(gamma) <= family_limit_weight(gamma)


@settings(max_examples=200)
@given(gamma=st.floats(0.0, 0.99, exclude_max=True), u=st.floats(0.0, 1.0, exclude_min=True),
       t=st.floats(0.0, 1.0))
@example(gamma=0.0, u=1.0, t=1.0)  # the corner a -> 1, r = r0, where the deficit tends to 0+
@example(gamma=0.99 - 2.0**-40, u=1.0, t=1.0)
def test_family_totals_at_the_certified_weight_stay_at_most_one_up_to_the_sharp_radius(gamma, u, t):
    # the area-refined total at weight K_cert(gamma) is 1 - (1 - a) * deficit,
    # so total <= 1 is deficit >= 0: written on the deficit, which does not
    # cancel near a = 1, and asserted with no allowance
    a = min(gamma + u * (1.0 - 2.0**-40 - gamma), 1.0 - 2.0**-40)
    assume(a > gamma)
    r = t * functionals.sharp_majorant_radius(gamma)
    assert family_area_deficit(r, a, gamma, certified_area_weight(gamma)) >= 0.0


def test_family_grid_clears_the_limit_weight_by_one_percent():
    # the margin is smallest at gamma = 0 (1.006%), where the grid's corner a = 0.99 is nearest K*
    gammas = np.linspace(0.0, 0.999, 500)
    margins = [estimate_constant(float(g), 64, 0, 42).k_hat / family_limit_weight(float(g)) - 1.0 for g in gammas]
    assert min(margins) >= 0.01
