"""Bound evaluators against brute-force summation and quadrature oracles."""

import dataclasses
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bohrlab import functionals

from bohrlab.extremals import MobiusFamilyParams, harmonic_extremal, HarmonicExtremalParams, mobius_family_coeffs
from bohrlab.functionals import (
    FunctionalValue,
    SeriesStack,
    area_refined_total,
    bohr_total,
    dirichlet_area,
    dirichlet_area_tail_bound,
    domain_ratio_area_total,
    harmonic_total,
    majorant,
    majorant_tail_bound,
    norm_f0,
    norm_f0_tail_bound,
    norm_refined_total,
    sharp_harmonic_radius,
    sharp_majorant_radius,
)
from bohrlab.series import DiskDomain, PowerSeries, numeric_taylor
from bohrlab.solver import UPPER_LIMIT
from bohrlab.verify import random_blaschke

from oracles import (
    area_upper_bound,
    brute_force_area,
    brute_force_majorant,
    brute_force_norm,
    quadrature_mean_square_derivative,
    random_decaying_series,
)


def test_majorant_constant():
    p = PowerSeries.constant(-0.4 + 0.3j)
    for r in (0.0, 0.3, 0.9):
        assert abs(majorant(p, r) - 0.5) < 1e-15


def test_majorant_domain_error():
    p = PowerSeries.constant(1.0)
    for r in (1.0, 1.5, -0.1, np.array([0.2, 1.0]), np.array([np.nan]), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            majorant(p, r)


def test_majorant_near_extremal_limit():
    # automorphism family at the classical radius: approaches one from below
    a = 1.0 - 2.0**-10
    p = mobius_family_coeffs(MobiusFamilyParams(a, 0.0))
    total = majorant(p, 1.0 / 3.0)
    assert total < 1.0
    assert 1.0 - total < 1e-2


def test_majorant_brute_force_oracle():
    p = mobius_family_coeffs(MobiusFamilyParams(0.5, 0.0))
    assert abs(majorant(p, 0.25) - brute_force_majorant(0.5, 0.0, 0.25)) < 1e-12


def test_majorant_tail_bound_is_sound():
    # truncate a family series early: stored sum + tail bound must cover the
    # full sum computed at high order
    full = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.1), 4096)
    short = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.1), 24)
    r = 0.6
    assert majorant(full, r) <= majorant(short, r) + majorant_tail_bound(short, r) + 1e-12
    assert majorant_tail_bound(short, r) > 0.0


def test_norm_and_area_tail_bounds_are_sound():
    full = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.1), 4096)
    short = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.1), 24)
    r = 0.6
    assert norm_f0(full, r) <= norm_f0(short, r) + norm_f0_tail_bound(short, r) + 1e-14
    assert dirichlet_area(full, r) <= dirichlet_area(short, r) + dirichlet_area_tail_bound(short, r) + 1e-14
    assert norm_f0_tail_bound(short, r) > 0.0
    assert dirichlet_area_tail_bound(short, r) > 0.0


# A short series keeps every tail bound nonzero; the last case has no tail certificate.
_SHORT = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.3), 24)
_H, _G = harmonic_extremal(HarmonicExtremalParams(0.9, 0.3, k=0.7, lambda_mix=0.5), 24)
_UNCERTIFIED = PowerSeries(_SHORT.coeffs)
_BY_RADIUS = {
    "majorant": lambda r: majorant(_SHORT, r),
    "majorant_tail_bound": lambda r: majorant_tail_bound(_SHORT, r),
    "norm_f0": lambda r: norm_f0(_SHORT, r),
    "norm_f0_tail_bound": lambda r: norm_f0_tail_bound(_SHORT, r),
    "dirichlet_area": lambda r: dirichlet_area(_SHORT, r),
    "dirichlet_area_tail_bound": lambda r: dirichlet_area_tail_bound(_SHORT, r),
    "bohr_total": lambda r: bohr_total(_SHORT, r),
    "area_refined_total": lambda r: area_refined_total(_SHORT, r, 0.3),
    "norm_refined_total": lambda r: norm_refined_total(_SHORT, r),
    "domain_ratio_area_total": lambda r: domain_ratio_area_total(_SHORT, r, 0.7),
    "harmonic_total": lambda r: harmonic_total(_H, _G, r),
    "uncertified_tail_bound": lambda r: dirichlet_area_tail_bound(_UNCERTIFIED, r),
}


@pytest.mark.parametrize("name", list(_BY_RADIUS))
def test_vector_radii_equal_scalar_calls_bit_for_bit(name):
    def fields(value):
        if isinstance(value, FunctionalValue):
            return [value.total, value.majorant, value.correction, value.r, value.tail_error]
        return [value]

    radii = np.linspace(0.0, 0.9, 37)
    vector = fields(_BY_RADIUS[name](radii))
    scalar = [fields(_BY_RADIUS[name](float(r))) for r in radii]
    for i, column in enumerate(vector):
        assert isinstance(column, np.ndarray) and column.shape == radii.shape
        assert all(type(row[i]) is float for row in scalar)
        assert np.array_equal(column, [row[i] for row in scalar])


# Each evaluator on one member's series (a pair (h, g) for the harmonic one).
_EVALUATORS = {
    "bohr_total": lambda p, r, gamma: bohr_total(p, r),
    "area_refined_total": lambda p, r, gamma: area_refined_total(p, r, gamma),
    "norm_refined_total": lambda p, r, gamma: norm_refined_total(p, r),
    "domain_ratio_area_total": lambda p, r, gamma: domain_ratio_area_total(p, r, 1.0 / (1.0 + gamma)),
    "harmonic_total": lambda hg, r, gamma: harmonic_total(*hg, r),
}
_RADII = st.one_of(st.just(0.0), st.floats(0.0, UPPER_LIMIT), st.floats(UPPER_LIMIT - 1e-9, UPPER_LIMIT))


def _member(name, a, gamma, k, order, certified, phase):
    """A family member, its coefficients turned by e^{i phase} (complex, with the
    same moduli), with or without its tail certificate."""
    if name == "harmonic_total":
        pair = harmonic_extremal(HarmonicExtremalParams(a, gamma, k, 1.0), order)
    else:
        pair = (mobius_family_coeffs(MobiusFamilyParams(a, gamma), order),)
    turned = tuple(PowerSeries(s.coeffs * np.exp(1j * phase), s.tail if certified else None) for s in pair)
    return turned if name == "harmonic_total" else turned[0]


@settings(max_examples=80)
@given(
    name=st.sampled_from(sorted(_EVALUATORS)),
    gamma=st.floats(0.0, 0.9),
    k=st.floats(0.0, 1.0),
    order=st.sampled_from([40, 2048]),
    rows=st.lists(
        st.tuples(st.floats(0.01, 1.0 - 2.0**-14), _RADII, st.booleans(), st.sampled_from([0.0, 0.7, 2.0])),
        min_size=1, max_size=6,
    ),
    reverse=st.booleans(),
)
def test_stacked_rows_equal_single_series_calls_bit_for_bit(name, gamma, k, order, rows, reverse):
    # rows: (a, radius, whether the member keeps its tail certificate, phase)
    rows = rows[::-1] if reverse else rows
    members = [_member(name, a, gamma, k, order, certified, phase) for a, _, certified, phase in rows]
    stack = tuple(map(SeriesStack, zip(*members))) if name == "harmonic_total" else SeriesStack(members)
    radii = np.array([row[1] for row in rows])
    fields = ("total", "majorant", "correction", "r", "tail_error")
    stacked = _EVALUATORS[name](stack, radii, gamma)
    for i, member in enumerate(members):
        single = _EVALUATORS[name](member, float(radii[i]), gamma)
        for field in fields:
            assert type(getattr(single, field)) is float
            assert getattr(stacked, field)[i] == getattr(single, field), (field, i)


def test_constant_term_modulus_rounds_as_the_scalar_abs():
    # numpy's vectorised complex abs differs from abs() by an ulp on about a
    # third of inputs; |a_0| keeps abs(), for a series and for each stack row
    consts = np.random.default_rng(3).normal(size=(64, 2)) @ [1.0, 1j]
    gs = [PowerSeries.polynomial([c]) for c in consts]
    zero = PowerSeries.zero()
    stacked = harmonic_total(SeriesStack([zero] * len(gs)), SeriesStack(gs), np.full(len(gs), 0.5))
    for i, (c, g) in enumerate(zip(consts, gs)):
        assert harmonic_total(zero, g, 0.5).total == majorant(g, 0.5) - abs(c) == stacked.total[i]


def test_stack_takes_one_radius_per_member_of_one_order():
    p, q = (mobius_family_coeffs(MobiusFamilyParams(a, 0.2), 64) for a in (0.5, 0.9))
    stack = SeriesStack([p, q])
    for r in (0.3, np.array([0.3]), np.array([0.1, 0.2, 0.3])):
        with pytest.raises(ValueError, match="one radius per member"):
            bohr_total(stack, r)
    with pytest.raises(ValueError, match="one order"):
        SeriesStack([p, mobius_family_coeffs(MobiusFamilyParams(0.5, 0.2), 65)])
    with pytest.raises(ValueError, match="one order"):
        SeriesStack([])


def test_functional_value_serialization():
    p = mobius_family_coeffs(MobiusFamilyParams(0.6, 0.2))
    fv = area_refined_total(p, 0.4, 0.2)
    data = dataclasses.asdict(fv)
    assert set(data) == {"total", "majorant", "correction", "r", "tail_error"}
    assert data["r"] == 0.4


def test_norm_f0_values():
    assert norm_f0(PowerSeries.constant(0.7), 0.5) == 0.0
    assert abs(norm_f0(PowerSeries.polynomial([0.0, 1.0]), 0.5) - 0.25) < 1e-15
    p = mobius_family_coeffs(MobiusFamilyParams(0.5, 0.0))
    assert abs(norm_f0(p, 0.3) - brute_force_norm(0.5, 0.0, 0.3)) < 1e-12


def test_dirichlet_area_identity_map():
    assert abs(dirichlet_area(PowerSeries.polynomial([0.0, 1.0]), 0.5) - 0.25) < 1e-15


def test_dirichlet_area_quadrature_oracle_random_polynomials():
    rng = np.random.default_rng(17)
    for _ in range(50):
        coeffs = random_decaying_series(rng, int(rng.integers(2, 12)))
        r = float(rng.uniform(0.1, 0.9))
        p = PowerSeries.polynomial(coeffs)
        assert abs(dirichlet_area(p, r) - quadrature_mean_square_derivative(coeffs, r)) < 1e-8


def test_dirichlet_area_univalent_family_vs_quadrature():
    p = mobius_family_coeffs(MobiusFamilyParams(0.5, 0.0), 256)
    r = 0.3
    assert abs(dirichlet_area(p, r) - quadrature_mean_square_derivative(p.coeffs, r)) < 1e-8
    assert abs(dirichlet_area(p, r) - brute_force_area(0.5, 0.0, r)) < 1e-12


def test_area_upper_bound_values_and_property():
    assert area_upper_bound(1.0, 0.5) == 0.0
    assert abs(area_upper_bound(0.0, 1.0 / 3.0) - 0.140625) < 1e-15
    with pytest.raises(ValueError):
        area_upper_bound(1.2, 0.5)
    rng = np.random.default_rng(23)
    for _ in range(40):
        f = random_blaschke(rng)
        p = numeric_taylor(f, 96, rho=0.9)
        r = float(rng.uniform(0.05, 0.8))
        assert dirichlet_area(p, r) <= area_upper_bound(abs(p.coeffs[0]), r) + 1e-9


def test_total_equals_majorant_plus_correction():
    p = mobius_family_coeffs(MobiusFamilyParams(0.6, 0.2))
    for fv in (
        bohr_total(p, 0.4),
        area_refined_total(p, 0.4, 0.2),
        norm_refined_total(p, 0.4),
        domain_ratio_area_total(p, 0.4, 1.0 / 1.2),
    ):
        assert fv.total == fv.majorant + fv.correction
        assert fv.tail_error >= 0.0


def test_unimodular_constant_saturates_every_bound():
    c = PowerSeries.constant(np.exp(0.7j))
    for r in (0.1, 0.5, 0.9):
        assert abs(bohr_total(c, r).total - 1.0) < 1e-15
        assert abs(area_refined_total(c, r, 0.3).total - 1.0) < 1e-15
        assert abs(norm_refined_total(c, r).total - 1.0) < 1e-15
        assert abs(domain_ratio_area_total(c, r, 0.5).total - 1.0) < 1e-15


def test_functionals_monotone_in_radius():
    rng = np.random.default_rng(29)
    radii = np.linspace(0.0, 0.85, 24)
    for _ in range(10):
        p = PowerSeries(random_decaying_series(rng, 48))
        h = PowerSeries(random_decaying_series(rng, 48))
        g = PowerSeries(np.concatenate([[0.0], random_decaying_series(rng, 47)]))
        for fn in (
            lambda r: bohr_total(p, r).total,
            lambda r: area_refined_total(p, r, 0.4).total,
            lambda r: norm_refined_total(p, r).total,
            lambda r: domain_ratio_area_total(p, r, 0.8).total,
            lambda r: harmonic_total(h, g, r).total,
        ):
            values = np.array([fn(float(r)) for r in radii])
            assert np.all(np.diff(values) >= -1e-12)


def test_area_refined_admissible_and_sharp_points():
    gamma = 0.5
    p = mobius_family_coeffs(MobiusFamilyParams(0.9, gamma))
    fv = area_refined_total(p, 1.5 / 3.5, gamma)
    assert fv.padded() <= 1.0
    # just past the sharp radius a near-extremal member violates the bound
    p = mobius_family_coeffs(MobiusFamilyParams(1.0 - 2.0**-10, 0.0))
    fv = area_refined_total(p, 1.0 / 3.0 + 0.01, 0.0)
    assert fv.total > 1.0


def test_norm_refined_over_random_bounded_samples():
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = random_blaschke(rng)
        p = numeric_taylor(f, 64, rho=0.9)
        assert norm_refined_total(p, 1.0 / 3.0).total <= 1.0 + 1e-9


def test_norm_refined_sharpness():
    gamma = 0.25
    p = mobius_family_coeffs(MobiusFamilyParams(1.0 - 2.0**-12, gamma))
    r = sharp_majorant_radius(gamma) + 0.01
    assert norm_refined_total(p, r).total > 1.0


def test_domain_ratio_threshold_identity():
    for gamma in np.linspace(0.0, 0.9, 10):
        lam = DiskDomain(float(gamma)).coefficient_ratio_sup
        assert abs(1.0 / (1.0 + 2.0 * lam) - sharp_majorant_radius(float(gamma))) < 1e-15


def test_domain_ratio_bound_on_blaschke_samples():
    rng = np.random.default_rng(37)
    for _ in range(50):
        f = random_blaschke(rng)
        p = numeric_taylor(f, 64, rho=0.9)
        assert domain_ratio_area_total(p, 1.0 / 3.0, 1.0).total <= 1.0 + 1e-9


def test_domain_ratio_agrees_with_area_refined_when_recentering_is_trivial():
    # at gamma = 0 both area corrections act on the same disk, so equal
    # weights give equal totals
    rng = np.random.default_rng(41)
    p = PowerSeries(random_decaying_series(rng, 64))
    for lam in (0.5, 1.0, 2.0):
        weight = 2.0 * ((1.0 + lam) / (1.0 + 2.0 * lam)) ** 2
        for r in (0.1, 0.3, 0.45):
            lhs = domain_ratio_area_total(p, r, lam).total
            rhs = area_refined_total(p, r, 0.0, weight=weight).total
            assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ValueError):
        domain_ratio_area_total(p, 0.3, 0.0)


def test_harmonic_total_cases():
    params = HarmonicExtremalParams(0.9, 0.5, k=0.5, lambda_mix=1.0)
    h, g = harmonic_extremal(params)
    r0 = sharp_harmonic_radius(0.5, 0.5)
    assert harmonic_total(h, g, r0).padded() <= 1.0
    # k = 0 reduces to the plain majorant
    h, g = harmonic_extremal(HarmonicExtremalParams(0.7, 0.2, k=0.0))
    assert abs(harmonic_total(h, g, 0.4).total - bohr_total(h, 0.4).total) < 1e-15
    # sharpness just past the harmonic radius
    h, g = harmonic_extremal(HarmonicExtremalParams(1.0 - 2.0**-12, 0.0, k=1.0, lambda_mix=1.0))
    assert harmonic_total(h, g, 0.2 + 0.01).total > 1.0


def test_sharp_radius_helpers():
    assert abs(sharp_majorant_radius(0.0) - 1.0 / 3.0) < 1e-15
    assert abs(sharp_majorant_radius(0.5) - 3.0 / 7.0) < 1e-15
    assert abs(sharp_harmonic_radius(0.0, 1.0) - 0.2) < 1e-15
    with pytest.raises(ValueError):
        sharp_majorant_radius(1.0)
    with pytest.raises(ValueError):
        sharp_harmonic_radius(0.5, 2.0)


# Each sum stops where its stored remainder is certified negligible and adds
# that remainder's bound to its tail bound.  Rounding allowance: relative,
# for the coefficients' and the dot product's roundoff (2 eps seen).
_EPS = np.finfo(float).eps
_ROUNDING = 8 * _EPS
_SUMS = (
    (majorant, majorant_tail_bound),
    (norm_f0, norm_f0_tail_bound),
    (dirichlet_area, dirichlet_area_tail_bound),
)


def _assert_cut_is_sound(p, r, exact):
    """``exact`` holds the 50-digit value of each full series at r."""
    # the certificate's closed form is not rounded up, and it amplifies the
    # rounding of x = q r by its exponent N + 1 and by 1 / (1 - x)
    amplify = 0.0 if p.tail is None else 2.0 * (p.order + 1 + 1.0 / (1.0 - p.tail.q * r))
    for (value_fn, tail_fn), full_series in zip(_SUMS, exact):
        value, tail = value_fn(p, r), tail_fn(p, r)
        slack = _ROUNDING * float(full_series) + amplify * _EPS * tail + np.finfo(float).tiny
        assert value <= full_series + slack
        assert value + tail >= full_series - slack
        # the same kernel with no cut sums every stored term
        with mock.patch.object(functionals, "_CUT", 0.0):
            full, full_tail = value_fn(p, r), tail_fn(p, r)
        assert abs(value - full) <= tail + 1e-15
        assert full_tail <= tail <= full_tail + 2.0**-60


@settings(max_examples=60)
@given(
    a=st.floats(0.01, 0.9999),
    gamma=st.floats(0.0, 0.95),
    order=st.sampled_from([24, 256, 2048]),
    r=st.floats(0.0, 0.999),
)
def test_cut_sums_are_sound_on_the_family(a, gamma, order, r):
    params = MobiusFamilyParams(a, gamma)
    p = mobius_family_coeffs(params, order)
    with mpmath.workdps(50):
        q, scale = mpmath.mpf(params.decay_ratio), mpmath.mpf(params.coefficient_scale)
        # the squared sums run over the float r * r the evaluators use
        x, y = q * r, q * q * mpmath.mpf(r * r)
        exact = (
            abs(mpmath.mpf(params.constant_term)) + scale * x / (1 - x),
            scale**2 * y / (1 - y),
            scale**2 * y / (1 - y) ** 2,
        )
    _assert_cut_is_sound(p, r, exact)


def _spike(n):
    """z^n with no tail certificate: past a cut below n, its whole mass is skipped."""
    coeffs = np.zeros(2 * n + 1)
    coeffs[n] = 1.0
    return PowerSeries(coeffs)


_UNCERTIFIED_SERIES = {
    "numeric_taylor": numeric_taylor(random_blaschke(np.random.default_rng(5)), 128, rho=0.9),
    "spike_32": _spike(32),
    "spike_64": _spike(64),
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(_UNCERTIFIED_SERIES)), r=st.floats(0.0, 0.999))
def test_cut_sums_are_sound_without_a_certificate(name, r):
    p = _UNCERTIFIED_SERIES[name]
    assert p.tail is None
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(c)) for c in np.abs(p.coeffs)]
        x = mpmath.mpf(r * r)
        exact = (
            mpmath.fsum(c * mpmath.mpf(r) ** n for n, c in enumerate(w)),
            mpmath.fsum(c**2 * x**n for n, c in enumerate(w) if n),
            mpmath.fsum(n * c**2 * x**n for n, c in enumerate(w) if n),
        )
    _assert_cut_is_sound(p, r, exact)


def test_cut_lengths_per_radius_keep_vector_calls_bit_for_bit():
    # radii up to 0.999 stop at every length from 32 to the full 2049
    p = mobius_family_coeffs(MobiusFamilyParams(0.99, 0.2))
    radii = np.linspace(0.0, 0.999, 101)
    for fn in (fn for pair in _SUMS for fn in pair):
        assert np.array_equal(fn(p, radii), [fn(p, float(r)) for r in radii])


def test_integer_radius_sums_in_floating_point():
    p = mobius_family_coeffs(MobiusFamilyParams(0.9, 0.5))
    assert majorant(p, 0) == majorant(p, 0.0) == abs(p.coeffs[0])


def test_spike_past_the_cut_lands_in_the_tail_bound():
    # at r = 0.27, r^32 is below 2^-60: the sum stops before a_32 and the
    # tail bound carries all of it
    p = _spike(32)
    assert majorant(p, 0.27) == 0.0
    assert majorant_tail_bound(p, 0.27) >= 0.27**32


def _family_sums_50_digits(params, r):
    """50-digit majorant, norm and area of the whole family member at r; the
    squared sums run over the float r * r the evaluators use."""
    with mpmath.workdps(50):
        q, scale = mpmath.mpf(params.decay_ratio), mpmath.mpf(params.coefficient_scale)
        x, y = q * r, q * q * mpmath.mpf(r * r)
        return (
            abs(mpmath.mpf(params.constant_term)) + scale * x / (1 - x),
            scale**2 * y / (1 - y),
            scale**2 * y / (1 - y) ** 2,
        )


def _assert_value_plus_tail_covers(p, r, exact):
    for (value_fn, tail_fn), full_series in zip(_SUMS, exact):
        assert value_fn(p, r) + tail_fn(p, r) >= full_series - _ROUNDING * abs(full_series)


def test_certificate_tail_is_rounded_up_at_q_r_near_one():
    # unrounded, area + tail fell 764 eps short here and norm + tail 382 eps
    params = MobiusFamilyParams(0.9999, 0.0)
    _assert_value_plus_tail_covers(mobius_family_coeffs(params, 24), 0.999, _family_sums_50_digits(params, 0.999))


@settings(max_examples=60)
@given(
    a=st.floats(0.999, 0.99999),
    gamma=st.floats(0.0, 0.9),
    order=st.sampled_from([24, 256, 2048]),
    qr=st.floats(0.99, 0.999),
)
def test_certificate_tail_covers_the_series_for_q_r_near_one(a, gamma, order, qr):
    params = MobiusFamilyParams(a, gamma)
    r = qr / params.decay_ratio
    assume(r < 1.0)
    p = mobius_family_coeffs(params, order)
    _assert_value_plus_tail_covers(p, r, _family_sums_50_digits(params, r))
