"""Bound evaluators against brute-force summation and quadrature oracles."""

import contextlib
import csv
import dataclasses
import io
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bohrlab import cli, functionals

from bohrlab.extremals import family_constants, harmonic_extremal, mobius_family_coeffs, sharpness_a_grid
from bohrlab.functionals import (
    FunctionalValue,
    area_refined_total,
    bohr_total,
    dirichlet_area,
    domain_ratio_area_total,
    harmonic_total,
    majorant,
    norm_refined_total,
    sharp_harmonic_radius,
    sharp_majorant_radius,
)
from bohrlab.series import DiskDomain, SeriesStack, numeric_taylor
from bohrlab.solver import UPPER_LIMIT
from bohrlab.verify import random_blaschke

from oracles import (
    area_upper_bound,
    brute_force_area,
    brute_force_majorant,
    brute_force_norm,
    check_radius_reference,
    constant,
    harmonic_member,
    member,
    quadrature_mean_square_derivative,
    random_decaying_series,
    series,
    stack_of,
    sum_reference,
    zero,
)


def test_majorant_constant():
    p = constant(-0.4 + 0.3j)
    for r in (0.0, 0.3, 0.9):
        assert abs(majorant(p, np.array([r]))[0] - 0.5) < 1e-15


def test_majorant_domain_error():
    p = constant(1.0)
    for r in ([1.0], [1.5], [-0.1], [[0.2, 1.0]], [np.nan], [[np.nan, 0.5]]):
        with pytest.raises(ValueError, match=r"radius must lie in \[0, 1\)"):
            majorant(p, np.array(r))


def test_majorant_near_extremal_limit():
    # automorphism family at the classical radius: approaches one from below
    a = 1.0 - 2.0**-10
    p = member(a, 0.0)
    total = majorant(p, np.array([1.0 / 3.0]))[0]
    assert total < 1.0
    assert 1.0 - total < 1e-2


def test_majorant_brute_force_oracle():
    p = member(0.5, 0.0)
    assert abs(majorant(p, np.array([0.25]))[0] - brute_force_majorant(0.5, 0.0, 0.25)) < 1e-12


# The norm sum, which no evaluator returns alone, is the first value of its
# kernel, (sum, bound on the rest); each sum's tail bound is the second.  Each
# takes a one-row stack and its radii as the evaluators do.
def norm_f0(p, r):
    return functionals._sum(p, "norm", r)[0]


def majorant_tail_bound(p, r):
    return functionals._sum(p, "majorant", r)[1]


def norm_f0_tail_bound(p, r):
    return functionals._sum(p, "norm", r)[1]


def dirichlet_area_tail_bound(p, r):
    return functionals._sum(p, "area", r)[1]


def test_majorant_tail_bound_is_sound():
    # truncate a family series early: stored sum + tail bound must cover the
    # full sum computed at high order
    full = member(0.9, 0.1, 4096)
    short = member(0.9, 0.1, 24)
    r = np.array([0.6])
    assert majorant(full, r) <= majorant(short, r) + majorant_tail_bound(short, r) + 1e-12
    assert majorant_tail_bound(short, r) > 0.0


def test_norm_and_area_tail_bounds_are_sound():
    full = member(0.9, 0.1, 4096)
    short = member(0.9, 0.1, 24)
    r = np.array([0.6])
    assert norm_f0(full, r) <= norm_f0(short, r) + norm_f0_tail_bound(short, r) + 1e-14
    assert dirichlet_area(full, r) <= dirichlet_area(short, r) + dirichlet_area_tail_bound(short, r) + 1e-14
    assert norm_f0_tail_bound(short, r) > 0.0
    assert dirichlet_area_tail_bound(short, r) > 0.0


# A short series keeps every tail bound nonzero; the last case has no tail certificate.
_SHORT = member(0.9, 0.3, 24)
_H, _G = harmonic_member(0.9, 0.3, 0.7 * 0.5, 24)
_UNCERTIFIED = series(_SHORT.coeffs)
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
    # a one-row stack on a radius row equals, entry by entry, its calls at one radius each
    def fields(value):
        if isinstance(value, FunctionalValue):
            return [value.total, value.majorant, value.correction, value.tail_error]
        return [value]

    radii = np.linspace(0.0, 0.9, 37)
    vector = fields(_BY_RADIUS[name](radii[None, :]))
    scalar = [fields(_BY_RADIUS[name](np.array([r]))) for r in radii]
    for i, column in enumerate(vector):
        assert isinstance(column, np.ndarray) and column.shape == (1, radii.size)
        assert all(row[i].shape == (1,) for row in scalar)
        assert np.array_equal(column[0], [row[i][0] for row in scalar])


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
    """A family member's one-row stack, its coefficients turned by e^{i phase}
    (complex, with the same moduli), with or without its tail certificate."""
    if name == "harmonic_total":
        pair = harmonic_member(a, gamma, k, order)
    else:
        pair = (member(a, gamma, order),)
    turned = tuple(series(s.coeffs * np.exp(1j * phase), *((s.tail.q, s.tail.C) if certified else ())) for s in pair)
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
    stack = tuple(map(stack_of, zip(*members))) if name == "harmonic_total" else stack_of(members)
    radii = np.array([row[1] for row in rows])
    fields = ("total", "majorant", "correction", "tail_error")
    stacked = _EVALUATORS[name](stack, radii, gamma)
    for i, member in enumerate(members):
        single = _EVALUATORS[name](member, radii[i : i + 1], gamma)
        for field in fields:
            assert getattr(stacked, field)[i] == getattr(single, field)[0], (field, i)


def _scaled(member, scale):
    """A member (or pair) times a power of two, with its certificate scaled to match."""
    scaled = tuple(series(s.coeffs * scale, s.tail.q, s.tail.C * scale)
                   for s in (member if isinstance(member, tuple) else (member,)))
    return scaled if isinstance(member, tuple) else scaled[0]


@settings(max_examples=80)
@given(
    name=st.sampled_from(sorted(_EVALUATORS)),
    gamma=st.floats(0.0, 0.9),
    weight=st.floats(0.0, 1.0),
    order=st.sampled_from([16, 2048]),
    rows=st.lists(
        st.tuples(st.floats(0.01, 1.0 - 2.0**-14), st.booleans(), st.sampled_from([0.0, 0.7, 2.0]),
                  st.sampled_from([1.0, 2.0**-80])),
        min_size=1, max_size=6,
    ),
    radii=st.lists(st.one_of(st.just(0.0), st.floats(0.0, UPPER_LIMIT), st.just(UPPER_LIMIT)), min_size=1, max_size=8),
    built=st.sampled_from(["members", "builder"]),
)
@example(name="norm_refined_total", gamma=0.5, weight=1.0, order=2048,
         rows=[(0.5, True, 0.0, 1.0), (1.0 - 2.0**-14, True, 0.0, 1.0)], radii=[0.0, 0.3, UPPER_LIMIT], built="builder")
# the scaled member stops its sums before the other one does, at every radius
@example(name="bohr_total", gamma=0.0, weight=0.0, order=2048,
         rows=[(0.3, True, 0.0, 2.0**-80), (1.0 - 2.0**-14, True, 0.0, 1.0)], radii=[0.5, 0.9], built="members")
def test_shared_radius_row_rows_equal_single_series_calls_bit_for_bit(name, gamma, weight, order, rows, radii, built):
    # rows: (a, whether the member keeps its tail certificate, phase, scale);
    # a scale of 2^-80 makes a member's sums tiny, so it stops them at shorter
    # lengths than the other members at the same radius; the harmonic weight
    # is k with lambda = 1
    if built == "builder":  # the members as the sweep builds them
        members = [_member(name, a, gamma, weight, order, True, 0.0) for a, *_ in rows]
        a = np.array([a for a, *_ in rows])
        stack = (harmonic_extremal(a, gamma, weight, order) if name == "harmonic_total"
                 else mobius_family_coeffs(a, gamma, order))
    else:
        members = [_scaled(_member(name, a, gamma, weight, order, certified, phase), scale)
                   for a, certified, phase, scale in rows]
        stack = tuple(map(stack_of, zip(*members))) if name == "harmonic_total" else stack_of(members)
    r = np.array(radii)
    stacked = _EVALUATORS[name](stack, r[None, :], gamma)
    for i, member in enumerate(members):
        single = _EVALUATORS[name](member, r[None, :], gamma)
        for field in ("total", "majorant", "correction", "tail_error"):
            assert getattr(stacked, field).shape == (len(rows), r.size)
            assert getattr(stacked, field)[i].tolist() == getattr(single, field)[0].tolist(), (field, i)


def test_constant_term_modulus_rounds_as_the_scalar_abs():
    # numpy's vectorised complex abs differs from abs() by an ulp on about a
    # third of inputs; |a_0| keeps abs(), for a one-row stack and for each row of a larger one
    consts = np.random.default_rng(3).normal(size=(64, 2)) @ [1.0, 1j]
    gs = [series([c]) for c in consts]
    h = zero()
    stacked = harmonic_total(stack_of([h] * len(gs)), stack_of(gs), np.full(len(gs), 0.5))
    half = np.array([0.5])
    for i, (c, g) in enumerate(zip(consts, gs)):
        assert harmonic_total(h, g, half).total[0] == majorant(g, half)[0] - abs(c) == stacked.total[i]


# Every evaluator and sum on a stack (and its harmonic pair), at radii r.
_ON_STACK = {
    "majorant": majorant,
    "dirichlet_area": dirichlet_area,
    **{name: lambda p, r, e=e, pair=name == "harmonic_total": e((p, p) if pair else p, r, 0.3)
       for name, e in _EVALUATORS.items()},
}


@pytest.mark.parametrize("name", list(_ON_STACK))
@pytest.mark.parametrize("members", [1, 2])
def test_radius_must_be_one_per_member_or_one_shared_row(name, members):
    stack = stack_of([member(a, 0.2, 64) for a in (0.5, 0.9)][:members])
    for r in (0.3, 1, np.float64(0.3), np.array(0.3), np.full(members + 1, 0.3), np.full((members, 3, 1), 0.3),
              np.full((1, 3, 1), 0.3), np.full((2, 3), 0.3), [0.3] * members):
        with pytest.raises(ValueError, match=r"an array: a stack of M series takes M radii, one per member, "
                                             r"or one \(1, R\) row that every member shares"):
            _ON_STACK[name](stack, r)
    for r, shape in ((np.full(members, 0.3), (members,)), (np.full((1, 3), 0.3), (members, 3))):
        value = _ON_STACK[name](stack, r)
        assert getattr(value, "total", value).shape == shape


def test_harmonic_pair_needs_stacks_of_one_size():
    stack = stack_of([member(a, 0.2, 64) for a in (0.5, 0.9)])
    for r in (np.full((1, 3), 0.3), np.full(2, 0.3), np.full(1, 0.3)):
        with pytest.raises(ValueError, match=r"one \(1, R\) row that every member shares"):
            harmonic_total(stack, member(0.5, 0.2, 64), r)


@settings(max_examples=60)
@given(
    order=st.sampled_from([40, 2048]),
    rows=st.lists(
        st.tuples(st.floats(0.01, 1.0 - 2.0**-14), st.floats(0.0, 0.9), _RADII, st.booleans()),
        min_size=1, max_size=6,
    ),
)
def test_area_refined_rows_take_one_gamma_per_member_bit_for_bit(order, rows):
    # rows: (a, gamma, radius, whether the member keeps its tail certificate)
    members = [_member("area_refined_total", a, gamma, 0.0, order, certified, 0.0) for a, gamma, _, certified in rows]
    radii, gammas = np.array([row[2] for row in rows]), np.array([row[1] for row in rows])
    stacked = area_refined_total(stack_of(members), radii, gammas)
    for i, member in enumerate(members):
        single = area_refined_total(member, radii[i : i + 1], float(gammas[i]))
        for field in ("total", "majorant", "correction", "tail_error"):
            assert getattr(stacked, field)[i] == getattr(single, field)[0], (field, i)


def test_gamma_array_needs_a_stack_and_one_gamma_in_0_1_per_member():
    p, q = (member(a, 0.2, 64) for a in (0.5, 0.9))
    stack, radii = stack_of([p, q]), np.array([0.3, 0.4])
    with pytest.raises(ValueError, match="one gamma per member"):  # not on a one-row stack's radius row
        area_refined_total(p, np.array([[0.3]]), np.array([0.2]))
    with pytest.raises(ValueError, match="one gamma per member"):
        area_refined_total(p, radii, np.array([0.2, 0.2]))
    with pytest.raises(ValueError, match="one gamma per member"):  # as many gammas as coefficients
        area_refined_total(series([0.1, 0.2]), radii, np.array([0.2, 0.2]))
    for gammas in (np.array([0.2]), np.array([0.2, 0.2, 0.2]), np.array([[0.2, 0.2]])):
        with pytest.raises(ValueError, match="one gamma per member"):
            area_refined_total(stack, radii, gammas)
    with pytest.raises(ValueError, match="one gamma per member"):  # not on a shared radius row
        area_refined_total(stack, radii[None, :], np.array([0.2, 0.2]))
    for bad in (-1e-300, 1.0, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            area_refined_total(stack, radii, np.array([0.2, bad]))
    assert area_refined_total(stack, radii, np.array([0.0, 1.0 - 2.0**-53])).total.shape == (2,)


def test_functional_value_serialization():
    p = member(0.6, 0.2)
    fv = area_refined_total(p, np.array([0.4]), 0.2)
    data = dataclasses.asdict(fv)
    assert set(data) == {"total", "majorant", "correction", "tail_error"}


def test_norm_f0_values():
    half = np.array([0.5])
    assert norm_f0(constant(0.7), half) == 0.0
    assert abs(norm_f0(series([0.0, 1.0]), half) - 0.25) < 1e-15
    p = member(0.5, 0.0)
    assert abs(norm_f0(p, np.array([0.3])) - brute_force_norm(0.5, 0.0, 0.3)) < 1e-12


def test_dirichlet_area_identity_map():
    assert abs(dirichlet_area(series([0.0, 1.0]), np.array([0.5])) - 0.25) < 1e-15


def test_dirichlet_area_quadrature_oracle_random_polynomials():
    rng = np.random.default_rng(17)
    for _ in range(50):
        coeffs = random_decaying_series(rng, int(rng.integers(2, 12)))
        r = float(rng.uniform(0.1, 0.9))
        p = series(coeffs)
        assert abs(dirichlet_area(p, np.array([r]))[0] - quadrature_mean_square_derivative(coeffs, r)) < 1e-8


def test_dirichlet_area_univalent_family_vs_quadrature():
    p = member(0.5, 0.0, 256)
    r = 0.3
    area = dirichlet_area(p, np.array([r]))[0]
    assert abs(area - quadrature_mean_square_derivative(p.coeffs[0], r)) < 1e-8
    assert abs(area - brute_force_area(0.5, 0.0, r)) < 1e-12


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
        assert dirichlet_area(p, np.array([r]))[0] <= area_upper_bound(abs(p.coeffs[0, 0]), r) + 1e-9


def test_total_equals_majorant_plus_correction():
    p, r = member(0.6, 0.2), np.array([0.4])
    for fv in (
        bohr_total(p, r),
        area_refined_total(p, r, 0.2),
        norm_refined_total(p, r),
        domain_ratio_area_total(p, r, 1.0 / 1.2),
    ):
        assert fv.total == fv.majorant + fv.correction
        assert fv.tail_error >= 0.0


def test_unimodular_constant_saturates_every_bound():
    c = constant(np.exp(0.7j))
    for r in np.array([[0.1], [0.5], [0.9]]):
        assert abs(bohr_total(c, r).total - 1.0) < 1e-15
        assert abs(area_refined_total(c, r, 0.3).total - 1.0) < 1e-15
        assert abs(norm_refined_total(c, r).total - 1.0) < 1e-15
        assert abs(domain_ratio_area_total(c, r, 0.5).total - 1.0) < 1e-15


def test_functionals_monotone_in_radius():
    rng = np.random.default_rng(29)
    radii = np.linspace(0.0, 0.85, 24)
    for _ in range(10):
        p = series(random_decaying_series(rng, 48))
        h = series(random_decaying_series(rng, 48))
        g = series(np.concatenate([[0.0], random_decaying_series(rng, 47)]))
        for fn in (
            lambda r: bohr_total(p, r).total,
            lambda r: area_refined_total(p, r, 0.4).total,
            lambda r: norm_refined_total(p, r).total,
            lambda r: domain_ratio_area_total(p, r, 0.8).total,
            lambda r: harmonic_total(h, g, r).total,
        ):
            values = np.array([fn(np.array([r]))[0] for r in radii])
            assert np.all(np.diff(values) >= -1e-12)


def test_area_refined_admissible_and_sharp_points():
    gamma = 0.5
    p = member(0.9, gamma)
    fv = area_refined_total(p, np.array([1.5 / 3.5]), gamma)
    assert fv.padded() <= 1.0
    # just past the sharp radius a near-extremal member violates the bound
    p = member(1.0 - 2.0**-10, 0.0)
    fv = area_refined_total(p, np.array([1.0 / 3.0 + 0.01]), 0.0)
    assert fv.total > 1.0


def test_norm_refined_over_random_bounded_samples():
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = random_blaschke(rng)
        p = numeric_taylor(f, 64, rho=0.9)
        assert norm_refined_total(p, np.array([1.0 / 3.0])).total <= 1.0 + 1e-9


def test_norm_refined_sharpness():
    gamma = 0.25
    p = member(1.0 - 2.0**-12, gamma)
    r = sharp_majorant_radius(gamma) + 0.01
    assert norm_refined_total(p, np.array([r])).total > 1.0


def test_domain_ratio_threshold_identity():
    for gamma in np.linspace(0.0, 0.9, 10):
        lam = DiskDomain(float(gamma)).coefficient_ratio_sup
        assert abs(1.0 / (1.0 + 2.0 * lam) - sharp_majorant_radius(float(gamma))) < 1e-15


def test_domain_ratio_bound_on_blaschke_samples():
    rng = np.random.default_rng(37)
    for _ in range(50):
        f = random_blaschke(rng)
        p = numeric_taylor(f, 64, rho=0.9)
        assert domain_ratio_area_total(p, np.array([1.0 / 3.0]), 1.0).total <= 1.0 + 1e-9


def test_domain_ratio_agrees_with_area_refined_when_recentering_is_trivial():
    # at gamma = 0 both area corrections act on the same disk, so equal
    # weights give equal totals
    rng = np.random.default_rng(41)
    p = series(random_decaying_series(rng, 64))
    for lam in (0.5, 1.0, 2.0):
        weight = 2.0 * ((1.0 + lam) / (1.0 + 2.0 * lam)) ** 2
        for r in np.array([[0.1], [0.3], [0.45]]):
            lhs = domain_ratio_area_total(p, r, lam).total
            rhs = area_refined_total(p, r, 0.0, weight=weight).total
            assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ValueError):
        domain_ratio_area_total(p, np.array([0.3]), 0.0)


def test_harmonic_total_cases():
    h, g = harmonic_member(0.9, 0.5, 0.5)
    r0 = sharp_harmonic_radius(0.5, 0.5)
    assert harmonic_total(h, g, np.array([r0])).padded() <= 1.0
    # k = 0 reduces to the plain majorant
    h, g = harmonic_member(0.7, 0.2, 0.0)
    r = np.array([0.4])
    assert abs(harmonic_total(h, g, r).total - bohr_total(h, r).total) < 1e-15
    # sharpness just past the harmonic radius
    h, g = harmonic_member(1.0 - 2.0**-12, 0.0, 1.0)
    assert harmonic_total(h, g, np.array([0.2 + 0.01])).total > 1.0


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
    """``exact`` holds the 50-digit value of each full series of the one-row
    stack p at the float r."""
    # the certificate's closed form is not rounded up, and it amplifies the
    # rounding of x = q r by its exponent N + 1 and by 1 / (1 - x)
    amplify = 2.0 * (p.order + 1 + 1.0 / (1.0 - p.tail.q[0] * r))
    r = np.array([r])
    for (value_fn, tail_fn), full_series in zip(_SUMS, exact):
        value, tail = value_fn(p, r)[0], tail_fn(p, r)[0]
        slack = _ROUNDING * float(full_series) + amplify * _EPS * tail + np.finfo(float).tiny
        assert value <= full_series + slack
        assert value + tail >= full_series - slack
        # the same kernel with no cut sums every stored term
        with mock.patch.object(functionals, "_CUT", 0.0):
            full, full_tail = value_fn(p, r)[0], tail_fn(p, r)[0]
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
    _assert_cut_is_sound(member(a, gamma, order), r, _family_sums_50_digits(a, gamma, r))


def _spike(n):
    """z^n with no tail certificate: past a cut below n, its whole mass is skipped."""
    coeffs = np.zeros(2 * n + 1)
    coeffs[n] = 1.0
    return series(coeffs)


_UNCERTIFIED_SERIES = {
    "numeric_taylor": numeric_taylor(random_blaschke(np.random.default_rng(5)), 128, rho=0.9),
    "spike_32": _spike(32),
    "spike_64": _spike(64),
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(_UNCERTIFIED_SERIES)), r=st.floats(0.0, 0.999))
def test_cut_sums_are_sound_without_a_certificate(name, r):
    p = _UNCERTIFIED_SERIES[name]
    assert p.tail.C.tolist() == [0.0]
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(c)) for c in np.abs(p.coeffs[0])]
        x = mpmath.mpf(r * r)
        exact = (
            mpmath.fsum(c * mpmath.mpf(r) ** n for n, c in enumerate(w)),
            mpmath.fsum(c**2 * x**n for n, c in enumerate(w) if n),
            mpmath.fsum(n * c**2 * x**n for n, c in enumerate(w) if n),
        )
    _assert_cut_is_sound(p, r, exact)


def test_cut_lengths_per_radius_keep_vector_calls_bit_for_bit():
    # radii up to 0.999 stop at every length from 32 to the full 2049
    p = member(0.99, 0.2)
    radii = np.linspace(0.0, 0.999, 101)
    for fn in (fn for pair in _SUMS for fn in pair):
        assert np.array_equal(fn(p, radii[None, :])[0], [fn(p, np.array([r]))[0] for r in radii])


def test_spike_past_the_cut_lands_in_the_tail_bound():
    # at r = 0.27, r^32 is below 2^-60: the sum stops before a_32 and the
    # tail bound carries all of it
    p, r = _spike(32), np.array([0.27])
    assert majorant(p, r) == 0.0
    assert majorant_tail_bound(p, r) >= 0.27**32


_LIMIT_A = sharpness_a_grid()[-4:]  # the members radius solves


def _family_cases(order):
    """(stack, harmonic pair, radii, gamma): the members radius solves at one
    radius each, at radii that make them sum different lengths, at r = 0 and
    up to UPPER_LIMIT, and on one shared radius row."""
    p, hg = mobius_family_coeffs(_LIMIT_A, 0.5, order), harmonic_extremal(_LIMIT_A, 0.5, 0.35, order)
    for r in (np.full(4, 0.4244), np.array([0.0, 0.01, 0.9, UPPER_LIMIT]), np.zeros(4), np.full(4, UPPER_LIMIT),
              np.array([[0.0, 0.01, 0.3, 0.4244, 0.7, 0.9, 0.99, UPPER_LIMIT]])):
        yield p, hg, r, 0.5


def _uncertified_and_infinite_cases():
    """numeric_taylor rows, C = 0; then the family at order 64 with one row's C
    infinite and one NaN, at radii where x^(N+1) underflows and where it does not."""
    rows = numeric_taylor(lambda z: np.stack([np.exp(z) / 3.0, (0.5 - z) / (1.0 - 0.5 * z), z**40 / 2.0]), 64, 0.9)
    for r in (np.array([0.2, 0.5, 0.97]), np.full(3, 0.3), np.array([[0.0, 0.2, 0.5, 0.9, UPPER_LIMIT]])):
        yield rows, (rows, rows), r, 0.3
    p = mobius_family_coeffs(_LIMIT_A, 0.5, 64)
    bad = SeriesStack(p.coeffs, p.tail.q, np.array([np.inf, p.tail.C[1], np.nan, p.tail.C[3]]))
    for r in (np.zeros(4), np.full(4, 1e-6), np.array([1e-6, 0.3, 0.0, 0.9]), np.array([[0.0, 1e-6, 0.5]])):
        yield bad, (bad, p), r, 0.5


_FAST_PATH_CASES = [case for order in (1, 16, 31, 32, 33, 64, 2048) for case in _family_cases(order)]
_FAST_PATH_CASES += list(_uncertified_and_infinite_cases())


@pytest.mark.parametrize("case", range(len(_FAST_PATH_CASES)))
def test_sums_equal_their_general_form_bit_for_bit(case):
    # one length for every cell takes one dot product, and an exactly-zero
    # certificate head skips the tail's closed form: every field of every
    # evaluator, and both sums, stay bit for bit those of the general form
    p, hg, r, gamma = _FAST_PATH_CASES[case]

    def values():
        with np.errstate(invalid="ignore"):  # C = inf times an underflowed x^(N+1)
            out = {"majorant": majorant(p, r), "dirichlet_area": dirichlet_area(p, r),
                   "harmonic_total": harmonic_total(*hg, r)}
            out.update((name, _EVALUATORS[name](p, r, gamma)) for name in _EVALUATORS if name != "harmonic_total")
        return {name: [getattr(value, field.name) for field in dataclasses.fields(value)]
                if isinstance(value, FunctionalValue) else [value] for name, value in out.items()}

    fast = values()
    with mock.patch.object(functionals, "_sum", sum_reference):
        general = values()
    for name, fields in general.items():
        for i, expected in enumerate(fields):
            assert np.array_equal(fast[name][i], expected, equal_nan=True), (name, i)


def test_radius_check_accepts_and_rejects_as_one_elementwise_comparison():
    stacks = [SeriesStack(np.zeros((m, 65))) for m in (0, 1, 2)]
    radii = [0.3, [0.3], np.zeros(0), np.zeros((1, 0)), np.zeros((0, 0)), np.array([True]), np.array([0, 1]),
             np.array([[0.5, np.nan]]), np.array([[0.0, 0.5, np.nextafter(1.0, 0.0)]]), np.array([[0.5, 1.0]])]
    radii += [np.array([x]) for x in (0.0, -0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, -5e-324, np.nan, np.inf, -np.inf)]
    radii += [np.array([x, 0.5]) for x in (0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -5e-324, np.nan, np.inf)]

    def outcome(check, r, p):
        try:
            check(r, p)
        except ValueError as exc:
            return str(exc)
        return None

    for p in stacks:
        for r in radii:
            assert outcome(functionals._check_radius, r, p) == outcome(check_radius_reference, r, p), (len(p.coeffs), r)


def _family_sums_50_digits(a, gamma, r):
    """50-digit majorant, norm and area of the whole member at (a, gamma) at
    radius r, from its float constants; the squared sums run over the float
    r * r the evaluators use."""
    a0, q, scale = map(float, family_constants(a, gamma))
    with mpmath.workdps(50):
        q, scale = mpmath.mpf(q), mpmath.mpf(scale)
        x, y = q * r, q * q * mpmath.mpf(r * r)
        return (
            abs(mpmath.mpf(a0)) + scale * x / (1 - x),
            scale**2 * y / (1 - y),
            scale**2 * y / (1 - y) ** 2,
        )


def _assert_value_plus_tail_covers(p, r, exact):
    """Each sum of the one-row stack p at the float r, plus its tail bound,
    covers the 50-digit value in ``exact``."""
    r = np.array([r])
    for (value_fn, tail_fn), full_series in zip(_SUMS, exact):
        assert value_fn(p, r)[0] + tail_fn(p, r)[0] >= full_series - _ROUNDING * abs(full_series)


def test_certificate_tail_is_rounded_up_at_q_r_near_one():
    # unrounded, area + tail fell 764 eps short here and norm + tail 382 eps
    exact = _family_sums_50_digits(0.9999, 0.0, 0.999)
    _assert_value_plus_tail_covers(member(0.9999, 0.0, 24), 0.999, exact)


@settings(max_examples=60)
@given(
    a=st.floats(0.999, 0.99999),
    gamma=st.floats(0.0, 0.9),
    order=st.sampled_from([24, 256, 2048]),
    qr=st.floats(0.99, 0.999),
)
def test_certificate_tail_covers_the_series_for_q_r_near_one(a, gamma, order, qr):
    r = qr / family_constants(a, gamma)[1]
    assume(r < 1.0)
    _assert_value_plus_tail_covers(member(a, gamma, order), r, _family_sums_50_digits(a, gamma, r))


@settings(max_examples=60)
@given(
    order=st.sampled_from([40, 2048]),
    rows=st.lists(
        st.tuples(st.floats(1e-6, 1.0 - 2.0**-40), st.floats(0.0, 0.99), st.floats(0.0, 1.0),
                  st.floats(0.0, 0.999), st.floats(0.0, 1.0)),
        min_size=1, max_size=10,
    ),
)
# the deficit identity check's corner: gamma, a and r at the top of its draws
@example(order=2048, rows=[(0.995, 0.9, 1.0, 0.9, 1.0), (0.05, 0.0, 0.0, 0.01, 1.0)])
def test_totals_on_rows_cut_at_their_largest_radius_equal_the_full_order_totals(order, rows):
    # rows: (a, gamma, weight k * lambda, largest radius r_max, r / r_max).
    # The terms past the shorter rows add at most 2^-60 to each sum the
    # shorter and the longer stack cut, so a total moves by at most 2^-59 and
    # the rounding of a sum of another length: asserted to within one ulp
    # (every example run here was equal bit for bit)
    a, gamma, weight, r_max, t = map(np.array, zip(*rows))
    r = t * r_max

    def totals(h, g):
        return (bohr_total(h, r), area_refined_total(h, r, gamma), norm_refined_total(h, r),
                domain_ratio_area_total(h, r, 0.7), harmonic_total(h, g, r))

    for short, full in zip(totals(*harmonic_extremal(a, gamma, weight, order, r_max)),
                           totals(*harmonic_extremal(a, gamma, weight, order)), strict=True):
        assert np.all(np.abs(short.total - full.total) <= 2.0 * functionals._CUT + np.spacing(full.total))


@pytest.mark.parametrize("a,gamma,r", [(0.3, 0.5, 0.8), (0.99, 0.2, 0.7), (0.995, 0.9, 0.9),
                                       (1.0 - 2.0**-14, 0.5, 0.5)])
def test_padded_totals_on_rows_cut_at_their_largest_radius_cover_the_whole_series(a, gamma, r):
    # the certificate covers every term past the shorter row; the allowance
    # is _ROUNDING, for the roundoff of the summed terms, as above
    stack = mobius_family_coeffs(a, gamma, 2048, r)
    assert stack.order < 2048
    exact = _family_sums_50_digits(a, gamma, r)
    assert float(bohr_total(stack, np.array([r])).padded()[0]) >= exact[0] - _ROUNDING * exact[0]
    _assert_value_plus_tail_covers(stack, r, exact)


@settings(max_examples=30)
@given(
    theorem=st.sampled_from(["B", "1", "2", "3", "4"]),
    gamma=st.floats(0.0, 0.99),
    grid=st.integers(1, 64),
    k=st.none() | st.floats(0.0, 1.0),
    lam=st.none() | st.floats(0.05, 4.0),
)
def test_sweep_rows_cut_at_the_grid_radius_stay_certified(tmp_path_factory, theorem, gamma, grid, k, lam):
    # sweep's rows stop where its largest radius stops reading them: every
    # cell of every row still lies within tail_error (and the allowance
    # above) of the whole member's closed form
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    argv = ["sweep", "--theorem", theorem, "--gammas", repr(gamma), "--grid", str(grid), "--out", str(out)]
    argv += [] if k is None else ["--k", repr(k)]
    argv += [] if lam is None else ["--lambda", repr(lam)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    with out.open(newline="") as fh:
        rows = [list(map(float, row)) for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 14 * grid
    for _, a, k_cell, lam_cell, r, *cells, tail in rows:
        a0 = abs(float(family_constants(a, gamma)[0]))
        series_sum, norm, area = _family_sums_50_digits(a, gamma, r)
        with mpmath.workdps(50):
            majorant_sum, correction = series_sum, mpmath.mpf(0)
            if theorem == "1":
                weight = mpmath.mpf(functionals.DEFAULT_AREA_WEIGHT)
                correction = weight * _family_sums_50_digits(a, gamma, r * (1.0 - gamma))[2]
            elif theorem == "2":
                correction = (1 / (1 + mpmath.mpf(a0)) + r / (1 - mpmath.mpf(r))) * norm
            elif theorem == "3":
                correction = 2 * ((1 + mpmath.mpf(lam_cell)) / (1 + 2 * mpmath.mpf(lam_cell))) ** 2 * area
            elif theorem == "4":  # the co-analytic part is k (h - h(0))
                majorant_sum = a0 + (1 + mpmath.mpf(k_cell)) * (series_sum - a0)
            exact = (majorant_sum + correction, majorant_sum, correction)
            for cell, value in zip(cells, exact, strict=True):
                assert abs(cell - value) <= tail + _ROUNDING * abs(value)
