"""Closed-form extremal families against independent coefficient oracles."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from bohrlab import functionals
from bohrlab.extremals import (
    family_area_deficit,
    family_constants,
    family_harmonic_deficit,
    family_norm_deficit,
    harmonic_extremal,
    mobius_family_coeffs,
    sharpness_a_grid,
)
from bohrlab.series import numeric_taylor

from oracles import (automorphism_coeffs, differentiate, family_coeffs_reference, family_coefficient, family_member,
                     harmonic_member, member)


def test_member_validation():
    for a, gamma in ((0.0, 0.0), (1.0, 0.0), (np.nan, 0.0), (0.5, 1.0), (0.5, -0.1)):
        with pytest.raises(ValueError):
            mobius_family_coeffs(a, gamma, 16)
        with pytest.raises(ValueError):
            harmonic_extremal(a, gamma, 0.5, 16)
    for a in (0.1, 0.5, 0.99):
        for gamma in (0.0, 0.5, 0.9):
            assert 0.0 < family_constants(a, gamma)[1] < 1.0


def test_known_coefficients_gamma_zero():
    c = mobius_family_coeffs(0.5, 0.0, 16).coeffs[0]
    assert abs(c[0] - 0.5) < 1e-15
    for n in range(1, 17):
        assert abs(-c[n] - 1.5 * 0.5**n) < 1e-15


def test_matches_numeric_taylor():
    p = mobius_family_coeffs(0.5, 0.25, 32)
    q = numeric_taylor(lambda z: family_member(0.5, 0.25, z), 32, rho=0.9)
    assert np.max(np.abs(p.coeffs - q.coeffs)) < 1e-10


def test_reduces_to_automorphism_at_gamma_zero():
    for a in (0.2, 0.5, 0.8):
        p = mobius_family_coeffs(a, 0.0, 24)
        assert np.max(np.abs(p.coeffs[0] - automorphism_coeffs(a, 24))) < 1e-13


def test_bounded_on_unit_circle_samples():
    z = 0.99 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.all(np.abs(family_member(0.9, 0.9, z)) <= 1.0 + 1e-12)


def test_coefficient_decay_ratio_exact():
    p = mobius_family_coeffs(0.8, 0.3, 64)
    q = 0.8 * (1.0 - 0.3) / (1.0 - 0.8 * 0.3)
    mags = np.abs(p.coeffs[0, 1:])
    ratios = mags[1:] / mags[:-1]
    assert np.max(np.abs(ratios - q)) < 1e-12
    assert abs(p.tail.q[0] - q) < 1e-15


def test_tail_certificate_covers_stored_coefficients():
    p = mobius_family_coeffs(0.95, 0.2, 64)
    n = np.arange(33, 65)
    bound = p.tail.C[0] * p.tail.q[0] ** n
    assert np.all(np.abs(p.coeffs[0, 33:]) <= bound * (1 + 1e-12))


def test_extremal_limit_behavior():
    # constant term -> 1 and majorant tail -> 0 as a -> 1
    gamma, r = 0.25, 0.3
    prev_tail = np.inf
    for a in (0.9, 0.99, 0.999, 0.9999):
        c = mobius_family_coeffs(a, gamma, 256).coeffs[0]
        tail_sum = float(np.abs(c[1:]) @ r ** np.arange(1, 257))
        assert tail_sum < prev_tail
        prev_tail = tail_sum
    assert abs(c[0] - 1.0) < 1e-3
    assert tail_sum < 1e-3


@settings(max_examples=60)
@given(
    a=st.floats(1e-3, 1.0 - 2.0**-14),
    gamma=st.floats(0.0, 0.99),
    order=st.sampled_from([1, 24, 256, 2048]),
)
@example(a=0.3, gamma=0.0, order=2048)  # q = 0.3: q^n underflows past n = 618
@example(a=1e-3, gamma=0.2, order=256)  # q^n underflows past n = 104
def test_family_coefficients_equal_the_full_power_vector(a, gamma, order):
    assert np.array_equal(mobius_family_coeffs(a, gamma, order).coeffs[0], family_coeffs_reference(a, gamma, order))


@settings(max_examples=60)
@given(
    order=st.sampled_from([1, 16, 31, 2048]),
    rows=st.lists(
        st.tuples(
            # a below 1e-3 keeps q tiny, so the 2^-1100 underflow cut stores zeros
            st.one_of(st.floats(1e-150, 1e-3), st.floats(1e-3, 1.0 - 2.0**-14)),
            st.floats(0.0, 0.99), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        ),
        min_size=1, max_size=6,
    ),
    harmonic=st.booleans(),
    r_max=st.one_of(st.none(), st.floats(0.0, 0.999)),
)
@example(order=2048, rows=[(1e-150, 0.0, 0.5, 0.5), (0.3, 0.5, 1.0, 1.0), (1.0 - 2.0**-14, 0.9, 0.0, 0.7)],
         harmonic=True, r_max=None)
@example(order=2048, rows=[(5e-4, 0.2, 1.0, 0.5), (1.0 - 2.0**-14, 0.0, 0.3, 1.0)], harmonic=False, r_max=0.9)
@example(order=31, rows=[(5e-4, 0.2, 1.0, 0.5), (1.0 - 2.0**-14, 0.6, 0.3, 1.0)], harmonic=True, r_max=0.5)
@example(order=1, rows=[(1e-150, 0.0, 1.0, 1.0), (1.0 - 2.0**-14, 0.3, 1.0, 1.0)], harmonic=True, r_max=None)
def test_builder_rows_equal_the_member_references_bit_for_bit(order, rows, harmonic, r_max):
    # rows: (a, gamma, k, lambda), a gamma and a weight k * lambda per row as
    # the deficit identity check draws them
    a, gamma, k, lam = map(np.array, zip(*rows))
    stacks = (harmonic_extremal(a, gamma, k * lam, order, r_max) if harmonic
              else (mobius_family_coeffs(a, gamma, order, r_max),))
    n = stacks[0].order
    assert n == order if r_max is None else n <= order
    for i, (a_i, gamma_i, k_i, lam_i) in enumerate(rows):
        references = (harmonic_member(a_i, gamma_i, k_i * lam_i, order) if harmonic
                      else (member(a_i, gamma_i, order),))
        for stack, ref in zip(stacks, references, strict=True):
            assert stack.order == n and stack.coeffs.shape == (len(rows), n + 1)
            assert stack.coeffs[i].tolist() == ref.coeffs[0, : n + 1].tolist()
            assert (stack.tail.q[i], stack.tail.C[i]) == (ref.tail.q[0], ref.tail.C[0])
        # the rows are real: h is the full power vector, g is weight * h with g[0] = 0
        reference = family_coeffs_reference(a_i, gamma_i, order)[: n + 1]
        assert not np.any(reference.imag)
        assert np.array_equal(stacks[0].coeffs[i], reference.real)
        if harmonic:
            g = k_i * lam_i * reference.real
            g[0] = 0.0
            assert np.array_equal(stacks[1].coeffs[i], g)


@pytest.mark.parametrize("weight", [None, 0.35, 1.0])
def test_builder_rows_are_float64_and_equal_the_complex_member_rows(weight):
    a, gamma, order = sharpness_a_grid(), 0.37, 2048
    stacks = ((mobius_family_coeffs(a, gamma, order),) if weight is None
              else harmonic_extremal(a, gamma, weight, order))
    members = [(member(x, gamma, order),) if weight is None
               else harmonic_member(x, gamma, weight, order) for x in a.tolist()]
    for stack, rows in zip(stacks, zip(*members), strict=True):
        complex_rows = np.concatenate([row.coeffs for row in rows])
        assert stack.coeffs.dtype == np.float64 and complex_rows.dtype == np.complex128
        assert np.array_equal(stack.coeffs, complex_rows) and not np.any(complex_rows.imag)


def test_builders_take_floats_and_arrays_and_reject_bad_members():
    h = mobius_family_coeffs(0.5, 0.2, 16)
    assert h.coeffs.shape == (1, 17)
    assert h.coeffs.tolist() == mobius_family_coeffs([0.5, 0.6], 0.2, 16).coeffs[:1].tolist()
    for a, gamma in ((0.0, 0.2), (1.0, 0.2), ([0.5, np.nan], 0.2), (0.5, 1.0), (0.5, [0.2, -0.1])):
        with pytest.raises(ValueError, match="every a must lie in"):
            mobius_family_coeffs(a, gamma, 16)
    for weight in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="every weight must lie in"):
            harmonic_extremal([0.5, 0.6], 0.2, weight, 16)
    with pytest.raises(ValueError, match="order"):
        mobius_family_coeffs(0.5, 0.2, 0)
    with np.errstate(over="ignore"):  # C = inf
        with pytest.raises(ValueError, match="overflows"):
            mobius_family_coeffs([0.5, 1e-320], 0.2, 16)
        with pytest.raises(ValueError, match="overflows"):
            mobius_family_coeffs(1e-320, 0.2, 16)


def test_builders_without_a_largest_radius_write_the_full_order():
    a, gamma = sharpness_a_grid(), 0.37
    for order in (1, 31, 100, 2048):
        for stack in (mobius_family_coeffs(a, gamma, order), *harmonic_extremal(a, gamma, 0.5, order)):
            assert stack.order == order and stack.coeffs.shape == (a.size, order + 1)


@settings(max_examples=60)
@given(
    order=st.sampled_from([1, 40, 2048]),
    rows=st.lists(st.tuples(st.floats(1e-6, 1.0 - 2.0**-40), st.floats(0.0, 0.99), st.floats(0.0, 0.999)),
                  min_size=1, max_size=6),
)
@example(order=2048, rows=[(0.5, 0.2, 0.0)])  # x = 0: the shortest order
@example(order=2048, rows=[(1.0 - 2.0**-40, 0.0, 0.999)])  # nothing drops off: the full order
def test_builders_up_to_a_largest_radius_stop_at_the_first_order_that_drops_below_the_cut(order, rows):
    a, gamma, r_max = map(np.array, zip(*rows))
    full = mobius_family_coeffs(a, gamma, order)
    short = mobius_family_coeffs(a, gamma, order, r_max)
    n, ladder = short.order, [32 << j for j in range(12)]
    assert n == order or (n in ladder and n < order)
    assert short.coeffs.tolist() == full.coeffs[:, : n + 1].tolist()
    assert short.tail.q.tolist() == full.tail.q.tolist() and short.tail.C.tolist() == full.tail.C.tolist()
    # the most any row's majorant sum at r <= r_max loses past order m
    x = full.tail.q * r_max
    dropped = lambda m: np.max(full.tail.C * x ** (m + 1) / (1.0 - x))
    assert n == order or dropped(n) <= functionals._CUT
    assert all(dropped(m) > functionals._CUT for m in ladder if m < n)
    h, g = harmonic_extremal(a, gamma, 0.5, order, r_max)
    assert h.order == g.order == n
    with pytest.raises(ValueError, match="every r_max must lie in"):
        mobius_family_coeffs(a, gamma, order, 1.0)


def test_sharpness_grid():
    grid = sharpness_a_grid()
    assert len(grid) == 14
    assert grid[0] == 0.5
    assert grid[-1] == 1.0 - 2.0**-14


def test_harmonic_zero_dilatation():
    h, g = harmonic_extremal(0.5, 0.0, 0.0, 16)
    assert np.all(g.coeffs == 0.0)


def test_harmonic_coefficients_closed_form():
    h, g = (stack.coeffs[0] for stack in harmonic_extremal(0.5, 0.0, 1.0, 16))
    assert g[0] == 0.0
    for n in range(1, 17):
        assert abs(g[n] + 1.5 * 0.5**n) < 1e-14
        assert abs(g[n] - h[n]) < 1e-14
    # cross-check one coefficient against the oracle formula
    assert abs(abs(g[3]) - family_coefficient(0.5, 0.0, 3)) < 1e-14


def test_harmonic_dilatation_pointwise():
    k, lam = 0.7, 0.8
    h, g = (stack.coeffs[0] for stack in harmonic_extremal(0.6, 0.3, k * lam, 256))
    z = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    dg_z, dh_z = np.abs(polyval(z, differentiate(g))), np.abs(polyval(z, differentiate(h)))
    assert np.max(np.abs(dg_z / dh_z - k * lam)) < 1e-10
    assert np.all(dg_z <= k * dh_z + 1e-12)


def test_harmonic_weight_validation():
    for weight in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="weight must lie in"):
            harmonic_extremal(0.5, 0.0, weight, 16)


@settings(max_examples=40)
@given(
    a_values=st.lists(st.floats(1e-3, 1.0 - 2.0**-20), min_size=1, max_size=16),
    gamma=st.floats(0.0, 0.95),
)
# for these a, Python's a ** 2 (libm pow) and numpy's array ** 2 (a square) round
# an ulp apart, and 1 - a^2 keeps that ulp
@example(a_values=[0.7454248080083349, 0.9594347173586794, 0.5], gamma=0.3)
def test_family_constants_of_an_array_equal_its_floats_bit_for_bit(a_values, gamma):
    columns = family_constants(np.array(a_values), gamma)
    for i, a in enumerate(a_values):
        alone = family_constants(a, gamma)
        assert tuple(column[i] for column in columns) == alone
        assert alone[2] == (1.0 - a**2) / (a * (1.0 - a * gamma))


def test_family_deficits_are_their_scaled_geometric_totals():
    # the identities of verify.check_family_deficit_identity, for a > gamma
    # (so |A_0| = A_0), with the family's sums in closed form
    a, gamma, r, k, lam, weight = sympy.symbols("a gamma r k lambda w", positive=True)
    a0 = (a - gamma) / (1 - a * gamma)
    q = a * (1 - gamma) / (1 - a * gamma)
    c = (1 - a**2) / (a * (1 - a * gamma))
    majorant = a0 + c * q * r / (1 - q * r)
    norm = c**2 * (q * r) ** 2 / (1 - (q * r) ** 2)  # sum |A_n|^2 r^2n
    y = (q * r * (1 - gamma)) ** 2
    area = c**2 * y / (1 - y) ** 2  # sum n |A_n|^2 (r (1-gamma))^2n
    pref = (1 - a) / (1 - a * gamma)
    identities = [
        (majorant + weight * area, (1 - a) * family_area_deficit(r, a, gamma, weight)),
        (majorant + (1 / (1 + a0) + r / (1 - r)) * norm, pref * family_norm_deficit(r, a, gamma)),
        (a0 + (1 + k * lam) * (majorant - a0), pref * family_harmonic_deficit(r, a, gamma, k, lam)),
    ]
    for total, scaled_deficit in identities:
        # the deficits are written with float literals (1.0): read them as the rationals they are
        exact = scaled_deficit.xreplace({f: sympy.Rational(f) for f in scaled_deficit.atoms(sympy.Float)})
        # a rational function vanishes exactly when its numerator does
        assert sympy.expand(sympy.numer(sympy.together(total - 1 + exact))) == 0
