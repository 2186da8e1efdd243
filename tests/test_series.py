"""Series arithmetic, coefficient extraction, and recentering."""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from bohrlab.series import (
    DiskDomain,
    SeriesStack,
    numeric_taylor,
    recenter_affine,
    taylor_coefficients,
)

from oracles import (
    automorphism_coeffs,
    constant,
    differentiate,
    disk_domain_contains,
    from_unit_disk,
    mul,
    numeric_taylor_reference,
    random_decaying_series,
    series,
)


def test_mul_difference_of_squares():
    assert np.allclose(mul(np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0])), [1.0, 0.0, -1.0])


def test_mul_by_one_identity():
    rng = np.random.default_rng(7)
    p = random_decaying_series(rng, 12)
    one = constant(1.0, order=12).coeffs[0]
    assert np.allclose(mul(p, one), p, atol=0, rtol=0)


def test_evaluation_homomorphism_add_mul():
    # zero-padded operands keep the truncated product exact
    rng = np.random.default_rng(11)
    for trial in range(20):
        ca = np.concatenate([random_decaying_series(rng, 10), np.zeros(30)])
        cb = np.concatenate([random_decaying_series(rng, 10), np.zeros(30)])
        z = 0.3 * np.exp(2j * np.pi * rng.uniform())
        assert abs(polyval(z, mul(ca, cb)) - polyval(z, ca) * polyval(z, cb)) < 1e-12


def test_differentiate_matches_finite_difference():
    rng = np.random.default_rng(3)
    p = random_decaying_series(rng, 16)
    dp = differentiate(p)
    h = 1e-6
    for z in (0.1 + 0.2j, -0.3j, 0.25):
        fd = (polyval(z + h, p) - polyval(z - h, p)) / (2 * h)
        assert abs(polyval(z, dp) - fd) < 1e-7


def test_numeric_taylor_monomial_exact():
    p = numeric_taylor(lambda z: z**2, 4, 0.5)
    assert p.coeffs.shape == (1, 5)  # a lone row of samples gives a one-row stack
    assert np.allclose(p.coeffs, [0, 0, 1, 0, 0], atol=1e-10)


def test_numeric_taylor_polynomial_exactness():
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = random_decaying_series(rng, 16)
        p = numeric_taylor(lambda z: polyval(z, coeffs), 16, 0.5)
        assert np.max(np.abs(p.coeffs[0] - coeffs)) < 1e-10
    # larger orders need a larger sampling radius to beat roundoff growth
    coeffs = random_decaying_series(rng, 64)
    p = numeric_taylor(lambda z: polyval(z, coeffs), 64, rho=0.9)
    assert np.max(np.abs(p.coeffs[0] - coeffs)) < 1e-10


def test_numeric_taylor_automorphism_closed_form():
    a = 0.5
    p = numeric_taylor(lambda z: (a - z) / (1 - a * z), 24, rho=0.75)
    assert np.max(np.abs(p.coeffs[0] - automorphism_coeffs(a, 24))) < 1e-10


def test_numeric_taylor_reconstructs_on_half_radius():
    a = 0.7
    f = lambda z: (a - z) / (1 - a * z)
    p = numeric_taylor(f, 32, rho=0.6)
    z = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(polyval(z, p.coeffs[0]) - f(z))) < 1e-10


def test_numeric_taylor_rejects_bad_input():
    with pytest.raises(ValueError):
        numeric_taylor(lambda z: z * np.nan, 4, 0.5)  # non-finite samples
    with pytest.raises(ValueError):
        numeric_taylor(lambda z: z, 0, 0.5)
    with pytest.raises(ValueError):
        numeric_taylor(lambda z: z, 4, rho=1.5)
    with pytest.raises(ValueError):
        numeric_taylor(lambda z: 1.0, 4, 0.5)  # one value, not one per sample point
    with pytest.raises(ValueError):
        numeric_taylor(lambda z: [z, z * np.nan], 4, 0.5)  # one non-finite row
    for bad in (lambda z: [z[1:], z[1:]], lambda z: [[z]]):  # rows one short, a third axis
        with pytest.raises(ValueError, match="one row of them per function"):
            numeric_taylor(bad, 4, 0.5)


def test_numeric_taylor_rejects_non_finite_coefficients_in_every_form():
    # finite samples, but 0.5**n underflows to 0 from n = 1075 on, and the
    # division by it gives inf or nan: one row alone and rows of a stack alike
    for f in (lambda z: 1 + z, lambda z: np.stack([1 + z, z])):
        with pytest.raises(ValueError, match="raise rho or lower the order"):
            numeric_taylor(f, 1100, rho=0.5)
    # the same order at a larger radius is finite
    assert np.all(np.isfinite(numeric_taylor(lambda z: np.stack([1 + z, z]), 1100, rho=0.9).coeffs))


def test_numeric_taylor_propagates_errors_from_the_function():
    calls = []

    def failing(z):
        calls.append(np.shape(z))
        raise ZeroDivisionError("inside the sampled function")

    with pytest.raises(ZeroDivisionError):
        numeric_taylor(failing, 4, 0.5)
    assert calls == [(32,)]  # one vectorised call, no per-point retry


def test_numeric_taylor_on_the_cached_circle_equals_a_fresh_circle():
    rng = np.random.default_rng(4)
    for order, rho in ((8, 0.5), (96, 0.9), (128, 0.92), (16, 0.5)):
        for _ in range(2):  # the second call reads the cached circle
            c = random_decaying_series(rng, 12)
            f = lambda z: np.polynomial.polynomial.polyval(z, c) / (1.3 - z)
            assert np.array_equal(numeric_taylor(f, order, rho).coeffs[0], numeric_taylor_reference(f, order, rho))


def test_taylor_coefficients_rows_equal_numeric_taylor():
    rng = np.random.default_rng(5)
    z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    centres = [0.0, 0.3, -0.45, 0.25j, -0.2 - 0.35j]
    shifts = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in centres]
    funcs = [lambda u, c=c, d=d: np.exp(c + 0.3 * u) + np.polynomial.polynomial.polyval(u, d)
             for c, d in zip(centres, shifts)]
    rows = taylor_coefficients(np.array([f(z) for f in funcs]), 8, 0.5)
    assert rows.shape == (5, 9)
    stack = numeric_taylor(lambda u: [f(u) for f in funcs], 8, 0.5)
    assert isinstance(stack, SeriesStack) and stack.order == 8
    assert np.array_equal(stack.coeffs, rows)
    assert not stack.tail.q.any() and not stack.tail.C.any()  # no certificates
    for row, f in zip(rows, funcs):
        assert np.array_equal(row, numeric_taylor(f, 8, 0.5).coeffs[0])


def test_function_writing_into_its_samples_raises():
    def scribble(z):
        z *= 2.0
        return z

    with pytest.raises(ValueError, match="read-only"):
        numeric_taylor(scribble, 4, 0.5)
    # the shared circle is untouched: a later extraction is still exact
    assert np.allclose(numeric_taylor(lambda z: z, 4, 0.5).coeffs[0], [0, 1, 0, 0, 0], atol=1e-15)


def test_recenter_identity_at_zero():
    rng = np.random.default_rng(9)
    p = series(random_decaying_series(rng, 10))
    assert np.array_equal(recenter_affine(p, 0.0).coeffs, p.coeffs)


def test_recenter_single_term_scaling():
    g = recenter_affine(series([0.0, 1.0, 0.0]), 0.5)
    assert np.allclose(g.coeffs, [[0.0, 0.5, 0.0]])


def test_recenter_evaluation_oracle():
    # g(z) = sum alpha_n (z-gamma)^n must equal G((z-gamma)/(1-gamma))
    rng = np.random.default_rng(13)
    for gamma in (0.1, 0.5, 0.8):
        alpha = random_decaying_series(rng, 24)
        G = recenter_affine(series(alpha), gamma)
        z = gamma + 0.1
        lhs = polyval((z - gamma) / (1 - gamma), G.coeffs[0])
        rhs = polyval(z - gamma, alpha)
        assert abs(lhs - rhs) < 1e-12


def test_recenter_roundtrip_and_domain_errors():
    rng = np.random.default_rng(1)
    p = series(random_decaying_series(rng, 12))
    back = recenter_affine(p, 0.4).coeffs / 0.6 ** np.arange(13)
    assert np.max(np.abs(back - p.coeffs)) < 1e-14
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            recenter_affine(p, bad)


def test_recenter_tail_metadata():
    p = series(np.array([1.0, 0.5]), 0.5, 1.0)
    tail = recenter_affine(p, 0.5).tail
    assert (tail.q.tolist(), tail.C.tolist()) == ([0.25], [1.0])
    tail = recenter_affine(series([1.0, 0.5]), 0.5).tail  # no certificate stays none
    assert (tail.q.tolist(), tail.C.tolist()) == ([0.0], [0.0])


def test_stacked_recenter_equals_the_member_calls_bit_for_bit():
    rng = np.random.default_rng(8)
    members = [series(random_decaying_series(rng, 24), 0.5, 2.0) for _ in range(3)]
    stack = SeriesStack(np.concatenate([m.coeffs for m in members]), np.full(3, 0.5), np.full(3, 2.0))
    gammas = np.array([0.0, 0.4, 0.85])
    for gamma in (0.3, gammas):  # one gamma for all, one per member
        rescaled = recenter_affine(stack, gamma)
        for i, member in enumerate(members):
            alone = recenter_affine(member, float(np.broadcast_to(gamma, 3)[i]))
            assert np.array_equal(rescaled.coeffs[i], alone.coeffs[0])
            assert (rescaled.tail.q[i], rescaled.tail.C[i]) == (alone.tail.q[0], alone.tail.C[0])
    for bad in (1.0, -0.1, np.array([0.2, 0.3]), np.array([0.2, 1.0, 0.3])):
        with pytest.raises(ValueError, match="gamma"):
            recenter_affine(stack, bad)


def test_disk_domain_geometry():
    dom = DiskDomain(0.5)
    assert disk_domain_contains(dom, 0.999)
    assert disk_domain_contains(dom, -2.9)
    assert not disk_domain_contains(dom, 1.001)
    # the affine maps are mutually inverse and send the unit circle to the boundary
    z = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    assert np.max(np.abs(dom.to_unit_disk(from_unit_disk(dom, z)) - z)) < 1e-14
    assert np.all(disk_domain_contains(dom, from_unit_disk(dom, z)))
    with pytest.raises(ValueError):
        DiskDomain(1.0)
