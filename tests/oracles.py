"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (direct
summation of the defining formulas, pointwise quadrature) and never calls
the evaluators under test, so agreement is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def family_constant_term(a: float, gamma: float) -> float:
    return (a - gamma) / (1.0 - a * gamma)


def family_coefficient(a: float, gamma: float, n: int) -> float:
    """|n-th coefficient| of the extremal family member, n >= 1."""
    q = a * (1.0 - gamma) / (1.0 - a * gamma)
    return (1.0 - a**2) / (a * (1.0 - a * gamma)) * q**n


def automorphism_coeffs(a: float, n_max: int) -> np.ndarray:
    """Taylor coefficients of (a - z)/(1 - a z): a, then -(1-a^2) a^(n-1)."""
    out = np.empty(n_max + 1)
    out[0] = a
    for n in range(1, n_max + 1):
        out[n] = -(1.0 - a**2) * a ** (n - 1)
    return out


def brute_force_majorant(a: float, gamma: float, r: float, terms: int = 10**4) -> float:
    total = abs(family_constant_term(a, gamma))
    for n in range(1, terms + 1):
        total += family_coefficient(a, gamma, n) * r**n
    return total


def brute_force_norm(a: float, gamma: float, r: float, terms: int = 10**4) -> float:
    return sum(family_coefficient(a, gamma, n) ** 2 * r ** (2 * n) for n in range(1, terms + 1))


def brute_force_area(a: float, gamma: float, rho: float, terms: int = 10**4) -> float:
    return sum(n * family_coefficient(a, gamma, n) ** 2 * rho ** (2 * n) for n in range(1, terms + 1))


def quadrature_mean_square_derivative(coeffs: np.ndarray, r: float) -> float:
    """(1/pi) * integral of |f'|^2 over |z| < r by tensor quadrature.

    Gauss-Legendre in radius and equispaced trapezoid in angle; both rules
    are exact for the polynomial integrand, so the only error is roundoff.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deg = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, deg + 1)
    n_theta = max(8, 4 * deg + 8)
    n_rad = deg + 4
    nodes, wts = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * r * (nodes + 1.0)
    w_rho = 0.5 * r * wts
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = rho[:, None] * np.exp(1j * theta)[None, :]
    fp = np.polynomial.polynomial.polyval(z, dcoeffs)
    angular_mean = np.mean(np.abs(fp) ** 2, axis=1)
    # (1/pi) * 2*pi * sum_rho mean_theta |f'|^2 * rho * w
    return float(2.0 * np.sum(angular_mean * rho * w_rho))


def random_decaying_series(rng, order: int, decay: float = 0.6) -> np.ndarray:
    """Random complex coefficients with geometric decay, for evaluation tests."""
    mags = decay ** np.arange(order + 1)
    return (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) * mags


def bisection_radius(padded, tol: float = 1e-10, upper: float = 1.0 - 1e-6) -> tuple[float, int]:
    """(largest r in [0, upper] with padded(r) <= 1, steps) by plain bisection.

    ``padded(0) <= 1 < padded(upper)`` is assumed; the loop stops when the
    bracket is at most tol wide or its midpoint is one of its ends.
    """
    lo, hi, steps = 0.0, upper, 0
    while hi - lo > tol and 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if padded(mid) <= 1.0 else (lo, mid)
        steps += 1
    return lo, steps


def area_upper_bound(a0_abs: float, r: float) -> float:
    """Bound (1-|a_0|^2)^2 r^2 / (1-r^2)^2 on the Dirichlet area of any bounded function."""
    if not 0.0 <= a0_abs <= 1.0:
        raise ValueError(f"|a_0| must lie in [0, 1], got {a0_abs}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    return (1.0 - a0_abs**2) ** 2 * r**2 / (1.0 - r**2) ** 2


def disk_domain_contains(domain, z) -> np.ndarray:
    """Whether z lies in the open disk of ``domain`` (a ``DiskDomain``)."""
    return np.abs(np.asarray(z) - domain.center) < domain.radius


def from_unit_disk(domain, z):
    """Affine bijection sending the unit disk onto ``domain`` (a ``DiskDomain``)."""
    return (np.asarray(z) - domain.gamma) / (1.0 - domain.gamma)


def family_member(params, z):
    """The family member (a - gamma - (1-gamma) z) / (1 - a*gamma - a (1-gamma) z)
    of ``params`` (a ``MobiusFamilyParams``), evaluated in closed form."""
    z = np.asarray(z)
    num = params.a - params.gamma - (1.0 - params.gamma) * z
    den = 1.0 - params.a * params.gamma - params.a * (1.0 - params.gamma) * z
    return num / den


@dataclass(frozen=True)
class AnalyticSample:
    """Callable-with-derivative wrapper for hand-built test functions."""

    func: Callable
    dfunc: Callable

    def __call__(self, z):
        return self.func(z)

    def deriv(self, z):
        return self.dfunc(z)
