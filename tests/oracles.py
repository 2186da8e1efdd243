"""Independent oracles for the test suite.

Everything above the reference section is deliberately written from first
principles (direct summation of the defining formulas, pointwise quadrature)
and never calls the evaluators under test, so agreement is meaningful.

The reference section keeps the plain per-sample versions of code that the
package now runs batched: the uncached ``numeric_taylor``, the O(n^2)
Blaschke derivative, the full family power vector, five sampled checks and
the family solve that ran one member after another.  Tests assert that the
batched code equals them bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import pairwise
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


# ----------------------------------------------------------------------
# references: the per-sample code that the package now runs batched


def numeric_taylor_reference(f: Callable, order: int, rho: float = 0.5) -> np.ndarray:
    """``series.numeric_taylor`` coefficients from a freshly built circle of 8 * order points."""
    m = 8 * order
    z = rho * np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.asarray(f(z), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function produced non-finite samples on the circle")
    coeffs = np.fft.fft(vals)[: order + 1] / m
    return coeffs / rho ** np.arange(order + 1)


def family_coeffs_reference(params, order: int) -> np.ndarray:
    """Family coefficients with every power q**n computed, underflowed ones included."""
    coeffs = np.empty(order + 1, dtype=np.complex128)
    coeffs[0] = params.constant_term
    coeffs[1:] = -params.coefficient_scale * params.decay_ratio ** np.arange(1, order + 1)
    return coeffs


def blaschke_deriv_reference(f, z):
    """Derivative of a ``BlaschkeProduct``, each factor's terms formed afresh per product."""
    z = np.asarray(z, dtype=np.complex128)
    total = np.zeros(z.shape, dtype=np.complex128)
    for j, w in enumerate(f.zeros):
        term = -(1.0 - abs(w) ** 2) / (1.0 - np.conjugate(w) * z) ** 2
        for i, v in enumerate(f.zeros):
            if i != j:
                term = term * (v - z) / (1.0 - np.conjugate(v) * z)
        total = total + term
    total = f.rotation * total
    return total[()] if total.ndim == 0 else total


def schwarz_pick_reference(n_samples: int = 200, seed: int = 42, tol: float = 1e-10):
    """``check_schwarz_pick`` with f(z) and the reference derivative per sample."""
    from bohrlab import verify

    rng = np.random.default_rng(seed)
    samples = [verify.random_blaschke(rng) for _ in range(n_samples)]
    z = verify._disk_grid()
    r = np.abs(z)
    worst, witness = np.inf, {}
    for idx, f in enumerate(samples):
        vals = np.abs(np.asarray(f(z)))
        derivs = np.abs(np.asarray(blaschke_deriv_reference(f, z)))
        f0 = abs(complex(f(0.0)))
        growth = (r + f0) / (1.0 + f0 * r) - vals
        slope = (1.0 - vals**2) / (1.0 - r**2) - derivs
        for label, slack in (("growth", growth), ("derivative", slope)):
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                witness = {"sample": idx, "inequality": label, "z": [float(z[j].real), float(z[j].imag)]}
    return verify.CheckReport.from_slack("schwarz-pick", len(samples), worst, witness, tol)


def ruscheweyh_reference(
    n_samples: int = 100,
    alphas=(0.0, 0.3, -0.45, 0.25j, -0.2 - 0.35j),
    n_max: int = 8,
    seed: int = 42,
    tol: float = 1e-8,
):
    """``check_ruscheweyh`` with one ``numeric_taylor`` call per sample and centre."""
    from bohrlab import verify
    from bohrlab.series import numeric_taylor

    rng = np.random.default_rng(seed)
    worst, witness, skipped = np.inf, {}, 0
    powers = np.arange(1, n_max + 1, dtype=float)
    for i in range(n_samples):
        f = verify.random_blaschke(rng)
        for alpha in alphas:
            alpha = complex(alpha)
            s = 0.45 * (1.0 - abs(alpha))
            try:
                p = numeric_taylor(lambda u: f(alpha + s * u), n_max, rho=0.5)
            except ValueError:
                skipped += 1
                continue
            fa = abs(p.coeffs[0])
            derivs = np.abs(p.coeffs[1:]) / s**powers
            bounds = (1.0 - fa**2) / ((1.0 - abs(alpha)) ** (powers - 1.0) * (1.0 - abs(alpha) ** 2))
            slack = bounds - derivs
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                witness = {"sample": i, "alpha": [alpha.real, alpha.imag], "n": j + 1}
    witness["skipped"] = skipped
    return verify.CheckReport.from_slack("ruscheweyh-derivatives", n_samples * len(alphas), worst, witness, tol)


def dilatation_coefficients_reference(
    n_samples: int = 100, k: float = 0.5, order: int = 128, seed: int = 42, tol: float = 1e-8, rho: float = 0.92
):
    """``check_dilatation_coefficients`` with one ``numeric_taylor`` call each for
    h and omega and the full product ``mul(omega, differentiate(h))`` per sample."""
    from bohrlab import verify
    from bohrlab.extremals import HarmonicExtremalParams, harmonic_extremal
    from bohrlab.series import differentiate, mul, numeric_taylor

    rng = np.random.default_rng(seed)
    r_grid = np.linspace(0.05, 0.9, 18)
    worst, witness = np.inf, {}

    def fold(slacks, payload):
        nonlocal worst, witness
        j = int(np.argmin(slacks))
        if slacks[j] < worst:
            worst = float(slacks[j])
            witness = dict(payload, r=float(r_grid[j]))

    powers = r_grid[None, :] ** np.arange(order + 1, dtype=float)[:, None]
    for i in range(n_samples):
        h = numeric_taylor(verify.random_blaschke(rng), order, rho=rho)
        omega = numeric_taylor(verify.random_blaschke(rng), order, rho=rho)
        prod = mul(omega, differentiate(h))
        b = np.zeros(order + 1, dtype=np.complex128)
        b[1:] = k * prod.coeffs / np.arange(1, order + 1)
        fold(k**2 * (np.abs(h.coeffs) ** 2 @ powers) - np.abs(b) ** 2 @ powers,
             {"sample": i, "kind": "integrated-dilatation", "k": k})
    combos = [HarmonicExtremalParams(a, gamma, kk, lam) for a in (0.3, 0.7, 1.0 - 2.0**-12)
              for gamma in (0.0, 0.5, 0.9) for kk in (0.0, 0.5, 1.0) for lam in (0.4, 1.0)]
    fam_powers = r_grid[None, :] ** np.arange(513, dtype=float)[:, None]
    for params in combos:
        h, g = harmonic_extremal(params, 512)
        fold(params.k**2 * (np.abs(h.coeffs) ** 2 @ fam_powers) - np.abs(g.coeffs) ** 2 @ fam_powers,
             {"kind": "harmonic-extremal", "a": params.a, "gamma": params.gamma, "k": params.k})
    return verify.CheckReport.from_slack("dilatation-coefficients", n_samples + len(combos), worst, witness, tol)


def family_deficit_identity_reference(n_samples: int = 100, seed: int = 42, order: int = 2048, tol: float = 1e-10):
    """``check_family_deficit_identity`` building the family member twice per
    sample: once alone for the area and norm identities, once inside the
    harmonic pair."""
    from bohrlab import functionals, verify
    from bohrlab.extremals import (HarmonicExtremalParams, MobiusFamilyParams, harmonic_extremal,
                                   mobius_family_coeffs)

    rng = np.random.default_rng(seed)
    worst_resid, witness = 0.0, {}
    for i in range(n_samples):
        gamma = float(rng.uniform(0.0, 0.9))
        a = float(rng.uniform(max(gamma + 0.02, 0.05), 0.995))
        r = float(rng.uniform(0.01, 0.9))
        k = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        pref = (1.0 - a) / (1.0 - a * gamma)
        p = mobius_family_coeffs(MobiusFamilyParams(a, gamma, sharpness_witness=True), order)
        resids = {
            "area": abs(functionals.area_refined_total(p, r, gamma).total
                        - (1.0 - (1.0 - a) * verify.family_area_deficit(r, a, gamma))),
            "norm": abs(functionals.norm_refined_total(p, r).total
                        - (1.0 - pref * verify.family_norm_deficit(r, a, gamma))),
        }
        h, g = harmonic_extremal(HarmonicExtremalParams(a, gamma, k, lam), order)
        resids["harmonic"] = abs(functionals.harmonic_total(h, g, r).total
                                 - (1.0 - pref * verify.family_harmonic_deficit(r, a, gamma, k, lam)))
        for label, resid in resids.items():
            if resid > worst_resid:
                worst_resid = resid
                witness = {"sample": i, "identity": label, "gamma": gamma, "a": a, "r": r}
    return verify.CheckReport.from_slack("family-deficit-identity", n_samples, -worst_resid, witness, tol)


def recentred_slack_certificate_reference(
    n_samples: int = 30, gammas=(0.0, 0.3, 0.6), order: int = 96, seed: int = 42, tol: float = 1e-8
):
    """``check_recentred_slack_certificate`` with one scalar call per radius."""
    from bohrlab import verify
    from bohrlab.series import PowerSeries, numeric_taylor

    rng = np.random.default_rng(seed)
    worst, witness = np.inf, {}
    for i in range(n_samples):
        gamma = float(gammas[i % len(gammas)])
        f = verify.random_blaschke(rng)
        s = 0.9 * (1.0 - gamma)
        c = numeric_taylor(lambda u: f(gamma + s * u), order, rho=0.9)
        alpha = PowerSeries(c.coeffs / s ** np.arange(order + 1))
        a0 = abs(alpha.coeffs[0])
        for r in np.linspace(0.05, 0.8 * (1.0 - gamma), 6):
            total = verify.recentred_area_total(alpha, float(r), gamma).total
            cap = 1.0 + verify.recentred_slack(float(r), a0, gamma)
            if cap - total < worst:
                worst = cap - total
                witness = {"sample": i, "gamma": gamma, "r": float(r), "a0_abs": float(a0)}
    return verify.CheckReport.from_slack("recentred-slack-certificate", n_samples, worst, witness, tol)


def _padded(value) -> float:
    return value.padded() if hasattr(value, "padded") else float(value)


def stacked_bound(bound_for: Callable, family) -> Callable:
    """The family bound ``family_infimum_radius`` takes, from per-member bounds:
    row i of its value is ``bound_for(family[i])`` padded at r[i]."""
    bounds = [bound_for(params) for params in family]
    return lambda r: np.array([_padded(bound(float(x))) for bound, x in zip(bounds, r)])


def family_infimum_reference(bound_for: Callable, family, tol: float = 1e-10):
    """``solver.family_infimum_radius`` solving one member after another, each
    with ``bohr_radius_of_function`` on its own per-member bound."""
    from bohrlab.solver import RadiusResult, bohr_radius_of_function

    members = list(family)
    results = [bohr_radius_of_function(bound_for(p), tol) for p in members]
    for params, res in zip(members, results):
        if res.status == "no_radius":
            return dataclasses.replace(res, witness=params)
    witnesses = sorted((p.a, res.radius) for p, res in zip(members, results) if p.a > p.gamma)
    rises = any(left < right - tol for (_, left), (_, right) in pairwise(witnesses))
    best = min(range(len(members)), key=lambda i: results[i].radius)
    base = results[best]
    return RadiusResult(
        radius=base.radius,
        bracket=(base.radius, base.radius + base.tol),
        tol=tol if base.constrained else base.tol,
        iterations=sum(r.iterations for r in results),
        witness=members[best],
        status=base.status,
        diagnostics=("per-function radius is not nonincreasing in a",) if rises else (),
        members=tuple(dict(a=p.a, radius=r.radius, iterations=r.iterations)
                      for p, r in zip(members, results)),
    )
