"""Executable checks for the inequalities behind the radius computations.

Each check samples functions (random products of disk-automorphism factors,
members of the closed-form extremal family, or user-supplied callables),
evaluates both sides of one inequality on a grid, and reports the worst slack
together with the parameters that witness it.  A report passes when the worst
slack stays above minus the assertion tolerance.

The module also carries the named closed forms that drive the bounds: slack
certificates, deficit functions of the extremal family, and the scalar
envelopes whose sign and monotonicity structure make the radii sharp.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import functionals
from .extremals import (
    HarmonicExtremalParams,
    MobiusFamilyParams,
    harmonic_extremal,
    mobius_family_coeffs,
)
from .functionals import DEFAULT_AREA_WEIGHT, FunctionalValue, sharp_majorant_radius
from .series import DiskDomain, PowerSeries, _circle, numeric_taylor, recenter_affine, taylor_coefficients

__all__ = [
    "CheckReport",
    "BlaschkeProduct",
    "random_blaschke",
    "bounded_on_disk_domain",
    "check_schwarz_pick",
    "check_coefficient_bounds",
    "check_ruscheweyh",
    "check_dilatation_coefficients",
    "check_family_deficit_identity",
    "check_recentred_consistency",
    "check_recentred_slack_certificate",
    "recentred_area_total",
    "recentred_slack",
    "recentred_slack_envelope",
    "area_coupling",
    "norm_envelope",
    "norm_envelope_coeffs",
    "norm_envelope_slope",
    "norm_envelope_curvature",
    "norm_radius_criterion",
    "weighted_area_slack",
    "harmonic_radius_cap",
    "family_area_deficit",
    "family_norm_deficit",
    "family_harmonic_deficit",
    "shape_reports",
    "default_checks",
    "run_default_checks",
    "reports_to_json",
]

# Default assertion tolerance once numeric Taylor extraction is in the loop;
# pure closed-form grid assertions use 1e-12 and pointwise closed-form
# inequalities 1e-10 directly.
NUMERIC_TOL = 1e-8


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled inequality check."""

    name: str
    samples: int
    worst_slack: float
    witness: dict
    passed: bool
    tolerance: float

    @classmethod
    def from_slack(cls, name, samples, worst_slack, witness, tolerance) -> "CheckReport":
        worst = float(worst_slack)
        return cls(name, int(samples), worst, witness, bool(worst >= -tolerance), float(tolerance))


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# sample generators


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite product of automorphism factors (w - z)/(1 - conj(w) z), rotated.

    Its modulus never exceeds one on the closed unit disk, and both the value
    and the derivative have cheap closed forms, which makes random products a
    convenient falsification family for bounded-function inequalities.
    """

    zeros: tuple
    rotation: complex = 1.0 + 0.0j

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.rotation, dtype=np.complex128)
        for w in self.zeros:
            out = out * (w - z) / (1.0 - np.conjugate(w) * z)
        return out[()] if out.ndim == 0 else out

    def deriv(self, z):
        return self.value_and_deriv(z)[1]

    def value_and_deriv(self, z):
        """(f(z), f'(z)), each factor's w - z and 1 - conj(w) z formed once."""
        z = np.asarray(z, dtype=np.complex128)
        nums = [w - z for w in self.zeros]
        dens = [1.0 - np.conjugate(w) * z for w in self.zeros]
        value = np.full(z.shape, self.rotation, dtype=np.complex128)
        total = np.zeros(z.shape, dtype=np.complex128)
        for j, w in enumerate(self.zeros):
            value = value * nums[j] / dens[j]
            term = -(1.0 - abs(w) ** 2) / dens[j] ** 2
            for i in range(len(self.zeros)):
                if i != j:
                    term = term * nums[i] / dens[i]
            total = total + term
        total = self.rotation * total
        return value[()], total[()]


def random_blaschke(rng, max_factors: int = 4, zero_radius: float = 0.9, rotate: bool = True) -> BlaschkeProduct:
    """Product of 1..max_factors factors with zeros uniform in |z| <= zero_radius."""
    n = int(rng.integers(1, max_factors + 1))
    radii = zero_radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    zeros = tuple(radii * np.exp(1j * angles))
    rotation = complex(np.exp(2j * np.pi * rng.uniform())) if rotate else 1.0 + 0.0j
    return BlaschkeProduct(zeros, rotation)


def bounded_on_disk_domain(sample: Callable, domain: DiskDomain) -> Callable:
    """Turn a unit-disk-bounded sample into one bounded on the enlarged domain
    by precomposing with the affine contraction onto the unit disk."""
    return lambda w: sample(domain.to_unit_disk(w))


def _disk_grid(n_radii: int = 20, n_angles: int = 50, r_max: float = 0.95) -> np.ndarray:
    radii = np.linspace(0.05, r_max, n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


# ----------------------------------------------------------------------
# sampled inequality checks


def check_schwarz_pick(
    n_samples: int = 200,
    seed: int = 42,
    tol: float = 1e-10,
    samples: Sequence | None = None,
    grid: np.ndarray | None = None,
) -> CheckReport:
    """Pointwise growth bound |f(z)| <= (r+|f(0)|)/(1+|f(0)|r) and derivative
    bound |f'(z)| <= (1-|f(z)|^2)/(1-|z|^2) for bounded analytic samples."""
    rng = np.random.default_rng(seed)
    if samples is None:
        samples = [random_blaschke(rng) for _ in range(n_samples)]
    z = _disk_grid() if grid is None else np.asarray(grid)
    r = np.abs(z)
    one_minus_r2 = 1.0 - r**2
    worst = np.inf
    witness: dict = {}
    for idx, f in enumerate(samples):
        pair = f.value_and_deriv(z) if isinstance(f, BlaschkeProduct) else (f(z), f.deriv(z))
        vals, derivs = (np.abs(np.asarray(v)) for v in pair)
        f0 = abs(complex(f(0.0)))
        growth = (r + f0) / (1.0 + f0 * r) - vals
        slope = (1.0 - vals**2) / one_minus_r2 - derivs
        for label, slack in (("growth", growth), ("derivative", slope)):
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                witness = {"sample": idx, "inequality": label, "z": [float(z[j].real), float(z[j].imag)]}
    return CheckReport.from_slack("schwarz-pick", len(samples), worst, witness, tol)


def check_coefficient_bounds(
    n_samples: int = 120,
    gammas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    n_max: int = 16,
    seed: int = 42,
    tol: float = NUMERIC_TOL,
    rho: float = 0.5,
) -> CheckReport:
    """|a_n| <= (1 - |a_0|^2)/(1 + gamma) for the unit-disk coefficients of
    functions bounded on the enlarged disk (gamma = 0 is the classical bound)."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness: dict = {}
    for i in range(n_samples):
        gamma = float(gammas[i % len(gammas)])
        f = bounded_on_disk_domain(random_blaschke(rng), DiskDomain(gamma))
        p = numeric_taylor(f, n_max, rho=rho)
        a0 = abs(p.coeffs[0])
        bound = (1.0 - a0**2) / (1.0 + gamma)
        slack = bound - np.abs(p.coeffs[1:])
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            witness = {"sample": i, "gamma": gamma, "n": j + 1, "a0_abs": float(a0)}
    return CheckReport.from_slack("coefficient-bounds", n_samples, worst, witness, tol)


def check_ruscheweyh(
    n_samples: int = 100,
    alphas: Sequence[complex] = (0.0, 0.3, -0.45, 0.25j, -0.2 - 0.35j),
    n_max: int = 8,
    seed: int = 42,
    tol: float = NUMERIC_TOL,
) -> CheckReport:
    """Off-center derivative bound
    |f^(n)(alpha)| / n! <= (1 - |f(alpha)|^2) / ((1-|alpha|)^(n-1) (1-|alpha|^2)).

    Derivatives are Taylor coefficients of f(alpha + s u), which keeps them
    well conditioned; each sample is evaluated on every centre's circle at
    once, and a centre whose samples are not finite is skipped and counted.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness: dict = {}
    skipped = 0
    powers = np.arange(1, n_max + 1, dtype=float)
    centres = [complex(alpha) for alpha in alphas]
    scales = [0.45 * (1.0 - abs(alpha)) for alpha in centres]
    points = np.array([alpha + s * _circle(8 * n_max, 0.5) for alpha, s in zip(centres, scales)])
    scale_powers = np.array([s**powers for s in scales])
    denoms = np.array([(1.0 - abs(alpha)) ** (powers - 1.0) * (1.0 - abs(alpha) ** 2) for alpha in centres])
    for i in range(n_samples):
        vals = random_blaschke(rng)(points)
        rows = np.flatnonzero(np.isfinite(vals).all(axis=1))
        skipped += len(centres) - rows.size
        if rows.size == 0:
            continue
        coeffs = taylor_coefficients(vals[rows], n_max, 0.5)
        fa = np.hypot(coeffs[:, :1].real, coeffs[:, :1].imag)  # as abs() rounds a scalar
        slack = (1.0 - fa**2) / denoms[rows] - np.abs(coeffs[:, 1:]) / scale_powers[rows]
        row, j = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[row, j] < worst:
            worst = float(slack[row, j])
            alpha = centres[rows[row]]
            witness = {"sample": i, "alpha": [alpha.real, alpha.imag], "n": int(j) + 1}
    witness["skipped"] = skipped
    return CheckReport.from_slack("ruscheweyh-derivatives", n_samples * len(alphas), worst, witness, tol)


def check_dilatation_coefficients(
    n_samples: int = 100,
    k: float = 0.5,
    order: int = 128,
    seed: int = 42,
    tol: float = NUMERIC_TOL,
    r_grid: np.ndarray | None = None,
    rho: float = 0.92,
) -> CheckReport:
    """Coefficient inequality sum |b_n|^2 r^n <= k^2 sum |a_n|^2 r^n for
    co-analytic parts g with |g'| <= k |h'|.

    Random samples integrate g' = k * omega * h' for a random inner function
    omega; the closed-form harmonic family (g = k*lambda*(h - h(0))) is
    checked alongside.
    """
    rng = np.random.default_rng(seed)
    if r_grid is None:
        r_grid = np.linspace(0.05, 0.9, 18)
    r_grid = np.asarray(r_grid, dtype=float)
    worst = np.inf
    witness: dict = {}

    def fold(slacks: np.ndarray, payload: dict) -> None:
        nonlocal worst, witness
        j = int(np.argmin(slacks))
        if slacks[j] < worst:
            worst = float(slacks[j])
            witness = dict(payload, r=float(r_grid[j]))

    powers = r_grid[None, :] ** np.arange(order + 1, dtype=float)[:, None]
    z = _circle(8 * order, rho)
    n = np.arange(1, order + 1)
    for i in range(n_samples):
        # h, then omega, as drawn; both expanded by one FFT
        h, omega = taylor_coefficients(np.stack([random_blaschke(rng)(z), random_blaschke(rng)(z)]), order, rho)
        b = np.zeros(order + 1, dtype=np.complex128)
        # the first `order` terms of omega h', from the terms of omega that reach them
        b[1:] = k * np.convolve(omega[:order], h[1:] * n)[:order] / n
        lhs = np.abs(b) ** 2 @ powers
        rhs = k**2 * (np.abs(h) ** 2 @ powers)
        fold(rhs - lhs, {"sample": i, "kind": "integrated-dilatation", "k": k})

    combos = [
        HarmonicExtremalParams(a, gamma, kk, lam)
        for a in (0.3, 0.7, 1.0 - 2.0**-12)
        for gamma in (0.0, 0.5, 0.9)
        for kk in (0.0, 0.5, 1.0)
        for lam in (0.4, 1.0)
    ]
    fam_powers = r_grid[None, :] ** np.arange(513, dtype=float)[:, None]
    for params in combos:
        h, g = harmonic_extremal(params, 512)
        lhs = np.abs(g.coeffs) ** 2 @ fam_powers
        rhs = params.k**2 * (np.abs(h.coeffs) ** 2 @ fam_powers)
        slacks = rhs - lhs
        fold(slacks, {"kind": "harmonic-extremal", "a": params.a, "gamma": params.gamma, "k": params.k})
    return CheckReport.from_slack(
        "dilatation-coefficients", n_samples + len(combos), worst, witness, tol
    )


# ----------------------------------------------------------------------
# closed forms: deficits of the extremal family and scalar envelopes


def family_area_deficit(r, a, gamma, weight=DEFAULT_AREA_WEIGHT):
    """Deficit below one of the area-refined total on the extremal family,
    scaled by (1-a): total = 1 - (1-a) * deficit."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    lead = (1.0 + gamma) / (1.0 - a * gamma)
    series_term = (1.0 + a) / (1.0 - a * gamma) * (r * (1.0 - gamma)) / d
    denom = (1.0 - a * gamma) ** 2 - a**2 * r**2 * (1.0 - gamma) ** 4
    area_term = weight * (1.0 - a) * (1.0 + a) ** 2 * (1.0 - gamma) ** 4 * r**2 / denom**2
    return lead - series_term - area_term


def family_norm_deficit(r, a, gamma):
    """Deficit of the norm-refined total on the family, scaled by (1-a)/(1-a*gamma)."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    t2 = (1.0 + a) * (1.0 - gamma) * r / d
    pref = (1.0 - a * gamma) / ((1.0 + a) * (1.0 - gamma)) + r / (1.0 - r)
    denom = (1.0 - a * gamma) ** 2 - a**2 * (1.0 - gamma) ** 2 * r**2
    t3 = pref * (1.0 + a) * (1.0 - a**2) / (1.0 - a * gamma) * (1.0 - gamma) ** 2 * r**2 / denom
    return (1.0 + gamma) - t2 - t3


def family_harmonic_deficit(r, a, gamma, k, lam):
    """Deficit of the harmonic joint majorant on the family, scaled by
    (1-a)/(1-a*gamma); the tail sum carries the multiplier 1 + k*lambda."""
    d = 1.0 - a * gamma - a * (1.0 - gamma) * r
    return (1.0 + gamma) - (1.0 + k * lam) * (1.0 + a) * (1.0 - gamma) * r / d


def recentred_slack(r, a0_abs, gamma, weight=DEFAULT_AREA_WEIGHT):
    """Slack certificate for the recentred area bound: the bound holds at r
    whenever this expression is nonpositive.  Increasing in r on (0, 1-gamma)."""
    r = np.asarray(r, dtype=float)
    if np.any(r >= 1.0 - np.asarray(gamma)):
        raise ValueError("slack certificate requires r < 1 - gamma")
    one_minus_sq = 1.0 - np.asarray(a0_abs, dtype=float) ** 2
    value = (
        np.asarray(a0_abs, dtype=float)
        - 1.0
        + one_minus_sq * r / ((1.0 + gamma) * (1.0 - gamma - r))
        + weight * one_minus_sq**2 * r**2 / (1.0 - r**2) ** 2
    )
    return value if value.ndim else float(value)


def area_coupling(gamma):
    """(3+g)(1-g^2) / ((3+g)^2 - (1-g^2)^2): decreasing from 3/8 at 0 to 0 at 1."""
    num = (3.0 + gamma) * (1.0 - np.asarray(gamma, dtype=float) ** 2)
    den = (3.0 + gamma) ** 2 - (1.0 - np.asarray(gamma, dtype=float) ** 2) ** 2
    value = num / den
    return value if value.ndim else float(value)


def recentred_slack_envelope(x, gamma, weight=DEFAULT_AREA_WEIGHT):
    """Value of the slack certificate at its critical radius, rescaled:
    1 + 2 * weight * A(gamma)^2 (1 - x^2) - 2/(1+x); nonpositive on x in
    [0, 1] for every gamma exactly when the area weight stays at or below
    8/9 (gamma = 0 is the binding case)."""
    A = area_coupling(gamma)
    value = 1.0 + 2.0 * weight * A**2 * (1.0 - np.asarray(x, dtype=float) ** 2) - 2.0 / (1.0 + np.asarray(x, dtype=float))
    return value if value.ndim else float(value)


def norm_envelope_coeffs(r, gamma):
    """Coefficients (A, B, C) of the upper envelope in the constant-term modulus."""
    gp1 = 1.0 + gamma
    A = r / (gp1 * (1.0 - r))
    B = r**2 / (gp1**2 * (1.0 - r**2))
    C = r**3 / (gp1**2 * (1.0 - r) * (1.0 - r**2))
    return A, B, C


def norm_envelope(a, A, B, C):
    """Envelope a + A(1-a^2) + B(1-a)(1-a^2) + C(1-a^2)^2 dominating the
    norm-refined total over all functions with |a_0| = a."""
    a = np.asarray(a, dtype=float)
    value = a + A * (1.0 - a**2) + B * (1.0 - a) * (1.0 - a**2) + C * (1.0 - a**2) ** 2
    return value if value.ndim else float(value)


def norm_envelope_slope(a, A, B, C):
    a = np.asarray(a, dtype=float)
    value = 1.0 - 2.0 * A * a + B * (3.0 * a**2 - 2.0 * a - 1.0) + 4.0 * C * (a**3 - a)
    return value if value.ndim else float(value)


def norm_envelope_curvature(a, A, B, C):
    a = np.asarray(a, dtype=float)
    value = -2.0 * A + 2.0 * B * (3.0 * a - 1.0) + 4.0 * C * (3.0 * a**2 - 1.0)
    return value if value.ndim else float(value)


def norm_radius_criterion(r, gamma):
    """(1+r)(r(3+gamma) - (1+gamma)); vanishes exactly at the sharp radius and
    its sign decides the concavity of the norm envelope."""
    r = np.asarray(r, dtype=float)
    value = (1.0 + r) * (r * (3.0 + gamma) - (1.0 + gamma))
    return value if value.ndim else float(value)


def weighted_area_slack(x):
    """8/(1+x) - 5 + x^2: equals 3 at 0, 0 at 1, nonincreasing in between."""
    x = np.asarray(x, dtype=float)
    value = 8.0 / (1.0 + x) - 5.0 + x**2
    return value if value.ndim else float(value)


def harmonic_radius_cap(a, gamma, k):
    """Per-modulus harmonic radius (1+gamma)/(1+gamma+(1+a)(1+k)); its value
    at a = 1 is the family-wide sharp radius."""
    a = np.asarray(a, dtype=float)
    value = (1.0 + gamma) / (1.0 + gamma + (1.0 + a) * (1.0 + k))
    return value if value.ndim else float(value)


# ----------------------------------------------------------------------
# recentred functional and the checks tying the closed forms together


def recentred_area_total(
    p: PowerSeries, r: float | np.ndarray, gamma: float, weight: float = DEFAULT_AREA_WEIGHT
) -> FunctionalValue:
    """Majorant of a series expanded about gamma plus the weighted Dirichlet
    area of its unit-disk rescaling at the same radius (or radii, as in
    :mod:`functionals`).

    Feeding it the recentred coefficients of a function on the enlarged disk
    at radius r*(1-gamma) reproduces :func:`functionals.area_refined_total`.
    """
    functionals._check_radius(r)
    m, m_tail = functionals._majorant(p, r)
    area, area_tail = functionals._dirichlet_area(recenter_affine(p, gamma), r)
    return FunctionalValue(m + weight * area, m, weight * area, r, m_tail + weight * area_tail)


def check_recentred_consistency(
    n_samples: int = 25, seed: int = 42, order: int = 128, tol: float = 1e-12
) -> CheckReport:
    """The centered and recentred evaluations of the area-refined total must
    agree on the extremal family."""
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    witness: dict = {}
    for i in range(n_samples):
        gamma = float(rng.uniform(0.0, 0.9))
        a = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.9))
        p = mobius_family_coeffs(MobiusFamilyParams(a, gamma), order)
        direct = functionals.area_refined_total(p, r, gamma).total
        recentred = recentred_area_total(
            PowerSeries(p.coeffs / (1.0 - gamma) ** np.arange(order + 1)),
            r * (1.0 - gamma),
            gamma,
        ).total
        resid = abs(direct - recentred)
        if resid > worst_resid:
            worst_resid = resid
            witness = {"sample": i, "gamma": gamma, "a": a, "r": r}
    return CheckReport.from_slack("recentred-consistency", n_samples, -worst_resid, witness, tol)


def check_recentred_slack_certificate(
    n_samples: int = 30,
    gammas: Sequence[float] = (0.0, 0.3, 0.6),
    order: int = 96,
    seed: int = 42,
    tol: float = NUMERIC_TOL,
) -> CheckReport:
    """recentred_area_total <= 1 + recentred_slack(r, |alpha_0|) for bounded
    samples expanded about gamma; ties the slack certificate to its meaning."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness: dict = {}
    for i in range(n_samples):
        gamma = float(gammas[i % len(gammas)])
        f = random_blaschke(rng)
        s = 0.9 * (1.0 - gamma)
        c = numeric_taylor(lambda u: f(gamma + s * u), order, rho=0.9)
        alpha = PowerSeries(c.coeffs / s ** np.arange(order + 1))
        a0 = abs(alpha.coeffs[0])
        r = np.linspace(0.05, 0.8 * (1.0 - gamma), 6)
        slack = 1.0 + recentred_slack(r, a0, gamma) - recentred_area_total(alpha, r, gamma).total
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = slack[j]
            witness = {"sample": i, "gamma": gamma, "r": float(r[j]), "a0_abs": float(a0)}
    return CheckReport.from_slack("recentred-slack-certificate", n_samples, worst, witness, tol)


def check_family_deficit_identity(
    n_samples: int = 100, seed: int = 42, order: int = 2048, tol: float = 1e-10
) -> CheckReport:
    """The evaluated totals on the extremal family must match the closed-form
    deficit identities:

      area-refined total      = 1 - (1-a) * family_area_deficit(r)
      norm-refined total      = 1 - (1-a)/(1-a*gamma) * family_norm_deficit(r)
      harmonic joint majorant = 1 - (1-a)/(1-a*gamma) * family_harmonic_deficit(r)
    """
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    witness: dict = {}
    for i in range(n_samples):
        gamma = float(rng.uniform(0.0, 0.9))
        a = float(rng.uniform(max(gamma + 0.02, 0.05), 0.995))
        r = float(rng.uniform(0.01, 0.9))
        k = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        pref = (1.0 - a) / (1.0 - a * gamma)

        MobiusFamilyParams(a, gamma, sharpness_witness=True)  # a > gamma; h is this member
        h, g = harmonic_extremal(HarmonicExtremalParams(a, gamma, k, lam), order)
        resids = {
            "area": abs(
                functionals.area_refined_total(h, r, gamma).total
                - (1.0 - (1.0 - a) * family_area_deficit(r, a, gamma))
            ),
            "norm": abs(
                functionals.norm_refined_total(h, r).total
                - (1.0 - pref * family_norm_deficit(r, a, gamma))
            ),
            "harmonic": abs(
                functionals.harmonic_total(h, g, r).total
                - (1.0 - pref * family_harmonic_deficit(r, a, gamma, k, lam))
            ),
        }
        for label, resid in resids.items():
            if resid > worst_resid:
                worst_resid = resid
                witness = {"sample": i, "identity": label, "gamma": gamma, "a": a, "r": r}
    return CheckReport.from_slack("family-deficit-identity", n_samples, -worst_resid, witness, tol)


# ----------------------------------------------------------------------
# grid assertions on the scalar closed forms


def shape_reports(grid: int = 400) -> list[CheckReport]:
    """Sign and monotonicity checks of the scalar closed forms on dense grids."""
    reports: list[CheckReport] = []
    tol = 1e-12

    rs = {}
    for gamma in (0.0, 0.3, 0.6, 0.9):
        for x in (0.0, 0.5, 0.9):
            r = np.linspace(1e-4, (1.0 - gamma) * 0.999, grid)
            rs[(gamma, x)] = recentred_slack(r, x, gamma)
    worst = min(float(np.min(np.diff(v))) for v in rs.values())
    reports.append(
        CheckReport.from_slack(
            "shape:recentred-slack-increasing", len(rs) * grid, worst, {}, tol
        )
    )

    x = np.linspace(0.0, 1.0, grid)
    g = np.linspace(0.0, 1.0, grid, endpoint=False)
    env = recentred_slack_envelope(x[:, None], g[None, :])
    worst = float(-np.max(env))
    reports.append(
        CheckReport.from_slack("shape:slack-envelope-nonpositive", env.size, worst, {}, tol)
    )
    worst = float(np.min(np.diff(env, axis=0)))
    reports.append(
        CheckReport.from_slack("shape:slack-envelope-increasing", env.size, worst, {}, tol)
    )

    g = np.linspace(0.0, 1.0 - 1e-9, 1000)
    coupling = area_coupling(g)
    worst = min(float(np.min(-np.diff(coupling))), float(coupling[-1]))
    witness = {"at_zero": float(area_coupling(0.0)), "near_one": float(coupling[-1])}
    reports.append(
        CheckReport.from_slack("shape:area-coupling-decreasing", g.size, worst, witness, tol)
    )

    worst = np.inf
    count = 0
    for gamma in (0.0, 0.4, 0.8):
        for a in (0.3, 0.7, 0.95):
            if a <= gamma:
                continue
            r = np.linspace(1e-3, 0.95, grid)
            for fn in (
                lambda r: family_area_deficit(r, a, gamma),
                lambda r: family_norm_deficit(r, a, gamma),
                lambda r: family_harmonic_deficit(r, a, gamma, 0.5, 1.0),
            ):
                worst = min(worst, float(np.min(-np.diff(fn(r)))))
                count += grid
    reports.append(
        CheckReport.from_slack("shape:family-deficit-decreasing", count, worst, {}, tol)
    )

    worst = np.inf
    a = np.linspace(0.0, 1.0, 1000)
    count = 0
    for gamma in np.linspace(0.0, 0.9, 10):
        for r in np.linspace(0.01, sharp_majorant_radius(gamma), 12):
            A, B, C = norm_envelope_coeffs(float(r), float(gamma))
            worst = min(worst, float(np.min(-norm_envelope_curvature(a, A, B, C))))
            worst = min(worst, float(np.min(norm_envelope_slope(a, A, B, C))))
            worst = min(worst, float(np.min(1.0 - norm_envelope(a, A, B, C))))
            count += 3 * a.size
    reports.append(
        CheckReport.from_slack("shape:norm-envelope-concave-increasing", count, worst, {}, tol)
    )

    x = np.linspace(0.0, 1.0, 1000)
    ws = weighted_area_slack(x)
    worst = min(float(np.min(-np.diff(ws))), float(np.min(ws)))
    witness = {"at_zero": float(weighted_area_slack(0.0)), "at_one": float(weighted_area_slack(1.0))}
    reports.append(
        CheckReport.from_slack("shape:weighted-area-slack", x.size, worst, witness, tol)
    )

    g = np.linspace(0.0, 0.99, 1000)
    root_resid = np.abs(norm_radius_criterion((1.0 + g) / (3.0 + g), g))
    worst = float(-np.max(root_resid))
    reports.append(
        CheckReport.from_slack("shape:norm-radius-root", g.size, worst, {}, 1e-14)
    )

    a = np.linspace(0.0, 1.0, 500)
    worst = np.inf
    count = 0
    for gamma in (0.0, 0.5, 0.9):
        for k in (0.0, 0.5, 1.0):
            caps = harmonic_radius_cap(a, gamma, k)
            # decreasing in a, and the a = 1 value is the family-wide radius
            worst = min(worst, float(np.min(-np.diff(caps))))
            worst = min(worst, -abs(float(caps[-1]) - (1.0 + gamma) / (3.0 + 2.0 * k + gamma)))
            count += a.size
    reports.append(
        CheckReport.from_slack("shape:harmonic-radius-cap", count, worst, {}, tol)
    )

    # Near the extremal limit the deficits at the sharp radius collapse like
    # (1-a) * ((1+gamma)/(1-gamma))^2, so the raw smallness claim only holds
    # away from gamma -> 1; the scaled variant covers the full range.
    a_lim = 1.0 - 2.0**-14
    worst = np.inf
    worst_scaled = np.inf
    for gamma in np.linspace(0.0, 0.9, 10):
        r0 = sharp_majorant_radius(float(gamma))
        values = [
            family_area_deficit(r0, a_lim, float(gamma)),
            family_norm_deficit(r0, a_lim, float(gamma)),
            family_harmonic_deficit(
                (1.0 + gamma) / (4.0 + gamma), a_lim, float(gamma), 0.5, 1.0
            ),
        ]
        scale = ((1.0 - gamma) / (1.0 + gamma)) ** 2
        for v in values:
            if gamma <= 0.6:
                worst = min(worst, 1e-3 - abs(v))
            worst_scaled = min(worst_scaled, 1e-3 - abs(v) * scale)
    reports.append(CheckReport.from_slack("shape:family-deficit-limit", 30, worst, {}, 0.0))
    reports.append(
        CheckReport.from_slack("shape:family-deficit-limit-scaled", 30, worst_scaled, {}, 0.0)
    )
    return reports


# ----------------------------------------------------------------------
# batch runner


# Report names of shape_reports, in its order.
SHAPE_CHECKS = tuple("shape:" + name for name in """
    recentred-slack-increasing slack-envelope-nonpositive slack-envelope-increasing
    area-coupling-decreasing family-deficit-decreasing norm-envelope-concave-increasing
    weighted-area-slack norm-radius-root harmonic-radius-cap family-deficit-limit
    family-deficit-limit-scaled""".split())


def default_checks(seed: int = 42, fast: bool = False) -> dict[str, Callable[[], CheckReport]]:
    """Every check by report name, in a fixed order, each a thunk with its
    default sample size; the shape checks share one shape_reports() call."""
    scale = 0.4 if fast else 1.0

    def n(base: int) -> int:
        return max(10, int(base * scale))

    checks = {
        "schwarz-pick": lambda: check_schwarz_pick(n_samples=n(200), seed=seed),
        "coefficient-bounds": lambda: check_coefficient_bounds(n_samples=n(120), seed=seed),
        "ruscheweyh-derivatives": lambda: check_ruscheweyh(n_samples=n(100), seed=seed),
        "dilatation-coefficients": lambda: check_dilatation_coefficients(n_samples=n(100), seed=seed),
        "family-deficit-identity":
            lambda: check_family_deficit_identity(n(100), seed, 1024 if fast else 2048),
        "recentred-consistency": lambda: check_recentred_consistency(seed=seed),
        "recentred-slack-certificate": lambda: check_recentred_slack_certificate(n(30), seed=seed),
    }
    shapes = functools.cache(lambda: {report.name: report for report in shape_reports()})
    checks.update({name: lambda name=name: shapes()[name] for name in SHAPE_CHECKS})
    return checks


def run_default_checks(seed: int = 42, fast: bool = False) -> list[CheckReport]:
    """All checks with their default sample sizes, in a fixed order."""
    return [check() for check in default_checks(seed, fast).values()]
