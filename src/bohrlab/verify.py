"""Executable checks for the inequalities behind the radius computations.

Each check samples functions (random products of disk-automorphism factors,
which :func:`default_checks` draws and sizes, or members of the closed-form
extremal family), evaluates both sides of one inequality on a grid, and
reports the worst slack together with the parameters that witness it.  A
report passes when the worst slack stays above minus the assertion tolerance.

The module also carries the named closed forms that drive the bounds: slack
certificates and the scalar envelopes whose sign and monotonicity structure
make the radii sharp.  The extremal family's deficits live in
:mod:`extremals`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import functionals
from .extremals import (family_area_deficit, family_harmonic_deficit, family_norm_deficit, harmonic_extremal,
                        mobius_family_coeffs)
from .functionals import DEFAULT_AREA_WEIGHT, FunctionalValue, sharp_majorant_radius
from .series import DEFAULT_ORDER, DiskDomain, SeriesStack, _circle, numeric_taylor, recenter_affine, taylor_coefficients

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
    "certified_area_weight",
    "norm_envelope",
    "norm_envelope_coeffs",
    "norm_envelope_slope",
    "norm_envelope_curvature",
    "norm_radius_criterion",
    "weighted_area_slack",
    "harmonic_radius_cap",
    "shape_reports",
    "default_checks",
    "reports_to_json",
]

# Bytes per temporary array in the checks that work in blocks (shape_reports'
# slack-envelope grid, check_ruscheweyh's samples): about 128 KB, which keeps
# each block in cache and the whole-grid arrays out of the run's memory
# high-water.
_BLOCK_BYTES = 2**17


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each per block: as many as fill ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


# Default assertion tolerance once numeric Taylor extraction is in the loop;
# pure closed-form grid assertions use 1e-12 and pointwise closed-form
# inequalities 1e-10 directly.
NUMERIC_TOL = 1e-8
# Tolerance of the family deficit identities: the default of identity-check's
# --tol, and the tolerance default_checks runs them at.
IDENTITY_TOL = 1e-10


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
    rotation: complex

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.rotation, dtype=np.complex128)
        for w in self.zeros:
            out = out * (w - z) / (1.0 - np.conjugate(w) * z)
        return out[()] if out.ndim == 0 else out

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


def random_blaschke(rng) -> BlaschkeProduct:
    """Product of 1 to 4 factors with zeros uniform in |z| <= 0.9, uniformly rotated."""
    n = int(rng.integers(1, 5))
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    zeros = tuple(radii * np.exp(1j * angles))
    return BlaschkeProduct(zeros, complex(np.exp(2j * np.pi * rng.uniform())))


def _blaschke_stream(seed: int) -> Callable[[int], list]:
    """``first(n)``: the first n products of the seed's :func:`random_blaschke`
    stream, each drawn once, and only as far as any call has asked."""

    def products():
        rng = np.random.default_rng(seed)  # numpy.random is imported on first use
        while True:
            yield random_blaschke(rng)

    stream, drawn = products(), []

    def first(n: int) -> list:
        drawn.extend(next(stream) for _ in range(n - len(drawn)))
        return drawn[:n]

    return first


def _uniform(u, low, high):
    """``rng.uniform(low, high)`` bit for bit, from the double u in [0, 1) it draws."""
    return low + (high - low) * u


def bounded_on_disk_domain(sample: Callable, domain: DiskDomain) -> Callable:
    """Turn a unit-disk-bounded sample into one bounded on the enlarged domain
    by precomposing with the affine contraction onto the unit disk."""
    return lambda w: sample(domain.to_unit_disk(w))


def _disk_grid() -> np.ndarray:
    radii = np.linspace(0.05, 0.95, 20)
    angles = 2.0 * np.pi * np.arange(50) / 50
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


# ----------------------------------------------------------------------
# sampled inequality checks


def check_schwarz_pick(samples: Sequence[BlaschkeProduct]) -> CheckReport:
    """Pointwise growth bound |f(z)| <= (r+|f(0)|)/(1+|f(0)|r) and derivative
    bound |f'(z)| <= (1-|f(z)|^2)/(1-|z|^2) for the given products."""
    z = _disk_grid()
    r = np.abs(z)
    one_minus_r2 = 1.0 - r**2
    worst = np.inf
    witness: dict = {}
    for idx, f in enumerate(samples):
        vals, derivs = (np.abs(np.asarray(v)) for v in f.value_and_deriv(z))
        f0 = abs(complex(f(0.0)))
        growth = (r + f0) / (1.0 + f0 * r) - vals
        slope = (1.0 - vals**2) / one_minus_r2 - derivs
        for label, slack in (("growth", growth), ("derivative", slope)):
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                witness = {"sample": idx, "inequality": label, "z": [float(z[j].real), float(z[j].imag)]}
    return CheckReport.from_slack("schwarz-pick", len(samples), worst, witness, 1e-10)


def check_coefficient_bounds(samples: Sequence) -> CheckReport:
    """|a_n| <= (1 - |a_0|^2)/(1 + gamma) for the unit-disk coefficients of
    functions bounded on the enlarged disk (gamma = 0 is the classical bound);
    sample i is carried onto the disk of gammas[i % len(gammas)], and one
    ``numeric_taylor`` call expands every sample."""
    gammas, n_max = (0.0, 0.25, 0.5, 0.75, 0.9), 16
    gamma = np.array([float(gammas[i % len(gammas)]) for i in range(len(samples))])
    domains = [DiskDomain(g) for g in gamma.tolist()]
    coeffs = numeric_taylor(lambda z: [bounded_on_disk_domain(f, d)(z) for f, d in zip(samples, domains)],
                            n_max, 0.5).coeffs
    a0 = np.hypot(coeffs[:, 0].real, coeffs[:, 0].imag)  # as abs() rounds a scalar
    # float_power squares as Python's float ** does
    slack = ((1.0 - np.float_power(a0, 2)) / (1.0 + gamma))[:, None] - np.abs(coeffs[:, 1:])
    # the first minimum in sample order, as a running strict minimum finds it
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    witness = {"sample": int(i), "gamma": float(gamma[i]), "n": int(j) + 1, "a0_abs": float(a0[i])}
    return CheckReport.from_slack("coefficient-bounds", len(samples), slack[i, j], witness, NUMERIC_TOL)


def check_ruscheweyh(samples: Sequence) -> CheckReport:
    """Off-center derivative bound
    |f^(n)(alpha)| / n! <= (1 - |f(alpha)|^2) / ((1-|alpha|)^(n-1) (1-|alpha|^2)).

    Derivatives are Taylor coefficients of f(alpha + s u), which keeps them
    well conditioned; each sample is evaluated on every centre's circle at
    once, and one FFT call per block of samples expands the block's finite
    (sample, centre) rows into one slack array for all samples.  A row with a
    non-finite value is skipped and counted.
    """
    centres, n_max = [complex(alpha) for alpha in (0.0, 0.3, -0.45, 0.25j, -0.2 - 0.35j)], 8
    powers = np.arange(1, n_max + 1, dtype=float)
    scales = [0.45 * (1.0 - abs(alpha)) for alpha in centres]
    points = np.array([alpha + s * _circle(8 * n_max, 0.5) for alpha, s in zip(centres, scales)])
    scale_powers = np.array([s**powers for s in scales])
    denoms = np.array([(1.0 - abs(alpha)) ** (powers - 1.0) * (1.0 - abs(alpha) ** 2) for alpha in centres])
    slack = np.full((len(samples), len(centres), n_max), np.inf)  # a skipped row never holds the minimum
    skipped = 0
    step = _block_rows(points.nbytes)
    for start in range(0, len(samples), step):
        vals = np.array([f(points) for f in samples[start:start + step]]).reshape((-1,) + points.shape)
        finite = np.isfinite(vals).all(axis=2)
        skipped += int(finite.size - np.count_nonzero(finite))
        if finite.any():
            coeffs = taylor_coefficients(vals[finite], n_max, 0.5)
            fa = np.hypot(coeffs[:, :1].real, coeffs[:, :1].imag)  # as abs() rounds a scalar
            rows = np.nonzero(finite)[1]
            block = slack[start:start + step]  # a view: writes land in slack
            block[finite] = (1.0 - fa**2) / denoms[rows] - np.abs(coeffs[:, 1:]) / scale_powers[rows]
    worst = np.inf
    witness: dict = {}
    if skipped < len(samples) * len(centres):
        # the first minimum in (sample, centre, n) order, as a running strict minimum finds it
        i, row, j = np.unravel_index(np.argmin(slack), slack.shape)
        worst, alpha = float(slack[i, row, j]), centres[row]
        witness = {"sample": int(i), "alpha": [alpha.real, alpha.imag], "n": int(j) + 1}
    witness["skipped"] = skipped
    return CheckReport.from_slack("ruscheweyh-derivatives", len(samples) * len(centres), worst, witness, NUMERIC_TOL)


def check_dilatation_coefficients(samples: Sequence) -> CheckReport:
    """Coefficient inequality sum |b_n|^2 r^n <= k^2 sum |a_n|^2 r^n for
    co-analytic parts g with |g'| <= k |h'|.

    Random samples integrate g' = k * omega * h' for a random inner function
    omega.  The closed-form harmonic family is left out: its g = k*lambda*(h -
    h(0)) has the slack k^2 |a_0|^2 + k^2 (1 - lambda^2) sum_{n>=1} |a_n|^2 r^n
    >= 0 by construction.  Sample i takes its h and omega from products 2i
    and 2i+1 of ``samples``.
    """
    k, order = 0.5, 128
    r_grid = np.linspace(0.05, 0.9, 18)
    worst = np.inf
    witness: dict = {}
    powers = r_grid[None, :] ** np.arange(order + 1, dtype=float)[:, None]
    z = _circle(8 * order, 0.92)
    n = np.arange(1, order + 1)
    for i, (h_sample, omega_sample) in enumerate(zip(samples[::2], samples[1::2])):
        # h and omega expanded by one FFT
        h, omega = taylor_coefficients(np.stack([h_sample(z), omega_sample(z)]), order, 0.92)
        b = np.zeros(order + 1, dtype=np.complex128)
        # the first `order` terms of omega h', from the terms of omega that reach them
        b[1:] = k * np.convolve(omega[:order], h[1:] * n)[:order] / n
        slacks = k**2 * (np.abs(h) ** 2 @ powers) - np.abs(b) ** 2 @ powers
        j = int(np.argmin(slacks))
        if slacks[j] < worst:
            worst = float(slacks[j])
            witness = {"sample": i, "kind": "integrated-dilatation", "k": k, "r": float(r_grid[j])}
    return CheckReport.from_slack("dilatation-coefficients", len(samples) // 2, worst, witness, NUMERIC_TOL)


# ----------------------------------------------------------------------
# closed forms: scalar envelopes


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


def certified_area_weight(gamma):
    """K_cert(gamma) = 1/(8 A(gamma)^2): :func:`recentred_slack_envelope`,
    (1-x) (2 weight A^2 (1+x) - 1/(1+x)), is nonpositive on [0, 1] exactly
    when the weight is at most K_cert, the lower end of the optimal weight.
    8/9 at gamma = 0, rising in gamma."""
    return 1.0 / (8.0 * area_coupling(gamma) ** 2)


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
    p: SeriesStack, r: np.ndarray, gamma: float | np.ndarray, weight: float = DEFAULT_AREA_WEIGHT
) -> FunctionalValue:
    """Majorant of each series of a stack expanded about gamma plus the
    weighted Dirichlet area of its unit-disk rescaling at the same radius.

    Feeding it the recentred coefficients of a function on the enlarged disk
    at radius r*(1-gamma) reproduces :func:`functionals.area_refined_total`.
    It takes its radii and gamma as :func:`functionals.area_refined_total`
    does; row i then equals, bit for bit, the call on member i alone.
    """
    functionals._check_radius_and_gamma(r, gamma, p)
    m, m_tail = functionals._sum(p, "majorant", r)
    area, area_tail = functionals._sum(recenter_affine(p, gamma), "area", r)
    return FunctionalValue(m + weight * area, m, weight * area, m_tail + weight * area_tail)


def check_recentred_consistency(seed: int) -> CheckReport:
    """The centered and recentred evaluations of the area-refined total must
    agree on the extremal family.  Each route evaluates all samples in one
    call on their family stack, one radius and gamma per member."""
    n_samples, order = 25, 128
    u = np.random.default_rng(seed).random((n_samples, 3))
    gammas, a_values, radii = _uniform(u, np.array([0.0, 0.05, 0.05]), np.array([0.9, 0.95, 0.9])).T
    stack = mobius_family_coeffs(a_values, gammas, order)
    direct = functionals.area_refined_total(stack, radii, gammas).total
    # the stack's rows are real: divide a complex copy, which rounds as the
    # member's complex coefficients do (real division can round apart)
    about_gamma = stack.coeffs.astype(complex) / np.power.outer(1.0 - gammas, np.arange(order + 1))
    recentred = recentred_area_total(SeriesStack(about_gamma), radii * (1.0 - gammas), gammas).total
    resids = np.abs(direct - recentred).tolist()
    worst_resid = max(resids, default=0.0)
    witness: dict = {}
    if worst_resid > 0.0:
        i = resids.index(worst_resid)  # the first maximum, as a running strict maximum finds it
        witness = {"sample": i, "gamma": float(gammas[i]), "a": float(a_values[i]), "r": float(radii[i])}
    return CheckReport.from_slack("recentred-consistency", n_samples, -worst_resid, witness, 1e-12)


def check_recentred_slack_certificate(samples: Sequence) -> CheckReport:
    """recentred_area_total <= 1 + recentred_slack(r, |alpha_0|) for bounded
    samples expanded about gamma; ties the slack certificate to its meaning.
    Sample i is expanded about gammas[i % len(gammas)]: one ``numeric_taylor``
    call expands every sample, and one stacked call per gamma sums its samples
    on that gamma's radius row."""
    gammas, order = (0.0, 0.3, 0.6), 96
    gamma = np.array([float(gammas[i % len(gammas)]) for i in range(len(samples))])
    s = 0.9 * (1.0 - gamma)

    def rows(u):  # sample i at gamma_i + s_i u, one row each
        return np.reshape([f(g + t * u) for f, g, t in zip(samples, gamma.tolist(), s.tolist())], (-1, u.size))

    alpha = numeric_taylor(rows, order, 0.9).coeffs / np.power.outer(s, np.arange(order + 1))
    a0 = np.hypot(alpha[:, 0].real, alpha[:, 0].imag)  # as abs() rounds a scalar
    step = len(gammas)
    radii = [np.linspace(0.05, 0.8 * (1.0 - g), 6)[None, :] for g in gamma[:step].tolist()]  # one row per gamma
    slack = np.empty((len(samples), 6))
    for k, r in enumerate(radii):
        totals = recentred_area_total(SeriesStack(alpha[k::step]), r, gamma[k]).total
        slack[k::step] = 1.0 + recentred_slack(r, a0[k::step, None], gamma[k]) - totals
    worst, witness = np.inf, {}
    if slack.size:
        # the first minimum in sample order, as a running strict minimum finds it
        i, j = np.unravel_index(np.argmin(slack), slack.shape)
        worst, r = slack[i, j], float(radii[i % step][0, j])
        witness = {"sample": int(i), "gamma": float(gamma[i]), "r": r, "a0_abs": float(a0[i])}
    return CheckReport.from_slack("recentred-slack-certificate", len(samples), worst, witness, NUMERIC_TOL)


# Samples per stacked evaluator call in check_family_deficit_identity.  Its
# rows stop where its sums do (at most 513 terms), so the per-call overhead
# dominates: against stacks of 10, stacks of 50 halve the check's time for
# about 1 MB more peak memory, and stacks of 100 save a further 6% for 2 MB
# more (100 samples at order 2048, medians of 60 calls, 2-vCPU box).
_STACK = 50


def check_family_deficit_identity(n_samples: int, seed: int, order: int, tol: float) -> CheckReport:
    """The evaluated totals on the extremal family must match the closed-form
    deficit identities:

      area-refined total      = 1 - (1-a) * family_area_deficit(r)
      norm-refined total      = 1 - (1-a)/(1-a*gamma) * family_norm_deficit(r)
      harmonic joint majorant = 1 - (1-a)/(1-a*gamma) * family_harmonic_deficit(r)

    The totals of _STACK samples at a time come from one call per evaluator
    on their family stacks, each row equal bit for bit to the call on that
    sample alone, and their parameters one block of draws.
    """
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    witness: dict = {}
    for start in range(0, n_samples, _STACK):
        u = rng.random((min(_STACK, n_samples - start), 5))
        gammas = _uniform(u[:, 0], 0.0, 0.9)
        a_values = _uniform(u[:, 1], np.maximum(gammas + 0.02, 0.05), 0.995)
        radii, ks, lams = _uniform(u[:, 2:], np.array([0.01, 0.0, 0.0]), np.array([0.9, 1.0, 1.0])).T
        if not np.all(a_values > gammas):  # the sharpness witnesses, whose A_0 = |A_0| the identities read
            raise ValueError("the deficit identities need a > gamma")
        h, g = harmonic_extremal(a_values, gammas, ks * lams, order, r_max=radii)  # rows as long as the sums read
        # the norm table first: the area table then reuses its weights
        norms = functionals.norm_refined_total(h, radii).total.tolist()
        totals = zip(
            functionals.area_refined_total(h, radii, gammas).total.tolist(),
            norms,
            functionals.harmonic_total(h, g, radii).total.tolist(),
        )
        block = zip(*(v.tolist() for v in (gammas, a_values, radii, ks, lams)))
        for i, ((gamma, a, r, k, lam), (area, norm, harmonic)) in enumerate(zip(block, totals), start):
            pref = (1.0 - a) / (1.0 - a * gamma)
            resids = {
                "area": abs(area - (1.0 - (1.0 - a) * family_area_deficit(r, a, gamma))),
                "norm": abs(norm - (1.0 - pref * family_norm_deficit(r, a, gamma))),
                "harmonic": abs(harmonic - (1.0 - pref * family_harmonic_deficit(r, a, gamma, k, lam))),
            }
            for label, resid in resids.items():
                if resid > worst_resid:
                    worst_resid = resid
                    witness = {"sample": i, "identity": label, "gamma": gamma, "a": a, "r": r}
    return CheckReport.from_slack("family-deficit-identity", n_samples, -worst_resid, witness, tol)


# ----------------------------------------------------------------------
# grid assertions on the scalar closed forms


def shape_reports() -> list[CheckReport]:
    """Sign and monotonicity checks of the scalar closed forms on dense grids."""
    reports: list[CheckReport] = []
    grid = 400

    def add(name, samples, worst, witness=None, tol=1e-12):
        reports.append(CheckReport.from_slack("shape:" + name, samples, worst, witness or {}, tol))

    rs = {}
    for gamma in (0.0, 0.3, 0.6, 0.9):
        for x in (0.0, 0.5, 0.9):
            r = np.linspace(1e-4, (1.0 - gamma) * 0.999, grid)
            rs[(gamma, x)] = recentred_slack(r, x, gamma)
    add("recentred-slack-increasing", len(rs) * grid, min(float(np.min(np.diff(v))) for v in rs.values()))

    x = np.linspace(0.0, 1.0, grid)
    g = np.linspace(0.0, 1.0, grid, endpoint=False)[None, :]
    nonpositive = increasing = np.inf  # each claim's worst slack
    rows = _block_rows(g.nbytes)
    # blocks of x rows, each from the previous block's last row, so that their
    # np.diff spans every block edge: the full grid's values, max and min
    for start in range(0, grid - 1, rows):
        env = recentred_slack_envelope(x[start:start + rows + 1, None], g)
        nonpositive = min(nonpositive, float(-np.max(env)))
        increasing = min(increasing, float(np.min(np.diff(env, axis=0))))
    add("slack-envelope-nonpositive", x.size * g.size, nonpositive)
    add("slack-envelope-increasing", x.size * g.size, increasing)

    g = np.linspace(0.0, 1.0 - 1e-9, 1000)
    coupling = area_coupling(g)
    witness = {"at_zero": float(area_coupling(0.0)), "near_one": float(coupling[-1])}
    add("area-coupling-decreasing", g.size, min(float(np.min(-np.diff(coupling))), float(coupling[-1])), witness)

    worst = np.inf
    count = 0
    for gamma in (0.0, 0.4, 0.8):
        for a in (0.3, 0.7, 0.95):
            if a <= gamma:
                continue
            r = np.linspace(1e-3, 0.95, grid)
            for deficits in (family_area_deficit(r, a, gamma), family_norm_deficit(r, a, gamma),
                             family_harmonic_deficit(r, a, gamma, 0.5, 1.0)):
                worst = min(worst, float(np.min(-np.diff(deficits))))
                count += grid
    add("family-deficit-decreasing", count, worst)

    worst = np.inf
    a = np.linspace(0.0, 1.0, 1000)
    count = 0
    for gamma in np.linspace(0.0, 0.9, 10):
        radii = np.linspace(0.01, sharp_majorant_radius(gamma), 12)
        # one row per radius, its (A, B, C) as the scalar call rounds them
        A, B, C = np.array([norm_envelope_coeffs(r, float(gamma)) for r in radii.tolist()]).T[:, :, None]
        worst = min(worst, float(np.min(-norm_envelope_curvature(a, A, B, C))))
        worst = min(worst, float(np.min(norm_envelope_slope(a, A, B, C))))
        worst = min(worst, float(np.min(1.0 - norm_envelope(a, A, B, C))))
        count += 3 * a.size * radii.size
    add("norm-envelope-concave-increasing", count, worst)

    x = np.linspace(0.0, 1.0, 1000)
    ws = weighted_area_slack(x)
    witness = {"at_zero": float(weighted_area_slack(0.0)), "at_one": float(weighted_area_slack(1.0))}
    add("weighted-area-slack", x.size, min(float(np.min(-np.diff(ws))), float(np.min(ws))), witness)

    g = np.linspace(0.0, 0.99, 1000)
    add("norm-radius-root", g.size, float(-np.max(np.abs(norm_radius_criterion((1.0 + g) / (3.0 + g), g)))), tol=1e-14)

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
    add("harmonic-radius-cap", count, worst)

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
            family_harmonic_deficit((1.0 + gamma) / (4.0 + gamma), a_lim, float(gamma), 0.5, 1.0),
        ]
        scale = ((1.0 - gamma) / (1.0 + gamma)) ** 2
        for v in values:
            if gamma <= 0.6:
                worst = min(worst, 1e-3 - abs(v))
            worst_scaled = min(worst_scaled, 1e-3 - abs(v) * scale)
    add("family-deficit-limit", 30, worst, tol=0.0)
    add("family-deficit-limit-scaled", 30, worst_scaled, tol=0.0)
    return reports


# ----------------------------------------------------------------------
# batch runner


# Report names of shape_reports, in its order.
SHAPE_CHECKS = tuple("shape:" + name for name in """
    recentred-slack-increasing slack-envelope-nonpositive slack-envelope-increasing
    area-coupling-decreasing family-deficit-decreasing norm-envelope-concave-increasing
    weighted-area-slack norm-radius-root harmonic-radius-cap family-deficit-limit
    family-deficit-limit-scaled""".split())


def default_checks(seed: int, fast: bool) -> dict[str, Callable[[], CheckReport]]:
    """Every check by report name, in a fixed order, each a thunk; the shape
    checks share one shape_reports() call.  This is the one place that draws
    and sizes the sampled checks' samples: each gets the first n products of
    the seed's one stream (dilatation the first 2n, as n pairs)."""
    scale = 0.4 if fast else 1.0

    def n(base: int) -> int:
        return max(10, int(base * scale))

    first = _blaschke_stream(seed)
    checks = {
        "schwarz-pick": lambda: check_schwarz_pick(first(n(200))),
        "coefficient-bounds": lambda: check_coefficient_bounds(first(n(120))),
        "ruscheweyh-derivatives": lambda: check_ruscheweyh(first(n(100))),
        "dilatation-coefficients": lambda: check_dilatation_coefficients(first(2 * n(100))),
        "family-deficit-identity":
            lambda: check_family_deficit_identity(n(100), seed, DEFAULT_ORDER // 2 if fast else DEFAULT_ORDER,
                                                  IDENTITY_TOL),
        "recentred-consistency": lambda: check_recentred_consistency(seed),
        "recentred-slack-certificate": lambda: check_recentred_slack_certificate(first(n(30))),
    }
    shapes = functools.cache(lambda: {report.name: report for report in shape_reports()})
    checks.update({name: lambda name=name: shapes()[name] for name in SHAPE_CHECKS})
    return checks
