"""Independent oracles for the test suite.

Everything above the reference section is deliberately written from first
principles (direct summation of the defining formulas, pointwise quadrature,
geometric sums in 30-digit arithmetic) and never calls the evaluators under
test, so agreement is meaningful.  The series helpers that only tests need
(one series as a one-row stack, exact constants, and on coefficient vectors
the Cauchy product and the termwise derivative) live here too.

The reference section keeps the plain per-sample versions of code that the
package now runs batched: the uncached ``numeric_taylor``, the O(n^2)
Blaschke derivative, the full family power vector, one family member as its
own one-row complex stack (the reference of every family row), the
conjecture grid built one member at a time and its augmentation one sample
at a time, seven sampled checks, the family solve that ran one member after
another and the per-member stack it solved on.  Tests assert that the
batched code equals them bit for bit.  Where the package works in blocks,
the one-shot version of the same batched code is kept too: the
slack-envelope grid in one piece and the Ruscheweyh check with one FFT call
for every sample.  The evaluators' sums keep their general form: each
length a masked loop step, even when every cell sums the same, and the
certificate tail's closed form at every cell; the radius check keeps its
range test as one elementwise comparison.
"""

from __future__ import annotations

import dataclasses
from itertools import pairwise
from typing import Callable

import mpmath
import numpy as np

from bohrlab.series import DEFAULT_ORDER, SeriesStack


def series(coeffs, q=0.0, C=0.0) -> SeriesStack:
    """One series a_0..a_N as a one-row complex stack, with the tail
    certificate (q, C), floats or one-entry arrays; left out, q = C = 0: the
    series is exactly the stored polynomial."""
    return SeriesStack(np.asarray(coeffs, dtype=np.complex128).reshape(1, -1), np.full(1, q, dtype=float),
                       np.full(1, C, dtype=float))


def constant(value: complex, order: int = 0) -> SeriesStack:
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = value
    return series(c)


def zero(order: int = 0) -> SeriesStack:
    return constant(0.0, order)


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient vectors, truncated at the smaller order."""
    return np.convolve(p, q)[: min(p.size, q.size)]


def differentiate(p: np.ndarray) -> np.ndarray:
    """Termwise derivative of a coefficient vector; the result is one order shorter."""
    return p[1:] * np.arange(1, p.size) if p.size > 1 else np.zeros(1, dtype=p.dtype)


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


def member_total(theorem: str, a, gamma, r, x=None):
    """A family member's total for ``theorem`` at radius r, in mpmath.

    The member at (a, gamma) is A_0 - sum_{n>=1} C q^n z^n, so every sum of
    the bounds is geometric: with t = q r, the majorant is |A_0| + C t/(1-t),
    sum_{n>=1} |A_n|^2 s^{2n} is C^2 y/(1-y) and the Dirichlet area
    sum_{n>=1} n |A_n|^2 s^{2n} is C^2 y/(1-y)^2, y = (q s)^2.  ``x`` is the
    theorem's extra parameter: K for 1, lambda for 3 and k for 4, whose
    co-analytic part is k (h - h(0)).
    """
    a, gamma, r = mpmath.mpf(a), mpmath.mpf(gamma), mpmath.mpf(r)
    a0 = (a - gamma) / (1 - a * gamma)
    q = a * (1 - gamma) / (1 - a * gamma)
    c = (1 - a**2) / (a * (1 - a * gamma))
    tail = c * q * r / (1 - q * r)

    def area(s):
        y = (q * s) ** 2
        return c**2 * y / (1 - y) ** 2

    if theorem in ("A", "B"):
        return abs(a0) + tail
    if theorem == "1":
        return abs(a0) + tail + mpmath.mpf(x) * area(r * (1 - gamma))
    if theorem == "2":
        y = (q * r) ** 2
        return abs(a0) + tail + (1 / (1 + abs(a0)) + r / (1 - r)) * c**2 * y / (1 - y)
    if theorem == "3":
        lam = mpmath.mpf(x)
        return abs(a0) + tail + 2 * ((1 + lam) / (1 + 2 * lam)) ** 2 * area(r)
    if theorem in ("4", "corollary"):
        return abs(a0) + (1 + mpmath.mpf(x)) * tail
    raise ValueError(f"unknown theorem {theorem}")


def member_radius_root(theorem: str, a, gamma, x=None, upper: float = 1.0 - 1e-6):
    """(radius, slope): the largest r in [0, upper] with ``member_total`` at most
    one, at 30 digits, and d total/dr there.

    Every total rises in r, so below ``upper`` the radius is the root of
    total = 1, found by Anderson-Bjorck bracketing on [0, upper]; it is
    ``upper`` when the total stays below one there.
    """
    with mpmath.workdps(30):
        total = lambda r: member_total(theorem, a, gamma, r, x)
        root = mpmath.mpf(upper)
        if total(root) > 1:
            root = mpmath.findroot(lambda r: total(r) - 1, (mpmath.mpf(0), root), solver="anderson")
        return float(root), float(mpmath.diff(total, root))


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
    """Whether z lies in the open disk of ``domain`` (a ``DiskDomain``): centre
    -g/(1-g), radius 1/(1-g)."""
    g = domain.gamma
    return np.abs(np.asarray(z) + g / (1.0 - g)) < 1.0 / (1.0 - g)


def from_unit_disk(domain, z):
    """Affine bijection sending the unit disk onto ``domain`` (a ``DiskDomain``)."""
    return (np.asarray(z) - domain.gamma) / (1.0 - domain.gamma)


def family_member(a: float, gamma: float, z):
    """The family member (a - gamma - (1-gamma) z) / (1 - a*gamma - a (1-gamma) z)
    at (a, gamma), evaluated in closed form."""
    z = np.asarray(z)
    return (a - gamma - (1.0 - gamma) * z) / (1.0 - a * gamma - a * (1.0 - gamma) * z)


def blaschke_samples(n: int, seed: int) -> list:
    """The first n products of the seed's stream, as ``verify.default_checks``
    draws them: ``random_blaschke`` on a fresh ``default_rng(seed)``."""
    from bohrlab import verify

    rng = np.random.default_rng(seed)
    return [verify.random_blaschke(rng) for _ in range(n)]


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


def family_coeffs_reference(a: float, gamma: float, order: int) -> np.ndarray:
    """Family coefficients with every power q**n computed, underflowed ones included."""
    from bohrlab.extremals import family_constants

    a0, q, scale = family_constants(a, gamma)
    coeffs = np.empty(order + 1, dtype=np.complex128)
    coeffs[0] = a0
    coeffs[1:] = -scale * q ** np.arange(1, order + 1)
    return coeffs


def member(a: float, gamma: float, order: int = DEFAULT_ORDER) -> SeriesStack:
    """One family member as its own one-row complex stack with its tail
    certificate (q, C): the reference for the rows ``mobius_family_coeffs``
    writes, each equal to its row bit for bit."""
    from bohrlab.extremals import family_constants

    _, q, scale = family_constants(a, gamma)
    return series(family_coeffs_reference(a, gamma, order), q, scale)


def harmonic_member(a: float, gamma: float, weight: float, order: int = DEFAULT_ORDER):
    """The harmonic pair (h, g) of one member, h = :func:`member` and
    g = weight * (h - h(0)): the reference for ``harmonic_extremal``."""
    h = member(a, gamma, order)
    g_coeffs = weight * h.coeffs
    g_coeffs[:, 0] = 0.0
    return h, series(g_coeffs, h.tail.q, weight * h.tail.C)


def ratio_grid_reference(gamma: float, a_values: np.ndarray, r_values: np.ndarray) -> np.ndarray:
    """``conjecture._ratio_grid`` computing each member's (|A_0|, q, C) alone,
    in Python floats, as the family's properties did."""
    from bohrlab.conjecture import _ratio

    rows = []
    for a in map(float, a_values):
        rows.append((abs((a - gamma) / (1.0 - a * gamma)), a * (1.0 - gamma) / (1.0 - a * gamma),
                     (1.0 - a**2) / (a * (1.0 - a * gamma))))
    a0, q, scale = (np.array(column)[:, None] for column in zip(*rows))
    x = q * r_values
    y = (x * (1.0 - gamma)) ** 2
    return _ratio(a0 + scale * x / (1.0 - x), scale**2 * y / (1.0 - y) ** 2)


def estimate_constant_reference(gamma: float, grid: int = 64, augment_samples: int = 0, seed: int = 42):
    """``conjecture.estimate_constant`` expanding and summing its augmented
    samples one at a time, each on its own one-row stack, and keeping a
    running strict minimum over them."""
    from bohrlab import functionals, verify
    from bohrlab.conjecture import A_BOUNDS, R_MIN, ConstantEstimate, _ratio, _ratio_grid
    from bohrlab.series import DiskDomain, numeric_taylor

    r_max = functionals.sharp_majorant_radius(gamma)
    a_vals = np.linspace(*A_BOUNDS, grid)
    r_vals = np.linspace(R_MIN, r_max, grid)
    ratio = _ratio_grid(gamma, a_vals, r_vals)
    i, j = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    best, best_a, best_r = float(ratio[i, j]), float(a_vals[i]), float(r_vals[j])
    level = {"level": 0, "min": best, "a_window": list(A_BOUNDS), "r_window": [R_MIN, r_max]}
    stats: dict = {"levels": [level], "grid": grid}
    if augment_samples > 0:
        rng = np.random.default_rng(seed)
        domain = DiskDomain(gamma)
        aug_min, aug_idx, aug_r = np.inf, None, None
        for s in range(augment_samples):
            p = numeric_taylor(verify.bounded_on_disk_domain(verify.random_blaschke(rng), domain), 192, rho=0.9)
            ratio = _ratio(functionals.majorant(p, r_vals[None, :])[0],
                           functionals.dirichlet_area(p, (r_vals * (1.0 - gamma))[None, :])[0])
            j = int(np.argmin(ratio))
            if ratio[j] < aug_min:
                aug_min, aug_idx, aug_r = float(ratio[j]), s, float(r_vals[j])
        stats["augment"] = {"count": augment_samples, "seed": seed, "min": aug_min, "winner": None}
        if aug_min < best:
            best, best_a, best_r = aug_min, float("nan"), aug_r
            stats["augment"]["winner"] = aug_idx
    return ConstantEstimate(gamma, best, best_a, best_r, stats)


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


def coefficient_bounds_reference(
    n_samples: int = 120, gammas=(0.0, 0.25, 0.5, 0.75, 0.9), n_max: int = 16, seed: int = 42,
    tol: float = 1e-8, rho: float = 0.5,
):
    """``check_coefficient_bounds`` with one ``numeric_taylor`` call per sample."""
    from bohrlab import verify
    from bohrlab.series import DiskDomain, numeric_taylor

    rng = np.random.default_rng(seed)
    worst, witness = np.inf, {}
    for i in range(n_samples):
        gamma = float(gammas[i % len(gammas)])
        f = verify.bounded_on_disk_domain(verify.random_blaschke(rng), DiskDomain(gamma))
        c = numeric_taylor(f, n_max, rho=rho).coeffs[0]
        a0 = abs(c[0])
        bound = (1.0 - a0**2) / (1.0 + gamma)
        slack = bound - np.abs(c[1:])
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            witness = {"sample": i, "gamma": gamma, "n": j + 1, "a0_abs": float(a0)}
    return verify.CheckReport.from_slack("coefficient-bounds", n_samples, worst, witness, tol)


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
                c = numeric_taylor(lambda u: f(alpha + s * u), n_max, rho=0.5).coeffs[0]
            except ValueError:
                skipped += 1
                continue
            fa = abs(c[0])
            derivs = np.abs(c[1:]) / s**powers
            bounds = (1.0 - fa**2) / ((1.0 - abs(alpha)) ** (powers - 1.0) * (1.0 - abs(alpha) ** 2))
            slack = bounds - derivs
            j = int(np.argmin(slack))
            if slack[j] < worst:
                worst = float(slack[j])
                witness = {"sample": i, "alpha": [alpha.real, alpha.imag], "n": j + 1}
    witness["skipped"] = skipped
    return verify.CheckReport.from_slack("ruscheweyh-derivatives", n_samples * len(alphas), worst, witness, tol)


def ruscheweyh_one_shot_reference(samples, alphas=(0.0, 0.3, -0.45, 0.25j, -0.2 - 0.35j), n_max: int = 8):
    """``check_ruscheweyh`` with every (sample, centre) row in one array and one FFT call."""
    from bohrlab import verify
    from bohrlab.series import _circle, taylor_coefficients

    powers = np.arange(1, n_max + 1, dtype=float)
    centres = [complex(alpha) for alpha in alphas]
    scales = [0.45 * (1.0 - abs(alpha)) for alpha in centres]
    points = np.array([alpha + s * _circle(8 * n_max, 0.5) for alpha, s in zip(centres, scales)])
    scale_powers = np.array([s**powers for s in scales])
    denoms = np.array([(1.0 - abs(alpha)) ** (powers - 1.0) * (1.0 - abs(alpha) ** 2) for alpha in centres])
    vals = np.array([f(points) for f in samples]).reshape((-1,) + points.shape)
    finite = np.isfinite(vals).all(axis=2)
    worst = np.inf
    witness: dict = {}
    if finite.any():
        coeffs = taylor_coefficients(vals[finite], n_max, 0.5)
        fa = np.hypot(coeffs[:, :1].real, coeffs[:, :1].imag)
        rows = np.nonzero(finite)[1]
        slack = np.full(finite.shape + (n_max,), np.inf)
        slack[finite] = (1.0 - fa**2) / denoms[rows] - np.abs(coeffs[:, 1:]) / scale_powers[rows]
        i, row, j = np.unravel_index(np.argmin(slack), slack.shape)
        worst, alpha = float(slack[i, row, j]), centres[row]
        witness = {"sample": int(i), "alpha": [alpha.real, alpha.imag], "n": int(j) + 1}
    witness["skipped"] = int(finite.size - np.count_nonzero(finite))
    return verify.CheckReport.from_slack("ruscheweyh-derivatives", len(samples) * len(alphas), worst, witness,
                                         verify.NUMERIC_TOL)


def slack_envelope_full_grid_reference() -> list:
    """``shape_reports``' two slack-envelope reports from the whole 400 x 400 grid in one array."""
    from bohrlab import verify

    x = np.linspace(0.0, 1.0, 400)
    g = np.linspace(0.0, 1.0, 400, endpoint=False)
    env = verify.recentred_slack_envelope(x[:, None], g[None, :])
    return [
        verify.CheckReport.from_slack("shape:slack-envelope-nonpositive", env.size, float(-np.max(env)), {}, 1e-12),
        verify.CheckReport.from_slack("shape:slack-envelope-increasing", env.size,
                                      float(np.min(np.diff(env, axis=0))), {}, 1e-12),
    ]


def dilatation_coefficients_reference(
    n_samples: int = 100, k: float = 0.5, order: int = 128, seed: int = 42, tol: float = 1e-8, rho: float = 0.92
):
    """``check_dilatation_coefficients`` with one ``numeric_taylor`` call each for
    h and omega and the full product ``mul(omega, differentiate(h))`` per sample."""
    from bohrlab import verify
    from bohrlab.series import numeric_taylor

    rng = np.random.default_rng(seed)
    r_grid = np.linspace(0.05, 0.9, 18)
    worst, witness = np.inf, {}
    powers = r_grid[None, :] ** np.arange(order + 1, dtype=float)[:, None]
    for i in range(n_samples):
        h = numeric_taylor(verify.random_blaschke(rng), order, rho=rho).coeffs[0]
        omega = numeric_taylor(verify.random_blaschke(rng), order, rho=rho).coeffs[0]
        b = np.zeros(order + 1, dtype=np.complex128)
        b[1:] = k * mul(omega, differentiate(h)) / np.arange(1, order + 1)
        slacks = k**2 * (np.abs(h) ** 2 @ powers) - np.abs(b) ** 2 @ powers
        j = int(np.argmin(slacks))
        if slacks[j] < worst:
            worst = float(slacks[j])
            witness = {"sample": i, "kind": "integrated-dilatation", "k": k, "r": float(r_grid[j])}
    return verify.CheckReport.from_slack("dilatation-coefficients", n_samples, worst, witness, tol)


def family_deficit_identity_reference(n_samples: int = 100, seed: int = 42, order: int = 2048, tol: float = 1e-10):
    """``check_family_deficit_identity`` building the family member twice per
    sample: once alone for the area and norm identities, once inside the
    harmonic pair."""
    from bohrlab import functionals, verify
    from bohrlab.extremals import family_area_deficit, family_harmonic_deficit, family_norm_deficit

    rng = np.random.default_rng(seed)
    worst_resid, witness = 0.0, {}
    for i in range(n_samples):
        gamma = float(rng.uniform(0.0, 0.9))
        a = float(rng.uniform(max(gamma + 0.02, 0.05), 0.995))
        r = float(rng.uniform(0.01, 0.9))
        k = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        pref = (1.0 - a) / (1.0 - a * gamma)
        if not a > gamma:
            raise ValueError("the deficit identities need a > gamma")
        p, radius = member(a, gamma, order), np.array([r])
        resids = {
            "area": abs(functionals.area_refined_total(p, radius, gamma).total[0]
                        - (1.0 - (1.0 - a) * family_area_deficit(r, a, gamma))),
            "norm": abs(functionals.norm_refined_total(p, radius).total[0]
                        - (1.0 - pref * family_norm_deficit(r, a, gamma))),
        }
        h, g = harmonic_member(a, gamma, k * lam, order)
        resids["harmonic"] = abs(functionals.harmonic_total(h, g, radius).total[0]
                                 - (1.0 - pref * family_harmonic_deficit(r, a, gamma, k, lam)))
        for label, resid in resids.items():
            if resid > worst_resid:
                worst_resid = resid
                witness = {"sample": i, "identity": label, "gamma": gamma, "a": a, "r": r}
    return verify.CheckReport.from_slack("family-deficit-identity", n_samples, -worst_resid, witness, tol)


def recentred_consistency_reference(n_samples: int = 25, seed: int = 42, order: int = 128, tol: float = 1e-12):
    """``check_recentred_consistency`` drawing each sample's parameters with
    ``rng.uniform`` and building and evaluating one member at a time."""
    from bohrlab import functionals, verify

    rng = np.random.default_rng(seed)
    worst_resid, witness = 0.0, {}
    for i in range(n_samples):
        gamma = float(rng.uniform(0.0, 0.9))
        a = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.9))
        p = member(a, gamma, order)
        direct = functionals.area_refined_total(p, np.array([r]), gamma).total[0]
        recentred = verify.recentred_area_total(
            series(p.coeffs / (1.0 - gamma) ** np.arange(order + 1)),
            np.array([r * (1.0 - gamma)]),
            gamma,
        ).total[0]
        resid = abs(direct - recentred)
        if resid > worst_resid:
            worst_resid = resid
            witness = {"sample": i, "gamma": gamma, "a": a, "r": r}
    return verify.CheckReport.from_slack("recentred-consistency", n_samples, -worst_resid, witness, tol)


def recentred_slack_certificate_reference(
    n_samples: int = 30, gammas=(0.0, 0.3, 0.6), order: int = 96, seed: int = 42, tol: float = 1e-8,
    weight: float = 8.0 / 9.0,
):
    """``check_recentred_slack_certificate`` with one ``numeric_taylor`` call per
    sample and one scalar call per radius."""
    from bohrlab import verify
    from bohrlab.series import numeric_taylor

    rng = np.random.default_rng(seed)
    worst, witness = np.inf, {}
    for i in range(n_samples):
        gamma = float(gammas[i % len(gammas)])
        f = verify.random_blaschke(rng)
        s = 0.9 * (1.0 - gamma)
        c = numeric_taylor(lambda u: f(gamma + s * u), order, rho=0.9)
        alpha = series(c.coeffs / s ** np.arange(order + 1))
        a0 = abs(alpha.coeffs[0, 0])
        for r in np.linspace(0.05, 0.8 * (1.0 - gamma), 6):
            total = verify.recentred_area_total(alpha, np.array([r]), gamma, weight).total[0]
            cap = 1.0 + verify.recentred_slack(float(r), a0, gamma, weight)
            if cap - total < worst:
                worst = cap - total
                witness = {"sample": i, "gamma": gamma, "r": float(r), "a0_abs": float(a0)}
    return verify.CheckReport.from_slack("recentred-slack-certificate", n_samples, worst, witness, tol)


def check_radius_reference(r: np.ndarray, *series: SeriesStack) -> None:
    """``functionals._check_radius`` with its range test as one elementwise
    comparison of every radius."""
    members = {p.coeffs.shape[0] for p in series}
    if not (isinstance(r, np.ndarray) and len(members) == 1
            and (r.shape == (*members,) or (r.ndim == 2 and len(r) == 1))):
        raise ValueError("radius must be an array: a stack of M series takes M radii, one per member, or one (1, R) "
                         f"row that every member shares; got {type(r).__name__} of shape {np.shape(r)} for "
                         f"stacks of {sorted(members)} members")
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def power_sum_reference(terms, x: np.ndarray):
    """``functionals._power_sum`` with each length a loop step: the cells
    that sum it are picked by a mask, even when every cell sums the same."""
    from bohrlab.functionals import _CUT

    shared = x.ndim == 2
    bounds = np.power.outer(x, terms.heads) * (terms.suffix[:, None] if shared else terms.suffix)
    pick = np.argmax(bounds <= _CUT, axis=-1)
    if shared:
        skipped = np.take_along_axis(bounds, pick[..., None], axis=-1)[..., 0]
    else:
        skipped = bounds[np.arange(x.size), pick]
    lengths = terms.lengths[pick]
    value = np.empty(lengths.shape)
    for length in sorted(set(lengths.ravel().tolist())):
        cells = lengths == length
        weights = terms.weights[:, :length]
        if shared:
            cols = cells.any(axis=0)
            sums = np.vecdot(np.power.outer(x[0, cols], terms.exponents[:length]), weights[:, None])
            value[:, cols] = np.where(cells[:, cols], sums, value[:, cols])
        else:
            value[cells] = np.vecdot(np.power.outer(x[cells], terms.exponents[:length]), weights[cells])
    return value, skipped


def sum_reference(p: SeriesStack, kind: str, r):
    """``functionals._sum`` on :func:`power_sum_reference`, with the
    certificate tail's closed form and its upward rounding evaluated at every
    cell, underflowed ones included."""
    from bohrlab.functionals import _per_member, _terms

    q, c = _per_member(p.tail.q, r), _per_member(p.tail.C, r)
    n1 = p.order + 1
    if kind == "majorant":
        value, skipped = power_sum_reference(_terms(p, kind), r)
        x = q * r
        tail = c * np.power(x, n1) / (1.0 - x)
    else:
        value, skipped = power_sum_reference(_terms(p, kind), r * r)
        x = (q * r) * (q * r)
        if kind == "area":
            tail = c * c * np.power(x, n1) * (n1 - p.order * x) / ((1.0 - x) * (1.0 - x))
        else:
            tail = c * c * np.power(x, n1) / (1.0 - x)
    return value, tail * (1.0 + 8.0 * (p.order + 1 + 1.0 / (1.0 - x)) * 2.0**-52) + skipped


def _padded(value) -> float:
    return float(np.ravel(value.padded() if hasattr(value, "padded") else value)[0])


def stacked_bound(bound_for: Callable, a) -> Callable:
    """The family bound ``family_infimum_radius`` takes, from per-member bounds
    of a float radius: row i of its value is ``bound_for(a[i])`` padded at r[i]."""
    bounds = [bound_for(x) for x in a]
    return lambda r: np.array([_padded(bound(x)) for bound, x in zip(bounds, r.tolist())])


def stack_of(members) -> SeriesStack:
    """The rows of same-order stacks (one-row stacks, one per member) copied
    into one ``SeriesStack``."""
    members = list(members)
    return SeriesStack(*(np.concatenate(column) for column in zip(*((m.coeffs, m.tail.q, m.tail.C)
                                                                     for m in members))))


def member_series(bound, a: float, gamma: float, k: float, order: int):
    """The member at (a, gamma) as its own one-row stack: :func:`member`, or
    :func:`harmonic_member`'s pair (h, g) for a harmonic bound."""
    return harmonic_member(a, gamma, k, order) if bound.harmonic else member(a, gamma, order)


def member_series_stack(bound, a, gamma: float, k: float, order: int):
    """The members' own one-row stacks from :func:`member_series`, copied into
    one complex ``SeriesStack`` (h and g apart for a harmonic bound)."""
    members = [member_series(bound, float(x), gamma, k, order) for x in a]
    return tuple(map(stack_of, zip(*members))) if bound.harmonic else stack_of(members)


def family_infimum_reference(bound_for: Callable, a, gamma: float, tol: float = 1e-10):
    """``solver.family_infimum_radius`` solving one member after another, each
    with ``bohr_radius_of_function`` on its own per-member bound."""
    from bohrlab.solver import RadiusResult, bohr_radius_of_function

    a = [float(x) for x in a]
    results = [bohr_radius_of_function(bound_for(x), tol) for x in a]
    for x, res in zip(a, results):
        if res.status == "no_radius":
            return dataclasses.replace(res, witness={"a": x, "gamma": gamma})
    witnesses = sorted((x, res.radius) for x, res in zip(a, results) if x > gamma)
    rises = any(left < right - tol for (_, left), (_, right) in pairwise(witnesses))
    best = min(range(len(a)), key=lambda i: results[i].radius)
    base = results[best]
    return RadiusResult(
        radius=base.radius,
        bracket=(base.radius, base.radius + base.tol),
        tol=tol if base.constrained else base.tol,
        iterations=sum(r.iterations for r in results),
        witness={"a": a[best], "gamma": gamma},
        status=base.status,
        diagnostics=("per-function radius is not nonincreasing in a",) if rises else (),
        members=tuple(dict(a=x, radius=r.radius, iterations=r.iterations) for x, r in zip(a, results)),
    )


def sweep_order(a_grid, gamma: float, r_max: float, order: int) -> int:
    """The order a sweep's rows stop at: the shortest N in 32, 64, 128, ...
    with C x^(N+1) / (1 - x) <= 2^-60, x = q r_max, on every member, at
    most ``order``."""
    from bohrlab.extremals import family_constants

    tails = [(float(q) * r_max, float(c)) for _, q, c in (family_constants(a, gamma) for a in a_grid)]
    n = 32
    while n < order and any(c * x ** (n + 1) / (1.0 - x) > 2.0**-60 for x, c in tails):
        n *= 2
    return min(n, order)


def sweep_csv_reference(args) -> str:
    """``cli.cmd_sweep`` as it wrote its CSV: every row a list of cells, each
    float written by ``csv.writer`` as its repr, each member its own series
    at the order of :func:`sweep_order`.  Violations count only at the gammas
    where the family lies in the theorem's class (theorem 3 with lambda at or
    above 1/(1+gamma)); the others are named in a note line.  Writes
    ``args.out`` and returns the stdout lines."""
    import csv
    from pathlib import Path

    from bohrlab import cli
    from bohrlab.extremals import sharpness_a_grid

    bound = cli.BOUNDS[args.theorem]
    a_grid = sharpness_a_grid().tolist()
    rows, violations, outside = [], 0, []
    for gamma in args.gammas:
        values = cli._parameters(args, gamma)
        x = values.get(bound.param)
        columns = [x if bound.param == name else 0.0 for name in ("k", "lambda")]
        r_values = np.linspace(0.0, bound.radius(gamma, x), args.grid)
        order = sweep_order(a_grid, gamma, float(r_values[-1]), args.order)
        in_class = bound.extremal is None or x >= bound.extremal(gamma)
        if not in_class:
            outside.append(gamma)
        for a in a_grid:
            fv = bound.total(member_series(bound, a, gamma, values["k"], order), r_values[None, :], gamma, x)
            violations += int(np.count_nonzero(fv.padded() > 1.0)) if in_class else 0
            fields = (r_values, fv.total[0], fv.majorant[0], fv.correction[0], fv.tail_error[0])
            for cells in zip(*(f.tolist() for f in fields)):
                rows.append([gamma, a, *columns, *cells])
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "a", "k", "lambda", "r", "total", "majorant", "correction", "tail_error"])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    note = "" if not outside else (
        f"note: {bound.param}={x!r} is below the value where the family is extremal at gamma="
        f"{', '.join(f'{g:g}' for g in outside)}: the family is outside the theorem's class there, "
        "so those rows are tabulated but not counted as violations\n")
    return note + f"sweep theorem {args.theorem}: {len(rows)} rows, {violations} admissibility violations\n"
