"""Truncated complex power series and the enlarged-disk geometry.

The one series type is :class:`SeriesStack`: the coefficient vectors a_0..a_N
of one or more series of one order, one row each, together with each row's
tail certificate, |a_n| <= C * q**n for every index beyond the stored order.
All arithmetic is plain double precision; the certificates are what let the
downstream evaluators report rigorous truncation bounds instead of silently
dropping mass.

Everything here is a pure function of its inputs, so values can be shared
freely across threads and parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_ORDER",
    "SeriesStack",
    "DiskDomain",
    "numeric_taylor",
    "taylor_coefficients",
    "recenter_affine",
]

# Extremal-family coefficients decay like q**n with q < 1; at this order the
# neglected majorant tail is far below every tolerance used by the solvers.
DEFAULT_ORDER = 2048


class SeriesStack:
    """Series of one order, one per row (one series is a one-row stack),
    evaluated together at one radius per member or on one radius row that
    every member shares.

    ``coeffs`` (complex, or float64 for real series) has one member per row;
    ``q`` and ``C`` are the members' certificate arrays, 0 where a member has
    none, and all 0 when they are left out.  All three are held as given, with
    no copy and no finiteness check (:func:`numeric_taylor` checks what it
    reads from outside the package).  ``_memo`` keeps the evaluators' weight
    tables, each built once per stack.
    """

    def __init__(self, coeffs: np.ndarray, q: np.ndarray | None = None, C: np.ndarray | None = None) -> None:
        self.coeffs, self.order = coeffs, coeffs.shape[1] - 1
        if q is None:
            q = C = np.zeros(len(coeffs))
        self.tail = SimpleNamespace(q=q, C=C)
        self._memo: dict = {}


@lru_cache(maxsize=64)
def _circle(m: int, rho: float) -> np.ndarray:
    """The m sample points rho e^{2 pi i j/m}, read-only, shared by every caller."""
    z = rho * np.exp(2j * np.pi * np.arange(m) / m)
    z.setflags(write=False)
    return z


def taylor_coefficients(vals: np.ndarray, order: int, rho: float) -> np.ndarray:
    """a_0..a_order of each f with ``vals[..., j]`` = f(rho e^{2 pi i j/m}), by one FFT per row."""
    coeffs = np.fft.fft(vals)[..., : order + 1] / vals.shape[-1]
    return coeffs / rho ** np.arange(order + 1)


def numeric_taylor(f: Callable, order: int, rho: float) -> SeriesStack:
    """Taylor coefficients about 0 of black-box analytic functions.

    Computes a_n = (2*pi)^-1 * integral of f(rho e^{i t}) e^{-i n t} dt / rho**n
    with uniform trapezoid sampling, i.e. one FFT over m = 8 * order points
    on the circle of radius ``rho``.  Eight samples per order keep the
    aliasing error geometrically small; roundoff grows like eps / rho**n, so
    callers extracting high orders should raise ``rho``.  ``f`` is called
    once, on the cached, read-only array of all sample points, and returns
    one row of values per function, shape (M, m), or one row alone, shape
    (m,).  The result is the :class:`SeriesStack` of the M expansions (one
    for a lone row), with no certificates; row i equals, bit for bit, the
    expansion of row i alone.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 < rho < 1.0:
        raise ValueError("sampling radius must lie in (0, 1)")
    m = 8 * order
    z = _circle(m, rho)
    vals = np.asarray(f(z), dtype=np.complex128)
    if vals.shape[-1:] != z.shape or vals.ndim > 2:
        raise ValueError(f"function must return one value per sample point, or one row of them per function, "
                         f"got shape {vals.shape} for {m}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("function produced non-finite samples on the circle")
    with np.errstate(all="ignore"):  # rho**n underflows, or the division by it overflows: raised below
        coeffs = taylor_coefficients(vals.reshape(-1, m), order, rho)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"non-finite Taylor coefficients at order {order} and rho = {rho}: "
                         "raise rho or lower the order")
    return SeriesStack(coeffs)


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")


def recenter_affine(p: SeriesStack, gamma: float | np.ndarray) -> SeriesStack:
    """Rescale a stack about gamma into its unit-disk counterpart.

    Given g(z) = sum alpha_n (z - gamma)^n, returns G with b_n =
    alpha_n * (1-gamma)^n, so that g = G((z - gamma)/(1 - gamma)); the
    certificate ratio q scales by 1 - gamma.  Each row is rescaled about one
    gamma for all, or one gamma per member; row i equals, bit for bit, the
    call on member i alone.
    """
    if not np.all((0.0 <= gamma) & (gamma < 1.0)) or np.shape(gamma) not in {(), p.coeffs.shape[:1]}:
        raise ValueError(f"gamma must lie in [0, 1), one value or one per member, got {gamma}")
    scale = 1.0 - gamma
    return SeriesStack(p.coeffs * np.power.outer(scale, np.arange(p.order + 1)), p.tail.q * scale, p.tail.C)


@dataclass(frozen=True)
class DiskDomain:
    """Round domain |z + g/(1-g)| < 1/(1-g) for g in [0, 1).

    It always contains the unit disk and is internally tangent to it at
    z = 1; g = 0 recovers the unit disk itself.
    """

    gamma: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)

    @property
    def coefficient_ratio_sup(self) -> float:
        """sup |a_n| / (1 - |a_0|^2) over bounded analytic functions on the domain."""
        return 1.0 / (1.0 + self.gamma)

    def to_unit_disk(self, w):
        """Affine bijection sending this domain onto the unit disk."""
        return self.gamma + (1.0 - self.gamma) * np.asarray(w)
