"""Truncated complex power series and the enlarged-disk geometry.

The basic value type is an immutable coefficient vector a_0..a_N together
with optional tail metadata: a certificate that |a_n| <= C * q**n for every
index beyond the stored order.  All arithmetic is plain double precision;
the tail metadata is what lets the downstream evaluators report rigorous
truncation bounds instead of silently dropping mass.

Everything here is a pure function of immutable inputs, so values can be
shared freely across threads and parameter sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_ORDER",
    "TailBound",
    "PowerSeries",
    "SeriesStack",
    "DiskDomain",
    "numeric_taylor",
    "taylor_coefficients",
    "recenter_affine",
]

# Extremal-family coefficients decay like q**n with q < 1; at this order the
# neglected majorant tail is far below every tolerance used by the solvers.
DEFAULT_ORDER = 2048


@dataclass(frozen=True)
class TailBound:
    """Certificate |a_n| <= C * q**n for all coefficients beyond the stored order."""

    q: float
    C: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"tail ratio must lie in [0, 1), got {self.q}")
        if not (math.isfinite(self.C) and self.C >= 0.0):
            raise ValueError(f"tail constant must be finite and nonnegative, got {self.C}")


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients a_0..a_N of an analytic function.

    The arithmetic never depends on where the expansion is centered: the
    coefficients of a series about a point c stand for sum a_n (z - c)^n.
    """

    coeffs: np.ndarray
    tail: TailBound | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128).reshape(-1)
        if arr.size == 0:
            raise ValueError("a series needs at least its constant coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # ------------------------------------------------------------------
    # views

    @property
    def order(self) -> int:
        """Truncation order N; ``coeffs`` holds a_0..a_N."""
        return self.coeffs.size - 1

    @cached_property
    def _memo(self) -> dict:
        """Values derived from the coefficients, stored here by the code that
        computes them so that each is computed once per series (the
        evaluators' weight tables in :mod:`functionals`)."""
        return {}


class SeriesStack:
    """Series of one order, evaluated together at one radius per member or on
    one radius row that every member shares.

    ``coeffs`` (complex, or float64 for real series) has one member per row,
    as do the evaluators' weight tables; ``q`` and ``C`` are the members'
    certificate arrays, 0 where a member has none, and all 0 when they are
    left out.  All three are held as given, with no copy and no finiteness
    check.
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


def numeric_taylor(f: Callable, order: int, rho: float = 0.5, samples: int | None = None) -> PowerSeries | SeriesStack:
    """Taylor coefficients about 0 of a black-box analytic function.

    Computes a_n = (2*pi)^-1 * integral of f(rho e^{i t}) e^{-i n t} dt / rho**n
    with uniform trapezoid sampling, i.e. one FFT over ``samples`` points on
    the circle of radius ``rho``.  The default uses 8 samples per requested
    order, which keeps the aliasing error geometrically small; roundoff grows
    like eps / rho**n, so callers extracting high orders should raise ``rho``.
    ``f`` is called once, on the cached, read-only array of all sample points.
    An ``f`` that returns one row of values per function, shape (M, samples),
    gives the :class:`SeriesStack` of the M expansions, with no certificates;
    row i equals, bit for bit, the expansion of row i alone.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 < rho < 1.0:
        raise ValueError("sampling radius must lie in (0, 1)")
    m = 8 * order if samples is None else int(samples)
    if m < 8 * order:
        raise ValueError("need at least 8 samples per coefficient order")
    z = _circle(m, rho)
    vals = np.asarray(f(z), dtype=np.complex128)
    if vals.shape[-1:] != z.shape or vals.ndim > 2:
        raise ValueError(f"function must return one value per sample point, or one row of them per function, "
                         f"got shape {vals.shape} for {m}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("function produced non-finite samples on the circle")
    coeffs = taylor_coefficients(vals, order, rho)
    return SeriesStack(coeffs) if vals.ndim == 2 else PowerSeries(coeffs)


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")


def recenter_affine(p: PowerSeries | SeriesStack, gamma: float | np.ndarray) -> PowerSeries | SeriesStack:
    """Rescale a series about gamma into its unit-disk counterpart.

    Given g(z) = sum alpha_n (z - gamma)^n, returns G with b_n =
    alpha_n * (1-gamma)^n, so that g = G((z - gamma)/(1 - gamma)).  A
    :class:`SeriesStack` is rescaled row by row, about one gamma or one gamma
    per member; row i equals, bit for bit, the call on member i alone.
    """
    if isinstance(p, SeriesStack):
        if not np.all((0.0 <= gamma) & (gamma < 1.0)) or np.shape(gamma) not in {(), p.coeffs.shape[:1]}:
            raise ValueError(f"gamma must lie in [0, 1), one value or one per member, got {gamma}")
        scale = 1.0 - gamma
        return SeriesStack(p.coeffs * np.power.outer(scale, np.arange(p.order + 1)), p.tail.q * scale, p.tail.C)
    _check_gamma(gamma)
    scale = (1.0 - gamma) ** np.arange(p.order + 1)
    tail = None
    if p.tail is not None:
        tail = TailBound(p.tail.q * (1.0 - gamma), p.tail.C)
    return PowerSeries(p.coeffs * scale, tail)


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
