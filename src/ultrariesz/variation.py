"""Oscillation and rho-variation of the truncated transforms.

Both operators act on a trace: the truncated integrals of one function at
one point, tabulated over a decreasing grid of truncation radii.  On a
finite grid the oscillation is an exact band-wise max-min computation, and
the supremum over decreasing radius sequences in the variation is an exact
dynamic program; the honesty check for the continuum definitions is
stability of the results under grid refinement, which the report machinery
measures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import QuadratureRule, _evaluate
from .special import _check_integer
from .transforms import (
    SpectralCoefficients,
    TruncationSchedule,
    band_limited,
    riesz_pv,
    riesz_spectral,
)

__all__ = [
    "TruncationTrace",
    "DyadicBands",
    "ThetaRecord",
    "ConvergenceReport",
    "oscillation",
    "rho_variation",
    "convergence_report",
]


@dataclass(frozen=True)
class TruncationTrace:
    """Truncated values of one function at one point over a radius grid."""

    epsilons: np.ndarray
    values: np.ndarray
    theta: float

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "values", vals)
        if eps.shape != vals.shape or eps.ndim != 1:
            raise ValueError("epsilons and values must be 1-D and equally long")
        # finite first: the differences of infinite radii are NaN
        if not (np.all(np.isfinite(eps)) and np.all(np.diff(eps) < 0.0)):
            raise ValueError("epsilons must be finite and strictly decreasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class DyadicBands:
    """The fixed decreasing sequence t_0 > t_1 > ... of the oscillation
    operator; band i is the radius interval [t_{i+1}, t_i)."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two band edges")
        if not (np.all(np.isfinite(t)) and np.all(t > 0.0) and np.all(np.diff(t) < 0.0)):
            raise ValueError("band edges must be finite, positive and strictly decreasing")

    @classmethod
    def dyadic(cls, t0: float = 1.0, count: int = 16) -> "DyadicBands":
        count = _check_integer("edge count", count, 2)
        # before the edges are allocated: any count past ~1075 underflows
        last = t0 * 0.5 ** (count - 1)
        if not (math.isfinite(t0) and last > 0.0):
            raise ValueError(f"band edges must be finite and positive: t0 {t0!r} gives a last edge of {last!r}")
        return cls(t0 * 0.5 ** np.arange(count))


def oscillation(trace: TruncationTrace, bands: DyadicBands) -> float:
    """l2 sum over bands of the largest truncation fluctuation inside each.

    Within one band the supremum of |T_a - T_b| over grid radii is the
    spread max - min; bands holding fewer than two grid points contribute
    nothing.
    """
    total = 0.0
    for i in range(bands.t.size - 1):
        hi, lo = bands.t[i], bands.t[i + 1]
        inside = (trace.epsilons >= lo) & (trace.epsilons < hi)
        if np.count_nonzero(inside) >= 2:
            window = trace.values[inside]
            total += float(window.max() - window.min()) ** 2
    return math.sqrt(total)


def rho_variation(trace: TruncationTrace, rho: float = 3.0) -> float:
    """Supremum over decreasing radius subsequences of the l^rho sum of
    consecutive differences, restricted to the grid; exact via dynamic
    programming.

    The operator is defined for rho > 2; smaller rho >= 1 is accepted with a
    warning since the finite-grid value still makes sense.  The dynamic
    program runs on the differences over the largest one, so no power of
    them underflows at a large finite rho.
    """
    if not (math.isfinite(rho) and rho >= 1.0):
        raise ValueError(f"rho must be finite and at least 1, got {rho}")
    if rho <= 2.0:
        warnings.warn(f"rho = {rho} is outside the rho > 2 regime", stacklevel=2)
    values = trace.values
    n = values.size
    scale = float(np.ptp(values)) if n >= 2 else 0.0
    if scale == 0.0:
        return 0.0
    best = np.zeros(n)
    for i in range(1, n):
        best[i] = np.max(best[:i] + (np.abs(values[i] - values[:i]) / scale) ** rho)
    return scale * float(np.max(best)) ** (1.0 / rho)


@dataclass(frozen=True)
class ThetaRecord:
    """Everything measured at one evaluation point."""

    theta: float
    trace: TruncationTrace
    oscillation: float
    variation: float
    maximal: float
    pv: float
    spectral: float
    abs_error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-point records plus grid norms of the oscillation and variation
    functions for one (lambda, k, f) configuration."""

    lam: float
    k: int
    rho: float
    band_edges: np.ndarray
    records: list[ThetaRecord]
    norms: dict[str, dict[str, float]]

    def max_abs_error(self) -> float:
        return max((r.abs_error for r in self.records), default=0.0)


def _grid_norm(thetas: np.ndarray, values: np.ndarray, p: float, lam: float) -> float:
    if thetas.size < 2:
        return float(np.abs(values[0])) if thetas.size else 0.0
    # the trapezoid rule needs increasing nodes; the points may come in any order
    order = np.argsort(thetas, kind="stable")
    thetas, values = thetas[order], values[order]
    weight = np.sin(thetas) ** (2.0 * lam)
    return float(np.trapezoid(np.abs(values) ** p * weight, thetas)) ** (1.0 / p)


def convergence_report(
    f: Callable | SpectralCoefficients,
    lam: float,
    k: int,
    thetas: Sequence[float],
    schedule: TruncationSchedule,
    bands: DyadicBands,
    rho: float,
    rule: QuadratureRule,
    *,
    n_max: int = 16,
) -> ConvergenceReport:
    """Trace, oscillation, variation, maximal and PV-vs-spectral error per
    theta, plus L^p grid norms (p = 1, 2, 4) of the operator outputs.

    ``f`` may be a callable or a finite coefficient vector; coefficient input
    makes the spectral reference exact up to quadrature.
    """
    if isinstance(f, SpectralCoefficients):
        func = band_limited(f)
        n_max = max(n_max, f.degree)
    else:
        func = f
    thetas = np.asarray(thetas, dtype=float)
    records = []
    for theta in thetas:
        pv = riesz_pv(func, lam, k, float(theta), schedule)
        trace = TruncationTrace(epsilons=schedule.epsilons, values=pv.truncated, theta=float(theta))
        spectral = riesz_spectral(func, lam, k, float(theta), n_max, rule)
        records.append(
            ThetaRecord(
                theta=float(theta),
                trace=trace,
                oscillation=oscillation(trace, bands),
                variation=rho_variation(trace, rho),
                maximal=float(np.max(np.abs(pv.truncated))),
                pv=pv.value,
                spectral=spectral,
                abs_error=abs(pv.value - spectral),
            )
        )
    f_values = _evaluate(func, thetas)
    norms: dict[str, dict[str, float]] = {}
    for p in (1.0, 2.0, 4.0):
        key = f"p{p:g}"
        norms[key] = {
            "f": _grid_norm(thetas, f_values, p, lam),
            "oscillation": _grid_norm(thetas, np.array([r.oscillation for r in records]), p, lam),
            "variation": _grid_norm(thetas, np.array([r.variation for r in records]), p, lam),
            "maximal": _grid_norm(thetas, np.array([r.maximal for r in records]), p, lam),
        }
    return ConvergenceReport(
        lam=lam, k=k, rho=rho, band_edges=bands.t.copy(), records=records, norms=norms
    )
