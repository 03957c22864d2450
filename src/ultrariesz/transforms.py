"""Ultraspherical analysis/synthesis, the Poisson semigroup, fractional
powers, and the two routes to the Riesz transform.

The spectral route applies the multiplier (n + lambda)**(-k) and takes k
theta-derivatives through jet arithmetic.  The integral route truncates the
singular kernel away from the diagonal, evaluates the truncations on a
decreasing schedule of radii, removes the truncation error by a least
squares fit in the radius, and adds the parity jump constant gamma_k.
The two must agree; the test suite holds them to each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import RIESZ_MIN_SEPARATION, KernelConfig, kernel_constants, poisson_kernel, riesz_kernel
from .quadrature import (
    AccuracyError,
    QuadratureRule,
    _least_squares_fit,
    gauss_legendre_segment,
    tanh_sinh_segment,
)
from .special import gegenbauer_theta_jets, norm_sq, validate_lambda

__all__ = [
    "SpectralCoefficients",
    "TruncationSchedule",
    "PVResult",
    "TruncationOperator",
    "analyze",
    "synthesize",
    "band_limited",
    "poisson_coefficients",
    "poisson_spectral",
    "poisson_via_kernel",
    "fractional_power",
    "riesz_spectral",
    "riesz_pv",
    "riesz_maximal",
]


@dataclass(frozen=True)
class SpectralCoefficients:
    """Coefficients against the L2(dm_lambda)-normalized eigenfunctions."""

    lam: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", validate_lambda(self.lam))
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


#: the fit uses only the smallest radii, where higher-order terms are dead
_FIT_WINDOW = 7

#: tanh-sinh level of the phi panels that reach 0 or pi
_PHI_LEVEL = 5

#: Gauss-Legendre points per band between consecutive radii
_BAND_POINTS = 24

#: the fit reads only the smallest radii and every band costs kernel calls,
#: so a longer schedule only adds work
_MAX_RADII = 1000


@dataclass(frozen=True)
class TruncationSchedule:
    """Three to 1000 strictly decreasing truncation radii in (0, pi), the
    smallest above the Riesz kernel's diagonal guard."""

    epsilons: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        object.__setattr__(self, "epsilons", eps)
        # conditions are written so that a NaN radius fails them
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("schedule must be a nonempty 1-D sequence")
        if not np.all((eps > 0.0) & (eps < math.pi)):
            raise ValueError("truncation radii must lie in (0, pi)")
        if not np.all(np.diff(eps) < 0.0):
            raise ValueError("truncation radii must be strictly decreasing")
        if eps.size < 3:
            raise ValueError("the radius fit needs at least 3 radii")
        if eps.size > _MAX_RADII:
            raise ValueError(f"a schedule holds at most {_MAX_RADII} radii, got {eps.size}")
        if not eps[-1] > RIESZ_MIN_SEPARATION:
            raise ValueError(
                f"smallest radius {eps[-1]:g} is inside the kernel guard {RIESZ_MIN_SEPARATION:g}"
            )

    @classmethod
    def geometric(cls, start: float = 0.05, ratio: float = 0.5, count: int = 9) -> "TruncationSchedule":
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        # checked before the radii are allocated
        if count > _MAX_RADII:
            raise ValueError(f"a schedule holds at most {_MAX_RADII} radii, got {count}")
        return cls(start * ratio ** np.arange(count))


def default_schedule() -> TruncationSchedule:
    return TruncationSchedule.geometric()


def analyze(f: Callable, lam: float, n_max: int, rule: QuadratureRule) -> SpectralCoefficients:
    """Coefficients of f against the normalized eigenfunctions up to degree
    n_max, by Gaussian quadrature."""
    lam = validate_lambda(lam)
    if rule.order < n_max + 1:
        raise ValueError(f"rule order {rule.order} too low for degree {n_max}")
    basis = _normalized_basis(lam, n_max, rule)
    fvals = np.array([float(np.atleast_1d(f(th))[0]) for th in rule.nodes])
    return SpectralCoefficients(lam=lam, coeffs=basis @ (rule.weights * fvals))


def _normalized_basis(lam: float, n_max: int, rule: QuadratureRule) -> np.ndarray:
    x = np.cos(rule.nodes)
    rows = np.empty((n_max + 1, x.size))
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = 2.0 * lam * x
    for m in range(2, n_max + 1):
        rows[m] = (2.0 * (m + lam - 1.0) * x * rows[m - 1] - (m + 2.0 * lam - 2.0) * rows[m - 2]) / m
    norms = np.array([math.sqrt(norm_sq(n, lam)) for n in range(n_max + 1)])
    return rows / norms[:, None]


def synthesize(c: SpectralCoefficients, theta: float, derivative_order: int = 0) -> float:
    """Sum of c_n times the derivative_order-th theta-derivative of the
    normalized eigenfunction, via jets."""
    if derivative_order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {derivative_order}")
    jets = gegenbauer_theta_jets(c.degree, c.lam, theta, derivative_order)
    total = 0.0
    for n, coeff in enumerate(c.coeffs):
        if coeff == 0.0:
            continue
        total += coeff * jets[n].coeffs[derivative_order] / math.sqrt(norm_sq(n, c.lam))
    return total


def band_limited(c: SpectralCoefficients) -> Callable:
    """The function synthesized from a finite coefficient vector, vectorized
    over theta; the standard test family of the package."""
    from .special import gegenbauer_eval

    norms = np.array([math.sqrt(norm_sq(n, c.lam)) for n in range(c.degree + 1)])

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        x = np.cos(th)
        out = np.zeros_like(th)
        for n, coeff in enumerate(c.coeffs):
            if coeff == 0.0:
                continue
            out += coeff * gegenbauer_eval(n, c.lam, x) / norms[n]
        return out if np.ndim(theta) else float(out[0])

    return f


def poisson_coefficients(c: SpectralCoefficients, t: float) -> SpectralCoefficients:
    """Apply the Poisson multiplier exp(-t (n + lambda)) on coefficients."""
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    n = np.arange(c.degree + 1)
    return SpectralCoefficients(lam=c.lam, coeffs=c.coeffs * np.exp(-t * (n + c.lam)))


def poisson_spectral(c: SpectralCoefficients, t: float, theta: float) -> float:
    """Poisson semigroup at time t evaluated at theta, spectral side."""
    return synthesize(poisson_coefficients(c, t), theta)


def poisson_via_kernel(
    f: Callable, lam: float, t: float, theta: float, rule: QuadratureRule, *, tol: float = 1e-10
) -> float:
    """Poisson semigroup at time t through the kernel integral
    r**lam * P_lambda(r, theta, .) against dm_lambda, with r = exp(-t)."""
    lam = validate_lambda(lam)
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    r = math.exp(-t)
    kernel_vals = np.array(
        [poisson_kernel(lam, r, theta, phi, tol=tol) for phi in rule.nodes]
    )
    fvals = np.array([float(np.atleast_1d(f(phi))[0]) for phi in rule.nodes])
    return r**lam * float(np.dot(rule.weights, kernel_vals * fvals))


def fractional_power(c: SpectralCoefficients, alpha: float) -> SpectralCoefficients:
    """Negative fractional power of the Sturm-Liouville operator:
    multiplier (n + lambda)**(-2*alpha)."""
    if alpha <= 0.0:
        raise ValueError(f"exponent must be positive, got {alpha}")
    n = np.arange(c.degree + 1)
    return SpectralCoefficients(lam=c.lam, coeffs=c.coeffs * (n + c.lam) ** (-2.0 * alpha))


def riesz_spectral(
    f: Callable, lam: float, k: int, theta: float, n_max: int, rule: QuadratureRule
) -> float:
    """Order-k Riesz transform through the spectral pipeline:
    analyze -> multiplier (n+lambda)**(-k) -> k-th derivative synthesis."""
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    c = analyze(f, lam, n_max, rule)
    norm = float(np.linalg.norm(c.coeffs))
    if norm > 0.0 and abs(c.coeffs[-1]) > 1e-8 * norm:
        warnings.warn(
            f"coefficient tail |a_{n_max}|/||a|| = {abs(c.coeffs[-1]) / norm:.2e} > 1e-8; "
            "the function may not be resolved at this degree",
            stacklevel=2,
        )
    return synthesize(fractional_power(c, 0.5 * k), theta, derivative_order=k)


class TruncationOperator:
    """Truncated Riesz integrals at fixed (lambda, k, theta) for a decreasing
    radius schedule.

    The complement of the largest excluded band is integrated once with
    tanh-sinh panels; each schedule step then adds the two thin bands between
    consecutive radii with Gauss-Legendre panels (the kernel is analytic
    there).  Kernel values are computed once and reused for every function
    the operator is applied to.  ``epsilons`` must form a TruncationSchedule.
    """

    def __init__(
        self,
        lam: float,
        k: int,
        theta: float,
        epsilons: Sequence[float],
        *,
        config: KernelConfig | None = None,
    ):
        self.lam = validate_lambda(lam)
        self.k = int(k)
        self.theta = float(theta)
        self.epsilons = TruncationSchedule(epsilons).epsilons
        theta = self.theta
        e0 = float(self.epsilons[0])
        pieces: list[tuple[float, float, int, bool]] = []
        if theta - e0 > 0.0:
            pieces.append((0.0, theta - e0, 0, True))
        if theta + e0 < math.pi:
            pieces.append((theta + e0, math.pi, 0, True))
        for i in range(1, self.epsilons.size):
            hi_r, lo_r = float(self.epsilons[i - 1]), float(self.epsilons[i])
            lo, hi = theta - hi_r, theta - lo_r
            if hi > 0.0:
                pieces.append((max(lo, 0.0), hi, i, lo <= 0.0))
            lo, hi = theta + lo_r, theta + hi_r
            if lo < math.pi:
                pieces.append((lo, min(hi, math.pi), i, hi >= math.pi))
        segments = []
        for lo, hi, index, endpoint in pieces:
            if endpoint:
                nodes, weights = tanh_sinh_segment(lo, hi, _PHI_LEVEL)
            else:
                nodes, weights = gauss_legendre_segment(lo, hi, _BAND_POINTS)
            # nodes that round onto 0 or pi carry negligible weight and a
            # vanishing (sin phi)**(2 lam) factor; drop them
            keep = (nodes > 0.0) & (nodes < math.pi)
            nodes, weights = nodes[keep], weights[keep]
            kernel_vals = riesz_kernel(self.lam, self.k, theta, nodes, config=config)
            segments.append((nodes, weights * np.sin(nodes) ** (2.0 * self.lam) * kernel_vals, index))
        self._segments = segments

    def truncated_values(self, f: Callable) -> np.ndarray:
        """The truncated integral at every schedule radius, largest first."""
        out = np.zeros(self.epsilons.size)
        for nodes, kernel_weights, index in self._segments:
            fvals = np.asarray(f(nodes), dtype=float)
            out[index:] += float(np.dot(kernel_weights, fvals))
        return out


@dataclass(frozen=True)
class PVResult:
    """Outcome of the principal-value evaluation at one point."""

    value: float
    extrapolated: float
    gamma_term: float
    residual: float
    epsilons: np.ndarray
    truncated: np.ndarray


def _extrapolate(epsilons: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Value at radius zero and worst residual of the least-squares fit of
    1, eps, eps*log(eps), eps**2 over the smallest radii.  The truncation
    error expands in integer powers of the radius with logarithms (measured:
    an eps*log term is present and no half power is).  With fewer than five
    radii the highest terms are dropped so the fit stays overdetermined."""
    window = min(_FIT_WINDOW, epsilons.size)
    eps = epsilons[-window:]
    basis = (np.ones_like(eps), eps, eps * np.log(eps), eps * eps)[: window - 1]
    coeffs, residual = _least_squares_fit(np.column_stack(basis), values[-window:])
    return float(coeffs[0]), residual


def riesz_pv(
    f: Callable,
    lam: float,
    k: int,
    theta: float,
    schedule: TruncationSchedule | None = None,
    *,
    tolerance: float = 1e-3,
    config: KernelConfig | None = None,
    operator: TruncationOperator | None = None,
) -> PVResult:
    """Principal-value Riesz transform: truncations along the schedule,
    their fit extrapolated to radius zero, plus the jump term gamma_k f(theta).

    A pre-built TruncationOperator for the same (lambda, k, theta, schedule)
    may be passed to amortize kernel evaluations over several functions.
    """
    schedule = schedule or default_schedule()
    if operator is None:
        operator = TruncationOperator(lam, k, theta, schedule.epsilons, config=config)
    values = operator.truncated_values(f)
    limit, residual = _extrapolate(schedule.epsilons, values)
    if residual > 10.0 * tolerance:
        raise AccuracyError(
            f"PV fit residual {residual:.2e} exceeds 10 x tolerance {tolerance:g}",
            estimate=limit,
            error_bound=residual,
        )
    gamma_term = kernel_constants(k).gamma_k * float(np.atleast_1d(f(theta))[0])
    return PVResult(
        value=limit + gamma_term,
        extrapolated=limit,
        gamma_term=gamma_term,
        residual=residual,
        epsilons=schedule.epsilons.copy(),
        truncated=values,
    )


def riesz_maximal(
    f: Callable,
    lam: float,
    k: int,
    theta: float,
    schedule: TruncationSchedule | None = None,
    *,
    config: KernelConfig | None = None,
    operator: TruncationOperator | None = None,
) -> float:
    """Maximal truncated transform over the schedule: sup |truncation|."""
    schedule = schedule or default_schedule()
    if operator is None:
        operator = TruncationOperator(lam, k, theta, schedule.epsilons, config=config)
    return float(np.max(np.abs(operator.truncated_values(f))))
