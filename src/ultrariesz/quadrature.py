"""Integration against dm_lambda = (sin theta)**(2*lambda) d(theta) and
endpoint-singular 1-D integrals.

Two engines are provided.  Gaussian rules for dm_lambda come from the
Golub-Welsch eigenproblem with the analytically known recurrence
coefficients of the weight (1 - x**2)**(lambda - 1/2) after x = cos(theta).
Everything with an endpoint singularity (algebraic or logarithmic) goes
through adaptive tanh-sinh quadrature, which also supplies the fixed node
sets the kernel integrals build their grids from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import validate_lambda

__all__ = [
    "QuadratureError",
    "ConstructionError",
    "EvaluationError",
    "AccuracyError",
    "QuadratureRule",
    "GridFunction",
    "PowerWeight",
    "total_mass",
    "build_rule",
    "integrate",
    "singular_integrate",
    "tanh_sinh_segment",
    "gauss_legendre_segment",
    "lp_norm",
]


class QuadratureError(RuntimeError):
    """Base class for quadrature failures."""


class ConstructionError(QuadratureError):
    """Gaussian rule construction failed (eigenproblem did not converge)."""


class EvaluationError(QuadratureError):
    """Integrand returned a non-finite value at a quadrature node."""


class AccuracyError(QuadratureError):
    """Requested tolerance could not be met; carries the best estimate."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.6e}, bound {error_bound:.3e})")
        self.estimate = estimate
        self.error_bound = error_bound


def total_mass(lam: float) -> float:
    """m_lambda(0, pi) = sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1)."""
    lam = validate_lambda(lam)
    return math.sqrt(math.pi) * math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian nodes/weights for integration against dm_lambda on (0, pi)."""

    nodes: np.ndarray
    weights: np.ndarray
    lam: float
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ConstructionError("nodes and weights must be 1-D and equally long")
        if np.any(np.diff(nodes) <= 0.0):
            raise ConstructionError("nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= math.pi:
            raise ConstructionError("nodes must lie inside (0, pi)")
        if np.any(weights <= 0.0):
            raise ConstructionError("weights must be positive")
        mass = total_mass(self.lam)
        if abs(weights.sum() - mass) > 1e-12 * mass:
            raise ConstructionError("weights do not sum to the measure's total mass")


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a strictly increasing theta grid in (0, pi)."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)
        if thetas.shape != values.shape or thetas.ndim != 1:
            raise ValueError("thetas and values must be 1-D and equally long")
        if np.any(np.diff(thetas) <= 0.0):
            raise ValueError("thetas must be strictly increasing")
        if thetas[0] <= 0.0 or thetas[-1] >= math.pi:
            raise ValueError("thetas must lie inside (0, pi)")


@dataclass(frozen=True)
class PowerWeight:
    """The weight w(theta) = (sin theta)**exponent; integrability is the
    caller's concern."""

    exponent: float = 0.0


@lru_cache(maxsize=None)
def _cached_rule(lam: float, order: int) -> QuadratureRule:
    # Monic recurrence for the weight (1-x^2)^(lam-1/2):
    # b_k = k (k + 2 lam - 1) / (4 (k + lam) (k + lam - 1)), diagonal zero.
    k = np.arange(1, order)
    b = k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0))
    jacobi = np.zeros((order, order))
    off = np.sqrt(b)
    idx = np.arange(order - 1)
    jacobi[idx, idx + 1] = off
    jacobi[idx + 1, idx] = off
    try:
        x, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError(f"eigenproblem failed for lambda={lam}, order={order}") from exc
    w = total_mass(lam) * vectors[0, :] ** 2
    theta = np.arccos(np.clip(x, -1.0, 1.0))[::-1]
    return QuadratureRule(nodes=theta, weights=w[::-1].copy(), lam=lam, order=order)


def build_rule(lam: float, order: int) -> QuadratureRule:
    """N-point Gaussian rule for dm_lambda, exact for polynomials in
    cos(theta) of degree <= 2N - 1."""
    lam = validate_lambda(lam)
    if order < 2:
        raise ValueError(f"rule order must be at least 2, got {order}")
    return _cached_rule(lam, int(order))


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(v)) for v in x])


def integrate(rule: QuadratureRule, f: Callable) -> float:
    """Sum w_i f(theta_i); raises EvaluationError on non-finite values."""
    y = _evaluate(f, rule.nodes)
    if not np.all(np.isfinite(y)):
        bad = rule.nodes[~np.isfinite(y)][0]
        raise EvaluationError(f"integrand is not finite at node {bad!r}")
    return float(np.dot(rule.weights, y))


# ---------------------------------------------------------------------------
# tanh-sinh (double exponential) quadrature
# ---------------------------------------------------------------------------

#: truncation of the double-exponential variable: endpoint distances reach
#: ~exp(-pi*sinh(4.8)), small enough that any integrable algebraic
#: singularity has negligible mass beyond the last node
_T_MAX_SINGULAR = 4.8
_T_MAX_SMOOTH = 3.5


@lru_cache(maxsize=None)
def _ts_table(level: int, t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index, side, endpoint distance and weight of the rule at step 2**-level.

    ``side`` is -1/+1 for nodes left/right of the midpoint, ``dist`` the
    distance to the nearer endpoint of (-1, 1) computed without cancellation,
    ``weight`` includes the step size.
    """
    h = 2.0 ** (-level)
    k = np.arange(-math.floor(t_max / h), math.floor(t_max / h) + 1)
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    # 1 - tanh|u| = 2 / (exp(2|u|) + 1), exact for large |u|
    dist = 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
    weight = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    side = np.sign(t).astype(int)
    side[side == 0] = 1
    keep = weight > 1e-300
    return k[keep], side[keep], dist[keep], weight[keep]


def _ts_nodes(level: int, t_max: float = _T_MAX_SINGULAR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _, side, dist, weight = _ts_table(level, t_max)
    return side, dist, weight


def _ts_new_points(level: int, t_max: float = _T_MAX_SINGULAR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes present at ``level`` but not at ``level - 1`` (odd multiples)."""
    k, side, dist, weight = _ts_table(level, t_max)
    if level == 0:
        return side, dist, weight
    odd = (np.abs(k) % 2) == 1
    return side[odd], dist[odd], weight[odd]


def _map_nodes(lo: float, hi: float, side: np.ndarray, dist: np.ndarray) -> np.ndarray:
    half = 0.5 * (hi - lo)
    x = np.where(side < 0, lo + half * dist, hi - half * dist)
    return x


def singular_integrate(
    f: Callable,
    lo: float,
    hi: float,
    *,
    singular_ends: tuple[bool, bool] = (True, True),
    tol: float = 1e-10,
    rtol: float = 1e-12,
    max_level: int = 12,
) -> float:
    """Integrate f over (lo, hi) by adaptive tanh-sinh quadrature.

    Handles integrands with algebraic-logarithmic singularities at either
    endpoint.  Convergence is declared when the level-to-level difference
    drops below max(tol, rtol * |integral|); otherwise an AccuracyError
    carrying the best estimate is raised.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid integration interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    t_max = _T_MAX_SINGULAR if any(singular_ends) else _T_MAX_SMOOTH

    def eval_batch(side, dist, weight):
        x = _map_nodes(lo, hi, side, dist)
        y = _evaluate(f, x)
        bad = ~np.isfinite(y)
        if np.any(bad):
            # an endpoint-rounded node with negligible weight may be dropped
            droppable = bad & (weight < 1e-250)
            if np.any(bad & ~droppable):
                raise EvaluationError(f"integrand is not finite at x={x[bad & ~droppable][0]!r}")
            y = np.where(droppable, 0.0, y)
        return float(np.dot(weight, y))

    # weights carry the step h of their own level; rescale the running sum
    # by halving when the level increases.  The level-to-level difference is
    # taken as the error bound (conservative: convergence is faster than
    # linear once the rule resolves the singularity).
    estimate = None
    previous = None
    diff = math.inf
    total = 0.0
    for level in range(0, max_level + 1):
        if level == 0:
            side, dist, weight = _ts_nodes(0, t_max)
            total = eval_batch(side, dist, weight)
        else:
            side, dist, weight = _ts_new_points(level, t_max)
            total = 0.5 * total + eval_batch(side, dist, weight)
        estimate = half * total
        if previous is not None:
            diff = abs(estimate - previous)
            if level >= 3 and diff <= max(tol, rtol * abs(estimate)):
                return estimate
        previous = estimate
    raise AccuracyError(
        f"tanh-sinh did not reach tolerance {tol:g} on ({lo}, {hi})",
        estimate=estimate,
        error_bound=diff,
    )


def tanh_sinh_segment(lo: float, hi: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed tanh-sinh nodes/weights on (lo, hi); nodes never touch the ends.

    Nodes whose endpoint distance underflows the spacing of lo/hi are
    dropped; their weights are below 1e-15 of the total, far under the
    accuracy of the rule itself.
    """
    if hi <= lo:
        raise ValueError(f"invalid segment ({lo}, {hi})")
    side, dist, weight = _ts_nodes(level)
    x = _map_nodes(lo, hi, side, dist)
    keep = (x > lo) & (x < hi)
    return x[keep], 0.5 * (hi - lo) * weight[keep]


@lru_cache(maxsize=None)
def _gl_base(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_segment(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes/weights on (lo, hi)."""
    x, w = _gl_base(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _least_squares_fit(design: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients c of design @ c ~ values, and the largest
    absolute residual of the fit."""
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coeffs, float(np.max(np.abs(design @ coeffs - values)))


def lp_norm(
    f,
    p: float,
    weight: PowerWeight | float,
    rule: QuadratureRule,
) -> float:
    """(integral of |f|**p (sin theta)**a dm_lambda)**(1/p).

    ``f`` may be a callable or a GridFunction.  For callables with a = 0 the
    Gaussian rule is used directly; a nonzero power weight makes the
    integrand non-polynomial at the endpoints, so it is routed through
    tanh-sinh.  Sampled data integrates by the trapezoid rule on its grid.
    """
    if p < 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    a = weight.exponent if isinstance(weight, PowerWeight) else float(weight)
    lam = rule.lam
    if isinstance(f, GridFunction):
        g = np.abs(f.values) ** p * np.sin(f.thetas) ** (a + 2.0 * lam)
        return float(np.trapezoid(g, f.thetas)) ** (1.0 / p)
    if a == 0.0:
        value = integrate(rule, lambda th: np.abs(_evaluate(f, np.asarray(th, dtype=float))) ** p)
        return value ** (1.0 / p)
    value = singular_integrate(
        lambda th: np.abs(_evaluate(f, np.asarray(th, dtype=float))) ** p
        * np.sin(th) ** (a + 2.0 * lam),
        0.0,
        math.pi,
    )
    return value ** (1.0 / p)
