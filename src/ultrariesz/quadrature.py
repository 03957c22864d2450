"""Integration against dm_lambda = (sin theta)**(2*lambda) d(theta) and
endpoint-singular 1-D integrals.

Two engines are provided.  Gaussian rules for dm_lambda come from the
analytically known recurrence coefficients of the weight
(1 - x**2)**(lambda - 1/2) after x = cos(theta): the weight is even, so the
nodes are +- the singular values of a half-size bidiagonal block of the
Jacobi matrix, and the weights are Christoffel numbers summed by the
three-term recurrence; no eigenvectors are formed.  The Riesz operator's
phi panels take Gauss-Jacobi rules for t**beta on (0, 1), with their
orthonormal basis, the Gauss-Legendre rules are those at beta = 0 mapped
to (-1, 1), and the Riesz kernel's r-rule on (0, 1/2) takes the Gauss rule
of its own weight, whose recurrence _stieltjes draws from a discretized
measure: all through _gauss_from_recurrence.  Everything else with an
endpoint singularity (algebraic or logarithmic) goes through tanh-sinh
quadrature, which also supplies the fixed node sets the kernel integrals
build their grids from and the discretizations _stieltjes runs on.
_bernstein_points sizes every Gauss panel, the kernel's graded r-panels and
the operator's phi panels alike; tanh_sinh_segment is the one map of the
tanh-sinh table onto a segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import _check_integer, _gamma_half_ratio, validate_lambda

__all__ = [
    "QuadratureError",
    "ConstructionError",
    "EvaluationError",
    "AccuracyError",
    "QuadratureRule",
    "total_mass",
    "build_rule",
    "integrate",
    "singular_integrate",
    "tanh_sinh_segment",
    "gauss_legendre_segment",
]


class QuadratureError(RuntimeError):
    """Base class for quadrature failures."""


class ConstructionError(QuadratureError):
    """Gaussian rule construction failed: the singular values did not
    converge, or the nodes or weights came out non-finite, out of order or
    off the measure's total mass (as at an extreme lambda)."""


class EvaluationError(QuadratureError):
    """Integrand returned a non-finite value at a quadrature node."""


class AccuracyError(QuadratureError):
    """Requested tolerance could not be met; carries the best estimate."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.6e}, bound {error_bound:.3e})")
        self.estimate = estimate
        self.error_bound = error_bound


def total_mass(lam: float) -> float:
    """m_lambda(0, pi) = sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1), which is
    special.norm_sq(0, lam) bit for bit."""
    return math.sqrt(math.pi) * _gamma_half_ratio(lam)


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
        # NaN compares false in every check below
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ConstructionError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ConstructionError("nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= math.pi:
            raise ConstructionError("nodes must lie inside (0, pi)")
        if np.any(weights <= 0.0):
            raise ConstructionError("weights must be positive")
        mass = total_mass(self.lam)
        if abs(weights.sum() - mass) > 1e-12 * mass:
            raise ConstructionError("weights do not sum to the measure's total mass")


# bounded: a caller drawing a fresh lambda per call would otherwise grow the
# cache for the life of the process
@lru_cache(maxsize=32)
def _cached_rule(lam: float, order: int) -> QuadratureRule:
    # Orthonormal recurrence for the weight (1-x^2)^(lam-1/2), diagonal zero:
    # x p_k = a_{k+1} p_{k+1} + a_k p_{k-1},
    # a_k**2 = k (k + 2 lam - 1) / (4 (k + lam) (k + lam - 1)).
    # an extreme lambda overflows or zeroes some a_k; the non-finite nodes or
    # weights that follow are refused by QuadratureRule
    with np.errstate(all="ignore"):
        k = np.arange(1, order + 1)
        a = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
        x = _nonnegative_nodes(a[:-1], order)
        # Christoffel numbers mu_0 / S(x), S = sum_{k<n} p_k(x)**2, and p_n(x).
        # Row k + 1 of p holds p_k(x), row 0 p_{-1} = 0; each step writes its
        # row in place, passing out positionally (out= costs more per call)
        p = np.empty((order + 1, x.size))
        p[0], p[1] = 0.0, 1.0
        scratch = np.empty_like(x)
        below = 0.0
        for prev, cur, new, above in zip(p, p[1:], p[2:], a[:-1].tolist()):
            np.multiply(x, cur, new)
            np.multiply(below, prev, scratch)
            np.subtract(new, scratch, new)
            np.divide(new, above, new)
            below = above
        prev, cur = p[order - 1], p[order]
        p_n = (x * cur - below * prev) / a[-1]
        # one Newton step on p_n, with p_n' = S / (a_n p_{n-1}) by
        # Christoffel-Darboux; its numerator is taken while p still holds
        # p_{n-1}.  The Gegenbauer equation gives S'/S = (2 lam + 1) x /
        # (1 - x**2) at a node: it carries S to the corrected node, so a
        # node's rounding moves its weight only to second order
        numerator = a[-1] * p_n * cur
        # S in the recurrence's order, 1 + p_1**2 + p_2**2 + ..., at every
        # order, in place: a cumulative sum adds in turn, where np.sum may
        # add pairwise
        np.square(p[1:], p[1:])
        total = np.cumsum(p[1:], axis=0, out=p[1:])[-1]
        step = numerator / total
        total *= 1.0 - (2.0 * lam + 1.0) * x * step / ((1.0 - x) * (1.0 + x))
        x -= step
        theta = np.arccos(x)
        w = total_mass(lam) / total
    # the weight is even: mirror the nodes below pi/2 (the node at pi/2 of an
    # odd order is its own mirror)
    mirror = slice(order % 2, None)
    nodes = np.concatenate([theta, math.pi - theta[::-1][mirror]])
    weights = np.concatenate([w, w[::-1][mirror]])
    # read-only: every later call of this (lambda, order) returns these arrays
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, lam=lam, order=order)


def _nonnegative_nodes(off: np.ndarray, order: int) -> np.ndarray:
    """The nonnegative eigenvalues, descending, of the order x order Jacobi
    matrix with zero diagonal and off-diagonal ``off``.  With the even rows
    and columns first it is [[0, B], [B^T, 0]], B the lower-bidiagonal
    ceil(order/2) x floor(order/2) block of diagonal off[0::2] and
    subdiagonal off[1::2]: its eigenvalues are +- the singular values of B,
    and 0 at odd order."""
    block = np.zeros(((order + 1) // 2, order // 2))
    diagonal = np.arange(order // 2)
    block[diagonal, diagonal] = off[0::2]
    sub = np.arange((order - 1) // 2)
    block[sub + 1, sub] = off[1::2]
    try:
        sigma = np.linalg.svd(block, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError(f"singular values failed for order {order}") from exc
    return np.append(sigma, 0.0) if order % 2 else sigma


def build_rule(lam: float, order: int) -> QuadratureRule:
    """N-point Gaussian rule for dm_lambda, exact for polynomials in
    cos(theta) of degree <= 2N - 1."""
    lam = validate_lambda(lam)
    return _cached_rule(lam, _check_integer("rule order", order, 2))


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array in one call, falling back to a loop of scalar
    calls whose results may be scalars or length-1 arrays; ValueError if a
    scalar call gives more than one value."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([_one_value(f(v)) for v in x])


def _one_value(y) -> float:
    """The one value of a scalar or a length-1 array."""
    values = np.ravel(y)
    if values.size != 1:
        raise ValueError(f"f must give one value per point, got shape {np.shape(y)}")
    return float(values[0])


def integrate(rule: QuadratureRule, f: Callable) -> float:
    """Sum w_i f(theta_i); raises EvaluationError on non-finite values."""
    y = _evaluate(f, rule.nodes)
    if not np.all(np.isfinite(y)):
        bad = rule.nodes[~np.isfinite(y)][0]
        raise EvaluationError(f"integrand is not finite at node {float(bad)}")
    return float(np.dot(rule.weights, y))


# ---------------------------------------------------------------------------
# tanh-sinh (double exponential) quadrature
# ---------------------------------------------------------------------------

#: truncation of the double-exponential variable: endpoint distances reach
#: ~exp(-pi*sinh(4.8)), small enough that any integrable algebraic
#: singularity has negligible mass beyond the last node
_T_MAX = 4.8

#: finest level of the adaptive tanh-sinh refinement
_MAX_LEVEL = 12


@lru_cache(maxsize=None)
def _ts_table(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index, side, endpoint distance and weight of the rule at step 2**-level.

    ``side`` is -1/+1 for nodes left/right of the midpoint, ``dist`` the
    distance to the nearer endpoint of (-1, 1) computed without cancellation,
    ``weight`` includes the step size.
    """
    h = 2.0 ** (-level)
    k = np.arange(-math.floor(_T_MAX / h), math.floor(_T_MAX / h) + 1)
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    # 1 - tanh|u| = 2 / (exp(2|u|) + 1), exact for large |u|
    dist = 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
    weight = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    side = np.sign(t).astype(int)
    side[side == 0] = 1
    keep = weight > 1e-300
    return k[keep], side[keep], dist[keep], weight[keep]


def _ts_new_points(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of _ts_table(level) absent from level - 1: the odd indices.
    Level - 1 holds the even ones at twice their weights, bit for bit."""
    k, side, dist, weight = _ts_table(level)
    if level == 0:
        return k, side, dist, weight
    odd = (np.abs(k) % 2) == 1
    return k[odd], side[odd], dist[odd], weight[odd]


def _map_nodes(lo: float, hi: float, side: np.ndarray, dist: np.ndarray) -> np.ndarray:
    half = 0.5 * (hi - lo)
    x = np.where(side < 0, lo + half * dist, hi - half * dist)
    return x


def singular_integrate(
    f: Callable,
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    rtol: float = 1e-12,
) -> float:
    """Integrate f over (lo, hi) by adaptive tanh-sinh quadrature.

    Handles algebraic-logarithmic singularities at an endpoint that is 0.
    Nodes within an ulp of any other endpoint, hi included, round onto it,
    so an f infinite there raises EvaluationError: write f in the distance
    to that end instead.  The rule stops ~1e-83 (hi - lo) short of lo, and
    the mass below its nearest node is estimated as that node's distance to
    lo times |f| there.  Convergence is declared at the first level >= 3
    whose level-to-level difference plus that estimate is below
    max(tol, rtol * |integral|); otherwise an AccuracyError carrying the
    best estimate and that sum is raised.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid integration interval ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    # weights carry the step h of their own level; rescale the running sum
    # by halving when the level increases.  The level-to-level difference is
    # taken as the error bound (conservative: convergence is faster than
    # linear once the rule resolves the singularity), plus the tail below
    # the node nearest lo.  For f ~ x**-a the tail is 1 / (1 - a) times its
    # estimate: enough to refuse x**-0.9 at tol 1e-9, which loses 5.7e-8
    total = estimate = 0.0
    nearest, tail = math.inf, 0.0
    for level in range(0, _MAX_LEVEL + 1):
        _, side, dist, weight = _ts_new_points(level)
        x = _map_nodes(lo, hi, side, dist)
        y = _evaluate(f, x)
        bad = ~np.isfinite(y)
        if np.any(bad):
            # an endpoint-rounded node with negligible weight may be dropped
            fatal = bad & (weight >= 1e-250)
            if np.any(fatal):
                at = float(x[fatal][0])
                end = ", an end that nodes round onto: write f in the distance to it" if at in (lo, hi) else ""
                raise EvaluationError(f"integrand is not finite at x={at}{end}")
            y = np.where(bad, 0.0, y)
        # the table runs from its node nearest lo; a finer level may add one nearer
        if side[0] < 0 and dist[0] < nearest:
            nearest = float(dist[0])
            tail = half * nearest * abs(float(y[0]))
        total = 0.5 * total + float(y @ weight)
        # level 0 never stops, so its difference from 0 is never read
        diff = abs(half * total - estimate) + tail
        estimate = half * total
        if level >= 3 and diff <= max(tol, rtol * abs(estimate)):
            return estimate
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
    _, side, dist, weight = _ts_table(level)
    x = _map_nodes(lo, hi, side, dist)
    keep = (x > lo) & (x < hi)
    return x[keep], 0.5 * (hi - lo) * weight[keep]


def _bernstein_points(a: float, error: float) -> float:
    """The fewest Gauss points n with rho**(-2n) <= ``error`` (Trefethen, SIAM
    Rev. 2008), rho = a + sqrt(a**2 - 1) for the Bernstein ellipse whose
    semi-major axis is a half-widths of the panel; inf for a <= 1."""
    if a <= 1.0:
        return math.inf
    return math.ceil(-math.log(error) / (2.0 * math.log(a + math.sqrt(a * a - 1.0))))


@lru_cache(maxsize=None)
def _gl_base(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (-1, 1): _gauss_jacobi(n, 0) on
    (0, 1), mapped; read-only."""
    t, w, _ = _gauss_jacobi(n, 0.0)
    nodes, weights = 2.0 * t - 1.0, 2.0 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# bounded: beta is 2 lambda for the panels that reach 0 or pi, and a caller
# drawing a fresh lambda per call would otherwise grow the cache
@lru_cache(maxsize=64)
def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss rule on (0, 1) for the weight t**beta, and its
    orthonormal polynomials q_0 .. q_{n-1} at the nodes (row j holds q_j), so
    that sum_i w_i q_j q_l = delta_jl and c_j = sum_i w_i q_j(t_i) v_i are the
    discrete coefficients of v; see _gauss_from_recurrence.  Read-only
    because every panel of n points shares them."""
    # the recurrence t q_j = b_{j+1} q_{j+1} + a_j q_j + b_j q_{j-1} of the
    # Jacobi polynomials on (0, 1), off = b_1 .. b_n
    j = np.arange(1, n + 1, dtype=float)
    two_j = 2.0 * j + beta
    diag = np.concatenate([[(beta + 1.0) / (beta + 2.0)], 0.5 + 0.5 * beta * beta / (two_j * (two_j + 2.0))])[:n]
    off = j * (j + beta) / (two_j * np.sqrt((two_j + 1.0) * (two_j - 1.0)))
    rule = _gauss_from_recurrence(diag, off, math.sqrt(beta + 1.0))
    for array in rule:
        array.flags.writeable = False
    return rule


def _gauss_from_recurrence(
    diag: np.ndarray, off: np.ndarray, q0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss rule, n = diag.size, of the measure whose orthonormal
    polynomials satisfy t q_j = b_{j+1} q_{j+1} + a_j q_j + b_j q_{j-1},
    diag = a_0 .. a_{n-1}, off = b_1 .. b_n, from q_0 = ``q0`` (the mass to
    the power -1/2); and q_0 .. q_{n-1} at its nodes, row j holding q_j.  The
    nodes are the eigenvalues of the Jacobi matrix (Golub and Welsch, Math.
    Comp. 23, 1969) after one Newton step on q_n; the weights are Christoffel
    numbers 1 / sum_j q_j**2, summed by the three-term recurrence, as in
    _cached_rule."""
    n = diag.size

    def rows(t: np.ndarray) -> np.ndarray:
        # q_0 .. q_n at t
        below, prev, cur = 0.0, np.zeros_like(t), np.full_like(t, q0)
        out = [cur]
        for a, above in zip(diag.tolist(), off.tolist()):
            prev, cur = cur, ((t - a) * cur - below * prev) / above
            out.append(cur)
            below = above
        return np.array(out)

    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], -1))
    q = rows(t)
    # one Newton step q_n / q_n', with q_n' = S / (b_n q_{n-1}) by
    # Christoffel-Darboux, S = sum_{j<n} q_j**2
    t = t - off[-1] * q[n] * q[n - 1] / np.sum(q[:n] ** 2, axis=0)
    basis = rows(t)[:n]
    weights = 1.0 / np.sum(basis * basis, axis=0)
    return t, weights, basis


def _stieltjes(x: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence coefficients diag = a_0 .. a_{n-1} and off = b_1 .. b_n,
    as _gauss_from_recurrence takes them, of the orthonormal polynomials of
    the discrete measure sum_i w_i delta(x_i), by the Stieltjes procedure
    (Gautschi, Orthogonal Polynomials, 2004, section 2.2): from
    q_0 = (sum w)**-1/2, a_j = sum w x q_j**2 and b_{j+1} q_{j+1} =
    (x - a_j) q_j - b_j q_{j-1}, b_{j+1} the norm of the right side.  A
    measure on fewer than n + 1 points gives a b of 0 and non-finite
    coefficients after it."""
    diag, off = np.empty(n), np.empty(n)
    below, prev, cur = 0.0, np.zeros_like(x), np.full_like(x, 1.0 / np.sqrt(w.sum()))
    for j in range(n):
        diag[j] = (w * cur) @ (x * cur)
        nxt = (x - diag[j]) * cur - below * prev
        off[j] = np.sqrt((w * nxt) @ nxt)
        below, prev, cur = off[j], cur, nxt / off[j]
    return diag, off


def gauss_legendre_segment(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes/weights on (lo, hi)."""
    x, w = _gl_base(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w

