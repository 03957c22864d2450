"""Ultraspherical analysis/synthesis, the Poisson semigroup, fractional
powers, and the two routes to the Riesz transform.

The spectral route applies the multiplier (n + lambda)**(-k) and takes k
theta-derivatives from the recurrence run on derivative vectors.  The integral route truncates the
singular kernel away from the diagonal on a decreasing schedule of radii,
applied to f minus the a + b cos (known transform) matching f and f' at
theta: the remainder's truncations converge like the radius squared, with no
jump gamma_k.  The two must agree; the test suite holds them to each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .kernels import RIESZ_MIN_SEPARATION, KernelConfig, _check_order, kernel_constants, poisson_kernel, riesz_kernel
from .quadrature import (
    AccuracyError,
    EvaluationError,
    QuadratureRule,
    _evaluate,
    _gl_base,
    _segment,
    _ts_new_points,
    _ts_table,
    gauss_legendre_segment,
    total_mass,
)
from .special import _norm_sqs, _recurrence, gegenbauer_theta_jets, validate_lambda

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


#: tanh-sinh level at which an operator builds the phi pieces that reach 0
#: or pi; a function the pieces do not resolve refines them (see _Piece)
_PHI_LEVEL = 3

#: the finest level a far piece refines to, ~1,230 phi; a function that needs
#: more raises AccuracyError
_MAX_PHI_LEVEL = 7

#: a far piece's error estimate for a function v is _RESOLUTION_SAFETY a**2 / m,
#: where m = sum |w v| over the piece and a = sum |w r| over the next level's
#: nodes, r the miss there of the level's sinc interpolant of v (see
#: _Piece.estimate).  The piece refines while the estimate exceeds
#: _RESOLUTION_TARGET m, that is while a / m exceeds 1e-5
_RESOLUTION_SAFETY = 1e3
_RESOLUTION_TARGET = 1e-7

#: Gauss-Legendre points of a band between consecutive radii: the fewest n
#: whose Bernstein-ellipse bound rho**(-2n) on the kernel is at most
#: _BAND_ERROR, and at most _MAX_BAND_POINTS.  The bound ignores f, which each
#: apply checks on the bands instead (see _band_estimates).  A band holds at
#: least _MIN_BAND_POINTS, so that the coefficients the check reads lie past
#: the quadratic part of riesz_pv's g
_BAND_ERROR = 1e-11
_MAX_BAND_POINTS = 24
_MIN_BAND_POINTS = 6

#: a band whose f or g is not resolved splits in halves of as many points; a
#: function that needs more than _MAX_BAND_DEPTH halvings (an 8-point band
#: then holds 1,024 phi) raises AccuracyError
_MAX_BAND_DEPTH = 7

#: riesz_spectral refuses a theta where the rounding of an O(1) function's
#: coefficients reaches the value past this: at large lambda the measure
#: sits near pi/2 and the eigenfunctions grow fast away from it
_ROUNDING_LIMIT = 1e-6

#: the PV value reads only the two smallest radii and every band costs
#: kernel calls, so a longer schedule only adds work
_MAX_RADII = 1000


@dataclass(frozen=True)
class TruncationSchedule:
    """Two to 1000 strictly decreasing truncation radii in (0, pi), the
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
        if eps.size < 2:
            raise ValueError("the tail estimate needs at least 2 radii")
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
        # an infinite start times an underflowed power is NaN, which the
        # radius checks refuse; the product itself need not warn
        with np.errstate(invalid="ignore"):
            return cls(start * ratio ** np.arange(count))


def analyze(f: Callable, lam: float, n_max: int, rule: QuadratureRule) -> SpectralCoefficients:
    """Coefficients of f against the normalized eigenfunctions up to degree
    n_max, by Gaussian quadrature."""
    return _analyze(f, lam, n_max, rule)[0]


def _analyze(
    f: Callable, lam: float, n_max: int, rule: QuadratureRule, extra: int = 0
) -> tuple[SpectralCoefficients, np.ndarray]:
    """analyze, and the ``extra`` coefficients past n_max from a product of
    their own, so that a_0 .. a_n_max are analyze's bit for bit."""
    lam = validate_lambda(lam)
    if rule.order < n_max + 1:
        raise ValueError(f"rule order {rule.order} too low for degree {n_max}")
    # norms first: they overflow (OverflowError) before the recurrence would
    norms = _norms(lam, n_max + extra)
    x = np.cos(rule.nodes)
    basis = np.array(list(_recurrence(n_max + extra, lam, x, np.ones_like(x)))) / norms[:, None]
    weighted = rule.weights * _evaluate(f, rule.nodes)
    return SpectralCoefficients(lam=lam, coeffs=basis[: n_max + 1] @ weighted), basis[n_max + 1 :] @ weighted


# bounded like the rule cache; read-only because every caller shares it
@lru_cache(maxsize=32)
def _norms(lam: float, n_max: int) -> np.ndarray:
    """L2(dm_lambda) norms of P_0, ..., P_{n_max}: the divisors that make
    the eigenfunctions normalized."""
    norms = np.sqrt(_norm_sqs(n_max, lam))
    # norm_sq(n, lam) ~ lam**2 for n >= 1 underflows to 0 for lam below ~1e-154
    if not np.all(norms > 0.0):
        raise OverflowError(f"eigenfunction norms underflow to 0 at lambda {lam}")
    norms.flags.writeable = False
    return norms


def synthesize(c: SpectralCoefficients, theta: float, derivative_order: int = 0) -> float:
    """Sum of c_n times the derivative_order-th theta-derivative of the
    normalized eigenfunction, from one array recurrence of theta-jets."""
    if derivative_order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {derivative_order}")
    derivatives = gegenbauer_theta_jets(c.degree, c.lam, theta, derivative_order)[:, derivative_order]
    return _synthesis_sum(c.coeffs, derivatives, _norms(c.lam, c.degree))


def _synthesis_sum(coeffs: np.ndarray, derivatives: np.ndarray, norms: np.ndarray) -> float:
    """synthesize's sum, in degree order over the nonzero coefficients."""
    total = 0.0
    for coeff, derivative, norm in zip(coeffs, derivatives, norms):
        if coeff == 0.0:
            continue
        total += coeff * derivative / norm
    return total


def band_limited(c: SpectralCoefficients) -> Callable:
    """The function synthesized from a finite coefficient vector, vectorized
    over theta; the standard test family of the package."""
    norms = _norms(c.lam, c.degree)

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        x = np.cos(th)
        out = np.zeros_like(th)
        polys = _recurrence(c.degree, c.lam, x, np.ones_like(x))
        for coeff, p, norm in zip(c.coeffs, polys, norms):
            if coeff == 0.0:
                continue
            out += coeff * p / norm
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


def poisson_via_kernel(f: Callable, lam: float, t: float, theta: float, rule: QuadratureRule) -> float:
    """Poisson semigroup at time t through the kernel integral
    r**lam * P_lambda(r, theta, .) against dm_lambda, with r = exp(-t)."""
    return _poisson_via_kernel_each((f,), lam, t, theta, rule)[0]


def _poisson_via_kernel_each(
    fs: Sequence[Callable], lam: float, t: float, theta: float, rule: QuadratureRule
) -> list[float]:
    """poisson_via_kernel for every f in ``fs``, from one kernel row."""
    lam = validate_lambda(lam)
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    r = math.exp(-t)
    kernel_vals = poisson_kernel(lam, r, theta, rule.nodes)
    return [r**lam * float(np.dot(rule.weights, kernel_vals * _evaluate(f, rule.nodes))) for f in fs]


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
    analyze -> multiplier (n+lambda)**(-k) -> k-th derivative synthesis.

    Raises FloatingPointError where float64 cannot carry the answer: past
    the float range, or where the rounding of the coefficients, ~eps times
    the rule order for an O(1) function, reaches the value past
    _ROUNDING_LIMIT through the modes' multipliers and derivatives at theta
    (lambda 300 at theta 0.7 and k 1, for instance)."""
    _check_order(k)
    # an extreme lambda carries the coefficients and the jets toward the float
    # range; raise FloatingPointError there rather than warn and return inf
    with np.errstate(over="raise", invalid="raise"):
        # the tail: a_{n_max+1} and a_{n_max+2} where the rule integrates them
        # (an f of exact degree n_max fills a_{n_max} with no loss), else a_{n_max}
        extra = 2 if rule.order >= n_max + 3 else 0
        c, past = _analyze(f, lam, n_max, rule, extra)
        tail_coeffs = np.abs(past if past.size else c.coeffs[-1:])
        tail_index = n_max + int(past.size > 0) + int(np.argmax(tail_coeffs))
        # ||a|| over its largest entry: the squares of finite coefficients may overflow
        scale = float(np.max(np.abs(c.coeffs)))
        norm = scale * float(np.linalg.norm(c.coeffs / scale)) if scale > 0.0 else math.inf
        tail = float(np.max(tail_coeffs)) / norm
        if tail > 1e-8:
            warnings.warn(
                f"coefficient tail |a_{tail_index}|/||a|| = {tail:.2e} > 1e-8; "
                "the function may not be resolved at this degree",
                stacklevel=2,
            )
        # the norms _analyze fetched: one cache entry per (lambda, degree)
        derivatives = gegenbauer_theta_jets(n_max, c.lam, theta, k)[:, k]
        norms = _norms(c.lam, n_max + extra)[: n_max + 1]
        # fractional_power(c, k / 2)'s multiplier
        multipliers = (np.arange(n_max + 1) + c.lam) ** (-float(k))
        # each coefficient of an O(1) function, ||a|| ~ sqrt(total mass), is
        # a sum of rule.order products and rounds by at most ~eps times that
        rounding = np.finfo(float).eps * rule.order * math.sqrt(total_mass(c.lam))
        rounding *= float(np.sum(np.abs(multipliers * derivatives / norms)))
        if not rounding <= _ROUNDING_LIMIT:
            raise FloatingPointError(
                f"coefficient rounding reaches the order-{k} transform at theta {theta} "
                f"as {rounding:.1e}, past {_ROUNDING_LIMIT:g}, at lambda {c.lam}"
            )
        return _synthesis_sum(c.coeffs * multipliers, derivatives, norms)


def _band_points(lo: float, hi: float, theta: float) -> int:
    """Gauss-Legendre points for the operator's band (lo, hi) at theta.

    The kernel times (sin phi)**(2 lam) is analytic off theta, 0 and pi, so
    the rule's error falls like rho**(-2n), where rho sums the semi-axes of
    the largest Bernstein ellipse of (lo, hi) that excludes the nearest of
    the three (Trefethen, SIAM Rev. 2008)."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = max(1.0, min(abs(point - center) for point in (theta, 0.0, math.pi)) / half)
    per_point = 2.0 * math.log(a + math.sqrt(a * a - 1.0))
    needed = -math.log(_BAND_ERROR)
    if per_point * _MAX_BAND_POINTS <= needed:
        return _MAX_BAND_POINTS
    return math.ceil(needed / per_point)


def _inside(lo: float, hi: float, k, side, dist, weight) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices, nodes and weights of the tanh-sinh table rows (k, side,
    dist, weight) that tanh_sinh_segment keeps on (lo, hi)."""
    nodes, weights, keep = _segment(lo, hi, side, dist, weight)
    return k[keep], nodes, weights


@lru_cache(maxsize=None)
def _legendre_analysis(n: int) -> np.ndarray:
    """The (n x n) matrix that takes values at the n Gauss-Legendre nodes to
    the discrete Legendre coefficients c_j = (j + 1/2) sum_i w_i P_j(x_i) v_i
    of their interpolant; read-only because every band of n points shares it."""
    x, w = _gl_base(n)
    matrix = (np.arange(n) + 0.5)[:, None] * (np.polynomial.legendre.legvander(x, n - 1) * w[:, None]).T
    matrix.flags.writeable = False
    return matrix


class _Piece:
    """A phi panel of a TruncationOperator, counted from radius ``index`` on:
    nodes and weights on (lo, hi) and, once the operator fills it in, the
    density sin(phi)**(2 lam) K(theta, phi) at the nodes.  A Gauss-Legendre
    band has ``level`` None and splits into halves (see halves), ``depth``
    counting the halvings.  A tanh-sinh piece (one that reaches 0 or pi)
    holds the level-``level`` rule with each node's table index ``k``, and
    refines by the nodes that level + 1 adds, the odd indices: level + 1
    keeps the others at half their weights, bit for bit."""

    def __init__(
        self, lo: float, hi: float, index: int, nodes: np.ndarray, weights: np.ndarray, level=None, k=None, depth=0
    ):
        self.lo, self.hi, self.index = lo, hi, index
        self.nodes, self.weights, self.level, self.k, self.depth = nodes, weights, level, k, depth
        self.density = np.empty(0)
        self._ahead = None

    @classmethod
    def tanh_sinh(cls, lo: float, hi: float, index: int, level: int) -> "_Piece":
        k, nodes, weights = _inside(lo, hi, *_ts_table(level))
        return cls(lo, hi, index, nodes, weights, level, k)

    @classmethod
    def band(cls, lo: float, hi: float, index: int, n: int, depth: int = 0) -> "_Piece":
        return cls(lo, hi, index, *gauss_legendre_segment(lo, hi, n), depth=depth)

    def halves(self) -> tuple["_Piece", "_Piece"]:
        """The band's two halves, each with as many Gauss-Legendre points."""
        mid = 0.5 * (self.lo + self.hi)
        n = self.nodes.size
        return tuple(_Piece.band(lo, hi, self.index, n, self.depth + 1) for lo, hi in ((self.lo, mid), (mid, self.hi)))

    def ahead(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The indices, nodes and weights that level + 1 adds inside (lo, hi), and
        the sinc matrix that interpolates a function on the level's grid (spacing
        1 in k) at them (k / 2)."""
        if self._ahead is None:
            k, nodes, weights = _inside(self.lo, self.hi, *_ts_new_points(self.level + 1))
            self._ahead = (k, nodes, weights, np.sinc(np.subtract.outer(0.5 * k, self.k)))
        return self._ahead

    def refine(self, density: np.ndarray) -> None:
        """Take the piece to level + 1, given the density at the nodes it adds."""
        k, nodes, weights, _ = self.ahead()
        merged = np.concatenate([2 * self.k, k])
        order = np.argsort(merged)
        self.k = merged[order]
        self.nodes = np.concatenate([self.nodes, nodes])[order]
        self.weights = np.concatenate([0.5 * self.weights, weights])[order]
        self.density = np.concatenate([self.density, density])[order]
        self.level += 1
        self._ahead = None

    def estimate(self, values: np.ndarray, ahead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Error estimates of the level's sums of the rows of ``values`` (at the
        nodes; ``ahead`` holds them at the nodes level + 1 adds), and the rows'
        masses m = sum |w v|.  The rows less the line through their end values
        tend to 0 at both ends in the tanh-sinh variable, so their sinc
        interpolant converges; it misses v at the new nodes by r, and the
        estimate is _RESOLUTION_SAFETY a**2 / m, a = sum |w r| with w there
        interpolated alike, plus the rounding bound n eps m.  Interpolation on a
        grid reaches about the square root of the grid's quadrature accuracy,
        hence the square; the kernel's own resolution is outside it."""
        if self.nodes.size < 2:
            # a sliver of a band that ends at 0 or pi, narrower than the
            # rounding of its ends: its sum is the rule's, whatever the level
            return np.zeros(len(values)), np.zeros(len(values))
        _, nodes, _, sinc = self.ahead()
        start, stop = self.nodes[0], self.nodes[-1]
        slope = (values[:, -1:] - values[:, :1]) / (stop - start)
        line, line_ahead = (values[:, :1] + slope * (x - start) for x in (self.nodes, nodes))
        miss = ahead - line_ahead - (values - line) @ sinc.T
        kernel_weights = self.weights * self.density
        mass = np.abs(values) @ np.abs(kernel_weights)
        reach = np.abs(miss) @ np.abs(0.5 * (sinc @ kernel_weights))
        estimate = _RESOLUTION_SAFETY * reach * reach / mass + self.nodes.size * np.finfo(float).eps * mass
        return np.where(mass > 0.0, estimate, 0.0), mass


def _band_estimates(
    values: np.ndarray, kernel_weights: np.ndarray, line: float
) -> tuple[np.ndarray, np.ndarray]:
    """Error estimates of the sums of the rows f and g = f - a - b cos over B
    bands of n Gauss-Legendre points each, the larger of the two per band,
    and which bands leave a row unresolved.

    ``values`` is (2, B, n), the rows at the bands' nodes, ``kernel_weights``
    (B, n) holds |w K| there and ``line`` is |a| + |b|.  A band's sum of K p,
    p the rows' degree-(n - 1) interpolant, is within the kernel's Bernstein
    bound, _BAND_ERROR m with m = sum |w K v|, so the sum of K v misses about
    that plus what p misses of v, which the tail of v's discrete Legendre
    coefficients, t = max(|c_{n-2}|, |c_{n-1}|), bounds when they decay (the
    chop of Aurentz and Trefethen, ACM TOMS 2017).  The estimate is
    t sum |w K| + (_BAND_ERROR + n eps) m, the last term the rounding of the
    sum.  A row is unresolved when the estimate exceeds _RESOLUTION_TARGET m
    and t exceeds what rounding leaves in the coefficients: 2n - 1 times a
    value's rounding, taken as 2 eps times max |f| on the band (plus ``line``
    for g, whose values are f's less the line's).  An f linear in cos leaves
    a g of rounding only, and its tail reads up to 0.42 of 2 n eps times
    that size (4 lambda x 4 k x 7 theta x 3 schedules x 6 such f)."""
    n = values.shape[-1]
    eps = np.finfo(float).eps
    tail = np.abs(values @ _legendre_analysis(n)[-2:].T).max(axis=-1)
    magnitudes = np.abs(values)
    mass = (magnitudes * kernel_weights).sum(axis=-1)
    estimate = tail * kernel_weights.sum(axis=-1) + (_BAND_ERROR + n * eps) * mass
    rounding = 4 * n * eps * np.add.outer((0.0, line), magnitudes[0].max(axis=-1))
    unresolved = (estimate > _RESOLUTION_TARGET * mass) & (tail > rounding)
    return np.fmax(*estimate), unresolved.any(axis=0)


def _matched_line(below: float, at: float, above: float, theta: float, h: float) -> tuple[float, float]:
    """a and b of the a + b cos that matches f and f' at theta, given f at
    theta - h, theta and theta + h; f' is their central difference.  An
    underflowing h or sin theta makes them inf or NaN."""
    b = (below - above) / (2.0 * h) / math.sin(theta)
    return at - b * math.cos(theta), b


class TruncationOperator:
    """Truncated Riesz integrals at fixed (lambda, k, theta) for a decreasing
    radius schedule.

    The complement of the largest excluded band is integrated with tanh-sinh
    pieces out to 0 and pi, built at level 3; each schedule step then adds the
    two thin bands between consecutive radii with Gauss-Legendre panels (the
    kernel is analytic there).  Each band gets the fewest points whose
    Bernstein-ellipse bound on the kernel, set by its distance to the nearest
    of theta, 0 and pi, is below 1e-11, at least 6 and at most 24 (see
    _band_points): 8 at ratio 1/2 away from 0 and pi, so the default operator
    holds 242-247 phi.  Kernel values are computed in one kernel call at the
    resolution ``config`` (each phi a sum over its r-nodes of the t-table
    cached per lambda and k; see kernels.kernel_partial), and reused for every
    function the operator is applied to.

    The level-3 pieces and the bands resolve the kernel, not every f.  Each
    apply samples f once, also at the nodes the next level adds and at theta
    and theta +- h, sums f and riesz_pv's remainder g = f - a - b cos (a + b
    cos matching f and f' at theta), and estimates each piece's error for
    both: a tanh-sinh piece's from the next level's nodes (see
    _Piece.estimate), a band's from the tail of the Legendre coefficients of
    its values (see _band_estimates).  A tanh-sinh piece whose estimate for
    either exceeds 1e-7 of its mass sum |w v| goes up one level, and such a
    band splits in halves of as many points, with kernel values at the new
    nodes only, kept for every later f; an f applied after a refinement is
    summed on the finer pieces.  Past level 7, or past 7 halvings of a band,
    the apply raises AccuracyError carrying the estimate.  The estimate
    assumes f bounded at 0 and pi: an f unbounded there is refused.
    ``levels`` holds the pieces' levels, and ``far_estimate`` and
    ``band_estimate`` the estimates of the last apply.  ``epsilons`` must form
    a TruncationSchedule.
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
        self.k = _check_order(k)
        self.theta = float(theta)
        self.epsilons = TruncationSchedule(epsilons).epsilons
        self._config = config
        theta = self.theta
        e0 = float(self.epsilons[0])
        self._step = min(float(self.epsilons[-1]), 0.5 * theta, 0.5 * (math.pi - theta))
        spans: list[tuple[float, float, int, bool]] = []
        if theta - e0 > 0.0:
            spans.append((0.0, theta - e0, 0, True))
        if theta + e0 < math.pi:
            spans.append((theta + e0, math.pi, 0, True))
        for i in range(1, self.epsilons.size):
            hi_r, lo_r = float(self.epsilons[i - 1]), float(self.epsilons[i])
            lo, hi = theta - hi_r, theta - lo_r
            if hi > 0.0:
                spans.append((max(lo, 0.0), hi, i, lo <= 0.0))
            lo, hi = theta + lo_r, theta + hi_r
            if lo < math.pi:
                spans.append((lo, min(hi, math.pi), i, hi >= math.pi))
        # both rules' nodes are interior, so every node lies inside (0, pi)
        self._pieces = [
            _Piece.tanh_sinh(lo, hi, index, _PHI_LEVEL)
            if endpoint
            else _Piece.band(lo, hi, index, max(_band_points(lo, hi, theta), _MIN_BAND_POINTS))
            for lo, hi, index, endpoint in spans
        ]
        # one kernel call over every piece's nodes: the call fetches the t-table
        # of (lambda, k) once and builds the far r-rule once for all of them
        for piece, density in zip(self._pieces, self._densities([piece.nodes for piece in self._pieces])):
            piece.density = density
        self._assemble()
        self._far_estimate = self._band_estimate = 0.0

    @property
    def levels(self) -> tuple[int, ...]:
        """The tanh-sinh level of each piece that reaches 0 or pi."""
        return tuple(piece.level for piece in self._pieces if piece.level is not None)

    @property
    def far_estimate(self) -> float:
        """The error estimate of those pieces for the last function applied:
        per piece the larger of f's and g's, summed."""
        return self._far_estimate

    @property
    def band_estimate(self) -> float:
        """The error estimate of the Gauss-Legendre bands for the last
        function applied: per band the larger of f's and g's, summed."""
        return self._band_estimate

    def _densities(self, phis: list[np.ndarray]) -> list[np.ndarray]:
        """sin(phi)**(2 lambda) K(theta, phi) on each array of ``phis``, from one
        kernel call; each value is what it would be in any other batch."""
        phi = np.concatenate(phis)
        kernel_vals = riesz_kernel(self.lam, self.k, self.theta, phi, config=self._config)
        density = np.array([math.sin(p) ** (2.0 * self.lam) for p in phi]) * kernel_vals
        return np.split(density, np.cumsum([part.size for part in phis])[:-1])

    def _assemble(self) -> None:
        """The pieces' nodes and kernel weights as flat arrays, and the points an
        apply samples f at: the nodes, then each tanh-sinh piece's next-level
        nodes, then theta - h, theta and theta + h, with slices of each piece's."""
        self._nodes = np.concatenate([piece.nodes for piece in self._pieces])
        self._kernel_weights = np.concatenate([piece.weights * piece.density for piece in self._pieces])
        ends = np.cumsum([piece.nodes.size for piece in self._pieces]).tolist()
        self._parts = [slice(end - piece.nodes.size, end) for piece, end in zip(self._pieces, ends)]
        far = [(piece, part) for piece, part in zip(self._pieces, self._parts) if piece.level is not None]
        ahead = [piece.ahead()[1] for piece, _ in far]
        ends = (self._nodes.size + np.cumsum([nodes.size for nodes in ahead])).tolist()
        self._far = [(piece, part, slice(end - nodes.size, end)) for (piece, part), nodes, end in zip(far, ahead, ends)]
        # the bands by their number of points, with each one's node indices as a row
        groups: dict[int, list[tuple[_Piece, slice]]] = {}
        for piece, part in zip(self._pieces, self._parts):
            if piece.level is None:
                groups.setdefault(piece.nodes.size, []).append((piece, part))
        self._bands = []
        for group in groups.values():
            index = np.array([np.arange(part.start, part.stop) for _, part in group])
            self._bands.append(([piece for piece, _ in group], index, np.abs(self._kernel_weights[index])))
        h = self._step
        self._probe = np.concatenate([self._nodes, *ahead, [self.theta - h, self.theta, self.theta + h]])
        self._probe_cos = np.cos(self._probe)

    def truncated_values(self, f: Callable) -> np.ndarray:
        """The truncated integral at every schedule radius, largest first, with
        every tanh-sinh piece refined until f and riesz_pv's g resolve on it;
        keeps the last apply's truncations of g, b and f(theta) for riesz_pv."""
        while True:
            sampled = _evaluate(f, self._probe)
            fvals = sampled[: self._nodes.size]
            estimates, refine, band_estimates, split = [], [], [], []
            with np.errstate(all="ignore"):
                a, b = _matched_line(*sampled[-3:], self.theta, self._step)
                # rows f and g = f - a - b cos
                rows = np.stack([sampled, sampled - a - b * self._probe_cos])
                for piece, part, ahead in self._far:
                    estimate, mass = piece.estimate(rows[:, part], rows[:, ahead])
                    # a NaN estimate (f or g not finite) refines nothing; riesz_pv refuses the value
                    estimates.append(float(np.fmax(*estimate)))
                    if np.any(estimate > _RESOLUTION_TARGET * mass):
                        refine.append(piece)
                for pieces, index, kernel_weights in self._bands:
                    estimate, unresolved = _band_estimates(rows[:, index], kernel_weights, abs(a) + abs(b))
                    band_estimates.append(float(np.sum(estimate)))
                    split += [piece for piece, flag in zip(pieces, unresolved) if flag]
                # an underflowing h or sin theta makes g inf or NaN; riesz_pv refuses it
                self._remainder = (self._apply(rows[1, : self._nodes.size]), b, float(sampled[-2]))
            self._far_estimate = float(sum(estimates))
            self._band_estimate = float(sum(band_estimates))
            if not refine and not split:
                return self._apply(fvals)
            if any(piece.level >= _MAX_PHI_LEVEL for piece in refine):
                raise AccuracyError(
                    f"f is not resolved by the level-{_MAX_PHI_LEVEL} phi rule "
                    f"(far-piece estimate {self._far_estimate:.2e})",
                    estimate=float(self._apply(fvals)[-1]),
                    error_bound=self._far_estimate,
                )
            if any(piece.depth >= _MAX_BAND_DEPTH for piece in split):
                raise AccuracyError(
                    f"f is not resolved by bands halved {_MAX_BAND_DEPTH} times "
                    f"(band estimate {self._band_estimate:.2e})",
                    estimate=float(self._apply(fvals)[-1]),
                    error_bound=self._band_estimate,
                )
            halves = {piece: piece.halves() for piece in split}
            bands = [half for pair in halves.values() for half in pair]
            densities = self._densities([piece.ahead()[1] for piece in refine] + [band.nodes for band in bands])
            for piece, density in zip(refine, densities):
                piece.refine(density)
            for band, density in zip(bands, densities[len(refine) :]):
                band.density = density
            self._pieces = [part for piece in self._pieces for part in halves.get(piece, (piece,))]
            self._assemble()

    def _apply(self, fvals: np.ndarray) -> np.ndarray:
        out = np.zeros(self.epsilons.size)
        for piece, part in zip(self._pieces, self._parts):
            out[piece.index :] += float(np.dot(self._kernel_weights[part], fvals[part]))
        return out


@dataclass(frozen=True)
class PVResult:
    """R^k f(theta) as ``value``, the jump gamma_k f(theta) as ``gamma_term``,
    the principal-value integral value - gamma_term as ``extrapolated``, T_eps f
    at ``epsilons`` as ``truncated``, and as ``residual`` the tail estimate (not
    a bound) |T g(eps_{n-1}) - T g(eps_n)| of riesz_pv's g."""

    value: float
    extrapolated: float
    gamma_term: float
    residual: float
    epsilons: np.ndarray
    truncated: np.ndarray


def riesz_pv(
    f: Callable,
    lam: float,
    k: int,
    theta: float,
    schedule: TruncationSchedule | None = None,
    *,
    tolerance: float = 1e-3,
    operator: TruncationOperator | None = None,
) -> PVResult:
    """Principal-value Riesz transform: with g = f - a - b cos, g(theta) =
    g'(theta) = 0, R^k f(theta) is b (1 + lambda)**(-k) cos(theta + k pi/2)
    plus the last truncation of g.  b is a central difference of step
    min(smallest radius, theta/2, (pi - theta)/2); its error only leaves an
    O(eps) tail.  AccuracyError when that tail passes 10 x ``tolerance``, or
    when f needs the operator's phi pieces past level 7 or its bands halved
    more than 7 times.

    A pre-built TruncationOperator amortizes kernel evaluations over several
    functions and carries a custom KernelConfig; it must have been built for
    the same (lambda, k, theta) and, when ``schedule`` is given, its radii.
    Without either, the schedule is TruncationSchedule.geometric().
    """
    if operator is None:
        schedule = schedule or TruncationSchedule.geometric()
        operator = TruncationOperator(lam, k, theta, schedule.epsilons)
    elif (lam, k, theta) != (operator.lam, operator.k, operator.theta) or (
        schedule is not None and not np.array_equal(schedule.epsilons, operator.epsilons)
    ):
        raise ValueError(
            f"operator was built for (lambda, k, theta) = ({operator.lam}, {operator.k}, "
            f"{operator.theta}) and its {operator.epsilons.size} radii; the call does not match"
        )
    values = operator.truncated_values(f)
    tail, b, at = operator._remainder
    # an underflowing h or sin theta turns this to inf or NaN, refused below
    with np.errstate(all="ignore"):
        value = float(tail[-1] + b * (1.0 + lam) ** -k * math.cos(theta + 0.5 * k * math.pi))
        residual = float(abs(tail[-2] - tail[-1]))
    # a NaN residual would pass the comparison below; tail[-1] sums every panel
    if not (math.isfinite(value) and math.isfinite(residual)):
        raise EvaluationError(f"truncated integrals or the PV value are not finite (value {value}, tail {residual})")
    if residual > 10.0 * tolerance:
        message = f"PV tail estimate {residual:.2e} exceeds 10 x tolerance {tolerance:g}"
        raise AccuracyError(message, estimate=value, error_bound=residual)
    gamma_term = kernel_constants(k).gamma_k * at
    return PVResult(
        value=value,
        extrapolated=value - gamma_term,
        gamma_term=gamma_term,
        residual=residual,
        epsilons=operator.epsilons.copy(),
        truncated=values,
    )
