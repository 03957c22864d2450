"""Ultraspherical analysis/synthesis, the Poisson semigroup, fractional
powers, and the two routes to the Riesz transform.

The spectral route applies the multiplier (n + lambda)**(-k) and takes k
theta-derivatives from the recurrence run on derivative vectors.  The
integral route truncates the singular kernel away from the diagonal on a
decreasing schedule of radii, on Gauss panels in phi that split where f
needs it, applied to f minus the a + b cos (known transform) matching f and
f' at theta: the remainder's truncations converge like the radius squared,
with no jump gamma_k.  The two must agree; the test suite holds them to each
other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .kernels import RIESZ_MIN_SEPARATION, KernelConfig, kernel_constants, poisson_kernel, riesz_kernel
from .quadrature import (
    AccuracyError,
    EvaluationError,
    QuadratureRule,
    _bernstein_points,
    _evaluate,
    _gauss_jacobi,
    total_mass,
)
from .special import (
    _check_integer,
    _norm_sqs,
    _points_key,
    _polynomial_rows,
    _polynomial_rows_if_kept,
    _validate_angle,
    gegenbauer_theta_jets,
    validate_lambda,
)

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


#: Gauss points of a phi panel: the fewest n whose Bernstein-ellipse bound
#: rho**(-2n) on the panel's density is at most _BAND_ERROR, and at most
#: _MAX_BAND_POINTS.  The bound ignores f, which each apply checks on the
#: panels instead (see TruncationOperator._estimates).  A panel holds at
#: least _MIN_BAND_POINTS, so that the tail the check reads lies past the
#: quadratic part of riesz_pv's g, and a degree-4 f reads as resolved on a
#: panel 0.4 wide
_BAND_ERROR = 1e-11
_MAX_BAND_POINTS = 24
_MIN_BAND_POINTS = 8

#: past the largest radius each panel doubles the distance to theta, but
#: grows by at most _MAX_OUTER_WIDTH
_MAX_OUTER_WIDTH = 0.4

#: a panel splits in halves while its estimate for f or g exceeds a share
#: of its mass m (see TruncationOperator._estimates): _RESOLUTION_TARGET past
#: the largest radius, where a panel's error shifts every truncation alike, and
#: _INCREMENT_TARGET between radii, where a band's sum is one increment
#: T_eps_i - T_eps_(i-1), what riesz_pv's tail and the variation operators
#: read.  A function that needs more than _MAX_BAND_DEPTH halvings (an
#: 8-point panel then holds 1,024 phi) raises AccuracyError
_RESOLUTION_TARGET = 1e-7
_INCREMENT_TARGET = 1e-10
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
    def geometric(cls, start: float = 0.05, ratio: float = 0.25, count: int = 5) -> "TruncationSchedule":
        """``count`` radii start * ratio**i.  The default spans 0.05 to
        0.05/256, as ratio 1/2 on 9 radii does, with the same first and last
        radius.  riesz_pv reads only the last two; the others are edges of
        the bands between them, whose Gauss points buy distance to theta: a
        band (e/4, e) sees theta at Bernstein rho = 3 and takes 12 points
        for 1e-11 (3**-24), a factor 4 of distance, where a band (e/2, e)
        at rho = 3 + sqrt(8) takes 8 points for a factor 2.  So the default
        operator holds 96 band phi instead of 128."""
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        count = _check_integer("radius count", count, 2)
        # checked before the radii are allocated
        if count > _MAX_RADII:
            raise ValueError(f"a schedule holds at most {_MAX_RADII} radii, got {count}")
        # an infinite start times an underflowed power is NaN, which the
        # radius checks refuse; the product itself need not warn
        with np.errstate(invalid="ignore"):
            return cls(start * ratio ** np.arange(count))


def analyze(f: Callable, lam: float, n_max: int, rule: QuadratureRule) -> SpectralCoefficients:
    """Coefficients of f against the normalized eigenfunctions up to degree
    n_max, by Gaussian quadrature.  The last finite analysis is kept, read
    from a repeat call on the same samples of f (see _analyze); the
    coefficients handed out are a writable copy of their own."""
    c = _analyze(f, lam, n_max, rule)[0]
    return SpectralCoefficients(lam=c.lam, coeffs=c.coeffs.copy())


#: the last finite analysis as (key, (coefficients, past, tail)), replaced
#: whole so that a thread reads one pair (see _analyze)
_last_analysis: tuple = (None, None)


def _clear_analysis() -> None:
    """Drop the kept analysis."""
    global _last_analysis
    _last_analysis = (None, None)


def _analyze(
    f: Callable, lam: float, n_max: int, rule: QuadratureRule, extra: int = 0
) -> tuple[SpectralCoefficients, np.ndarray, tuple[float, int] | None]:
    """analyze, the ``extra`` coefficients past n_max from a product of
    their own, so that a_0 .. a_n_max are analyze's bit for bit, and the
    coefficient tail riesz_spectral warns on (see _tail).

    The last finite analysis is kept, read-only, keyed by (lambda, n_max,
    extra, the rule's nodes and weights, f's samples at the nodes): a call
    with that key, such as riesz_spectral's at each k and theta on one f,
    reads it rather than analyzing again.  The key holds the samples, not
    f, which may be any callable; f is sampled after the rows are fetched,
    so that a band_limited f reads the rows the memo keeps.  A non-finite
    analysis is neither kept nor given a tail: riesz_spectral reads that
    tail itself, and meets its errors as a fresh analysis does."""
    global _last_analysis
    lam = _check_rule(lam, rule)
    n_max = _check_integer("degree", n_max)
    if rule.order < n_max + 1:
        raise ValueError(f"rule order {rule.order} too low for degree {n_max}")
    # norms first: they overflow (OverflowError) before the recurrence would
    norms = _norms(lam, n_max + extra)
    rows = _polynomial_rows(n_max + extra, lam, np.cos(rule.nodes))
    samples = _evaluate(f, rule.nodes)
    key = lam, n_max, extra, rule.nodes.tobytes(), rule.weights.tobytes(), samples.tobytes()
    held, entry = _last_analysis
    if held == key:
        return entry
    basis = rows / norms[:, None]
    weighted = rule.weights * samples
    coeffs, past = basis[: n_max + 1] @ weighted, basis[n_max + 1 :] @ weighted
    c = SpectralCoefficients(lam=lam, coeffs=coeffs)
    if not (np.isfinite(coeffs).all() and np.isfinite(past).all()):
        return c, past, None
    coeffs.flags.writeable = past.flags.writeable = False
    entry = c, past, _tail(coeffs, past, n_max)
    _last_analysis = key, entry
    return entry


def _tail(coeffs: np.ndarray, past: np.ndarray, n_max: int) -> tuple[float, int]:
    """The largest of the tail coefficients ``past`` past a_n_max, or of
    a_n_max where there are none, over ||a||, and its index."""
    tail_coeffs = np.abs(past if past.size else coeffs[-1:])
    index = n_max + int(past.size > 0) + int(np.argmax(tail_coeffs))
    # ||a|| over its largest entry: the squares of finite coefficients may overflow
    scale = float(np.max(np.abs(coeffs)))
    norm = scale * float(np.linalg.norm(coeffs / scale)) if scale > 0.0 else math.inf
    return float(np.max(tail_coeffs)) / norm, index


def _check_rule(lam: float, rule: QuadratureRule) -> float:
    """lam, validated; ValueError unless ``rule`` is built for it."""
    lam = validate_lambda(lam)
    if rule.lam != lam:
        raise ValueError(f"the rule is built for lambda {rule.lam}, not {lam}")
    return lam


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
    derivatives = gegenbauer_theta_jets(c.degree, c.lam, theta, derivative_order)[:, derivative_order]
    return _synthesis_sum(c.coeffs, derivatives, _norms(c.lam, c.degree))


def _synthesis_sum(coeffs: np.ndarray, derivatives: np.ndarray, norms: np.ndarray) -> float:
    """synthesize's sum of coeff * derivative / norm over the nonzero
    coefficients, in degree order."""
    nonzero = np.flatnonzero(coeffs)
    return float(_term_sum(coeffs[nonzero], derivatives[nonzero], norms[nonzero]))


def _term_sum(coeffs: np.ndarray, derivatives: np.ndarray, norms: np.ndarray):
    """0.0 plus coeff * derivative / norm for each row of ``derivatives`` in
    turn, ``coeffs`` and ``norms`` shaped to broadcast against the rows: the
    terms are one product, and sum() adds them left to right (np.sum would
    add a lone theta's terms pairwise, and np.cumsum, which gives the same
    sum, runs each theta's column alone: slower over many theta)."""
    terms = coeffs * derivatives
    terms /= norms
    # 0.0 as a float, or as zeros over theta
    return sum(terms, np.zeros(terms.shape[1:])[()])


def band_limited(c: SpectralCoefficients) -> Callable:
    """The function synthesized from a finite coefficient vector, vectorized
    over theta; the standard test family of the package.  f keeps its last
    sampling: called again at the same points, as the spectral route calls
    it at one rule's nodes for each k or t, it hands out a copy."""
    nonzero = np.flatnonzero(c.coeffs)
    steps = np.diff(nonzero)
    if nonzero.size and np.all(steps == steps[:1]):
        # evenly spaced degrees (all of them, every other one, a single one):
        # their rows read as a view rather than copied out
        nonzero = slice(nonzero[0], nonzero[-1] + 1, steps[0] if steps.size else 1)
    # columns against the rows of P_n over the points
    coeffs, norms = c.coeffs[nonzero, None], _norms(c.lam, c.degree)[nonzero, None]
    # (the points' key, their values), replaced whole so a reader sees one pair
    last = (None, None)

    def f(theta):
        nonlocal last
        th = np.asarray(theta, dtype=float).ravel()
        key = _points_key(c.lam, th)
        held, values = last
        if held != key:
            # reads the rows analyze keeps at a rule's nodes, and keeps none:
            # most other points, such as a truncation operator's probes, come once
            rows = _polynomial_rows_if_kept(c.degree, c.lam, np.cos(th))
            values = _term_sum(coeffs, rows[nonzero], norms)
            last = key, values
        return values.copy().reshape(np.shape(theta)) if np.ndim(theta) else float(values[0])

    return f


def poisson_coefficients(c: SpectralCoefficients, t: float) -> SpectralCoefficients:
    """Apply the Poisson multiplier exp(-t (n + lambda)) on coefficients."""
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    n = np.arange(c.degree + 1)
    return SpectralCoefficients(lam=c.lam, coeffs=c.coeffs * np.exp(-t * (n + c.lam)))


def poisson_spectral(c: SpectralCoefficients, t: float, theta: float) -> float:
    """Poisson semigroup at time t evaluated at theta, spectral side."""
    return synthesize(poisson_coefficients(c, t), theta)


def poisson_via_kernel(f: Callable, lam: float, t: float, theta: float, rule: QuadratureRule) -> float:
    """Poisson semigroup at time t through the kernel integral
    r**lam * P_lambda(r, theta, .) against dm_lambda, with r = exp(-t)."""
    return _poisson_via_kernel_each((f,), lam, t, theta, rule)[0][0]


def _poisson_via_kernel_each(
    fs: Sequence[Callable], lam: float, t: float, thetas: Sequence[float] | float, rule: QuadratureRule
) -> list[list[float]]:
    """poisson_via_kernel at every theta in ``thetas`` (the outer list), or
    at one scalar theta, for every f in ``fs``, from one kernel call over
    every (theta, node) pair."""
    lam = _check_rule(lam, rule)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    r = math.exp(-t)
    nodes = rule.nodes
    if np.ndim(thetas) == 0:
        # the kernel pairs a scalar theta with every node itself
        kernel_rows = poisson_kernel(lam, r, thetas, nodes)[None]
    else:
        count = len(thetas)
        pairs = np.repeat(thetas, nodes.size), np.tile(nodes, count)
        kernel_rows = poisson_kernel(lam, r, *pairs).reshape(count, nodes.size)
    samples = [_evaluate(f, nodes) for f in fs]
    return [[r**lam * float(np.dot(rule.weights, row * f_values)) for f_values in samples] for row in kernel_rows]


def fractional_power(c: SpectralCoefficients, alpha: float) -> SpectralCoefficients:
    """Negative fractional power of the Sturm-Liouville operator:
    multiplier (n + lambda)**(-2*alpha)."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"exponent must be positive and finite, got {alpha}")
    n = np.arange(c.degree + 1)
    return SpectralCoefficients(lam=c.lam, coeffs=c.coeffs * (n + c.lam) ** (-2.0 * alpha))


def riesz_spectral(
    f: Callable, lam: float, k: int, theta: float, n_max: int, rule: QuadratureRule
) -> float:
    """Order-k Riesz transform through the spectral pipeline:
    analyze -> multiplier (n+lambda)**(-k) -> k-th derivative synthesis.

    The analysis and its coefficient tail are kept (see _analyze), so calls
    at several k or theta on the same samples of f analyze it once; the
    jets, the multipliers, the rounding check, the tail warning and the sum
    are each call's own.

    Raises FloatingPointError where float64 cannot carry the answer: past
    the float range, or where the rounding of the coefficients, ~eps times
    the rule order for an O(1) function, reaches the value past
    _ROUNDING_LIMIT through the modes' multipliers and derivatives at theta
    (lambda 300 at theta 0.7 and k 1, for instance)."""
    _check_integer("order", k, 1)
    # an extreme lambda carries the coefficients and the jets toward the float
    # range; raise FloatingPointError there rather than warn and return inf
    with np.errstate(over="raise", invalid="raise"):
        # the tail: a_{n_max+1} and a_{n_max+2} where the rule integrates them
        # (an f of exact degree n_max fills a_{n_max} with no loss), else a_{n_max}
        extra = 2 if rule.order >= n_max + 3 else 0
        c, past, tail = _analyze(f, lam, n_max, rule, extra)
        # a non-finite analysis comes without its tail
        tail, tail_index = tail or _tail(c.coeffs, past, n_max)
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


def _band_points(lo: float, hi: float, theta: float, end: float | None = None) -> int:
    """Gauss points for the operator's panel (lo, hi) at theta.

    The panel's density, the kernel times (sin phi)**(2 lam) (over s**(2 lam),
    s the distance to ``end``, on a panel whose rule carries that weight), is
    analytic off theta, its mirror images -theta and 2 pi - theta, 0 and pi,
    ``end`` excepted.  So the rule's error falls like rho**(-2n), where rho
    sums the semi-axes of the largest Bernstein ellipse of (lo, hi) that
    excludes the nearest of those points (see quadrature._bernstein_points)."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = [point for point in (theta, -theta, 2.0 * math.pi - theta, 0.0, math.pi) if point != end]
    a = min(abs(point - center) for point in points) / half
    return min(_bernstein_points(a, _BAND_ERROR), _MAX_BAND_POINTS)


def _outer_edges(start: float, reach: float) -> list[float]:
    """The panels' edges past the largest radius ``start``, as distances to
    theta out to ``reach``, that of 0 or pi: each panel doubles the distance,
    by at most _MAX_OUTER_WIDTH, and one whose next would reach the end
    reaches it itself."""
    edges = [start]
    while edges[-1] < reach:
        step = min(2.0 * edges[-1], edges[-1] + _MAX_OUTER_WIDTH)
        edges.append(reach if min(2.0 * step, step + _MAX_OUTER_WIDTH) >= reach else step)
    return edges


class _Piece:
    """A phi panel of a TruncationOperator, counted from radius ``index`` on:
    the n-point Gauss rule on (lo, hi) for the weight s**(2 lam), s the
    distance to ``end`` (0 or pi, where the panel reaches it), or 1, and, once
    the operator fills it in, the smooth density d at the nodes, the kernel
    times (sin phi / s)**(2 lam) or (sin phi)**(2 lam).  ``scale`` takes the
    rule on (0, 1) to the panel, and ``depth`` counts the halvings."""

    def __init__(self, lo: float, hi: float, index: int, n: int, lam: float, end: float | None = None, depth: int = 0):
        self.lo, self.hi, self.index, self.lam, self.end, self.depth = lo, hi, index, lam, end, depth
        power = 0.0 if end is None else 2.0 * lam
        self.rule = _gauss_jacobi(n, power)
        t, weights, _ = self.rule
        self.scale = (hi - lo) ** (power + 1.0)
        self.weights = self.scale * weights
        s = (hi - lo) * t
        # the kernel takes phi inside (0, pi): pi - s of a sliver may round to pi
        self.nodes = np.minimum(hi - s, np.nextafter(math.pi, 0.0)) if end == hi else lo + s
        # sin phi is sin s at either end; elementwise, so each value is what
        # it would be in any other panel (see kernels)
        base = np.sin(self.nodes) if end is None else np.sin(s) / s
        self.smooth = np.float_power(base, 2.0 * lam)
        self.density = np.empty(0)

    def halves(self) -> tuple["_Piece", "_Piece"]:
        """The panel's halves, of as many points; the one at ``end`` keeps the weight."""
        mid, n = 0.5 * (self.lo + self.hi), self.nodes.size
        return tuple(
            _Piece(lo, hi, self.index, n, self.lam, self.end if self.end in (lo, hi) else None, self.depth + 1)
            for lo, hi in ((self.lo, mid), (mid, self.hi))
        )


def _matched_line(below: float, at: float, above: float, theta: float, h: float) -> tuple[float, float]:
    """a and b of the a + b cos that matches f and f' at theta, given f at
    theta - h, theta and theta + h; f' is their central difference.  An
    underflowing h or sin theta makes them inf or NaN."""
    b = (below - above) / (2.0 * h) / math.sin(theta)
    return at - b * math.cos(theta), b


class TruncationOperator:
    """Truncated Riesz integrals at fixed (lambda, k, theta) for a decreasing
    radius schedule.

    Every phi panel carries a Gauss rule: one panel each side between
    consecutive radii, and past the largest radius panels that double the
    distance to theta, by at most 0.4, out to 0 and pi (see _outer_edges).
    A panel that reaches 0 or pi carries the Gauss-Jacobi rule for the
    weight s**(2 lambda), s the distance to that end, the others the
    Gauss-Legendre rule; the rest of the density is analytic on the panel.
    Each panel gets the fewest points whose Bernstein-ellipse bound on that
    rest, set by its distance to the nearest of theta, its mirror images, 0
    and pi, is below 1e-11, at least 8 and at most 24 (see _band_points): a
    default operator at theta 0.5 to pi - 0.5 holds 176-188 phi, 96 of them
    on its 8 bands between radii.  Kernel
    values are computed in one kernel call at the resolution ``config``
    (each phi a sum over its r-nodes of the t-table cached per lambda and k;
    see kernels.kernel_partial), and reused for every function the operator
    is applied to.

    The panels resolve the kernel, not every f.  Each apply samples f once,
    at the nodes and at theta and theta +- h, sums f and riesz_pv's
    remainder g = f - a - b cos (a + b cos matching f and f' at theta), and
    estimates each panel's error for both from the tails of their
    coefficients and the density's in the panel's orthonormal basis (see
    _estimates).  A panel whose estimate for either exceeds 1e-7 of its mass
    sum |w d v| (1e-10 for a band between radii) splits in halves of as many
    points, with kernel values at the new nodes only, kept for every later
    f; an f applied after a split is summed on the halves.  Past 7 halvings
    the apply raises AccuracyError carrying the estimate, which
    ``band_estimate`` holds for the last apply.  ``epsilons`` must form a
    TruncationSchedule whose smallest radius is below max(theta, pi - theta).
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
        self.k = _check_integer("order", k, 1)
        # before any panel is built: their edges assume theta inside (0, pi)
        self.theta = _validate_angle("theta", theta)
        self.epsilons = TruncationSchedule(epsilons).epsilons
        self._config = config
        theta = self.theta
        smallest, reach = float(self.epsilons[-1]), max(theta, math.pi - theta)
        if smallest >= reach:
            raise ValueError(
                f"the smallest radius {smallest!r} leaves no phi in (0, pi) at theta = {theta!r}: "
                f"it is at least max(theta, pi - theta) = {reach!r}"
            )
        self._step = min(smallest, 0.5 * theta, 0.5 * (math.pi - theta))
        radii = self.epsilons.tolist()
        self._pieces = []
        for side, end in ((-1.0, 0.0), (1.0, math.pi)):
            reach = abs(end - theta)
            # (near, far, index): the bands between radii, then the panels past the largest
            outer = _outer_edges(radii[0], reach)
            spans = [(near, far, i) for i, (far, near) in enumerate(zip(radii, radii[1:]), 1)]
            for near, far, index in spans + [(near, far, 0) for near, far in zip(outer, outer[1:])]:
                if near < reach:
                    # a panel that reaches the end holds it exactly
                    at = end if far >= reach else None
                    lo, hi = sorted((theta + side * near, theta + side * far if at is None else end))
                    n = max(_band_points(lo, hi, theta, at), _MIN_BAND_POINTS)
                    self._pieces.append(_Piece(lo, hi, index, n, self.lam, at))
        # one kernel call over every panel's nodes: the call fetches the t-table
        # of (lambda, k) once and builds the far r-rule once for all of them
        self._fill(self._pieces)
        self._assemble()
        self._band_estimate = 0.0

    @property
    def band_estimate(self) -> float:
        """The error estimate of the phi panels for the last function
        applied: per panel the larger of f's and g's, summed."""
        return self._band_estimate

    def _fill(self, pieces: list[_Piece]) -> None:
        """Each panel's density at its nodes, from one kernel call; each value
        is what it would be in any other batch."""
        phi = np.concatenate([piece.nodes for piece in pieces])
        kernel_vals = riesz_kernel(self.lam, self.k, self.theta, phi, config=self._config)
        for piece, values in zip(pieces, np.split(kernel_vals, np.cumsum([p.nodes.size for p in pieces])[:-1])):
            piece.density = piece.smooth * values

    def _assemble(self) -> None:
        """The panels' nodes, kernel weights and radius indices as flat
        arrays, what the check reads of each panel (see _estimates), and the
        points an apply samples f at: the nodes, then theta - h, theta and
        theta + h."""
        self._nodes = np.concatenate([piece.nodes for piece in self._pieces])
        self._kernel_weights = np.concatenate([piece.weights * piece.density for piece in self._pieces])
        sizes = [piece.nodes.size for piece in self._pieces]
        self._radius = np.repeat([piece.index for piece in self._pieces], sizes)
        # what the check reads, each panel padded to the most points: the
        # nodes' indices as rows (the first repeated), the rule's analysis
        # matrix in the last rows of a square block (0 elsewhere), |w d| with
        # the rule's weights on (0, 1), and the density's coefficients
        count, width = len(sizes), max(sizes)
        self._index = np.repeat(np.cumsum([0] + sizes[:-1]), width).reshape(count, width)
        self._analysis, self._unit_weights = np.zeros((count, width, width)), np.zeros((count, width))
        density = np.zeros((count, width))
        for i, piece in enumerate(self._pieces):
            n = piece.nodes.size
            _, weights, basis = piece.rule
            self._index[i, :n] += np.arange(n)
            self._analysis[i, width - n :, :n] = basis * weights
            self._unit_weights[i, :n] = np.abs(weights * piece.density)
            density[i, :n] = piece.density
        coeffs = np.matmul(self._analysis, density[..., None])[..., 0]
        # hypot, not the root of a sum of squares: an extreme lambda's density
        # squares past the float range
        self._density_tail, self._density_norm = np.abs(coeffs[:, -2:]), np.hypot.reduce(coeffs, axis=-1)
        self._points = np.array(sizes)
        # a value's rounding reaches a tail coefficient by the rows' sums of |q_j| w
        reach = np.abs(self._analysis[:, -2:]).sum(axis=-1).max(axis=-1)
        self._rounding = 4 * self._points * np.finfo(float).eps * reach
        self._scale = np.array([piece.scale for piece in self._pieces])
        self._target = np.array([_INCREMENT_TARGET if piece.index else _RESOLUTION_TARGET for piece in self._pieces])
        h = self._step
        self._probe = np.concatenate([self._nodes, [self.theta - h, self.theta, self.theta + h]])
        self._probe_cos = np.cos(self._probe)

    def truncated_values(self, f: Callable) -> np.ndarray:
        """The truncated integral at every schedule radius, largest first, with
        every panel split until f and riesz_pv's g resolve on it; keeps the
        last apply's truncations of g, b and f(theta) for riesz_pv."""
        while True:
            sampled = _evaluate(f, self._probe)
            fvals = sampled[: self._nodes.size]
            with np.errstate(all="ignore"):
                a, b = _matched_line(*sampled[-3:], self.theta, self._step)
                # rows f and g = f - a - b cos
                rows = np.stack([fvals, fvals - a - b * self._probe_cos[: self._nodes.size]])
                estimate, mass = self._estimates(rows[:, self._index], abs(a) + abs(b))
                # a NaN estimate (f or g not finite) splits nothing; riesz_pv refuses the value
                unresolved = np.any(estimate > self._target * mass, axis=0)
                # an underflowing h or sin theta makes g inf or NaN; riesz_pv refuses it
                self._remainder = (self._apply(rows[1]), b, float(sampled[-2]))
            self._band_estimate = float(self._scale @ np.fmax(*estimate))
            split = [piece for piece, flag in zip(self._pieces, unresolved) if flag]
            if not split:
                return self._apply(fvals)
            if any(piece.depth >= _MAX_BAND_DEPTH for piece in split):
                raise AccuracyError(
                    f"f is not resolved by phi panels halved {_MAX_BAND_DEPTH} times "
                    f"(panel estimate {self._band_estimate:.2e})",
                    estimate=float(self._apply(fvals)[-1]),
                    error_bound=self._band_estimate,
                )
            halves = {piece: piece.halves() for piece in split}
            self._fill([half for pair in halves.values() for half in pair])
            self._pieces = [part for piece in self._pieces for part in halves.get(piece, (piece,))]
            self._assemble()

    def _estimates(self, values: np.ndarray, line: float) -> tuple[np.ndarray, np.ndarray]:
        """Error estimates of the sums of the rows f and g = f - a - b cos over
        every panel, in units of the panel's scale, and the rows' masses
        m = sum |w d v| in the same units.

        ``values`` is (2, panels, points), the rows at the padded nodes, and
        ``line`` is |a| + |b|.  In a panel's orthonormal basis the rule misses
        the sum of d v by about what the tails of the coefficients c(v) and
        c(d), the last two of each, leave out:
        sum_tail |c_j(v)| |c_j(d)| + t**2 / ||c(v)|| ||c(d)||, t the largest
        tail coefficient of v (the chop of Aurentz and Trefethen, ACM TOMS
        2017), plus the kernel's Bernstein bound and the sum's rounding,
        (_BAND_ERROR + n eps) m.  A tail that rounding alone explains counts
        as 0: 2n - 1 times a value's rounding, 2 eps max |f| on the panel
        (plus ``line`` for g, whose values are f's less the line's).  So an f
        linear in cos, whose g is rounding only, reads as resolved."""
        coeffs = np.matmul(self._analysis, values[..., None])[..., 0]
        tail = np.abs(coeffs[..., -2:])
        tail[tail.max(axis=-1) <= self._rounding * np.add.outer((0.0, line), np.abs(values[0]).max(axis=-1))] = 0.0
        reach, norm = tail.max(axis=-1), np.hypot.reduce(coeffs, axis=-1)
        mass = np.sum(np.abs(values) * self._unit_weights, axis=-1)
        estimate = np.sum(tail * self._density_tail, axis=-1)
        estimate += (_BAND_ERROR + self._points * np.finfo(float).eps) * mass
        # reach <= norm, so a zero norm leaves 0
        return estimate + reach * reach / np.maximum(norm, np.finfo(float).tiny) * self._density_norm, mass

    def _apply(self, fvals: np.ndarray) -> np.ndarray:
        """Each radius's sum over the panels counted from it on: the sums per
        radius index, accumulated from the largest radius in."""
        return np.cumsum(np.bincount(self._radius, self._kernel_weights * fvals, self.epsilons.size))


@dataclass(frozen=True)
class PVResult:
    """R^k f(theta) as ``value``, the jump gamma_k f(theta) as ``gamma_term``,
    the principal-value integral value - gamma_term as ``extrapolated``, T_eps f
    at ``epsilons`` as ``truncated``, and as ``residual`` the tail estimate (not
    a bound) |T g(eps_{n-1}) - T g(eps_n)| of riesz_pv's g.  It reads the last
    step of the schedule, so at ratio 1/4 it is some 8-9 times what ratio 1/2
    reads at the same smallest radius, where the tail rises above rounding:
    more conservative, for the same value."""

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
    when f needs a phi panel of the operator halved more than 7 times.
    ``tolerance`` must be positive; inf turns the tail check off.

    A pre-built TruncationOperator amortizes kernel evaluations over several
    functions and carries a custom KernelConfig; it must have been built for
    the same (lambda, k, theta) and, when ``schedule`` is given, its radii.
    Without either, the schedule is TruncationSchedule.geometric(): radii
    0.05 to 0.05/256 at ratio 1/4, whose last value is that of ratio 1/2 on 9
    radii to rounding, and whose tail difference over the wider last step
    reads larger (see PVResult).
    """
    # a NaN tolerance would pass every tail, a negative one refuse every tail
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
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
