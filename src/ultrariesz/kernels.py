"""Poisson and Riesz kernels of the ultraspherical expansion, the circle
kernels they localize to, and the constants of the principal-value identity.

The Riesz kernel of order k is assembled from the derivative expansion of
the Poisson kernel: each admissible index (s, i, j) contributes a 2-D
integral over (r, t) in (0,1) x (0,pi), discretized with a fixed tanh-sinh
rule in t (it carries the (sin t)**(2*lambda-1) endpoint singularity) and
an r-rule in three segments, each for one difficulty: on (0, 1/2), where
the r**(lambda-1) log(1/r)**(k-1) singularity sits, the Gauss rule of that
weight, the same for every phi (see _lower_rule); Gauss-Legendre panels in
s = log(1 - r) on (1/2, 1 - w), w = min(|theta - phi|, 1/2), on one fixed
grid of width log 4, which resolves the near-diagonal concentration at
r = exp(+-i w) at every scale of w; and a fixed Gauss-Legendre rule on
(1 - w, 1) (see _r_rules).  The first segment and the grid's full panels
are built once per (lambda, k, r-level, guard), and a phi computes only
its partial panel next to 1 - w and its rule on (1 - w, 1).  The t-sum
depends on phi only through one variable z, so it is tabulated once per
(lambda, order, t-level) as Chebyshev-point values on panels in
v = log(1 + 2 z), out to the farthest guard asked for so far, whose first
panels serve every nearer guard (see _reach_table), and each phi sums over
its r-nodes alone; the Poisson kernel reads the order-0 table at its one r
by the same barycentric read (see _interpolate).  Past the first panel the
table's columns also carry the powers of q = r / Delta_r that the sum
weighs them by, as expm1(v)**(s - s0) (see _build_t_table), so each
(theta, phi) pair reads one row of the table there and a block of pairs
is summed by array contractions, with no loop over its pairs (see
kernel_partial).  The kernels, regions and envelopes take paired
(theta, phi) arrays (see _angles), and a value comes out bit for bit the
same in any batch: elementwise ufuncs work entry by entry (np.sin and np.cos
round as math.sin and math.cos, np.float_power as Python's **, where
np.power need not), so only the reductions and contractions keep fixed
shapes: np.einsum's, _lagrange's weight sums and np.add.reduceat's.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Literal

import numpy as np

from .faa_di_bruno import _term_layout
from .quadrature import (
    _MAX_LEVEL,
    AccuracyError,
    EvaluationError,
    _bernstein_points,
    _gauss_from_recurrence,
    _gl_base,
    _stieltjes,
    tanh_sinh_segment,
)
from .special import _check_integer, _validate_angle, validate_lambda

__all__ = [
    "KernelConfig",
    "DEFAULT_KERNEL_CONFIG",
    "KernelConstants",
    "kernel_constants",
    "RegionLabel",
    "poisson_kernel",
    "riesz_kernel",
    "kernel_partial",
    "circle_H",
    "circle_R",
    "h_limit_even",
    "region_classify",
    "envelope_residual",
    "m_k_estimate",
]

RegionLabel = Literal["A1", "A2", "A3"]

#: the Riesz kernel refuses |theta - phi| below this, whatever the config;
#: truncation radii must stay above it
RIESZ_MIN_SEPARATION = 1e-5

#: the t-integral engine's float policy: an extreme lambda carries the table
#: and the kernels' sums past the float range silently, and each kernel's
#: _check_finite reports that once, as EvaluationError
_quiet_float_range = np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature resolution for the 2-D kernel integrals.

    ``t_level`` is the tanh-sinh level of the t-rule; its node count roughly
    doubles per level.  ``r_level`` sets the Gauss points of the r-rule's
    singular segment (0, 1/2), whose weight carries the
    r**(lambda-1) log(1/r)**(k-1) endpoint singularity: 4 per level, plus
    one per two orders above k 4 (see _lower_points), so 14 at k <= 4 and
    18 at k 12 by default.  Above 1/2 the r-rule's Gauss-Legendre panels, 16
    points each on a fixed grid in log(1 - r), and its 20 points on
    (1 - w, 1) are sized by their Bernstein-ellipse bounds, and no level
    refines them.
    Both levels must be integers in [1, 12].  ``min_separation``, positive,
    is the smallest |theta - phi| accepted before an AccuracyError.
    ``doubled()`` raises both levels by one, the standard self-check.

    Probed at theta = 1.2 against levels (t, r) = (8, 7), k 1..12 and
    lambda 0.5 and 2.45, the defaults are within 4e-12 relative at
    |theta - phi| = 1e-2 and 0.3, but not near the diagonal.  The relative
    error at |theta - phi| = 1e-4 (the worse side):

        k   lambda 0.5: (5, 3)  (6, 3)    lambda 2.45: (5, 3)  (6, 3)
        1              1.1e-12  4.0e-16                1.2e-10  2.0e-16
        4              6.4e-7   4.0e-12                3.1e-5   7.8e-13
        8              2.7e-6   8.0e-12                1.3e-4   2.0e-12
        12             8.8e-6   2.8e-11                6.3e-4   2.3e-11

    The t-rule sets this: (5, 7) errs as (5, 3) does.  ``t_level`` costs only
    the t-table builds, once per (lambda, order, level, guard); the per-phi
    work does not depend on it.
    """

    t_level: int = 5
    r_level: int = 3
    min_separation: float = RIESZ_MIN_SEPARATION

    def __post_init__(self):
        # before any rule or table is built: a level past the range would
        # otherwise quietly give another kernel, or allocate without bound
        for name in ("t_level", "r_level"):
            _check_integer(name, getattr(self, name), 1, _MAX_LEVEL)
        if not self.min_separation > 0.0:
            raise ValueError(f"min_separation must be positive, got {self.min_separation}")

    def doubled(self) -> "KernelConfig":
        return replace(self, t_level=self.t_level + 1, r_level=self.r_level + 1)


DEFAULT_KERNEL_CONFIG = KernelConfig()


@dataclass(frozen=True)
class KernelConstants:
    """Jump constants of the principal-value identity at order k."""

    k: int
    gamma_k: float
    beta_k: float


def kernel_constants(k: int) -> KernelConstants:
    """gamma_k = 0 (k odd) or (-1)**(k/2) (k even); beta_k = 2 pi (k-1)! gamma_k."""
    k = _check_integer("order", k, 1)
    if k % 2 == 1:
        gamma = 0.0
    else:
        gamma = float((-1) ** (k // 2))
    return KernelConstants(k=k, gamma_k=gamma, beta_k=2.0 * math.pi * math.factorial(k - 1) * gamma)


def h_limit_even(k: int) -> float:
    """lim_{w -> 0+} H^k(w) = (-1)**(k/2) pi Gamma(k) for even k."""
    k = _check_integer("order", k, 1)
    if k % 2 != 0:
        raise ValueError(f"limit exists only for even k >= 2, got {k}")
    return float((-1) ** (k // 2)) * math.pi * math.factorial(k - 1)


def region_classify(theta: np.typing.ArrayLike, phi: np.typing.ArrayLike) -> RegionLabel | np.ndarray:
    """Place (theta, phi) in the off-diagonal partition of (0, pi)^2.

    For theta <= pi/2 the wedge phi > 3*theta/2 is A1, phi < theta/2 is A3
    and the band between is A2; the right half of the square is classified
    through the symmetry (theta, phi) -> (pi - theta, pi - phi), which maps
    each region onto itself.  (theta, phi) pair as in the kernels (see
    _angles): a scalar phi returns one label, an array one per pair.
    """
    thetas, phis = _angles(theta, phi)
    mirror = thetas > 0.5 * math.pi
    thetas, phis = np.where(mirror, math.pi - thetas, thetas), np.where(mirror, math.pi - phis, phis)
    labels = np.where(phis > 1.5 * thetas, "A1", np.where(phis < 0.5 * thetas, "A3", "A2"))
    return str(labels[0]) if np.ndim(phi) == 0 else labels


@_quiet_float_range
def poisson_kernel(
    lam: float, r: float, theta: np.typing.ArrayLike, phi: np.typing.ArrayLike
) -> float | np.ndarray:
    """P_lambda(r, theta, phi), the ultraspherical Poisson kernel:
    (lam/pi) (1 - r**2) times the t-integral of (sin t)**(2 lam - 1) times
    (Delta_r + cross (1 - cos t))**-(lam + 1), cross = 2 r sin(theta) sin(phi),
    evaluated as (lam/pi) (1 - r**2) Delta_r**-1 (Delta_r + 2 cross)**-lam T(v)
    with T the order-0 t-table (see _reach_table) read at
    v = log(1 + 2 cross / Delta_r) by _interpolate, as kernel_partial reads
    its rows.  The call reads the table's panels out to guard 1 - r, past
    every v of the call as Delta_r >= (1 - r)**2.

    ``phi`` may be a scalar (returns a float) or a 1-D array (returns an
    array), and ``theta`` a scalar, paired with every phi, or a 1-D array
    of the same length as ``phi``, each (theta_i, phi_i) one pair; see
    _angles.  lam below _LAMBDA_FLOOR raises AccuracyError, and a value that
    is not finite raises EvaluationError.
    """
    lam = validate_lambda(lam)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    thetas, phis = _angles(theta, phi)
    table, panels = _reach_table(lam, 0, DEFAULT_KERNEL_CONFIG.t_level, 1.0 - r)
    delta_r = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * (thetas - phis)) ** 2
    cross = 2.0 * r * (np.sin(thetas) * np.sin(phis))
    panel, x = _locate(np.log1p(2.0 * cross / delta_r), panels)
    # a pair is one node: _BLOCK_NODES pairs at a time bound the scratch
    t_sum = np.empty(phis.size)
    for start in range(0, phis.size, _BLOCK_NODES):
        nodes = slice(start, start + _BLOCK_NODES)
        _interpolate(table[0].T, panel[nodes], x[nodes], out=t_sum[nodes])
    values = lam / math.pi * (1.0 - r * r) / delta_r * np.power(delta_r + 2.0 * cross, -lam) * t_sum
    _check_finite(values, thetas, phis, f"lambda {lam}, r {r}")
    return float(values[0]) if np.ndim(phi) == 0 else values


#: the r-rule's segments meet at r = 1 - _FAR_SPLIT and r = 1 - w,
#: w = min(|theta - phi|, _FAR_SPLIT)
_FAR_SPLIT = 0.5

#: Gauss-Legendre points of the r-rule on (1 - w, 1): there the integrand's
#: nearest singularities are r = exp(+-i w), whose Bernstein ellipse about
#: the segment has rho >= 4.18 for every w (least at w = 1/2), so the rule
#: errs by ~rho**(-2 * _UPPER_POINTS) < 1e-24
_UPPER_POINTS = 20

#: the r-rule's segment (1/2, 1 - w) lies on one fixed grid of panels in
#: s = log(1 - r), of width log(_GRADING): their edges sit at the distances
#: _FAR_SPLIT / _GRADING**j to r = 1, each a power of two, so a panel's nodes
#: are the first panel's scaled exactly (see _graded_prefix).  _full_panels
#: and _graded_prefix step the edges' binary exponents by 2: 4 = 2**2
_GRADING = 4.0

#: Gauss-Legendre points of every log panel: the Bernstein count for 1e-18
#: at the nearer singularity.  r = 0 (s = 0) lies log(_GRADING) / 2, a
#: half-width, past the first panel, so 2 half-widths from its centre: 16;
#: the zeros of Delta_r, at 1 - r = +-i w, lie pi/2 off the real s-axis: 14.
#: A partial panel is narrower, which moves both further out
_GRADED_POINTS = max(
    _bernstein_points(2.0, 1e-18),
    _bernstein_points(math.hypot(1.0, math.pi / math.log(_GRADING)), 1e-18),
)

#: r-nodes summed at once: kernel_partial takes its pairs in blocks of at
#: most this many nodes (~75 a pair at theta 1.2, so ~110 phi; a pair is
#: never split), and poisson_kernel its pairs, one node each, in runs of
#: this many.  A block's weights, gathered rows and row table live in the
#: thread's _workspace, so the budget bounds what a thread holds: over
#: default operators' phi and the CLI's 380-pair grid, ~3.8 MiB touched
#: (4.1 allocated) at k <= 4 and ~7.6 MiB (11.1) at k 12.  On the held
#: scratch, one call over a default operator's phi (lambda 1.3, theta 1.2)
#: takes 16-20% less time at k 1-4 than in blocks of 2400 nodes (~32 phi),
#: 10% less at k 8 and 2% at k 12; one block for the whole call saves
#: ~5% more, and holds twice as much
_BLOCK_NODES = 8192

#: each thread's scratch arrays, by name (see _scratch).  Blocks that
#: allocated their temporaries, ~1 MiB a block, handed the freed pages back
#: to the system and faulted them in again at the next block: a warm call
#: over a default operator's phi (lambda 1.3, theta 1.2) took 250-590 minor
#: page faults at k 1-12, and takes none with these held; at k 4 its traced
#: peak fell from 1.83 to 1.01 MiB.  Each thread has its own, so concurrent
#: callers never share a buffer
_workspace = threading.local()


def _scratch(name: str, *shape: int) -> np.ndarray:
    """This thread's float buffer ``name`` as a C-contiguous array of
    ``shape``, held across calls and grown to the power of two at or above
    the largest size asked for: a few growths per buffer, and a page it
    never reaches is never touched.  Its values are whatever the last user
    left, so a caller writes before it reads, and hands out none of it."""
    size = int(math.prod(shape))
    held = getattr(_workspace, name, None)
    if held is None or held.size < size:
        held = np.empty(1 << max(size - 1, 0).bit_length())
        setattr(_workspace, name, held)
    return held[:size].reshape(shape)


#: the t-table is piecewise polynomial in v = log(1 + 2 z), on panels of
#: this width; see _panel_nodes for the nodes per panel
_PANEL_WIDTH = 0.5

#: target of a panel's interpolation error, relative to the panel's values
_PANEL_ERROR = 1e-17

#: z-nodes of the (z, t) grid summed at once while a table is built; the last
#: chunk is padded to full size, so a short table wastes at most 31 rows (the
#: Poisson tables at r = exp(-1) and exp(-0.1) hold 65 and 169)
_TABLE_CHUNK = 32

#: the smallest lambda the t-table serves: the t-rule drops the nodes within
#: ~1e-16 of pi, with ~(1e-16)**(2 lam) / (2 lam) of the t-mass, so the Poisson
#: kernel is off by 6.6e-9 at 0.25 but 1.2e-7 at 0.21
_LAMBDA_FLOOR = 0.25


#: tanh-sinh level of the discretization the singular segment's Gauss rule
#: is computed from: its 511 nodes give the rule the weight's moments
#: j < 108 (54 points, the most r_level 12 asks for) within 4e-14 relative
_STIELTJES_LEVEL = 6


def _lower_points(k: int, level: int) -> int:
    """Gauss points of the r-rule's segment on (0, 1/2) at order k and
    KernelConfig.r_level ``level``.  The rest of the integrand is analytic on
    |r| < 1, so the rule errs by ~rho**(-2 n) times the segment's share of
    the kernel, rho = 3 + sqrt(8) for (0, 1/2); each level adds 4 points, a
    factor ~1e-6.  The share grows with k, and above k 4 each two orders
    take one point more: at level 3 that is 14 points at k <= 4 and 18 at
    k 12.  Against a 40-point rule over a default operator's phi, weighted
    as the operator weighs them, that is the 1e-16 to 5e-14 floor at every
    k; 16 points at k 12 leave up to 7e-12."""
    return 4 * level + 2 + max(0, k - 3) // 2


# keyed by (lambda, k, level): the bound keeps a caller drawing a fresh
# lambda per call from growing the cache
@lru_cache(maxsize=64)
@_quiet_float_range
def _lower_rule(lam: float, k: int, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The r-rules' segment on (0, 1/2), the same for every phi: the
    _lower_points(k, level)-point Gauss rule for the weight
    r**(lam-1) log(1/r)**(k-1), its nodes r, their 1 - r and the node factors
    (1 - r**2) times the Christoffel weight, read-only.  Its recurrence comes
    from the Stieltjes procedure on the weight in x = 2 r = u**(1/lam), where
    r**(lam-1) dr = 2**-lam du / lam leaves the logarithm's the only endpoint
    singularity, so the level-_STIELTJES_LEVEL tanh-sinh rule in u resolves
    it.  At k = 1 it is _gauss_jacobi(n, lam - 1) mapped to (0, 1/2).  Raises
    EvaluationError where lam carries the rule past the float range."""
    u, u_weights = tanh_sinh_segment(0.0, 1.0, _STIELTJES_LEVEL)
    log_u = np.log(u)
    # lam * 2**lam times the weight, log(2 / x)**(k-1), at x = u**(1/lam)
    x, measure = np.exp(log_u / lam), u_weights * (math.log(2.0) - log_u / lam) ** (k - 1)
    diag, off = _stieltjes(x, measure, _lower_points(k, level))
    # a lam that rounds every x to 1 leaves a one-point measure: its
    # recurrence breaks down, or its nodes coincide
    if np.all(np.isfinite(diag)) and np.all(np.isfinite(off)) and np.all(off > 0.0):
        nodes, weights, _ = _gauss_from_recurrence(diag, off, 1.0 / np.sqrt(measure.sum()))
        if 0.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0):
            lower = 0.5 * nodes
            parts = (lower, 1.0 - lower, (2.0**-lam / lam) * weights * (1.0 - lower * lower))
            for part in parts:
                part.flags.writeable = False
            return parts
    raise EvaluationError(f"the r-rule on (0, 1/2) is not finite at lambda {lam}, k {k}")


def _full_panels(seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each w of ``seps``, none above _FAR_SPLIT: the number of fixed
    grid panels that lie whole in (w, _FAR_SPLIT) as distances to r = 1,
    floor(log(_FAR_SPLIT / w) / log(_GRADING)), and the edge where they end,
    the first at or above w.  Exact, from w's binary exponent."""
    # w / _FAR_SPLIT = m 2**e, m in [1/2, 1); the edges are 4**-j there
    mantissa, exponent = np.frexp(seps / _FAR_SPLIT)
    full = ((mantissa == 0.5) - exponent) // 2
    return full, np.ldexp(_FAR_SPLIT, -2 * full)


def _upper_factors(lam: float, k: int, dist: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = 1 - dist of r-nodes above 1/2, placed by their distance ``dist``
    to r = 1, and their node factors r**(lam-1) log(1/r)**(k-1) (1 - r**2)
    times ``weights``, each from dist without cancellation."""
    r = 1.0 - dist
    return r, r ** (lam - 1.0) * (-np.log1p(-dist)) ** (k - 1) * (dist * (1.0 + r)) * weights


# keyed by (lambda, k, level, guard), as _lower_rule is by (lambda, k,
# level): the bound keeps fresh lambdas from growing the cache
@lru_cache(maxsize=64)
@_quiet_float_range
def _graded_prefix(lam: float, k: int, level: int, guard: float) -> np.ndarray:
    """The part of the r-rules that no phi computes: _lower_rule's segment on
    (0, 1/2), then the full grid panels of (1/2, 1 - w) from r = 1/2 inward,
    _GRADED_POINTS Gauss-Legendre nodes in s = log(1 - r) each, as many as
    the guard's smallest w takes (see _full_panels).  Rows r, 1 - r and the
    node factors, read-only; a phi's rule starts with the lower segment and
    its own full panels, a prefix of these."""
    panels = int(_full_panels(np.array([min(guard, _FAR_SPLIT)]))[0][0])
    nodes, weights = _gl_base(_GRADED_POINTS)
    # panel j is panel 0 scaled by _GRADING**-j, exactly: 1 - r =
    # _FAR_SPLIT * _GRADING**((x - 1) / 2) at its node x, and dr = (1 - r) ds
    first = _FAR_SPLIT * np.exp(0.5 * math.log(_GRADING) * (nodes - 1.0))
    scale = -2 * np.arange(panels)[:, None]
    dist = np.ldexp(first, scale).ravel()
    r, fac = _upper_factors(lam, k, dist, np.ldexp(0.5 * math.log(_GRADING) * weights * first, scale).ravel())
    prefix = np.concatenate([_lower_rule(lam, k, level), (r, dist, fac)], axis=1)
    prefix.flags.writeable = False
    return prefix


def _r_rules(
    lam: float, k: int, seps: np.ndarray, level: int, guard: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The r-rules of a call's phi, one per entry w of ``seps`` (each at
    least min(``guard``, _FAR_SPLIT)), each in three segments: the Gauss rule
    of the weight r**(lam-1) log(1/r)**(k-1) on (0, 1/2) (_lower_rule at
    KernelConfig.r_level ``level``); Gauss-Legendre panels in s = log(1 - r)
    on (1/2, 1 - w), the full panels of a fixed grid of ratio _GRADING in
    1 - r and one partial panel from 1 - w to the grid's first edge above it
    (none where w is an edge), _GRADED_POINTS nodes each; and _UPPER_POINTS
    Gauss-Legendre nodes on (1 - w, 1).  The lower segment and the full
    panels are copied from _graded_prefix, so only the partial panel and
    (1 - w, 1) are computed per phi.  Above 1/2 the nodes are placed by their
    distance 1 - r, so log(1/r) and 1 - r**2 keep their digits next to
    r = 1.  Returns the rules' nodes r and 1 - r, concatenated in the order
    of ``seps``, the node factor r**(lam-1) log(1/r)**(k-1) (1 - r**2) times
    the weight (the Christoffel weight already holds the first two below
    1/2), and each rule's node count."""
    full, edge = _full_panels(seps)
    partial = edge > seps
    heads = _lower_points(k, level) + _GRADED_POINTS * full
    counts = heads + _GRADED_POINTS * partial + _UPPER_POINTS
    # each phi's own nodes, in its order: the partial panel from w to the
    # edge in s (dropped where it is empty), then (1 - w, 1)
    gl_nodes, gl_weights = _gl_base(_GRADED_POINTS)
    up_nodes, up_weights = _gl_base(_UPPER_POINTS)
    w = seps[:, None]
    half = 0.5 * np.log(edge[:, None] / w)
    part = w * np.exp(half * (1.0 + gl_nodes))
    kept = np.arange(_GRADED_POINTS + _UPPER_POINTS) >= _GRADED_POINTS * ~partial[:, None]
    dist = np.concatenate([part, 0.5 * w * (1.0 - up_nodes)], axis=1)[kept]
    weights = np.concatenate([half * gl_weights * part, 0.5 * w * up_weights], axis=1)[kept]
    r, fac = _upper_factors(lam, k, dist, weights)
    # every phi's prefix copied to its offset, its own nodes after it
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    shared = offset < np.repeat(heads, counts)
    copied, own = offset[shared], ~shared
    rules = np.empty((3, offset.size))
    # row by row: numpy's 2-D masked assignment is slower than three 1-D ones
    for rule, cached, computed in zip(rules, _graded_prefix(lam, k, level, guard), (r, dist, fac)):
        rule[shared] = cached[copied]
        rule[own] = computed
    return (*rules, counts)


def _angle_array(name: str, angle) -> np.ndarray:
    """``angle`` as a 1-D float array, every entry inside (0, pi)."""
    angles = np.atleast_1d(np.asarray(angle, dtype=float))
    if angles.ndim != 1:
        raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {angles.shape}")
    outside = ~((angles > 0.0) & (angles < math.pi))
    if np.any(outside):
        raise ValueError(f"{name} must lie in (0, pi), got {angles[outside][0]}")
    return angles


def _angles(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """theta and phi of a kernel call as 1-D float arrays of one shape,
    paired entry by entry: a scalar theta is repeated once per phi, an array
    must have phi's shape.  Every angle inside (0, pi)."""
    phis = _angle_array("phi", phi)
    if np.ndim(theta) == 0:
        return np.full(phis.shape, _validate_angle("theta", theta)), phis
    thetas = _angle_array("theta", theta)
    if thetas.shape != np.shape(phi):
        raise ValueError(
            f"a theta array pairs with a phi array of its shape, got {thetas.shape} and {np.shape(phi)}"
        )
    return thetas, phis


def _separations(thetas: np.ndarray, phis: np.ndarray, min_separation: float) -> np.ndarray:
    """|theta - phi| of every pair, each off the diagonal guard; a refusal
    names its first offending pair."""
    sep = np.abs(thetas - phis)
    if np.any(sep < min_separation):
        # the first pair on the diagonal, else the first inside the guard
        bad = int(np.argmin(sep) if np.any(sep == 0.0) else np.argmax(sep < min_separation))
        pair = (float(thetas[bad]), float(phis[bad]))
        if sep[bad] == 0.0:
            raise ValueError(f"kernel is singular on the diagonal theta = phi, at (theta, phi) = {pair}")
        raise AccuracyError(
            f"|theta - phi| = {sep[bad]:.3e} at (theta, phi) = {pair} "
            f"is below the separation guard {min_separation:.1e}",
            estimate=math.nan,
            error_bound=math.inf,
        )
    return sep


def _pairs(ell: int) -> list[tuple[int, int]]:
    """(s, m) of every table column: each s of the order-ell layout, then
    m = 0..s (the layout's s are 0 alone for ell = 0, else 1..ell)."""
    return [(0, 0)] if ell == 0 else [(s, m) for s in range(1, ell + 1) for m in range(s + 1)]


def _panel_nodes(ell: int) -> int:
    """Interpolation nodes per panel for the order-ell table.

    A column is exp(-m v) times a function analytic on the strip
    |Im v| < pi, m <= ell.  On a panel of half-width h/2 the second factor's
    Chebyshev coefficients fall like rho**-n, rho = (pi + sqrt(pi**2 +
    h**2/4)) / (h/2) ~ 25 at h = 1/2 (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 8), and the first's like
    I_n(m h/2) ~ (m h/4)**n / n!; n is the first count at which both are
    below _PANEL_ERROR: 13 for ell <= 2, 16 for ell = 4, 22 for ell = 12."""
    half = 0.5 * _PANEL_WIDTH
    rho = (math.pi + math.hypot(math.pi, half)) / half
    n = 1
    while rho**-n > _PANEL_ERROR or (0.5 * ell * half) ** n / math.factorial(n) > _PANEL_ERROR:
        n += 1
    return n


#: the t-tables held, one per (lambda, ell, t_level) at the farthest reach
#: asked for so far, at most _T_TABLES of them, the least recently read
#: dropped first: an order-4 table at the default guard is ~90 KiB, an
#: order-12 one ~0.8 MiB, and the bound keeps fresh lambdas from growing the
#: store.  The Poisson kernel's are at ell 0, guard 1 - r
_T_TABLES = 32
_t_tables: OrderedDict = OrderedDict()
_t_tables_lock = threading.Lock()


def _t_panels(guard: float) -> int:
    """The t-table panels that reach v = log(1 + 1/sin(g/2)**2), g = guard:
    past every 2 z = 4 sigma r / Delta_r that a phi off the guard can meet,
    since Delta_r / r >= 4 sin(w/2)**2 and sigma <= 1."""
    half_gap = math.sin(0.5 * min(guard, math.pi))
    v_max = math.log1p(half_gap**2) - 2.0 * math.log(half_gap)
    return max(1, math.ceil(v_max / _PANEL_WIDTH))


def _reach_table(lam: float, ell: int, t_level: int, guard: float) -> tuple[np.ndarray, int]:
    """The held t-table of (lam, ell, t_level), whole, and the panels of it
    that ``guard`` reads (see _t_panels): panels sit at fixed v and every row
    is what it is in a table of any reach, so a nearer guard reads a prefix
    of a farther guard's table, bit for bit, with no copy.  A guard past the
    held reach builds its table (see _build_t_table), which is held in its
    place; a refusal leaves the held one serving.  Tables are built outside
    the lock, so concurrent callers may build one twice; the farther is held."""
    key, panels = (lam, ell, t_level), _t_panels(guard)
    with _t_tables_lock:
        table = _t_tables.get(key)
        if table is not None:
            _t_tables.move_to_end(key)
    if table is None or table.shape[1] < panels:
        table = _build_t_table(lam, ell, t_level, guard)
        with _t_tables_lock:
            held = _t_tables.get(key)
            if held is not None and held.shape[1] > table.shape[1]:
                table = held
            _t_tables[key] = table
            _t_tables.move_to_end(key)
            while len(_t_tables) > _T_TABLES:
                _t_tables.popitem(last=False)
    return table, panels


@_quiet_float_range
def _build_t_table(lam: float, ell: int, t_level: int, min_separation: float) -> np.ndarray:
    """Values, shape (pairs, panels, _panel_nodes(ell)), of
    (1 + 2 z)**lam Phi_{m,s}(z) at the first-kind Chebyshev points of each
    v-panel, times expm1(v)**(s - s0) = (2 z)**(s - s0) on every panel but
    the first, where

        Phi_{m,s}(z) = sum_t w_t (sin t)**(2 lam - 1) u_t**m (1 + z u_t)**-(lam + 1 + s),

    u = 1 - cos t, summed over the level-``t_level`` tanh-sinh rule on
    (0, pi), for the (s, m) of _pairs(ell), and s0 the lowest s there.  So
    kernel_partial reads one folded row per pair past v = _PANEL_WIDTH (see
    there); on the first panel the factor would magnify the interpolation
    error by (expm1(_PANEL_WIDTH) / expm1(v))**(s - s0), and it is left out.
    The panels reach min_separation (see _t_panels); a nearer guard only
    appends panels.  Raises AccuracyError for lam below _LAMBDA_FLOOR, and
    ValueError naming the least guard that keeps the table finite where the
    factor (2 z)**(s - s0) carries finite values past the float range."""
    if lam < _LAMBDA_FLOOR:
        message = f"lambda {lam} is below {_LAMBDA_FLOOR}, where the t-rule loses the mass at pi"
        raise AccuracyError(message, estimate=math.nan, error_bound=math.inf)
    t_nodes, t_weights = tanh_sinh_segment(0.0, math.pi, t_level)
    u = 2.0 * np.sin(0.5 * t_nodes) ** 2
    t_fac = np.sin(t_nodes) ** (2.0 * lam - 1.0) * t_weights
    pairs = _pairs(ell)
    u_pow = t_fac[:, None] * u[:, None] ** np.arange(pairs[-1][0] + 1)
    panels = _t_panels(min_separation)
    n = _panel_nodes(ell)
    points = _chebyshev(n)[0][:, 0]
    v = ((np.arange(panels)[:, None] + 0.5 * (points + 1.0)) * _PANEL_WIDTH).ravel()
    lift = np.expm1(v)
    z = 0.5 * lift
    # every chunk full, the last one padded with its final z: a row's product
    # then has one shape wherever the table ends, so each row is what it is in
    # a table of any reach
    z = np.concatenate([z, np.full(-v.size % _TABLE_CHUNK, z[-1])])
    values = np.empty((z.size, len(pairs)))
    for lo in range(0, z.size, _TABLE_CHUNK):
        rows = slice(lo, lo + _TABLE_CHUNK)
        # (1 + 2z)**lam (1 + z u)**-(lam+1+s) as ratio**lam inverse**(1+s):
        # powers of O(1)-conditioned bases, not exp of a large logarithm
        inverse = 1.0 / (1.0 + z[rows, None] * u)
        term = np.power((1.0 + 2.0 * z[rows, None]) * inverse, lam)
        for s in range(pairs[-1][0] + 1):
            term *= inverse
            if (s, 0) in pairs:
                col = pairs.index((s, 0))
                values[rows, col : col + s + 1] = term @ u_pow[:, : s + 1]
    # the rows past the first panel, times (2 z)**(s - s0) column by column
    lifted, grow = values[n : v.size], np.ones(v.size - n)
    finite = np.isfinite(lifted)
    for s in range(pairs[0][0] + 1, pairs[-1][0] + 1):
        grow *= lift[n:]
        col = pairs.index((s, 0))
        lifted[:, col : col + s + 1] *= grow[:, None]
    # a lambda that carries the plain values, or the second panel's, past
    # the float range is the kernels' to report (see _quiet_float_range):
    # every guard's table holds that panel.  Further out the overflow is the
    # guard's
    overflow = (finite & ~np.isfinite(lifted))[n:].any(axis=1)
    if overflow.any():
        # the first panel that overflows; a guard whose table ends before it,
        # with a quarter panel to spare, keeps every value finite
        panel = 2 + int(np.argmax(overflow)) // n
        least = 2.0 * math.asin(np.expm1((panel - 0.25) * _PANEL_WIDTH) ** -0.5)
        raise ValueError(
            f"min_separation {min_separation:.3g} carries the order-{ell} t-table past the float "
            f"range at lambda {lam}: it must be at least {least:.3g}"
        )
    table = np.ascontiguousarray(values[: v.size].T).reshape(len(pairs), panels, n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-kind Chebyshev points of a table panel and their second-kind
    barycentric weights, as read-only (n, 1) columns that every caller shares."""
    angles = math.pi * (np.arange(n) + 0.5) / n
    points, bary = np.cos(angles)[:, None], ((-1.0) ** np.arange(n) * np.sin(angles))[:, None]
    points.flags.writeable = bary.flags.writeable = False
    return points, bary


def _locate(v: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The table panel of each v of a 1-D array and v's local coordinate in
    [-1, 1] on it, as _lagrange takes them."""
    position = v * (1.0 / _PANEL_WIDTH)
    panel = np.minimum(position.astype(np.intp), panels - 1)
    return panel, 2.0 * (position - panel) - 1.0


def _lagrange(n: int, x: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """The barycentric weights, shape (n, x.size), that interpolate a table
    panel's n Chebyshev-point values at the local coordinates ``x`` (see
    _locate), each column divided by its sum and times its ``scale``.  An x
    exactly on a node makes that sum infinite, and such a column takes the
    node's value alone.  The weights are this thread's scratch (see
    _scratch), overwritten by its next call."""
    if x.size == 1:
        # numpy sums a lone column's n terms pairwise and a batch's in
        # order: weigh a lone x as a pair, so it gets a batch entry's rounding
        return _lagrange(n, np.repeat(x, 2), np.repeat(scale, 2))[:, :1]
    points, bary = _chebyshev(n)
    lagrange = np.subtract(x, points, out=_scratch("lagrange", n, x.size))
    np.divide(bary, lagrange, out=lagrange)
    weight_sum = lagrange.sum(axis=0, out=_scratch("weight_sum", x.size))
    hits = ~np.isfinite(weight_sum)
    lagrange *= np.divide(scale, weight_sum, out=weight_sum)
    if hits.any():
        lagrange[:, hits] = (points == x[hits]) * np.broadcast_to(scale, x.shape)[hits]
    return lagrange


def _interpolate(
    rows: np.ndarray, at: np.ndarray, x: np.ndarray, scale: float | np.ndarray = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Both kernels' barycentric read (Berrut and Trefethen, SIAM Rev. 46,
    2004): column at[v] of ``rows``, a panel's n Chebyshev-point values, at
    the local coordinate x[v] (see _locate), times scale[v], into ``out``
    (a contiguous 1-D array) or a new array.  np.einsum sums an entry's n
    terms in order, so it is the same in any batch.  The gathered columns
    are this thread's scratch."""
    n, width = rows.shape
    # np.take raises on a bad index only by buffering a copy of its output;
    # as unsigned, a negative index is past every width too
    if at.size and at.view(np.uintp).max() >= width:
        raise IndexError(f"a table read at columns {at.min()}..{at.max()} of {width}")
    gathered = np.take(rows, at, axis=1, out=_scratch("gathered", n, at.size), mode="clip")
    return np.einsum("iv,iv->v", gathered, _lagrange(n, x, scale), out=out)


def _check_finite(values: np.ndarray, thetas: np.ndarray, phis: np.ndarray, context: str) -> None:
    """Raise EvaluationError naming the first kernel value that is not
    finite and its pair, on one line."""
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        theta_bad, phi_bad = float(thetas[bad]), float(phis[bad])
        raise EvaluationError(
            f"kernel value {values[bad]} at phi = {phi_bad} is not finite ({context}, theta {theta_bad})"
        )


def _expansion(layout, ell: int, a0, a1, b0, b1) -> np.ndarray:
    """Coefficients of u**m in P_s(u) = sum over the order-s terms of
    coefficient * a**i * b**j, with a = a0 + a1 u and b = b0 + b1 u, a row per
    column of _pairs(ell), for every entry of the 1-D arrays a0 .. b1.
    Elementwise arithmetic only, so each entry is what it would be alone."""
    top = max(layout)
    a_pow, b_pow = [np.ones((1, a0.size))], [np.ones((1, b0.size))]
    for powers, c0, c1 in ((a_pow, a0, a1), (b_pow, b0, b1)):
        for _ in range(top):
            prev = powers[-1]
            nxt = np.zeros((prev.shape[0] + 1, prev.shape[1]))
            nxt[:-1] += prev * c0
            nxt[1:] += prev * c1
            powers.append(nxt)
    out = np.zeros((len(_pairs(ell)), a0.size))
    for s, terms in layout.items():
        col = _pairs(ell).index((s, 0))
        for coeff, i, j in terms:
            for m in range(i + 1):
                out[col + m : col + m + j + 1] += (coeff * a_pow[i][m : m + 1]) * b_pow[j]
    return out


def _blocks(ends: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of pairs summed at once, in order: pair i's
    nodes end at ends[i], the running count, and a run takes the most pairs
    whose nodes number at most _BLOCK_NODES, one pair at least."""
    bounds, start = [], 0
    while start < ends.size:
        before = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _BLOCK_NODES, side="right")))
        bounds.append((start, stop))
        start = stop
    return bounds


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x**0 .. x**(count - 1), one row each, by repeated multiplication."""
    out = np.ones((count, x.size))
    for j in range(1, count):
        np.multiply(out[j - 1], x, out=out[j])
    return out


@_quiet_float_range
def kernel_partial(
    lam: float,
    k: int,
    ell: int,
    theta: np.typing.ArrayLike,
    phi: np.typing.ArrayLike,
    *,
    config: KernelConfig | None = None,
) -> float | np.ndarray:
    """The order-(k, ell) kernel: ell theta-derivatives of the Poisson kernel
    under the order-k subordination integral.  ell = k gives the Riesz kernel.

    ``phi`` may be a scalar (returns a float) or a 1-D array (returns an
    array of the same length).  ``theta`` may be a 1-D array of the same
    length as ``phi``: each (theta_i, phi_i) is one pair, so one call
    evaluates a whole table of the kernel; a scalar theta is the paired call
    with theta repeated.  Every pair must clear the diagonal guard, lam
    below _LAMBDA_FLOOR raises AccuracyError, and a value that is not finite
    raises EvaluationError; each refusal names its first offending pair.

    The 2-D (r, t) sum is taken in two stages.  On the grid,
    D = Delta_r (1 + z u) with z = 2 sigma r / Delta_r and u = 1 - cos t, and
    P_s(t) is a polynomial in u of degree at most s, so every t-sum is a
    combination of the one-variable sums Phi_{m,s}(z) that _build_t_table
    tabulates once per (lambda, ell, t_level), out to the farthest
    min_separation asked for so far, whose first panels serve every nearer
    one (see _reach_table).  Each pair then expands its P_s in powers of u
    (coefficients p_{s,m}) and sums over the r-nodes alone:

        prefactor * sum_r r_fac sum_{s,m} p_{s,m} q**s Delta_r**-(lam+1) Phi_{m,s}(z_r),

    q = r / Delta_r, with Phi read off the table by barycentric interpolation
    in v = log(1 + 2 z) = log1p(4 sigma q).  Past the table's first panel its
    columns carry expm1(v)**(s - s0) = (4 sigma q)**(s - s0), s0 the lowest s,
    so there a node reads one row: its pair's p_{s,m} (4 sigma)**-(s - s0)
    folded over the columns.  A node on the first panel, where that factor
    would magnify the interpolation error, reads the plain values times its
    own p_{s,m} q**(s - s0).  Every pair's r-rule is built in one call (see
    _r_rules); the pairs are then taken in blocks of at most _BLOCK_NODES
    r-nodes, whose temporaries live in the thread's held scratch (see
    _scratch), and a block runs as arrays, with no loop over its pairs: the
    arithmetic of its r-nodes (Delta_r, the panel and local coordinate of v,
    the r-weights folded into the barycentric weights), the fold of the
    pairs with a node past the first panel (only those, so a pair near
    phi = 0 or pi, whose (4 sigma)**-1 may overflow, never folds), every
    node's row and its interpolation, and each pair's sum over its nodes.
    Every contraction is np.einsum's, not BLAS: an entry accumulates its own
    terms in a fixed order, whatever the shape around it, and the rest is
    elementwise.  So a batch gives its entries bit for bit as scalar
    calls would, whatever theta they pair with.
    """
    lam = validate_lambda(lam)
    config = config or DEFAULT_KERNEL_CONFIG
    k = _check_integer("order", k, 1)
    ell = _check_integer("derivative order", ell, 0, k)
    thetas, phis = _angles(theta, phi)
    seps = np.minimum(_separations(thetas, phis, config.min_separation), _FAR_SPLIT)

    layout = _term_layout(ell, lam)
    table, panels = _reach_table(lam, ell, config.t_level, config.min_separation)
    columns, held, n = table.shape
    # a view of the whole held table, each column's panels in one run, n
    # values each; the nodes read only the guard's panels
    by_panel = table.reshape(columns, held * n)
    pairs = _pairs(ell)
    # each column's power of q past the lowest order s0, and the orders s0 .. ell
    exponent = np.array([s for s, _ in pairs]) - pairs[0][0]
    orders = exponent[-1] + 1
    # the columns of order s0 + e are spans[e] .. spans[e + 1]
    spans = np.searchsorted(exponent, np.arange(orders + 1))
    prefactor = lam / (math.pi * math.gamma(k))
    sin_theta, cos_theta, sin_p = np.sin(thetas), np.cos(thetas), np.sin(phis)
    sigma = sin_theta * sin_p
    w = thetas - phis
    one_minus_cos_w = 2.0 * np.float_power(np.sin(0.5 * w), 2)
    sin_w = np.sin(w)
    # a column's coefficients for every pair in one piece
    coeffs = _expansion(layout, ell, 1.0 - one_minus_cos_w, -sigma, -sin_w, -cos_theta * sin_p)
    values = np.empty(phis.size)
    # every pair's r-rule in one call, its nodes concatenated pair by pair
    r_all, dist_all, fac_all, counts_all = _r_rules(lam, k, seps, config.r_level, config.min_separation)
    ends = np.cumsum(counts_all)
    for start, stop in _blocks(ends):
        block = slice(start, stop)
        # the block's r-nodes and their arithmetic
        nodes = slice(ends[start] - counts_all[start], ends[stop - 1])
        r, dist, r_fac, counts = r_all[nodes], dist_all[nodes], fac_all[nodes], counts_all[block]
        owner = np.repeat(np.arange(counts.size), counts)
        delta_r = dist * dist + 2.0 * r * np.repeat(one_minus_cos_w[block], counts)
        q = r / delta_r
        four_sigma = np.repeat(4.0 * sigma[block], counts)
        panel, x = _locate(np.log1p(four_sigma * q), panels)
        # r_fac q**s0 Delta_r**-(lam+1) (1 + 2z)**-lam, folded into the
        # interpolation weights; Delta_r (1 + 2z) = Delta_r + 4 sigma r stays
        # O(1) near the diagonal
        base = r_fac / delta_r * np.power(delta_r + four_sigma * r, -lam)
        if pairs[0][0]:
            base *= q
        near = panel == 0
        folds = np.bincount(owner[~near], minlength=counts.size) > 0
        reach = int(panel.max())
        # the rows the nodes read, n values each: every first-panel node's
        # own, then one per (folding pair, panel 1 .. reach).  The gathers'
        # indices are in range by construction
        first, folding = int(near.sum()), int(folds.sum())
        rows = _scratch("rows", n, first + folding * reach)
        own = np.take(coeffs[:, block], owner[near], axis=1, out=_scratch("own", columns, first), mode="clip")
        # times q**e on the columns of order s0 + e, q**e by repeated
        # multiplication as in _powers
        q_near = q[near]
        power = q_near.copy()
        for e in range(1, orders):
            own[spans[e] : spans[e + 1]] *= power
            power *= q_near
        np.einsum("cv,ci->iv", own, by_panel[:, :n], out=rows[:, :first])
        scaled = coeffs[:, block][:, folds] * _powers(1.0 / (4.0 * sigma[block][folds]), orders)[exponent]
        # pair-major, into a buffer of the layout einsum would allocate: an
        # output of other strides may take another inner loop, and another
        # rounding; the copy turns it node-major
        folded = _scratch("folded", folding, reach * n)
        np.einsum("cb,cx->bx", scaled, by_panel[:, n : (reach + 1) * n], out=folded)
        rows[:, first:] = folded.reshape(-1, n).T
        at = np.where(near, np.cumsum(near) - 1, first + (np.cumsum(folds) - 1)[owner] * reach + panel - 1)
        terms = _interpolate(rows, at, x, base, _scratch("terms", at.size))
        values[block] = prefactor * np.add.reduceat(terms, np.cumsum(counts) - counts)
    _check_finite(values, thetas, phis, f"lambda {lam}, k {k}")
    return float(values[0]) if np.ndim(phi) == 0 else values


def riesz_kernel(
    lam: float,
    k: int,
    theta: np.typing.ArrayLike,
    phi: np.typing.ArrayLike,
    *,
    config: KernelConfig | None = None,
) -> float | np.ndarray:
    """R_lambda^k(theta, phi), the order-k Riesz transform kernel; ``phi``
    may be a scalar or a 1-D array, and ``theta`` a scalar or a 1-D array
    paired with ``phi`` entry by entry, as in kernel_partial.

    Refuses |theta - phi| < RIESZ_MIN_SEPARATION: the truncated integrals
    never need values closer to the diagonal than the smallest truncation
    radius.
    """
    config = config or DEFAULT_KERNEL_CONFIG
    if config.min_separation < RIESZ_MIN_SEPARATION:
        config = replace(config, min_separation=RIESZ_MIN_SEPARATION)
    return kernel_partial(lam, k, k, theta, phi, config=config)


def _check_circle(k: int, w: float) -> None:
    """Refusals both circle kernels make: an order below 1, and
    0 < |w| < 1e-6, where the closed forms lose their digits to the pole at
    w = 0 (and w = 5e-324 would divide by zero)."""
    _check_integer("order", k, 1)
    if abs(w) < 1e-6:
        message = f"|w| = {abs(w):.2e} too close to the diagonal; h_limit_even gives H^k's even-order limit"
        raise AccuracyError(message, estimate=math.nan, error_bound=math.inf)


def circle_H(k: int, w: float) -> float:
    """H^k(w): the (k-1)-th w-derivative of the subordinated circle Poisson
    ratio, integrated in r, in closed form:
    -2 (-1)**((k-1)/2) (k-1)! log|2 sin(w/2)| for odd k and
    sgn(w) (-1)**(k/2) (k-1)! (pi - |w|) for even k."""
    w = float(w)
    if not -math.pi < w < math.pi or w == 0.0:
        raise ValueError(f"w must lie in (-pi, pi) away from 0, got {w}")
    _check_circle(k, w)
    if k % 2 == 1:
        return -2.0 * (-1) ** ((k - 1) // 2) * math.factorial(k - 1) * math.log(abs(2.0 * math.sin(0.5 * w)))
    return math.copysign(1.0, w) * (-1) ** (k // 2) * math.factorial(k - 1) * (math.pi - abs(w))


def circle_R(k: int, theta: float, phi: float) -> float:
    """R^k(theta, phi), the order-k circle Riesz kernel, a function of
    w = theta - phi alone.  R^k is the Fourier multiplier (i sgn n)**k, so
    its kernel is (-1)**((k+1)/2) cot(w/2) / (2 pi) for odd k (the conjugate
    function's) and the constant -(-1)**(k/2) / (2 pi) for even k, whose
    jump gamma_k is kernel_constants'."""
    w = float(theta) - float(phi)
    if not math.isfinite(w):
        raise ValueError(f"w = theta - phi must be finite, got {w}")
    if w == 0.0:
        raise ValueError("kernel is singular on the diagonal theta = phi")
    _check_circle(k, w)
    if k % 2 == 1:
        return (-1) ** ((k + 1) // 2) / (2.0 * math.pi * math.tan(0.5 * w))
    return -((-1) ** (k // 2)) / (2.0 * math.pi)


def m_k_estimate(k: int) -> float:
    """The diagonal constant M_k = lim_{w -> 0} sin(w) R^k(w) of the circle
    kernel: (-1)**((k+1)/2) / pi for odd k and 0 for even k, whatever the
    ultraspherical parameter."""
    _check_integer("order", k, 1)
    return (-1) ** ((k + 1) // 2) / math.pi if k % 2 == 1 else 0.0


def envelope_residual(
    lam: float,
    k: int,
    theta: np.typing.ArrayLike,
    phi: np.typing.ArrayLike,
    *,
    config: KernelConfig | None = None,
) -> float | np.ndarray:
    """|riesz_kernel - leading diagonal term| over the region's envelope,
    at (theta, phi) paired as in riesz_kernel.

    The leading term M_k / ((sin theta sin phi)**lam sin(theta - phi)) is
    subtracted only in the near-diagonal region A2 (it vanishes there for
    even k); A1 and A3 use the plain Hardy-type envelopes.
    """
    lam = validate_lambda(lam)
    region = region_classify(theta, phi)
    value = riesz_kernel(lam, k, theta, phi, config=config)
    return _envelope_ratio(lam, k, theta, phi, value, region)


def _envelope_ratio(
    lam: float, k: int, theta: np.typing.ArrayLike, phi: np.typing.ArrayLike,
    value: np.typing.ArrayLike, region: RegionLabel | np.ndarray,
) -> float | np.ndarray:
    """envelope_residual's arithmetic on already computed kernel values at
    the pairs (theta, phi), which lie in the regions ``region``."""
    thetas, phis = _angles(theta, phi)
    sin_theta, sin_phi, w = np.sin(thetas), np.sin(phis), thetas - phis
    region = np.broadcast_to(region, phis.shape)
    near = region == "A2"
    # A1 and A3 subtract nothing and widen nothing
    lead = np.zeros(phis.shape)
    lead[near] = m_k_estimate(k) / (np.float_power(sin_theta[near] * sin_phi[near], lam) * np.sin(w[near]))
    widen = np.where(near, 1.0 + np.sqrt(sin_phi / np.abs(w)), 1.0)
    envelope = np.float_power(np.where(region == "A3", sin_theta, sin_phi), -(2.0 * lam + 1.0)) * widen
    ratio = np.abs(value - lead) / envelope
    return float(ratio[0]) if np.ndim(phi) == 0 else ratio
