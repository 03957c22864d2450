"""Poisson and Riesz kernels of the ultraspherical expansion, the circle
kernels they localize to, and the constants of the principal-value identity.

The Riesz kernel of order k is assembled from the derivative expansion of
the Poisson kernel: each admissible index (s, i, j) contributes a 2-D
integral over (r, t) in (0,1) x (0,pi).  The t integral is done innermost
with a fixed tanh-sinh rule (it carries the (sin t)**(2*lambda-1) endpoint
singularity), the r integral with tanh-sinh after splitting at
r = 1 - min(|theta - phi|, 1/2) to resolve the near-diagonal concentration.
The sum over s is taken in Horner form in q = r / D, and one call
evaluates a whole array of phi.  All grids are deterministic functions of
the configuration, so kernel values are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .faa_di_bruno import coefficients, pochhammer_factor
from .quadrature import AccuracyError, _least_squares_fit, singular_integrate, tanh_sinh_segment
from .special import validate_lambda

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


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature resolution for the 2-D kernel integrals.

    ``t_level`` / ``r_level`` are tanh-sinh refinement levels (the node count
    roughly doubles per level); ``min_separation`` is the smallest
    |theta - phi| accepted before an AccuracyError.  Target accuracy of the
    defaults is ~1e-8 relative; doubling both levels is the standard
    self-check.
    """

    t_level: int = 5
    r_level: int = 5
    min_separation: float = RIESZ_MIN_SEPARATION

    def doubled(self) -> "KernelConfig":
        return KernelConfig(
            t_level=self.t_level + 1,
            r_level=self.r_level + 1,
            min_separation=self.min_separation,
        )


DEFAULT_KERNEL_CONFIG = KernelConfig()


@dataclass(frozen=True)
class KernelConstants:
    """Jump constants of the principal-value identity at order k."""

    k: int
    gamma_k: float
    beta_k: float


def kernel_constants(k: int) -> KernelConstants:
    """gamma_k = 0 (k odd) or (-1)**(k/2) (k even); beta_k = 2 pi (k-1)! gamma_k."""
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    if k % 2 == 1:
        gamma = 0.0
    else:
        gamma = float((-1) ** (k // 2))
    return KernelConstants(k=k, gamma_k=gamma, beta_k=2.0 * math.pi * math.factorial(k - 1) * gamma)


def h_limit_even(k: int) -> float:
    """lim_{w -> 0+} H^k(w) = (-1)**(k/2) pi Gamma(k) for even k."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"limit exists only for even k >= 2, got {k}")
    return float((-1) ** (k // 2)) * math.pi * math.factorial(k - 1)


def _validate_angle(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < math.pi:
        raise ValueError(f"{name} must lie in (0, pi), got {value}")
    return value


def region_classify(theta: float, phi: float) -> RegionLabel:
    """Place (theta, phi) in the off-diagonal partition of (0, pi)^2.

    For theta <= pi/2 the wedge phi > 3*theta/2 is A1, phi < theta/2 is A3
    and the band between is A2; the right half of the square is classified
    through the symmetry (theta, phi) -> (pi - theta, pi - phi), which maps
    each region onto itself.
    """
    theta = _validate_angle("theta", theta)
    phi = _validate_angle("phi", phi)
    if theta > 0.5 * math.pi:
        theta, phi = math.pi - theta, math.pi - phi
    if phi > 1.5 * theta:
        return "A1"
    if phi < 0.5 * theta:
        return "A3"
    return "A2"


def poisson_kernel(lam: float, r: float, theta: float, phi: float, *, tol: float = 1e-10) -> float:
    """P_lambda(r, theta, phi), the ultraspherical Poisson kernel.

    Evaluates (lam/pi) (1 - r^2) times the t-integral of
    (sin t)**(2 lam - 1) / D_r**(lam + 1) by adaptive tanh-sinh quadrature
    (the integrand has endpoint singularities whenever lam < 1/2).
    """
    lam = validate_lambda(lam)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    theta = _validate_angle("theta", theta)
    phi = _validate_angle("phi", phi)
    sigma = math.sin(theta) * math.sin(phi)
    delta_r = (1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * (theta - phi)) ** 2
    exponent = 2.0 * lam - 1.0

    def integrand(t):
        one_minus_cos = 2.0 * np.sin(0.5 * t) ** 2
        d = delta_r + 2.0 * r * sigma * one_minus_cos
        return np.sin(t) ** exponent * d ** -(lam + 1.0)

    value = singular_integrate(integrand, 0.0, math.pi, tol=tol)
    return lam / math.pi * (1.0 - r * r) * value


@lru_cache(maxsize=None)
def _term_layout(ell: int, lam: float):
    """Per-s lists of (coefficient, i, j) with the Pochhammer factor folded in
    (the factor is exactly 1 at lam = 0, the circle case)."""
    if ell == 0:
        return {0: ((1.0, 0, 0),)}
    table = coefficients(ell)
    layout: dict[int, list[tuple[float, int, int]]] = {}
    for (s, i, j), coeff in sorted(table.entries.items()):
        layout.setdefault(s, []).append((float(coeff) * pochhammer_factor(lam, s), i, j))
    return {s: tuple(terms) for s, terms in layout.items()}


#: every phi with |theta - phi| >= _FAR_SPLIT shares the r-rule split at 1 - _FAR_SPLIT
_FAR_SPLIT = 0.5


def _r_rule(lam: float, k: int, split: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """r-nodes on (0, 1) split at ``split``, and the node factor
    r**(lam-1) log(1/r)**(k-1) (1 - r**2) times the weight."""
    r_lo, w_lo = tanh_sinh_segment(0.0, split, level)
    r_hi, w_hi = tanh_sinh_segment(split, 1.0, level)
    r = np.concatenate([r_lo, r_hi])
    r_weights = np.concatenate([w_lo, w_hi])
    log_inv_r = -np.log(r)
    return r, r ** (lam - 1.0) * log_inv_r ** (k - 1) * (1.0 - r * r) * r_weights


def _validate_phis(theta: float, phi, min_separation: float) -> np.ndarray:
    """phi as a 1-D float array, every entry off the diagonal guard."""
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    if phis.ndim != 1:
        raise ValueError(f"phi must be a scalar or a 1-D array, got shape {phis.shape}")
    outside = ~((phis > 0.0) & (phis < math.pi))
    if np.any(outside):
        raise ValueError(f"phi must lie in (0, pi), got {phis[outside][0]}")
    sep = np.abs(theta - phis)
    if np.any(sep == 0.0):
        raise ValueError("kernel is singular on the diagonal theta = phi")
    if np.any(sep < min_separation):
        raise AccuracyError(
            f"|theta - phi| = {sep.min():.3e} is below the separation guard "
            f"{min_separation:.1e}",
            estimate=math.nan,
            error_bound=math.inf,
        )
    return phis


def kernel_partial(
    lam: float,
    k: int,
    ell: int,
    theta: float,
    phi: float | np.ndarray,
    *,
    config: KernelConfig | None = None,
) -> float | np.ndarray:
    """The order-(k, ell) kernel: ell theta-derivatives of the Poisson kernel
    under the order-k subordination integral.  ell = k gives the Riesz kernel.

    ``phi`` may be a scalar (returns a float) or a 1-D array (returns an
    array of the same length); every entry must clear the diagonal guard.
    The t-rule, the r-rule for |theta - phi| >= 1/2 and the expansion
    coefficients are built once per call, and the (r, t) work buffers are
    reused across the entries of ``phi``.
    """
    lam = validate_lambda(lam)
    config = config or DEFAULT_KERNEL_CONFIG
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    if not 0 <= ell <= k:
        raise ValueError(f"derivative order must lie in [0, {k}], got {ell}")
    theta = _validate_angle("theta", theta)
    phis = _validate_phis(theta, phi, config.min_separation)

    t_nodes, t_weights = tanh_sinh_segment(0.0, math.pi, config.t_level)
    one_minus_cos_t = 2.0 * np.sin(0.5 * t_nodes) ** 2
    t_fac = np.sin(t_nodes) ** (2.0 * lam - 1.0) * t_weights
    layout = _term_layout(ell, lam)
    prefactor = lam / (math.pi * math.gamma(k))
    sin_theta, cos_theta = math.sin(theta), math.cos(theta)

    rules = {}
    for p in phis:
        split = 1.0 - min(abs(theta - p), _FAR_SPLIT)
        if split not in rules:
            rules[split] = _r_rule(lam, k, split, config.r_level)
    rows = max((r.size for r, _ in rules.values()), default=0)
    # one set of (r, t) buffers per call: calls may run concurrently
    d_buf = np.empty((rows, t_nodes.size))
    pow_buf = np.empty_like(d_buf)
    q_buf = np.empty_like(d_buf)

    values = np.empty(phis.size)
    for index, p in enumerate(phis):
        w = theta - p
        sigma = sin_theta * math.sin(p)
        one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2
        r, r_fac = rules[1.0 - min(abs(w), _FAR_SPLIT)]
        n = r.size
        delta_r = (1.0 - r) ** 2 + 2.0 * r * one_minus_cos_w
        d = d_buf[:n]
        d[...] = one_minus_cos_t
        d *= ((2.0 * sigma) * r)[:, None]
        d += delta_r[:, None]
        # d**-(lam+1) as exp(-(lam+1) log d): ~30% cheaper than np.power here
        power = np.log(d, out=pow_buf[:n])
        power *= -(lam + 1.0)
        np.exp(power, out=power)
        if ell > 0:
            # sum_s r**s P_s(t) d**-(lam+1+s) = d**-(lam+1) * sum_s P_s q**s
            # with q = r/d, summed by Horner's rule from s = ell down to 1
            a_t = (1.0 - one_minus_cos_w) - sigma * one_minus_cos_t
            b_t = -math.sin(w) - (cos_theta * math.sin(p)) * one_minus_cos_t
            q = np.divide(r[:, None], d, out=q_buf[:n])
            # d is spent: power and q hold all that is needed of it
            horner = np.multiply(q, _layout_poly(layout, ell, a_t, b_t)[None, :], out=d)
            for s in range(ell - 1, 0, -1):
                if s in layout:
                    horner += _layout_poly(layout, s, a_t, b_t)[None, :]
                horner *= q
            power *= horner
        values[index] = prefactor * float(r_fac @ power @ t_fac)
    return float(values[0]) if np.ndim(phi) == 0 else values


def _layout_poly(layout, s: int, a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """P_s(t) = sum over the order-s terms of coefficient * a**i * b**j."""
    poly = np.zeros_like(a_t)
    for coeff, i, j in layout.get(s, ()):
        poly += coeff * a_t**i * b_t**j
    return poly


def riesz_kernel(
    lam: float,
    k: int,
    theta: float,
    phi: float | np.ndarray,
    *,
    config: KernelConfig | None = None,
) -> float | np.ndarray:
    """R_lambda^k(theta, phi), the order-k Riesz transform kernel; ``phi``
    may be a scalar or a 1-D array, as in kernel_partial.

    Refuses |theta - phi| < RIESZ_MIN_SEPARATION: the truncated integrals
    never need values closer to the diagonal than the smallest truncation
    radius.
    """
    config = config or DEFAULT_KERNEL_CONFIG
    if config.min_separation < RIESZ_MIN_SEPARATION:
        config = KernelConfig(config.t_level, config.r_level, RIESZ_MIN_SEPARATION)
    return kernel_partial(lam, k, k, theta, phi, config=config)


def _circle_integrand_factory(k: int, w: float):
    """r-integrand of the circle kernels: the order-(k-1 or k) lam = 0
    expansion under the subordination integral, as a vectorized callable."""
    cos_w = math.cos(w)
    sin_w = math.sin(w)
    one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2

    def delta(r):
        return (1.0 - r) ** 2 + 2.0 * r * one_minus_cos_w

    def integrand_order(ell: int):
        layout = _term_layout(ell, 0.0)

        def f(r):
            r = np.asarray(r, dtype=float)
            d = delta(r)
            total = np.zeros_like(r)
            for s, terms in layout.items():
                poly = sum(c * cos_w**i * (-sin_w) ** j for c, i, j in terms)
                total += poly * r ** (s - 1) / d ** (s + 1)
            return (1.0 - r * r) * (-np.log(r)) ** (k - 1) * total

        return f

    return integrand_order


def circle_H(k: int, w: float, *, tol: float = 1e-10) -> float:
    """H^k(w): the (k-1)-th w-derivative of the subordinated circle Poisson
    ratio, integrated in r.  Near w = 0 use h_limit_even instead."""
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    w = float(w)
    if not -math.pi < w < math.pi or w == 0.0:
        raise ValueError(f"w must lie in (-pi, pi) away from 0, got {w}")
    if abs(w) < 1e-6:
        raise AccuracyError(
            f"|w| = {abs(w):.2e} too close to 0 for quadrature; "
            "use h_limit_even for the even-order limit",
            estimate=math.nan,
            error_bound=math.inf,
        )
    if k == 1:
        one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2

        def integrand(r):
            r = np.asarray(r, dtype=float)
            d = (1.0 - r) ** 2 + 2.0 * r * one_minus_cos_w
            # ((1-r^2)/Delta - 1)/r simplified to avoid the 0/0 at r -> 0
            return 2.0 * (math.cos(w) - r) / d

        return singular_integrate(integrand, 0.0, 1.0, tol=tol, rtol=1e-8)
    factory = _circle_integrand_factory(k, w)
    return singular_integrate(factory(k - 1), 0.0, 1.0, tol=tol, rtol=1e-8)


def circle_R(k: int, theta: float, phi: float, *, tol: float = 1e-10) -> float:
    """R^k(theta, phi) = the order-k circle Riesz kernel, a function of
    theta - phi alone."""
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    w = float(theta) - float(phi)
    if w == 0.0:
        raise ValueError("kernel is singular on the diagonal theta = phi")
    if abs(w) < 1e-6:
        raise AccuracyError(
            f"|theta - phi| = {abs(w):.2e} too close to the diagonal",
            estimate=math.nan,
            error_bound=math.inf,
        )
    factory = _circle_integrand_factory(k, w)
    value = singular_integrate(factory(k), 0.0, 1.0, tol=tol, rtol=1e-8)
    return value / (2.0 * math.pi * math.gamma(k))


@lru_cache(maxsize=None)
def m_k_estimate(lam: float, k: int, *, tol: float = 1e-3) -> float:
    """Estimate the diagonal constant M_k of the circle kernel.

    Evaluates sin(w) * R^k at w in {1e-2, 1e-3, 1e-4} and extrapolates with
    the model a + b*sqrt(w) (the kernel's error term is O(w**-1/2)).  The
    constant does not depend on the ultraspherical parameter, which is
    accepted for interface symmetry with the other kernel operations.
    """
    if k < 1:
        raise ValueError(f"order must be a positive integer, got {k}")
    ws = np.array([1e-2, 1e-3, 1e-4])
    phi = 1.0
    y = np.array([math.sin(w) * circle_R(k, phi + w, phi) for w in ws])
    coeffs, residual = _least_squares_fit(np.column_stack([np.ones_like(ws), np.sqrt(ws)]), y)
    if residual > tol:
        raise AccuracyError(
            f"sqrt-fit residual {residual:.2e} exceeds tolerance {tol:g} for M_{k}",
            estimate=float(coeffs[0]),
            error_bound=residual,
        )
    return float(coeffs[0])


def envelope_residual(
    lam: float,
    k: int,
    theta: float,
    phi: float,
    *,
    config: KernelConfig | None = None,
) -> float:
    """|riesz_kernel - leading diagonal term| over the region's envelope.

    The leading term M_k / ((sin theta sin phi)**lam sin(theta - phi)) is
    subtracted only in the near-diagonal region A2 (it vanishes there for
    even k); A1 and A3 use the plain Hardy-type envelopes.
    """
    lam = validate_lambda(lam)
    region = region_classify(theta, phi)
    value = riesz_kernel(lam, k, theta, phi, config=config)
    return _envelope_ratio(lam, k, theta, phi, value, region)


def _envelope_ratio(
    lam: float, k: int, theta: float, phi: float, value: float, region: RegionLabel
) -> float:
    """envelope_residual's arithmetic on an already computed kernel value
    at (theta, phi), which lies in ``region``."""
    sigma = math.sin(theta) * math.sin(phi)
    if region == "A2":
        m_k = 0.0 if k % 2 == 0 else m_k_estimate(lam, k)
        lead = m_k / (sigma**lam * math.sin(theta - phi))
        envelope = math.sin(phi) ** -(2.0 * lam + 1.0) * (
            1.0 + math.sqrt(math.sin(phi) / abs(theta - phi))
        )
    elif region == "A1":
        lead = 0.0
        envelope = math.sin(phi) ** -(2.0 * lam + 1.0)
    else:
        lead = 0.0
        envelope = math.sin(theta) ** -(2.0 * lam + 1.0)
    return abs(value - lead) / envelope
