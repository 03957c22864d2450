"""Exact coefficients of the theta-derivative expansion of D_r**-(lam+1).

With a = cos(theta - phi) - sigma (1 - cos t), b = da/dtheta and
D_r = 1 - 2 r a + r**2, the l-th theta-derivative of D_r**-(lam+1) is a
finite sum of terms c * r**(i+j) * a**i * b**j * D_r**-(lam+1+s).  As
a' = b, b' = -a and D_r' = -2 r b, one theta-derivative sends the term at
(s, i, j) to i c at (s, i-1, j+1), -j c at (s, i+1, j-1) and
2 (lam+1+s) c at (s+1, i, j+1).  The table is built here by that step,
order by order; its entries are integers, kept exact (as Fractions in a
FaaTable).  An independent jet-based differentiator serves as the oracle.

The table is the lam = 0 one, whose D_r step carries 2 (1+s): a term at
s took the D_r steps at 0, ..., s-1, so at lam it carries the Pochhammer
factor (lam+1)_s / s! on top, which the paper's printed table lacks.
Only the corrected form is evaluated; the tests fail loudly if it ever
disagrees with the jet oracle, and check that the printed reading does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .jets import Jet, _from_taylor, _taylor_sin_cos, _to_taylor
from .special import MAX_ORDER, _check_integer, _validate_angle

__all__ = [
    "MAX_ORDER",
    "FaaTable",
    "KernelPoint",
    "coefficients",
    "pochhammer_factor",
    "jet_oracle",
    "expansion_eval",
    "sample_points",
]


@dataclass(frozen=True)
class FaaTable:
    """Coefficients of the order-``ell`` expansion, keyed by (s, i, j)."""

    ell: int
    entries: dict[tuple[int, int, int], Fraction]

    def support_ok(self) -> bool:
        """True iff every key satisfies s in [1, ell], j >= 2s - ell, i + j = s."""
        return all(
            1 <= s <= self.ell and j >= 2 * s - self.ell and i + j == s
            for (s, i, j) in self.entries
        )


@dataclass(frozen=True)
class KernelPoint:
    """A point (theta, phi, r, t) of the kernel integrand with its derived
    quantities."""

    theta: float
    phi: float
    r: float
    t: float

    def __post_init__(self):
        _validate_angle("theta", self.theta)
        _validate_angle("phi", self.phi)
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if not 0.0 <= self.t <= math.pi:
            raise ValueError(f"t must lie in [0, pi], got {self.t}")
        if abs(self.d_r - (1.0 - 2.0 * self.r * self.a + self.r**2)) > 1e-14 * max(1.0, self.d_r):
            raise ValueError("inconsistent point: D_r != 1 - 2 r a + r^2")

    @property
    def sigma(self) -> float:
        return math.sin(self.theta) * math.sin(self.phi)

    @property
    def a(self) -> float:
        return math.cos(self.theta - self.phi) - self.sigma * (1.0 - math.cos(self.t))

    @property
    def b(self) -> float:
        return -math.sin(self.theta - self.phi) - math.cos(self.theta) * math.sin(self.phi) * (
            1.0 - math.cos(self.t)
        )

    @property
    def delta_r(self) -> float:
        return (1.0 - self.r) ** 2 + 2.0 * self.r * (1.0 - math.cos(self.theta - self.phi))

    @property
    def d_r(self) -> float:
        return self.delta_r + 2.0 * self.r * self.sigma * (1.0 - math.cos(self.t))


@lru_cache(maxsize=None)
def _table(ell: int) -> dict[tuple[int, int, int], int]:
    """Order ell's lam = 0 entries, by one step from order ell - 1's."""
    if ell == 0:
        return {(0, 0, 0): 1}
    entries: dict[tuple[int, int, int], int] = {}
    for (s, i, j), c in _table(ell - 1).items():
        for key, factor in (((s, i - 1, j + 1), i), ((s, i + 1, j - 1), -j), ((s + 1, i, j + 1), 2 * (s + 1))):
            entries[key] = entries.get(key, 0) + factor * c
    return {key: entries[key] for key in sorted(entries) if entries[key]}


# typed: True and 2.0 hash as 1 and 2, and must reach the check, not their entries
@lru_cache(maxsize=None, typed=True)
def coefficients(ell: int) -> FaaTable:
    """Exact rational lam = 0 coefficient table for derivative order ``ell``."""
    ell = _check_integer("derivative order", ell, 1, MAX_ORDER)
    table = FaaTable(ell=ell, entries={key: Fraction(c) for key, c in _table(ell).items()})
    assert table.support_ok()
    return table


def pochhammer_factor(lam: float, s: int) -> float:
    """(lam+1)_s / s!, the per-term exponent correction; equals 1 at lam = 0."""
    s = _check_integer("s", s)
    if not math.isfinite(lam):
        raise ValueError(f"exponent parameter must be finite, got {lam}")
    value = 1.0
    for m in range(s):
        value *= (lam + 1.0 + m) / (m + 1.0)
    return value


# keyed by (ell, lambda): 64 entries hold orders 1..12 at five lambdas, and
# the bound keeps a caller drawing a fresh lambda per call from growing it
@lru_cache(maxsize=64)
def _term_layout(ell: int, lam: float):
    """Per-s lists of (coefficient, i, j) with the Pochhammer factor folded in
    (the factor is exactly 1 at lam = 0, the circle case): the table the
    Riesz kernel sums, and expansion_eval with it."""
    _check_integer("derivative order", ell, 0, MAX_ORDER)  # the kernel's cap on k
    layout: dict[int, list[tuple[float, int, int]]] = {}
    for (s, i, j), coeff in _table(ell).items():
        layout.setdefault(s, []).append((float(coeff) * pochhammer_factor(lam, s), i, j))
    return {s: tuple(terms) for s, terms in layout.items()}


def expansion_eval(ell: int, lam: float, point: KernelPoint) -> float:
    """Evaluate the finite expansion of the ell-th derivative of D_r**-(lam+1):
    each (s, i, j) term of the table times (lam+1)_s / s!, as _term_layout
    folds them (ell = 0 is D_r**-(lam+1) itself)."""
    ell = _check_integer("derivative order", ell, 0, MAX_ORDER)
    if not lam >= 0.0:
        raise ValueError(f"exponent parameter must be nonnegative, got {lam}")
    r, a, b, d = point.r, point.a, point.b, point.d_r
    value = 0.0
    for s, terms in _term_layout(ell, lam).items():
        for coeff, i, j in terms:
            value += coeff * r ** (i + j) * a**i * b**j * d ** -(lam + 1.0 + s)
    return value


def jet_oracle(ell: int, lam: float, point: KernelPoint) -> float:
    """ell-th theta-derivative of D_r**-(lam+1) by jet arithmetic alone."""
    ell = _check_integer("derivative order", ell)
    if not lam >= 0.0:
        raise ValueError(f"exponent parameter must be nonnegative, got {lam}")
    theta = _to_taylor(Jet.variable(point.theta, ell).coeffs)
    # the jets of sin and cos from one pass of their series recurrence
    sin, cos = (Jet(_from_taylor(series)) for series in _taylor_sin_cos(theta))
    a = cos * math.cos(point.phi) + sin * (math.sin(point.phi) * math.cos(point.t))
    d = 1.0 - 2.0 * point.r * a + point.r**2
    return float(d.power(-(lam + 1.0)).coeffs[ell])


def sample_points(count: int, seed: int = 1729) -> list[KernelPoint]:
    """Deterministic pseudo-random kernel points for checks and reports."""
    count = _check_integer("point count", count)
    # one draw of every (theta, phi, r, t) row: the same floats, in the same
    # order, as a scalar draw per coordinate
    low, high = [0.2, 0.2, 0.05, 0.0], [math.pi - 0.2, math.pi - 0.2, 0.95, math.pi]
    rows = np.random.default_rng(seed).uniform(low, high, size=(count, 4))
    return [KernelPoint(*row) for row in rows.tolist()]
