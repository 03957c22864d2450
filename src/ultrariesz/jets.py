"""Truncated jet arithmetic for scalar functions of one variable.

A jet of order ``k`` holds the plain derivative values ``f(x), f'(x), ...,
f^(k)(x)`` of a function at a point (not divided by factorials).  Sums,
products and compositions with the elementary functions needed by this
package propagate derivatives exactly through the Leibniz and chain rules,
so every closed-form derivative elsewhere in the library can be checked
against the same small engine.

Compositions are evaluated on factorial-normalized Taylor coefficients with
the classical power-series recurrences and converted back, which keeps the
update rules short and numerically tame for the orders used here (k <= 16).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["Jet"]


@lru_cache(maxsize=64)
def _binomials(n: int) -> np.ndarray:
    """Rows 0..n of Pascal's triangle as a dense float array."""
    table = np.zeros((n + 1, n + 1))
    table[:, 0] = 1.0
    for row in range(1, n + 1):
        table[row, 1:] = table[row - 1, 1:] + table[row - 1, :-1]
    return table


@lru_cache(maxsize=64)
def _factorials(n: int) -> np.ndarray:
    return np.array([math.factorial(i) for i in range(n + 1)], dtype=float)


def _to_taylor(derivs: np.ndarray) -> np.ndarray:
    return derivs / _factorials(len(derivs) - 1)


def _from_taylor(taylor: np.ndarray) -> np.ndarray:
    return taylor * _factorials(len(taylor) - 1)


def _taylor_sin_cos(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(u)
    s = np.zeros(n)
    c = np.zeros(n)
    s[0] = math.sin(u[0])
    c[0] = math.cos(u[0])
    for m in range(1, n):
        ks = np.arange(1, m + 1)
        s[m] = np.dot(ks * u[1 : m + 1], c[m - 1 :: -1][:m]) / m
        c[m] = -np.dot(ks * u[1 : m + 1], s[m - 1 :: -1][:m]) / m
    return s, c


def _taylor_pow(u: np.ndarray, alpha: float) -> np.ndarray:
    if u[0] <= 0.0:
        raise ValueError(f"power composition requires a positive value, got {u[0]}")
    n = len(u)
    v = np.zeros(n)
    # an extreme exponent overflows u[0] ** alpha; raise rather than return nan
    with np.errstate(over="raise", invalid="raise"):
        v[0] = u[0] ** alpha
        for m in range(1, n):
            acc = 0.0
            for k in range(1, m + 1):
                acc += alpha * k * u[k] * v[m - k]
            for k in range(1, m):
                acc -= k * v[k] * u[m - k]
            v[m] = acc / (m * u[0])
    return v


class Jet:
    """Value and first ``order`` derivatives of a scalar function at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("jet coefficients must be a nonempty 1-D sequence")
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    @classmethod
    def variable(cls, x: float, order: int) -> "Jet":
        """The identity map at x: derivatives (x, 1, 0, ..., 0)."""
        coeffs = np.zeros(order + 1)
        coeffs[0] = x
        if order >= 1:
            coeffs[1] = 1.0
        return cls(coeffs)

    @classmethod
    def constant(cls, c: float, order: int) -> "Jet":
        coeffs = np.zeros(order + 1)
        coeffs[0] = c
        return cls(coeffs)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}"
                )
            return other
        return Jet.constant(float(other), self.order)

    def __add__(self, other) -> "Jet":
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-self.coeffs)

    def __sub__(self, other) -> "Jet":
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.coeffs * float(other))
        other = self._coerce(other)
        n = self.order
        binom = _binomials(n)
        out = np.zeros(n + 1)
        for m in range(n + 1):
            out[m] = np.dot(
                binom[m, : m + 1] * self.coeffs[: m + 1], other.coeffs[m::-1]
            )
        return Jet(out)

    def __rmul__(self, other) -> "Jet":
        return Jet(self.coeffs * float(other))

    def __truediv__(self, other: float) -> "Jet":
        return Jet(self.coeffs / float(other))

    def sin(self) -> "Jet":
        s, _ = _taylor_sin_cos(_to_taylor(self.coeffs))
        return Jet(_from_taylor(s))

    def cos(self) -> "Jet":
        _, c = _taylor_sin_cos(_to_taylor(self.coeffs))
        return Jet(_from_taylor(c))

    def power(self, alpha: float) -> "Jet":
        """Jet of u(x)**alpha for real alpha; requires a positive value."""
        return Jet(_from_taylor(_taylor_pow(_to_taylor(self.coeffs), float(alpha))))

    def __repr__(self) -> str:
        return f"Jet({self.coeffs.tolist()})"
