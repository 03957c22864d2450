"""Ultraspherical (Gegenbauer) polynomials, their theta-derivatives, and
the Beta function.

Polynomials are generated by ``(1 - 2*t*w + w**2)**(-lam) = sum_k w**k P_k(t)``
and evaluated by the standard three-term recurrence, which is stable for the
degrees used here (n up to a few hundred).  Derivatives in the angular
variable come from running the same recurrence on derivative vectors: the
derivatives of cos(theta) are known in closed form (cos, -sin, -cos, sin,
...), and multiplying a derivative vector by them is the Leibniz rule, one
fixed lower-triangular matrix per (theta, order).  No symbolic
differentiation is done anywhere.

``_recurrence`` is the one body of the recurrence, and ``_rows`` its one
memo: the rows P_0 .. P_n at a point array, keyed by (lambda, the points),
and the theta-jets, keyed by (lambda, theta) and built at the order cap
MAX_ORDER, so that every lower order, 0 included, reads a column prefix of
one table (an order past the cap is built at that order, its own key).  A
lower degree reads a prefix of a kept table; a higher one reruns the
recurrence fresh and the longer table is kept, so every row is bit for bit
what a fresh run gives, whatever was asked before.  Kept tables are
read-only; gegenbauer_theta_jets returns a copy, and gegenbauer_eval does
not use the memo.  The memo keeps at most
_MEMO_TABLES tables, dropping the least recently read first, and at most
_MEMO_ENTRIES floats (2 MiB) in all, the bytes of a points key counted
with its table; a larger table, or one with a non-finite entry, is
computed and not kept.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from .jets import _binomials

__all__ = [
    "validate_lambda",
    "gegenbauer_eval",
    "gegenbauer_theta_jets",
    "norm_sq",
    "beta",
]

#: slack allowed on |x| <= 1 to absorb cos/arccos roundoff
_X_DOMAIN_SLACK = 1e-12

#: the package's cap on derivative orders (the kernels' k, the Faa di Bruno
#: tables), and the order every theta-jet table is built at
MAX_ORDER = 12


def validate_lambda(lam: float) -> float:
    """Check the ultraspherical parameter is a positive real and return it."""
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"ultraspherical parameter must be positive, got {lam}")
    return lam


def _validate_angle(name: str, value: float) -> float:
    """Check an angle lies in (0, pi) and return it as a float."""
    value = float(value)
    if not 0.0 < value < math.pi:
        raise ValueError(f"{name} must lie in (0, pi), got {value}")
    return value


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    x, y = float(x), float(y)
    if not all(math.isfinite(v) and v > 0.0 for v in (x, y)):
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _check_integer(name: str, value, least: int = 0, most: int | None = None) -> int:
    """value as an int; ValueError naming it unless it is an integer, a
    Python or numpy one but not a bool, in [least, most] (no upper bound
    when ``most`` is None)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if least <= value and (most is None or value <= most):
            return int(value)
    if most is not None:
        span = f"an integer in [{least}, {most}]"
    elif least == 1:
        span = "a positive integer"
    else:
        span = f"an integer of at least {least}"
    raise ValueError(f"{name} must be {span}, got {value!r}")


def _recurrence(n_max: int, lam: float, x, one, times=np.multiply):
    """Yield P_0(x), ..., P_{n_max}(x) by the three-term recurrence
    ``m*P_m = 2*(m+lam-1)*x*P_{m-1} - (m+2*lam-2)*P_{m-2}``.

    ``x`` is a float array and ``one`` the matching P_0, multiplied
    elementwise; or ``x`` is the Leibniz matrix of cos(theta),
    ``one`` the derivative vector (1, 0, ..., 0) and ``times`` matmul.
    """
    yield one
    if n_max < 1:
        return
    p_prev, p = one, times(2.0 * lam * x, one)
    yield p
    for m in range(2, n_max + 1):
        p, p_prev = (times(2.0 * (m + lam - 1.0) * x, p) - (m + 2.0 * lam - 2.0) * p_prev) / m, p
        yield p


#: the memo of recurrence tables (see _rows): at most _MEMO_TABLES tables and
#: _MEMO_ENTRIES floats (2 MiB) in all, like the package's other bounded caches
_MEMO_TABLES = 64
_MEMO_ENTRIES = 2**18
_memo: OrderedDict = OrderedDict()
_memo_floats = 0
_memo_lock = threading.Lock()


def _clear_memo() -> None:
    """Drop every kept table."""
    global _memo_floats
    with _memo_lock:
        _memo.clear()
        _memo_floats = 0


def _footprint(key: tuple, table: np.ndarray) -> int:
    """Floats a kept table holds: its own, and the points' bytes in its key."""
    return table.size + sum(len(part) // 8 for part in key if isinstance(part, bytes))


def _keep(key: tuple, table: np.ndarray) -> None:
    """Keep ``table`` under ``key``, unless a longer table is kept there, and
    drop the least recently read tables past the memo's bounds."""
    global _memo_floats
    with _memo_lock:
        held = _memo.pop(key, None)
        if held is not None:
            _memo_floats -= _footprint(key, held)
            if held.shape[0] > table.shape[0]:
                table = held
        _memo[key] = table
        _memo_floats += _footprint(key, table)
        while len(_memo) > _MEMO_TABLES or _memo_floats > _MEMO_ENTRIES:
            _memo_floats -= _footprint(*_memo.popitem(last=False))


def _kept(key: tuple, n_max: int) -> np.ndarray | None:
    """The first n_max + 1 rows of the table kept under ``key``, if it has
    that many; None otherwise."""
    with _memo_lock:
        table = _memo.get(key)
        if table is not None:
            _memo.move_to_end(key)
    return table[: n_max + 1] if table is not None and table.shape[0] > n_max else None


def _rows(key: tuple, n_max: int, lam: float, operands) -> np.ndarray:
    """The read-only rows P_0 .. P_{n_max} of the recurrence that
    ``operands()`` sets up, as (x, one, times) for _recurrence, kept under
    ``key``: a prefix of a kept table of as many rows or more, else one fresh
    run.  Tables are built outside the lock, so a concurrent caller may build
    one twice; the longer is kept."""
    table = _kept(key, n_max)
    if table is not None:
        return table
    table = np.array(list(_recurrence(n_max, lam, *operands())))
    table.flags.writeable = False
    # a non-finite table is not kept, so each call meets the recurrence's
    # overflow as a fresh run does (a warning, or the caller's errstate)
    if _footprint(key, table) <= _MEMO_ENTRIES and np.isfinite(table).all():
        _keep(key, table)
    return table


def _points_key(lam: float, x: np.ndarray) -> tuple:
    """The memo's key of the rows at a float array x."""
    return lam, x.shape, x.tobytes()


def _polynomial_rows(n_max: int, lam: float, x: np.ndarray) -> np.ndarray:
    """The read-only rows P_0(x) .. P_{n_max}(x), shape (n_max + 1, *x.shape),
    of a float array x, from the memo; for points that are read again, such
    as a rule's nodes."""
    return _rows(_points_key(lam, x), n_max, lam, lambda: (x, np.ones_like(x), np.multiply))


def _polynomial_rows_if_kept(n_max: int, lam: float, x: np.ndarray) -> np.ndarray:
    """The rows P_0(x) .. P_{n_max}(x), shape (n_max + 1, *x.shape): the
    memo's if it keeps them, else a fresh run of the recurrence that is not
    kept."""
    table = _kept(_points_key(lam, x), n_max)
    return np.array(list(_recurrence(n_max, lam, x, np.ones_like(x)))) if table is None else table


def gegenbauer_eval(n: int, lam: float, x):
    """Evaluate the degree-n ultraspherical polynomial at x (scalar or array)."""
    lam = validate_lambda(lam)
    n = _check_integer("polynomial degree", n)
    x_arr = np.asarray(x, dtype=float)
    # written so that a NaN argument fails it
    if not np.all(np.abs(x_arr) <= 1.0 + _X_DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    for p in _recurrence(n, lam, x_arr, np.ones_like(x_arr)):
        pass
    return p if x_arr.ndim else float(p)


def _cos_leibniz(theta: float, order: int) -> np.ndarray:
    """Matrix M with (M @ d)[m] = m-th theta-derivative of cos(theta) * g
    for d the derivatives of g: M[m, i] = C(m, i) * cos^(m-i)(theta)."""
    cos, sin = math.cos(theta), math.sin(theta)
    k = np.arange(order + 1)
    # zero binomials above the diagonal drop the wrapped-around indices
    return _binomials(order) * np.array([cos, -sin, -cos, sin])[np.subtract.outer(k, k) % 4]


def gegenbauer_theta_jets(n_max: int, lam: float, theta: float, order: int) -> np.ndarray:
    """Row n: P_n(cos(theta)) and its first ``order`` theta-derivatives, for
    n = 0..n_max; a copy of the first order + 1 columns of the memo's jets
    at the order cap, or at ``order`` past it, one matrix-vector product per
    degree of the recurrence.  Where the cap's table leaves the float range,
    the columns asked for are run alone, unkept, as the caller's float
    policy meets them."""
    lam = validate_lambda(lam)
    n_max = _check_integer("polynomial degree", n_max)
    theta = _validate_angle("theta", theta)
    order = _check_integer("derivative order", order)
    width = max(order, MAX_ORDER)
    key = (lam, theta, width)

    def operands(columns=width):
        one = np.zeros(columns + 1)
        one[0] = 1.0
        return _cos_leibniz(theta, columns), one, np.matmul

    # a kept table is finite
    table = _kept(key, n_max)
    if table is None:
        with np.errstate(over="ignore", invalid="ignore"):
            table = _rows(key, n_max, lam, operands)
        if not np.isfinite(table).all():
            # the higher columns may overflow first, and the matrix's zeros
            # turn them into NaN in the lower ones
            return np.array(list(_recurrence(n_max, lam, *operands(order))))
    return table[:, : order + 1].copy()


#: from this lambda on, _gamma_half_ratio sums its asymptotic series: the
#: series' first omitted term is below 1e-15 relative there, while the lgamma
#: difference loses ~1e-16 * lambda * log(lambda) to cancellation
_RATIO_SERIES_FROM = 30.0

#: coefficients of sqrt(lam) Gamma(lam + 1/2) / Gamma(lam + 1) in powers of
#: 1/lam, lowest first
_RATIO_SERIES = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304, 39325 / 33554432)


def _gamma_half_ratio(lam: float) -> float:
    """Gamma(lam + 1/2) / Gamma(lam + 1) for lam > 0.

    Below _RATIO_SERIES_FROM it is the exponential of an lgamma difference;
    from there on the asymptotic series lam**-1/2 (1 - 1/(8 lam) +
    1/(128 lam**2) + ...), which never forms lam + 1/2 and so keeps its
    digits where lam + 1/2 and lam + 1 round to lam."""
    lam = validate_lambda(lam)
    if lam < _RATIO_SERIES_FROM:
        return math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0))
    inverse, series = 1.0 / lam, 0.0
    for coefficient in reversed(_RATIO_SERIES):
        series = series * inverse + coefficient
    return series / math.sqrt(lam)


def norm_sq(n: int, lam: float) -> float:
    """Squared L2 norm of P_n(cos .) against (sin theta)**(2*lam) d(theta).

    The classical closed form ``pi * 2**(1-2*lam) * Gamma(n+2*lam) /
    (n! * (n+lam) * Gamma(lam)**2)`` becomes, through the duplication
    formula, the total mass sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1) times
    lam / (n + lam) times (2 lam)_n / n!, a product of n ratios; so
    ``norm_sq(0, lam)`` is quadrature.total_mass(lam), and large lam keeps
    its digits.  Raises OverflowError past the float range.  Cross-checked
    against quadrature in the acceptance suite so a transcription slip
    cannot hide.
    """
    lam = validate_lambda(lam)
    n = _check_integer("polynomial degree", n)
    return _norm_sqs(n, lam)[n]


def _norm_sqs(n_max: int, lam: float) -> list[float]:
    """norm_sq(n, lam) for n = 0..n_max from one running product, the total
    mass times (2 lam)_n / n!, each times lam / (n + lam)."""
    running = math.sqrt(math.pi) * _gamma_half_ratio(lam)
    values = []
    for n in range(n_max + 1):
        if n:
            running *= (2.0 * lam + (n - 1)) / n
        values.append(running * (lam / (n + lam)))
    if math.isinf(running):
        raise OverflowError(f"eigenfunction norms overflow at lambda {lam}, degree {n_max}")
    return values
