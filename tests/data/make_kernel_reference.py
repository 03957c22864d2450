"""Long-double reference values of the Riesz kernel next to the diagonal.

Writes kernel_reference.json beside this file: R^k_lambda(theta, phi) at
theta = 1.2 and the three phi of test_operator_node_values within 2.1e-4 of
it, for lambda 0.3 and 2.45 and k 1-4.  Each value is the kernel's double
integral summed on the kernel's own t-rule (the default level-``t_level``
tanh-sinh nodes and weights, taken as exact) with the r-integral converged,
and every cell computed and summed in long double:

- the Faa di Bruno coefficients times (lambda + 1)_s / s! in exact
  fractions, rounded once to long double;
- on (0, 1/2), r = x**(1/lambda) / 2, which takes r**(lambda - 1) into the
  weight 2**-lambda / lambda, and the level-9 tanh-sinh rule in x for the
  log(1/r)**(k-1) endpoint;
- on (1/2, 1), the distance d = 1 - r on panels that double from w/64 to 1/2
  and on (0, w/64), w = |theta - phi|, each with 40 Gauss-Legendre points
  Newton-refined in long double.

Sums with each cell rounded in double are off by up to 4e-11 at even k,
where the kernel cancels terms ~1e5 times itself; long double takes that to
~1e-14.  Platforms whose long double is the double format are refused.

Run by hand from the repository root (about 15 s on a 2-core x86-64 host):

    PYTHONPATH=src python tests/data/make_kernel_reference.py          # write
    PYTHONPATH=src python tests/data/make_kernel_reference.py --check  # compare

``--check`` recomputes every value and exits 1 if one differs from the
committed JSON by more than 1e-14 relative.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from ultrariesz.faa_di_bruno import coefficients
from ultrariesz.kernels import DEFAULT_KERNEL_CONFIG
from ultrariesz.quadrature import tanh_sinh_segment

OUTPUT = Path(__file__).with_name("kernel_reference.json")

THETA = 1.2
PHIS = (1.19998, 1.2000199999999999, 1.200201340375781)
ORDERS = [(lam, k) for lam in (0.3, 2.45) for k in (1, 2, 3, 4)]

#: the r-integral's rules: tanh-sinh level in x on (0, 1/2), Gauss-Legendre
#: points per panel on (1/2, 1), and the first panel's end as a fraction of w
X_LEVEL = 9
PANEL_POINTS = 40
FIRST_PANEL = 1.0 / 64.0

#: --check's tolerance, relative to each committed value
CHECK_RTOL = 1e-14

LD = np.longdouble
PI = np.arccos(LD(-1))


def _long(value: Fraction) -> np.longdouble:
    """An exact fraction rounded to long double, through 40 decimal digits."""
    with localcontext() as context:
        context.prec = 40
        return LD(str(Decimal(value.numerator) / Decimal(value.denominator)))


def _layout(lam: float, k: int) -> dict[int, list[tuple[np.longdouble, int, int]]]:
    """The order-k terms (coefficient, i, j) per s, each coefficient times
    (lam + 1)_s / s! in exact arithmetic, rounded once."""
    exact = Fraction(lam)
    layout: dict[int, list] = {}
    for (s, i, j), coeff in sorted(coefficients(k).entries.items()):
        for m in range(s):
            coeff *= (exact + 1 + m) / (m + 1)
        layout.setdefault(s, []).append((_long(coeff), i, j))
    return layout


def _tanh_sinh_unit(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-sinh nodes and weights on (0, 1) at step 2**-level, in long
    double; nodes that round onto 1 (weights below 1e-19) are dropped."""
    h = LD(2) ** -level
    steps = np.arange(-math.floor(4.8 * 2**level), math.floor(4.8 * 2**level) + 1)
    t = steps.astype(LD) * h
    u = PI / 2 * np.sinh(t)
    # half the distance to the nearer end of (-1, 1), without cancellation
    half_dist = 1 / (np.exp(2 * np.abs(u)) + 1)
    x = np.where(t < 0, half_dist, 1 - half_dist)
    weights = h * PI / 4 * np.cosh(t) / np.cosh(u) ** 2
    keep = (x > 0) & (x < 1)
    return x[keep], weights[keep]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (-1, 1) in long double: double
    nodes refined by Newton steps on P_n."""

    def legendre(x):
        # P_n(x) and P_n'(x) by the three-term recurrence
        prev, cur = np.ones_like(x), x.copy()
        for m in range(2, n + 1):
            prev, cur = cur, ((2 * m - 1) * x * cur - (m - 1) * prev) / m
        return cur, n * (x * cur - prev) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(LD)
    for _ in range(3):
        p, dp = legendre(x)
        x -= p / dp
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


def _r_rule(lam: float, k: int, w: np.longdouble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes r and 1 - r of the converged r-rule and its node factors
    r**(lam-1) log(1/r)**(k-1) (1 - r**2) times the weight."""
    lam_ld = LD(lam)
    x, x_weights = _tanh_sinh_unit(X_LEVEL)
    lower = np.exp(np.log(x) / lam_ld) / 2
    log_inv = np.log(LD(2)) - np.log(x) / lam_ld
    lower_fac = LD(2) ** -lam_ld / lam_ld * log_inv ** (k - 1) * (1 - lower * lower) * x_weights
    edges = [LD(0), w * LD(FIRST_PANEL)]
    while edges[-1] * 2 < LD(0.5):
        edges.append(edges[-1] * 2)
    edges.append(LD(0.5))
    gl_x, gl_w = _gauss_legendre(PANEL_POINTS)
    dist = np.concatenate([(lo + hi) / 2 + (hi - lo) / 2 * gl_x for lo, hi in zip(edges, edges[1:])])
    weights = np.concatenate([(hi - lo) / 2 * gl_w for lo, hi in zip(edges, edges[1:])])
    upper = 1 - dist
    upper_fac = upper ** (lam_ld - 1) * (-np.log1p(-dist)) ** (k - 1) * (dist * (1 + upper)) * weights
    return (np.concatenate([lower, upper]), np.concatenate([1 - lower, dist]),
            np.concatenate([lower_fac, upper_fac]))


def kernel_value(lam: float, k: int, theta: float, phi: float, t_level: int) -> np.longdouble:
    """R^k_lambda(theta, phi) on the level-``t_level`` t-rule with the
    r-integral converged, every cell in long double."""
    t, t_weights = (part.astype(LD) for part in tanh_sinh_segment(0.0, math.pi, t_level))
    u = 2 * np.sin(t / 2) ** 2
    lam_ld, theta_ld, phi_ld = LD(lam), LD(theta), LD(phi)
    t_fac = np.sin(t) ** (2 * lam_ld - 1) * t_weights
    w = theta_ld - phi_ld
    sigma = np.sin(theta_ld) * np.sin(phi_ld)
    one_minus_cos_w = 2 * np.sin(w / 2) ** 2
    a = (1 - one_minus_cos_w) - sigma * u
    b = -np.sin(w) - np.cos(theta_ld) * np.sin(phi_ld) * u
    polys = {s: sum(coeff * a**i * b**j for coeff, i, j in terms) for s, terms in _layout(lam, k).items()}
    r, one_minus_r, r_fac = _r_rule(lam, k, abs(w))
    total = LD(0)
    for lo in range(0, r.size, 256):
        rows = slice(lo, lo + 256)
        delta_r = one_minus_r[rows] ** 2 + 2 * r[rows] * one_minus_cos_w
        d = delta_r[:, None] + 2 * sigma * r[rows, None] * u
        q = r[rows, None] / d
        term = d ** -(lam_ld + 1)
        cells = np.zeros_like(d)
        for s in range(max(polys) + 1):
            if s in polys:
                cells += polys[s] * term
            term = term * q
        total += r_fac[rows] @ (cells @ t_fac)
    return lam_ld / (PI * math.factorial(k - 1)) * total


def reference(t_level: int) -> dict:
    """The JSON document: the points, the rules, and every value as a double."""
    return {
        "note": (
            "R^k_lambda(theta, phi) on the kernel's level-t_level tanh-sinh t-rule (nodes and weights "
            "taken as exact) with the r-integral converged, every cell in long double; written by "
            "make_kernel_reference.py"
        ),
        "t_level": t_level,
        "r_rule": {"x_level": X_LEVEL, "panel_points": PANEL_POINTS, "first_panel": FIRST_PANEL},
        "theta": THETA,
        "phi": list(PHIS),
        "values": [
            {"lambda": lam, "k": k, "values": [float(kernel_value(lam, k, THETA, phi, t_level)) for phi in PHIS]}
            for lam, k in ORDERS
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed JSON instead of writing it")
    args = parser.parse_args(argv)
    if np.finfo(LD).eps > 1e-18:
        print(f"long double here has eps {np.finfo(LD).eps:.1e}: too coarse for the reference", file=sys.stderr)
        return 2
    document = reference(DEFAULT_KERNEL_CONFIG.t_level)
    if not args.check:
        OUTPUT.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {OUTPUT}")
        return 0
    committed = json.loads(OUTPUT.read_text())
    worst = 0.0
    same_points = all(committed[key] == document[key] for key in ("t_level", "r_rule", "theta", "phi"))
    same_points &= [(e["lambda"], e["k"]) for e in committed["values"]] == ORDERS
    if same_points:
        for old, new in zip(committed["values"], document["values"]):
            for was, now in zip(old["values"], new["values"]):
                worst = max(worst, abs(now - was) / abs(was))
    ok = same_points and worst <= CHECK_RTOL
    print(f"kernel reference {'matches' if ok else 'DIFFERS'}: points {'equal' if same_points else 'differ'}, "
          f"worst relative change {worst:.1e} (tolerance {CHECK_RTOL:.0e})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
