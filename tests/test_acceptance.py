"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so `pytest -s tests/test_acceptance.py`
doubles as the sign-off report.  Criterion 1 sweeps the full parameter grid
and takes a few minutes; everything else runs in seconds.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ultrariesz import (
    AccuracyError,
    DyadicBands,
    SpectralCoefficients,
    TruncationOperator,
    TruncationSchedule,
    band_limited,
    beta,
    build_rule,
    circle_H,
    envelope_residual,
    fractional_power,
    gegenbauer_eval,
    gegenbauer_theta_jets,
    h_limit_even,
    integrate,
    jet_oracle,
    kernel_constants,
    m_k_estimate,
    norm_sq,
    oscillation,
    poisson_coefficients,
    poisson_kernel,
    poisson_spectral,
    poisson_via_kernel,
    rho_variation,
    riesz_kernel,
    riesz_pv,
    riesz_spectral,
    singular_integrate,
    synthesize,
)
from ultrariesz import transforms
from ultrariesz.faa_di_bruno import coefficients, expansion_eval, sample_points
from ultrariesz.kernels import DEFAULT_KERNEL_CONFIG
from ultrariesz.variation import TruncationTrace, convergence_report


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


LAMBDAS = (0.3, 0.5, 1.0, 2.5)
ORDERS = (1, 2, 3, 4)
THETAS = (0.7, math.pi / 2, 2.2)
FAMILY = {
    "e0": [1.0],
    "e1": [0.0, 1.0],
    "e2+0.5e4": [0.0, 0.0, 1.0, 0.0, 0.5],
}


#: criterion 1's PV values as recorded: a change that means to keep the
#: numbers keeps every one within 1e-12 (1 + |value|) of these
RECORDED = Path(__file__).parent / "data" / "criterion1.json"


def test_criterion_1_pv_spectral_identity():
    """The defining identity between the two Riesz routes, full sweep."""
    schedule = TruncationSchedule.geometric()
    recorded = {
        (lam, k, theta, name): value
        for lam, k, theta, name, value in json.loads(RECORDED.read_text())["values"]
    }
    worst = 0.0
    worst_case = None
    jump_failures = []
    drift = 0.0
    drift_case = None
    seen = set()
    for lam in LAMBDAS:
        rule = build_rule(lam, 64)
        for k in ORDERS:
            gamma = kernel_constants(k).gamma_k
            for theta in THETAS:
                operator = TruncationOperator(lam, k, theta, schedule.epsilons)
                for name, coeff_vec in FAMILY.items():
                    coeffs = SpectralCoefficients(lam, coeff_vec)
                    f = band_limited(coeffs)
                    spectral = riesz_spectral(f, lam, k, theta, 12, rule)
                    result = riesz_pv(f, lam, k, theta, schedule, operator=operator)
                    rel = abs(result.value - spectral) / (1.0 + abs(spectral))
                    if rel > worst:
                        worst, worst_case = rel, (lam, k, theta, name)
                    key = (lam, k, theta, name)
                    seen.add(key)
                    moved = abs(result.value - recorded[key]) / (1.0 + abs(recorded[key]))
                    if moved >= drift:
                        drift, drift_case = moved, key
                    # the paper's representation, read off the smallest
                    # truncation of f itself: T f + gamma_k f(theta) holds
                    # the identity, and for even k dropping gamma_k breaks
                    # it by |f(theta)|
                    f_theta = f(theta)
                    bound = 0.02 * (1.0 + abs(f_theta))
                    miss = abs(result.truncated[-1] - spectral)
                    if abs(result.truncated[-1] + gamma * f_theta - spectral) > bound or (
                        k % 2 == 0 and abs(miss - abs(f_theta)) > bound
                    ):
                        jump_failures.append((lam, k, theta, name))
    # 1e-3 is the criterion as stated; 2e-9 holds the singularity-subtracted
    # route to its measured floor (1.1e-9)
    report(
        1,
        worst <= 1e-3 and worst <= 2e-9 and not jump_failures and drift <= 1e-12 and seen == set(recorded),
        f"max |pv - spectral| / (1 + |spectral|) = {worst:.3e} at {worst_case} "
        f"(tolerances 1e-3 and 2e-9); jump-constant sanity failures: {len(jump_failures)}; "
        f"max |pv - recorded| / (1 + |recorded|) = {drift:.1e} at {drift_case} "
        f"over {len(seen)} of {len(recorded)} recorded values (tolerance 1e-12)",
    )


def test_criterion_1_every_order():
    """The identity past the sweep's k 1-4: the paper's "every k" at orders
    5-12, on a degree-5 function."""
    coeffs = [0.3, -0.5, 1.0, 0.0, 0.5, 0.25]
    worst, worst_case = 0.0, None
    for lam in (0.5, 1.0, 2.5):
        rule = build_rule(lam, 64)
        f = band_limited(SpectralCoefficients(lam, coeffs))
        for k in (5, 6, 8, 12):
            for theta in (0.8, 2.3):
                spectral = riesz_spectral(f, lam, k, theta, 12, rule)
                rel = abs(riesz_pv(f, lam, k, theta).value - spectral) / (1.0 + abs(spectral))
                if rel > worst:
                    worst, worst_case = rel, (lam, k, theta)
    report(
        "1 (k 5-12)",
        worst <= 1e-8,
        f"max |pv - spectral| / (1 + |spectral|) = {worst:.3e} at {worst_case} (tolerance 1e-8)",
    )


def poisson_peak(lam, s, theta0):
    """The coefficients of f_s = e^(-s lambda) P_lambda(e^(-s), theta0, .),
    the Poisson-smoothed point mass at theta0: a_n = e^(-s (n + lambda))
    phi_n(theta0), through the degree where e^(-s n) falls below 1e-17."""
    n_max = math.ceil(40.0 / s)
    phi_n = gegenbauer_theta_jets(n_max, lam, theta0, 0)[:, 0] / transforms._norms(lam, n_max)
    return SpectralCoefficients(lam, np.exp(-s * (np.arange(n_max + 1) + lam)) * phi_n)


def _phi_errors(operator, references, f):
    """The summed error of the panels past the largest radius (row 0) and of
    the bands between radii (row 1) for f and for riesz_pv's g = f - a - b
    cos (columns), over each panel's halves if it split, against the
    40-point copies of the panels as built in ``references``."""
    theta, h = operator.theta, operator._step
    a, b = transforms._matched_line(*f(np.array([theta - h, theta, theta + h])), theta, h)
    errors = np.zeros((2, 2))
    for built in references:
        parts = [p for p in operator._pieces if built.lo <= p.lo and p.hi <= built.hi]
        for column, v in enumerate((f, lambda x: f(x) - a - b * np.cos(x))):
            total = sum(np.dot(p.weights * p.density, v(p.nodes)) for p in parts)
            errors[int(built.index > 0), column] += abs(total - np.dot(built.weights * built.density, v(built.nodes)))
    return errors


def test_criterion_11_peaked_functions():
    """The PV route resolves f, not only the kernel: peaked f_s, s 0.5 to
    0.05, at theta0 - theta 0.15 and 0.6, over criterion 1's (lambda, k).
    Each value lands within 1e-9 of the exact multiplier value, or is
    refused with AccuracyError.  f_s with s 0.05 and 0.02 at theta0 - theta
    0.02 and 0.05 peak inside the bands between radii; there the bands'
    error for g must stay within 1e-11 and for f within 1e-10 (the panels'
    kernel sizing, 1e-11 per panel, times f(theta) up to ~14), and their
    values are reported, not gated: at lambda 0.3 they miss by up to 2.2e-8
    with the bands sized for 1e-18 as well.  Wherever the panels stop, the
    operator's estimate covers their error for f and for g.  13 radii: at 9,
    the tail of g alone misses by up to 3.3e-9 at theta0 - theta 0.15
    (PVResult.residual says so), and the phi rule is what this criterion
    measures."""
    theta = 1.1
    schedule = TruncationSchedule.geometric(0.05, 0.5, 13)
    cases = [(s, gap, True) for s, gap in itertools.product((0.5, 0.2, 0.1, 0.05), (0.15, 0.6))]
    cases += [(s, gap, False) for s, gap in itertools.product((0.05, 0.02), (0.02, 0.05))]
    worst, worst_case, inside, inside_case = 0.0, None, 0.0, None
    band_worst = np.zeros(2)
    uncovered, refused, depth = [], [], 0
    for lam in LAMBDAS:
        for k in ORDERS:
            operator = TruncationOperator(lam, k, theta, schedule.epsilons)
            references = [transforms._Piece(p.lo, p.hi, p.index, 40, lam, p.end) for p in operator._pieces]
            # one kernel call for every reference node
            operator._fill(references)
            for s, gap, gated in cases:
                c = poisson_peak(lam, s, theta + gap)
                r = math.exp(-s)
                f = lambda x, r=r, theta0=theta + gap: r**lam * poisson_kernel(lam, r, theta0, x)  # noqa: E731
                exact = synthesize(fractional_power(c, 0.5 * k), theta, k)
                try:
                    error = abs(riesz_pv(f, lam, k, theta, operator=operator).value - exact)
                except AccuracyError:
                    refused.append((lam, k, s, gap))
                    error = 0.0
                if gated and error > worst:
                    worst, worst_case = error, (lam, k, s, gap)
                if not gated and error > inside:
                    inside, inside_case = error, (lam, k, s, gap)
                errors = _phi_errors(operator, references, f)
                if not gated:
                    band_worst = np.maximum(band_worst, errors[1])
                if np.any(errors.sum(axis=0) > operator.band_estimate):
                    uncovered.append((lam, k, s, gap))
            depth = max(depth, *(p.depth for p in operator._pieces))
    report(
        11,
        worst <= 1e-9 and not uncovered and band_worst[0] <= 1e-10 and band_worst[1] <= 1e-11,
        f"max |pv - exact| = {worst:.2e} at {worst_case} (tolerance 1e-9); peaks inside the bands: "
        f"max |pv - exact| = {inside:.2e} at {inside_case} (not gated), band errors of f and g "
        f"{band_worst[0]:.1e} and {band_worst[1]:.1e} (tolerances 1e-10 and 1e-11); estimates short "
        f"of their error: {uncovered}; refused: {len(refused)}; deepest halving {depth}",
    )


def test_criterion_2_circle_limits():
    """Even-order limits of H^k and decay of w H^k for odd k."""
    worst_rel = 0.0
    for k in (2, 4, 6):
        limit = h_limit_even(k)
        numeric = circle_H(k, 1e-3)
        worst_rel = max(worst_rel, abs(numeric - limit) / abs(limit))
    decays = {}
    for k in (1, 3, 5):
        big = abs(1e-2 * circle_H(k, 1e-2))
        small = abs(1e-3 * circle_H(k, 1e-3))
        decays[k] = big / small
    report(
        2,
        worst_rel <= 1e-2 and all(ratio >= 5.0 for ratio in decays.values()),
        f"even-k limit residual {worst_rel:.2e} (tol 1e-2); "
        f"odd-k decay factors {dict((k, round(v, 2)) for k, v in decays.items())} (need >= 5)",
    )


def test_criterion_3_faa_di_bruno_oracle():
    """Derivative-expansion tables against the independent jet oracle."""
    points = sample_points(50)
    worst = 0.0
    for lam in (0.0, 0.5, 1.0, 2.5):
        for ell in range(1, 7):
            for point in points:
                oracle = jet_oracle(ell, lam, point)
                value = expansion_eval(ell, lam, point)
                worst = max(worst, abs(value - oracle) / max(abs(oracle), 1e-300))
    table_1 = {key: int(value) for key, value in coefficients(1).entries.items()}
    table_2 = {key: int(value) for key, value in coefficients(2).entries.items()}
    tables_ok = table_1 == {(1, 0, 1): 2} and table_2 == {(1, 1, 0): -2, (2, 0, 2): 8}
    report(
        3,
        worst <= 1e-10 and tables_ok,
        f"corrected expansion vs jet oracle: worst rel {worst:.3e} (tol 1e-10); "
        f"hand tables exact: {tables_ok}",
    )


def test_criterion_4_diagonal_constants():
    """Circle-kernel diagonal constants from the extrapolated slope."""
    m1 = m_k_estimate(1)
    m2 = m_k_estimate(2)
    m4 = m_k_estimate(4)
    ok = (
        abs(m1 - (-1.0 / math.pi)) <= 1e-3
        and abs(m2) <= 1e-3
        and abs(m4) <= 1e-3
    )
    report(
        4,
        ok,
        f"M_1 = {m1:.6f} (expect {-1/math.pi:.6f}), M_2 = {m2:.1e}, M_4 = {m4:.1e} "
        "(tolerance 1e-3)",
    )


def test_criterion_5_kernel_structure():
    """Reflection parity and region envelopes of the Riesz kernel."""
    rng = np.random.default_rng(42)
    worst_parity = 0.0
    checked = 0
    while checked < 50:
        lam = float(rng.choice(LAMBDAS))
        k = int(rng.integers(1, 5))
        theta = float(rng.uniform(0.15, math.pi - 0.15))
        phi = float(rng.uniform(0.15, math.pi - 0.15))
        if abs(theta - phi) < 0.02:
            continue
        value = riesz_kernel(lam, k, theta, phi)
        mirror = riesz_kernel(lam, k, math.pi - theta, math.pi - phi)
        worst_parity = max(worst_parity, abs(value - (-1) ** k * mirror) / abs(value))
        checked += 1

    from ultrariesz import region_classify

    grid = np.linspace(0.15, math.pi - 0.15, 20)
    stable = True
    constants = {}
    for lam, k in ((0.5, 1), (0.5, 2)):
        per_region = {"A1": [], "A2": [], "A3": []}
        per_region_doubled = {"A1": [], "A2": [], "A3": []}
        doubled = DEFAULT_KERNEL_CONFIG.doubled()
        for theta, phi in itertools.product(grid, grid):
            if abs(theta - phi) < 1e-3:
                continue
            region = region_classify(float(theta), float(phi))
            per_region[region].append(envelope_residual(lam, k, float(theta), float(phi)))
            per_region_doubled[region].append(
                envelope_residual(lam, k, float(theta), float(phi), config=doubled)
            )
        for region in ("A1", "A2", "A3"):
            base = max(per_region[region])
            refined = max(per_region_doubled[region])
            constants[(lam, k, region)] = base
            if not (math.isfinite(base) and math.isfinite(refined)):
                stable = False
            elif not (0.5 <= refined / base <= 2.0):
                stable = False
    summary = {f"{k}-{r}": round(v, 3) for (lam, k, r), v in constants.items()}
    report(
        5,
        worst_parity <= 1e-8 and stable,
        f"parity worst rel {worst_parity:.2e} (tol 1e-8); envelope constants finite and "
        f"stable under quadrature doubling: {stable} ({summary})",
    )


def test_criterion_6_poisson_consistency():
    """Spectral vs kernel Poisson, kernel mass, semigroup law."""
    worst_two_sided = 0.0
    for lam in (0.5, 1.0):
        rule = build_rule(lam, 128)
        coeffs = SpectralCoefficients(lam, [0.2, 0.0, 1.0, 0.0, 0.5])
        f = band_limited(coeffs)
        for t in (0.1, 1.0):
            for theta in THETAS:
                spectral = poisson_spectral(coeffs, t, theta)
                kernel = poisson_via_kernel(f, lam, t, theta, rule)
                worst_two_sided = max(worst_two_sided, abs(spectral - kernel))
    worst_mass = 0.0
    for lam in (0.5, 1.0):
        rule = build_rule(lam, 128)
        for r in (0.1, 0.5, 0.9):
            kernel_vals = poisson_kernel(lam, r, 1.0, rule.nodes)
            worst_mass = max(worst_mass, abs(float(np.dot(rule.weights, kernel_vals)) - 1.0))
    c = SpectralCoefficients(1.0, [0.5, -0.2, 0.8, 0.0, 0.1])
    one_step = poisson_coefficients(c, 0.7).coeffs
    two_step = poisson_coefficients(poisson_coefficients(c, 0.3), 0.4).coeffs
    semigroup = float(np.max(np.abs(one_step - two_step)))
    report(
        6,
        worst_two_sided <= 1e-6 and worst_mass <= 1e-8 and semigroup <= 1e-12,
        f"two-sided error {worst_two_sided:.2e} (tol 1e-6); mass error {worst_mass:.2e} "
        f"(tol 1e-8); semigroup coefficient error {semigroup:.2e} (tol 1e-12)",
    )


def test_criterion_7_variation_machinery():
    """Exact finite-grid variation plus stability of the empirical norms."""
    rng = np.random.default_rng(123)
    exact = True
    for n in range(2, 13):
        for _ in range(10):
            values = rng.normal(size=n)
            eps = 1.0 * 0.5 ** np.arange(n)
            trace = TruncationTrace(epsilons=eps, values=values, theta=1.0)
            rho = 3.0
            dp = rho_variation(trace, rho)
            # enumerate every subsequence; the difference powers are computed
            # with the same vectorized op the DP uses, on the differences over
            # the largest one, so that agreement is bit-exact (addition and
            # max carry no implementation variance)
            scale = float(np.ptp(values))
            steps = [(np.abs(values[i] - values[:i]) / scale) ** rho for i in range(n)]
            best = 0.0
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(n), size):
                    total = 0.0
                    for a, b in zip(subset, subset[1:]):
                        total += steps[b][a]
                    best = max(best, total)
            if dp != scale * float(best) ** (1.0 / rho):
                exact = False

    hand = TruncationTrace(
        epsilons=np.array([0.9, 0.6, 0.4, 0.3]),
        values=np.array([0.0, 1.0, 0.0, 1.0]),
        theta=1.0,
    )
    bands = DyadicBands(np.array([1.0, 0.5, 0.25]))
    hand_ok = oscillation(hand, bands) == pytest.approx(math.sqrt(2.0)) and rho_variation(
        TruncationTrace(
            epsilons=np.array([0.4, 0.2, 0.1]), values=np.array([0.0, 1.0, 0.0]), theta=1.0
        ),
        3.0,
    ) == pytest.approx(2.0 ** (1 / 3))

    # boundedness shadow: norm ratios stable under epsilon-grid refinement.
    # The fixed band sequence must be coarser than the 8-point grid spacing
    # (factor ~3) or every band holds fewer than two radii and the
    # oscillation degenerates to zero, so bands shrink by 32 per step.
    lam, k, rho = 1.0, 1, 3.0
    rule = build_rule(lam, 48)
    thetas = np.linspace(0.5, math.pi - 0.5, 6)
    coeffs = SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5])
    bands = DyadicBands(0.5 * 32.0 ** -np.arange(3))
    eps_lo, eps_hi = 2.44e-4, 0.5
    ratios = {}
    for count in (8, 16):
        ratio = (eps_lo / eps_hi) ** (1.0 / (count - 1))
        schedule = TruncationSchedule(eps_hi * ratio ** np.arange(count))
        rep = convergence_report(
            coeffs, lam, k, thetas, schedule, bands, rho, rule, n_max=10
        )
        ratios[count] = {
            name: rep.norms["p2"][name] / rep.norms["p2"]["f"]
            for name in ("oscillation", "variation")
        }
    drift = {
        name: ratios[16][name] / ratios[8][name] for name in ("oscillation", "variation")
    }
    stable = all(0.5 <= value <= 2.0 for value in drift.values())
    report(
        7,
        exact and hand_ok and stable,
        f"DP == brute force exhaustively: {exact}; hand cases: {hand_ok}; "
        f"L2 norm-ratio drift under 8->16 refinement {dict((n, round(v, 3)) for n, v in drift.items())} "
        "(need within 2x)",
    )


def test_criterion_8_quadrature_foundation():
    """Gaussian exactness against closed-form norms and Beta integrals."""
    worst_norm = 0.0
    for lam in (0.3, 1.0, 2.5):
        rule = build_rule(lam, 32)
        for n in range(32):
            value = integrate(rule, lambda th: gegenbauer_eval(n, lam, np.cos(th)) ** 2)
            worst_norm = max(worst_norm, abs(value - norm_sq(n, lam)) / norm_sq(n, lam))
    worst_beta = 0.0
    for lam in (0.3, 0.5, 0.8, 1.5):
        value = singular_integrate(lambda t: np.sin(t) ** (2 * lam - 1.0), 0.0, math.pi)
        exact = beta(lam, 0.5)
        worst_beta = max(worst_beta, abs(value - exact) / exact)
    # the half-line Beta form 2 int u^k (1+u^2)^-(s+1) du = B((k+1)/2, s-(k-1)/2)
    # under u = tan(v) this is 2 int sin^k v cos^(2s-k) v dv on (0, pi/2)
    for k, s in ((3, 2), (2, 2), (1, 1)):
        value = singular_integrate(
            lambda v: 2.0 * np.sin(v) ** k * np.cos(v) ** (2 * s - k),
            0.0,
            0.5 * math.pi,
        )
        exact = beta(0.5 * (k + 1), s - 0.5 * (k - 1))
        worst_beta = max(worst_beta, abs(value - exact) / exact)
    report(
        8,
        worst_norm <= 1e-10 and worst_beta <= 1e-10,
        f"Gauss vs closed-form norms: worst rel {worst_norm:.2e} (tol 1e-10); "
        f"tanh-sinh Beta integrals: worst rel {worst_beta:.2e} (tol 1e-10)",
    )
