import math
import re

import numpy as np
import pytest

from ultrariesz import (
    AccuracyError,
    EvaluationError,
    QuadratureRule,
    beta,
    build_rule,
    gegenbauer_eval,
    integrate,
    norm_sq,
    singular_integrate,
    total_mass,
)
from ultrariesz import transforms
from ultrariesz.quadrature import (
    ConstructionError,
    _MAX_LEVEL,
    _bernstein_points,
    _cached_rule,
    _gauss_jacobi,
    _map_nodes,
    _nonnegative_nodes,
    _ts_new_points,
    _ts_table,
    gauss_legendre_segment,
    tanh_sinh_segment,
)


class TestBuildRule:
    def test_mass_lambda_half(self):
        rule = build_rule(0.5, 8)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-13)

    def test_cos_squared_lambda_one(self):
        rule = build_rule(1.0, 8)
        value = integrate(rule, lambda th: np.cos(th) ** 2)
        assert value == pytest.approx(math.pi / 8, rel=1e-12)

    def test_mass_small_lambda(self):
        rule = build_rule(0.3, 16)
        expected = math.sqrt(math.pi) * math.exp(math.lgamma(0.8) - math.lgamma(1.3))
        assert rule.weights.sum() == pytest.approx(expected, rel=1e-13)
        assert total_mass(0.3) == pytest.approx(expected, rel=1e-14)

    def test_rules_are_cached_and_identical(self):
        assert build_rule(1.2, 24) is build_rule(1.2, 24)

    def test_gaussian_exactness_against_norms(self):
        for lam in (0.3, 1.0, 2.5):
            rule = build_rule(lam, 32)
            for n in range(32):
                value = integrate(rule, lambda th: gegenbauer_eval(n, lam, np.cos(th)) ** 2)
                assert value == pytest.approx(norm_sq(n, lam), rel=1e-10)

    def test_invariants_rejected(self):
        good = build_rule(1.0, 8)
        with pytest.raises(ConstructionError):
            QuadratureRule(nodes=good.nodes, weights=-good.weights, lam=1.0, order=8)
        with pytest.raises(ConstructionError):
            QuadratureRule(nodes=good.nodes[::-1].copy(), weights=good.weights, lam=1.0, order=8)
        with pytest.raises(ConstructionError):
            QuadratureRule(nodes=good.nodes, weights=2 * good.weights, lam=1.0, order=8)

    @pytest.mark.parametrize(
        ("nodes", "weights"),
        [([0.5, np.nan], [math.pi / 4, math.pi / 4]), ([0.5, 1.0], [np.nan, math.pi / 2]), ([0.5, 1.0], [np.inf, math.pi / 2])],
    )
    def test_non_finite_entries_rejected(self, nodes, weights):
        # NaN compares false in every order and sign check
        with pytest.raises(ConstructionError, match="finite"):
            QuadratureRule(nodes=nodes, weights=weights, lam=1.0, order=2)

    @pytest.mark.parametrize("lam", [1e300, 1e-300])
    def test_extreme_lambda_refused(self, lam):
        with pytest.raises(ConstructionError):
            build_rule(lam, 64)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_rule(1.0, 1)
        with pytest.raises(ValueError):
            build_rule(-1.0, 8)


_RULE_LAMBDAS = [0.3, 1.0, 2.45, 7.5]


def _reference_rule(lam, order):
    """build_rule's nodes and weights with the Christoffel numbers summed in
    the recurrence's own loop, one degree at a time: the reference the rule
    must match bit for bit."""
    with np.errstate(all="ignore"):
        k = np.arange(1, order + 1)
        a = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
        x = _nonnegative_nodes(a[:-1], order)
        below, prev, cur, total = 0.0, np.zeros_like(x), np.ones_like(x), np.ones_like(x)
        for above in a[:-1].tolist():
            prev, cur = cur, (x * cur - below * prev) / above
            total += cur * cur
            below = above
        p_n = (x * cur - below * prev) / a[-1]
        step = a[-1] * p_n * cur / total
        total *= 1.0 - (2.0 * lam + 1.0) * x * step / ((1.0 - x) * (1.0 + x))
        x -= step
        theta = np.arccos(x)
        w = total_mass(lam) / total
    mirror = slice(order % 2, None)
    return np.concatenate([theta, math.pi - theta[::-1][mirror]]), np.concatenate([w, w[::-1][mirror]])


class TestRuleConstruction:
    """build_rule's nodes and weights from half-size singular values and
    Christoffel numbers, against closed forms and a dense Golub-Welsch
    eigenproblem."""

    @pytest.mark.parametrize("lam", _RULE_LAMBDAS)
    @pytest.mark.parametrize("order", [2, 3, 24, 64, 129])
    def test_even_moments_in_closed_form(self, lam, order):
        # the n even moments fix a rule symmetric about pi/2 (below), so
        # orders 2 and 3 are checked in closed form; measured <= 1.2e-13
        rule = build_rule(lam, order)
        for j in range(order):
            moment = float(np.dot(rule.weights, np.cos(rule.nodes) ** (2 * j)))
            assert moment == pytest.approx(beta(j + 0.5, lam + 0.5), rel=1e-12)

    @pytest.mark.parametrize("lam", _RULE_LAMBDAS)
    @pytest.mark.parametrize("order", [2, 3, 24, 129])
    def test_symmetric_about_half_pi(self, lam, order):
        rule = build_rule(lam, order)
        assert np.allclose(rule.nodes + rule.nodes[::-1], math.pi, rtol=0.0, atol=4e-16)
        assert np.array_equal(rule.weights, rule.weights[::-1])
        if order % 2:
            assert rule.nodes[order // 2] == math.pi / 2

    @pytest.mark.parametrize("lam", [0.25, 0.3, 1.0, 1.3, 2.45, 10.0])
    @pytest.mark.parametrize("order", [2, 3, 5, 8, 64, 127, 128, 257])
    def test_equals_the_per_degree_christoffel_loop(self, lam, order):
        # order 2 has one nonnegative node, order 3 two, one of them 0
        nodes, weights = _reference_rule(lam, order)
        rule = _cached_rule.__wrapped__(lam, order)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)

    @pytest.mark.parametrize("lam", _RULE_LAMBDAS)
    @pytest.mark.parametrize("order", [2, 3, 24, 64, 129])
    def test_agrees_with_dense_golub_welsch(self, lam, order):
        # the full Jacobi matrix and its eigenvectors' first components;
        # measured nodes <= 2.8e-14, weights <= 7e-16 of the mass
        k = np.arange(1, order)
        off = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
        x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        rule = build_rule(lam, order)
        mass = total_mass(lam)
        assert np.max(np.abs(rule.nodes - np.arccos(x)[::-1])) <= 1e-13
        assert np.max(np.abs(rule.weights - mass * vectors[0, ::-1] ** 2)) <= 1e-13 * mass


class TestIntegrate:
    def test_constant(self):
        rule = build_rule(0.5, 8)
        assert integrate(rule, lambda th: np.ones_like(th)) == pytest.approx(2.0, rel=1e-13)

    def test_orthogonality_to_constants(self):
        for lam in (0.4, 1.7):
            rule = build_rule(lam, 16)
            value = integrate(rule, lambda th: gegenbauer_eval(2, lam, np.cos(th)))
            assert abs(value) < 1e-10

    def test_norm_example(self):
        rule = build_rule(1.0, 16)
        value = integrate(rule, lambda th: gegenbauer_eval(1, 1.0, np.cos(th)) ** 2)
        assert value == pytest.approx(norm_sq(1, 1.0), rel=1e-10)

    def test_scalar_only_integrand(self):
        rule = build_rule(1.0, 8)
        assert integrate(rule, lambda th: math.cos(th) ** 2) == pytest.approx(
            math.pi / 8, rel=1e-12
        )

    def test_nonfinite_raises(self):
        rule = build_rule(0.5, 8)
        with pytest.raises(EvaluationError):
            integrate(rule, lambda th: np.full_like(th, np.nan))

    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_several_values_per_point_are_refused(self, shape):
        # the scalar fallback once kept the first of them
        rule = build_rule(1.0, 8)
        with pytest.raises(ValueError, match=re.escape(f"one value per point, got shape {shape}")):
            integrate(rule, lambda th: np.ones(shape))


class TestSingularIntegrate:
    def test_beta_integral(self):
        value = singular_integrate(lambda t: np.sin(t) ** (2 * 0.3 - 1), 0.0, math.pi)
        assert value == pytest.approx(beta(0.3, 0.5), rel=1e-10)

    def test_log_weight(self):
        assert singular_integrate(lambda r: np.log(1 / r), 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_log_squared_algebraic(self):
        value = singular_integrate(lambda r: np.log(1 / r) ** 2 * r**-0.5, 0.0, 1.0)
        assert value == pytest.approx(16.0, rel=1e-12)

    def test_smooth_agrees_with_gauss(self):
        rule = build_rule(1.0, 32)
        f = lambda th: np.cos(3 * th) + th
        gauss = integrate(rule, f)  # the rule's measure is sin(theta)**2 d(theta)
        ts = singular_integrate(lambda th: f(th) * np.sin(th) ** 2, 0.0, math.pi)
        assert ts == pytest.approx(gauss, abs=1e-10)

    def test_unreachable_tolerance_raises_with_estimate(self):
        exact = beta(0.3, 0.5)
        with pytest.raises(AccuracyError) as info:
            singular_integrate(
                lambda t: np.sin(t) ** -0.4, 0.0, math.pi, tol=0.0, rtol=0.0
            )
        assert info.value.estimate == pytest.approx(exact, rel=1e-8)
        assert info.value.error_bound > 0.0

    def test_mass_below_the_nearest_node_is_refused(self):
        # the rule stops ~4e-83 short of 0, where x**-0.9 still holds
        # (4e-83)**0.1 / 0.1 = 5.7e-8 of its mass: the level-to-level
        # difference alone once passed tol 1e-9 and returned 11.212823474967184,
        # 5.7e-8 below pi**0.1 / 0.1
        exact = math.pi**0.1 / 0.1
        with pytest.raises(AccuracyError) as info:
            singular_integrate(lambda s: s**-0.9, 0.0, math.pi, tol=1e-9)
        assert info.value.estimate == pytest.approx(exact, rel=1e-8)
        assert 1e-9 < info.value.error_bound < exact - info.value.estimate
        # x**-0.5 there holds 1.3e-41: the estimate does not stop it
        value = singular_integrate(lambda s: s**-0.5, 0.0, math.pi, tol=1e-9)
        assert value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            singular_integrate(lambda r: r, 1.0, 0.0)

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: (1.0 - x) ** -0.5, 0.0, 1.0),
            (lambda x: np.log(1.0 - x), 0.0, 1.0),
            (lambda x: (math.pi - x) ** -0.9, 0.0, math.pi),
            (lambda x: (x - 1.0) ** -0.5, 1.0, 2.0),
        ],
        ids=["hi-sqrt", "hi-log", "pi", "lo-1"],
    )
    def test_any_other_end_is_refused_with_the_way_out(self, f, lo, hi):
        # nodes within an ulp of the end round onto it
        message = "an end that nodes round onto: write f in the distance to it"
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match=message):
            singular_integrate(f, lo, hi)


#: integrands that converge at different levels (3, 3, 5 and 7): smooth, an
#: endpoint singularity, a near-endpoint peak and an interior peak; and
#: their integrals over (0, 1)
ROWS = (
    lambda x: np.cos(x),
    lambda x: x**-0.5,
    lambda x: 1.0 / (1e-3 + x),
    lambda x: 1.0 / (1e-2 + (x - 0.5) ** 2),
)
ROW_LEVELS = (3, 3, 5, 7)
ROW_INTEGRALS = (math.sin(1.0), 2.0, math.log(1001.0), 20.0 * math.atan(5.0))


class TestRowEngine:
    """singular_integrate's adaptive level loop, one integrand ("row") at a time."""

    def test_rows_converge_at_their_own_level(self):
        for function, level, exact in zip(ROWS, ROW_LEVELS, ROW_INTEGRALS):
            calls = []

            def counted(x):
                calls.append(x.size)
                return function(x)

            value = singular_integrate(counted, 0.0, 1.0)
            # one evaluation per level, from level 0; level 3 is the first
            # that may stop
            assert len(calls) == level + 1
            assert value == pytest.approx(exact, rel=1e-12)

    def test_a_row_that_never_converges_raises_with_its_estimate(self):
        with pytest.raises(AccuracyError, match="did not reach tolerance 1e-10 on") as info:
            singular_integrate(lambda x: 1.0 / x, 0.0, 1.0)
        # the estimate is the finest level's sum, the bound its change from
        # the level before plus the mass estimate below the node nearest 0,
        # x * (1 / x) = 1 there
        sums = []
        for level in (_MAX_LEVEL - 1, _MAX_LEVEL):
            x, w = tanh_sinh_segment(0.0, 1.0, level)
            sums.append(float(np.dot(w, 1.0 / x)))
        assert info.value.estimate == pytest.approx(sums[1], rel=1e-12)
        assert info.value.error_bound == pytest.approx(abs(sums[1] - sums[0]) + 1.0, rel=1e-9)
        assert info.value.error_bound > 1e-10

    def test_a_non_finite_row_raises(self):
        with pytest.raises(EvaluationError, match="integrand is not finite"):
            singular_integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


#: a number as Python prints a float, not a numpy scalar's repr
_PLAIN_FLOAT = r"-?\d+(\.\d+)?(e[-+]\d+)?"


class TestNonFiniteMessages:
    def test_integrate_names_a_plain_float(self):
        rule = build_rule(0.5, 8)
        with pytest.raises(EvaluationError, match=rf"at node {_PLAIN_FLOAT}$") as info:
            integrate(rule, lambda th: np.full_like(th, np.nan))
        assert "np.float64(" not in str(info.value)

    def test_row_engine_names_a_plain_float(self):
        with pytest.raises(EvaluationError, match=rf"at x={_PLAIN_FLOAT}$") as info:
            singular_integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
        assert "np.float64(" not in str(info.value)


class TestRuleCache:
    def test_rule_cache_stays_bounded(self):
        for lam in np.linspace(0.31, 2.4, 100):
            build_rule(float(lam), 4)
        info = _cached_rule.cache_info()
        assert info.maxsize == 32 and info.currsize <= info.maxsize

    def test_cached_rule_is_read_only(self):
        rule = build_rule(1.3, 8)
        node, weight = float(rule.nodes[0]), float(rule.weights[0])
        with pytest.raises(ValueError, match="read-only"):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            rule.weights[0] = 0.5
        fresh = build_rule(1.3, 8)
        assert fresh.nodes[0] == node and fresh.weights[0] == weight

    def test_caller_arrays_stay_writable(self):
        nodes, weights = np.array([1.0, 2.0]), np.full(2, 0.5 * total_mass(1.0))
        QuadratureRule(nodes=nodes, weights=weights, lam=1.0, order=2)
        assert nodes.flags.writeable and weights.flags.writeable


class TestBernsteinPoints:
    def test_graded_panels_bands_and_no_ellipse(self):
        # a graded r-panel (1 - 4 d, 1 - d) reaches r = 1 at a = 5/3 half-widths
        ratio = 4.0
        assert _bernstein_points((ratio + 1.0) / (ratio - 1.0), 1e-18) == 19
        # a band (theta + eps/2, theta + eps) between radii of ratio 1/2 lies
        # 3 half-widths from theta
        assert _bernstein_points(3.0, 1e-11) == 8
        assert transforms._band_points(1.0 + 0.05, 1.0 + 0.1, 1.0) == 8
        # no ellipse excludes a point on the panel or at its end
        assert _bernstein_points(1.0, 1e-11) == _bernstein_points(0.2, 1e-11) == math.inf
        assert transforms._band_points(0.0, 0.5, 1.0) == transforms._MAX_BAND_POINTS == 24


class TestSegments:
    def test_tanh_sinh_segment_interior(self):
        nodes, weights = tanh_sinh_segment(0.0, math.pi, 4)
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) >= 0)
        assert nodes[0] > 0.0 and nodes[-1] < math.pi
        value = float(np.dot(weights, np.sin(nodes)))
        assert value == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("theta", [0.3, 1.1, math.pi - 0.3])
    @pytest.mark.parametrize("level", range(3, 8))
    def test_level_below_is_the_even_indices(self, theta, level):
        # on the far pieces of a TruncationOperator: level - 1 is the nodes of
        # even index at level, at twice their weights, bit for bit, and with
        # the same endpoint drops; only a node the 1e-300 weight floor cuts
        # from level may stand alone at level - 1
        for lo, hi in ((0.0, theta - 0.05), (theta + 0.05, math.pi)):
            k, side, dist, weight = _ts_table(level)
            nodes = _map_nodes(lo, hi, side, dist)
            inside = (nodes > lo) & (nodes < hi)
            even = inside & (k % 2 == 0)
            coarse_nodes, coarse_weights = tanh_sinh_segment(lo, hi, level - 1)
            fine_nodes, fine_weights = tanh_sinh_segment(lo, hi, level)
            assert np.array_equal(fine_nodes, nodes[inside])
            shared = np.isin(coarse_nodes, nodes[even])
            assert np.all(coarse_weights[~shared] <= 2e-300)
            assert np.array_equal(coarse_nodes[shared], nodes[even])
            assert np.array_equal(coarse_weights[shared], 2.0 * fine_weights[(k % 2 == 0)[inside]])
            # the rest of level: the odd rows, as _ts_new_points gives them
            odd_k, odd_side, odd_dist, odd_weight = _ts_new_points(level)
            assert np.array_equal(odd_k, k[k % 2 == 1])
            assert np.array_equal(_map_nodes(lo, hi, odd_side, odd_dist), nodes[k % 2 == 1])
            assert np.array_equal(odd_weight, weight[k % 2 == 1])

    def test_gauss_legendre_segment(self):
        nodes, weights = gauss_legendre_segment(0.0, 1.0, 12)
        assert float(np.dot(weights, nodes**7)) == pytest.approx(1 / 8, rel=1e-13)

    @pytest.mark.parametrize("power", [0.0, 0.6, 5.0])
    def test_gauss_jacobi_is_exact_and_orthonormal(self, power):
        # the n-point rule for t**power on (0, 1) integrates t**j exactly for
        # j < 2n, and its basis rows are orthonormal under its own weights
        for n in (1, 2, 8, 24):
            t, weights, basis = _gauss_jacobi(n, power)
            moments = np.array([np.dot(weights, t**j) for j in range(2 * n)])
            np.testing.assert_allclose(moments, 1.0 / (np.arange(2 * n) + power + 1.0), rtol=2e-14)
            np.testing.assert_allclose((basis * weights) @ basis.T, np.eye(n), atol=1e-14)
            assert np.all(np.diff(t) > 0.0) and 0.0 < t[0] and t[-1] < 1.0
