import math

import numpy as np
import pytest

from ultrariesz import (
    SpectralCoefficients,
    TruncationOperator,
    TruncationSchedule,
    analyze,
    band_limited,
    build_rule,
    fractional_power,
    gegenbauer_eval,
    integrate,
    kernel_constants,
    norm_sq,
    poisson_coefficients,
    poisson_spectral,
    poisson_via_kernel,
    riesz_maximal,
    riesz_pv,
    riesz_spectral,
    singular_integrate,
    synthesize,
)


def normalized_eigenfunction(n, lam):
    scale = 1.0 / math.sqrt(norm_sq(n, lam))
    return lambda th: scale * gegenbauer_eval(n, lam, np.cos(th))


class TestAnalyze:
    def test_constant_lambda_half(self):
        rule = build_rule(0.5, 32)
        c = analyze(lambda th: np.ones_like(th), 0.5, 4, rule)
        assert c.coeffs[0] == pytest.approx(math.sqrt(2), rel=1e-13)
        assert np.max(np.abs(c.coeffs[1:])) < 1e-12

    def test_orthonormality(self):
        lam = 1.7
        rule = build_rule(lam, 32)
        c = analyze(normalized_eigenfunction(3, lam), lam, 6, rule)
        expected = np.zeros(7)
        expected[3] = 1.0
        np.testing.assert_allclose(c.coeffs, expected, atol=1e-10)

    def test_cos_is_degree_one_at_lambda_one(self):
        rule = build_rule(1.0, 32)
        c = analyze(lambda th: np.cos(th), 1.0, 5, rule)
        assert abs(c.coeffs[1]) > 0.1
        mask = np.ones(6, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(c.coeffs[mask])) < 1e-12

    def test_parseval(self):
        lam = 0.8
        rule = build_rule(lam, 48)
        coeffs = SpectralCoefficients(lam, [0.3, 0.0, 1.0, -0.4, 0.0, 0.25])
        f = band_limited(coeffs)
        c = analyze(f, lam, 8, rule)
        fnorm2 = integrate(rule, lambda th: np.asarray(f(th)) ** 2)
        assert float(np.dot(c.coeffs, c.coeffs)) == pytest.approx(fnorm2, abs=1e-9)

    def test_rule_order_guard(self):
        rule = build_rule(1.0, 8)
        with pytest.raises(ValueError):
            analyze(lambda th: th, 1.0, 10, rule)


class TestSynthesize:
    def test_round_trip_band_limited(self):
        lam = 1.2
        rule = build_rule(lam, 32)
        coeffs = SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.0, 0.3])
        f = band_limited(coeffs)
        c = analyze(f, lam, 8, rule)
        for theta in (0.5, 1.3, 2.7):
            assert synthesize(c, theta) == pytest.approx(f(theta), abs=1e-9)

    def test_derivative_of_constant(self):
        c = SpectralCoefficients(0.9, [1.0])
        assert synthesize(c, 1.1, 1) == 0.0

    def test_second_derivative_of_cos_at_midpoint(self):
        # f = P_1^{1/2}(cos) = cos; f'' = -cos vanishes at pi/2
        c = SpectralCoefficients(0.5, [0.0, 1.0])
        assert synthesize(c, math.pi / 2, 2) == pytest.approx(0.0, abs=1e-12)


class TestPoisson:
    def test_constant_decays_at_rate_lambda(self):
        lam, t = 0.7, 0.4
        c = SpectralCoefficients(lam, [1.0])
        value = poisson_spectral(c, t, 1.0)
        assert value == pytest.approx(math.exp(-lam * t) * synthesize(c, 1.0), rel=1e-13)

    def test_semigroup_exact_on_coefficients(self):
        c = SpectralCoefficients(1.1, [0.5, -0.2, 0.8, 0.0, 0.1])
        one_step = poisson_coefficients(c, 0.7)
        two_step = poisson_coefficients(poisson_coefficients(c, 0.3), 0.4)
        np.testing.assert_allclose(one_step.coeffs, two_step.coeffs, rtol=1e-12)

    def test_short_time_recovery(self):
        lam = 1.0
        c = SpectralCoefficients(lam, [0.0, 1.0, 0.4])
        f = band_limited(c)
        assert poisson_spectral(c, 1e-8, 1.3) == pytest.approx(f(1.3), abs=1e-6)

    def test_kernel_route_on_constant(self):
        # integral form reduces to exp(-lam t) for f == 1
        lam, t = 0.5, 0.3
        rule = build_rule(lam, 64)
        value = poisson_via_kernel(lambda th: np.ones_like(np.asarray(th)), lam, t, 1.0, rule)
        assert value == pytest.approx(math.exp(-lam * t), abs=1e-9)

    def test_two_sided_identity(self):
        lam, t = 1.0, 0.5
        rule = build_rule(lam, 64)
        c = SpectralCoefficients(lam, [0.2, 0.0, 1.0, 0.0, 0.5])
        f = band_limited(c)
        for theta in (0.7, 1.9):
            spectral = poisson_spectral(c, t, theta)
            kernel = poisson_via_kernel(f, lam, t, theta, rule)
            assert kernel == pytest.approx(spectral, abs=1e-6)

    def test_kernel_route_linearity(self):
        lam, t = 0.5, 0.4
        rule = build_rule(lam, 32)
        f = lambda th: np.cos(th) ** 2
        one = poisson_via_kernel(f, lam, t, 1.2, rule)
        two = poisson_via_kernel(lambda th: 2.0 * f(th), lam, t, 1.2, rule)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_time_validation(self):
        c = SpectralCoefficients(1.0, [1.0])
        with pytest.raises(ValueError):
            poisson_coefficients(c, 0.0)


class TestFractionalPower:
    def test_multiplier(self):
        lam = 1.0
        c = SpectralCoefficients(lam, [1.0, 1.0, 1.0])
        out = fractional_power(c, 1.0)
        np.testing.assert_allclose(
            out.coeffs, [(0 + lam) ** -2, (1 + lam) ** -2, (2 + lam) ** -2], rtol=1e-14
        )

    def test_half_power_gives_inverse_k(self):
        lam, k = 0.6, 3
        c = SpectralCoefficients(lam, [0.0, 1.0, 0.0, 2.0])
        out = fractional_power(c, 0.5 * k)
        assert out.coeffs[1] == pytest.approx((1 + lam) ** -k, rel=1e-14)
        assert out.coeffs[3] == pytest.approx(2.0 * (3 + lam) ** -k, rel=1e-14)

    def test_defining_integral_oracle(self):
        # Gamma(2a)^-1 int_0^T exp(-t(n+lam)) t^(2a-1) dt -> (n+lam)^(-2a)
        lam, alpha = 1.0, 0.75
        for n in range(6):
            mu = n + lam
            value = singular_integrate(
                lambda t: np.exp(-t * mu) * t ** (2 * alpha - 1.0), 0.0, 50.0, tol=1e-12
            ) / math.gamma(2 * alpha)
            assert value == pytest.approx(mu ** (-2 * alpha), rel=1e-10)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            fractional_power(SpectralCoefficients(1.0, [1.0]), 0.0)


class TestRieszSpectral:
    def test_constant_maps_to_zero(self):
        rule = build_rule(1.0, 32)
        f = lambda th: np.ones_like(np.asarray(th))
        assert riesz_spectral(f, 1.0, 1, 1.0, 6, rule) == pytest.approx(0.0, abs=1e-12)
        assert riesz_spectral(f, 1.0, 2, math.pi / 2, 6, rule) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference_of_half_power(self):
        lam, k, theta = 1.0, 1, 1.0
        rule = build_rule(lam, 48)
        f = normalized_eigenfunction(2, lam)
        value = riesz_spectral(f, lam, k, theta, 8, rule)
        smoothed = fractional_power(analyze(f, lam, 8, rule), 0.5)
        h = 1e-5
        fd = (synthesize(smoothed, theta + h) - synthesize(smoothed, theta - h)) / (2 * h)
        assert value == pytest.approx(fd, abs=1e-6)

    def test_tail_warning(self):
        rule = build_rule(1.0, 32)
        spiky = lambda th: np.exp(-2.0 * (np.asarray(th) - 1.2) ** 2)
        with pytest.warns(UserWarning):
            riesz_spectral(spiky, 1.0, 1, 1.0, 4, rule)


class TestTruncated:
    def test_odd_kernel_cancels_at_symmetric_point(self):
        # constant f, k=1, theta = pi/2: spectral value is 0 and gamma_1 = 0
        operator = TruncationOperator(1.0, 1, math.pi / 2, [4e-2, 2e-2, 1e-2])
        value = operator.truncated_values(lambda th: np.ones_like(np.asarray(th)))[-1]
        assert abs(value) < 1e-3

    def test_two_sided_cancellation_is_stable(self):
        f = lambda th: np.ones_like(np.asarray(th))
        operator = TruncationOperator(1.0, 1, math.pi / 2, [1e-2, 5e-3, 2.5e-3])
        a, b, _ = operator.truncated_values(f)
        assert abs(a - b) < 5e-3

    def test_constant_even_k_identity_at_small_epsilon(self):
        lam, k, theta = 0.5, 2, 1.0
        rule = build_rule(lam, 32)
        coeffs = SpectralCoefficients(lam, [1.0])
        f = band_limited(coeffs)
        value = TruncationOperator(lam, k, theta, [4e-3, 2e-3, 1e-3]).truncated_values(f)[-1]
        spectral = riesz_spectral(f, lam, k, theta, 6, rule)
        gamma = kernel_constants(k).gamma_k
        assert value + gamma * f(theta) == pytest.approx(spectral, abs=2e-3)

    def test_epsilon_guard(self):
        for smallest in (1e-5, 5e-6):
            radii = [1e-3, 1e-4, smallest]
            with pytest.raises(ValueError, match="kernel guard"):
                TruncationSchedule(np.array(radii))
            with pytest.raises(ValueError, match="kernel guard"):
                TruncationOperator(1.0, 1, 1.0, radii)


class TestPVIdentity:
    def test_odd_order(self):
        lam, k, theta = 1.0, 1, 1.2
        rule = build_rule(lam, 48)
        coeffs = SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5])
        f = band_limited(coeffs)
        result = riesz_pv(f, lam, k, theta)
        spectral = riesz_spectral(f, lam, k, theta, 10, rule)
        assert result.gamma_term == 0.0
        assert result.value == pytest.approx(spectral, abs=1e-3 * (1 + abs(spectral)))

    def test_even_order_needs_jump_term(self):
        lam, k, theta = 0.5, 2, 2.0
        rule = build_rule(lam, 48)
        coeffs = SpectralCoefficients(lam, [0.0, 1.0, 0.3])
        f = band_limited(coeffs)
        result = riesz_pv(f, lam, k, theta)
        spectral = riesz_spectral(f, lam, k, theta, 10, rule)
        assert result.value == pytest.approx(spectral, abs=1e-3 * (1 + abs(spectral)))
        # without the jump constant the identity misses by |f(theta)|
        assert abs(result.extrapolated - spectral) == pytest.approx(
            abs(f(theta)), abs=0.02 * (1 + abs(f(theta)))
        )

    def test_order_four_jump_sign(self):
        lam, k, theta = 1.0, 4, 1.2
        rule = build_rule(lam, 48)
        coeffs = SpectralCoefficients(lam, [0.0, 1.0])
        f = band_limited(coeffs)
        result = riesz_pv(f, lam, k, theta)
        spectral = riesz_spectral(f, lam, k, theta, 10, rule)
        assert result.gamma_term == pytest.approx(f(theta))
        assert result.value == pytest.approx(spectral, abs=5e-3 * (1 + abs(spectral)))

    def test_operator_reuse_matches(self):
        lam, k, theta = 1.0, 1, 1.2
        schedule = TruncationSchedule.geometric()
        operator = TruncationOperator(lam, k, theta, schedule.epsilons)
        coeffs = SpectralCoefficients(lam, [0.0, 1.0])
        f = band_limited(coeffs)
        direct = riesz_pv(f, lam, k, theta, schedule)
        reused = riesz_pv(f, lam, k, theta, schedule, operator=operator)
        assert direct.value == pytest.approx(reused.value, rel=1e-12)

    def test_pv_linearity(self):
        lam, k, theta = 1.0, 1, 1.2
        schedule = TruncationSchedule.geometric()
        operator = TruncationOperator(lam, k, theta, schedule.epsilons)
        c1 = SpectralCoefficients(lam, [0.0, 1.0])
        c2 = SpectralCoefficients(lam, [0.0, 0.0, 1.0])
        f1, f2 = band_limited(c1), band_limited(c2)
        combo = lambda th: 2.0 * f1(th) - 0.5 * f2(th)
        lhs = riesz_pv(combo, lam, k, theta, schedule, operator=operator).value
        rhs = (
            2.0 * riesz_pv(f1, lam, k, theta, schedule, operator=operator).value
            - 0.5 * riesz_pv(f2, lam, k, theta, schedule, operator=operator).value
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestMaximal:
    def test_zero_function(self):
        assert riesz_maximal(lambda th: np.zeros_like(np.asarray(th)), 1.0, 1, 1.2) == 0.0

    def test_dominates_each_truncation(self):
        lam, k, theta = 1.0, 1, 1.2
        schedule = TruncationSchedule.geometric(0.05, 0.5, 4)
        operator = TruncationOperator(lam, k, theta, schedule.epsilons)
        coeffs = SpectralCoefficients(lam, [0.0, 1.0, 0.5])
        f = band_limited(coeffs)
        maximal = riesz_maximal(f, lam, k, theta, schedule, operator=operator)
        values = operator.truncated_values(f)
        assert maximal >= np.max(np.abs(values)) - 1e-15

    def test_monotone_under_refinement(self):
        lam, k, theta = 1.0, 1, 1.2
        coarse = TruncationSchedule.geometric(0.05, 0.5, 3)
        fine = TruncationSchedule.geometric(0.05, 0.5, 5)
        coeffs = SpectralCoefficients(lam, [0.0, 1.0, 0.5])
        f = band_limited(coeffs)
        assert riesz_maximal(f, lam, k, theta, fine) >= riesz_maximal(f, lam, k, theta, coarse) - 1e-12


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSchedule(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TruncationSchedule(np.array([0.2, 0.1]))

    def test_at_most_1000_radii(self):
        TruncationSchedule(np.linspace(0.5, 0.1, 1000))
        with pytest.raises(ValueError, match="at most 1000"):
            TruncationSchedule(np.linspace(0.5, 0.1, 1001))
        # rejected before the radii are allocated
        with pytest.raises(ValueError, match="at most 1000"):
            TruncationSchedule.geometric(0.05, 1.0 - 1e-12, 10**12)

    def test_geometric_constructor(self):
        schedule = TruncationSchedule.geometric(0.2, 0.5, 4)
        np.testing.assert_allclose(schedule.epsilons, [0.2, 0.1, 0.05, 0.025])


class TestLinearity:
    def test_spectral_route_linear_in_f(self):
        lam, k, theta = 0.8, 2, 1.3
        rule = build_rule(lam, 48)
        rng = np.random.default_rng(17)
        f1 = normalized_eigenfunction(1, lam)
        f2 = normalized_eigenfunction(4, lam)
        for _ in range(5):
            a, b = rng.normal(size=2)
            combo = lambda th: a * f1(th) + b * f2(th)
            lhs = riesz_spectral(combo, lam, k, theta, 8, rule)
            rhs = a * riesz_spectral(f1, lam, k, theta, 8, rule) + b * riesz_spectral(
                f2, lam, k, theta, 8, rule
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_analysis_linear_in_f(self):
        lam = 1.4
        rule = build_rule(lam, 32)
        f1 = lambda th: np.cos(th) ** 3
        f2 = lambda th: np.sin(th)
        combo = lambda th: 2.5 * f1(th) - 0.75 * f2(th)
        c1 = analyze(f1, lam, 6, rule).coeffs
        c2 = analyze(f2, lam, 6, rule).coeffs
        cc = analyze(combo, lam, 6, rule).coeffs
        np.testing.assert_allclose(cc, 2.5 * c1 - 0.75 * c2, rtol=1e-12, atol=1e-14)
