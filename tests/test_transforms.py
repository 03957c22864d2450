import math

import numpy as np
import pytest

from ultrariesz import (
    AccuracyError,
    DyadicBands,
    SpectralCoefficients,
    TruncationOperator,
    TruncationSchedule,
    analyze,
    band_limited,
    build_rule,
    convergence_report,
    fractional_power,
    gegenbauer_eval,
    integrate,
    kernel_constants,
    norm_sq,
    poisson_coefficients,
    poisson_kernel,
    poisson_spectral,
    poisson_via_kernel,
    riesz_pv,
    riesz_spectral,
    singular_integrate,
    synthesize,
)
from ultrariesz import special, transforms


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

    def test_a_non_integer_degree_is_refused(self):
        # it once ended in a TypeError from range
        with pytest.raises(ValueError, match="degree must be an integer"):
            analyze(np.cos, 1.0, 1.5, build_rule(1.0, 8))

    def test_a_rule_for_another_lambda_is_refused(self):
        # riesz_spectral(np.cos, 2.0, 1, 1.0, 4, build_rule(1.3, 16)) once
        # returned -0.6635 against -sin(1)/3, and poisson_via_kernel 0.1767
        # against 0.1206
        with pytest.raises(ValueError, match="built for lambda 1.3, not 2.0"):
            analyze(np.cos, 2.0, 4, build_rule(1.3, 16))
        with pytest.raises(ValueError, match="built for lambda 1.3, not 2.0"):
            riesz_spectral(np.cos, 2.0, 1, 1.0, 4, build_rule(1.3, 16))
        with pytest.raises(ValueError, match="built for lambda 1.3, not 2.0"):
            poisson_via_kernel(np.cos, 2.0, 0.5, 1.0, build_rule(1.3, 64))
        value = riesz_spectral(np.cos, 2.0, 1, 1.0, 4, build_rule(2.0, 16))
        assert value == pytest.approx(-math.sin(1.0) / 3.0, rel=1e-12)


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

    def test_theta_jets_come_from_the_public_function_once_per_call(self, monkeypatch):
        # perfbench traces special.gegenbauer_theta_jets by name, so the
        # spectral route's jet time shows only if synthesize calls it
        calls = []
        theta_jets = transforms.gegenbauer_theta_jets

        def counted(*args):
            calls.append(args)
            return theta_jets(*args)

        monkeypatch.setattr(transforms, "gegenbauer_theta_jets", counted)
        c = SpectralCoefficients(0.8, [0.3, 0.0, 1.0, -0.2])
        for order in (0, 2):
            synthesize(c, 1.1, order)
        assert calls == [(3, 0.8, 1.1, 0), (3, 0.8, 1.1, 2)]


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
        # a NaN time once gave NaN coefficients
        c = SpectralCoefficients(1.0, [1.0])
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="time must be positive"):
                poisson_coefficients(c, t)
            with pytest.raises(ValueError, match="time must be positive"):
                poisson_via_kernel(np.cos, 1.0, t, 1.0, build_rule(1.0, 8))


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_validation(self):
        # a NaN exponent once gave NaN coefficients, and inf gave [inf, 0.]
        for alpha in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="exponent must be positive"):
                fractional_power(SpectralCoefficients(1.0, [1.0]), alpha)


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

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    def test_tail_is_judged_past_n_max(self, recwarn, lam):
        # a_{n_max + 1} and a_{n_max + 2}: an f of exact degree n_max fills
        # a_{n_max} and is resolved, one of degree n_max + 1 is not
        rule = build_rule(lam, 32)
        exact = band_limited(SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5]))
        value = riesz_spectral(exact, lam, 2, 1.0, 4, rule)
        assert not recwarn.list
        assert value == pytest.approx(riesz_spectral(exact, lam, 2, 1.0, 8, rule), rel=1e-12)
        for coeffs, index in (([0.0, 0.0, 1.0, 0.0, 0.5, 0.2], 5), ([0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.2], 6)):
            with pytest.warns(UserWarning, match=rf"\|a_{index}\|"):
                riesz_spectral(band_limited(SpectralCoefficients(lam, coeffs)), lam, 2, 1.0, 4, rule)

    def test_tail_falls_back_to_a_n_max_on_a_short_rule(self):
        # order 6 < n_max + 3 cannot integrate a_5 and a_6 of a degree-4 f
        rule = build_rule(1.0, 6)
        f = band_limited(SpectralCoefficients(1.0, [0.0, 0.0, 1.0, 0.0, 0.5]))
        with pytest.warns(UserWarning, match=r"\|a_4\|/\|\|a\|\| = 4.47e-01"):
            riesz_spectral(f, 1.0, 2, 1.0, 4, rule)

    def test_tail_check_leaves_the_value_alone(self):
        # the two tail coefficients come from their own product: the value is
        # the plain analyze -> multiplier -> synthesis pipeline's, bit for bit
        rule = build_rule(1.3, 24)
        f = lambda th: np.exp(np.cos(np.asarray(th)))  # noqa: E731
        with pytest.warns(UserWarning, match=r"\|a_7\|"):
            value = riesz_spectral(f, 1.3, 3, 0.9, 6, rule)
        assert value == synthesize(fractional_power(analyze(f, 1.3, 6, rule), 1.5), 0.9, 3)
        g = band_limited(SpectralCoefficients(1.3, [0.2, 0.0, 1.0, -0.4, 0.5]))
        value = riesz_spectral(g, 1.3, 2, 0.9, 4, rule)
        assert value == synthesize(fractional_power(analyze(g, 1.3, 4, rule), 1.0), 0.9, 2)

    @pytest.mark.parametrize("lam", [300.0, 1e6, 2.7e16])
    def test_refuses_where_rounding_swamps_the_value(self, lam):
        # the constant's transform is 0; off pi/2 its coefficients' rounding
        # came back as 2.1e-3 at lambda 300 and ~1e102 at 2.7e16
        rule = build_rule(lam, 64)
        f = lambda th: np.ones_like(np.asarray(th))
        with pytest.raises(FloatingPointError, match="rounding"):
            riesz_spectral(f, lam, 1, 0.7, 16, rule)
        # at pi/2, where the measure sits, the value stays good
        assert riesz_spectral(f, lam, 1, math.pi / 2, 16, rule) == pytest.approx(0.0, abs=1e-12)


class TestRecurrenceMemo:
    """The spectral route reads its Gegenbauer rows from special's memo: each
    value is what it is with the memo cleared, bit for bit."""

    @staticmethod
    def _values(lam, coeffs, theta):
        c = SpectralCoefficients(lam, coeffs)
        f = band_limited(c)
        rule = build_rule(lam, 64)
        values = [riesz_spectral(f, lam, k, theta, c.degree + 4, rule) for k in range(1, 7)]
        values += [synthesize(fractional_power(c, 0.5 * k), theta, k) for k in range(1, 7)]
        values += [poisson_spectral(c, t, theta) for t in (0.1, 1.0)]
        values += [poisson_via_kernel(f, lam, t, theta, build_rule(lam, 128)) for t in (0.1, 1.0)]
        return np.concatenate([values, f(rule.nodes), [f(theta)], analyze(f, lam, c.degree + 2, rule).coeffs])

    @pytest.mark.parametrize("lam, degree, theta", [(0.3, 8, 0.4), (1.3, 16, 1.9), (2.45, 24, 2.9)])
    def test_values_with_the_memo_warm_and_cleared(self, lam, degree, theta):
        coeffs = np.sin(np.arange(degree + 1) + lam)
        special._clear_memo()
        cold = self._values(lam, coeffs, theta)
        warm = self._values(lam, coeffs, theta)
        special._clear_memo()
        assert np.array_equal(warm, cold)
        assert np.array_equal(self._values(lam, coeffs, theta), cold)

    def test_one_value_table_per_rule_and_one_jet_table_per_key(self, monkeypatch):
        # k 1..6 at one (lambda, rule, theta): the rule's points are read from
        # the one table analyze keeps, by analyze and by f, and each k's jets
        # from one table; f keeps no table of its own
        runs = []
        recurrence = special._recurrence

        def counted(*args, **kwargs):
            runs.append(args[4] if len(args) > 4 else np.multiply)
            return recurrence(*args, **kwargs)

        monkeypatch.setattr(special, "_recurrence", counted)
        special._clear_memo()
        self._values(1.1, np.cos(np.arange(13)), 0.8)
        # the order-64 rule's points once, the order-128 rule's at each t, and theta
        assert runs.count(np.multiply) == 4
        assert runs.count(np.matmul) == 7  # the jets of orders 0..6


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

    def test_one_kernel_call_per_build(self, monkeypatch):
        calls = []
        riesz_kernel = transforms.riesz_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return riesz_kernel(*args, **kwargs)

        monkeypatch.setattr(transforms, "riesz_kernel", counting)
        # the records are T f at every radius of ratio 1/2 on 9 radii
        operator = TruncationOperator(1.0, 2, 1.0, TruncationSchedule.geometric(0.05, 0.5, 9).epsilons)
        assert len(calls) == 1
        f = band_limited(SpectralCoefficients(1.0, [0.0, 0.3, 1.0, 0.0, 0.5]))
        # recorded from the build with Gauss panels out to 0 and pi, which f
        # keeps (one kernel call in all), the bands sized for 1e-11, the
        # kernel's r-rule on (0, 1/2) the Gauss rule of its own weight, and
        # its Gauss-Legendre rules above 1/2 from _gauss_jacobi, and its
        # t-table's columns past the first panel carrying the powers of q;
        # the records before those powers were one ulp above these (2.0e-16
        # relative), those before that Gauss-Legendre source within 2.2e-16
        # of them, and the build with tanh-sinh pieces out to 0 and pi at
        # level 3 before them recorded values within 1.9e-14
        expected = [
            0.5573262175454626, 0.5573494358698262, 0.5565472772160065,
            0.5559511285790724, 0.5556054224959427, 0.5554208086795828,
            0.5553255802887047, 0.5552772380808171, 0.5552528852697384,
        ]
        values = operator.truncated_values(f)
        assert len(calls) == 1 and {piece.depth for piece in operator._pieces} == {0}
        assert np.array_equal(values, expected)
        # recorded from the build that made one kernel call per panel, with
        # 24 points per band, level-5 end panels and whole (r, t) grids
        untrimmed = [
            0.5573262175454625, 0.5573494358698261, 0.5565472772160065,
            0.5559511285790726, 0.5556054224959432, 0.555420808679584,
            0.5553255802887075, 0.5552772380808223, 0.5552528852697491,
        ]
        np.testing.assert_allclose(values, untrimmed, rtol=0.0, atol=1e-13)

    def test_ratio_half_bands_get_8_points(self, monkeypatch):
        monkeypatch.setattr(transforms, "riesz_kernel", lambda lam, k, theta, phi, *, config=None: np.zeros(np.size(phi)))
        counts = []
        for theta in (0.7, math.pi / 2, 2.2):
            operator = TruncationOperator(1.0, 2, theta, TruncationSchedule.geometric(0.05, 0.5, 9).epsilons)
            counts += [piece.nodes.size for piece in operator._pieces if piece.index]
        # at ratio 1/2 every band between radii sees theta at rho = 3 + sqrt(8),
        # and rho**-16 ~ 5.6e-13 is the first power below 1e-11 (rho**-14 ~ 1.9e-11)
        assert counts == [8] * 48
        assert transforms._band_points(1.0, 1.1, 1.2) == 8

    def test_default_bands_get_12_points(self, monkeypatch):
        monkeypatch.setattr(transforms, "riesz_kernel", lambda lam, k, theta, phi, *, config=None: np.zeros(np.size(phi)))
        counts, sizes = [], []
        for theta in (0.7, math.pi / 2, 2.2):
            operator = TruncationOperator(1.0, 2, theta, TruncationSchedule.geometric().epsilons)
            counts += [piece.nodes.size for piece in operator._pieces if piece.index]
            sizes.append(sum(piece.nodes.size for piece in operator._pieces))
        # at ratio 1/4 every band between radii sees theta at rho = 3, and
        # 3**-24 ~ 3.5e-12 is the first power below 1e-11 (3**-22 ~ 3.2e-11)
        assert counts == [12] * 24
        assert max(sizes) <= 187
        assert transforms._band_points(1.0, 1.3, 1.4) == 12
        # the same span of radii as ratio 1/2 on 9 radii, to the last bit
        assert TruncationSchedule.geometric().epsilons[-1] == TruncationSchedule.geometric(0.05, 0.5, 9).epsilons[-1]

    def test_band_points_never_exceed_24(self):
        rng = np.random.default_rng(8)
        counts = []
        for _ in range(2000):
            theta = float(rng.uniform(1e-3, math.pi - 1e-3))
            hi = theta - float(rng.uniform(1e-5, theta)) * float(rng.uniform(0.0, 1.0))
            lo = hi * float(rng.uniform(0.0, 1.0))
            if 0.0 < lo < hi < theta:
                counts.append(transforms._band_points(lo, hi, theta))
                counts.append(transforms._band_points(math.pi - hi, math.pi - lo, math.pi - theta))
        # a band reaching up to a singular point gets the cap, a thin band
        # far from all three gets a single point
        counts.append(transforms._band_points(5e-324, 1.0, 1.0 + 1e-5))
        counts.append(transforms._band_points(1.0, 1.0 + 1e-12, 2.0))
        assert min(counts) == 1 and max(counts) == 24
        assert counts[-2:] == [24, 1]

    def test_end_panels_drop_their_end_from_the_bound(self):
        # a panel reaching 0 carries the weight s**(2 lambda): its nearest
        # point is then the mirror image -theta, not 0
        assert transforms._band_points(0.0, 0.5, 1.0) == 24
        assert transforms._band_points(0.0, 0.5, 1.0, 0.0) == transforms._band_points(-0.5, 0.0, 1.0, 0.0) < 24

    @pytest.mark.parametrize("theta", [0.06, 1.2, math.pi / 2, math.pi - 0.06])
    def test_default_operator_holds_at_most_430_phi(self, monkeypatch, theta):
        sizes = []

        def recording(lam, k, theta, phi, *, config=None):
            sizes.append(np.size(phi))
            return np.zeros(np.size(phi))

        monkeypatch.setattr(transforms, "riesz_kernel", recording)
        TruncationOperator(1.0, 2, theta, TruncationSchedule.geometric().epsilons)
        # 208-211 with Gauss panels out to 0 and pi (242-247 with tanh-sinh
        # pieces there)
        assert len(sizes) == 1 and sizes[0] <= 230

    def test_epsilon_guard(self):
        for smallest in (1e-5, 5e-6):
            radii = [1e-3, 1e-4, smallest]
            with pytest.raises(ValueError, match="kernel guard"):
                TruncationSchedule(np.array(radii))
            with pytest.raises(ValueError, match="kernel guard"):
                TruncationOperator(1.0, 1, 1.0, radii)

    @pytest.mark.parametrize("theta, radii", [(math.pi / 2, [3.0, 2.0]), (1.0, [3.0, 2.25])])
    def test_a_schedule_that_leaves_no_phi_is_refused(self, theta, radii):
        # every truncation would be 0; the build raised numpy's "need at
        # least one array to concatenate"
        with pytest.raises(ValueError, match=r"smallest radius .* max\(theta, pi - theta\)"):
            TruncationOperator(1.0, 1, theta, radii)

    def test_a_schedule_past_one_end_only_still_builds(self):
        # past 0 at theta 0.3, not past pi: the panels lie on the pi side
        operator = TruncationOperator(1.0, 1, 0.3, [3.0, 2.0])
        assert operator._pieces and all(piece.lo > 0.3 for piece in operator._pieces)
        assert np.all(np.isfinite(operator.truncated_values(np.cos)))

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.45])
    def test_density_factor_is_the_per_node_power(self, lam):
        # np.float_power rounds as Python's ** does, where np.power need not:
        # each panel's factor is its nodes' scalar values bit for bit
        operator = TruncationOperator(lam, 2, 0.5, TruncationSchedule.geometric().epsilons)
        ends = set()
        for piece in operator._pieces:
            if piece.end is None:
                expected = [math.sin(x) ** (2.0 * lam) for x in piece.nodes.tolist()]
            else:
                # the distances to the end the panel reaches, as the panel forms them
                s = (piece.hi - piece.lo) * piece.rule[0]
                expected = [(math.sin(x) / x) ** (2.0 * lam) for x in s.tolist()]
                ends.add(piece.end)
            assert piece.smooth.tobytes() == np.array(expected).tobytes()
        assert ends == {0.0, math.pi}


#: a Lorentzian of width 0.1 at phi 1.7: the 8-point panels past the largest
#: radius of an operator at theta 1.1 do not resolve it
def peak(th):
    return 1.0 / (1.0 + ((np.asarray(th) - 1.7) / 0.1) ** 2)


#: a Lorentzian of width 0.05 at phi 3.0, inside the panel that reaches pi
def end_peak(th):
    return 1.0 / (1.0 + ((np.asarray(th) - 3.0) / 0.05) ** 2)


def _counting_kernel(monkeypatch):
    """The sizes of the phi arrays of every transforms.riesz_kernel call."""
    sizes = []
    riesz_kernel = transforms.riesz_kernel

    def counting(*args, **kwargs):
        sizes.append(np.size(args[3]))
        return riesz_kernel(*args, **kwargs)

    monkeypatch.setattr(transforms, "riesz_kernel", counting)
    return sizes


def _depth(operator, outer):
    """The most halvings of the panels past the largest radius (``outer``) or
    of the bands between radii."""
    return max(piece.depth for piece in operator._pieces if (piece.index == 0) == outer)


class TestAdaptiveFarPieces:
    """The Gauss panels past the largest radius, out to 0 and pi, split per f."""

    @pytest.mark.parametrize("lam, k, theta", [(0.3, 1, 0.7), (1.0, 2, math.pi / 2), (2.5, 3, 2.2), (2.45, 4, 2.64)])
    def test_polynomial_f_keep_the_level_3_build(self, monkeypatch, lam, k, theta):
        # criterion 1's family and unit-norm degree 2-4 functions, as the
        # benchmark draws them; its corner is lambda ~2.45 at theta ~pi - 0.5
        sizes = _counting_kernel(monkeypatch)
        operator = TruncationOperator(lam, k, theta, TruncationSchedule.geometric().epsilons)
        rng = np.random.default_rng(11)
        family = [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.5]]
        family += [list(c / np.linalg.norm(c)) for c in (rng.uniform(-1.0, 1.0, d + 1) for d in (2, 3, 4))]
        for coeffs in family:
            riesz_pv(band_limited(SpectralCoefficients(lam, coeffs)), lam, k, theta, operator=operator)
            assert operator.band_estimate < 1e-7
        assert len(sizes) == 1 and sizes[0] <= 230
        assert {piece.depth for piece in operator._pieces} == {0}

    def test_refinement_evaluates_the_kernel_at_new_nodes_only(self, monkeypatch):
        sizes = _counting_kernel(monkeypatch)
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        built = operator._nodes.size
        operator.truncated_values(peak)
        # the panels past the largest radius toward pi split; each round of
        # halvings evaluates the kernel at the halves' nodes only
        depth = _depth(operator, outer=True)
        assert depth > 0 and _depth(operator, outer=False) == 0
        assert len(sizes) == 1 + depth
        # a split drops the panel's n nodes for its halves' 2n
        assert operator._nodes.size - built == sum(sizes[1:]) // 2
        assert sizes[1] < built
        # kept for every later f: the same f again calls the kernel no more
        operator.truncated_values(peak)
        assert len(sizes) == 1 + depth

    def test_a_refined_piece_holds_a_fresh_build(self):
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        operator.truncated_values(end_peak)
        halves = [p for p in operator._pieces if p.depth > 0 and p.index == 0]
        # the half at pi keeps the weight s**(2 lambda), the other is a band
        assert {p.end for p in halves if p.hi == math.pi} == {math.pi}
        assert {p.end for p in halves if p.hi < math.pi} == {None}
        fresh = [transforms._Piece(p.lo, p.hi, p.index, p.nodes.size, 1.0, p.end) for p in halves]
        operator._fill(fresh)
        for half, built in zip(halves, fresh):
            for name in ("nodes", "weights", "density"):
                assert np.array_equal(getattr(half, name), getattr(built, name)), name

    def test_later_f_are_summed_at_the_refined_level(self):
        operator = TruncationOperator(1.0, 2, 1.1, TruncationSchedule.geometric().epsilons)
        f = band_limited(SpectralCoefficients(1.0, [0.0, 0.3, 1.0, 0.0, 0.5]))
        coarse = operator.truncated_values(f)
        operator.truncated_values(peak)
        fine = operator.truncated_values(f)
        # f was resolved as built: the halves move it by far less than the
        # estimate's target
        assert _depth(operator, outer=True) > 0
        np.testing.assert_allclose(fine, coarse, rtol=0.0, atol=1e-10)

    def test_a_sliver_end_panel(self):
        # theta + eps_3 one rounding below pi: the band from there to pi is a
        # sliver, whose Gauss-Jacobi nodes sit at pi - s, and the apply goes on
        epsilons = TruncationSchedule.geometric().epsilons
        theta = float(np.nextafter(math.pi - epsilons[3], 0.0))
        operator = TruncationOperator(1.0, 1, theta, epsilons)
        sliver = next(p for p in operator._pieces if p.end == math.pi)
        assert sliver.hi - sliver.lo < 1e-15 and np.all((sliver.lo <= sliver.nodes) & (sliver.nodes <= math.pi))
        f = band_limited(SpectralCoefficients(1.0, [0.0, 1.0]))
        spectral = riesz_spectral(f, 1.0, 1, theta, 4, build_rule(1.0, 16))
        assert riesz_pv(f, 1.0, 1, theta, operator=operator).value == pytest.approx(spectral, abs=1e-9)
        assert {p.depth for p in operator._pieces} == {0}

    def test_past_level_7_raises_with_the_estimate(self):
        # a spike past the largest radius: its panels are halved 7 times,
        # the most a band between radii gets too
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        spike = lambda th: 1.0 / (1.0 + ((np.asarray(th) - 1.7) / 1e-4) ** 2)  # noqa: E731
        with pytest.raises(AccuracyError, match="halved 7 times") as caught:
            operator.truncated_values(spike)
        assert _depth(operator, outer=True) == transforms._MAX_BAND_DEPTH == 7
        assert _depth(operator, outer=False) == 0
        assert caught.value.error_bound == operator.band_estimate > 1e-7
        # riesz_pv passes it on; the CLI maps it to exit 1
        with pytest.raises(AccuracyError):
            riesz_pv(spike, 1.0, 1, 1.1, operator=operator)

    @pytest.mark.parametrize("f", [np.log, lambda x: np.sin(x) ** -0.3], ids=["log", "sin^-0.3"])
    def test_f_unbounded_at_an_end_is_refused_or_covered(self, f):
        # the end panels halved 12 times at 40 points, with every other panel
        # a 40-point copy of its own rule, are the reference
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        reference = []
        for piece in operator._pieces:
            parts = [transforms._Piece(piece.lo, piece.hi, piece.index, 40, 1.0, piece.end)]
            for _ in range(12 if piece.end is not None else 0):
                parts = [half for part in parts for half in (part.halves() if part.end is not None else (part,))]
            reference += parts
        operator._fill(reference)
        exact = np.zeros(operator.epsilons.size)
        for part in reference:
            exact[part.index :] += np.dot(part.weights * part.density, f(part.nodes))
        try:
            values = operator.truncated_values(f)
        except AccuracyError as caught:
            assert caught.error_bound == operator.band_estimate
            return
        assert np.max(np.abs(values - exact)) <= operator.band_estimate


#: a Lorentzian of width 0.01 at phi 1.11: inside the bands of an operator at
#: theta 1.1, which 8 points a band do not resolve
def band_peak(th):
    return 1.0 / (1.0 + ((np.asarray(th) - 1.11) / 0.01) ** 2)


class TestBandCheck:
    """One check, in each panel's orthonormal basis, covers the bands between
    radii and the panels past the largest: f and g split a panel in halves."""

    def test_legendre_analysis_inverts_the_legendre_values(self):
        for n in (1, 6, 8, 24):
            t, weights, basis = transforms._gauss_jacobi(n, 0.0)
            values = np.polynomial.legendre.legvander(2.0 * t - 1.0, n - 1).T
            # the orthonormal basis on (0, 1) is sqrt(2j + 1) P_j(2t - 1)
            expected = np.diag(1.0 / np.sqrt(2.0 * np.arange(n) + 1.0))
            np.testing.assert_allclose(values @ (basis * weights).T, expected, atol=1e-13)

    def test_a_peak_inside_the_bands_splits_them(self, monkeypatch):
        sizes = _counting_kernel(monkeypatch)
        schedule = TruncationSchedule.geometric().epsilons
        operator = TruncationOperator(1.0, 1, 1.1, schedule)
        bands = [(p.lo, p.hi) for p in operator._pieces if p.index]
        built = operator._nodes.size
        values = operator.truncated_values(band_peak)
        depth = max(p.depth for p in operator._pieces)
        assert _depth(operator, outer=False) == depth > 0
        # one kernel call per round of halvings, at the halves' nodes only
        assert len(sizes) == 1 + depth and sum(sizes[1:]) < depth * built
        # the halves tile the bands as built
        for lo, hi in bands:
            parts = sorted((p.lo, p.hi) for p in operator._pieces if lo <= p.lo and p.hi <= hi)
            assert parts[0][0] == lo and parts[-1][1] == hi
            assert all(left[1] == right[0] for left, right in zip(parts, parts[1:]))
        # kept for every later f: the same f again calls the kernel no more
        np.testing.assert_array_equal(operator.truncated_values(band_peak), values)
        assert len(sizes) == 1 + depth
        # against panels of 24 points, checked alike
        monkeypatch.setattr(transforms, "_MIN_BAND_POINTS", 24)
        reference = TruncationOperator(1.0, 1, 1.1, schedule).truncated_values(band_peak)
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-11)

    def test_a_half_holds_a_fresh_band(self):
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        operator.truncated_values(band_peak)
        half = next(p for p in operator._pieces if p.index and p.depth > 0)
        fresh = transforms._Piece(half.lo, half.hi, half.index, half.nodes.size, 1.0)
        operator._fill([fresh])
        assert np.array_equal(half.nodes, fresh.nodes) and np.array_equal(half.weights, fresh.weights)
        assert np.array_equal(half.density, fresh.density)

    @pytest.mark.parametrize("lam, k, theta", [(0.3, 1, 0.7), (1.0, 2, math.pi / 2), (2.5, 3, 2.2), (2.45, 4, 2.64)])
    def test_f_linear_in_cos_splits_no_band(self, lam, k, theta):
        # riesz_pv's g is then rounding only, which the check does not chase
        operator = TruncationOperator(lam, k, theta, TruncationSchedule.geometric().epsilons)
        for f in (np.cos, lambda x: 3.0 - 2.0 * np.cos(x), band_limited(SpectralCoefficients(lam, [1.0, 1.0]))):
            riesz_pv(f, lam, k, theta, operator=operator)
            assert operator.band_estimate < 1e-9
        assert {p.depth for p in operator._pieces} == {0}

    def test_p1_near_zero_is_not_refused(self):
        # g is rounding only here too; the tanh-sinh pieces out to 0 and pi
        # chased it and refused f with a far-piece estimate of 1.5e-14
        epsilons = TruncationSchedule.geometric(0.05, 0.5, 13).epsilons
        operator = TruncationOperator(0.3, 1, 0.06, epsilons)
        f = band_limited(SpectralCoefficients(0.3, [0.0, 1.0]))
        spectral = riesz_spectral(f, 0.3, 1, 0.06, 4, build_rule(0.3, 16))
        assert riesz_pv(f, 0.3, 1, 0.06, operator=operator).value == pytest.approx(spectral, abs=1e-9)

    @pytest.mark.parametrize("start, ratio, count", [(0.2, 0.5, 6), (0.05, 0.8, 20)])
    def test_wide_bands_keep_a_polynomial(self, monkeypatch, start, ratio, count):
        # the CLI's default f at criterion 1's lambda and k on six theta: the
        # bands read its coefficients' decay, not their tail alone
        sizes = _counting_kernel(monkeypatch)
        schedule = TruncationSchedule.geometric(start, ratio, count)
        split = []
        for lam in (0.3, 0.5, 1.0, 2.5):
            f = band_limited(SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5]))
            for k in (1, 2, 3, 4):
                for theta in (0.5, 0.7, 1.2, math.pi / 2, 2.2, 2.6):
                    sizes.clear()
                    riesz_pv(f, lam, k, theta, schedule, operator=TruncationOperator(lam, k, theta, schedule.epsilons))
                    if len(sizes) != 1:
                        split.append((lam, k, theta))
        assert split == []

    def test_past_depth_7_raises_with_the_estimate(self):
        operator = TruncationOperator(1.0, 1, 1.1, TruncationSchedule.geometric().epsilons)
        spike = lambda th: 1.0 / (1.0 + ((np.asarray(th) - 1.11) / 1e-6) ** 2)  # noqa: E731
        with pytest.raises(AccuracyError, match="halved 7 times") as caught:
            operator.truncated_values(spike)
        assert _depth(operator, outer=False) == transforms._MAX_BAND_DEPTH == 7
        assert caught.value.error_bound == operator.band_estimate > 1e-7


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
        # the smallest truncation of f plus the jump constant holds the
        # identity; without gamma_k it misses by |f(theta)|
        gamma_f = kernel_constants(k).gamma_k * f(theta)
        assert result.truncated[-1] + gamma_f == pytest.approx(spectral, abs=0.02 * (1 + abs(f(theta))))
        assert abs(result.truncated[-1] - spectral) == pytest.approx(
            abs(f(theta)), abs=0.02 * (1 + abs(f(theta)))
        )
        assert result.extrapolated + result.gamma_term == pytest.approx(result.value, rel=1e-15, abs=1e-15)

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

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_value_is_g_through_the_truncations_of_f_one_and_cos(self, lam, k):
        # the operator sums g = f - a - b cos directly: the value is the one
        # the truncations of f, 1 and cos give, to rounding
        f = band_limited(SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5]))
        for theta in (0.7, 2.2):
            operator = TruncationOperator(lam, k, theta, TruncationSchedule.geometric().epsilons)
            value = riesz_pv(f, lam, k, theta, operator=operator).value
            h = operator._step
            a, b = transforms._matched_line(*f(np.array([theta - h, theta, theta + h])), theta, h)
            of_f, of_one, of_cos = (operator.truncated_values(v)[-1] for v in (f, np.ones_like, np.cos))
            jump = b * (1.0 + lam) ** -k * math.cos(theta + 0.5 * k * math.pi)
            assert abs(value - (of_f - a * of_one - b * of_cos + jump)) <= 1e-13 * (1.0 + abs(value))


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("k", range(1, 9))
def test_truncations_of_one_tend_to_minus_gamma_k(lam, k):
    # R^k 1 = 0 = lim T_eps 1 + gamma_k: the paper's jump constant from the
    # kernel alone, with no spectral value and no subtraction
    operator = TruncationOperator(lam, k, 1.1, TruncationSchedule.geometric().epsilons)
    gaps = np.abs(operator.truncated_values(np.ones_like) + kernel_constants(k).gamma_k)
    assert gaps[-1] <= 1e-2
    assert 20.0 * gaps[-1] <= gaps[0]


@pytest.fixture(scope="module")
def twelve_radius_operator():
    schedule = TruncationSchedule.geometric(0.05, 0.5, 12)
    return schedule, TruncationOperator(1.0, 3, 1.2, schedule.epsilons)


class TestOperatorBinding:
    f = staticmethod(band_limited(SpectralCoefficients(1.0, [0.0, 0.0, 1.0, 0.0, 0.5])))

    def test_fits_the_operator_radii(self, twelve_radius_operator):
        schedule, operator = twelve_radius_operator
        result = riesz_pv(self.f, 1.0, 3, 1.2, operator=operator)
        assert np.array_equal(result.epsilons, schedule.epsilons)
        assert result.truncated.size == 12
        assert result.value == riesz_pv(self.f, 1.0, 3, 1.2, schedule, operator=operator).value

    @pytest.mark.parametrize(
        "lam, k, theta, count",
        [(1.0, 2, 1.2, 12), (1.0, 3, 1.3, 12), (1.5, 3, 1.2, 12), (1.0, 3, 1.2, 9)],
        ids=["k", "theta", "lambda", "radii"],
    )
    def test_mismatched_operator_raises(self, twelve_radius_operator, lam, k, theta, count):
        _, operator = twelve_radius_operator
        schedule = TruncationSchedule.geometric(0.05, 0.5, count)
        with pytest.raises(ValueError, match="operator was built"):
            riesz_pv(self.f, lam, k, theta, schedule, operator=operator)


class TestArgumentChecks:
    f = staticmethod(band_limited(SpectralCoefficients(1.0, [0.0, 0.0, 1.0, 0.0, 0.5])))
    schedule = TruncationSchedule.geometric()

    @pytest.mark.parametrize("theta", [math.nan, 3.5])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda f, theta, schedule: TruncationOperator(1.0, 2, theta, schedule.epsilons),
            lambda f, theta, schedule: riesz_pv(f, 1.0, 2, theta, schedule),
            lambda f, theta, schedule: convergence_report(
                f, 1.0, 2, [theta], schedule, DyadicBands.dyadic(0.1, 8), 3.0, build_rule(1.0, 32)
            ),
        ],
        ids=["TruncationOperator", "riesz_pv", "convergence_report"],
    )
    def test_theta_outside_zero_pi_is_refused_by_name(self, entry, theta):
        # the panels once met it first: NaN built none ("need at least one
        # array to concatenate"), and 3.5 put a node past pi ("phi must lie ...")
        with pytest.raises(ValueError, match="theta must lie in"):
            entry(self.f, theta, self.schedule)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0])
    def test_riesz_pv_refuses_a_tolerance_that_is_not_positive(self, tolerance):
        # NaN once turned the tail check off (residual > 10 * nan is False),
        # and -1 raised an AccuracyError on a resolved tail
        with pytest.raises(ValueError, match="tolerance must be positive"):
            riesz_pv(self.f, 1.0, 2, 1.2, tolerance=tolerance)

    def test_riesz_pv_takes_an_infinite_tolerance(self):
        # the CLI's --tolerance inf reaches riesz_pv
        assert riesz_pv(self.f, 1.0, 2, 1.2, tolerance=math.inf).value == riesz_pv(self.f, 1.0, 2, 1.2).value


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSchedule(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="at least 2 radii"):
            TruncationSchedule(np.array([0.1]))

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

    @pytest.mark.parametrize("count", [2.5, 3.0])
    def test_geometric_refuses_a_non_integer_count(self, count):
        with pytest.raises(ValueError, match="radius count must be an integer"):
            TruncationSchedule.geometric(0.05, 0.5, count)

    def test_geometric_takes_a_numpy_integer_count(self):
        assert TruncationSchedule.geometric(0.05, 0.5, np.int64(4)).epsilons.size == 4


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


class CountingCallable:
    """A vectorized test function that records the argument of every call."""

    def __init__(self, f):
        self.f = f
        self.args = []

    def __call__(self, theta):
        self.args.append(theta)
        return self.f(theta)


class TestSampling:
    """f is sampled once on the node array, and values match per-node
    loops."""

    def test_several_values_per_point_are_refused(self):
        # the scalar fallback kept the first of them, and the value read 0.0
        with pytest.raises(ValueError, match=r"one value per point, got shape \(3,\)"):
            riesz_pv(lambda th: np.ones(3), 1.0, 1, 1.0)

    def test_analyze_calls_a_vectorized_f_once(self):
        rule = build_rule(1.3, 32)
        f = CountingCallable(np.cos)
        analyze(f, 1.3, 8, rule)
        assert len(f.args) == 1 and f.args[0] is rule.nodes

    def test_poisson_via_kernel_calls_a_vectorized_f_once(self):
        rule = build_rule(0.8, 32)
        f = CountingCallable(np.cos)
        poisson_via_kernel(f, 0.8, 0.5, 1.1, rule)
        assert len(f.args) == 1 and f.args[0] is rule.nodes

    def test_poisson_via_kernel_calls_the_kernel_once(self, monkeypatch):
        rule = build_rule(0.8, 32)
        calls = []

        def counting(lam, r, theta, phi):
            calls.append(phi)
            return poisson_kernel(lam, r, theta, phi)

        monkeypatch.setattr(transforms, "poisson_kernel", counting)
        poisson_via_kernel(np.cos, 0.8, 0.5, 1.1, rule)
        assert len(calls) == 1 and calls[0] is rule.nodes

    def test_scalar_only_callable(self):
        rule = build_rule(1.0, 32)
        scalar = analyze(lambda th: math.cos(th), 1.0, 6, rule)
        vectorized = analyze(np.cos, 1.0, 6, rule)
        np.testing.assert_allclose(scalar.coeffs, vectorized.coeffs, rtol=0.0, atol=1e-15)
        kernel = poisson_via_kernel(lambda th: math.cos(th), 1.0, 0.5, 1.1, rule)
        assert kernel == pytest.approx(poisson_via_kernel(np.cos, 1.0, 0.5, 1.1, rule), rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2])
    def test_pv_route_takes_a_scalar_only_callable(self, k):
        from ultrariesz import DyadicBands, convergence_report

        lam, theta = 1.0, 1.1
        schedule = TruncationSchedule.geometric(0.05, 0.5, 5)
        operator = TruncationOperator(lam, k, theta, schedule.epsilons)
        counted = CountingCallable(np.cos)
        operator.truncated_values(counted)
        assert len(counted.args) == 1
        # riesz_pv reads g's line off the operator's one sampling of f
        counted = CountingCallable(np.cos)
        riesz_pv(counted, lam, k, theta, operator=operator)
        assert len(counted.args) == 1
        scalar = lambda th: math.cos(th)  # noqa: E731
        pvs = [riesz_pv(f, lam, k, theta, operator=operator) for f in (scalar, np.cos)]
        np.testing.assert_allclose(pvs[0].truncated, pvs[1].truncated, rtol=1e-14, atol=0.0)
        assert pvs[0].value == pytest.approx(pvs[1].value, rel=1e-14, abs=0.0)
        reports = [
            convergence_report(f, lam, k, [0.8, 1.9], schedule, DyadicBands.dyadic(0.1, 8), 3.0, build_rule(lam, 32))
            for f in (scalar, np.cos)
        ]
        for got, expected in zip(reports[0].records, reports[1].records):
            for name in ("oscillation", "variation", "maximal", "pv", "spectral"):
                assert getattr(got, name) == pytest.approx(getattr(expected, name), rel=1e-14, abs=0.0)
        for p, norms in reports[1].norms.items():
            assert reports[0].norms[p] == pytest.approx(norms, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", [0.3, 2.45])
    def test_band_limited_array_equals_scalar_loop(self, lam):
        rule = build_rule(lam, 128)
        f = band_limited(SpectralCoefficients(lam, [0.5, 0.0, -1.0, 0.25, 0.0, 0.0, 2.0, 0.0, 0.1]))
        loop = np.array([f(theta) for theta in rule.nodes])
        assert np.array_equal(f(rule.nodes), loop)


def _reference_function(lam):
    return band_limited(
        SpectralCoefficients(lam, [(-1) ** n / (n + 1) if n % 4 else 0.0 for n in range(25)])
    )


class TestNormCache:
    def test_norm_cache_stays_bounded(self):
        for lam in np.linspace(0.31, 2.4, 100):
            transforms._norms(float(lam), 8)
        info = transforms._norms.cache_info()
        assert info.maxsize == 32 and info.currsize <= info.maxsize

    def test_cached_norms_are_read_only(self):
        norms = transforms._norms(1.3, 6)
        with pytest.raises(ValueError):
            norms[0] = 0.0
        assert transforms._norms(1.3, 6)[0] == math.sqrt(norm_sq(0, 1.3))


class TestReferenceValues:
    """Values recorded to 17 digits from the per-degree recurrences and
    per-node sampling these routines once used: theta 1.1, degree 24,
    rule order 128."""

    @pytest.mark.parametrize(
        "lam, k, expected",
        [
            (0.3, 1, 0.08979965875174882),
            (0.3, 6, -0.012174428661488967),
            (2.45, 1, 0.10316012322416195),
            (2.45, 6, -0.019346670866688117),
        ],
    )
    def test_riesz_spectral_band_limited(self, lam, k, expected):
        value = riesz_spectral(_reference_function(lam), lam, k, 1.1, 24, build_rule(lam, 128))
        assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "lam, k, expected",
        [
            (0.3, 1, 0.01195765417542473),
            (0.3, 6, -0.30592616251235527),
            (2.45, 1, -0.008309072418456591),
            (2.45, 6, -0.009028625526069544),
        ],
    )
    def test_riesz_spectral_analytic(self, lam, k, expected):
        def f(theta):
            return np.exp(np.cos(theta)) * np.sin(theta) ** 2

        value = riesz_spectral(f, lam, k, 1.1, 24, build_rule(lam, 128))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_poisson_via_kernel(self):
        value = poisson_via_kernel(_reference_function(0.3), 0.3, 0.4, 1.3, build_rule(0.3, 128))
        assert value == pytest.approx(-0.13745480995192624, rel=1e-14)
