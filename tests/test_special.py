import math

import numpy as np
import pytest

from ultrariesz import (
    beta,
    build_rule,
    gegenbauer_eval,
    gegenbauer_theta_jets,
    integrate,
    norm_sq,
    total_mass,
)
from ultrariesz import special
from ultrariesz.jets import Jet
from ultrariesz.special import _cos_leibniz


def _jet_object_recurrence(n_max, lam, theta, order):
    """The three-term recurrence run on Jet objects: the reference the array
    recurrence must reproduce."""
    x = Jet.variable(theta, order).cos()
    p = Jet.constant(1.0, order)
    out = [p]
    if n_max >= 1:
        p_prev, p = p, 2.0 * lam * x
        out.append(p)
    for m in range(2, n_max + 1):
        p, p_prev = (2.0 * (m + lam - 1.0) * x * p - (m + 2.0 * lam - 2.0) * p_prev) / m, p
        out.append(p)
    return out


class TestGegenbauerEval:
    def test_degree_zero_is_one(self):
        assert gegenbauer_eval(0, 0.7, 0.3) == 1.0

    def test_degree_one_matches_generating_series(self):
        assert gegenbauer_eval(1, 0.7, 0.3) == pytest.approx(2 * 0.7 * 0.3, rel=1e-15)

    def test_degree_two_closed_form_root(self):
        # 2*lam*(lam+1)*x^2 - lam vanishes at lam=1, x=0.5
        assert gegenbauer_eval(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_generating_function_series(self):
        # sum_n w^n P_n(x) must reproduce (1 - 2xw + w^2)^(-lam)
        lam, x, w = 0.8, 0.4, 0.3
        series = sum(w**n * gegenbauer_eval(n, lam, x) for n in range(80))
        assert series == pytest.approx((1 - 2 * x * w + w * w) ** -lam, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1, 1, 7)
        vals = gegenbauer_eval(5, 1.3, xs)
        assert vals == pytest.approx([gegenbauer_eval(5, 1.3, float(x)) for x in xs])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(3, 1.0, 1.1)
        with pytest.raises(ValueError):
            gegenbauer_eval(3, -1.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(-1, 1.0, 0.5)


def _row(n, lam, theta, order):
    """P_n(cos(theta)) and its first ``order`` theta-derivatives."""
    return gegenbauer_theta_jets(n, lam, theta, order)[n]


class TestThetaJets:
    def test_constant_jet(self):
        assert _row(0, 0.9, 1.0, 3) == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_degree_one_derivative(self):
        row = _row(1, 0.5, math.pi / 2, 1)
        assert row[0] == pytest.approx(0.0, abs=1e-14)
        assert row[1] == pytest.approx(-1.0, rel=1e-14)

    def test_second_derivative_against_finite_differences(self):
        lam, theta, h = 1.0, 1.1, 1e-4
        row = _row(2, lam, theta, 2)
        p = lambda t: gegenbauer_eval(2, lam, math.cos(t))
        fd = (p(theta + h) - 2 * p(theta) + p(theta - h)) / h**2
        assert row[2] == pytest.approx(fd, abs=1e-6)

    def test_random_orders_against_finite_differences(self):
        # steps widen with the order: an h**-order cancellation noise floor
        # makes the natural 1e-4 step unusable beyond second derivatives
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 11))
            lam = float(rng.uniform(0.2, 3.0))
            theta = float(rng.uniform(0.5, math.pi - 0.5))
            row = _row(n, lam, theta, 4)
            p = lambda t: gegenbauer_eval(n, lam, math.cos(t))
            h, hw = 1e-4, 2e-3
            stencils = {
                1: (p(theta + h) - p(theta - h)) / (2 * h),
                2: (p(theta + h) - 2 * p(theta) + p(theta - h)) / h**2,
                3: (p(theta + 2 * hw) - 2 * p(theta + hw) + 2 * p(theta - hw) - p(theta - 2 * hw))
                / (2 * hw**3),
                4: (
                    p(theta + 2 * hw)
                    - 4 * p(theta + hw)
                    + 6 * p(theta)
                    - 4 * p(theta - hw)
                    + p(theta - 2 * hw)
                )
                / hw**4,
            }
            scale = max(1.0, float(np.max(np.abs(row))))
            for order, fd in stencils.items():
                tol = 1e-5 if order <= 2 else 1e-4
                assert row[order] == pytest.approx(fd, abs=tol * scale)

    def test_first_derivative_identity(self):
        # d/dtheta P_n(cos theta) = -2 lam sin(theta) P_{n-1}^{lam+1}(cos theta)
        for lam in (0.3, 1.0, 2.2):
            rows = gegenbauer_theta_jets(12, lam, 0.9, 1)
            for n in range(1, 13):
                rhs = -2 * lam * math.sin(0.9) * gegenbauer_eval(n - 1, lam + 1, math.cos(0.9))
                assert rows[n, 1] == pytest.approx(rhs, rel=1e-10)

    def test_batch_matches_single(self):
        # a row does not depend on how far past its degree the batch runs
        rows = gegenbauer_theta_jets(6, 0.7, 1.3, 2)
        assert rows[4] == pytest.approx(gegenbauer_theta_jets(4, 0.7, 1.3, 2)[-1])

    @pytest.mark.parametrize("n_max", [0, 1, 2, 30, 60])
    @pytest.mark.parametrize("order", [0, 1, 6, 12])
    def test_matches_jet_object_recurrence(self, n_max, order):
        for theta in (1e-3, 1.1, math.pi - 1e-3):
            for lam in (0.05, 0.3, 2.45, 10.0):
                rows = gegenbauer_theta_jets(n_max, lam, theta, order)
                reference = _jet_object_recurrence(n_max, lam, theta, order)
                assert rows.shape == (len(reference), order + 1) == (n_max + 1, order + 1)
                for row, ref in zip(rows, reference):
                    scale = float(np.max(np.abs(ref.coeffs)))
                    assert np.max(np.abs(row - ref.coeffs)) <= 1e-13 * scale

    @pytest.mark.parametrize("order", [0, 1, 6, 12])
    def test_cos_rows_match_jet_cos(self, order):
        for theta in (1e-3, 1.1, math.pi - 1e-3):
            cos_jet = _cos_leibniz(theta, order)[:, 0]
            assert np.max(np.abs(cos_jet - Jet.variable(theta, order).cos().coeffs)) <= 1e-15

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            gegenbauer_theta_jets(3, 1.0, 1.0, -1)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="degree"):
            gegenbauer_theta_jets(-1, 1.0, 1.0, 2)


class TestNorms:
    def test_constant_lambda_half(self):
        assert norm_sq(0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_constant_lambda_one(self):
        assert norm_sq(0, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_against_quadrature(self):
        lam = 0.8
        rule = build_rule(lam, 32)
        value = integrate(rule, lambda th: gegenbauer_eval(3, lam, np.cos(th)) ** 2)
        assert value == pytest.approx(norm_sq(3, lam), rel=1e-10)

    def test_orthogonality(self):
        for lam in (0.3, 0.5, 1.0, 2.5):
            rule = build_rule(lam, 64)
            values = {
                n: gegenbauer_eval(n, lam, np.cos(rule.nodes)) for n in range(16)
            }
            for n in range(16):
                for m in range(n + 1, 16):
                    inner = float(np.dot(rule.weights, values[n] * values[m]))
                    assert abs(inner) < 1e-9


class TestLargeLambdaMasses:
    @pytest.mark.parametrize("lam", [1e6, 1e12, 2.7e16])
    def test_total_mass_follows_the_asymptotic_series(self, lam):
        # past ~4.5e15, lam + 1/2 and lam + 1 round to lam, and an lgamma
        # difference returned sqrt(pi) at 2.7e16
        expected = math.sqrt(math.pi / lam) * (1.0 - 1.0 / (8.0 * lam) + 1.0 / (128.0 * lam**2))
        assert total_mass(lam) == pytest.approx(expected, rel=4e-16)

    @pytest.mark.parametrize("lam", [0.25, 0.3, 1.0, 2.45, 29.9, 30.0, 1e3, 1e6, 1e12, 2.7e16, 1e300])
    def test_norm_of_the_constant_is_the_total_mass(self, lam):
        assert norm_sq(0, lam) == total_mass(lam)

    def test_series_meets_the_lgamma_difference_at_its_threshold(self):
        # the two sides of special._RATIO_SERIES_FROM agree, each to ~1e-14
        below = math.nextafter(special._RATIO_SERIES_FROM, 0.0)
        assert special._gamma_half_ratio(below) == pytest.approx(
            special._gamma_half_ratio(special._RATIO_SERIES_FROM), rel=2e-14
        )

    @pytest.mark.parametrize("n", [1, 10, 40])
    @pytest.mark.parametrize("lam", [0.3, 2.45, 25.0])
    def test_norm_sq_matches_the_classical_closed_form(self, n, lam):
        log_value = (
            math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0) + math.lgamma(n + 2.0 * lam)
            - math.lgamma(n + 1.0) - math.log(n + lam) - 2.0 * math.lgamma(lam)
        )
        assert norm_sq(n, lam) == pytest.approx(math.exp(log_value), rel=1e-13)

    def test_large_lambda_norm_keeps_its_digits(self):
        # norm_sq(1, lam) = total mass * lam / (1 + lam) * 2 lam
        lam = 1e12
        expected = 2.0 * math.sqrt(math.pi * lam) * (1.0 - 1.0 / (8.0 * lam)) / (1.0 + 1.0 / lam)
        assert norm_sq(1, lam) == pytest.approx(expected, rel=1e-15)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            norm_sq(40, 2.7e16)


class TestGammaBeta:
    def test_beta_trivial(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_beta_half_half(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_beta_gamma_recursion(self):
        # B(2, 1/2) = Gamma(2)Gamma(1/2)/Gamma(5/2) = 4/3
        assert beta(2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0)
        with pytest.raises(ValueError):
            beta(-1.0, 2.0)
