import math
from fractions import Fraction

import numpy as np
import pytest

from ultrariesz import (
    KernelPoint,
    coefficients,
    expansion_eval,
    jet_oracle,
    pochhammer_factor,
    sample_points,
)
from ultrariesz.faa_di_bruno import MAX_ORDER


def _partition_vectors(ell: int):
    """All (k_1, ..., k_ell) >= 0 with sum r*k_r = ell, lexicographically."""

    def rec(position: int, remaining: int, prefix: list[int]):
        if position == ell:
            if remaining == 0:
                yield tuple(prefix)
            return
        r = position + 1
        for count in range(remaining // r + 1):
            yield from rec(position + 1, remaining - r * count, prefix + [count])

    yield from rec(0, ell, [])


def _printed_table(ell: int) -> dict[tuple[int, int, int], Fraction]:
    """The paper's printed partition form of the order-ell table: one term
    per partition of ell (k_r parts of size r), with its sign parity and
    factorials, summed by (s, i, j)."""
    entries: dict[tuple[int, int, int], Fraction] = {}
    fact = [math.factorial(m) for m in range(ell + 1)]
    for ks in _partition_vectors(ell):
        s = sum(ks)
        i = sum(ks[r - 1] for r in range(2, ell + 1, 2))
        j = sum(ks[r - 1] for r in range(1, ell + 1, 2))
        alpha = sum((r - 1) * (ks[2 * r - 2] + ks[2 * r - 1]) for r in range(2, ell // 2 + 1))
        if ell % 2 == 1:
            alpha += (ell - 1) * ks[ell - 1] // 2
        denom = 1
        for r, k_r in enumerate(ks, start=1):
            denom *= fact[k_r] * fact[r] ** k_r
        term = Fraction((-1) ** ((s + j + alpha) % 2) * 2**s * fact[ell] * fact[s], denom)
        entries[(s, i, j)] = entries.get((s, i, j), Fraction(0)) + term
    return {key: value for key, value in entries.items() if value != 0}


class TestCoefficients:
    def test_order_one(self):
        table = coefficients(1)
        assert table.entries == {(1, 0, 1): Fraction(2)}

    def test_order_two(self):
        table = coefficients(2)
        assert table.entries == {(1, 1, 0): Fraction(-2), (2, 0, 2): Fraction(8)}

    def test_order_three_pure_chain_entry(self):
        assert coefficients(3).entries[(3, 0, 3)] == Fraction(48)

    def test_support_constraints(self):
        for ell in range(1, 9):
            table = coefficients(ell)
            assert table.support_ok()
            for (s, i, j) in table.entries:
                assert 1 <= s <= ell
                assert j >= 2 * s - ell
                assert i + j == s

    @pytest.mark.parametrize("ell", range(1, MAX_ORDER + 1))
    def test_equals_the_printed_partition_formula(self, ell):
        # the order-by-order step against the paper's partition form, exactly
        table = coefficients(ell).entries
        assert table == _printed_table(ell)
        assert all(isinstance(coeff, Fraction) for coeff in table.values())
        assert list(table) == sorted(table)

    def test_rational_exactness(self):
        # every coefficient of D_r^(-1) derivatives is an even integer
        for ell in range(1, MAX_ORDER + 1):
            for coeff in coefficients(ell).entries.values():
                assert coeff.denominator == 1
                assert coeff.numerator % 2 == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            coefficients(0)
        with pytest.raises(ValueError):
            coefficients(MAX_ORDER + 1)

    def test_tables_cached(self):
        assert coefficients(4) is coefficients(4)


class TestKernelPoint:
    def test_identity_d_r(self):
        point = KernelPoint(theta=1.1, phi=0.5, r=0.7, t=2.0)
        direct = 1.0 - 2.0 * point.r * point.a + point.r**2
        assert point.d_r == pytest.approx(direct, rel=1e-14)
        assert point.d_r > 0.0
        assert abs(point.a) <= 1.0 + 1e-12

    def test_b_is_theta_derivative_of_a(self):
        h = 1e-6
        base = dict(phi=0.5, r=0.7, t=2.0)
        plus = KernelPoint(theta=1.1 + h, **base)
        minus = KernelPoint(theta=1.1 - h, **base)
        point = KernelPoint(theta=1.1, **base)
        assert point.b == pytest.approx((plus.a - minus.a) / (2 * h), abs=1e-9)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            KernelPoint(theta=0.0, phi=1.0, r=0.5, t=1.0)
        with pytest.raises(ValueError):
            KernelPoint(theta=1.0, phi=1.0, r=1.0, t=1.0)


class TestJetOracle:
    def test_order_zero(self):
        point = KernelPoint(theta=1.2, phi=0.8, r=0.4, t=1.5)
        assert jet_oracle(0, 1.0, point) == pytest.approx(point.d_r ** -2.0, rel=1e-14)

    def test_order_one_chain_rule(self):
        lam = 0.7
        point = KernelPoint(theta=1.2, phi=0.8, r=0.4, t=1.5)
        expected = 2.0 * (lam + 1.0) * point.r * point.b * point.d_r ** -(lam + 2.0)
        assert jet_oracle(1, lam, point) == pytest.approx(expected, rel=1e-13)

    def test_against_finite_differences(self):
        lam = 0.0
        h = 1e-4
        base = dict(phi=0.9, r=0.6, t=1.1)
        f = lambda th: KernelPoint(theta=th, **base).d_r ** -(lam + 1.0)
        fd2 = (f(1.3 + h) - 2 * f(1.3) + f(1.3 - h)) / h**2
        assert jet_oracle(2, lam, KernelPoint(theta=1.3, **base)) == pytest.approx(fd2, rel=1e-6)

    def test_extreme_exponent_raises(self):
        # d_r ** -(lam + 1) leaves the float range; a silent nan would be worse
        with pytest.raises(FloatingPointError):
            jet_oracle(2, 1e5, sample_points(3)[0])


class TestExpansion:
    def test_pochhammer_corrected_matches_oracle(self):
        # the correction conjecture: if this fails the tables cannot be used
        points = sample_points(50)
        for lam in (0.0, 0.5, 1.0, 2.5):
            for ell in range(1, 7):
                for point in points:
                    corrected = expansion_eval(ell, lam, point)
                    oracle = jet_oracle(ell, lam, point)
                    assert corrected == pytest.approx(
                        oracle, rel=1e-10
                    ), f"correction conjecture fails at ell={ell}, lam={lam}"

    def test_as_printed_disagrees_for_positive_lambda(self):
        # the paper's erratum: its table, read verbatim (no Pochhammer
        # factor), is the derivative only at lam = 0
        lam, point = 1.0, sample_points(1)[0]
        r, a, b, d = point.r, point.a, point.b, point.d_r
        printed = sum(
            float(c) * r ** (i + j) * a**i * b**j * d ** -(lam + 1.0 + s)
            for (s, i, j), c in coefficients(2).entries.items()
        )
        oracle = jet_oracle(2, lam, point)
        assert abs(printed - oracle) > 1e-6 * abs(oracle)
        assert expansion_eval(2, lam, point) == pytest.approx(oracle, rel=1e-10)

    def test_order_zero_is_the_power_itself(self):
        point = KernelPoint(theta=1.2, phi=0.8, r=0.4, t=1.5)
        assert expansion_eval(0, 1.0, point) == point.d_r**-2.0

    def test_pochhammer_factor_values(self):
        assert pochhammer_factor(0.0, 3) == pytest.approx(1.0)
        assert pochhammer_factor(1.0, 2) == pytest.approx((2.0 * 3.0) / 2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda point: jet_oracle(2, math.nan, point),
            lambda point: expansion_eval(2, math.nan, point),
            # the term layout's cache once keyed True and 1.0 as order 1
            lambda point: (expansion_eval(1, 1.0, point), expansion_eval(True, 1.0, point)),
            lambda point: (expansion_eval(1, 1.0, point), expansion_eval(1.0, 1.0, point)),
            lambda point: pochhammer_factor(1.0, -1),
            lambda point: pochhammer_factor(1.0, 2.5),
            lambda point: pochhammer_factor(1.0, True),
            lambda point: pochhammer_factor(math.nan, 2),
        ],
        ids=["jet_oracle-nan", "expansion_eval-nan", "expansion_eval-bool", "expansion_eval-float",
             "pochhammer-negative", "pochhammer-float", "pochhammer-bool", "pochhammer-nan"],
    )
    def test_arguments_are_refused_by_name(self, call):
        # each of these returned a value (nan, or order 1's, or 1.0) or
        # raised TypeError
        with pytest.raises(ValueError, match="exponent parameter|derivative order|s must be"):
            call(sample_points(1)[0])

    def test_reflection_parity(self):
        # reflecting both angles flips the sign of b and hence multiplies
        # each (s, i, j) term by (-1)^j; the jet oracle must track it
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = float(rng.uniform(0.3, math.pi - 0.3))
            phi = float(rng.uniform(0.3, math.pi - 0.3))
            r = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.1, math.pi - 0.1))
            point = KernelPoint(theta=theta, phi=phi, r=r, t=t)
            mirror = KernelPoint(theta=math.pi - theta, phi=math.pi - phi, r=r, t=t)
            assert mirror.a == pytest.approx(point.a, rel=1e-12)
            assert mirror.b == pytest.approx(-point.b, rel=1e-12)
            for ell in (1, 2, 3):
                direct = expansion_eval(ell, 0.5, mirror)
                flipped = sum(
                    float(c)
                    * pochhammer_factor(0.5, s)
                    * point.r ** (i + j)
                    * point.a**i
                    * (-point.b) ** j
                    * point.d_r ** -(0.5 + 1.0 + s)
                    for (s, i, j), c in coefficients(ell).entries.items()
                )
                assert direct == pytest.approx(flipped, rel=1e-11)
