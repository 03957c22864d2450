import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrariesz import Jet


def fd_derivative(f, x, order, h=1e-4):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    raise ValueError(order)


def test_variable_seed():
    jet = Jet.variable(2.0, 3)
    assert jet.coeffs == pytest.approx([2.0, 1.0, 0.0, 0.0])


def test_sin_cos_cycle():
    x = 0.9
    jet = Jet.variable(x, 5).sin()
    expected = [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x), math.sin(x), math.cos(x)]
    assert jet.coeffs == pytest.approx(expected, rel=1e-14)


def test_product_leibniz():
    x = 1.2
    jet = Jet.variable(x, 4)
    product = jet.sin() * jet.cos()
    # sin*cos = sin(2x)/2, derivatives 2^(n-1) sin/cos(2x)
    expected = [
        0.5 * math.sin(2 * x),
        math.cos(2 * x),
        -2 * math.sin(2 * x),
        -4 * math.cos(2 * x),
        8 * math.sin(2 * x),
    ]
    assert product.coeffs == pytest.approx(expected, rel=1e-13)


def test_power_composition():
    x = 1.1
    alpha = -1.7
    jet = (Jet.variable(x, 3).cos() * 2.0 + 1.0).power(alpha)
    f = lambda t: (2 * math.cos(t) + 1.0) ** alpha
    for order in (1, 2, 3):
        assert jet.coeffs[order] == pytest.approx(fd_derivative(f, x, order), rel=1e-5)


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        Jet.variable(1.0, 2) + Jet.variable(1.0, 3)


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=2.5),
)
@settings(max_examples=50, deadline=None)
def test_product_rule_property(c1, c2, x):
    order = 4
    u = Jet.variable(x, order).sin() * c1 + 2.0
    v = Jet.variable(x, order).cos() * c2 - 3.0
    lhs = (u * v).coeffs
    # Leibniz by hand
    binom = [[math.comb(n, k) for k in range(n + 1)] for n in range(order + 1)]
    rhs = [
        sum(binom[n][k] * u.coeffs[k] * v.coeffs[n - k] for k in range(n + 1))
        for n in range(order + 1)
    ]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
