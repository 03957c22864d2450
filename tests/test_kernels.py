import json
import math
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ultrariesz import (
    AccuracyError,
    EvaluationError,
    TruncationOperator,
    TruncationSchedule,
    beta,
    build_rule,
    circle_H,
    circle_R,
    envelope_residual,
    h_limit_even,
    kernel_constants,
    kernel_partial,
    m_k_estimate,
    poisson_kernel,
    region_classify,
    riesz_kernel,
    singular_integrate,
)
from ultrariesz import kernels, transforms
from ultrariesz.jets import Jet
from ultrariesz.faa_di_bruno import _term_layout
from ultrariesz.kernels import DEFAULT_KERNEL_CONFIG, KernelConfig, _t_table
from ultrariesz.quadrature import _bernstein_points, _gauss_jacobi, _ts_table, gauss_legendre_segment, tanh_sinh_segment

#: long-double sums of the kernel at _NODE_THETA and the first three
#: _NODE_PHIS, written by tests/data/make_kernel_reference.py
_REFERENCE = Path(__file__).parent / "data" / "kernel_reference.json"

#: the points of test_operator_node_values: besides 2e-5 off the diagonal
#: on either side, nodes of the theta = 1.2 operator of the default schedule
#: as it was built with 24 points per band: three band nodes, three far
#: nodes, and two each near 0 and near pi
_NODE_THETA = 1.2
_NODE_PHIS = np.array([
    1.19998, 1.2000199999999999, 1.200201340375781,
    1.1900277535391448, 1.23988898584342, 1.1393365253394676,
    0.4908096590329119, 2.2884123778056136, 0.0008888299585738009,
    1.1572160658991341e-08, 3.1407085198314006, 3.1415926430684378,
])

#: riesz_kernel at (_NODE_THETA, _NODE_PHIS) per (lambda, k).  The last nine
#: of each row were recorded with whole (r, t) grids, before each phi's grid
#: was trimmed to the cells that carry mass; the first three when every phi
#: took the Gauss rule of its own weight on (0, 1/2) and the package's
#: Gauss-Legendre rule above it, within 1.1e-15 (odd k) and 1.7e-11 (even k)
#: relative of _REFERENCE; of those, the ones that moved past 1e-12 of their
#: row's scale, the first three at (0.3, 2) and (0.3, 4), the first at
#: (2.45, 2) and the first two at (2.45, 4), when the t-table's columns took
#: the powers of q past its first panel, within 1.9e-11 of _REFERENCE
_NODE_RECORDS = {
    (0.3, 1): [
        -16602.5018305018, 16601.440617590375, 1648.7036739360985,
        -33.58945007882067, 8.097323283469098, -5.707523865598425,
        -0.7046784415765862, 0.28679859023457166, -0.5909922816392994,
        -0.5909919710429982, 0.22026900010843256, 0.2202689439215337,
    ],
    (0.3, 2): [
        0.6168893609451873, 0.3735600676207303, 0.37354765319683275,
        0.6164469844726833, 0.37161651928784517, 0.6142798138054159,
        0.5956995473005189, 0.33961963685539004, 0.5916577332653816,
        0.5916577201190668, 0.33263463878756044, 0.33263463147452454,
    ],
    (0.3, 3): [
        16603.162361384744, -16600.779924990005, -1648.2214045113858,
        33.75363256430613, -7.978811503762476, 5.683536773302964,
        0.2821990619067571, -0.1080039554881594, 0.11834298125463145,
        0.11834251581300645, -0.019938239969912872, -0.01993816222345657,
    ],
    (0.3, 4): [
        -1.052292605431569, -0.5656480769061586, -0.5655904756561183,
        -1.0405540309569032, -0.5462551002567175, -0.9824868680547134,
        -0.48806891293344556, -0.2309721653903535, -0.3813625630500093,
        -0.3813622164919528, -0.16359450181996668, -0.16359443158306158,
    ],
    (2.45, 1): [
        -22474.175803648093, 22464.773380107854, 2228.2754037195596,
        -47.08656601381439, 9.764494496114251, -8.615236299584971,
        -0.9567187480207814, 0.0951588233578648, -0.7484091650160286,
        -0.7484085931472784, 0.05452873413257176, 0.05452870330236807,
    ],
    (2.45, 2): [
        3.797033732163597, 1.1075692383305247, 1.107633829396999,
        3.7461099029009013, 0.9890522000006219, 3.5018449065452044,
        1.9739434796424635, 0.16260791847450734, 1.7442495639452373,
        1.7442488629806447, 0.11105330335159794, 0.11105325919277226,
    ],
    (2.45, 3): [
        22480.939130728482, -22458.01638628081, -2223.48241513117,
        48.280811069841825, -8.835186507568883, 7.67546414796446,
        -2.236086202638253, 0.14967332001463257, -2.400309228343029,
        -2.40030956247695, 0.13486906295197237, 0.1348690416113663,
    ],
    (2.45, 4): [
        -7.293186345527685, -1.9146037882642524, -1.9023174532422107,
        -6.99150246439664, -1.6008979330179083, -5.640446486295127,
        1.5024622373667442, 0.08448070619827731, 2.3047926100150855,
        2.304794908341411, 0.125093748664147, 0.12509377270325242,
    ],
}


class TestConstants:
    def test_gamma_parity(self):
        assert kernel_constants(1).gamma_k == 0.0
        assert kernel_constants(2).gamma_k == -1.0
        assert kernel_constants(3).gamma_k == 0.0
        assert kernel_constants(4).gamma_k == 1.0

    def test_beta_from_gamma(self):
        assert kernel_constants(2).beta_k == pytest.approx(-2 * math.pi)
        assert kernel_constants(4).beta_k == pytest.approx(2 * math.pi * 6)
        assert kernel_constants(3).beta_k == 0.0

    def test_h_limit_values(self):
        assert h_limit_even(2) == pytest.approx(-math.pi)
        assert h_limit_even(4) == pytest.approx(6 * math.pi)
        assert h_limit_even(6) == pytest.approx(-120 * math.pi)

    def test_h_limit_odd_rejected(self):
        with pytest.raises(ValueError):
            h_limit_even(3)

    @pytest.mark.parametrize("k", [2.5, 0, 4.0])
    @pytest.mark.parametrize(
        "entry",
        [
            kernel_constants,
            h_limit_even,
            m_k_estimate,
            lambda k: kernel_partial(1.0, k, 0, 1.2, 0.5),
            lambda k: riesz_kernel(1.0, k, 1.2, 0.5),
            lambda k: circle_H(k, 0.7),
            lambda k: circle_R(k, 1.2, 0.7),
            lambda k: transforms.riesz_spectral(np.cos, 1.0, k, 1.2, 8, build_rule(1.0, 32)),
            lambda k: TruncationOperator(1.0, k, 1.2, TruncationSchedule.geometric().epsilons),
        ],
        ids=["kernel_constants", "h_limit_even", "m_k_estimate", "kernel_partial", "riesz_kernel", "circle_H",
             "circle_R", "riesz_spectral", "TruncationOperator"],
    )
    def test_order_must_be_a_positive_integer(self, entry, k):
        # unchecked, a float order passes as its parity (m_k_estimate(2.5) is
        # 0) or its floor (TruncationOperator's k), or fails deep inside
        with pytest.raises(ValueError, match="positive integer"):
            entry(k)

    def test_numpy_integer_orders(self):
        assert kernel_constants(np.int64(2)).gamma_k == -1.0
        assert m_k_estimate(np.int32(3)) == m_k_estimate(3)


class TestPoissonKernel:
    def test_r_zero_lambda_half(self):
        assert poisson_kernel(0.5, 0.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-10)

    def test_r_zero_general(self):
        lam = 0.8
        expected = lam / math.pi * beta(lam, 0.5)
        assert poisson_kernel(lam, 0.0, 1.0, 2.5) == pytest.approx(expected, rel=1e-10)

    def test_mass_identity(self):
        # integral of the kernel against dm_lambda is exactly one; the rule
        # must resolve the kernel's width ~ (1 - r), hence the high order
        for lam in (0.5, 1.0):
            rule = build_rule(lam, 128)
            for r in (0.1, 0.5, 0.9):
                mass = float(np.dot(rule.weights, poisson_kernel(lam, r, 1.0, rule.nodes)))
                assert mass == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta, phi = rng.uniform(0.2, math.pi - 0.2, 2)
            r = float(rng.uniform(0.05, 0.95))
            a = poisson_kernel(1.3, r, float(theta), float(phi))
            b = poisson_kernel(1.3, r, float(phi), float(theta))
            assert a == pytest.approx(b, rel=1e-12)

    def test_positivity_grid(self):
        for lam in (0.3, 1.0, 2.5):
            for theta in np.linspace(0.2, math.pi - 0.2, 10):
                for r in (0.2, 0.6, 0.9):
                    assert poisson_kernel(lam, r, float(theta), 1.1) > 0.0

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.45])
    def test_array_phi_matches_the_scalar_loop(self, lam):
        # each entry reads the order-0 t-table on its own, but numpy sums a
        # lone phi's barycentric terms pairwise and a batch's in order, so
        # only the summation order may differ
        nodes = build_rule(lam, 128).nodes
        for t in (0.1, 1.0):
            r = math.exp(-t)
            for theta in (0.6, 1.6, 2.6):
                batch = poisson_kernel(lam, r, theta, nodes)
                loop = np.array([poisson_kernel(lam, r, theta, float(phi)) for phi in nodes])
                np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)

    def test_scalar_phi_returns_a_float(self):
        value = poisson_kernel(1.0, 0.5, 1.2, 0.7)
        assert type(value) is float
        assert poisson_kernel(1.0, 0.5, 1.2, np.array([0.7, 2.0]))[0] == value

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.5, 4.0])
    def test_array_phi_outside_the_interval_raises(self, bad):
        with pytest.raises(ValueError, match="phi"):
            poisson_kernel(1.0, 0.5, 1.2, np.array([0.7, bad, 2.0]))

    @pytest.mark.parametrize(
        "lam, t, theta, phi, expected",
        [
            # (lam/pi) (1 - r^2) 2**(2 lam - 1) B(lam, lam) Delta**(-lam - 1)
            # * 2F1(lam + 1, lam; 2 lam; -4 r sin(theta) sin(phi) / Delta),
            # r = exp(-t), evaluated at 30 significant digits
            (0.3, 0.1, 0.6, 1.1, 0.1736832028595545274732561),
            (0.3, 1.0, 2.6, 0.2, 0.1815572749834970417695126),
            (1.0, 1.0, 1.6, 0.4, 0.4395658982659899720828805),
            (1.0, 0.1, 1.6, 1.6, 3.515001463664358349390859),
            (2.45, 0.1, 2.6, 2.0, 0.2471598982537479028427581),
            (2.45, 1.0, 0.6, 2.9, 0.1229897145270212851585107),
            # r near 1, where the table reaches furthest; z is largest on the
            # diagonal phi = theta
            (0.3, 1e-3, 0.6, 0.6, 448.6601328044741589473965),
            (1.0, 1e-3, 1.6, 1.6, 318.9002002755722444453206),
            (1.0, 1e-3, 1.6, 1.55, 0.1274291575536008272576159),
            (2.45, 1e-3, 2.6, 2.6, 8202.942817791217710523811),
            (2.45, 1e-3, 0.6, 2.9, 0.00002253815022079887664231755),
        ],
    )
    def test_hypergeometric_closed_form(self, lam, t, theta, phi, expected):
        assert poisson_kernel(lam, math.exp(-t), theta, phi) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.45])
    def test_reach_table_matches_the_full_reach_table(self, lam):
        # panels sit at fixed v, so a nearer guard only appends panels, and
        # the shared ones agree bit for bit: every row is summed in a full
        # chunk of the same shape (with a short last chunk, 11 entries of
        # these tables differed, by up to 3.5e-16 relative)
        full = _t_table(lam, 0, DEFAULT_KERNEL_CONFIG.t_level, 1e-9)
        for guard in (1.0, 0.5, 1.0 - math.exp(-0.1), 0.1, 0.01, 1.0 - math.exp(-1e-3)):
            table = _t_table(lam, 0, DEFAULT_KERNEL_CONFIG.t_level, guard)
            assert table.shape[2] < full.shape[2]
            assert np.array_equal(table, full[:, :, : table.shape[2]]), guard

    @pytest.mark.parametrize("lam", [0.2, 0.05, 1e-3])
    def test_lambda_below_the_t_table_floor_raises(self, lam):
        with pytest.raises(AccuracyError, match="below 0.25"):
            poisson_kernel(lam, 0.5, 1.2, 0.7)
        with pytest.raises(AccuracyError, match="below 0.25"):
            riesz_kernel(lam, 1, 1.2, 0.7)
        with pytest.raises(AccuracyError, match="below 0.25"):
            kernel_partial(lam, 2, 0, 1.2, np.array([0.7, 2.0]))
        # the floor itself is served
        assert poisson_kernel(0.25, 0.5, 1.2, 0.7) > 0.0


def test_the_kernel_sums_the_table_expansion_eval_checks():
    assert kernels._term_layout is _term_layout


def test_layout_cache_stays_bounded():
    for lam in np.linspace(0.31, 2.4, 100):
        _term_layout(1, float(lam))
    info = _term_layout.cache_info()
    assert info.maxsize >= 64 and info.currsize <= info.maxsize


class TestRieszKernel:
    def test_parity_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            lam = float(rng.uniform(0.3, 2.5))
            k = int(rng.integers(1, 5))
            theta = float(rng.uniform(0.3, math.pi - 0.3))
            phi = float(rng.uniform(0.3, math.pi - 0.3))
            if abs(theta - phi) < 0.05:
                continue
            value = riesz_kernel(lam, k, theta, phi)
            mirror = riesz_kernel(lam, k, math.pi - theta, math.pi - phi)
            assert value == pytest.approx((-1) ** k * mirror, rel=1e-8)

    def test_nested_quadrature_oracle_order_one(self):
        # independent route: differentiate the Poisson integrand by jets and
        # integrate r and t adaptively, nothing shared with the 2-D engine
        lam, theta, phi = 1.0, 1.2, 0.7

        def dtheta_poisson(r):
            def inner(t_val):
                jet = Jet.variable(theta, 1)
                a = jet.cos() * math.cos(phi) + jet.sin() * (math.sin(phi) * math.cos(t_val))
                d = 1.0 - 2.0 * r * a + r * r
                return float(
                    math.sin(t_val) ** (2 * lam - 1) * d.power(-(lam + 1.0)).coeffs[1]
                )

            t_integral = singular_integrate(inner, 0.0, math.pi, tol=1e-9)
            return lam / math.pi * (1 - r * r) * t_integral

        oracle = singular_integrate(
            lambda r: r ** (lam - 1.0) * dtheta_poisson(float(r)), 0.0, 1.0, tol=1e-8
        )
        assert riesz_kernel(lam, 1, theta, phi) == pytest.approx(oracle, rel=1e-6)

    def test_far_field_bounded_by_envelope(self):
        # A1 samples: |K| <= C (sin phi)^-(2 lam + 1) with a stable constant
        lam, k = 0.5, 2
        ratios = [
            abs(riesz_kernel(lam, k, 0.2, phi)) * math.sin(phi) ** (2 * lam + 1)
            for phi in np.linspace(2.2, 2.9, 6)
        ]
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) < 100.0

    def test_diagonal_guard(self):
        with pytest.raises(ValueError):
            riesz_kernel(1.0, 1, 1.0, 1.0)
        with pytest.raises(AccuracyError):
            riesz_kernel(1.0, 1, 1.0, 1.0 + 5e-6)

    def test_resolution_stability(self):
        value = riesz_kernel(0.7, 3, 1.4, 0.9)
        doubled = riesz_kernel(0.7, 3, 1.4, 0.9, config=DEFAULT_KERNEL_CONFIG.doubled())
        assert value == pytest.approx(doubled, rel=1e-9)

    def test_partial_order_validation(self):
        with pytest.raises(ValueError):
            kernel_partial(1.0, 2, 3, 1.0, 0.5)
        # the t-table reaches z ~ 1 / min_separation**2
        with pytest.raises(ValueError, match="min_separation"):
            kernel_partial(1.0, 2, 1, 1.0, 0.5, config=KernelConfig(min_separation=0.0))

    @pytest.mark.parametrize("ell", [1.5, 1.0, np.float64(1.0), "1", None])
    def test_derivative_order_must_be_an_integer(self, ell):
        # a float ell once ended in a TypeError inside the term layout
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            kernel_partial(1.0, 2, ell, 1.0, 0.5)

    def test_numpy_integer_derivative_order(self):
        assert kernel_partial(1.0, 2, np.int64(1), 1.0, 0.5) == kernel_partial(1.0, 2, 1, 1.0, 0.5)

    def test_array_phi_equals_scalar_loop(self):
        theta = 1.1
        phis = np.array([0.05, 0.4, 1.0, theta - 2e-5, theta + 3e-3, 1.7, 2.9])
        for k in range(1, 5):
            for ell in sorted({0, k - 1, k}):
                values = kernel_partial(0.8, k, ell, theta, phis)
                loop = [kernel_partial(0.8, k, ell, theta, float(phi)) for phi in phis]
                assert all(type(v) is float for v in loop)
                assert values.shape == phis.shape
                assert np.array_equal(values, np.array(loop)), (k, ell)
        # the ~306 phi of each of two default operators, shuffled: many blocks
        # of kernels._PHI_BLOCK, and every phi in a block of other phi
        phis = np.concatenate([_phi_batch(0.8, 3, theta)[0] for theta in (1.2, 1.3)])
        assert phis.size > 10 * kernels._PHI_BLOCK
        shuffled = np.random.default_rng(5).permutation(phis)
        values = kernel_partial(0.8, 3, 3, 1.2, shuffled)
        loop = np.array([kernel_partial(0.8, 3, 3, 1.2, float(phi)) for phi in shuffled])
        assert np.array_equal(values, loop)
        order = np.argsort(shuffled)
        assert np.array_equal(values[order], kernel_partial(0.8, 3, 3, 1.2, shuffled[order]))

    def test_reference_values(self):
        # recorded from the term-by-term s-sum engine before it took Horner
        # form; (lam, k, theta, phi, value), near the diagonal and up to k = 12.
        # The k = 2 value was re-recorded when the r-rule took Gauss-Legendre
        # above its split: it moved 1.7e-11 relative, toward a long-double
        # plain double sum on the same t-rule (2.2e-11 -> 5.1e-12 off it)
        reference = [
            (1.0, 1, 1.2, 1.2 + 2e-5, 18319.4128632513),
            (0.3, 2, 0.8, 0.799, 1.045721326184431),
            (2.4, 3, math.pi - 0.5, math.pi - 0.49, -1346.0258286187084),
            (0.7, 4, 1.4, 0.9, -0.5920574954272354),
            (1.5, 8, 1.0, 1.05, -1.7889534909347988),
            (0.5, 12, 2.0, 2.3, -0.6206190848966013),
        ]
        for lam, k, theta, phi, expected in reference:
            assert riesz_kernel(lam, k, theta, phi) == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_operator_node_values(self):
        # the records against the kernel; the three phi within 2.1e-4 of
        # theta also against the long-double sums of
        # tests/data/kernel_reference.json, which resolve them to ~1e-14
        # where the double kernel cancels terms ~1e5 times itself at even k
        worst = {0: 0.0, 1: 0.0}
        for row in json.loads(_REFERENCE.read_text())["values"]:
            lam, k, exact = row["lambda"], row["k"], np.array(row["values"])
            error = np.abs(np.array(_NODE_RECORDS[(lam, k)][:3]) - exact) / np.abs(exact)
            assert np.all(error <= (3e-15 if k % 2 else 1e-10)), (lam, k, error)
            worst[k % 2] = max(worst[k % 2], float(error.max()))
        # never less accurate, per parity, than the records these replaced:
        # 1.534e-15 at odd k and 2.573e-11 at even k off the reference
        assert worst[1] <= 1.534e-15 and worst[0] <= 2.573e-11, worst
        for (lam, k), expected in _NODE_RECORDS.items():
            values = riesz_kernel(lam, k, _NODE_THETA, _NODE_PHIS)
            scale = max(abs(v) for v in expected)
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12 * scale, err_msg=f"{lam}, {k}")

    def test_reference_holds_the_node_points(self):
        # a reference summed on another t-rule, or at other points, would
        # gate the records against values of another discretization
        document = json.loads(_REFERENCE.read_text())
        assert document["t_level"] == DEFAULT_KERNEL_CONFIG.t_level
        assert document["theta"] == _NODE_THETA
        assert document["phi"] == _NODE_PHIS[:3].tolist()
        assert [(row["lambda"], row["k"]) for row in document["values"]] == list(_NODE_RECORDS)
        assert all(len(row["values"]) == 3 for row in document["values"])

    def test_array_guards_check_every_entry(self):
        with pytest.raises(ValueError, match="diagonal"):
            riesz_kernel(1.0, 1, 1.0, np.array([0.5, 1.0]))
        with pytest.raises(AccuracyError):
            riesz_kernel(1.0, 1, 1.0, np.array([0.5, 1.0 + 5e-6]))
        with pytest.raises(ValueError, match="phi"):
            riesz_kernel(1.0, 1, 1.0, np.array([0.5, math.pi]))
        with pytest.raises(ValueError, match="1-D"):
            riesz_kernel(1.0, 1, 1.0, np.full((2, 2), 0.5))


def _plain_double_sum(lam, k, ell, theta, phi, config):
    """kernel_partial as the plain double sum over its (r, t) grid: tanh-sinh
    in t, the kernel's own Gauss rule in r on (0, 1/2) (its weights carry
    r**(lam-1) log(1/r)**(k-1)), and Gauss-Legendre in r on the graded panels
    of (1/2, 1 - w) and on (1 - w, 1), placed by their distance 1 - r; every
    cell's d**-(lam+1+s) with P_s(t) evaluated at the node, nothing
    tabulated or interpolated."""
    t, t_weights = tanh_sinh_segment(0.0, math.pi, config.t_level)
    one_minus_cos_t = 2.0 * np.sin(0.5 * t) ** 2
    t_fac = np.sin(t) ** (2.0 * lam - 1.0) * t_weights
    sep = min(abs(theta - phi), 0.5)
    lower, _, lower_fac = kernels._lower_rule(lam, k, config.r_level)
    panels = math.ceil(math.log(0.5 / sep) / math.log(kernels._GRADING))
    edges = [sep * (0.5 / sep) ** (j / panels) for j in range(panels)] + [0.5]
    upper = [gauss_legendre_segment(near, far, kernels._GRADED_POINTS) for near, far in zip(edges, edges[1:])]
    upper.append(gauss_legendre_segment(0.0, sep, kernels._UPPER_POINTS))
    dist = np.concatenate([nodes for nodes, _ in upper])
    r_upper = 1.0 - dist
    upper_weights = np.concatenate([w for _, w in upper])
    upper_fac = r_upper ** (lam - 1.0) * (-np.log1p(-dist)) ** (k - 1) * (dist * (1.0 + r_upper)) * upper_weights
    r, one_minus_r = np.concatenate([lower, r_upper]), np.concatenate([1.0 - lower, dist])
    r_fac = np.concatenate([lower_fac, upper_fac])
    w = theta - phi
    sigma = math.sin(theta) * math.sin(phi)
    one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2
    d = (one_minus_r**2 + 2.0 * r * one_minus_cos_w)[:, None] + 2.0 * sigma * r[:, None] * one_minus_cos_t
    a = (1.0 - one_minus_cos_w) - sigma * one_minus_cos_t
    b = -math.sin(w) - math.cos(theta) * math.sin(phi) * one_minus_cos_t
    cells = np.zeros_like(d)
    for s, terms in _term_layout(ell, lam).items():
        poly = sum(coeff * a**i * b**j for coeff, i, j in terms)
        cells += poly * r[:, None] ** s * d ** -(lam + 1.0 + s)
    return lam / (math.pi * math.gamma(k)) * float(r_fac @ cells @ t_fac)


class TestTabulatedKernel:
    @pytest.mark.parametrize("config", [KernelConfig(3, 3), DEFAULT_KERNEL_CONFIG], ids=["level3", "default"])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.45])
    def test_matches_the_plain_double_sum(self, config, lam):
        # the t-table and the r-sum against the same grid summed cell by
        # cell; the tolerance is relative to the row's largest value, which
        # the near-diagonal phi set
        theta = 1.2
        phis = np.array([theta - 1e-3, theta + 1e-3, theta + 0.03, 0.4, 2.6, 1e-6, math.pi - 1e-6])
        for k, tolerance in ((1, 1e-11), (2, 1e-11), (3, 1e-11), (4, 1e-11), (8, 1e-9), (12, 1e-9)):
            for ell in sorted({0, k - 1, k}):
                values = kernel_partial(lam, k, ell, theta, phis, config=config)
                plain = np.array([_plain_double_sum(lam, k, ell, theta, float(phi), config) for phi in phis])
                scale = np.max(np.abs(plain))
                np.testing.assert_allclose(values, plain, rtol=0.0, atol=tolerance * scale, err_msg=f"k {k}, ell {ell}")

    def test_read_on_a_node_gives_the_node_value(self):
        # an x exactly on a Chebyshev point makes the barycentric weights'
        # sum infinite; _lagrange then weighs the node alone, times its
        # scale.  The kernels call it under their float policy, which
        # silences that division
        table = np.random.default_rng(2).standard_normal((2, 13, 3))
        points = kernels._chebyshev(13)[0][:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = kernels._lagrange(13, np.array([points[3], 0.1, points[12]]))
            lone = kernels._lagrange(13, np.array([points[5]]))
            scaled = kernels._lagrange(13, np.array([0.1, points[7]]), np.array([2.0, 3.0]))
        values = kernels._read(table, np.array([0, 1, 2]), weights)
        assert np.array_equal(values[:, 0], table[:, 3, 0])
        assert np.array_equal(values[:, 2], table[:, 12, 2])
        assert np.all(np.isfinite(values[:, 1]))
        assert np.array_equal(kernels._read(table, np.array([1]), lone)[:, 0], table[:, 5, 1])
        assert np.array_equal(scaled[:, 1], 3.0 * (np.arange(13) == 7))
        assert np.array_equal(scaled[:, 0], 2.0 * weights[:, 1])

    def test_table_cache_stays_bounded(self):
        for lam in np.linspace(0.31, 2.4, 40):
            kernel_partial(float(lam), 1, 1, 1.2, 0.7, config=KernelConfig(3, 3))
        info = kernels._t_table.cache_info()
        assert info.currsize <= info.maxsize


#: riesz_kernel(1.3, k, theta, phi) per (k, theta) at _SMALL_SIGMA_PHIS,
#: recorded from the kernel that read one table row per order s at every node
#: and took q**(s - s0) at the node, before the factor moved into the table
_SMALL_SIGMA_RECORDS = {
    (1, 0.02): [
        -1850466.176740393, -1847508.2291717392, -1847508.2262203265, -1847508.2262203249, -1847508.2262203249,
    ],
    (1, 0.7): [-5.162107319719998, -5.162107319719994, -5.162107319719994, 0.05006453196031696],
    (3, 0.02): [
        -2945390.8008865844, -2956025.387527039, -2956025.3981494354, -2956025.3981494363, -2956025.3981494363,
    ],
    (3, 0.7): [-8.203525062738379, -8.203525062738372, -8.203525062738372, 0.06762168005368356],
    (12, 0.02): [
        102010.17296906908, 101220.2671737645, 101220.26638861313, 101220.26638886258, 101220.26638886258,
    ],
    (12, 0.7): [0.4409166428839496, 0.44091664288413496, 0.44091664288413496, -0.0017354443099862307],
}

_SMALL_SIGMA_PHIS = {0.02: [1e-3, 1e-6, 1e-10, 1e-100, 1e-300], 0.7: [1e-8, 1e-100, 1e-300, math.pi - 1e-12]}


def _node_panels(lam, k, theta, phis):
    """The t-table panel of every r-node of each (theta, phi) pair, one array per pair."""
    phis = np.asarray(phis, dtype=float)
    r, dist, _, counts = kernels._r_rules(lam, k, np.minimum(np.abs(theta - phis), 0.5), DEFAULT_KERNEL_CONFIG.r_level)
    owner = np.repeat(np.arange(phis.size), counts)
    q = r / (dist * dist + 2.0 * r * (2.0 * np.sin(0.5 * (theta - phis)) ** 2)[owner])
    v = np.log1p(4.0 * math.sin(theta) * np.sin(phis)[owner] * q)
    panels = (v / kernels._PANEL_WIDTH).astype(int)
    return [panels[owner == i] for i in range(phis.size)]


class TestAbsorbedTable:
    """Past the first panel the t-table holds expm1(v)**(s - s0) in its
    columns, and each pair folds its coefficients into one row there; the
    first panel keeps the plain values."""

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_small_sigma_stays_finite_and_matches_the_records(self, k):
        # (4 sigma)**-(s - s0) overflows at phi 1e-100 and below: such a pair
        # has no node past the first panel and never reaches the folded rows.
        # At k 12 near phi = 0 the double sums themselves sit up to 4.4e-12
        # of the row's scale off a long-double sum of the same discretization
        # (this kernel 3.4e-12), so their gap there is held to 4e-12
        tolerance = 4e-12 if k == 12 else 1e-12
        for theta, phis in _SMALL_SIGMA_PHIS.items():
            expected = np.array(_SMALL_SIGMA_RECORDS[(k, theta)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = riesz_kernel(1.3, k, theta, np.array(phis))
            assert np.all(np.isfinite(values)), (k, theta)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=tolerance * scale, err_msg=f"{k}, {theta}")

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12])
    def test_nodes_on_both_sides_of_the_first_panel_match_the_plain_double_sum(self, k):
        # on the first panel expm1(v)**(s - s0) would magnify the
        # interpolation error by (expm1(1/2) / expm1(v))**(s - s0); phi 0.09
        # keeps every node there, and the rest straddle v = 1/2, phi 0.1 by
        # a few nodes
        theta, phis = 0.7, [0.09, 0.1, 0.12, 0.2, 0.4, 0.75, 1.6]
        panels = _node_panels(1.3, k, theta, phis)
        assert panels[0].max() == 0
        assert all(part.min() == 0 and part.max() >= 1 for part in panels[1:])
        values = kernel_partial(1.3, k, k, theta, np.array(phis))
        plain = np.array([_plain_double_sum(1.3, k, k, theta, phi, DEFAULT_KERNEL_CONFIG) for phi in phis])
        np.testing.assert_allclose(values, plain, rtol=1e-13 if k <= 4 else 1e-11, atol=0.0)

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_a_block_of_first_panel_and_folded_pairs_equals_scalar_calls(self, k):
        # pairs whose nodes all sit on the first panel, some with a sigma that
        # overflows (4 sigma)**-(s - s0), among pairs that fold
        thetas = np.array([0.7, 0.7, 0.02, 1.2, 0.7, 2.9, 0.02, 1.2, 0.7, math.pi - 0.02])
        phis = np.array([1e-300, 0.4, 1e-6, 1.2 + 3e-5, 0.09, 2.91, 0.5, 1e-100, math.pi - 1e-12, math.pi - 1e-15])
        reaches = [part.max() for theta, phi in zip(thetas, phis) for part in _node_panels(1.3, k, theta, [phi])]
        assert 0 < sum(reach == 0 for reach in reaches) < len(reaches)
        for ell in sorted({0, 1, k}):
            values = kernel_partial(1.3, k, ell, thetas, phis)
            loop = [kernel_partial(1.3, k, ell, float(t), float(p)) for t, p in zip(thetas, phis)]
            assert np.all(np.isfinite(values)), (k, ell)
            assert np.array_equal(values, np.array(loop)), (k, ell)

    def test_order_12_at_guard_1e_12_is_finite(self):
        # the table's last column reaches ~1e272 there
        relaxed = KernelConfig(min_separation=1e-12)
        theta = 1.2
        phis = theta + np.array([-1.5e-12, 2e-12, 1e-9, -1e-5, 0.3, -1.0])
        for lam in (0.3, 1.3, 2.45):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = kernel_partial(lam, 12, 12, theta, phis, config=relaxed)
            assert np.all(np.isfinite(values)), lam
            assert np.array_equal(values, [kernel_partial(lam, 12, 12, theta, float(p), config=relaxed) for p in phis])
        assert np.all(np.isfinite(_t_table(1.3, 12, DEFAULT_KERNEL_CONFIG.t_level, 1e-12)))

    @pytest.mark.parametrize("guard", [1e-15, 1e-20, 1e-300])
    def test_a_guard_past_the_table_range_is_refused_by_its_limit(self, guard):
        with pytest.raises(ValueError, match="order-12 t-table past the float range") as raised:
            kernel_partial(1.3, 12, 12, 1.2, np.array([0.5, 2.0]), config=KernelConfig(min_separation=guard))
        least = float(re.search(r"must be at least (\S+)$", str(raised.value))[1])
        assert 1e-14 < least < 1e-13
        # the named guard is accepted, and order 1, which folds no power of
        # q into its table, takes any guard
        edge = KernelConfig(min_separation=least)
        assert np.all(np.isfinite(kernel_partial(1.3, 12, 12, 1.2, np.array([0.5, 1.2 + 2.0 * least]), config=edge)))
        assert np.isfinite(kernel_partial(1.3, 1, 1, 1.2, 0.5, config=KernelConfig(min_separation=guard)))


def _tanh_sinh_r_rules(lam, k, seps, level):
    """kernels._r_rules with the level-``level`` tanh-sinh rule on both
    segments of every r-rule, (0, 1 - w) and (1 - w, 1).  As in the kernel's
    own rule, each node carries its distance 1 - r without cancellation:
    taken from a rounded r instead, 1 - r moves the rule by ~eps/w relative,
    at any level (5.1e-12 at k 1 and w = 1.01e-5, where levels 6, 7 and 8
    all sit 5.1e-12 to 5.8e-12 off a long-double double sum)."""
    _, side, dist, weight = _ts_table(level)
    r, one_minus_r, weights = [], [], []
    for w in seps:
        # the segment's ends as distances to r = 1; a node left of its
        # midpoint lies half * dist above the far end, one right of it below
        # the near end
        for far, near in ((1.0, w), (w, 0.0)):
            half = 0.5 * (far - near)
            r.append(np.where(side < 0, (1.0 - far) + half * dist, (1.0 - near) - half * dist))
            one_minus_r.append(np.where(side < 0, far - half * dist, near + half * dist))
            weights.append(half * weight)
    r, one_minus_r, weights = map(np.concatenate, (r, one_minus_r, weights))
    log_inv_r = np.where(r < 0.5, -np.log(r), -np.log1p(-np.minimum(one_minus_r, 0.5)))
    r_fac = r ** (lam - 1.0) * log_inv_r ** (k - 1) * (one_minus_r * (1.0 + r)) * weights
    return r, one_minus_r, r_fac, np.full(len(seps), 2 * side.size)


def _phi_batch(lam, k, theta):
    """The phi of a default TruncationOperator at (lam, k, theta), and the
    weights its kernel values are summed with."""
    calls = []

    def recording(lam, k, theta, phi, *, config=None):
        calls.append(phi)
        return np.ones(np.size(phi))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transforms, "riesz_kernel", recording)
        operator = TruncationOperator(lam, k, theta, TruncationSchedule.geometric().epsilons)
    return calls[0], operator._kernel_weights


class TestKernelConfig:
    @pytest.mark.parametrize("field", ["t_level", "r_level"])
    @pytest.mark.parametrize("level", [-2, 0, 2.5, 13])
    def test_a_level_outside_the_range_raises(self, field, level):
        # such levels once gave another kernel without a word: the k = 2
        # kernel at lambda 1, (1.2, 0.7) is 1.2269, but was 2.137 at
        # t_level -2 and 1.499 at r_level -2
        with pytest.raises(ValueError, match=field):
            KernelConfig(**{field: level})

    def test_levels_in_the_range_construct(self):
        assert (KernelConfig(3, 3).t_level, KernelConfig(3, 3).r_level) == (3, 3)
        doubled = DEFAULT_KERNEL_CONFIG.doubled()
        assert doubled.t_level == DEFAULT_KERNEL_CONFIG.t_level + 1
        assert doubled.r_level == DEFAULT_KERNEL_CONFIG.r_level + 1


class TestGradedRRule:
    @pytest.mark.parametrize("lam", [0.3, 2.45])
    def test_default_operators_hold_at_most_95_r_nodes_per_phi(self, monkeypatch, lam):
        # ~89 per phi at k <= 4 and ~93 at k 12, a third of the ~275 of the
        # rule before the graded panels; each phi's segment on (0, 1/2) holds
        # _lower_points(k, r_level) Gauss points, and its graded segment its
        # panels, the fewest that keep the ratio at most _GRADING, at
        # _GRADED_POINTS apiece: the Bernstein-ellipse count at that ratio,
        # and no more
        r_rules, seen = kernels._r_rules, []

        def recording(lam, k, seps, level):
            assert level == DEFAULT_KERNEL_CONFIG.r_level
            rules = r_rules(lam, k, seps, level)
            seen.append((np.full(seps.size, k), seps, rules[3]))
            return rules

        monkeypatch.setattr(kernels, "_r_rules", recording)
        for k in (1, 2, 3, 4, 8, 12):
            riesz_kernel(lam, k, 1.2, _phi_batch(lam, k, 1.2)[0])
        orders, seps, counts = (np.concatenate(parts) for parts in zip(*seen))
        assert counts[orders <= 4].sum() <= 90 * np.sum(orders <= 4)
        assert counts.sum() <= 95 * counts.size
        lower = np.array([kernels._lower_points(int(k), DEFAULT_KERNEL_CONFIG.r_level) for k in orders])
        assert np.array_equal(lower, np.where(orders <= 4, 14, 14 + (orders - 3) // 2))
        graded = counts - lower - kernels._UPPER_POINTS
        panels = np.ceil(np.log(0.5 / seps) / math.log(kernels._GRADING))
        assert np.array_equal(graded, kernels._GRADED_POINTS * panels)
        ratio = kernels._GRADING
        assert kernels._GRADED_POINTS == _bernstein_points((ratio + 1.0) / (ratio - 1.0), 1e-18) == 19

    def test_deepest_grading_is_finite_and_batch_independent(self):
        # the relaxed guard of TestDifferentiationUnderIntegral: w down to
        # 1e-11 takes ~20 graded panels
        relaxed = KernelConfig(t_level=5, r_level=5, min_separation=1e-12)
        theta = 1.2
        w = np.geomspace(1e-11, 0.5, 12)
        phis = np.concatenate([theta - w, theta + w])
        for k in range(1, 5):
            for ell in sorted({k - 1, k}):
                values = kernel_partial(0.5, k, ell, theta, phis, config=relaxed)
                loop = [kernel_partial(0.5, k, ell, theta, float(phi), config=relaxed) for phi in phis]
                assert np.all(np.isfinite(values)), (k, ell)
                assert np.array_equal(values, np.array(loop)), (k, ell)


def _log_moment(lam, k, j):
    """int_0^(1/2) r**(lam+j-1) log(1/r)**(k-1) dr = Gamma(k, a ln 2) / a**k,
    a = lam + j, with Gamma(k, x) = (k-1)! exp(-x) sum_{i<k} x**i / i!."""
    a = lam + j
    x = a * math.log(2.0)
    return math.factorial(k - 1) * math.exp(-x) * sum(x**i / math.factorial(i) for i in range(k)) / a**k


class TestLowerRRule:
    """The r-rule's segment on (0, 1/2): the Gauss rule of the weight
    r**(lam-1) log(1/r)**(k-1)."""

    @pytest.mark.parametrize("lam", [0.25, 0.3, 1.0, 2.45, 7.5])
    def test_integrates_the_weight_moments(self, lam):
        for k in range(1, 13):
            for level in (1, DEFAULT_KERNEL_CONFIG.r_level, 12):
                r, one_minus_r, factor = kernels._lower_rule(lam, k, level)
                n = kernels._lower_points(k, level)
                assert r.size == n and np.array_equal(one_minus_r, 1.0 - r)
                assert np.all(np.diff(r) > 0.0) and 0.0 < r[0] and r[-1] < 0.5
                weights = factor / (1.0 - r * r)
                for j in range(2 * n):
                    exact = _log_moment(lam, k, j)
                    assert abs(weights @ r**j - exact) <= 1e-13 * exact, (k, level, j)

    @pytest.mark.parametrize("lam", [0.25, 0.7, 2.45])
    def test_order_one_is_the_mapped_gauss_jacobi_rule(self, lam):
        # r**(lam-1) dr on (0, 1/2) is 2**-lam t**(lam-1) dt at t = 2 r; the
        # two agree to a few ulps of 1/2 in the nodes, and the weights of the
        # nodes nearest 0 (where either puts them only to that absolute
        # accuracy) to 1.5e-13 at 50 points
        for level in (1, DEFAULT_KERNEL_CONFIG.r_level, 12):
            r, _, factor = kernels._lower_rule(lam, 1, level)
            t, weights, _ = _gauss_jacobi(r.size, lam - 1.0)
            weights = 2.0**-lam * weights
            np.testing.assert_allclose(r, 0.5 * t, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(factor / (1.0 - r * r), weights, rtol=3e-13, atol=0.0)
            assert np.sum(np.abs(factor / (1.0 - r * r) - weights)) <= 5e-14 * weights.sum()

    def test_is_read_only_and_cached(self):
        rule = kernels._lower_rule(1.3, 4, 3)
        assert kernels._lower_rule(1.3, 4, 3) is rule
        assert not any(part.flags.writeable for part in rule)

    def test_a_lambda_that_leaves_one_point_raises(self):
        # x = u**(1/lam) rounds to 1 at every node: a one-point measure
        with pytest.raises(EvaluationError, match="not finite"):
            kernels._lower_rule(1e300, 2, 3)


#: the default r-rule under a finer t-rule, so that the t-rule's error does
#: not mask the r-rule's
_FINE_T = KernelConfig(t_level=8, r_level=DEFAULT_KERNEL_CONFIG.r_level)


class TestUpperRSegment:
    """The default r-rule, Gauss-Legendre on the graded panels of
    (1/2, 1 - w) and on (1 - w, 1), against tanh-sinh on (0, 1 - w) and
    (1 - w, 1) at r-level 7, at t-level 8 on both sides so that the t-table
    is shared and only the r-rule differs."""

    @pytest.mark.parametrize("lam", [0.25, 0.3, 1.0, 2.45])
    def test_matches_tanh_sinh_on_both_segments(self, monkeypatch, lam):
        theta = 1.2
        # from just off the 1e-5 guard to far phi on either side
        w = np.array([1.01e-5, -1.01e-5, 1e-3, -1e-3, 0.3, theta - 0.2, theta - 2.9])
        phis = theta - w
        eps = np.finfo(float).eps
        for k in (1, 2, 4, 8, 12):
            values = riesz_kernel(lam, k, theta, phis, config=_FINE_T)
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_r_rules", _tanh_sinh_r_rules)
                reference = riesz_kernel(lam, k, theta, phis, config=KernelConfig(t_level=8, r_level=7))
            # near the diagonal the even-k kernel is O(1) but sums terms
            # ~1/w**2 larger, so float64 may fix it only to ~eps/w**2: the
            # floor below, k eps/w**2 for w < 1e-2, bounds the measured gaps
            # (up to 2.6e-9 relative at k = 12, w = 1e-5; odd k within 1e-15)
            floor = k * eps / w**2 if k % 2 == 0 else np.zeros_like(w)
            tolerance = np.maximum(2e-12, np.where(np.abs(w) < 1e-2, floor, 0.0))
            np.testing.assert_array_less(np.abs(values - reference), tolerance * np.abs(reference))

    @pytest.mark.parametrize(("lam", "k"), [(0.3, 2), (2.45, 4)])
    def test_operator_weighted_error(self, monkeypatch, lam, k):
        # as the truncated integrals weigh the kernel: measured 4.1e-15 and
        # 4.2e-15
        theta = 1.2
        phis, weights = _phi_batch(lam, k, theta)
        values = riesz_kernel(lam, k, theta, phis, config=_FINE_T)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_r_rules", _tanh_sinh_r_rules)
            reference = riesz_kernel(lam, k, theta, phis, config=KernelConfig(t_level=8, r_level=7))
        error = np.sum(np.abs(weights * (values - reference))) / np.sum(np.abs(weights * reference))
        assert error < 1e-12


#: a coarse resolution: independence of the batch split does not depend on it
_COARSE = KernelConfig(t_level=3, r_level=3)


@pytest.fixture(scope="module")
def operator_batch():
    """The phi nodes of one TruncationOperator build, as its single kernel call receives them."""
    calls = []

    def recording(lam, k, theta, phi, *, config=None):
        calls.append((theta, phi))
        return np.zeros(np.size(phi))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transforms, "riesz_kernel", recording)
        TruncationOperator(1.0, 2, 1.2, TruncationSchedule.geometric().epsilons)
    assert len(calls) == 1
    return calls[0]


class TestParallelKernel:
    @pytest.mark.parametrize("lam", [0.3, 2.45])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_operator_batch_independent_of_thread_count(self, operator_batch, lam, k):
        # the package runs no kernel threads; what a batch's value must not
        # depend on is how it is split: here across a phi block
        theta, phis = operator_batch
        split = kernels._PHI_BLOCK + 7
        whole = riesz_kernel(lam, k, theta, phis, config=_COARSE)
        parts = [riesz_kernel(lam, k, theta, part, config=_COARSE) for part in (phis[:split], phis[split:])]
        assert whole.shape == phis.shape
        assert np.array_equal(whole, np.concatenate(parts))

    def test_concurrent_callers_get_the_serial_values(self, operator_batch):
        theta, phis = operator_batch
        phis = phis[::4]
        serial = riesz_kernel(0.8, 3, theta, phis, config=_COARSE)
        results: dict[int, np.ndarray] = {}

        def call(slot):
            results[slot] = riesz_kernel(0.8, 3, theta, phis, config=_COARSE)

        # four callers sharing the t-table cache: more threads than cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(slot,)) for slot in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(results) == [0, 1, 2, 3]
        for values in results.values():
            assert np.array_equal(values, serial)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        # a t-table build that fails on a worker thread raises in that
        # thread's call and leaves no cache entry behind
        lam, phis = 0.8125, np.array([0.4, 0.6, 1.8, 2.0])
        segment = kernels.tanh_sinh_segment

        def failing(*args):
            raise RuntimeError("table build failed")

        monkeypatch.setattr(kernels, "tanh_sinh_segment", failing)
        caught: list[BaseException] = []

        def call():
            try:
                riesz_kernel(lam, 2, 1.2, phis, config=_COARSE)
            except RuntimeError as exc:
                caught.append(exc)

        before = threading.active_count()
        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and threading.active_count() == before
        assert [str(exc) for exc in caught] == ["table build failed"]
        monkeypatch.setattr(kernels, "tanh_sinh_segment", segment)
        values = riesz_kernel(lam, 2, 1.2, phis, config=_COARSE)
        scalar = [riesz_kernel(lam, 2, 1.2, float(p), config=_COARSE) for p in phis]
        assert np.array_equal(values, scalar)

    def test_a_stalled_thread_leaves_its_share_to_the_others(self, monkeypatch):
        # the t-table cache holds no lock over a build: a caller stalled in
        # the build of a key does not hold up another caller of that key
        lam, phis = 0.8375, np.array([0.4, 1.0, 1.25, 2.6])
        segment = kernels.tanh_sinh_segment
        stalled, release = threading.Event(), threading.Event()

        def stalling(*args):
            if threading.current_thread().name == "stalled":
                stalled.set()
                release.wait(timeout=60)
            return segment(*args)

        monkeypatch.setattr(kernels, "tanh_sinh_segment", stalling)
        results: dict[str, np.ndarray] = {}

        def call(name):
            results[name] = riesz_kernel(lam, 3, 1.2, phis, config=_COARSE)

        first = threading.Thread(target=call, args=("stalled",), name="stalled")
        first.start()
        try:
            assert stalled.wait(timeout=60)
            call("other")
            assert first.is_alive() and "stalled" not in results
        finally:
            release.set()
            first.join(timeout=60)
        assert not first.is_alive()
        assert np.array_equal(results["stalled"], results["other"])

    def test_every_index_is_claimed_exactly_once_under_contention(self):
        # eight callers on at most a few cores, switching often, each with its
        # own order of the same phis: every phi gets its own value at its own
        # position
        theta, lam, k = 1.2, 1.3, 2
        phis = np.array([0.4, 0.9, 1.0, 1.15, 1.25, 1.5, 1.69, 2.6])
        serial = {float(p): riesz_kernel(lam, k, theta, float(p), config=_COARSE) for p in phis}
        orders = [np.random.default_rng(seed).permutation(phis) for seed in range(8)]
        results: dict[int, np.ndarray] = {}

        def call(slot):
            results[slot] = riesz_kernel(lam, k, theta, orders[slot], config=_COARSE)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(target=call, args=(slot,), name=f"caller-{slot}")
                for slot in range(8)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(results) == list(range(8))
        for slot, values in results.items():
            assert np.array_equal(values, [serial[float(p)] for p in orders[slot]])

    def test_non_finite_values_raise_once_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="not finite"):
                riesz_kernel(1e300, 1, 1.2, np.array([0.5, 1.0, 2.0, 2.5]), config=_COARSE)


def _circle_integral(k, w, ell):
    """The circle kernels' subordination r-integral of the order-ell lam = 0
    expansion, sum_s P_s(w) r**(s-1) Delta_r**-(s+1) against
    (1 - r**2) log(1/r)**(k-1), by adaptive tanh-sinh: the definition the
    closed forms of circle_H (ell = k - 1) and circle_R (ell = k) are held to."""
    cos_w, sin_w = math.cos(w), math.sin(w)
    one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2
    polys = {
        s: sum(c * cos_w**i * (-sin_w) ** j for c, i, j in terms)
        for s, terms in _term_layout(ell, 0.0).items()
    }

    def integrand(r):
        d = (1.0 - r) ** 2 + 2.0 * r * one_minus_cos_w
        total = sum(poly * r ** (s - 1) / d ** (s + 1) for s, poly in polys.items())
        return (1.0 - r * r) * (-np.log(r)) ** (k - 1) * total

    return _split_integral(integrand, w)


def _split_integral(integrand, w):
    """The r-integral over (0, 1) split at 1 - min(|w|, 1/2), where the
    integrand's near-diagonal peak begins, as the kernel's r-rule splits it."""
    split = 1.0 - min(abs(w), 0.5)
    pieces = ((0.0, split), (split, 1.0))
    return sum(singular_integrate(integrand, lo, hi, tol=1e-12, rtol=1e-11) for lo, hi in pieces)


def _circle_H_reference(k, w):
    if k == 1:
        # ((1 - r**2) / Delta_r - 1) / r, simplified so the r -> 0 end is regular
        one_minus_cos_w = 2.0 * math.sin(0.5 * w) ** 2
        return _split_integral(
            lambda r: 2.0 * (math.cos(w) - r) / ((1.0 - r) ** 2 + 2.0 * r * one_minus_cos_w), w
        )
    return _circle_integral(k, w, k - 1)


def _paired_batch(seed, count):
    """``count`` (theta, phi) pairs in (0.05, pi - 0.05) at least 1e-3 apart,
    the fourth 2e-5 off the diagonal."""
    rng = np.random.default_rng(seed)
    thetas, phis = rng.uniform(0.05, math.pi - 0.05, (2, count))
    phis = np.where(np.abs(thetas - phis) < 1e-3, phis + 2e-3, phis)
    phis[3] = thetas[3] + 2e-5
    return thetas, phis


class TestPairedTheta:
    @pytest.mark.parametrize("lam", [0.3, 2.45])
    @pytest.mark.parametrize("k", [1, 2, 4, 12])
    def test_pairs_equal_scalar_theta_calls(self, lam, k):
        # three blocks of kernels._PHI_BLOCK, each pair among pairs of other theta
        thetas, phis = _paired_batch(k, 2 * kernels._PHI_BLOCK + 7)
        values = riesz_kernel(lam, k, thetas, phis)
        loop = [riesz_kernel(lam, k, float(theta), float(phi)) for theta, phi in zip(thetas, phis)]
        assert values.shape == phis.shape
        assert np.array_equal(values, np.array(loop))

    def test_kernel_partial_pairs_at_every_derivative_order(self):
        thetas, phis = _paired_batch(7, kernels._PHI_BLOCK + 3)
        for ell in (0, 1, 3):
            values = kernel_partial(0.8, 3, ell, thetas, phis)
            loop = [kernel_partial(0.8, 3, ell, float(t), float(p)) for t, p in zip(thetas, phis)]
            assert np.array_equal(values, np.array(loop)), ell

    def test_poisson_pairs_equal_scalar_theta_rows(self):
        nodes = build_rule(1.3, 64).nodes
        thetas = (0.6, 1.6, 2.6)
        for r in (math.exp(-0.1), math.exp(-1.0)):
            rows = poisson_kernel(1.3, r, np.repeat(thetas, nodes.size), np.tile(nodes, 3)).reshape(3, nodes.size)
            for theta, row in zip(thetas, rows):
                assert np.array_equal(row, poisson_kernel(1.3, r, theta, nodes))
        one_pair = poisson_kernel(1.3, 0.5, np.array([1.2]), np.array([0.7]))
        assert one_pair.tolist() == [poisson_kernel(1.3, 0.5, 1.2, 0.7)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda theta, phi: riesz_kernel(1.0, 2, theta, phi),
            lambda theta, phi: kernel_partial(1.0, 2, 1, theta, phi),
            lambda theta, phi: poisson_kernel(1.0, 0.5, theta, phi),
        ],
        ids=["riesz_kernel", "kernel_partial", "poisson_kernel"],
    )
    def test_theta_array_must_match_phi(self, call):
        with pytest.raises(ValueError, match="theta array"):
            call(np.array([1.0, 2.0, 2.5]), np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="theta array"):
            call(np.array([1.0]), 0.5)
        with pytest.raises(ValueError, match="theta must lie in"):
            call(np.array([1.0, math.pi]), np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="1-D"):
            call(np.full((2, 2), 1.0), np.full((2, 2), 0.5))

    def test_guards_name_the_offending_pair_on_one_line(self):
        thetas = np.array([0.4, 1.3, 2.0, 2.7])
        with pytest.raises(ValueError, match="diagonal") as raised:
            riesz_kernel(1.0, 2, thetas, np.array([0.9, 1.3, 2.5, 1.0]))
        assert "(theta, phi) = (1.3, 1.3)" in str(raised.value) and "\n" not in str(raised.value)
        with pytest.raises(AccuracyError) as raised:
            riesz_kernel(1.0, 2, thetas, np.array([0.9, 1.8, 2.0 + 5e-6, 1.0]))
        assert f"(theta, phi) = (2.0, {2.0 + 5e-6})" in str(raised.value) and "\n" not in str(raised.value)
        # lambda 200 carries the sums past the float range at (1.3, 1.5) but
        # not at (0.4, 0.9): the message names that pair, as plain floats
        phis = np.array([0.9, 1.5, 2.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as raised:
                riesz_kernel(200.0, 1, thetas, phis)
        pattern = r"kernel value (nan|-?inf) at phi = (\S+) is not finite \(lambda 200.0, k 1, theta (\S+)\)"
        found = re.fullmatch(pattern, str(raised.value))
        assert found, str(raised.value)
        assert (float(found[3]), float(found[2])) == (1.3, 1.5)


def _circle_R_reference(k, w):
    return _circle_integral(k, w, k) / (2.0 * math.pi * math.gamma(k))


_CIRCLE_WS = (1e-5, 1e-3, 0.3, 1.0, 2.0, 3.0, -0.5, -2.5)


class TestCircleKernels:
    def test_h1_closed_form(self):
        assert circle_H(1, math.pi / 3) == pytest.approx(0.0, abs=1e-12)
        assert circle_H(1, math.pi / 2) == pytest.approx(-math.log(2.0), rel=1e-10)

    def test_h2_limit(self):
        assert circle_H(2, 0.01) == pytest.approx(-math.pi, rel=0.01)

    def test_h_parity(self):
        # H^k is even for odd k and odd for even k
        for k, sign in ((1, 1.0), (2, -1.0), (3, 1.0), (4, -1.0)):
            for w in (0.4, 1.1):
                assert circle_H(k, -w) == pytest.approx(sign * circle_H(k, w), rel=1e-9)

    def test_w_h_vanishes_for_odd_k(self):
        for k in (1, 3, 5):
            big = abs(1e-2 * circle_H(k, 1e-2))
            small = abs(1e-3 * circle_H(k, 1e-3))
            assert small * 10.0 < big * 1.0 + 1e-12 or small < big / 5.0

    def test_circle_r_closed_form_k1(self):
        for w in (0.3, 1.0, 2.0):
            expected = -1.0 / (2 * math.pi) / math.tan(w / 2)
            assert circle_R(1, 1.0 + w, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_circle_r_antisymmetry_k1(self):
        assert circle_R(1, 1.5, 0.8) == pytest.approx(-circle_R(1, 0.8, 1.5), rel=1e-10)

    def test_circle_r_matches_h_derivative_k2(self):
        w, h = 0.3, 1e-4
        fd = (circle_H(2, w + h) - circle_H(2, w - h)) / (2 * h)
        expected = fd / (2 * math.pi * math.gamma(2))
        assert circle_R(2, 1.0 + w, 1.0) == pytest.approx(expected, rel=1e-6)

    def test_near_zero_guard(self):
        with pytest.raises(AccuracyError):
            circle_H(2, 1e-8)
        with pytest.raises(ValueError):
            circle_R(1, 1.0, 1.0)
        # the smallest subnormal gap is refused, not divided by
        with pytest.raises(AccuracyError):
            circle_H(1, 5e-324)
        with pytest.raises(AccuracyError):
            circle_R(1, 5e-324, 0.0)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.5), (1.0, math.inf), (math.inf, math.inf)])
    def test_circle_r_refuses_a_w_that_is_not_finite(self, k, theta, phi):
        # such a w gave nan at odd k and the constant at even k, where
        # circle_H refuses it
        with pytest.raises(ValueError, match="w = theta - phi must be finite"):
            circle_R(k, theta, phi)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_closed_forms_match_the_subordination_integrals(self, k):
        for w in _CIRCLE_WS:
            assert circle_H(k, w) == pytest.approx(_circle_H_reference(k, w), rel=1e-9, abs=0.0)
            if k % 2 == 0 and abs(w) < 1e-4:
                # 1 - r near r = 1 rounds at ~1e-16 / |w| relative and the
                # even-order terms cancel to a constant, so the float integral
                # keeps no digits: the extended-precision test covers these
                continue
            theta, phi = 1.0 + w, 1.0
            assert circle_R(k, theta, phi) == pytest.approx(
                _circle_R_reference(k, theta - phi), rel=1e-9, abs=0.0
            )

    @pytest.mark.parametrize("k", range(2, 13, 2))
    def test_even_order_circle_r_near_the_diagonal_in_extended_precision(self, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            w = mpmath.mpf(1e-5)
            cos_w, sin_w, one_minus_cos_w = mpmath.cos(w), mpmath.sin(w), 2 * mpmath.sin(w / 2) ** 2
            polys = {
                s: sum(c * cos_w**i * (-sin_w) ** j for c, i, j in terms)
                for s, terms in _term_layout(k, 0.0).items()
            }

            def integrand(r):
                d = (1 - r) ** 2 + 2 * r * one_minus_cos_w
                total = sum(poly * r ** (s - 1) / d ** (s + 1) for s, poly in polys.items())
                return (1 - r * r) * (-mpmath.log(r)) ** (k - 1) * total

            reference = mpmath.quad(integrand, [0, 1 - w, 1]) / (2 * mpmath.pi * mpmath.factorial(k - 1))
        assert circle_R(k, 1.0 + 1e-5, 1.0) == pytest.approx(float(reference), rel=1e-9, abs=0.0)


class TestMkEstimate:
    def test_k1(self):
        assert m_k_estimate(1) == pytest.approx(-1.0 / math.pi, abs=1e-3)

    def test_even_vanishes(self):
        assert m_k_estimate(2) == pytest.approx(0.0, abs=1e-3)
        assert m_k_estimate(4) == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_exact_and_the_limit_of_the_reference_kernel(self, k):
        expected = (-1.0 if k % 4 == 1 else 1.0) / math.pi if k % 2 else 0.0
        assert m_k_estimate(k) == expected
        # sin(w) R^k(w) = M_k cos(w/2)**2 for odd k and O(w) for even k
        w = 1e-3
        assert abs(math.sin(w) * _circle_R_reference(k, w) - m_k_estimate(k)) <= w


class TestRegions:
    def test_examples(self):
        assert region_classify(1.0, 1.0) == "A2"
        assert region_classify(0.4, 2.0) == "A1"
        assert region_classify(1.2, 0.3) == "A3"

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(0.05, math.pi - 0.05))
            assert region_classify(theta, phi) == region_classify(math.pi - theta, math.pi - phi)

    def test_diagonal_in_a2(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 9):
            assert region_classify(float(theta), float(theta)) == "A2"


#: pairs of a 10-point grid off the diagonal, which meet all three regions
#: on both halves of the square
_REGION_GRID = np.linspace(0.15, math.pi - 0.15, 10)
_REGION_THETAS, _REGION_PHIS = np.repeat(_REGION_GRID, 10), np.tile(_REGION_GRID, 10)
_REGION_OFF = _REGION_THETAS != _REGION_PHIS
_REGION_THETAS, _REGION_PHIS = _REGION_THETAS[_REGION_OFF], _REGION_PHIS[_REGION_OFF]


def _envelope_by_math(lam, k, theta, phi, value, region):
    """The envelope ratio of one pair in math.* and Python's **."""
    if region == "A2":
        lead = m_k_estimate(k) / ((math.sin(theta) * math.sin(phi)) ** lam * math.sin(theta - phi))
        widen = 1.0 + math.sqrt(math.sin(phi) / abs(theta - phi))
        return abs(value - lead) / (math.sin(phi) ** -(2.0 * lam + 1.0) * widen)
    return abs(value) / (math.sin(phi if region == "A1" else theta) ** -(2.0 * lam + 1.0))


class TestPairedRegionsAndEnvelopes:
    """region_classify, _envelope_ratio and envelope_residual on paired
    arrays: each entry the scalar call's, bit for bit."""

    def test_regions(self):
        labels = region_classify(_REGION_THETAS, _REGION_PHIS)
        scalar = [region_classify(t, p) for t, p in zip(_REGION_THETAS.tolist(), _REGION_PHIS.tolist())]
        assert labels.tolist() == scalar
        for half in (_REGION_THETAS < 0.5 * math.pi, _REGION_THETAS > 0.5 * math.pi):
            assert set(labels[half].tolist()) == {"A1", "A2", "A3"}
        # a scalar theta pairs with every phi
        assert region_classify(1.2, _REGION_GRID).tolist() == [region_classify(1.2, p) for p in _REGION_GRID.tolist()]

    @pytest.mark.parametrize("lam, k", [(0.3, 1), (1.3, 2), (2.45, 3)])
    def test_envelopes(self, lam, k):
        thetas, phis = _REGION_THETAS, _REGION_PHIS
        pairs = list(zip(thetas.tolist(), phis.tolist()))
        values = riesz_kernel(lam, k, thetas, phis)
        labels = region_classify(thetas, phis)
        ratios = kernels._envelope_ratio(lam, k, thetas, phis, values, labels)
        scalar = [
            kernels._envelope_ratio(lam, k, t, p, v, label)
            for (t, p), v, label in zip(pairs, values.tolist(), labels.tolist())
        ]
        assert ratios.tobytes() == np.array(scalar).tobytes()
        residuals = envelope_residual(lam, k, thetas, phis)
        assert residuals.tobytes() == np.array([envelope_residual(lam, k, t, p) for t, p in pairs]).tobytes()
        assert residuals.tobytes() == ratios.tobytes()
        row = envelope_residual(lam, k, 1.2, _REGION_GRID)
        assert row.tobytes() == np.array([envelope_residual(lam, k, 1.2, p) for p in _REGION_GRID.tolist()]).tobytes()

    @pytest.mark.parametrize("lam, k", [(0.3, 1), (1.3, 2), (2.45, 3)])
    def test_envelope_arithmetic_is_the_math_one(self, lam, k):
        # every power is np.float_power's, which rounds as ** does where
        # np.power need not; the values stand in for the kernel's
        rng = np.random.default_rng(5)
        thetas, phis = rng.uniform(0.05, math.pi - 0.05, (2, 500))
        values = rng.normal(size=500)
        labels = region_classify(thetas, phis)
        ratios = kernels._envelope_ratio(lam, k, thetas, phis, values, labels)
        rows = zip(thetas.tolist(), phis.tolist(), values.tolist(), labels.tolist())
        assert ratios.tobytes() == np.array([_envelope_by_math(lam, k, *row) for row in rows]).tobytes()


class TestEnvelopeResidual:
    def test_a2_even_k_finite(self):
        # even k: the diagonal constant vanishes, ratio must stay finite
        value = envelope_residual(0.5, 2, 1.2, 1.25)
        assert math.isfinite(value)

    def test_a1_sample(self):
        assert math.isfinite(envelope_residual(0.5, 2, 0.3, 2.5))

    def test_a2_odd_k_bounded(self):
        lam, k = 1.0, 1
        ratios = [
            envelope_residual(lam, k, 1.2, 1.2 + d)
            for d in (0.01, 0.05, 0.1, -0.02, -0.08)
        ]
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) < 50.0


class TestDifferentiationUnderIntegral:
    def test_derivative_of_smoothed_integral_matches_pv(self):
        # the (k, k-1) kernel integral is absolutely convergent and smooth;
        # its theta-derivative must reproduce the principal value plus the
        # jump term, which is what justifies moving d/dtheta inside
        from ultrariesz import SpectralCoefficients, band_limited, riesz_pv

        lam, k, theta = 0.5, 2, 1.2
        coeffs = SpectralCoefficients(lam, [0.0, 1.0, 0.4])
        f = band_limited(coeffs)
        relaxed = KernelConfig(t_level=5, r_level=5, min_separation=1e-12)

        def smoothed_integral(center):
            total = 0.0
            for lo, hi in ((0.0, center), (center, math.pi)):
                nodes, weights = tanh_sinh_segment(lo, hi, 6)
                values = np.empty_like(nodes)
                for idx, phi in enumerate(nodes):
                    if phi == center:
                        values[idx] = 0.0
                        continue
                    try:
                        kv = kernel_partial(lam, k, k - 1, center, float(phi), config=relaxed)
                    except AccuracyError:
                        kv = 0.0
                    values[idx] = kv * f(float(phi)) * math.sin(float(phi)) ** (2 * lam)
                total += float(np.dot(weights, values))
            return total

        h = 1e-4
        fd = (smoothed_integral(theta + h) - smoothed_integral(theta - h)) / (2 * h)
        pv = riesz_pv(f, lam, k, theta).value
        assert fd == pytest.approx(pv, abs=1e-4)
