import math
import sys
import threading
import warnings

import numpy as np
import pytest

from ultrariesz import (
    DyadicBands,
    KernelConfig,
    KernelPoint,
    beta,
    build_rule,
    coefficients,
    gegenbauer_eval,
    gegenbauer_theta_jets,
    integrate,
    jet_oracle,
    kernel_constants,
    norm_sq,
    sample_points,
    total_mass,
)
from ultrariesz import special
from ultrariesz.jets import Jet
from ultrariesz.special import _cos_leibniz, _polynomial_rows, _polynomial_rows_if_kept, _recurrence


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
        with pytest.raises(ValueError, match="outside"):
            gegenbauer_eval(3, 1.0, np.array([0.5, math.nan]))
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

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: gegenbauer_eval(2.5, 1.0, 0.3), "polynomial degree"),
            (lambda: gegenbauer_eval(np.float64(2.0), 1.0, 0.3), "polynomial degree"),
            (lambda: gegenbauer_theta_jets(3.0, 1.0, 1.0, 1), "polynomial degree"),
            (lambda: gegenbauer_theta_jets(3, 1.0, 1.0, 1.5), "derivative order"),
            (lambda: norm_sq(1.5, 1.0), "polynomial degree"),
            (lambda: build_rule(1.3, 2.5), "rule order"),
            (lambda: build_rule(1.3, 1), "rule order"),
        ],
    )
    def test_a_non_integer_degree_or_order_is_refused_by_name(self, call, name):
        # these once ended in a TypeError from range, or built an order-2 rule through int()
        with pytest.raises(ValueError, match=name):
            call()

    def test_numpy_integer_degree_and_order(self):
        assert gegenbauer_eval(np.int64(3), 0.7, 0.3) == gegenbauer_eval(3, 0.7, 0.3)
        jets = gegenbauer_theta_jets(np.int64(3), 0.7, 1.0, np.int32(2))
        assert np.array_equal(jets, gegenbauer_theta_jets(3, 0.7, 1.0, 2))
        assert build_rule(1.3, np.int64(8)) is build_rule(1.3, 8)


_POINT = KernelPoint(theta=1.1, phi=0.5, r=0.7, t=2.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: coefficients(2.0), "derivative order"),
        (lambda: coefficients(True), "derivative order"),
        (lambda: DyadicBands.dyadic(1.0, 2.5), "edge count"),
        (lambda: sample_points(2.5), "point count"),
        (lambda: jet_oracle(2.5, 1.0, _POINT), "derivative order"),
        (lambda: KernelConfig(t_level=True), "t_level"),
        (lambda: kernel_constants(True), "order"),
    ],
    ids=["coefficients-float", "coefficients-bool", "dyadic", "sample_points", "jet_oracle", "t_level",
         "kernel_constants"],
)
def test_integer_arguments_refuse_floats_and_bools_by_name(call, name):
    # these once died in a TypeError deep inside, or took True as 1 (a table
    # with ell=True) and 2.5 as three band edges
    with pytest.raises(ValueError, match=f"{name} must be"):
        call()


def test_integer_arguments_take_numpy_integers():
    assert coefficients(np.int64(3)) == coefficients(3)
    assert coefficients(np.int64(3)).ell == 3
    assert np.array_equal(DyadicBands.dyadic(1.0, np.int64(4)).t, DyadicBands.dyadic(1.0, 4).t)
    assert sample_points(np.int64(2)) == sample_points(2)
    assert jet_oracle(np.int64(2), 1.0, _POINT) == jet_oracle(2, 1.0, _POINT)
    assert KernelConfig(t_level=np.int64(5)) == KernelConfig()
    assert kernel_constants(np.int64(2)) == kernel_constants(2)


def _plain_values(n_max, lam, x):
    """P_0 .. P_n_max at x from one fresh run of the recurrence."""
    return np.array(list(_recurrence(n_max, lam, x, np.ones_like(x))))


def _plain_jets(n_max, lam, theta, order, width=None):
    """gegenbauer_theta_jets' rows from one fresh run of the recurrence at
    ``width`` derivatives, by default the order cap (or ``order`` past it),
    cut to the first order + 1 columns."""
    width = max(order, special.MAX_ORDER) if width is None else width
    one = np.zeros(width + 1)
    one[0] = 1.0
    return np.array(list(_recurrence(n_max, lam, _cos_leibniz(theta, width), one, np.matmul)))[:, : order + 1]


@pytest.fixture
def empty_memo():
    special._clear_memo()
    yield special._memo
    # the running count is the kept tables' footprint: no update was lost
    assert special._memo_floats == sum(special._footprint(*item) for item in special._memo.items())
    special._clear_memo()


class TestRecurrenceMemo:
    @pytest.mark.parametrize("degrees", [(4, 30), (30, 4), (1, 2, 17), (0, 9, 3, 40)])
    def test_prefix_and_rerun_are_a_fresh_run_bit_for_bit(self, empty_memo, degrees):
        x = np.cos(build_rule(1.3, 64).nodes)
        for n in degrees:
            assert np.array_equal(_polynomial_rows(n, 1.3, x), _plain_values(n, 1.3, x))
            # every order reads the one jet table of (lambda, theta)
            for order in (5, 0, special.MAX_ORDER):
                assert np.array_equal(gegenbauer_theta_jets(n, 1.3, 0.7, order), _plain_jets(n, 1.3, 0.7, order))
        # the longer table is kept, one per key, the jets at the order cap
        assert [table.shape[0] for table in empty_memo.values()] == [max(degrees) + 1] * 2
        assert list(empty_memo.values())[-1].shape[1] == special.MAX_ORDER + 1

    def test_a_shorter_table_never_replaces_a_longer_one(self, empty_memo):
        # as when two callers race to build one key
        x = np.linspace(-0.5, 0.5, 4)
        key, long = special._points_key(0.7, x), _plain_values(9, 0.7, x)
        special._keep(key, long)
        special._keep(key, _plain_values(3, 0.7, x))
        assert empty_memo[key] is long

    def test_kept_tables_are_read_only_and_results_writable(self, empty_memo):
        x = np.linspace(-0.9, 0.9, 5)
        rows = _polynomial_rows(6, 0.8, x)
        with pytest.raises(ValueError):
            rows[0] = 0.0
        assert not any(table.flags.writeable for table in empty_memo.values())
        # the public functions hand out arrays of their own
        jets, values = gegenbauer_theta_jets(6, 0.8, 1.0, 2), gegenbauer_eval(6, 0.8, x)
        held = jets.copy()
        jets *= 2.0
        values[0] = 0.0
        assert np.array_equal(gegenbauer_theta_jets(6, 0.8, 1.0, 2), held)
        assert np.array_equal(gegenbauer_eval(6, 0.8, x), rows[6])

    def test_gegenbauer_eval_keeps_nothing(self, empty_memo):
        gegenbauer_eval(5, 1.1, np.linspace(-0.5, 0.5, 7))
        gegenbauer_eval(5, 1.1, 0.3)
        assert not empty_memo

    def test_rows_if_kept_read_the_memo_and_keep_nothing(self, empty_memo):
        x = np.cos(build_rule(1.3, 64).nodes)
        for n in (3, 9):
            assert np.array_equal(list(_polynomial_rows_if_kept(n, 1.3, x)), _plain_values(n, 1.3, x))
        assert not empty_memo
        kept = _polynomial_rows(6, 1.3, x)
        assert np.shares_memory(_polynomial_rows_if_kept(4, 1.3, x), kept)
        assert np.array_equal(list(_polynomial_rows_if_kept(9, 1.3, x)), _plain_values(9, 1.3, x))
        assert [table.shape[0] for table in empty_memo.values()] == [7]

    def test_stays_bounded(self, empty_memo):
        for i in range(3 * special._MEMO_TABLES):
            gegenbauer_theta_jets(8, 1.0 + i, 0.7, 2)
            _polynomial_rows(3, 1.0, np.linspace(-0.5, 0.5, 7) + 1e-3 * i)
            assert len(empty_memo) <= special._MEMO_TABLES
        # the most recent are kept, the jets under (lambda, theta) at the order cap
        assert (1.0 + 3 * special._MEMO_TABLES - 1, 0.7, special.MAX_ORDER) in empty_memo
        # tables that fit alone but not together push the oldest out; a points
        # key counts as one more row
        points = special._MEMO_ENTRIES // 8
        for i in range(4):
            _polynomial_rows(2, 1.0, np.linspace(-0.5, 0.5, points) + 1e-3 * i)
            assert special._memo_floats <= special._MEMO_ENTRIES
        assert len(empty_memo) == 2
        assert special._memo_floats == 2 * 4 * points

    def test_a_table_past_the_size_cap_is_not_kept(self, empty_memo):
        x = np.cos(np.linspace(0.1, 3.0, special._MEMO_ENTRIES // 4 + 1))
        rows = _polynomial_rows(3, 0.7, x)
        assert rows.shape == (4, x.size) and not empty_memo
        assert np.array_equal(rows, _plain_values(3, 0.7, x))
        # its points key counts: three rows and the key fill the cap
        x = x[: special._MEMO_ENTRIES // 4]
        _polynomial_rows(2, 0.7, x)
        assert special._memo_floats == special._MEMO_ENTRIES
        special._clear_memo()
        _polynomial_rows(3, 0.7, x)
        assert not empty_memo
        # nor is a longer rerun of a kept table
        small = _polynomial_rows(1, 0.7, x[:100])
        assert np.array_equal(_polynomial_rows(special._MEMO_ENTRIES // 100, 0.7, x[:100])[:2], small)
        assert [table.shape for table in empty_memo.values()] == [(2, 100)]

    def test_a_non_finite_table_is_not_kept(self, empty_memo):
        # so that a caller raising on overflow meets it as in a fresh run
        x = np.array([0.3, 0.9])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_polynomial_rows(40, 1e20, x)).all()
        assert not empty_memo
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
            _polynomial_rows(40, 1e20, x)

    def test_a_points_key_tells_shapes_apart(self, empty_memo):
        x = np.linspace(-0.5, 0.5, 6)
        flat = _polynomial_rows(4, 1.1, x)
        square = _polynomial_rows(4, 1.1, x.reshape(2, 3))
        assert square.shape == (5, 2, 3) and np.array_equal(square.reshape(5, 6), flat)
        assert len(empty_memo) == 2

    def test_concurrent_callers_get_the_serial_values(self, empty_memo):
        x = np.cos(build_rule(0.9, 64).nodes)
        # each caller reads its degrees in its own order: prefixes, reruns
        # and builds of one key race
        orders = [(5, 30, 12), (30, 5, 12), (12, 30, 5), (12, 5, 30)]

        def work(degrees):
            return [(_polynomial_rows(n, 0.9, x), gegenbauer_theta_jets(n, 0.9, 1.2, 3)) for n in degrees]

        serial = {n: (_plain_values(n, 0.9, x), _plain_jets(n, 0.9, 1.2, 3)) for n in orders[0]}
        results: dict[int, list] = {}

        def call(slot):
            results[slot] = work(orders[slot])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                special._clear_memo()
                results.clear()
                callers = [threading.Thread(target=call, args=(slot,)) for slot in range(4)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=120)
                assert not any(caller.is_alive() for caller in callers)
                assert sorted(results) == [0, 1, 2, 3]
                for slot, values in results.items():
                    for n, (rows, jets) in zip(orders[slot], values):
                        assert np.array_equal(rows, serial[n][0])
                        assert np.array_equal(jets, serial[n][1])
        finally:
            sys.setswitchinterval(interval)


class TestJetsAtTheOrderCap:
    """Every theta-jet table is built at the order cap, and a lower order
    reads its first columns."""

    def test_the_cap_is_the_faa_di_bruno_tables_cap(self):
        from ultrariesz import faa_di_bruno

        assert faa_di_bruno.MAX_ORDER == special.MAX_ORDER == 12

    @pytest.mark.parametrize("lam, theta", [(0.3, 1e-3), (1.3, 0.7), (2.45, math.pi - 0.55), (10.0, 2.9)])
    def test_each_order_is_the_columns_of_the_cap_call(self, empty_memo, lam, theta):
        # each order read from the table the previous order's cold call kept,
        # and cold itself: the bits do not depend on which order came first
        top = special.MAX_ORDER
        cap = gegenbauer_theta_jets(40, lam, theta, top)
        for order in range(top + 1):
            warm = gegenbauer_theta_jets(40, lam, theta, order)
            special._clear_memo()
            cold = gegenbauer_theta_jets(40, lam, theta, order)
            assert np.array_equal(warm, cap[:, : order + 1]), order
            assert np.array_equal(cold, cap[:, : order + 1]), order
        assert len(empty_memo) == 1

    def test_an_order_past_the_cap_is_built_at_that_order(self, empty_memo):
        past = special.MAX_ORDER + 2
        jets = gegenbauer_theta_jets(20, 1.3, 0.7, past)
        assert np.array_equal(jets, _plain_jets(20, 1.3, 0.7, past, width=past))
        # under its own key: the cap's table is unmoved by it
        assert np.array_equal(gegenbauer_theta_jets(20, 1.3, 0.7, 3), _plain_jets(20, 1.3, 0.7, 3))
        assert sorted(table.shape[1] for table in empty_memo.values()) == [special.MAX_ORDER + 1, past + 1]

    def test_the_cap_is_no_less_accurate_than_each_order_alone(self):
        # against the recurrence in 40-digit arithmetic, the worst error
        # relative to its row's largest entry, over degrees 0..40, per order
        # 0..12, the cap's columns / each order's own run (the tables before
        # the cap): 1.71e-13 / 1.71e-13 at order 0 (the same bits: the
        # Leibniz matrix is lower triangular), 1.25e-13 / 9.55e-14 at order
        # 1, 4.88e-14 / 4.64e-14 at 5, 6.47e-14 / 7.44e-14 at 6, 8.47e-14 /
        # 9.26e-14 at 10, and equal at every other order; the worst of all,
        # 1.71e-13, is at order 0 and theta pi - 1e-3 for both
        mpmath = pytest.importorskip("mpmath")
        top, n_max = special.MAX_ORDER, 40
        worst_cap, worst_alone = np.zeros(top + 1), np.zeros(top + 1)
        for lam in (0.3, 1.3, 2.45, 10.0):
            for theta in (1e-3, 0.7, 1.9, math.pi - 1e-3):
                with mpmath.workdps(40):
                    c = [mpmath.cos(mpmath.mpf(theta)), -mpmath.sin(mpmath.mpf(theta))]
                    c += [-c[0], -c[1]]
                    leibniz = mpmath.matrix(
                        [[mpmath.binomial(m, i) * c[(m - i) % 4] if i <= m else 0 for i in range(top + 1)]
                         for m in range(top + 1)]
                    )
                    one = mpmath.matrix([1] + [0] * top)
                    exact = list(_recurrence(n_max, mpmath.mpf(lam), leibniz, one, lambda a, b: a * b))
                    exact = np.array([[float(v) for v in row] for row in exact])
                for order in range(top + 1):
                    cap = gegenbauer_theta_jets(n_max, lam, theta, order)
                    alone = _plain_jets(n_max, lam, theta, order, width=order)
                    scale = np.max(np.abs(exact[:, : order + 1]), axis=1)[:, None]
                    cap_error = float(np.max(np.abs(cap - exact[:, : order + 1]) / scale))
                    alone_error = float(np.max(np.abs(alone - exact[:, : order + 1]) / scale))
                    worst_cap[order] = max(worst_cap[order], cap_error)
                    worst_alone[order] = max(worst_alone[order], alone_error)
        for order in range(top + 1):
            assert worst_cap[order] <= 1.5 * worst_alone[order], (order, worst_cap[order], worst_alone[order])
        assert worst_cap.max() <= worst_alone.max() < 2e-13

    def test_past_the_float_range_the_columns_asked_for_run_alone(self, empty_memo):
        # at lambda 1000 and theta 0.7 the cap's jets leave the float range
        # from degree 218 on, the order-1 ones at 249: in between the order-1
        # jets are their own run's, finite and unwarned, and nothing is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jets = gegenbauer_theta_jets(230, 1000.0, 0.7, 1)
        assert np.all(np.isfinite(jets))
        assert np.array_equal(jets, _plain_jets(230, 1000.0, 0.7, 1, width=1))
        assert not empty_memo
        # and the order-1 overflow meets the caller's float policy
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            gegenbauer_theta_jets(260, 1000.0, 0.7, 1)


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
