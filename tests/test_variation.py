import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrariesz import DyadicBands, TruncationTrace, oscillation, rho_variation


def make_trace(values, eps0=1.0):
    values = np.asarray(values, dtype=float)
    eps = eps0 * 0.5 ** np.arange(values.size)
    return TruncationTrace(epsilons=eps, values=values, theta=1.0)


def brute_force_variation(values, rho):
    """Enumerate every subsequence; the obviously-correct reference."""
    n = len(values)
    best = 0.0
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            total = sum(
                abs(values[subset[m + 1]] - values[subset[m]]) ** rho
                for m in range(len(subset) - 1)
            )
            best = max(best, total)
    return best ** (1.0 / rho)


class TestOscillation:
    def test_constant_trace_is_zero(self):
        trace = make_trace([3.0, 3.0, 3.0, 3.0])
        assert oscillation(trace, DyadicBands.dyadic(1.0, 6)) == 0.0

    def test_single_band_spread(self):
        # both points fall in [0.5, 1): spread 2
        trace = TruncationTrace(
            epsilons=np.array([0.9, 0.6]), values=np.array([3.0, 1.0]), theta=1.0
        )
        assert oscillation(trace, DyadicBands(np.array([1.0, 0.5, 0.25]))) == pytest.approx(2.0)

    def test_two_band_hand_case(self):
        # values (0,1) in one band and (0,1) in the next: sqrt(1^2 + 1^2)
        trace = TruncationTrace(
            epsilons=np.array([0.9, 0.6, 0.4, 0.3]),
            values=np.array([0.0, 1.0, 0.0, 1.0]),
            theta=1.0,
        )
        bands = DyadicBands(np.array([1.0, 0.5, 0.25]))
        assert oscillation(trace, bands) == pytest.approx(math.sqrt(2.0))

    def test_sparse_bands_contribute_nothing(self):
        trace = TruncationTrace(
            epsilons=np.array([0.9, 0.05]), values=np.array([5.0, -5.0]), theta=1.0
        )
        bands = DyadicBands(np.array([1.0, 0.5, 0.25, 0.125, 0.0625]))
        assert oscillation(trace, bands) == 0.0

    def test_dominated_by_v2_style_variation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            values = rng.normal(size=10)
            trace = make_trace(values)
            bands = DyadicBands.dyadic(2.0, 12)
            osc = oscillation(trace, bands)
            v2 = brute_force_variation(list(values), 2.0)
            assert osc <= v2 + 1e-12


class TestRhoVariation:
    def test_two_points(self):
        assert rho_variation(make_trace([0.0, 1.0]), 3.0) == pytest.approx(1.0)

    def test_zigzag_beats_coarsening(self):
        value = rho_variation(make_trace([0.0, 1.0, 0.0]), 3.0)
        assert value == pytest.approx(2.0 ** (1.0 / 3.0))

    def test_exhaustive_small_traces(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            values = rng.normal(size=n)
            rho = float(rng.uniform(2.1, 4.0))
            dp = rho_variation(make_trace(values), rho)
            ref = brute_force_variation(list(values), rho)
            assert dp == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            values = rng.normal(size=9)
            trace = make_trace(values)
            results = [rho_variation(trace, rho) for rho in (2.2, 2.8, 3.5, 5.0)]
            assert all(a >= b - 1e-12 for a, b in zip(results, results[1:]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=8)
        trace = make_trace(values)
        scaled = make_trace(4.0 * values)
        assert rho_variation(scaled, 3.0) == pytest.approx(4.0 * rho_variation(trace, 3.0))
        bands = DyadicBands.dyadic(2.0, 10)
        assert oscillation(scaled, bands) == pytest.approx(4.0 * oscillation(trace, bands))

    def test_small_rho_warns(self):
        with pytest.warns(UserWarning):
            rho_variation(make_trace([0.0, 1.0]), 1.5)
        with pytest.raises(ValueError):
            rho_variation(make_trace([0.0, 1.0]), 0.5)

    @pytest.mark.parametrize("rho", [1000.0, 1e6])
    def test_large_rho_keeps_the_largest_increment(self, rho):
        # every |difference|**rho underflowed, and the value read 0.0
        values = [-0.7324, -0.7558, -0.7663, -0.7745]
        assert rho_variation(make_trace(values), rho) == pytest.approx(0.0421, rel=1e-12)
        assert rho_variation(make_trace([0.0, 1e-3, 0.0]), rho) == pytest.approx(1e-3 * 2.0 ** (1.0 / rho), rel=1e-12)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_a_non_finite_rho_is_refused(self, rho):
        # rho = inf read 0**0 = 1.0 whatever the trace
        with pytest.raises(ValueError, match="finite"):
            rho_variation(make_trace([0.0, 1.0]), rho)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=10),
        st.floats(min_value=2.1, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_bruteforce_property(self, values, rho):
        dp = rho_variation(make_trace(values), rho)
        ref = brute_force_variation(values, rho)
        assert dp == pytest.approx(ref, rel=1e-10, abs=1e-12)


class TestTraceValidation:
    def test_rejects_increasing_epsilons(self):
        with pytest.raises(ValueError):
            TruncationTrace(
                epsilons=np.array([0.1, 0.2]), values=np.array([1.0, 2.0]), theta=1.0
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TruncationTrace(
                epsilons=np.array([0.2, 0.1]), values=np.array([1.0]), theta=1.0
            )

    def test_rejects_nan_epsilons(self):
        with pytest.raises(ValueError, match="decreasing"):
            TruncationTrace(epsilons=[0.4, math.nan], values=[0.0, 1.0], theta=1.0)

    @pytest.mark.parametrize("edges", [[1.0, math.nan], [math.nan, 0.5], [1.0, 0.5, math.nan]])
    def test_rejects_nan_band_edges(self, edges):
        with pytest.raises(ValueError, match="band edges"):
            DyadicBands(edges)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edges", [[math.inf, 1.0], [1.0, -math.inf], [math.inf, math.inf]])
    def test_rejects_infinite_band_edges(self, edges):
        # an infinite first edge was accepted, and two warned in np.diff
        with pytest.raises(ValueError, match="band edges must be finite"):
            DyadicBands(edges)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            DyadicBands(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DyadicBands(np.array([1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, epsilons, values", [
        ("epsilons", [math.inf, 0.2], [1.0, 2.0]),
        ("epsilons", [math.inf, math.inf], [1.0, 2.0]),
        ("values", [0.4, 0.2], [math.nan, 2.0]),
        ("values", [0.4, 0.2], [1.0, -math.inf]),
    ])
    def test_rejects_non_finite_traces_by_field(self, field, epsilons, values):
        # an infinite radius was accepted, and a NaN or infinite value made
        # rho_variation return nan or warn of an invalid divide
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TruncationTrace(epsilons=epsilons, values=values, theta=1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t0, count, last", [
        (math.inf, 4, "inf"), (math.nan, 4, "nan"), (1.0, 1076, "0.0"), (0.25, 1074, "0.0"),
    ])
    def test_dyadic_refuses_edges_that_are_not_finite_and_positive(self, t0, count, last):
        # inf - inf warned in np.diff; past 1075 edges the last underflowed
        # to 0, and every edge was allocated before that was refused
        with pytest.raises(ValueError, match=f"gives a last edge of {last}$"):
            DyadicBands.dyadic(t0, count)

    def test_dyadic_keeps_the_last_positive_edge(self):
        assert DyadicBands.dyadic(1.0, 1075).t[-1] == 2.0**-1074


class TestConvergenceReport:
    def test_zero_function_gives_zero_report(self):
        from ultrariesz import SpectralCoefficients, TruncationSchedule, build_rule, convergence_report

        lam, k = 1.0, 1
        rule = build_rule(lam, 32)
        coeffs = SpectralCoefficients(lam, [0.0, 0.0, 0.0])
        schedule = TruncationSchedule.geometric(0.05, 0.5, 4)
        report = convergence_report(
            coeffs, lam, k, [0.8, 1.9], schedule, DyadicBands.dyadic(0.1, 8), 3.0, rule
        )
        for record in report.records:
            assert record.oscillation == 0.0
            assert record.variation == 0.0
            assert record.maximal == 0.0
            assert record.pv == 0.0
            assert record.spectral == pytest.approx(0.0, abs=1e-14)
        assert report.norms["p2"]["oscillation"] == 0.0
        assert report.max_abs_error() < 1e-14

    def test_f_norms_sample_f_once(self):
        from ultrariesz import TruncationSchedule, build_rule, convergence_report

        lam, k = 1.0, 1
        thetas = np.array([0.8, 1.9])
        calls = []

        def f(theta):
            calls.append(theta)
            return np.cos(theta)

        schedule = TruncationSchedule.geometric(0.05, 0.5, 4)
        report = convergence_report(
            f, lam, k, thetas, schedule, DyadicBands.dyadic(0.1, 8), 3.0, build_rule(lam, 32)
        )
        at_thetas = [arg for arg in calls if np.ndim(arg) and np.array_equal(arg, thetas)]
        assert len(at_thetas) == 1
        expected = float(np.trapezoid(np.cos(thetas) ** 2 * np.sin(thetas) ** 2, thetas)) ** 0.5
        assert report.norms["p2"]["f"] == pytest.approx(expected, rel=1e-14)

    def test_maximal_dominates_every_truncation(self):
        from ultrariesz import (
            SpectralCoefficients,
            TruncationOperator,
            TruncationSchedule,
            band_limited,
            build_rule,
            convergence_report,
        )

        lam, k, theta = 1.0, 1, 1.2
        coeffs = SpectralCoefficients(lam, [0.0, 1.0, 0.5])
        schedule = TruncationSchedule.geometric(0.05, 0.5, 4)
        report = convergence_report(
            coeffs, lam, k, [theta], schedule, DyadicBands.dyadic(0.1, 8), 3.0, build_rule(lam, 32)
        )
        values = TruncationOperator(lam, k, theta, schedule.epsilons).truncated_values(band_limited(coeffs))
        assert report.records[0].maximal >= np.max(np.abs(values)) - 1e-15
