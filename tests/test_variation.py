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

    def test_band_validation(self):
        with pytest.raises(ValueError):
            DyadicBands(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DyadicBands(np.array([1.0]))


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
