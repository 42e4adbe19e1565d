"""Tests for the statistical helpers."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.analysis.stats import (
    bootstrap_ci,
    geometric_tail_fit,
    ks_statistic,
    ks_threshold,
    success_rate_ci,
    tail_probability,
)
from repro.scheduler.rng import make_rng


class TestBootstrap:
    def test_ci_brackets_true_median(self):
        rng = make_rng(1)
        samples = [rng.gauss(100, 10) for _ in range(200)]
        ci = bootstrap_ci(samples, rng=make_rng(2))
        assert ci.low <= ci.point <= ci.high
        assert ci.contains(statistics.median(samples))
        assert ci.width < 10  # tight for 200 samples

    def test_degenerate_sample(self):
        ci = bootstrap_ci([5.0], resamples=50, rng=make_rng(0))
        assert ci.point == ci.low == ci.high == 5.0

    def test_custom_statistic(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0], statistic=max, resamples=100, rng=make_rng(0))
        assert ci.point == 3.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_deterministic_given_rng(self):
        samples = list(range(50))
        a = bootstrap_ci(samples, rng=make_rng(7))
        b = bootstrap_ci(samples, rng=make_rng(7))
        assert (a.low, a.high) == (b.low, b.high)


class TestKolmogorovSmirnov:
    def test_identical_samples_give_zero(self):
        assert ks_statistic([3, 1, 2, 2], [2, 3, 1, 2]) == 0.0

    def test_disjoint_samples_give_one(self):
        assert ks_statistic([1, 2, 3], [10, 11]) == 1.0
        assert ks_statistic([10, 11], [1, 2, 3]) == 1.0

    def test_ties_step_both_cdfs_together(self):
        # CDF gaps at 1, 2, 3, 4: |1/4 - 0|, |3/4 - 2/3|, |1 - 2/3|, 0.
        # Stepping through the tied 2s one sample at a time would read a
        # larger gap (up to 3/4) partway through them.
        assert ks_statistic([1, 2, 2, 3], [2, 2, 4]) == pytest.approx(1 / 3)

    def test_threshold_is_the_asymptotic_critical_value(self):
        # c(0.05) = sqrt(-ln(0.025) / 2) = 1.3581 for equal sizes n.
        assert ks_threshold(50, 50, 0.05) == pytest.approx(1.3581 * math.sqrt(2 / 50), rel=1e-4)
        assert ks_threshold(50, 50, 1e-3) > ks_threshold(50, 50, 0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])


class TestTailProbability:
    def test_counts_exceedances(self):
        assert tail_probability([1, 2, 3, 10], threshold=5) == 0.25

    def test_rule_of_three_when_clean(self):
        assert tail_probability([1.0] * 300, threshold=5) == pytest.approx(0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_probability([], 1)


class TestGeometricTail:
    def test_exponential_tail_recovered(self):
        rng = make_rng(3)
        samples = [rng.expovariate(1 / 50.0) for _ in range(3000)]
        t0, tau = geometric_tail_fit(samples, quantile=0.5)
        # Memorylessness: residual mean beyond any threshold stays ≈ 50.
        assert tau == pytest.approx(50.0, rel=0.15)

    def test_constant_samples_zero_tail(self):
        t0, tau = geometric_tail_fit([7.0, 7.0, 7.0])
        assert t0 == 7.0
        assert tau == 0.0

    def test_validates(self):
        with pytest.raises(ValueError):
            geometric_tail_fit([])
        with pytest.raises(ValueError):
            geometric_tail_fit([1.0], quantile=1.0)


class TestWilson:
    def test_perfect_success_has_sub_one_lower_bound(self):
        ci = success_rate_ci(20, 20)
        assert ci.point == 1.0
        assert 0.8 < ci.low < 1.0
        assert ci.high == 1.0

    def test_symmetric_at_half(self):
        ci = success_rate_ci(50, 100)
        assert ci.point == 0.5
        assert ci.low == pytest.approx(1 - ci.high, abs=1e-9)

    def test_zero_successes(self):
        ci = success_rate_ci(0, 30)
        assert ci.low == 0.0
        assert 0 < ci.high < 0.25

    def test_validates(self):
        with pytest.raises(ValueError):
            success_rate_ci(1, 0)
        with pytest.raises(ValueError):
            success_rate_ci(5, 3)
        with pytest.raises(ValueError):
            success_rate_ci(1, 2, confidence=0.5)
