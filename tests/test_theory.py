"""Tests for the prediction/fitting helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.theory import (
    assign_ranks_interactions,
    collision_detection_interactions,
    elect_leader_interactions,
    fit_power_law,
    normalized_ratio,
    ratio_spread,
)


class TestPredictions:
    def test_elect_leader_inverse_in_r(self):
        assert elect_leader_interactions(64, 8) == pytest.approx(
            elect_leader_interactions(64, 1) / 8
        )

    def test_elect_leader_quadratic_in_n(self):
        ratio = elect_leader_interactions(128, 4) / elect_leader_interactions(64, 4)
        assert ratio == pytest.approx(4 * math.log(128) / math.log(64))

    def test_component_predictions_match_theorem(self):
        assert assign_ranks_interactions(64, 4) == elect_leader_interactions(64, 4)
        assert collision_detection_interactions(64, 4) == elect_leader_interactions(64, 4)


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [3 * x**2.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_data_r_squared_below_one(self):
        xs = [2.0, 4.0, 8.0, 16.0, 32.0]
        ys = [x**2 * (1.3 if i % 2 else 0.7) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert fit.r_squared < 1.0
        assert fit.exponent == pytest.approx(2.0, abs=0.3)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])


class TestRatios:
    def test_normalized_ratio(self):
        assert normalized_ratio([2.0, 4.0], [1.0, 2.0]) == [2.0, 2.0]

    def test_ratio_spread_flat(self):
        assert ratio_spread([2.0, 4.0, 8.0], [1.0, 2.0, 4.0]) == pytest.approx(1.0)

    def test_ratio_spread_detects_shape_mismatch(self):
        # measured ~ x², predicted ~ x: spread grows with range.
        measured = [1.0, 4.0, 16.0]
        predicted = [1.0, 2.0, 4.0]
        assert ratio_spread(measured, predicted) == pytest.approx(4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_ratio([1.0], [1.0, 2.0])
