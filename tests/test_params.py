"""Unit tests for :mod:`repro.core.params`."""

from __future__ import annotations

import math

import pytest

from repro.core.params import BaselineParams, ProtocolParams


class TestValidation:
    def test_minimum_population(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=1)

    def test_r_lower_bound(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, r=0)

    def test_r_upper_bound(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, r=6)

    def test_r_at_half_n_allowed(self):
        params = ProtocolParams(n=10, r=5)
        assert params.r == 5

    def test_r_one_always_allowed(self):
        assert ProtocolParams(n=2, r=1).r == 1

    def test_generations_minimum(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, r=2, generations=2)

    def test_label_slack_required(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, r=2, c_labels=1.0)


class TestDerivedQuantities:
    def test_log_n_clamped(self):
        assert ProtocolParams(n=2).log_n == 1.0

    def test_log_n_natural(self):
        params = ProtocolParams(n=100, r=5)
        assert params.log_n == pytest.approx(math.log(100))

    def test_countdown_scales_inversely_with_r(self):
        """In the formula-dominated range, C_max halves as r doubles."""
        slow = ProtocolParams(n=64, r=1)
        fast = ProtocolParams(n=64, r=2)
        assert slow.countdown_max > fast.countdown_max
        assert slow.countdown_max == pytest.approx(2 * fast.countdown_max, rel=0.05)

    def test_countdown_floor_at_large_r(self):
        """At r = Θ(n) the Θ(log n) floor takes over (see docstring)."""
        params = ProtocolParams(n=64, r=32)
        import math

        floor = params.c_countdown_floor * math.log(64)
        assert params.countdown_max == pytest.approx(floor, abs=2)
        # Floor is within a constant factor of the bare formula.
        formula = params.c_countdown * 2 * math.log(64)
        assert params.countdown_max < 10 * formula

    def test_probation_scales_inversely_with_r(self):
        slow = ProtocolParams(n=64, r=1)
        fast = ProtocolParams(n=64, r=2)
        assert slow.probation_max == pytest.approx(2 * fast.probation_max, rel=0.05)

    def test_probation_floor_at_large_r(self):
        import math

        params = ProtocolParams(n=64, r=32)
        floor = params.c_prob_floor * math.log(64)
        assert params.probation_max == pytest.approx(floor, abs=2)

    def test_labels_per_deputy_exceeds_share(self):
        """c > 1 ⇒ total labels r·⌈cn/r⌉ strictly exceed n (Appendix D)."""
        for n, r in [(10, 1), (16, 4), (64, 8), (63, 5)]:
            params = ProtocolParams(n=n, r=r)
            assert params.labels_per_deputy * r > n

    def test_identifier_space_is_n_cubed(self):
        params = ProtocolParams(n=7, r=2)
        assert params.identifier_space == 343

    def test_messages_per_rank_quadratic_in_group(self):
        params = ProtocolParams(n=64, r=8)
        assert params.messages_per_rank(8) == 2 * 64
        assert params.messages_per_rank(4) == 2 * 16

    def test_messages_per_rank_clamped_for_tiny_groups(self):
        params = ProtocolParams(n=64, r=1)
        assert params.messages_per_rank(1) == params.messages_per_rank(2)
        assert params.messages_per_rank(1) >= 2

    def test_signature_space_quintic(self):
        params = ProtocolParams(n=64, r=8)
        assert params.signature_space(8) == 8**5

    def test_signature_space_floor(self):
        params = ProtocolParams(n=64, r=1)
        assert params.signature_space(1) >= 16

    def test_signature_period_logarithmic(self):
        params = ProtocolParams(n=64, r=8)
        assert params.signature_period(8) == math.ceil(params.c_sig * math.log(8))

    def test_timers_positive(self):
        params = ProtocolParams(n=2, r=1)
        assert params.reset_count_max >= 2
        assert params.delay_timer_max >= 2
        assert params.countdown_max >= 4
        assert params.probation_max >= 4
        assert params.sleep_timer_max >= 2
        assert params.le_count_max >= 2


class TestWithUpdates:
    """Parameters never change in place; ``dataclasses.replace`` copies."""

    def test_frozen(self):
        params = ProtocolParams(n=16, r=2)
        with pytest.raises(AttributeError):
            params.n = 32  # type: ignore[misc]


class TestBaselineParams:
    def test_minimum_population(self):
        with pytest.raises(ValueError):
            BaselineParams(n=1)

    def test_name_space(self):
        assert BaselineParams(n=5).name_space == 125

    def test_timer_positive(self):
        assert BaselineParams(n=2).timer_max >= 2
