"""Tests for ``AssignRanks_r`` (Appendix D, Lemma D.1)."""

from __future__ import annotations

from repro.core.assign_ranks import (
    AssignRanksProtocol,
    assign_ranks,
    initial_ar_state,
    rank_from_label,
)
from repro.core.params import ProtocolParams
from repro.core.state import ARPhase, ARState
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.simulation import Simulation


def make_sheriff(params: ProtocolParams) -> ARState:
    state = initial_ar_state()
    state.phase = ARPhase.SHERIFF
    state.low_badge = 1
    state.high_badge = params.r
    state.channel = (0,) * params.r
    return state


def make_recipient(params: ProtocolParams) -> ARState:
    state = initial_ar_state()
    state.phase = ARPhase.RECIPIENT
    state.channel = (0,) * params.r
    return state


class TestRankFromLabel:
    def test_first_deputy_first_label_is_leader(self):
        assert rank_from_label((1, 1), (3, 3, 3), 9) == 1

    def test_lexicographic_positions(self):
        channel = (3, 2, 4)  # deputies issued 3, 2, 4 labels
        ranks = [
            rank_from_label((deputy, index), channel, 9)
            for deputy, counts in ((1, 3), (2, 2), (3, 4))
            for index in range(1, counts + 1)
        ]
        assert ranks == list(range(1, 10))

    def test_none_label_defaults_to_one(self):
        assert rank_from_label(None, (1, 2), 8) == 1

    def test_garbage_clamped_into_range(self):
        assert rank_from_label((3, 999), (500, 500, 500), 10) == 10
        assert rank_from_label((1, 1), (), 10) == 1


class TestDeputize:
    def test_badge_split_halves_range(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        sheriff = make_sheriff(params)
        recipient = make_recipient(params)
        protocol.transition(sheriff, recipient, rng)
        # r=4: sheriff keeps {1,2}, recipient takes {3,4}.
        assert (sheriff.low_badge, sheriff.high_badge) == (1, 2)
        assert (recipient.low_badge, recipient.high_badge) == (3, 4)
        assert sheriff.phase is ARPhase.SHERIFF
        assert recipient.phase is ARPhase.SHERIFF

    def test_single_badge_becomes_deputy(self, rng):
        params = ProtocolParams(n=16, r=2)
        protocol = AssignRanksProtocol(params)
        sheriff = make_sheriff(params)
        recipient = make_recipient(params)
        protocol.transition(sheriff, recipient, rng)
        assert sheriff.phase is ARPhase.DEPUTY
        assert recipient.phase is ARPhase.DEPUTY
        assert {sheriff.deputy_id, recipient.deputy_id} == {1, 2}
        assert sheriff.counter == 1
        assert sheriff.channel[sheriff.deputy_id - 1] == 1

    def test_badge_intervals_partition_r(self, rng):
        """Repeated deputization creates exactly the deputies 1..r."""
        params = ProtocolParams(n=32, r=8)
        protocol = AssignRanksProtocol(params)
        agents = [make_sheriff(params)] + [make_recipient(params) for _ in range(15)]
        scheduler_rng = make_rng(5)
        for _ in range(5000):
            i = scheduler_rng.randrange(len(agents))
            j = scheduler_rng.randrange(len(agents) - 1)
            if j >= i:
                j += 1
            protocol.transition(agents[i], agents[j], rng)
            if sum(1 for a in agents if a.phase is ARPhase.DEPUTY) == params.r:
                break
        deputies = [a for a in agents if a.phase is ARPhase.DEPUTY]
        assert sorted(d.deputy_id for d in deputies) == list(range(1, params.r + 1))


class TestLabeling:
    def test_labeling_gated_on_all_deputies(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        deputy = initial_ar_state()
        deputy.phase = ARPhase.DEPUTY
        deputy.deputy_id = 1
        deputy.counter = 1
        deputy.channel = (1, 0, 0, 0)  # sum < r: labeling must not fire
        recipient = make_recipient(params)
        protocol.transition(deputy, recipient, rng)
        assert recipient.label is None
        assert deputy.counter == 1

    def test_labeling_issues_sequential_labels(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        deputy = initial_ar_state()
        deputy.phase = ARPhase.DEPUTY
        deputy.deputy_id = 2
        deputy.counter = 1
        deputy.channel = (1, 1, 1, 1)
        first = make_recipient(params)
        second = make_recipient(params)
        protocol.transition(deputy, first, rng)
        protocol.transition(deputy, second, rng)
        assert first.label == (2, 2)
        assert second.label == (2, 3)
        assert deputy.counter == 3
        assert deputy.channel[1] == 3

    def test_pool_exhaustion_stops_labeling(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        deputy = initial_ar_state()
        deputy.phase = ARPhase.DEPUTY
        deputy.deputy_id = 1
        deputy.counter = params.labels_per_deputy
        deputy.channel = (params.labels_per_deputy, 1, 1, 1)
        recipient = make_recipient(params)
        protocol.transition(deputy, recipient, rng)
        assert recipient.label is None
        assert deputy.counter == params.labels_per_deputy

    def test_labeled_recipient_not_relabeled(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        deputy = initial_ar_state()
        deputy.phase = ARPhase.DEPUTY
        deputy.deputy_id = 1
        deputy.counter = 2
        deputy.channel = (2, 1, 1, 1)
        recipient = make_recipient(params)
        recipient.label = (3, 1)
        protocol.transition(deputy, recipient, rng)
        assert recipient.label == (3, 1)
        assert deputy.counter == 2


class TestChannelBroadcast:
    def test_channels_max_merge(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        a = make_recipient(params)
        b = make_recipient(params)
        a.channel = (3, 0, 2, 0)
        b.channel = (1, 4, 0, 0)
        protocol.transition(a, b, rng)
        assert a.channel == (3, 4, 2, 0)
        assert b.channel == (3, 4, 2, 0)

    def test_complete_channel_triggers_sleep(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        a = make_recipient(params)
        b = make_recipient(params)
        a.label = (1, 2)
        a.channel = (8, 8, 0, 0)  # sums to n = 16
        b.channel = (0, 0, 0, 0)
        protocol.transition(a, b, rng)
        assert a.phase is ARPhase.SLEEPER
        assert b.phase is ARPhase.SLEEPER  # merge gave b the full channel too
        assert a.label == (1, 2)

    def test_deputy_sleeps_with_own_label(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        deputy = initial_ar_state()
        deputy.phase = ARPhase.DEPUTY
        deputy.deputy_id = 3
        deputy.counter = 4
        deputy.channel = (4, 4, 4, 4)
        other = make_recipient(params)
        protocol.transition(deputy, other, rng)
        assert deputy.phase is ARPhase.SLEEPER
        assert deputy.label == (3, 1)


class TestSleep:
    def test_sleeper_meeting_ranked_becomes_ranked(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        sleeper = initial_ar_state()
        sleeper.phase = ARPhase.SLEEPER
        sleeper.label = (1, 2)
        sleeper.channel = (4, 4, 4, 4)
        sleeper.sleep_timer = 1
        ranked = initial_ar_state()
        ranked.phase = ARPhase.RANKED
        ranked.rank = 7
        protocol.transition(sleeper, ranked, rng)
        assert sleeper.phase is ARPhase.RANKED
        assert sleeper.rank == 2

    def test_sleep_timer_expiry_ranks_both(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        sleeper = initial_ar_state()
        sleeper.phase = ARPhase.SLEEPER
        sleeper.label = (1, 1)
        sleeper.channel = (4, 4, 4, 4)
        sleeper.sleep_timer = params.sleep_timer_max - 1
        other = initial_ar_state()
        other.phase = ARPhase.SLEEPER
        other.label = (2, 1)
        other.channel = (4, 4, 4, 4)
        other.sleep_timer = 1
        protocol.transition(sleeper, other, rng)
        assert sleeper.phase is ARPhase.RANKED
        assert other.phase is ARPhase.RANKED
        assert sleeper.rank == 1
        assert other.rank == 5

    def test_sleep_spreads_to_awake_partner(self, rng):
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        sleeper = initial_ar_state()
        sleeper.phase = ARPhase.SLEEPER
        sleeper.label = (1, 1)
        sleeper.channel = (4, 4, 4, 4)
        sleeper.sleep_timer = 1
        recipient = make_recipient(params)
        recipient.label = (2, 3)
        protocol.transition(sleeper, recipient, rng)
        assert recipient.phase is ARPhase.SLEEPER
        assert recipient.label == (2, 3)


class TestRankedPair:
    def test_two_ranked_agents_unchanged_and_no_draw(self):
        """Lemma D.1's silence, one interaction: leftover fields included."""
        params = ProtocolParams(n=12, r=3)
        u = ARState(phase=ARPhase.RANKED, rank=4, channel=(1, 2, 3), label=(1, 2))
        v = ARState(phase=ARPhase.RANKED, rank=9, sleep_timer=5)
        before = (u.clone(), v.clone())
        rng = make_rng(3)
        state = rng.getstate()
        assign_ranks(u, v, params, rng)
        assert (u, v) == before
        assert rng.getstate() == state


class TestFullRuns:
    def test_produces_correct_silent_ranking(self):
        """Lemma D.1 end-to-end for several (n, r)."""
        for n, r, seed in [(12, 1, 0), (12, 3, 1), (24, 4, 2), (32, 8, 3)]:
            params = ProtocolParams(n=n, r=r)
            protocol = AssignRanksProtocol(params)
            sim = Simulation(protocol, n=n, seed=seed)
            result = sim.run_until(
                protocol.is_goal_configuration,
                max_interactions=2_000_000,
                check_interval=200,
            )
            assert result.converged, (n, r)
            ranks = sorted(s.rank for s in result.config)
            assert ranks == list(range(1, n + 1))

    def test_silence_once_ranked(self):
        """Once all agents are ranked, no interaction changes any AR state."""
        params = ProtocolParams(n=16, r=4)
        protocol = AssignRanksProtocol(params)
        sim = Simulation(protocol, n=16, seed=9)
        result = sim.run_until(
            protocol.is_goal_configuration, max_interactions=2_000_000, check_interval=200
        )
        assert result.converged
        snapshot = [s.clone() for s in result.config]
        sim.run(5_000)
        assert [s.rank for s in sim.config] == [s.rank for s in snapshot]
        assert all(s.phase is ARPhase.RANKED for s in sim.config)

    def test_success_across_seeds(self):
        """The w.h.p. claim: all of 20 seeded runs rank correctly."""
        params = ProtocolParams(n=20, r=4)
        protocol = AssignRanksProtocol(params)
        successes = 0
        for trial in range(20):
            sim = Simulation(protocol, n=20, seed=derive_seed(55, trial))
            result = sim.run_until(
                protocol.is_goal_configuration,
                max_interactions=2_000_000,
                check_interval=500,
            )
            successes += bool(result.converged)
        assert successes >= 19
