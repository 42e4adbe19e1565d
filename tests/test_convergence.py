"""Tests for replaying a schedule to convergence and for ElectLeader's
reset event counters."""

from __future__ import annotations

import pytest

from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.roles import Role
from repro.scheduler.rng import make_rng
from repro.sim.replay import reachable_via, record_and_replay_matches, replay
from repro.sim.simulation import Simulation


class TestReplay:
    def test_replay_applies_schedule(self):
        protocol = PairwiseElimination(3)
        config = [protocol.initial_state() for _ in range(3)]
        replay(protocol, config, [(0, 1), (0, 2)])
        assert [s.leader for s in config] == [True, False, False]

    def test_replay_validates_indices(self):
        protocol = PairwiseElimination(3)
        config = [protocol.initial_state() for _ in range(3)]
        with pytest.raises(ValueError):
            replay(protocol, config, [(0, 5)])

    def test_replay_on_step_callback(self):
        protocol = PairwiseElimination(3)
        config = [protocol.initial_state() for _ in range(3)]
        steps = []
        replay(protocol, config, [(0, 1), (1, 2)], on_step=lambda s, i, j: steps.append((s, i, j)))
        assert steps == [(0, 0, 1), (1, 1, 2)]

    def test_reachability_along_schedule(self):
        protocol = PairwiseElimination(3)
        start = [protocol.initial_state() for _ in range(3)]
        schedule = [(0, 1), (0, 2)]
        assert reachable_via(
            protocol, start, schedule, lambda cfg: protocol.leader_count(cfg) == 1
        )

    def test_record_and_replay_determinism_elect_leader(self, small_protocol):
        """The full protocol is deterministic given (config, schedule, seed)."""
        assert record_and_replay_matches(
            small_protocol,
            make_config=lambda: [small_protocol.initial_state() for _ in range(8)],
            n=8,
            steps=300,
            seed=5,
        )


class TestEventCounters:
    def test_clean_run_takes_no_reset(self, small_protocol):
        small_protocol.reset_events()
        sim = Simulation(small_protocol, n=small_protocol.n, seed=1)
        result = sim.run_until(
            small_protocol.is_safe_configuration,
            max_interactions=5_000_000,
            check_interval=1_000,
        )
        assert result.converged
        assert all(state.role is Role.VERIFYING for state in sim.config)
        assert small_protocol.events["hard_reset"] == 0
        assert small_protocol.events["soft_reset"] == 0

    def test_hard_and_soft_resets_counted(self, small_protocol):
        from repro.adversary.initializers import all_duplicate_rank, corrupted_messages

        small_protocol.reset_events()
        # Duplicate-leader population ⇒ at least one hard reset on the way.
        config = all_duplicate_rank(small_protocol, make_rng(1), rank=1)
        sim = Simulation(small_protocol, config=config, seed=2)
        sim.run_until(
            small_protocol.is_safe_configuration,
            max_interactions=5_000_000,
            check_interval=2_000,
        )
        assert small_protocol.events["hard_reset"] >= 1

        # Corrupted messages with expired probation ⇒ soft resets.
        small_protocol.reset_events()
        config = corrupted_messages(small_protocol, make_rng(3), corruptions=3)
        for agent in config:
            agent.sv.probation_timer = 0
        ranks = [agent.rank for agent in config]
        sim = Simulation(small_protocol, config=config, seed=4)
        result = sim.run_until(
            small_protocol.is_safe_configuration,
            max_interactions=5_000_000,
            check_interval=2_000,
        )
        assert result.converged
        assert small_protocol.events["soft_reset"] >= 1
        assert small_protocol.events["hard_reset"] == 0
        # The soft path moves generations and never a rank.
        assert [agent.rank for agent in sim.config] == ranks

    def test_reset_events_clears(self, small_protocol):
        small_protocol.events["hard_reset"] = 5
        small_protocol.reset_events()
        assert small_protocol.events["hard_reset"] == 0
