"""Tests for the adversary suite and self-stabilization recovery (Lemma 6.3)."""

from __future__ import annotations

import pytest

from repro.adversary.initializers import (
    ADVERSARIES,
    all_duplicate_rank,
    correct_verifier_configuration,
    corrupted_messages,
    duplicate_ranks,
    planted_top,
    scrambled_observations,
)
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.roles import Role
from repro.core.state import TOP
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.simulation import Simulation


@pytest.fixture
def protocol() -> ElectLeader:
    return ElectLeader(ProtocolParams(n=16, r=4))


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_generates_well_formed_configurations(self, protocol, name):
        config = ADVERSARIES[name](protocol, make_rng(3))
        assert len(config) == protocol.n
        assert all(agent.consistent() for agent in config)

    def test_all_duplicate_rank_all_same(self, protocol):
        config = all_duplicate_rank(protocol, make_rng(1), rank=5)
        assert all(agent.rank == 5 for agent in config)

    def test_duplicate_ranks_counts(self, protocol):
        config = duplicate_ranks(protocol, make_rng(2), duplicates=3)
        ranks = [agent.rank for agent in config]
        assert len(set(ranks)) < protocol.n  # some rank was lost
        assert len(ranks) == protocol.n

    def test_duplicate_ranks_bounds(self, protocol):
        with pytest.raises(ValueError):
            duplicate_ranks(protocol, make_rng(0), duplicates=0)
        with pytest.raises(ValueError):
            duplicate_ranks(protocol, make_rng(0), duplicates=protocol.n)

    def test_corrupted_messages_keeps_ranking(self, protocol):
        config = corrupted_messages(protocol, make_rng(3))
        assert protocol.ranking_correct(config)
        assert not protocol.is_safe_configuration(config)

    def test_scrambled_observations_respects_restriction(self, protocol):
        """Held own messages must still match their observations."""
        config = scrambled_observations(protocol, make_rng(4), corruptions=8)
        for agent in config:
            assert agent.sv is not None and agent.sv.dc is not TOP
            dc = agent.sv.dc
            for rank, msg_id, content in dc.held_messages():
                if rank == agent.rank:
                    assert content == dc.observations[msg_id - 1]

    def test_planted_top_count(self, protocol):
        config = planted_top(protocol, make_rng(5), count=3)
        tops = sum(1 for a in config if a.sv is not None and a.sv.dc is TOP)
        assert tops == 3


class TestRecovery:
    """Lemma 6.3 + Theorem 1.1: recovery from every adversary class."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_recovers_to_safe_set(self, protocol, name):
        config = ADVERSARIES[name](protocol, make_rng(11))
        sim = Simulation(protocol, config=config, seed=derive_seed(77, hash(name) % 1000))
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=5_000_000, check_interval=2000
        )
        assert result.converged, f"no recovery from adversary {name}"
        assert protocol.ranking_correct(result.config)
        assert protocol.leader_count(result.config) == 1

    def test_soft_reset_preserves_ranking(self):
        """The headline soft-reset property (Section 3.2): corrupted
        messages on a correct ranking are repaired WITHOUT changing ranks
        and WITHOUT any agent ever leaving the verifier role."""
        protocol = ElectLeader(ProtocolParams(n=16, r=4))
        rng = make_rng(6)
        config = corrupted_messages(protocol, rng, corruptions=3)
        # Let probation expire so the error will be attributed correctly.
        for agent in config:
            assert agent.sv is not None
            agent.sv.probation_timer = 0
        ranks_before = [agent.rank for agent in config]
        sim = Simulation(protocol, config=config, seed=8)
        roles_seen = set()

        def observer(simulation, i, j):
            roles_seen.update(simulation.config[i].role for _ in (1,))
            roles_seen.add(simulation.config[j].role)

        sim.observers.append(observer)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=5_000_000, check_interval=1000
        )
        assert result.converged
        assert [agent.rank for agent in result.config] == ranks_before
        assert Role.RESETTING not in roles_seen, "a hard reset destroyed the ranking"

    def test_duplicate_leader_population_hard_resets(self):
        """All-rank-1 (n leaders) must go through a hard reset to recover."""
        protocol = ElectLeader(ProtocolParams(n=16, r=4))
        config = all_duplicate_rank(protocol, make_rng(9), rank=1)
        sim = Simulation(protocol, config=config, seed=10)
        saw_reset = []

        def observer(simulation, i, j):
            if any(s.role is Role.RESETTING for s in (simulation.config[i], simulation.config[j])):
                saw_reset.append(True)

        sim.observers.append(observer)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=5_000_000, check_interval=2000
        )
        assert result.converged
        assert saw_reset, "recovery should have required a hard reset"

    def test_recovery_across_many_random_soups(self):
        """Stress: 8 independent random-soup starts all recover."""
        protocol = ElectLeader(ProtocolParams(n=12, r=3))
        for trial in range(8):
            rng = make_rng(derive_seed(500, trial))
            config = ADVERSARIES["random_soup"](protocol, rng)
            sim = Simulation(protocol, config=config, seed=derive_seed(501, trial))
            result = sim.run_until(
                protocol.is_safe_configuration,
                max_interactions=5_000_000,
                check_interval=2000,
            )
            assert result.converged, f"soup trial {trial} failed"


class TestCorrectConfiguration:
    def test_correct_configuration_is_safe(self, protocol):
        config = correct_verifier_configuration(protocol)
        assert protocol.is_safe_configuration(config)
