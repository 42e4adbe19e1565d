"""Tests for the simulation engine and metrics."""

from __future__ import annotations

import pytest

from repro.baselines.nonss_leader import PairwiseElimination
from repro.sim.simulation import Simulation, run_until


@pytest.fixture
def protocol() -> PairwiseElimination:
    return PairwiseElimination(10)


class TestSimulation:
    def test_requires_config_or_n(self, protocol):
        with pytest.raises(ValueError):
            Simulation(protocol)

    def test_rejects_tiny_population(self, protocol):
        with pytest.raises(ValueError):
            Simulation(protocol, config=[protocol.initial_state()])

    def test_step_counts_interactions(self, protocol):
        sim = Simulation(protocol, n=10, seed=0)
        sim.run(25)
        assert sim.metrics.interactions == 25
        assert sim.metrics.parallel_time == 2.5

    def test_determinism_same_seed(self, protocol):
        a = Simulation(protocol, n=10, seed=4)
        b = Simulation(protocol, n=10, seed=4)
        a.run(500)
        b.run(500)
        assert [s.leader for s in a.config] == [s.leader for s in b.config]

    def test_different_seeds_diverge(self, protocol):
        a = Simulation(protocol, n=10, seed=4)
        b = Simulation(protocol, n=10, seed=5)
        a.run(200)
        b.run(200)
        # Leader patterns almost surely differ after 200 interactions.
        assert [s.leader for s in a.config] != [s.leader for s in b.config]

    def test_run_until_converges(self, protocol):
        sim = Simulation(protocol, n=10, seed=1)
        result = sim.run_until(protocol.is_goal_configuration, max_interactions=100_000)
        assert result.converged
        assert protocol.leader_count(result.config) == 1
        assert bool(result)

    def test_run_until_budget_exhaustion(self, protocol):
        sim = Simulation(protocol, n=10, seed=1)
        result = sim.run_until(lambda config: False, max_interactions=100)
        assert not result.converged
        assert result.interactions == 100

    def test_run_until_checks_initial_config(self, protocol):
        config = [protocol.initial_state() for _ in range(10)]
        for state in config[1:]:
            state.leader = False
        sim = Simulation(protocol, config=config, seed=1)
        result = sim.run_until(protocol.is_goal_configuration, max_interactions=100)
        assert result.converged
        assert result.interactions == 0

    def test_check_interval_quantizes(self, protocol):
        sim = Simulation(protocol, n=10, seed=1)
        result = sim.run_until(
            protocol.is_goal_configuration, max_interactions=100_000, check_interval=64
        )
        assert result.converged
        assert result.interactions % 64 == 0

    def test_invalid_check_interval(self, protocol):
        sim = Simulation(protocol, n=10, seed=1)
        with pytest.raises(ValueError):
            sim.run_until(protocol.is_goal_configuration, max_interactions=10, check_interval=0)

    def test_observers_invoked(self, protocol):
        sim = Simulation(protocol, n=10, seed=2)
        seen: list[tuple[int, int]] = []
        sim.observers.append(lambda s, i, j: seen.append((i, j)))
        sim.run(10)
        assert len(seen) == 10
        assert all(i != j for i, j in seen)

    def test_run_until_convenience_wrapper(self, protocol):
        result = run_until(
            protocol,
            protocol.is_goal_configuration,
            n=10,
            seed=3,
            max_interactions=100_000,
        )
        assert result.converged
