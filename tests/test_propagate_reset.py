"""Tests for ``PropagateReset`` (Appendix C)."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.propagate_reset import (
    fully_dormant,
    is_dormant,
    propagate_reset,
    trigger_reset,
)
from repro.core.roles import Role
from repro.core.state import AgentState
from repro.scheduler.rng import make_rng
from repro.scheduler.scheduler import RandomScheduler
from repro.sim.simulation import Simulation


def make_protocol(n: int = 12, r: int = 3) -> ElectLeader:
    return ElectLeader(ProtocolParams(n=n, r=r))


class TestTrigger:
    def test_trigger_sets_counters(self, small_params):
        agent = AgentState()
        trigger_reset(agent, small_params)
        assert agent.role is Role.RESETTING
        assert agent.pr is not None
        assert agent.pr.reset_count == small_params.reset_count_max
        assert agent.pr.delay_timer == small_params.delay_timer_max

    def test_trigger_deletes_inactive_fields(self, small_protocol):
        agent = small_protocol.initial_state()
        assert agent.ar is not None
        small_protocol.trigger(agent)
        assert agent.ar is None
        assert agent.sv is None
        assert agent.consistent()


class TestInfection:
    def test_active_resetter_infects_computing_agent(self, small_protocol, small_params):
        resetter = small_protocol.triggered_state()
        computing = small_protocol.initial_state()
        propagate_reset(resetter, computing, small_params, small_protocol.reset_agent)
        assert computing.role is Role.RESETTING

    def test_infected_agent_inherits_decremented_count(self, small_protocol, small_params):
        resetter = small_protocol.triggered_state()
        computing = small_protocol.initial_state()
        propagate_reset(resetter, computing, small_params, small_protocol.reset_agent)
        # Lines 3-4: both end at max(u-1, v-1, 0) = R_max - 1.
        assert computing.pr is not None and resetter.pr is not None
        assert computing.pr.reset_count == small_params.reset_count_max - 1
        assert resetter.pr.reset_count == small_params.reset_count_max - 1

    def test_infection_symmetric_in_argument_order(self, small_protocol, small_params):
        resetter = small_protocol.triggered_state()
        computing = small_protocol.initial_state()
        propagate_reset(computing, resetter, small_params, small_protocol.reset_agent)
        assert computing.role is Role.RESETTING

    def test_dormant_resetter_does_not_infect(self, small_protocol, small_params):
        resetter = small_protocol.triggered_state()
        assert resetter.pr is not None
        resetter.pr.reset_count = 0  # dormant
        computing = small_protocol.initial_state()
        propagate_reset(resetter, computing, small_params, small_protocol.reset_agent)
        # Instead the computing agent wakes the dormant one (line 10).
        assert computing.role is Role.RANKING
        assert resetter.role is Role.RANKING

    def test_requires_a_resetter(self, small_protocol, small_params):
        a = small_protocol.initial_state()
        b = small_protocol.initial_state()
        with pytest.raises(ValueError):
            propagate_reset(a, b, small_params, small_protocol.reset_agent)


class TestDormancy:
    def test_two_resetters_synchronize_down(self, small_protocol, small_params):
        a = small_protocol.triggered_state()
        b = small_protocol.triggered_state()
        assert a.pr is not None and b.pr is not None
        a.pr.reset_count = 5
        b.pr.reset_count = 3
        propagate_reset(a, b, small_params, small_protocol.reset_agent)
        assert a.pr.reset_count == 4
        assert b.pr.reset_count == 4

    def test_count_floor_at_zero(self, small_protocol, small_params):
        a = small_protocol.triggered_state()
        b = small_protocol.triggered_state()
        assert a.pr is not None and b.pr is not None
        a.pr.reset_count = 0
        b.pr.reset_count = 0
        # Both dormant; each decrements its delay timer.
        before = a.pr.delay_timer
        propagate_reset(a, b, small_params, small_protocol.reset_agent)
        assert a.pr.reset_count == 0
        assert a.pr.delay_timer == before - 1

    def test_delay_initialized_when_count_hits_zero(self, small_protocol, small_params):
        a = small_protocol.triggered_state()
        b = small_protocol.triggered_state()
        assert a.pr is not None and b.pr is not None
        a.pr.reset_count = 1
        b.pr.reset_count = 1
        a.pr.delay_timer = 1
        propagate_reset(a, b, small_params, small_protocol.reset_agent)
        # Count just became 0 → delay re-armed to D_max, not decremented.
        assert a.pr.reset_count == 0
        assert a.pr.delay_timer == small_params.delay_timer_max

    def test_delay_expiry_restarts_agent(self, small_protocol, small_params):
        a = small_protocol.triggered_state()
        b = small_protocol.triggered_state()
        assert a.pr is not None and b.pr is not None
        a.pr.reset_count = 0
        a.pr.delay_timer = 1
        b.pr.reset_count = 0
        b.pr.delay_timer = 10
        propagate_reset(a, b, small_params, small_protocol.reset_agent)
        assert a.role is Role.RANKING
        assert a.countdown == small_params.countdown_max

    def test_computing_partner_wakes_dormant(self, small_protocol, small_params):
        dormant = small_protocol.triggered_state()
        assert dormant.pr is not None
        dormant.pr.reset_count = 0
        dormant.pr.delay_timer = 10
        awake = small_protocol.initial_state()
        propagate_reset(dormant, awake, small_params, small_protocol.reset_agent)
        assert dormant.role is Role.RANKING


class TestPredicates:
    def test_is_dormant(self, small_protocol):
        agent = small_protocol.triggered_state()
        assert not is_dormant(agent)
        assert agent.pr is not None
        agent.pr.reset_count = 0
        assert is_dormant(agent)

    def test_fully_dormant_and_partially_computing(self, small_protocol):
        config = [small_protocol.triggered_state() for _ in range(4)]
        for agent in config:
            assert agent.pr is not None
            agent.pr.reset_count = 0
        assert fully_dormant(config)
        assert not any(agent.role is not Role.RESETTING for agent in config)
        small_protocol.reset_agent(config[0])
        assert not fully_dormant(config)
        assert any(agent.role is not Role.RESETTING for agent in config)


class TestClosedFormTable:
    def test_closed_form_matches_generic_builder(self):
        """The vectorized transition table is entry-for-entry the generic
        S² enumeration of δ (the cap-lifting satellite's exactness gate)."""
        numpy = pytest.importorskip("numpy")
        from repro.core.propagate_reset import ResetEpidemicProtocol
        from repro.sim.array_backend import build_transition_table

        cases = [ProtocolParams(n=n, r=1) for n in (8, 64, 512)] + [
            # R_max = D_max = 2, the floors.
            ProtocolParams(n=8, r=1, c_reset=0.1, c_delay=0.1),
            # R_max = 17 > D_max = 5: more count blocks than rows per block.
            ProtocolParams(n=64, r=1, c_reset=4.0, c_delay=1.0),
        ]
        for params in cases:
            protocol = ResetEpidemicProtocol(params)
            closed = protocol.transition_table()
            generic = build_transition_table(protocol)
            assert numpy.array_equal(closed.u_out, generic.u_out), params
            assert numpy.array_equal(closed.v_out, generic.v_out), params

    def test_closed_form_builds_at_the_frontier(self):
        numpy = pytest.importorskip("numpy")
        from repro.core.propagate_reset import ResetEpidemicProtocol

        # The generic builder needs S² ≈ 2.7M Python δ calls here, too
        # slow to compare against, so the table is pinned by its hash.
        protocol = ResetEpidemicProtocol(ProtocolParams(n=1_000_000, r=1))
        tracemalloc.start()
        try:
            table = protocol.transition_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.num_states == protocol.num_states() == 1654
        assert table.u_out.dtype == table.v_out.dtype == numpy.int16
        # Hashed as int32 values, so the pin predates int16 tables.
        wide = [side.astype(numpy.int32).tobytes() for side in (table.u_out, table.v_out)]
        digest = hashlib.sha256(b"".join(wide))
        assert digest.hexdigest() == (
            "5bd2c1d4fc39ae1e2d1a774f1d303fb8fe99e62034e59ad3485a65a5948191ce"
        )
        # Filled in count blocks: no S × S temporary beside the outputs
        # (numpy reports its buffers to tracemalloc).
        assert peak <= 1.5 * (table.u_out.nbytes + table.v_out.nbytes)
        # Spot-check the awakening epidemic entry: dormant meets awake.
        dormant = protocol.encode_state(protocol.decode_state(1))  # r(0, 0)
        assert table.lookup(dormant, 0) == (0, 0)


class TestFullResetCycle:
    def test_triggered_population_passes_through_dormancy_and_restarts(self):
        """Corollary C.3 end-to-end: triggered → fully dormant → computing."""
        protocol = make_protocol(n=16, r=4)
        config = [protocol.triggered_state() for _ in range(16)]
        scheduler = RandomScheduler(16, make_rng(3))
        rng = make_rng(4)
        saw_fully_dormant = False
        for _ in range(40_000):
            i, j = scheduler.next_pair()
            protocol.transition(config[i], config[j], rng)
            if fully_dormant(config):
                saw_fully_dormant = True
            if saw_fully_dormant and all(s.role is Role.RANKING for s in config):
                break
        assert saw_fully_dormant, "population never became fully dormant"
        assert all(s.role is Role.RANKING for s in config)

    def test_reset_leads_to_safe_configuration(self):
        """Lemma 6.2: from a triggered configuration, 𝒞_safe is reached."""
        protocol = make_protocol(n=16, r=4)
        config = [protocol.triggered_state() for _ in range(16)]
        sim = Simulation(protocol, config=config, seed=5)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=2_000_000, check_interval=1000
        )
        assert result.converged
