"""Tests for ``StableVerify_r`` (Section 5, Protocol 2)."""

from __future__ import annotations

import pytest

from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.roles import Role
from repro.core.stable_verify import initial_sv_state, soft_reset, stable_verify
from repro.core.state import TOP, AgentState
from repro.scheduler.rng import make_rng


@pytest.fixture
def protocol() -> ElectLeader:
    return ElectLeader(ProtocolParams(n=12, r=3))


def verifier(
    protocol: ElectLeader, rank: int, generation: int = 0, probation: int = 0
) -> AgentState:
    agent = AgentState(
        role=Role.VERIFYING,
        rank=rank,
        sv=initial_sv_state(rank, protocol.params, protocol.partition),
    )
    assert agent.sv is not None
    agent.sv.generation = generation
    agent.sv.probation_timer = probation
    return agent


def run_sv(protocol: ElectLeader, u: AgentState, v: AgentState, seed: int = 1) -> None:
    stable_verify(u, v, protocol.params, protocol.partition, make_rng(seed), protocol.trigger)


class TestProbationTicking:
    def test_timers_decrement(self, protocol):
        u = verifier(protocol, 1, probation=5)
        v = verifier(protocol, 7, probation=3)  # different group: DC is a no-op
        run_sv(protocol, u, v)
        assert u.sv.probation_timer == 4
        assert v.sv.probation_timer == 2

    def test_timer_floor_at_zero(self, protocol):
        u = verifier(protocol, 1, probation=0)
        v = verifier(protocol, 7, probation=0)
        run_sv(protocol, u, v)
        assert u.sv.probation_timer == 0
        assert v.sv.probation_timer == 0

    def test_requires_verifiers(self, protocol):
        u = protocol.initial_state()
        v = verifier(protocol, 1)
        with pytest.raises(ValueError):
            run_sv(protocol, u, v)


class TestErrorHandling:
    def test_top_off_probation_soft_resets(self, protocol):
        """⊤ with probation 0 → generation +1, fresh DC, probation re-armed."""
        u = verifier(protocol, 1, probation=1)  # decrements to 0 this round
        v = verifier(protocol, 1, probation=1)  # same rank → collision → ⊤
        run_sv(protocol, u, v)
        assert u.role is Role.VERIFYING and v.role is Role.VERIFYING
        assert u.sv.generation == 1 and v.sv.generation == 1
        assert u.sv.dc is not TOP
        assert u.sv.probation_timer == protocol.params.probation_max

    def test_top_on_probation_hard_resets(self, protocol):
        u = verifier(protocol, 1, probation=100)
        v = verifier(protocol, 1, probation=100)
        run_sv(protocol, u, v)
        assert u.role is Role.RESETTING
        assert v.role is Role.RESETTING

    def test_mixed_probation_splits_soft_and_hard(self, protocol):
        u = verifier(protocol, 1, probation=1)  # → 0: soft
        v = verifier(protocol, 1, probation=100)  # on probation: hard
        run_sv(protocol, u, v)
        assert u.role is Role.VERIFYING
        assert u.sv.generation == 1
        assert v.role is Role.RESETTING

    def test_planted_top_handled_even_across_generations(self, protocol):
        """A pre-existing ⊤ is resolved even if generations differ."""
        u = verifier(protocol, 1, generation=0, probation=0)
        v = verifier(protocol, 2, generation=3, probation=0)
        u.sv.dc = TOP
        run_sv(protocol, u, v)
        assert u.role is Role.VERIFYING
        assert u.sv.generation == 1
        assert u.sv.dc is not TOP

    @pytest.mark.parametrize("holder", [0, 1])
    def test_planted_top_across_groups_soft_resets_off_probation(self, protocol, holder):
        """One generation, different groups: DetectCollision is a no-op,
        but a planted ⊤ still reaches the error handling (lines 5-8)."""
        pair = [verifier(protocol, 1, generation=2, probation=1),
                verifier(protocol, 7, generation=2, probation=1)]
        assert not protocol.partition.same_group(1, 7)
        pair[holder].sv.dc = TOP
        run_sv(protocol, *pair)
        agent, partner = pair[holder], pair[1 - holder]
        assert agent.role is Role.VERIFYING
        assert agent.sv.generation == 3
        assert agent.sv.dc is not TOP
        assert agent.sv.probation_timer == protocol.params.probation_max
        assert partner.role is Role.VERIFYING and partner.sv.generation == 2

    @pytest.mark.parametrize("holder", [0, 1])
    def test_planted_top_across_groups_hard_resets_on_probation(self, protocol, holder):
        pair = [verifier(protocol, 1, generation=2, probation=100),
                verifier(protocol, 7, generation=2, probation=100)]
        pair[holder].sv.dc = TOP
        run_sv(protocol, *pair)
        assert pair[holder].role is Role.RESETTING
        assert pair[1 - holder].role is Role.VERIFYING

    def test_ranking_untouched_by_soft_reset(self, protocol):
        u = verifier(protocol, 5, probation=1)
        u.sv.dc = TOP
        v = verifier(protocol, 6, probation=1)
        run_sv(protocol, u, v)
        assert u.rank == 5
        assert v.rank == 6


class TestGenerationEpidemic:
    def test_behind_agent_adopts_successor_generation(self, protocol):
        u = verifier(protocol, 1, generation=2, probation=1)  # → 0 after tick
        v = verifier(protocol, 2, generation=3, probation=5)
        run_sv(protocol, u, v)
        assert u.sv.generation == 3
        assert u.sv.probation_timer == protocol.params.probation_max
        assert v.sv.generation == 3
        assert v.role is Role.VERIFYING

    def test_adoption_wraps_mod_six(self, protocol):
        u = verifier(protocol, 1, generation=5, probation=1)
        v = verifier(protocol, 2, generation=0, probation=5)
        run_sv(protocol, u, v)
        assert u.sv.generation == 0

    def test_behind_agent_on_probation_hard_resets(self, protocol):
        """An on-probation agent one generation behind cannot soft-adopt."""
        u = verifier(protocol, 1, generation=2, probation=100)
        v = verifier(protocol, 2, generation=3, probation=100)
        run_sv(protocol, u, v)
        assert u.role is Role.RESETTING or v.role is Role.RESETTING

    def test_generation_gap_two_hard_resets(self, protocol):
        u = verifier(protocol, 1, generation=0, probation=0)
        v = verifier(protocol, 2, generation=2, probation=0)
        run_sv(protocol, u, v)
        assert u.role is Role.RESETTING

    def test_adoption_refreshes_dc_state(self, protocol):
        u = verifier(protocol, 1, generation=2, probation=1)
        v = verifier(protocol, 2, generation=3, probation=5)
        u.sv.dc.signature = 999  # will be wiped by the adoption reset
        run_sv(protocol, u, v)
        assert u.sv.dc.signature == 1


class TestSameGenerationPath:
    def test_same_generation_no_error_changes_nothing_structural(self, protocol):
        u = verifier(protocol, 1, generation=4, probation=3)
        v = verifier(protocol, 2, generation=4, probation=3)
        run_sv(protocol, u, v)
        assert u.role is Role.VERIFYING and v.role is Role.VERIFYING
        assert u.sv.generation == 4 and v.sv.generation == 4

    def test_collision_detection_runs_only_same_generation(self, protocol):
        """Same rank in *different* generations: DC skipped, but the
        generation mismatch triggers a reset (gap handling)."""
        u = verifier(protocol, 1, generation=0, probation=0)
        v = verifier(protocol, 1, generation=3, probation=0)
        run_sv(protocol, u, v)
        # No ⊤ was produced (DC never ran) — the hard reset is from line 13.
        assert u.role is Role.RESETTING


class TestSoftResetHelper:
    def test_soft_reset_advances_generation(self, protocol):
        agent = verifier(protocol, 4, generation=5)
        soft_reset(agent, protocol.params, protocol.partition)
        assert agent.sv.generation == 0
        assert agent.sv.probation_timer == protocol.params.probation_max
        assert agent.sv.dc is not TOP
