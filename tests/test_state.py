"""Tests for the agent state containers."""

from __future__ import annotations

from repro.core.roles import (
    Role,
    generation_ahead,
    generation_successor,
)
from repro.core.state import (
    TOP,
    AgentState,
    ARPhase,
    ARState,
    DCState,
    PRState,
    SVState,
    Top,
)


class TestTop:
    def test_singleton(self):
        assert Top() is TOP
        assert Top() is Top()

    def test_identity_checks(self):
        state = SVState(dc=TOP)
        assert state.dc is TOP


class TestClones:
    def test_pr_clone_independent(self):
        original = PRState(reset_count=3, delay_timer=5)
        copy = original.clone()
        copy.reset_count = 0
        assert original.reset_count == 3

    def test_ar_clone_independent(self):
        original = ARState(phase=ARPhase.DEPUTY, deputy_id=2, counter=4, channel=(1, 2))
        copy = original.clone()
        copy.counter = 99
        copy.channel = (9, 9)
        assert original.counter == 4
        assert original.channel == (1, 2)

    def test_dc_clone_deep_copies_messages(self):
        original = DCState(signature=7, observations=[7, 7])
        original.set_content(1, 1, 7)
        original.set_content(1, 2, 7)
        copy = original.clone()
        copy.set_content(1, 1, 99)
        copy.observations[0] = 99
        assert original.held_messages() == [(1, 1, 7), (1, 2, 7)]
        assert original.observations[0] == 7

    def test_sv_clone_preserves_top(self):
        original = SVState(generation=2, probation_timer=3, dc=TOP)
        copy = original.clone()
        assert copy.dc is TOP
        assert copy.generation == 2

    def test_agent_clone_full_depth(self):
        agent = AgentState(
            role=Role.VERIFYING,
            rank=5,
            sv=SVState(generation=1, probation_timer=2, dc=DCState(observations=[1])),
        )
        copy = agent.clone()
        assert copy.sv is not agent.sv
        copy.sv.dc.observations[0] = 42
        assert agent.sv.dc.observations[0] == 1


class TestConsistency:
    def test_fresh_verifier_consistent(self):
        agent = AgentState(role=Role.VERIFYING, sv=SVState())
        assert agent.consistent()

    def test_role_substate_mismatch(self):
        agent = AgentState(role=Role.VERIFYING, ar=ARState())
        assert not agent.consistent()

    def test_two_substates_inconsistent(self):
        agent = AgentState(role=Role.RANKING, ar=ARState(), sv=SVState())
        assert not agent.consistent()

    def test_resetter_consistent(self):
        agent = AgentState(role=Role.RESETTING, pr=PRState(1, 1))
        assert agent.consistent()


class TestDCStateHelpers:
    def test_held_count(self):
        dc = DCState()
        for rank, msg_id, content in [(1, 1, 5), (1, 2, 5), (2, 7, 3)]:
            dc.set_content(rank, msg_id, content)
        assert dc.held_count() == 3

    def test_holds(self):
        dc = DCState()
        dc.set_content(1, 1, 5)
        assert dc.holds(1, 1)
        assert not dc.holds(1, 2)
        assert not dc.holds(2, 1)


class TestPRState:
    def test_dormant_predicate(self):
        assert PRState(reset_count=0, delay_timer=3).dormant
        assert not PRState(reset_count=1, delay_timer=3).dormant


class TestGenerationArithmetic:
    def test_successor_wraps(self):
        assert generation_successor(5, 6) == 0
        assert generation_successor(0, 6) == 1

    def test_ahead_is_plus_one_only(self):
        assert generation_ahead(0, 1)
        assert generation_ahead(5, 0)
        assert not generation_ahead(0, 2)
        assert not generation_ahead(1, 0)
        assert not generation_ahead(3, 3)

    def test_equality_mod(self):
        # Generations live in Z_6: equal residues are one generation.
        assert generation_successor(0, 6) == generation_successor(6, 6)
        assert generation_ahead(7, 2)
        assert generation_ahead(1, 8)
        assert not generation_ahead(1, 7)
