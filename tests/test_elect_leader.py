"""Integration tests for ``ElectLeader_r`` (Protocol 1, Theorem 1.1)."""

from __future__ import annotations

import pytest

from repro.adversary.initializers import correct_verifier_configuration
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.roles import Role
from repro.scheduler.rng import derive_seed, make_rng
from repro.scheduler.scheduler import RandomScheduler
from repro.sim.simulation import Simulation


class TestRoleMachinery:
    def test_initial_state_is_fresh_ranker(self, small_protocol, small_params):
        agent = small_protocol.initial_state()
        assert agent.role is Role.RANKING
        assert agent.countdown == small_params.countdown_max
        assert agent.consistent()

    def test_countdown_decrements_for_ranker_pairs(self, small_protocol, rng):
        u = small_protocol.initial_state()
        v = small_protocol.initial_state()
        before = u.countdown
        small_protocol.transition(u, v, rng)
        assert u.countdown == before - 1
        assert v.countdown == before - 1

    def test_countdown_expiry_forces_verifier(self, small_protocol, rng):
        u = small_protocol.initial_state()
        v = small_protocol.initial_state()
        # Distinct presumed ranks in different groups, so the immediate
        # StableVerify between the two fresh verifiers finds no collision.
        assert u.ar is not None and v.ar is not None
        u.ar.rank = 2
        v.ar.rank = 9
        u.countdown = 1
        small_protocol.transition(u, v, rng)
        assert u.role is Role.VERIFYING
        assert u.sv is not None and u.ar is None
        # v converts too, by epidemic, in the same interaction (lines 6-8).
        assert v.role is Role.VERIFYING

    def test_responder_expiry_leaves_initiator_ranking(self, small_protocol, rng):
        """Lines 6-8 check u first: when only v's countdown runs out, u
        still saw a ranker, so it stays one for this interaction."""
        u = small_protocol.initial_state()
        v = small_protocol.initial_state()
        v.countdown = 1
        small_protocol.transition(u, v, rng)
        assert v.role is Role.VERIFYING
        assert u.role is Role.RANKING
        assert u.countdown == small_protocol.params.countdown_max - 1

    def test_both_expiries_run_stable_verify_at_once(self, small_protocol, rng):
        u = small_protocol.initial_state()
        v = small_protocol.initial_state()
        assert u.ar is not None and v.ar is not None
        u.ar.rank = 2  # different groups: no collision to reset on
        v.ar.rank = 9
        u.countdown = v.countdown = 1
        small_protocol.transition(u, v, rng)
        assert u.role is Role.VERIFYING and v.role is Role.VERIFYING
        # StableVerify's probation tick shows it ran in this interaction.
        ticked = small_protocol.params.probation_max - 1
        assert u.sv is not None and v.sv is not None
        assert u.sv.probation_timer == ticked and v.sv.probation_timer == ticked

    def test_unranked_agents_forced_to_verify_collide_and_reset(self, small_protocol, rng):
        """Two unranked rankers timing out share the default rank 1: the
        collision is genuine and must trigger a hard reset immediately."""
        u = small_protocol.initial_state()
        v = small_protocol.initial_state()
        u.countdown = 1
        small_protocol.transition(u, v, rng)
        assert Role.RESETTING in (u.role, v.role)

    def test_verifier_contact_converts_ranker(self, small_protocol, rng):
        u = small_protocol.initial_state()
        assert u.ar is not None
        u.ar.rank = 7
        small_protocol.become_verifier(u)
        w = small_protocol.initial_state()
        assert w.ar is not None
        w.ar.rank = 2
        small_protocol.transition(w, u, rng)  # epidemic conversion
        assert w.role is Role.VERIFYING
        assert w.rank == 2

    def test_become_verifier_copies_ar_rank(self, small_protocol):
        agent = small_protocol.initial_state()
        assert agent.ar is not None
        agent.ar.rank = 7
        small_protocol.become_verifier(agent)
        assert agent.rank == 7
        assert agent.consistent()

    def test_rank_accessor_total(self, small_protocol):
        ranker = small_protocol.initial_state()
        assert small_protocol.rank(ranker) == 1
        resetter = small_protocol.triggered_state()
        assert small_protocol.rank(resetter) == 1
        verifier = small_protocol.initial_state()
        small_protocol.become_verifier(verifier)
        assert small_protocol.rank(verifier) == verifier.rank


class TestStabilization:
    @pytest.mark.parametrize("n,r,seed", [(8, 1, 0), (12, 2, 1), (12, 3, 2), (16, 4, 3)])
    def test_clean_start_stabilizes(self, n, r, seed):
        protocol = ElectLeader(ProtocolParams(n=n, r=r))
        sim = Simulation(protocol, n=n, seed=seed)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=3_000_000, check_interval=1000
        )
        assert result.converged
        assert protocol.ranking_correct(result.config)
        assert protocol.leader_count(result.config) == 1

    def test_safe_configuration_reports_one_leader(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        assert medium_protocol.is_safe_configuration(config)
        assert medium_protocol.leader_count(config) == 1
        assert medium_protocol.is_goal_configuration(config)

    def test_stabilization_across_seeds(self):
        protocol = ElectLeader(ProtocolParams(n=16, r=4))
        for trial in range(10):
            sim = Simulation(protocol, n=16, seed=derive_seed(900, trial))
            result = sim.run_until(
                protocol.is_safe_configuration,
                max_interactions=3_000_000,
                check_interval=1000,
            )
            assert result.converged, f"trial {trial} did not stabilize"


class TestSafeSetClosure:
    """Lemma 6.1: the safe set is closed under the transition function."""

    def test_closure_under_random_schedules(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        rng = make_rng(17)
        scheduler = RandomScheduler(len(config), make_rng(18))
        for step in range(3_000):
            i, j = scheduler.next_pair()
            medium_protocol.transition(config[i], config[j], rng)
            if step % 500 == 0:
                assert medium_protocol.is_safe_configuration(config), f"left safe set at {step}"
        assert medium_protocol.is_safe_configuration(config)

    def test_ranks_never_change_in_safe_set(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        before = [agent.rank for agent in config]
        rng = make_rng(21)
        scheduler = RandomScheduler(len(config), make_rng(22))
        for _ in range(3_000):
            i, j = scheduler.next_pair()
            medium_protocol.transition(config[i], config[j], rng)
        assert [agent.rank for agent in config] == before

    def test_no_top_ever_in_safe_set(self, medium_protocol):
        from repro.core.state import TOP

        config = correct_verifier_configuration(medium_protocol)
        rng = make_rng(23)
        scheduler = RandomScheduler(len(config), make_rng(24))
        for _ in range(3_000):
            i, j = scheduler.next_pair()
            medium_protocol.transition(config[i], config[j], rng)
            for agent in config:
                assert agent.sv is None or agent.sv.dc is not TOP


class TestPredicates:
    def test_describe_configuration_fields(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        summary = medium_protocol.describe_configuration(config)
        assert summary["ranking_correct"] is True
        assert summary["leaders"] == 1
        assert summary["safe"] is True
        assert summary["roles"]["verifying"] == medium_protocol.n

    def test_safe_rejects_wrong_ranking(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        config[0].rank = config[1].rank
        assert not medium_protocol.is_safe_configuration(config)

    def test_safe_rejects_mixed_generations(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        assert config[0].sv is not None
        config[0].sv.generation = 1
        assert not medium_protocol.is_safe_configuration(config)

    def test_safe_rejects_rankers(self, medium_protocol):
        config = correct_verifier_configuration(medium_protocol)
        config[0] = medium_protocol.initial_state()
        assert not medium_protocol.is_safe_configuration(config)

    def test_safe_rejects_planted_top(self, medium_protocol):
        from repro.core.state import TOP

        config = correct_verifier_configuration(medium_protocol)
        assert config[0].sv is not None
        config[0].sv.dc = TOP
        assert not medium_protocol.is_safe_configuration(config)
