"""Exhaustive small-population verification via the model checker.

These tests check, *for every configuration of a tiny population*, the
graph-theoretic forms of the paper's correctness notions: closure of the
absorbing sets and reachability of the goal set from everywhere
(probabilistic stabilization).  They complement the randomized suites with
exact statements at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import pytest

from repro.baselines.cai_izumi_wada import CaiIzumiWada, CIWState
from repro.baselines.loosely_stabilizing import (
    LooselyStabilizingLeaderElection,
    LooseState,
)
from repro.baselines.nonss_leader import LeaderBitState, PairwiseElimination
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.propagate_reset import propagate_reset, trigger_reset
from repro.core.roles import Role
from repro.core.state import AgentState, PRState
from repro.substrates.epidemics import EpidemicProtocol, MarkState
from repro.verify.model_check import (
    ForbiddenRNG,
    check_closure,
    check_goal_reachable_from_all,
    check_invariant,
    explore,
)


class TestForbiddenRNG:
    def test_refuses_all_sampling(self):
        rng = ForbiddenRNG()
        for method in ("randrange", "random", "randint", "choice"):
            with pytest.raises(RuntimeError):
                getattr(rng, method)(1)

    def test_catches_stochastic_protocols(self):
        """A protocol that samples must be rejected, not silently explored."""
        from repro.core.fast_leader_elect import FastLeaderElectProtocol

        protocol = FastLeaderElectProtocol(ProtocolParams(n=4, r=2))
        config = [protocol.initial_state() for _ in range(4)]
        with pytest.raises(RuntimeError):
            explore(
                protocol,
                [config],
                key=lambda s: (s.identifier is not None, s.identifier or 0),
                max_configs=10,
            )


class TestCaiIzumiWadaExhaustive:
    """The n-state baseline, verified exactly at n = 4.

    From EVERY one of the C(7,3) = 35 rank multisets, a permutation is
    reachable, and permutations are absorbing — i.e. the protocol is
    self-stabilizing, exactly.
    """

    N = 4

    def setup_method(self):
        self.protocol = CaiIzumiWada(BaselineParams(n=self.N))
        self.all_configs = [
            [CIWState(rank) for rank in ranks]
            for ranks in combinations_with_replacement(range(1, self.N + 1), self.N)
        ]

    def test_all_multisets_reach_permutation(self):
        result = explore(
            self.protocol, self.all_configs, key=lambda s: s.rank, max_configs=10_000
        )
        assert result.complete
        stuck = check_goal_reachable_from_all(
            result, self.protocol.is_silent_configuration
        )
        assert stuck == []

    def test_permutations_are_closed(self):
        permutation = [CIWState(rank) for rank in range(1, self.N + 1)]
        outside = check_closure(
            self.protocol,
            [permutation],
            key=lambda s: s.rank,
            member=self.protocol.is_silent_configuration,
        )
        assert outside == []

    def test_rank_range_invariant(self):
        result = explore(
            self.protocol, self.all_configs, key=lambda s: s.rank, max_configs=10_000
        )
        violations = check_invariant(
            result, lambda config: all(1 <= s.rank <= self.N for s in config)
        )
        assert violations == []


class TestLooseStabilizationExhaustive:
    """The timeout protocol at n = 3: a unique leader is reachable from
    every configuration, but the unique-leader set is NOT closed — the
    defining contrast between loose and self-stabilization."""

    def setup_method(self):
        params = BaselineParams(n=3, c_timer=1.0)
        self.protocol = LooselyStabilizingLeaderElection(params, tau=1.0)
        t = self.protocol.timer_max
        states = [
            LooseState(leader, timer)
            for leader in (False, True)
            for timer in range(t + 1)
        ]
        self.all_configs = [
            [s.clone() for s in combo]
            for combo in combinations_with_replacement(states, 3)
        ]

    @staticmethod
    def key(state: LooseState):
        return (state.leader, state.timer)

    def test_unique_leader_reachable_from_every_configuration(self):
        result = explore(self.protocol, self.all_configs, key=self.key, max_configs=50_000)
        assert result.complete
        stuck = check_goal_reachable_from_all(result, self.protocol.is_goal_configuration)
        assert stuck == []

    def test_unique_leader_set_not_closed(self):
        """Looseness, exactly: some schedule breaks a unique-leader config."""
        config = [
            LooseState(leader=True, timer=self.protocol.timer_max),
            LooseState(leader=False, timer=1),
            LooseState(leader=False, timer=1),
        ]
        outside = check_closure(
            self.protocol,
            [config],
            key=self.key,
            member=self.protocol.is_goal_configuration,
        )
        assert outside != []


class TestPairwiseEliminationExhaustive:
    """The 2-state protocol at n = 3: the zero-leader configuration cannot
    reach the goal — non-self-stabilization, exactly."""

    def test_zero_leader_configuration_is_stuck(self):
        protocol = PairwiseElimination(3)
        zero = [LeaderBitState(False) for _ in range(3)]
        all_leaders = [LeaderBitState(True) for _ in range(3)]
        result = explore(
            protocol, [zero, all_leaders], key=lambda s: s.leader, max_configs=100
        )
        assert result.complete
        stuck = check_goal_reachable_from_all(result, protocol.is_goal_configuration)
        assert len(stuck) == 1
        assert all(not s.leader for s in stuck[0])


class TestEpidemicExhaustive:
    def test_completion_reachable_and_marking_monotone(self):
        protocol = EpidemicProtocol()
        seeded = [MarkState(True), MarkState(False), MarkState(False), MarkState(False)]
        result = explore(protocol, [seeded], key=lambda s: s.marked, max_configs=100)
        assert result.complete
        stuck = check_goal_reachable_from_all(result, protocol.is_goal_configuration)
        assert stuck == []
        # Infection can never disappear.
        violations = check_invariant(
            result, lambda config: any(s.marked for s in config)
        )
        assert violations == []


class TestDerandomizedSoundnessBounded:
    """Bounded model checking of Lemma E.1(a) on the derandomized detector.

    The Appendix-B variant is fully deterministic, so its configuration
    graph is explorable.  The full reachable set at n=4 is too large to
    exhaust in a unit test, so this is *bounded* verification: within the
    first ~1000 configurations breadth-first from q0 on a correct ranking
    — i.e. all executions of the first several interaction rounds, over
    every schedule — no ⊤ is ever produced."""

    def test_no_top_within_bounded_exploration(self):
        from repro.core.derandomized import DerandomizedDetectCollisionProtocol
        from repro.core.state import TOP

        params = ProtocolParams(n=4, r=2, msg_factor=1, c_sig=1.0)
        protocol = DerandomizedDetectCollisionProtocol(params)

        def key(state):
            if state.dc is TOP:
                dc_key: object = "TOP"
            else:
                dc_key = (
                    state.dc.signature,
                    state.dc.counter,
                    tuple(state.dc.held_messages()),
                    tuple(state.dc.observations),
                )
            return (state.rank, dc_key, state.coin.coin, tuple(state.coin.coins),
                    state.coin.coin_count)

        config = protocol.clean_configuration(4)
        result = explore(protocol, [config], key=key, max_configs=1_000)
        assert result.explored >= 1_000  # the bound was actually exercised
        violations = check_invariant(
            result, lambda cfg: all(s.dc is not TOP for s in cfg)
        )
        assert violations == []


# ---------------------------------------------------------------------------
# PropagateReset harness
# ---------------------------------------------------------------------------


@dataclass
class _PRHarness:
    """Minimal deterministic wrapper: resetters run PropagateReset, restarted
    agents become inert 'computing' markers (role RANKING, no AR state)."""

    params: ProtocolParams
    name: str = "propagate-reset-harness"

    def restart(self, state: AgentState) -> None:
        state.role = Role.RANKING
        state.pr = None

    def transition(self, u: AgentState, v: AgentState, rng) -> None:
        if u.role is Role.RESETTING or v.role is Role.RESETTING:
            propagate_reset(u, v, self.params, self.restart)

    # Protocol-interface shims used by the checker.
    def initial_state(self) -> AgentState:  # pragma: no cover - unused
        return AgentState(role=Role.RANKING)

    def output(self, state: AgentState) -> bool:  # pragma: no cover - unused
        return False


class TestPropagateResetExhaustive:
    """Appendix C at n = 3 with R_max = D_max = 2, verified exactly."""

    def setup_method(self):
        self.params = ProtocolParams(n=3, r=1, c_reset=0.5, c_delay=0.5)
        self.protocol = _PRHarness(self.params)

    @staticmethod
    def key(state: AgentState):
        if state.role is Role.RESETTING:
            assert state.pr is not None
            return ("resetting", state.pr.reset_count, state.pr.delay_timer)
        return ("computing", 0, 0)

    def _all_configs(self):
        states = [AgentState(role=Role.RANKING)]
        for rc in range(self.params.reset_count_max + 1):
            for dt in range(self.params.delay_timer_max + 1):
                states.append(
                    AgentState(role=Role.RESETTING, pr=PRState(rc, dt))
                )
        return [
            [s.clone() for s in combo]
            for combo in combinations_with_replacement(states, 3)
        ]

    def test_everyone_computes_eventually_from_every_configuration(self):
        result = explore(self.protocol, self._all_configs(), key=self.key, max_configs=50_000)
        assert result.complete
        stuck = check_goal_reachable_from_all(
            result,
            lambda config: all(s.role is Role.RANKING for s in config),
        )
        assert stuck == []

    def test_all_computing_is_closed(self):
        computing = [AgentState(role=Role.RANKING) for _ in range(3)]
        outside = check_closure(
            self.protocol,
            [computing],
            key=self.key,
            member=lambda config: all(s.role is Role.RANKING for s in config),
        )
        assert outside == []

    def test_triggered_passes_through_dormancy(self):
        """From a fully triggered start, some reachable configuration is
        fully dormant (the Lemma C.1 waypoint exists in the graph)."""
        triggered = []
        for _ in range(3):
            agent = AgentState()
            trigger_reset(agent, self.params)
            triggered.append(agent)
        result = explore(self.protocol, [triggered], key=self.key, max_configs=50_000)
        assert result.complete
        dormant_seen = any(
            all(
                s.role is Role.RESETTING and s.pr is not None and s.pr.reset_count == 0
                for s in config
            )
            for config in result.configurations()
        )
        assert dormant_seen
