"""``ElectLeader_r`` — the paper's main protocol (Protocol 1, Theorem 1.1).

A thin wrapper composing the three role-gated sub-protocols:

* resetters run ``PropagateReset`` (Appendix C);
* rankers run ``AssignRanks_r`` (Appendix D) while a ``countdown`` of
  ``C_max = Θ((n/r) log n)`` guarantees they eventually become verifiers
  even if ranking stalls (Section 4);
* verifiers run ``StableVerify_r`` (Section 5), which nests
  ``DetectCollision_r`` and decides between soft and hard resets.

For ``1 <= r <= n/2`` the protocol solves self-stabilizing leader election
and ranking within ``O((n^2/r) log n)`` interactions w.h.p. using
``2^{O(r^2 log n)}`` states (Theorem 1.1).  The leader is the agent of
rank 1.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.core.assign_ranks import assign_ranks, initial_ar_state
from repro.core.detect_collision import message_system_consistent
from repro.core.params import ProtocolParams
from repro.core.partition import RankPartition
from repro.core.propagate_reset import propagate_reset, trigger_reset
from repro.core.protocol import RankingProtocol
from repro.core.roles import Role
from repro.core.stable_verify import initial_sv_state, stable_verify
from repro.core.state import TOP, AgentState
from repro.scheduler.rng import RNG

#: Roles bound as module globals for :meth:`ElectLeader.transition`: a
#: ``Role.X`` lookup goes through the enum's metaclass and costs several
#: global reads, and a ranker pair makes about nine of them.
_RESETTING = Role.RESETTING
_RANKING = Role.RANKING
_VERIFYING = Role.VERIFYING


class ElectLeader(RankingProtocol):
    """The complete ``ElectLeader_r`` protocol.

    ``initial_state`` models an *awakening* configuration — every agent
    restarts as a fresh ranker exactly as ``Reset`` (Protocol 6) leaves it.
    Self-stabilization experiments instead start from the adversarial
    configurations built by :mod:`repro.adversary.initializers`.
    """

    name = "elect-leader"

    def __init__(self, params: ProtocolParams):
        self.params = params
        self.n = params.n
        self.partition = RankPartition(params.n, params.r)
        #: Protocol-level event counters ("hard_reset", "soft_reset").
        #: Cumulative across all simulations using this protocol object;
        #: call ``reset_events()`` between experiments.
        self.events: Counter[str] = Counter()

    def reset_events(self) -> None:
        """Clear the hard/soft-reset event counters."""
        self.events.clear()

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------

    def reset_agent(self, state: AgentState) -> None:
        """Protocol 6 (``Reset``): restart the agent as a clean ranker."""
        state.role = Role.RANKING
        state.ar = initial_ar_state()
        state.countdown = self.params.countdown_max
        state.pr = None
        state.sv = None
        state.rank = 1

    def trigger(self, state: AgentState) -> None:
        """Protocol 5 (``TriggerReset``): begin a hard reset at this agent."""
        self.events["hard_reset"] += 1
        trigger_reset(state, self.params)

    def _count_soft_reset(self, state: AgentState) -> None:
        self.events["soft_reset"] += 1

    def become_verifier(self, state: AgentState) -> None:
        """Protocol 1, lines 6-8: ranker → verifier, freezing its rank."""
        assert state.ar is not None
        state.rank = state.ar.rank
        state.role = Role.VERIFYING
        state.sv = initial_sv_state(state.rank, self.params, self.partition)
        state.ar = None
        state.countdown = 0

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------

    def initial_state(self) -> AgentState:
        state = AgentState()
        self.reset_agent(state)
        return state

    def triggered_state(self) -> AgentState:
        """A freshly-triggered resetter (for Lemma 6.2 experiments)."""
        state = AgentState()
        self.trigger(state)
        return state

    def transition(self, u: AgentState, v: AgentState, rng: RNG) -> None:
        """Protocol 1."""
        u_role = u.role
        v_role = v.role

        # Two verifiers run only lines 9-10: lines 1-8 need a resetter or
        # a ranker.
        if u_role is _VERIFYING and v_role is _VERIFYING:
            stable_verify(
                u, v, self.params, self.partition, rng, self.trigger, self._count_soft_reset
            )
            return

        params = self.params

        # Line 1-2: the reset epidemic, if any resetter is involved.
        if u_role is _RESETTING or v_role is _RESETTING:
            propagate_reset(u, v, params, self.reset_agent)
            u_role = u.role
            v_role = v.role

        # Lines 3-5: two rankers execute AssignRanks and tick countdowns.
        if u_role is _RANKING and v_role is _RANKING:
            assert u.ar is not None and v.ar is not None
            assign_ranks(u.ar, v.ar, params, rng)
            u.countdown = u.countdown - 1 if u.countdown > 0 else 0
            v.countdown = v.countdown - 1 if v.countdown > 0 else 0

        # Lines 6-8: rankers become verifiers on timeout or by epidemic;
        # u goes first, so its conversion converts v in the same step.
        if u_role is _RANKING and (u.countdown == 0 or v_role is _VERIFYING):
            self.become_verifier(u)
            u_role = _VERIFYING
        if v_role is _RANKING and (v.countdown == 0 or u_role is _VERIFYING):
            self.become_verifier(v)
            v_role = _VERIFYING

        # Lines 9-10: two verifiers execute StableVerify.
        if u_role is _VERIFYING and v_role is _VERIFYING:
            stable_verify(
                u, v, params, self.partition, rng, self.trigger, self._count_soft_reset
            )

    def rank(self, state: AgentState) -> int:
        """The agent's presumed rank (meaningful once it verifies)."""
        if state.role is Role.VERIFYING:
            return state.rank
        if state.role is Role.RANKING and state.ar is not None:
            return state.ar.rank
        return 1

    # ------------------------------------------------------------------
    # Configuration predicates
    # ------------------------------------------------------------------

    def all_verifiers(self, config: Sequence[AgentState]) -> bool:
        return all(s.role is Role.VERIFYING for s in config)

    def generation_profile(self, config: Sequence[AgentState]) -> Optional[set[int]]:
        """The set of generations present, or ``None`` if not all verifiers."""
        if not self.all_verifiers(config):
            return None
        assert all(s.sv is not None for s in config)
        generations = self.params.generations
        return {s.sv.generation % generations for s in config}  # type: ignore[union-attr]

    def is_safe_configuration(self, config: Sequence[AgentState]) -> bool:
        """A checkable, absorbing strengthening of ``𝒞_safe`` (Lemma 6.1).

        Requires: all agents are verifiers with a correct ranking (condition
        (a)); everyone shares one generation; no ⊤ is present; and the
        message system is globally consistent.  Such configurations are
        closed under the transition function — collision detection is sound
        from consistent configurations (Lemma E.1(a)), so no ⊤, hence no
        generation change or reset, can ever occur — and the actual
        ``𝒞_safe`` (which also admits transient two-generation splits whose
        reachability condition is not efficiently checkable) is entered at
        most one soft-reset epidemic later.
        """
        if not self.all_verifiers(config):
            return False
        if not self.ranking_correct(config):
            return False
        modulus = self.params.generations
        generations = {s.sv.generation % modulus for s in config}  # type: ignore[union-attr]
        if len(generations) != 1:
            return False
        pairs = []
        for s in config:
            assert s.sv is not None
            if s.sv.dc is TOP:
                return False
            pairs.append((s.rank, s.sv.dc))
        return message_system_consistent(pairs, self.params, self.partition)

    def is_goal_configuration(self, config: Sequence[AgentState]) -> bool:
        """Stabilized = reached the (checkable) safe set."""
        return self.is_safe_configuration(config)

    def describe_configuration(self, config: Sequence[AgentState]) -> dict[str, object]:
        """A compact diagnostic summary used by examples and debugging."""
        roles = {role: 0 for role in Role}
        for s in config:
            roles[s.role] += 1
        ranks = [self.rank(s) for s in config]
        top_count = sum(
            1 for s in config if s.role is Role.VERIFYING and s.sv is not None and s.sv.dc is TOP
        )
        return {
            "roles": {role.value: count for role, count in roles.items()},
            "distinct_ranks": len(set(ranks)),
            "ranking_correct": sorted(ranks) == list(range(1, len(config) + 1)),
            "generations": sorted(self.generation_profile(config) or set()),
            "top_states": top_count,
            "leaders": ranks.count(1),
            "safe": self.is_safe_configuration(config),
        }
