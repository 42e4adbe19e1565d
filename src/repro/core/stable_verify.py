"""``StableVerify_r`` — soft/hard reset arbitration (Section 5, Protocol 2).

``DetectCollision_r`` may raise ⊤ for two very different reasons: a genuine
rank collision, or a message system that was adversarially initialized in
an inconsistent way on top of a *correct* ranking.  A full reset in the
second case would destroy the correct ranking, so the wrapper interleaves
two mechanisms (Section 3.2):

* **Probation** — every verifier holds a ``probationTimer`` counting down
  from ``P_max = c_prob·(n/r)·log n``.  A ⊤ with the timer at zero means a
  long collision-free period preceded it; since genuine collisions are
  detected fast w.h.p., the error is attributed to bad initialization and
  only a *soft reset* is performed.  A ⊤ while on probation means an
  inconsistency survived the previous soft reset — which, absent genuine
  collisions, happens with low probability — so a *hard reset* is
  triggered.
* **Generations** — a soft reset advances the agent's ``generation``
  (mod 6) and reinitializes only its ``DetectCollision_r`` state.  Agents
  one generation behind adopt the successor generation (with a fresh DC
  state) by epidemic, but only while *their* probation timer is zero;
  collision detection only runs between same-generation agents, so stale
  pre-reset messages never mix with the fresh ones.  Any generation gap
  other than +1 forces a hard reset.

The wrapper treats ranking and collision detection as black boxes, so the
construction applies to other verification problems as well (noted in
Section 3.2 of the paper).
"""

from __future__ import annotations

from typing import Callable

from repro.core.detect_collision import detect_collision, initial_dc_state
from repro.core.params import ProtocolParams
from repro.core.partition import RankPartition
from repro.core.roles import Role, generation_ahead, generation_successor
from repro.core.state import TOP, AgentState, SVState
from repro.scheduler.rng import RNG

#: ``Role.VERIFYING`` as a global: the enum's class-attribute lookup is
#: several times slower, and every verifier pair checks it twice.
_VERIFYING = Role.VERIFYING

#: Callback performing ``TriggerReset`` on an agent (Protocol 5).
TriggerCallback = Callable[[AgentState], None]

#: Optional observer invoked when an agent soft-resets (for instrumentation).
SoftResetObserver = Callable[[AgentState], None]


def initial_sv_state(rank: int, params: ProtocolParams, partition: RankPartition) -> SVState:
    """``q_{0,SV}``: generation 0, full probation, fresh ``q_{0,DC}``.

    The probation timer starts at ``P_max``: right after becoming a
    verifier "only a short period of time has passed since the beginning of
    the process", so early errors must cause a (cheap at this point) full
    reset (Section 3.2).
    """
    return SVState(
        generation=0,
        probation_timer=params.probation_max,
        dc=initial_dc_state(rank, params, partition),
    )


def soft_reset(agent: AgentState, params: ProtocolParams, partition: RankPartition) -> None:
    """Protocol 2, line 7: advance generation, refresh DC state, re-arm probation."""
    assert agent.sv is not None
    agent.sv.generation = generation_successor(agent.sv.generation, params.generations)
    agent.sv.dc = initial_dc_state(agent.rank, params, partition)
    agent.sv.probation_timer = params.probation_max


def adopt_generation(
    agent: AgentState,
    target_generation: int,
    params: ProtocolParams,
    partition: RankPartition,
) -> None:
    """Protocol 2, line 11: join the successor generation via epidemic."""
    assert agent.sv is not None
    agent.sv.generation = target_generation % params.generations
    agent.sv.dc = initial_dc_state(agent.rank, params, partition)
    agent.sv.probation_timer = params.probation_max


def stable_verify(
    u: AgentState,
    v: AgentState,
    params: ProtocolParams,
    partition: RankPartition,
    rng: RNG,
    trigger: TriggerCallback,
    on_soft_reset: SoftResetObserver | None = None,
) -> None:
    """Protocol 2: one ``StableVerify_r`` interaction between two verifiers."""
    if u.role is not _VERIFYING or v.role is not _VERIFYING:
        raise ValueError("stable_verify requires two verifying agents")
    u_sv = u.sv
    v_sv = v.sv
    assert u_sv is not None and v_sv is not None

    # Lines 1-2: probation timers tick down on every interaction.
    u_sv.probation_timer = u_sv.probation_timer - 1 if u_sv.probation_timer > 0 else 0
    v_sv.probation_timer = v_sv.probation_timer - 1 if v_sv.probation_timer > 0 else 0

    generations = params.generations
    same_generation = u_sv.generation % generations == v_sv.generation % generations

    # Lines 3-4: collision detection runs only within a generation.
    if same_generation:
        u_dc = u_sv.dc
        v_dc = v_sv.dc
        if u_dc is not TOP and v_dc is not TOP and not partition.same_group(u.rank, v.rank):
            # Across groups, lines 3-4 are a no-op (Protocol 3, lines
            # 1-2): no ⊤ reaches lines 5-8, and one generation skips 10-13.
            return
        u_sv.dc, v_sv.dc = detect_collision(u.rank, u_dc, v.rank, v_dc, params, partition, rng)

    # Lines 5-8: error handling.  This also absorbs adversarially planted ⊤
    # states regardless of the generation comparison.
    any_error = False
    for agent in (u, v):
        if agent.sv is not None and agent.sv.dc is TOP:
            any_error = True
            if agent.sv.probation_timer == 0:
                soft_reset(agent, params, partition)
                if on_soft_reset is not None:
                    on_soft_reset(agent)
            else:
                trigger(agent)
    if any_error:
        return

    if same_generation:
        return

    # Lines 10-12: the soft-reset epidemic — an off-probation agent exactly
    # one generation behind adopts the successor generation.
    for a, b in ((u, v), (v, u)):
        assert a.sv is not None and b.sv is not None
        if a.sv.probation_timer == 0 and generation_ahead(
            a.sv.generation, b.sv.generation, params.generations
        ):
            adopt_generation(a, b.sv.generation, params, partition)
            if on_soft_reset is not None:
                on_soft_reset(a)
            return

    # Line 13: generations differ but no soft reset is permissible.
    trigger(u)
