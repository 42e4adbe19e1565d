"""``PropagateReset`` — the epidemic hard-reset mechanism (Appendix C).

The protocol, due to Burman et al. (PODC '21), resets the whole population
to a well-defined clean configuration:

* an agent *triggers* a reset by becoming a resetter with
  ``resetCount = R_max`` (Protocol 5);
* resetters with positive count infect computing agents and synchronize
  counts downward via ``max(u−1, v−1, 0)`` (Protocol 4, lines 1-4);
* an agent whose count hits zero becomes *dormant* and waits out
  ``delayTimer = D_max`` interactions — by Lemma C.1 the whole population
  is dormant before any timer expires, w.h.p.;
* a dormant agent restarts (``Reset``) when its delay expires or when it
  meets a computing agent, so awakening spreads as an epidemic
  (Theorem C.2 / Corollary C.3).

``Reset`` itself (Protocol 6) is supplied by the *user* of the mechanism —
here ``ElectLeader_r``, which restarts agents as rankers — so this module
exposes the transition as a function over :class:`AgentState` taking a
``reset_agent`` callback.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.params import ProtocolParams
from repro.core.protocol import PopulationProtocol
from repro.core.roles import Role
from repro.core.state import AgentState, PRState
from repro.scheduler.rng import RNG

#: Callback (re-)initializing an agent when it leaves dormancy (Protocol 6).
ResetCallback = Callable[[AgentState], None]


def trigger_reset(state: AgentState, params: ProtocolParams) -> None:
    """Protocol 5: make ``state`` a freshly-triggered resetter."""
    state.role = Role.RESETTING
    state.pr = PRState(
        reset_count=params.reset_count_max,
        delay_timer=params.delay_timer_max,
    )
    # Role change deletes the newly inactive fields (Fig. 1).
    state.ar = None
    state.sv = None
    state.rank = 1
    state.countdown = 0


def propagate_reset(
    u: AgentState,
    v: AgentState,
    params: ProtocolParams,
    reset_agent: ResetCallback,
) -> None:
    """Protocol 4, symmetrized over the (unordered) interacting pair.

    The paper's pseudocode is written with ``u`` the resetter; interactions
    in the population model update both participants, so we apply the
    infection / countdown / dormancy rules to whichever participants are
    resetting.  At least one of ``u``, ``v`` must be resetting.
    """
    if u.role is not Role.RESETTING and v.role is not Role.RESETTING:
        raise ValueError("propagate_reset requires at least one resetting agent")

    # Snapshot pre-interaction counts to evaluate "just became 0" (line 6).
    pre_counts = {
        id(a): (a.pr.reset_count if a.role is Role.RESETTING and a.pr is not None else None)
        for a in (u, v)
    }

    # Lines 1-2: infection.  A resetter with positive count turns a
    # computing partner into a resetter (count 0, full delay).
    for a, b in ((u, v), (v, u)):
        if (
            a.role is Role.RESETTING
            and a.pr is not None
            and a.pr.reset_count > 0
            and b.role is not Role.RESETTING
        ):
            b.role = Role.RESETTING
            b.pr = PRState(reset_count=0, delay_timer=params.delay_timer_max)
            b.ar = None
            b.sv = None
            b.rank = 1
            b.countdown = 0

    # Lines 3-4: two resetters synchronize their countdowns downward.
    if u.role is Role.RESETTING and v.role is Role.RESETTING:
        assert u.pr is not None and v.pr is not None
        merged = max(u.pr.reset_count - 1, v.pr.reset_count - 1, 0)
        u.pr.reset_count = merged
        v.pr.reset_count = merged

    # Lines 5-11: dormancy countdown and awakening.
    for a, b in ((u, v), (v, u)):
        if a.role is not Role.RESETTING or a.pr is None or a.pr.reset_count != 0:
            continue
        pre = pre_counts[id(a)]
        just_became_zero = pre is None or pre > 0
        if just_became_zero:
            a.pr.delay_timer = params.delay_timer_max
        else:
            a.pr.delay_timer = max(0, a.pr.delay_timer - 1)
        partner_computing = b.role is not Role.RESETTING
        if a.pr.delay_timer == 0 or partner_computing:
            reset_agent(a)


class ResetEpidemicProtocol(PopulationProtocol):
    """Standalone ``PropagateReset`` as a runnable population protocol.

    Wraps the reset epidemic with the trivial ``Reset`` callback "become a
    clean awake agent", turning Appendix C into a self-contained protocol:
    from any configuration with a triggered resetter, the reset wave
    infects everyone, the population goes dormant, and every agent
    restarts awake (Theorem C.2 / Corollary C.3).  The goal predicate is
    "everyone awake", which is absorbing — two awake agents are a no-op.

    This is the one *finite-state, deterministic* protocol in ``core/``:
    its state is awake or ``(reset_count ≤ R_max, delay_timer ≤ D_max)``,
    both timers ``Θ(log n)``, so it tabulates for the array backend where
    the full ``ElectLeader_r`` cannot.  Experiments use it to measure the
    reset epidemic's completion time in isolation at populations far
    beyond what the object backend reaches.
    """

    name = "reset-epidemic"

    def __init__(self, params: ProtocolParams):
        self.params = params
        self.n = params.n

    # ------------------------------------------------------------------

    @staticmethod
    def _restart(state: AgentState) -> None:
        """Protocol 6, degenerate form: restart as a clean awake agent."""
        state.role = Role.RANKING
        state.pr = None
        state.ar = None
        state.sv = None
        state.rank = 1
        state.countdown = 0

    def initial_state(self) -> AgentState:
        """A clean awake agent (the post-restart state)."""
        state = AgentState()
        self._restart(state)
        return state

    def triggered_state(self) -> AgentState:
        """A freshly-triggered resetter (Protocol 5)."""
        state = AgentState()
        trigger_reset(state, self.params)
        return state

    def triggered_configuration(self, n: int, sources: int = 1) -> list[AgentState]:
        """``n`` agents with the first ``sources`` freshly triggered."""
        if not 1 <= sources <= n:
            raise ValueError(f"need 1 <= sources <= n, got {sources}, n={n}")
        return [
            self.triggered_state() if index < sources else self.initial_state()
            for index in range(n)
        ]

    def transition(self, u: AgentState, v: AgentState, rng: RNG) -> None:
        if u.role is Role.RESETTING or v.role is Role.RESETTING:
            propagate_reset(u, v, self.params, self._restart)

    def output(self, state: AgentState) -> bool:
        """True iff the agent is awake (has restarted or never reset)."""
        return state.role is not Role.RESETTING

    def is_goal_configuration(self, config: Sequence[AgentState]) -> bool:
        """The reset completed: every agent is awake again."""
        return all(s.role is not Role.RESETTING for s in config)

    def goal_counts(self, counts) -> bool:
        """Counts form (counts backend): every agent in the awake code 0."""
        return int(counts[0]) == int(counts.sum())

    def goal_counts_rows(self, counts_rows):
        """Row-vectorized form (batch engines): one array op over rows."""
        return counts_rows[:, 0] == counts_rows.sum(axis=1)

    # ------------------------------------------------------------------
    # Finite-state encoding (array backend): code 0 is the awake agent;
    # resetters occupy a dense (reset_count, delay_timer) grid above it.
    # ------------------------------------------------------------------

    def num_states(self) -> int:
        return 1 + (self.params.reset_count_max + 1) * (self.params.delay_timer_max + 1)

    def encode_state(self, state: AgentState) -> int:
        if state.role is not Role.RESETTING:
            return 0
        assert state.pr is not None
        return 1 + state.pr.reset_count * (self.params.delay_timer_max + 1) + state.pr.delay_timer

    def decode_state(self, code: int) -> AgentState:
        if code == 0:
            return self.initial_state()
        block = self.params.delay_timer_max + 1
        count, delay = divmod(code - 1, block)
        state = AgentState()
        state.role = Role.RESETTING
        state.pr = PRState(reset_count=count, delay_timer=delay)
        state.rank = 1
        state.countdown = 0
        return state

    def transition_table(self):
        """Closed-form ``S × S`` table (replaces the generic S² builder).

        The generic enumeration makes ``S²`` Python δ calls; with
        ``S = 1 + (R_max+1)(D_max+1) = Θ(log² n)`` that is ~600k calls at
        ``n = 10⁴`` and ~2.7M at ``n = 10⁶`` — the cap that kept nightly
        reset rows at ``n = 10⁴``.  ``propagate_reset``'s case analysis
        over (awake, resetter(c, d)) pairs has a direct vectorized form:

        * awake × awake — no-op;
        * resetter(c, d) × awake — ``c = 0``: the dormant agent meets a
          computing one and both end awake (awakening epidemic);
          ``c ≥ 1``: infection then downward sync, so the resetter drops
          to ``c − 1`` (delay refreshed to ``D_max`` iff it just hit 0)
          and the partner becomes ``resetter(c − 1, D_max)``;
        * resetter(c₁, d₁) × resetter(c₂, d₂) — both counts become
          ``m = max(c₁ − 1, c₂ − 1, 0)``; if ``m ≥ 1`` delays are
          untouched; if ``m = 0`` each agent independently refreshes its
          delay to ``D_max`` (if its count just became 0) or ticks it
          down, awakening when the new delay hits 0.

        **How it is filled.**  ``u_out`` / ``v_out`` are allocated once
        (:func:`~repro.sim.array_backend.table_buffers`) and each case is
        written straight into its own region: the awake row and column
        (code 0), then the resetter × resetter region one initiator count
        block at a time (the ``D_max + 1`` rows of count ``c``), so no
        temporary is larger than one ``(D_max + 1) × S`` block.  Why: at
        the ``n = 10⁶`` frontier (``S = 1654``) the outputs take 11 MB, and
        full ``S × S`` case arrays would take several times that — enough
        to set the run's peak memory — and the table is built once per
        protocol instance, so once per trial under a process pool.

        A regression test checks this table equals the generic builder's
        entry for entry.
        """
        from repro.sim.array_backend import TransitionTable, require_numpy, table_buffers

        np = require_numpy()
        d_max = self.params.delay_timer_max
        block = d_max + 1
        size = self.num_states()
        # Per-code fields of the resetter codes 1..S-1 (code 0 is awake).
        count, delay = np.divmod(np.arange(size - 1, dtype=np.int32), block)

        def resetter(c, d):
            return 1 + c * block + d

        def post_sync(own_count, own_delay, merged):
            """One agent's code after its count becomes ``merged``."""
            # merged >= 1: delay untouched.  merged == 0: refresh to D_max
            # if the count just dropped to 0, else tick down and awaken at
            # 0 (Protocol 4 lines 5-11 with a resetting partner).
            ticked = np.maximum(own_delay - 1, 0)
            dormant = np.where(
                own_count > 0,
                resetter(0, d_max),
                np.where(ticked == 0, 0, resetter(0, ticked)),
            )
            return np.where(merged > 0, resetter(merged, own_delay), dormant)

        u_out, v_out = table_buffers(size)

        # Awake × awake: no-op.
        u_out[0, 0] = v_out[0, 0] = 0

        # Resetter × awake (either order): dormant resetters awaken on
        # contact with a computing agent; active ones infect it and both
        # sync to c - 1.  The infected partner's count "just became zero"
        # whenever the merged count is 0 (its pre-count was None), so it
        # takes post_sync's refresh branch (own_count=1) at delay D_max.
        synced = np.maximum(count - 1, 0)
        own = np.where(count == 0, 0, post_sync(count, delay, synced))
        infected = np.where(count == 0, 0, post_sync(1, d_max, synced))
        u_out[1:, 0], v_out[1:, 0] = own, infected
        u_out[0, 1:], v_out[0, 1:] = infected, own

        # Both resetting, one initiator count block at a time: counts sync
        # to m, then the dormancy step — which is *sequential in the pair
        # order*: ``propagate_reset`` finalizes ``u`` first, so a ``u``
        # that awakens (its ticked delay hit 0) is a computing partner by
        # the time ``v`` is processed, and ``v`` awakens in the same
        # interaction; the cascade does not run the other way.
        own_delay = np.arange(block, dtype=np.int32)[:, None]
        for c in range(self.params.reset_count_max + 1):
            rows = slice(resetter(c, 0), resetter(c + 1, 0))
            merged = np.maximum(np.maximum(c - 1, count - 1), 0)
            both_u = post_sync(c, own_delay, merged)
            u_out[rows, 1:] = both_u
            v_out[rows, 1:] = np.where(both_u == 0, 0, post_sync(count, delay, merged))
        return TransitionTable(num_states=size, u_out=u_out, v_out=v_out)


def is_dormant(state: AgentState) -> bool:
    """True iff the agent is a dormant resetter (count 0, waiting)."""
    return state.role is Role.RESETTING and state.pr is not None and state.pr.dormant


def fully_dormant(config: list[AgentState]) -> bool:
    """True iff every agent is dormant (Appendix C terminology)."""
    return all(is_dormant(s) for s in config)
