"""Loosely-stabilizing leader election (Sudo et al., related work).

The paper's related-work section contrasts *self*-stabilization with the
relaxation of Sudo, Nakamura, Yamauchi, Ooshita, Kakugawa and Masuzawa
(TCS 2012) and its successors: from any configuration the population must
reach a unique-leader configuration within a short *convergence time*, and
then keep that leader for a long (but not infinite) *holding time* —
trading eternal correctness for dramatically fewer states
(``O(τ log n)``-ish versus the self-stabilizing lower bounds).

The classic timeout mechanism implemented here:

* every agent carries ``timer ∈ {0..T_max}`` with ``T_max = c·τ·log n``;
* a leader resets its own timer to ``T_max`` on every interaction and
  propagates timer values: on contact both agents adopt
  ``max(timer_u, timer_v) - 1`` (the leader's heartbeat spreads as an
  epidemic, decaying with distance in interaction-time);
* a non-leader whose timer hits 0 concludes the leader is gone and
  promotes itself;
* two leaders meeting eliminate one (pairwise elimination).

Properties (measured in experiment E14): a leader leaves only by meeting
another leader, so from a configuration with several leaders (a clean
start promotes many in its first interactions) a unique leader emerges
after ``Θ(n²)`` interactions in expectation — the last two leaders alone
meet after ``n(n−1)/2`` on average, and clean starts on the counts engine
took a median 0.60–1.37 × n² at n = 10²–10⁴; once unique, the leader
persists until some agent's timer runs out despite the
heartbeat — an event whose waiting time grows rapidly with ``T_max``
(exponentially in the paper's analysis; our bench measures the growth) —
whereas the two-state pairwise-elimination protocol can never recover
from a zero-leader configuration at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.params import BaselineParams
from repro.core.protocol import PopulationProtocol
from repro.scheduler.rng import RNG


@dataclass(slots=True)
class LooseState:
    """Leader bit plus the heartbeat timer."""

    leader: bool = False
    timer: int = 0

    def clone(self) -> "LooseState":
        return LooseState(self.leader, self.timer)


class LooselyStabilizingLeaderElection(PopulationProtocol):
    """Timeout-heartbeat loosely-stabilizing leader election.

    ``tau`` scales the holding time: ``T_max = c_timer · tau · log n``.
    The state count is ``2·(T_max+1) = O(τ log n)`` — the tiny footprint
    that motivates the loose relaxation.
    """

    name = "loosely-stabilizing"

    def __init__(self, params: BaselineParams, tau: float = 4.0):
        self.params = params
        self.n = params.n
        self.tau = tau
        self.timer_max = max(4, math.ceil(params.c_timer * tau * params.log_n))

    def initial_state(self) -> LooseState:
        """Clean start: everyone a follower with expired timer — the first
        interactions promote leaders and elimination prunes them."""
        return LooseState(leader=False, timer=0)

    def adversarial_configuration(self, rng: RNG) -> list[LooseState]:
        """Arbitrary leader bits and timers."""
        return [
            LooseState(
                leader=rng.random() < 0.5,
                timer=rng.randrange(self.timer_max + 1),
            )
            for _ in range(self.n)
        ]

    def zero_leader_configuration(self, timer: int | None = None) -> list[LooseState]:
        """The configuration pairwise elimination can never escape."""
        value = self.timer_max if timer is None else timer
        return [LooseState(leader=False, timer=value) for _ in range(self.n)]

    def state_count(self) -> int:
        return 2 * (self.timer_max + 1)

    # ------------------------------------------------------------------

    def transition(self, u: LooseState, v: LooseState, rng: RNG) -> None:
        if u.leader and v.leader:
            v.leader = False  # pairwise elimination
        if u.leader or v.leader:
            u.timer = self.timer_max
            v.timer = self.timer_max
            return
        # Heartbeat decay: both adopt max - 1; on expiry, self-promote.
        merged = max(u.timer, v.timer) - 1
        if merged <= 0:
            u.timer = self.timer_max
            u.leader = True
            v.timer = self.timer_max
            return
        u.timer = merged
        v.timer = merged

    def output(self, state: LooseState) -> bool:
        return state.leader

    def is_goal_configuration(self, config: Sequence[LooseState]) -> bool:
        return self.leader_count(config) == 1

    # ------------------------------------------------------------------
    # Finite-state encoding (array backend): (leader bit, timer) pairs,
    # laid out as leader-major blocks of (timer_max + 1) timer values.
    # The transition is deterministic, so the generic S² table builder
    # applies; S = 2·(T_max+1) stays in the hundreds even at n = 4096.
    # ------------------------------------------------------------------

    def num_states(self) -> int:
        return self.state_count()

    def encode_state(self, state: LooseState) -> int:
        return int(state.leader) * (self.timer_max + 1) + state.timer

    def decode_state(self, code: int) -> LooseState:
        block = self.timer_max + 1
        return LooseState(leader=bool(code // block), timer=code % block)

    def goal_counts(self, counts) -> bool:
        """Counts form (counts backend): one agent in the leader-major block."""
        return int(counts[self.timer_max + 1:].sum()) == 1

    def goal_counts_rows(self, counts_rows):
        """Row-vectorized form (batch engines): one array op over rows."""
        return counts_rows[:, self.timer_max + 1:].sum(axis=1) == 1

    # ------------------------------------------------------------------

    def holding_time(self, config: list[LooseState], rng: RNG, budget: int) -> int:
        """Interactions until the unique-leader property first breaks.

        Runs the protocol forward from ``config`` (which must have exactly
        one leader) and returns the first interaction count at which the
        leader count differs from one, or ``budget`` if it never breaks.
        """
        leaders = self.leader_count(config)
        if leaders != 1:
            raise ValueError("holding_time requires a unique-leader configuration")
        n = len(config)
        for step in range(1, budget + 1):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            u, v = config[i], config[j]
            before = u.leader + v.leader
            self.transition(u, v, rng)
            leaders += (u.leader + v.leader) - before
            if leaders != 1:
                return step
        return budget
