"""The Cai–Izumi–Wada baseline: ``n``-state self-stabilizing ranking.

Cai, Izumi and Wada (Theory Comput. Syst. 2012) showed ``n`` states are
necessary and sufficient for self-stabilizing leader election, via the
folklore *rank-bump* protocol: each agent's entire state is a presumed
rank in ``[n]``, and when two agents with equal ranks meet, one of them
advances cyclically::

    δ(i, i) = (i, i mod n + 1)        δ(i, j) = (i, j)   for i ≠ j

From any configuration a permutation of ``[n]`` is reachable (duplicated
ranks push their excess forward around the cycle into the gaps, and the
number of gaps equals the number of excess tokens), and permutations are
silent, so the protocol stabilizes with probability 1.  Expected
stabilization time is ``O(n^2)`` parallel time — the slow-but-tiny end of
the design space against which the paper positions itself (Section 2).

This protocol is *silent*: in a correct configuration no interaction
changes any state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.params import BaselineParams
from repro.core.protocol import RankingProtocol
from repro.scheduler.rng import RNG


@dataclass(slots=True)
class CIWState:
    """The whole state is one presumed rank."""

    rank: int

    def clone(self) -> "CIWState":
        return CIWState(self.rank)


class CaiIzumiWada(RankingProtocol):
    """The ``n``-state rank-bump SSLE baseline."""

    name = "cai-izumi-wada"

    def __init__(self, params: BaselineParams):
        self.params = params
        self.n = params.n
        self._next_rank = 0

    def initial_state(self) -> CIWState:
        """Clean starts are the worst case here: all agents at rank 1."""
        return CIWState(rank=1)

    def adversarial_configuration(self, rng: RNG) -> list[CIWState]:
        """Uniformly random ranks — the generic adversarial start."""
        return [CIWState(rng.randrange(1, self.n + 1)) for _ in range(self.n)]

    def transition(self, u: CIWState, v: CIWState, rng: RNG) -> None:
        if u.rank == v.rank:
            v.rank = u.rank % self.n + 1

    def rank(self, state: CIWState) -> int:
        return state.rank

    # ------------------------------------------------------------------
    # Finite-state encoding (array backend): the state IS a rank in [n].
    # ------------------------------------------------------------------

    def num_states(self) -> int:
        return self.n

    def encode_state(self, state: CIWState) -> int:
        return state.rank - 1

    def decode_state(self, code: int) -> CIWState:
        return CIWState(rank=code + 1)

    def transition_table(self):
        """Closed-form ``n × n`` table: identity off the diagonal, rank
        bump on it — the generic S² enumeration would make 16.7M Python δ
        calls at n=4096 where two vectorized lines suffice."""
        from repro.sim.array_backend import TransitionTable, require_numpy, table_buffers

        np = require_numpy()
        size = self.n
        codes = np.arange(size)
        u_out, v_out = table_buffers(size)
        u_out[:] = codes[:, None]
        v_out[:] = codes
        # δ(i, i) = (i, i mod n + 1): in code space, (k, k) -> (k, (k+1) mod n).
        v_out[codes, codes] = (codes + 1) % size
        return TransitionTable(num_states=size, u_out=u_out, v_out=v_out)

    def is_silent_configuration(self, config: Sequence[CIWState]) -> bool:
        """Silent iff all ranks distinct (= correct, since |config| = n)."""
        ranks = [s.rank for s in config]
        return len(set(ranks)) == len(ranks)

    def goal_counts(self, counts) -> bool:
        """Counts form (counts backend): no rank held by two agents.

        With ``S = n`` codes and ``counts.sum() = n`` agents, "no count
        exceeds 1" is exactly "every rank held once" — the permutation
        (= silent = goal) configuration.
        """
        return int(counts.max()) <= 1

    def goal_counts_rows(self, counts_rows):
        """Row-vectorized form (batch engines): one array op over rows."""
        return counts_rows.max(axis=1) <= 1
