"""``DetectCollision_r`` — message-based rank-collision detection (Sec. 5.1).

The core difficulty of self-stabilizing leader election is detecting two
agents with the same (supposedly unique) rank without false positives.
Waiting for the two duplicates to meet directly costs ``Ω(n)`` time; the
paper instead *amplifies the number of collidable objects*: every rank
governs ``Θ(r^2)`` circulating messages ``(rank, ID, content)``.

* Only agents whose rank matches a message's rank may modify it; whenever
  they do, they record the new content in their own ``observations`` array
  (Protocol 13, ``UpdateMessages``).
* Message contents are the governing agent's current *signature*, drawn
  from ``[r^5]`` and refreshed every ``Θ(log r)`` of the agent's own
  interactions (so two same-ranked agents initialized with equal
  signatures diverge quickly).
* Messages spread by deterministic per-(rank, content) load balancing
  (Protocol 14, ``BalanceLoad``), so refreshed messages reach every agent
  within ``O(m log m)`` intra-group interactions (Lemma E.6, via the
  Berenbrink et al. load-balancing coupling).
* An agent raises the error state ``⊤`` when it meets its own rank, sees
  two copies of one message, or sees a message it governs whose content
  contradicts its recorded observation (Protocols 3 and 12).

Each agent stores its messages grouped by content (see
:class:`~repro.core.state.DCState`): ``{rank: {content: ascending ids}}``.
``BalanceLoad`` acts on (rank, content) classes and a pair of agents holds
only a few contents per rank, so the helpers below merge, split and test
whole id lists rather than walking message by message.

The space-time trade-off (Section 3.3) runs this machinery independently
inside each rank-group of size ``Θ(r)``; interactions across groups are
no-ops.  Lemma E.1 gives the contract: *soundness* (no ⊤ ever, from
``q_0`` on a correct ranking) and *robust completeness* (⊤ within
``O((n^2/r) log n)`` interactions whenever duplicate ranks exist,
regardless of the message system's state).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence, Union

from repro.core.params import ProtocolParams
from repro.core.partition import RankPartition
from repro.core.protocol import PopulationProtocol
from repro.core.state import TOP, DCState, Top
from repro.scheduler.rng import RNG

DCValue = Union[DCState, Top]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def message_block(position: int, group_size: int, total: int) -> range:
    """IDs initially held by the agent at 1-based ``position`` in its group.

    The ``total`` message IDs of each governed rank are pre-mixed across the
    group's ``group_size`` agents in contiguous, nearly equal blocks
    (footnote 2 of the paper: the initial round of messages is hardcoded and
    pre-mixed among agents).
    """
    base, extra = divmod(total, group_size)
    start = (position - 1) * base + min(position - 1, extra) + 1
    size = base + (1 if position <= extra else 0)
    return range(start, start + size)


def initial_dc_state(
    rank: int,
    params: ProtocolParams,
    partition: RankPartition,
    premixed: bool = True,
) -> DCState:
    """``q_{0,DC}`` for an agent of the given rank (Section 5.1).

    Signature, counter and all observations start at 1; the agent holds its
    pre-mixed block of message IDs *for every rank its group governs*, all
    with content 1.

    ``premixed=False`` is an ablation switch (bench E13): the agent instead
    starts holding **all** messages of its own rank and none of the
    others' — the clumped allocation the paper's footnote 2 pre-mixes away.
    """
    group = partition.group_of(rank)
    group_size = partition.group_size(group)
    total = params.messages_per_rank(group_size)
    if not premixed:
        return DCState(
            signature=1,
            counter=1,
            msgs={rank: {1: list(range(1, total + 1))}},
            observations=[1] * total,
        )
    position = partition.position_in_group(rank)
    block = message_block(position, group_size, total)
    msgs = {governed: {1: list(block)} for governed in partition.group_ranks(group)}
    return DCState(signature=1, counter=1, msgs=msgs, observations=[1] * total)


# ---------------------------------------------------------------------------
# Sub-protocols (Protocols 12-14)
# ---------------------------------------------------------------------------


def has_duplicate_message(u: DCState, v: DCState) -> bool:
    """True iff some message ``(i, j)`` is held by both agents (Prot. 3, l.3)."""
    v_msgs = v.msgs
    for rank, u_groups in u.msgs.items():
        v_groups = v_msgs.get(rank)
        if v_groups and u_groups:
            u_ids = set().union(*u_groups.values())
            for ids in v_groups.values():
                if not u_ids.isdisjoint(ids):
                    return True
    return False


def check_message_consistency(owner_rank: int, owner: DCState, other: DCState) -> bool:
    """Protocol 12: does ``other`` carry a message of ``owner``'s rank whose
    content contradicts ``owner``'s observation?  Returns True on conflict.
    """
    carried = other.msgs.get(owner_rank)
    if not carried:
        return False
    observations = owner.observations
    limit = len(observations)
    for content, ids in carried.items():
        for msg_id in ids:  # ascending, so the first id past the limit ends the class
            if msg_id > limit:
                break
            if msg_id >= 1 and observations[msg_id - 1] != content:
                return True
    return False


def _restamp(
    msgs: dict[int, dict[int, list[int]]], rank: int, signature: int, observations: list[int]
) -> None:
    """Give every held message of ``rank`` the content ``signature`` (one
    class) and record it in the governor's ``observations``."""
    groups = msgs.get(rank)
    if not groups:
        return
    if len(groups) == 1:
        (ids,) = groups.values()
    else:
        ids = sorted(chain.from_iterable(groups.values()))
    msgs[rank] = {signature: ids}
    limit = len(observations)
    for msg_id in ids:  # ascending
        if msg_id > limit:
            break
        if msg_id >= 1:
            observations[msg_id - 1] = signature


def update_messages(
    owner_rank: int,
    owner: DCState,
    other: DCState,
    group_size: int,
    params: ProtocolParams,
    rng: RNG,
) -> None:
    """Protocol 13: refresh the signature on schedule; restamp own messages.

    On every interaction the owner restamps the messages *it governs* that
    the partner carries with its current signature, recording the contents
    in its observations — this is the "modify and record" step that makes
    duplicated ranks visible.  A restamp merges the rank's content classes
    into one.
    """
    owner.counter += 1
    if owner.counter >= params.signature_period(group_size):
        owner.signature = rng.randrange(1, params.signature_space(group_size) + 1)
        owner.counter = 1
        _restamp(owner.msgs, owner_rank, owner.signature, owner.observations)
    _restamp(other.msgs, owner_rank, owner.signature, owner.observations)


def balance_load(u: DCState, v: DCState, governed_ranks: Sequence[int]) -> None:
    """Protocol 14: per-(rank, content) halving swap of held messages.

    For every governing rank ``i`` and content ``k`` (ranks in
    ``governed_ranks`` order, contents ascending), the union of IDs held
    by the two agents is split into halves by ID order; the agent currently
    holding fewer messages overall receives the larger half, ``u`` on a
    tie.  Messages are never created or destroyed, and afterwards the
    per-(rank, content) holdings of the two agents differ by at most one.
    Messages of ranks outside ``governed_ranks`` are dropped.

    Each class is one merge of two sorted lists and two slices.  The
    running totals need no counting: ``u``'s minus ``v``'s starts at 0 and
    the agent behind takes the larger half, so it is always 0 or 1 and
    flips after every odd-sized class — one parity bit decides who takes
    the larger half.
    """
    u_msgs, v_msgs = u.msgs, v.msgs
    u_new: dict[int, dict[int, list[int]]] = {}
    v_new: dict[int, dict[int, list[int]]] = {}
    u_ahead = False  # u's running total is one above v's
    for rank in governed_ranks:
        u_groups = u_msgs.get(rank) or {}
        v_groups = v_msgs.get(rank) or {}
        if not u_groups and not v_groups:
            continue
        u_rank_new: dict[int, list[int]] = {}
        v_rank_new: dict[int, list[int]] = {}
        for content in sorted(u_groups.keys() | v_groups.keys()):
            u_ids = u_groups.get(content)
            v_ids = v_groups.get(content)
            ids = sorted(u_ids + v_ids) if u_ids and v_ids else u_ids or v_ids
            if not ids:
                continue
            half = len(ids) // 2
            if u_ahead:
                u_take, v_take = ids[:half], ids[half:]
            else:
                u_take, v_take = ids[half:], ids[:half]
            if u_take:
                u_rank_new[content] = u_take
            if v_take:
                v_rank_new[content] = v_take
            if len(ids) & 1:
                u_ahead = not u_ahead
        if u_rank_new:
            u_new[rank] = u_rank_new
        if v_rank_new:
            v_new[rank] = v_rank_new
    u.msgs = u_new
    v.msgs = v_new


# ---------------------------------------------------------------------------
# Protocol 3
# ---------------------------------------------------------------------------


def detect_collision(
    u_rank: int,
    u_dc: DCValue,
    v_rank: int,
    v_dc: DCValue,
    params: ProtocolParams,
    partition: RankPartition,
    rng: RNG,
    rng_v: RNG | None = None,
    balance: bool = True,
) -> tuple[DCValue, DCValue]:
    """Protocol 3: one ``DetectCollision_r`` interaction.

    Returns the two (possibly replaced-by-⊤) DC states.  ``⊤`` inputs are
    absorbing here; the ``StableVerify_r`` wrapper decides what a ⊤ means
    (soft vs. hard reset).

    ``rng`` draws ``u``'s signature refreshes and ``rng_v`` (defaulting to
    ``rng``) draws ``v``'s — the split exists so the Appendix-B
    derandomization can substitute per-agent synthetic-coin samplers
    (:mod:`repro.core.derandomized`).  ``balance=False`` disables the
    ``BalanceLoad`` step — an ablation switch only (bench E13); the real
    protocol always balances.
    """
    if u_dc is TOP or v_dc is TOP:
        return u_dc, v_dc
    assert isinstance(u_dc, DCState) and isinstance(v_dc, DCState)

    # Line 1-2: interactions across groups are no-ops.
    group = partition.group_of(u_rank)
    if group != partition.group_of(v_rank):
        return u_dc, v_dc

    # Lines 3-4: obvious collisions — shared rank or duplicated message.
    if u_rank == v_rank or has_duplicate_message(u_dc, v_dc):
        return TOP, TOP

    # Line 5: cross-check circulating messages against recorded contents.
    if check_message_consistency(u_rank, u_dc, v_dc) or check_message_consistency(
        v_rank, v_dc, u_dc
    ):
        return TOP, TOP

    # Lines 6-7: restamp and rebalance.
    group_size = partition.group_size(group)
    update_messages(u_rank, u_dc, v_dc, group_size, params, rng)
    update_messages(v_rank, v_dc, u_dc, group_size, params, rng_v if rng_v is not None else rng)
    if balance:
        balance_load(u_dc, v_dc, partition.group_ranks(group))
    return u_dc, v_dc


# ---------------------------------------------------------------------------
# Standalone protocol for direct measurement (experiment E5)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DCAgentState:
    """Standalone collision-detection agent: a fixed rank plus a DC state."""

    rank: int
    dc: DCValue

    def clone(self) -> "DCAgentState":
        dc = self.dc if self.dc is TOP else self.dc.clone()
        return DCAgentState(self.rank, dc)


class DetectCollisionProtocol(PopulationProtocol):
    """``DetectCollision_r`` over fixed ranks, for isolation experiments.

    Clean starts build a *correct* ranking ``1..n`` with ``q_{0,DC}``
    states; adversarial starts (duplicate ranks, scrambled messages) come
    from :mod:`repro.adversary.initializers`.  The goal predicate for
    completeness experiments is "some agent reached ⊤".
    """

    name = "detect-collision"

    def __init__(self, params: ProtocolParams, balance: bool = True, premixed: bool = True):
        self.params = params
        self.n = params.n
        self.partition = RankPartition(params.n, params.r)
        self.balance = balance
        self.premixed = premixed
        self._next_rank = 0

    def initial_state(self) -> DCAgentState:
        """Clean states cycle through ranks 1..n in order."""
        self._next_rank = self._next_rank % self.n + 1
        return self.state_for_rank(self._next_rank)

    def state_for_rank(self, rank: int) -> DCAgentState:
        return DCAgentState(
            rank, initial_dc_state(rank, self.params, self.partition, self.premixed)
        )

    def transition(self, u: DCAgentState, v: DCAgentState, rng: RNG) -> None:
        u.dc, v.dc = detect_collision(
            u.rank, u.dc, v.rank, v.dc, self.params, self.partition, rng,
            balance=self.balance,
        )

    def output(self, state: DCAgentState) -> bool:
        """Output = "error raised"."""
        return state.dc is TOP

    def error_detected(self, config: Sequence[DCAgentState]) -> bool:
        return any(s.dc is TOP for s in config)

    def is_goal_configuration(self, config: Sequence[DCAgentState]) -> bool:
        return self.error_detected(config)


# ---------------------------------------------------------------------------
# Global message-system invariants (used by convergence checks and tests)
# ---------------------------------------------------------------------------


def message_system_consistent(
    pairs: Sequence[tuple[int, DCValue]],
    params: ProtocolParams,
    partition: RankPartition,
) -> bool:
    """Global soundness invariant of the message system.

    Requires: no ⊤ present; ranks distinct; for every rank, every one of
    its message IDs circulates **exactly once** within the group; and every
    circulating message's content matches its governor's observation.  From
    such a configuration ``DetectCollision_r`` can never raise ⊤ (this is
    the workhorse behind Lemma 6.1's safety argument).
    """
    ranks = [rank for rank, _ in pairs]
    if len(set(ranks)) != len(ranks):
        return False
    for _, dc in pairs:
        if dc is TOP or not isinstance(dc, DCState):
            return False

    # Per governed rank: id -> content over every circulating copy, and the
    # number of copies whose id lies in 1..total (ids outside it are never
    # checked).  Every id in 1..total must map to its governor's recorded
    # content, so each has a copy, and exactly ``total`` in-range copies
    # then means exactly one of each.
    held: dict[int, dict[int, int]] = {}
    in_range: dict[int, int] = {}
    group_of = partition.group_of
    for rank, dc in pairs:
        assert isinstance(dc, DCState)
        group = group_of(rank)
        total = params.messages_per_rank(partition.group_size(group))
        for governed, groups in dc.msgs.items():
            if group_of(governed) != group:
                return False  # an agent may only hold its own group's messages
            contents = held.setdefault(governed, {})
            copies = 0
            for content, ids in groups.items():
                contents.update(zip(ids, repeat(content)))
                copies += bisect_right(ids, total) - bisect_left(ids, 1)
            in_range[governed] = in_range.get(governed, 0) + copies

    for governed, governor in pairs:
        assert isinstance(governor, DCState)
        total = params.messages_per_rank(partition.group_size(group_of(governed)))
        if len(governor.observations) != total or in_range.get(governed, 0) != total:
            return False
        contents = held.get(governed, {})
        if list(map(contents.get, range(1, total + 1))) != governor.observations:
            return False
    return True
