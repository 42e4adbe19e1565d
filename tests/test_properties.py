"""Property-based tests (hypothesis) on the core protocol invariants.

These complement the targeted unit tests by searching the input space for
violations of the paper's structural invariants:

* ``BalanceLoad`` conserves messages and balances per-(rank, content)
  holdings (Section 3.1's "the mechanism maintains this invariant"), and
  gives each agent what the per-message Protocol 14 would;
* ``DetectCollision`` never invents or destroys circulating messages;
* randomly scheduled executions of ``ElectLeader_r`` keep every agent's
  state well-formed (role ↔ sub-state consistency);
* the safe set is closed under arbitrary interaction sequences
  (Lemma 6.1, tested on random schedules).
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.initializers import correct_verifier_configuration
from repro.core.detect_collision import balance_load, detect_collision, initial_dc_state
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.partition import RankPartition
from repro.core.state import TOP, DCState
from repro.scheduler.rng import make_rng


def message_multiset(dcs: list[DCState]) -> dict[tuple[int, int], list[int]]:
    """All circulating (rank, id) → contents across the given DC states."""
    seen: dict[tuple[int, int], list[int]] = {}
    for dc in dcs:
        for rank, msg_id, content in dc.held_messages():
            seen.setdefault((rank, msg_id), []).append(content)
    return seen


def flat_view(dc: DCState) -> dict[tuple[int, int], int]:
    """``{(rank, id): content}`` of every message ``dc`` holds."""
    return {(rank, msg_id): content for rank, msg_id, content in dc.held_messages()}


def reference_balance_load(
    u_flat: dict[tuple[int, int], int],
    v_flat: dict[tuple[int, int], int],
    governed_ranks: Sequence[int],
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Protocol 14 message by message over flat ``{(rank, id): content}``
    views, with both running totals counted out: the reference the grouped
    :func:`balance_load` must agree with.  Returns the two agents' new
    views, each keyed in the rank order the agent keeps."""
    u_new: dict[tuple[int, int], int] = {}
    v_new: dict[tuple[int, int], int] = {}
    u_total = 0
    v_total = 0
    for rank in governed_ranks:
        by_content: dict[int, list[int]] = {}
        for (held, msg_id), content in chain(u_flat.items(), v_flat.items()):
            if held == rank:
                by_content.setdefault(content, []).append(msg_id)
        for content in sorted(by_content):
            ids = sorted(by_content[content])
            half = len(ids) // 2
            floor_ids, ceil_ids = ids[:half], ids[half:]
            if u_total > v_total:
                take_u, take_v = floor_ids, ceil_ids
            else:
                take_u, take_v = ceil_ids, floor_ids
            for msg_id in take_u:
                u_new[(rank, msg_id)] = content
            for msg_id in take_v:
                v_new[(rank, msg_id)] = content
            u_total += len(take_u)
            v_total += len(take_v)
    return u_new, v_new


@st.composite
def dc_pair(draw):
    """Two same-group DC states with arbitrary (disjoint) holdings.

    Each rank's contents come from a pool of one to nine values, so
    (rank, content) classes of many messages are common, and either agent
    may keep an empty entry for a rank it holds nothing of.
    """
    n, r = 12, 4
    params = ProtocolParams(n=n, r=r)
    partition = RankPartition(n, r)
    group_ranks = list(partition.group_ranks(0))
    total = params.messages_per_rank(partition.group_size(0))
    sig = params.signature_space(partition.group_size(0))
    u = DCState(observations=[1] * total)
    v = DCState(observations=[1] * total)
    for rank in group_ranks:
        ids = draw(
            st.lists(st.integers(1, total), unique=True, max_size=total)
        )
        owner_bits = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        pool = draw(st.lists(st.integers(1, min(sig, 50)), min_size=1, max_size=9, unique=True))
        for msg_id, to_u in zip(ids, owner_bits):
            content = draw(st.sampled_from(pool))
            target = u if to_u else v
            target.set_content(rank, msg_id, content)
        for dc in (u, v):
            if draw(st.booleans()):
                dc.msgs.setdefault(rank, {})  # an empty rank entry
    return params, partition, u, v


class TestBalanceLoadProperties:
    @given(data=dc_pair())
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_balance(self, data):
        params, partition, u, v = data
        before = message_multiset([u, v])
        balance_load(u, v, list(partition.group_ranks(0)))
        after = message_multiset([u, v])
        # Conservation: exactly the same multiset of (rank, id) → content.
        assert before == after
        # No duplication.
        assert all(len(contents) == 1 for contents in after.values())
        # Per-(rank, content) holdings differ by at most one.
        for rank in partition.group_ranks(0):
            counts_u: dict[int, int] = {}
            counts_v: dict[int, int] = {}
            for held, msg_id, content in u.held_messages():
                if held == rank:
                    counts_u[content] = counts_u.get(content, 0) + 1
            for held, msg_id, content in v.held_messages():
                if held == rank:
                    counts_v[content] = counts_v.get(content, 0) + 1
            for content in set(counts_u) | set(counts_v):
                assert abs(counts_u.get(content, 0) - counts_v.get(content, 0)) <= 1

    @given(data=dc_pair())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_message_reference(self, data):
        """The grouped BalanceLoad gives each agent exactly the messages,
        and keeps exactly the ranks in the order, that Protocol 14 run
        message by message does."""
        params, partition, u, v = data
        governed = list(partition.group_ranks(0))
        u_ref, v_ref = reference_balance_load(flat_view(u), flat_view(v), governed)
        balance_load(u, v, governed)
        assert flat_view(u) == u_ref
        assert flat_view(v) == v_ref
        assert list(u.msgs) == list(dict.fromkeys(rank for rank, _ in u_ref))
        assert list(v.msgs) == list(dict.fromkeys(rank for rank, _ in v_ref))

    @given(data=dc_pair(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_detect_collision_conserves_messages(self, data, seed):
        """Unless ⊤ is raised, DetectCollision permutes message holdings
        and restamps contents but never creates or destroys message IDs."""
        params, partition, u, v = data
        rank_u, rank_v = 1, 2
        before_ids = set(message_multiset([u, v]).keys())
        new_u, new_v = detect_collision(
            rank_u, u, rank_v, v, params, partition, make_rng(seed)
        )
        if new_u is TOP:
            return  # error path: states are replaced wholesale
        after_ids = set(message_multiset([new_u, new_v]).keys())
        assert before_ids == after_ids


class TestExecutionWellFormedness:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_runs_keep_states_consistent(self, seed):
        """Every reachable state populates exactly its role's sub-state."""
        protocol = ElectLeader(ProtocolParams(n=8, r=2))
        config = [protocol.initial_state() for _ in range(8)]
        rng = make_rng(seed)
        schedule_rng = make_rng(seed ^ 0xABCDEF)
        for _ in range(400):
            i = schedule_rng.randrange(8)
            j = schedule_rng.randrange(7)
            if j >= i:
                j += 1
            protocol.transition(config[i], config[j], rng)
            assert all(agent.consistent() for agent in config)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_safe_set_closed_under_random_schedules(self, seed):
        """Lemma 6.1 as a property: random schedules never leave 𝒞_safe."""
        protocol = ElectLeader(ProtocolParams(n=8, r=2))
        config = correct_verifier_configuration(protocol)
        rng = make_rng(seed)
        schedule_rng = make_rng(seed ^ 0x123456)
        for _ in range(300):
            i = schedule_rng.randrange(8)
            j = schedule_rng.randrange(7)
            if j >= i:
                j += 1
            protocol.transition(config[i], config[j], rng)
        assert protocol.is_safe_configuration(config)

    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_verifier_ranks_immutable_without_reset(self, seed, rank):
        """DetectCollision never changes the rank field (Observation 1 of
        Section E.1), here via the full wrapper on a correct ranking."""
        protocol = ElectLeader(ProtocolParams(n=8, r=2))
        config = correct_verifier_configuration(protocol)
        target = config[rank - 1]
        rng = make_rng(seed)
        schedule_rng = make_rng(seed + 1)
        for _ in range(200):
            i = schedule_rng.randrange(8)
            j = schedule_rng.randrange(7)
            if j >= i:
                j += 1
            protocol.transition(config[i], config[j], rng)
        assert target.rank == rank


class TestInitialStateProperties:
    @given(
        n=st.integers(4, 40),
        r_fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_q0_message_allocation_partitions_ids(self, n, r_fraction):
        """q_{0,DC} across a full group: every governed ID appears exactly
        once, blocks are disjoint, and contents are all 1."""
        r = max(1, min(n // 2, 1 + int(r_fraction * (n // 2 - 1)))) if n >= 4 else 1
        params = ProtocolParams(n=n, r=r)
        partition = RankPartition(n, r)
        group_ranks = list(partition.group_ranks(0))
        dcs = [initial_dc_state(rank, params, partition) for rank in group_ranks]
        seen = message_multiset(dcs)
        total = params.messages_per_rank(partition.group_size(0))
        expected = {(rank, msg_id) for rank in group_ranks for msg_id in range(1, total + 1)}
        assert set(seen.keys()) == expected
        assert all(contents == [1] for contents in seen.values())
