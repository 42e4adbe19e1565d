"""Tests for ``DetectCollision_r`` (Section 5.1, Lemma E.1)."""

from __future__ import annotations

from repro.core.detect_collision import (
    DetectCollisionProtocol,
    balance_load,
    check_message_consistency,
    detect_collision,
    has_duplicate_message,
    initial_dc_state,
    message_block,
    message_system_consistent,
    update_messages,
)
from repro.core.params import ProtocolParams
from repro.core.partition import RankPartition
from repro.core.state import TOP, DCState
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.simulation import Simulation


def setup(n: int = 12, r: int = 3) -> tuple[ProtocolParams, RankPartition]:
    params = ProtocolParams(n=n, r=r)
    return params, RankPartition(n, r)


def holding(*messages: tuple[int, int, int], like: DCState | None = None) -> DCState:
    """A DC state holding exactly the given ``(rank, id, content)`` messages,
    with ``like``'s signature, counter and observations if given."""
    dc = DCState() if like is None else DCState(
        signature=like.signature, counter=like.counter, observations=list(like.observations)
    )
    for rank, msg_id, content in messages:
        dc.set_content(rank, msg_id, content)
    return dc


def held_of(dc: DCState, rank: int) -> list[tuple[int, int]]:
    """``(id, content)`` of each message of ``rank`` that ``dc`` holds, by id."""
    return [(msg_id, content) for held, msg_id, content in dc.held_messages() if held == rank]


class TestMessageBlock:
    def test_blocks_partition_ids(self):
        for group_size, total in [(1, 8), (3, 18), (4, 32), (5, 17)]:
            covered = []
            for position in range(1, group_size + 1):
                covered.extend(message_block(position, group_size, total))
            assert sorted(covered) == list(range(1, total + 1))

    def test_blocks_nearly_equal(self):
        sizes = [len(message_block(p, 5, 17)) for p in range(1, 6)]
        assert max(sizes) - min(sizes) <= 1


class TestInitialState:
    def test_initial_contents_all_one(self):
        params, partition = setup()
        dc = initial_dc_state(1, params, partition)
        assert dc.signature == 1
        assert dc.counter == 1
        assert all(v == 1 for v in dc.observations)
        assert all(content == 1 for _, _, content in dc.held_messages())

    def test_initial_state_holds_block_for_every_group_rank(self):
        params, partition = setup()
        dc = initial_dc_state(2, params, partition)
        group = partition.group_of(2)
        assert {rank for rank, _, _ in dc.held_messages()} == set(partition.group_ranks(group))

    def test_clean_group_is_globally_consistent(self):
        params, partition = setup()
        pairs = [(rank, initial_dc_state(rank, params, partition)) for rank in range(1, 13)]
        assert message_system_consistent(pairs, params, partition)

    def test_own_held_messages_match_observations(self):
        """The paper's state-space restriction holds at q0."""
        params, partition = setup()
        for rank in range(1, 13):
            dc = initial_dc_state(rank, params, partition)
            for msg_id, content in held_of(dc, rank):
                assert content == dc.observations[msg_id - 1]


class TestObviousCollisions:
    def test_same_rank_raises_top(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(1, params, partition)
        new_a, new_b = detect_collision(1, a, 1, b, params, partition, rng)
        assert new_a is TOP and new_b is TOP

    def test_duplicate_message_raises_top(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        # Plant a copy of one of a's held messages into b.
        msg_id, content = held_of(a, 1)[0]
        assert not b.holds(1, msg_id)
        b.set_content(1, msg_id, content)
        new_a, new_b = detect_collision(1, a, 2, b, params, partition, rng)
        assert new_a is TOP and new_b is TOP

    def test_has_duplicate_message_helper(self):
        a = holding((1, 1, 5))
        b = holding((1, 1, 9))
        c = holding((1, 2, 9))
        assert has_duplicate_message(a, b)
        assert not has_duplicate_message(a, c)

    def test_cross_group_interaction_is_noop(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(12, params, partition)
        assert not partition.same_group(1, 12)
        snapshot = (a.clone(), b.clone())
        new_a, new_b = detect_collision(1, a, 12, b, params, partition, rng)
        assert new_a is a and new_b is b
        assert a == snapshot[0] and b == snapshot[1]

    def test_top_inputs_absorbing(self, rng):
        params, partition = setup()
        b = initial_dc_state(2, params, partition)
        new_a, new_b = detect_collision(1, TOP, 2, b, params, partition, rng)
        assert new_a is TOP
        assert new_b is b


class TestConsistencyCheck:
    def test_conflicting_content_detected(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        # b carries a message governed by rank 1 whose content disagrees
        # with rank-1's observation.
        msg_id = held_of(b, 1)[0][0]
        b.set_content(1, msg_id, 999)
        new_a, new_b = detect_collision(1, a, 2, b, params, partition, rng)
        assert new_a is TOP and new_b is TOP

    def test_check_helper_direct(self):
        owner = DCState(observations=[5, 5])
        other = holding((3, 1, 5), (3, 2, 7))
        assert check_message_consistency(3, owner, other)
        other_ok = holding((3, 1, 5), (3, 2, 5))
        assert not check_message_consistency(3, owner, other_ok)

    def test_check_ignores_messages_of_other_ranks(self):
        owner = DCState(observations=[5])
        other = holding((4, 1, 999))
        assert not check_message_consistency(3, owner, other)


class TestUpdateMessages:
    def test_restamps_partner_messages(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        a.signature = 77
        update_messages(1, a, b, partition.group_size(0), params, rng)
        carried = held_of(b, 1)
        assert carried
        for msg_id, content in carried:
            assert content == 77
            assert a.observations[msg_id - 1] == 77

    def test_signature_refresh_on_schedule(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        group_size = partition.group_size(0)
        period = params.signature_period(group_size)
        a.counter = period - 1
        update_messages(1, a, b, group_size, params, rng)
        assert a.counter == 1  # refreshed and reset
        # Own held messages and their observations now match the signature.
        own_held = held_of(a, 1)
        assert own_held
        for msg_id, content in own_held:
            assert content == a.signature
            assert a.observations[msg_id - 1] == a.signature

    def test_counter_increments_between_refreshes(self, rng):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        a.counter = 1
        update_messages(1, a, b, partition.group_size(0), params, rng)
        assert a.counter == 2


class TestBalanceLoad:
    def test_conserves_messages(self):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        before = {}
        for dc in (a, b):
            for rank, msg_id, content in dc.held_messages():
                before[(rank, msg_id)] = content
        balance_load(a, b, list(partition.group_ranks(0)))
        after = {}
        for dc in (a, b):
            for rank, msg_id, content in dc.held_messages():
                assert (rank, msg_id) not in after, "message duplicated"
                after[(rank, msg_id)] = content
        assert before == after

    def test_per_content_holdings_within_one(self):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        balance_load(a, b, list(partition.group_ranks(0)))
        for rank in partition.group_ranks(0):
            by_content_a: dict[int, int] = {}
            by_content_b: dict[int, int] = {}
            for msg_id, content in held_of(a, rank):
                by_content_a[content] = by_content_a.get(content, 0) + 1
            for msg_id, content in held_of(b, rank):
                by_content_b[content] = by_content_b.get(content, 0) + 1
            for content in set(by_content_a) | set(by_content_b):
                diff = abs(by_content_a.get(content, 0) - by_content_b.get(content, 0))
                assert diff <= 1

    def test_balances_clumped_holdings(self):
        params, partition = setup()
        a = initial_dc_state(1, params, partition)
        b = initial_dc_state(2, params, partition)
        # Give a everything b holds (disjoint blocks, so no duplicates).
        for rank, msg_id, content in b.held_messages():
            a.set_content(rank, msg_id, content)
        b.msgs = {}
        total = a.held_count()
        balance_load(a, b, list(partition.group_ranks(0)))
        assert abs(a.held_count() - b.held_count()) <= a.held_count() + b.held_count()
        assert a.held_count() + b.held_count() == total
        # Both sides end with roughly half.
        group_size = len(list(partition.group_ranks(0)))
        assert min(a.held_count(), b.held_count()) >= total // 2 - group_size


class TestSoundness:
    def test_no_false_positive_long_run(self):
        """Lemma E.1(a) empirically: from q0 on a correct ranking, no ⊤
        over a long random execution (several seeds)."""
        params = ProtocolParams(n=12, r=3)
        protocol = DetectCollisionProtocol(params)
        for seed in range(3):
            config = [protocol.state_for_rank(rank) for rank in range(1, 13)]
            sim = Simulation(protocol, config=config, seed=seed)
            sim.run(30_000)
            assert not protocol.error_detected(sim.config)

    def test_consistency_invariant_preserved(self):
        """The global message-system invariant survives random execution."""
        params = ProtocolParams(n=12, r=4)
        protocol = DetectCollisionProtocol(params)
        config = [protocol.state_for_rank(rank) for rank in range(1, 13)]
        sim = Simulation(protocol, config=config, seed=77)
        for _ in range(20):
            sim.run(1_000)
            pairs = [(s.rank, s.dc) for s in sim.config]
            assert message_system_consistent(pairs, params, protocol.partition)


class TestCompleteness:
    def test_duplicate_rank_detected(self):
        """Lemma E.1(b): a duplicated rank yields ⊤, from clean DC states."""
        params = ProtocolParams(n=12, r=3)
        protocol = DetectCollisionProtocol(params)
        config = [protocol.state_for_rank(rank) for rank in range(1, 13)]
        config[0] = protocol.state_for_rank(2)  # ranks: two 2s, no 1
        sim = Simulation(protocol, config=config, seed=13)
        result = sim.run_until(
            protocol.error_detected, max_interactions=500_000, check_interval=50
        )
        assert result.converged

    def test_duplicate_rank_detected_with_scrambled_states(self):
        """Robust completeness: detection works from adversarial DC states."""
        params = ProtocolParams(n=12, r=3)
        protocol = DetectCollisionProtocol(params)
        rng = make_rng(4)
        config = [protocol.state_for_rank(rank) for rank in range(1, 13)]
        config[5] = protocol.state_for_rank(3)
        # Scramble signatures and observations arbitrarily.
        for agent in config:
            assert agent.dc is not TOP
            agent.dc.signature = rng.randrange(1, 100)
            agent.dc.counter = rng.randrange(1, 5)
        sim = Simulation(protocol, config=config, seed=29)
        result = sim.run_until(
            protocol.error_detected, max_interactions=500_000, check_interval=50
        )
        assert result.converged

    def test_detection_across_seeds(self):
        """All of 10 seeded duplicate-rank runs must detect (w.h.p. claim)."""
        params = ProtocolParams(n=12, r=4)
        protocol = DetectCollisionProtocol(params)
        detected = 0
        for trial in range(10):
            config = [protocol.state_for_rank(rank) for rank in range(1, 13)]
            config[3] = protocol.state_for_rank(5)
            sim = Simulation(protocol, config=config, seed=derive_seed(31, trial))
            result = sim.run_until(
                protocol.error_detected, max_interactions=500_000, check_interval=100
            )
            detected += bool(result.converged)
        assert detected == 10


# ---------------------------------------------------------------------------
# The safe check against its per-message reference
# ---------------------------------------------------------------------------


def reference_message_system_consistent(pairs, params, partition) -> bool:
    """The message-system invariant checked copy by copy over each agent's
    flat ``(rank, id, content)`` holdings: the reference the grouped
    :func:`message_system_consistent` must agree with on every input."""
    ranks = [rank for rank, _ in pairs]
    if len(set(ranks)) != len(ranks):
        return False
    by_rank: dict[int, DCState] = {}
    for rank, dc in pairs:
        if dc is TOP or not isinstance(dc, DCState):
            return False
        by_rank[rank] = dc
    seen: dict[tuple[int, int], list[int]] = {}
    for rank, dc in pairs:
        for governed, msg_id, content in dc.held_messages():
            if not partition.same_group(governed, rank):
                return False
            seen.setdefault((governed, msg_id), []).append(content)
    for governed, governor in by_rank.items():
        total = params.messages_per_rank(partition.group_size(partition.group_of(governed)))
        if len(governor.observations) != total:
            return False
        for msg_id in range(1, total + 1):
            copies = seen.get((governed, msg_id), [])
            if len(copies) != 1 or copies[0] != governor.observations[msg_id - 1]:
                return False
    return True


class TestSafeCheckMatchesReference:
    """``message_system_consistent`` returns the per-message check's boolean."""

    def elect_setup(self):
        from repro.core.elect_leader import ElectLeader

        protocol = ElectLeader(ProtocolParams(n=24, r=4))
        return protocol, protocol.params, protocol.partition

    @staticmethod
    def verifier_pairs(config):
        return [(agent.rank, agent.sv.dc) for agent in config if agent.sv is not None]

    def agree(self, pairs, params, partition) -> bool:
        expected = reference_message_system_consistent(pairs, params, partition)
        assert message_system_consistent(pairs, params, partition) == expected
        return expected

    def test_clean_configuration_and_every_adversary(self):
        from repro.adversary.initializers import ADVERSARIES, correct_verifier_configuration

        protocol, params, partition = self.elect_setup()
        clean = self.verifier_pairs(correct_verifier_configuration(protocol))
        assert self.agree(clean, params, partition)
        for name in sorted(ADVERSARIES):
            config = ADVERSARIES[name](protocol, make_rng(derive_seed(5, len(name))))
            self.agree(self.verifier_pairs(config), params, partition)

    def test_configurations_after_random_runs(self):
        from repro.adversary.initializers import ADVERSARIES

        protocol, params, partition = self.elect_setup()
        verdicts = []
        for index, name in enumerate(sorted(ADVERSARIES)):
            config = ADVERSARIES[name](protocol, make_rng(index))
            sim = Simulation(protocol, config=config, seed=derive_seed(9, index))
            # Through the reset, re-ranking and verification that follow.
            for _ in range(24):
                sim.run(250)
                pairs = self.verifier_pairs(sim.config)
                if pairs:
                    verdicts.append(self.agree(pairs, params, partition))
        assert 0 < verdicts.count(False) < len(verdicts)
        # Soft resets on a correct ranking: fresh and old message systems
        # mix while every rank stays distinct.
        for index, name in enumerate(["corrupted_messages", "scrambled_observations"]):
            config = ADVERSARIES[name](protocol, make_rng(index))
            for agent in config:
                agent.sv.probation_timer = 0
            sim = Simulation(protocol, config=config, seed=index)
            verdicts = []
            for _ in range(30):
                sim.run(50)
                pairs = self.verifier_pairs(sim.config)
                assert sorted(rank for rank, _ in pairs) == list(range(1, 25))
                verdicts.append(self.agree(pairs, params, partition))
            assert 0 < verdicts.count(False) < len(verdicts)

    def test_hand_built_cases(self):
        from repro.adversary.initializers import correct_verifier_configuration

        protocol, params, partition = self.elect_setup()
        # Mix the messages first, so agents hold several contents per rank.
        sim = Simulation(protocol, config=correct_verifier_configuration(protocol), seed=3)
        sim.run(4_000)
        base = self.verifier_pairs(sim.config)
        assert [rank for rank, _ in base] == list(range(1, 25))
        assert self.agree(base, params, partition)
        total = params.messages_per_rank(partition.group_size(0))

        def content(msg_id):
            """Rank 1's recorded content for its message ``msg_id``."""
            return base[0][1].observations[msg_id - 1]

        def holder(msg_id, holds=True):
            """An agent of rank 1's group that holds (or not) ``(1, msg_id)``."""
            return next(i for i in range(4) if base[i][1].holds(1, msg_id) == holds)

        def case(*edits):
            """``base`` with, per ``(agent index, added, dropped)`` edit,
            ``added`` messages held and ``dropped`` ``(rank, id)`` removed."""
            pairs = [(rank, dc.clone()) for rank, dc in base]
            for index, added, dropped in edits:
                rank, dc = pairs[index]
                kept = [m for m in dc.held_messages() if m[:2] not in dropped]
                pairs[index] = (rank, holding(*kept, *added, like=dc))
            return pairs

        a, b = holder(1), holder(1, holds=False)
        short = [(rank, dc.clone()) for rank, dc in base]
        short[0][1].observations.pop()
        cases = {
            "in-range id held twice": (case((b, [(1, 1, content(1))], ())), False),
            "out-of-range id held twice": (
                case((a, [(1, total + 1, 7)], ()), (b, [(1, total + 1, 7)], ())), True
            ),
            "lone out-of-range id": (case((b, [(2, total + 5, 3)], ())), True),
            "missing id": (case((a, (), {(1, 1)})), False),
            "id held twice, another missing": (
                case((a, (), {(1, 1)}), (holder(2, holds=False), [(1, 2, content(2))], ())),
                False,
            ),
            "flipped content": (case((a, [(1, 1, content(1) + 1)], {(1, 1)})), False),
            "short observation list": (short, False),
            "message held outside its group": (case((b, [(24, 1, 1)], ())), False),
        }
        for name, (pairs, expected) in cases.items():
            assert self.agree(pairs, params, partition) == expected, name
