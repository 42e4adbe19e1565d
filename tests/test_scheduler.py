"""Tests for the uniform random scheduler and recorded schedules."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.scheduler.rng import derive_seed, make_rng, spawn_rngs
from repro.scheduler.scheduler import RandomScheduler, RecordedSchedule


class TestRNG:
    def test_make_rng_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(9, 2)
        # Streams from different child seeds should diverge immediately.
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_spawn_rngs_reproducible(self):
        first = [rng.random() for rng in spawn_rngs(5, 4)]
        second = [rng.random() for rng in spawn_rngs(5, 4)]
        assert first == second


class TestRandomScheduler:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            RandomScheduler(1, make_rng(0))

    def test_pairs_are_distinct_agents(self):
        scheduler = RandomScheduler(5, make_rng(1))
        for i, j in scheduler.pairs(2000):
            assert i != j
            assert 0 <= i < 5
            assert 0 <= j < 5

    def test_ordered_pair_uniformity(self):
        """All n(n-1) ordered pairs appear with roughly equal frequency."""
        n = 4
        draws = 60_000
        scheduler = RandomScheduler(n, make_rng(2))
        counts = Counter(scheduler.pairs(draws))
        assert len(counts) == n * (n - 1)
        expected = draws / (n * (n - 1))
        for pair, count in counts.items():
            assert abs(count - expected) < 5 * expected**0.5, pair

    def test_determinism_from_seed(self):
        a = list(RandomScheduler(6, make_rng(3)).pairs(50))
        b = list(RandomScheduler(6, make_rng(3)).pairs(50))
        assert a == b


def _randrange_pairs(n: int, seed: int, count: int):
    """``count`` pairs drawn with ``random.Random.randrange``, and its RNG."""
    reference = make_rng(seed)
    pairs = []
    for _ in range(count):
        i = reference.randrange(n)
        j = reference.randrange(n - 1)
        j += j >= i
        pairs.append((i, j))
    return pairs, reference


class TestRandrangeStream:
    """The scheduler inlines ``randrange``'s ``getrandbits`` rejection loop.

    Its pairs and its RNG consumption must equal ``randrange``'s on the
    running Python, at sizes below, at and above powers of two.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 1000, 1024])
    def test_pairs_and_next_pair_match_randrange(self, n, seed):
        count = 500
        expected, reference = _randrange_pairs(n, seed, count)
        rng = make_rng(seed)
        assert list(RandomScheduler(n, rng).pairs(count)) == expected
        assert rng.getstate() == reference.getstate()
        rng = make_rng(seed)
        scheduler = RandomScheduler(n, rng)
        assert [scheduler.next_pair() for _ in range(count)] == expected
        assert rng.getstate() == reference.getstate()


class TestRecordedSchedule:
    def test_record_and_replay(self):
        schedule = RecordedSchedule.record(5, 20, make_rng(4))
        assert len(schedule) == 20
        assert list(schedule) == list(schedule)  # stable on re-iteration

    def test_indexing(self):
        schedule = RecordedSchedule([(0, 1), (2, 3)])
        assert schedule[0] == (0, 1)
        assert schedule[1] == (2, 3)

    def test_rejects_self_interaction(self):
        with pytest.raises(ValueError):
            RecordedSchedule([(1, 1)])
