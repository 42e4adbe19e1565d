"""Unit and property tests for :mod:`repro.core.partition`."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import RankPartition


class TestConstruction:
    def test_group_count(self):
        assert RankPartition(10, 4).group_count == 3
        assert RankPartition(12, 4).group_count == 3
        assert RankPartition(12, 1).group_count == 12

    def test_sizes_sum_to_n(self):
        partition = RankPartition(10, 4)
        assert sum(partition.sizes()) == 10

    def test_sizes_nearly_equal(self):
        partition = RankPartition(10, 4)
        assert set(partition.sizes()) <= {3, 4}

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            RankPartition(10, 0)
        with pytest.raises(ValueError):
            RankPartition(10, 11)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            RankPartition(0, 1)

    def test_r_equals_n(self):
        partition = RankPartition(8, 8)
        assert partition.group_count == 1
        assert partition.group_size(0) == 8


class TestMembership:
    def test_groups_contiguous(self):
        partition = RankPartition(10, 4)
        for group in range(partition.group_count):
            ranks = list(partition.group_ranks(group))
            assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))

    def test_group_of_matches_group_ranks(self):
        partition = RankPartition(13, 5)
        for group in range(partition.group_count):
            for rank in partition.group_ranks(group):
                assert partition.group_of(rank) == group

    def test_position_in_group_one_based(self):
        partition = RankPartition(10, 4)
        for group in range(partition.group_count):
            positions = [partition.position_in_group(r) for r in partition.group_ranks(group)]
            assert positions == list(range(1, partition.group_size(group) + 1))

    def test_same_group(self):
        partition = RankPartition(10, 4)
        assert partition.same_group(1, 2)
        assert not partition.same_group(1, 10)

    def test_rank_out_of_range(self):
        partition = RankPartition(10, 4)
        with pytest.raises(ValueError):
            partition.group_of(0)
        with pytest.raises(ValueError):
            partition.group_of(11)

    @pytest.mark.parametrize("rank", [0, -1, 11])
    def test_same_group_rank_out_of_range(self, rank):
        """Unchecked, rank 0 would read ``_group_of[-1]``: the last group."""
        partition = RankPartition(10, 4)
        with pytest.raises(ValueError):
            partition.same_group(rank, 10)
        with pytest.raises(ValueError):
            partition.same_group(10, rank)


class TestPaperRequirements:
    """Section 3.3: ⌈n/r⌉ groups with sizes in {⌈r/2⌉, ..., r}."""

    @given(
        n=st.integers(min_value=2, max_value=400),
        r_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_group_size_bounds(self, n: int, r_fraction: float):
        r = max(1, min(n, 1 + int(r_fraction * (n - 1))))
        partition = RankPartition(n, r)
        assert partition.group_count == math.ceil(n / r)
        for size in partition.sizes():
            assert size <= r
            # Sizes are ⌊n/g⌋ or ⌈n/g⌉ with g = ⌈n/r⌉, hence > r/2 - 1.
            assert size >= math.ceil(r / 2) - 1
        assert sum(partition.sizes()) == n

    @given(n=st.integers(min_value=2, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_every_rank_in_exactly_one_group(self, n: int):
        r = max(1, n // 3)
        partition = RankPartition(n, r)
        covered = []
        for group in range(partition.group_count):
            covered.extend(partition.group_ranks(group))
        assert sorted(covered) == list(range(1, n + 1))
