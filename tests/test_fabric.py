"""Tests for sweep sharding (``repro sweep --shard``) and ``repro merge``.

The headline contract: for any grid and any shard count ``k``, the ``k``
shards are a disjoint, covering, order-stable round-robin partition of
the expanded trial stream (of its cells, on a batch-cell backend), and
merging the ``k`` shard checkpoints reproduces the unsharded checkpoint
byte for byte.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.backends import get_backend
from repro.sim.sweep import (
    CLEAN,
    GridSpec,
    SweepError,
    expand_grid,
    load_grid_file,
    merge_checkpoints,
    parse_shard,
    run_sweep,
    shard_of,
    shard_specs,
    validate_shard,
)


def tiny_grid(**overrides) -> GridSpec:
    """A sub-second grid for shard/merge round-trips."""
    values = dict(
        protocols=("elect_leader",),
        ns=(8, 10),
        rs=(2,),
        adversaries=(CLEAN,),
        fault_rates=(0.0,),
        trials=2,
        seed=7,
        max_interactions=500_000,
        check_interval=500,
    )
    values.update(overrides)
    return GridSpec(**values)


# Grids varied along the axes that change the expansion, not the runtime:
# the partition property never executes a trial.
grids = st.builds(
    tiny_grid,
    protocols=st.sampled_from(
        [("elect_leader",), ("pairwise_elimination",), ("elect_leader", "pairwise_elimination")]
    ),
    ns=st.lists(st.sampled_from([8, 10, 12, 16]), min_size=1, max_size=3, unique=True).map(tuple),
    trials=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)


class TestShardPartition:
    @given(grid=grids, count=st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_shards_partition_the_expansion(self, grid, count):
        specs = expand_grid(grid)
        shards = [shard_specs(specs, (index, count)) for index in range(count)]
        # Each shard preserves expansion order...
        for owned in shards:
            indices = [spec.index for spec in owned]
            assert indices == sorted(indices)
        # ...and together they are disjoint and covering.
        flat = sorted(spec.index for owned in shards for spec in owned)
        assert flat == [spec.index for spec in specs]

    @given(grid=grids, count=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_cell_granular_shards_keep_cells_intact(self, grid, count):
        from repro.sim.sweep import _iter_cells

        specs = expand_grid(grid)
        cell_of = {}
        for cell_id, cell in enumerate(_iter_cells(specs)):
            for spec in cell:
                cell_of[spec.index] = cell_id
        shards = [shard_specs(specs, (index, count), by_cell=True) for index in range(count)]
        flat = sorted(spec.index for owned in shards for spec in owned)
        assert flat == [spec.index for spec in specs]
        # No cell is split across shards.
        for owned in shards:
            for cell_id in {cell_of[spec.index] for spec in owned}:
                members = [index for index, cid in cell_of.items() if cid == cell_id]
                assert all(m in {spec.index for spec in owned} for m in members)

    def test_assignment_is_a_pure_function(self):
        # Round robin: unit i goes to shard i % k, whatever the grid or order.
        for count in range(1, 9):
            assert [shard_of(i, count) for i in range(50)] == [i % count for i in range(50)]

    def test_single_shard_is_the_whole_grid(self):
        specs = expand_grid(tiny_grid())
        assert shard_specs(specs, (0, 1)) == specs
        assert shard_specs(specs, (0, 1), by_cell=True) == specs

    def test_batch_cells_go_round_robin(self):
        """k cells land in k shards, though each cell's trials are a multiple of k."""
        pytest.importorskip("numpy")
        grid = tiny_grid(
            protocols=("pairwise_elimination",), ns=(16, 24, 32, 40), trials=2,
            backend="batch",
        )
        specs = expand_grid(grid)
        by_cell = get_backend(grid.backend).batch_cells
        for index, ns in enumerate([{16, 32}, {24, 40}]):
            owned = shard_specs(specs, (index, 2), by_cell=by_cell)
            assert len(owned) == 4
            assert {spec.n for spec in owned} == ns


class TestShardSyntax:
    def test_parse_format_round_trip(self):
        """The CLI's ``i/k`` spelling parses to its ``(i, k)`` pair."""
        assert parse_shard("2/5") == (2, 5)
        assert parse_shard("0/1") == (0, 1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/4", "1/0", "5/5", "-1/4"])
    def test_parse_rejects_bad_syntax(self, text):
        with pytest.raises(SweepError):
            parse_shard(text)

    def test_validate_shard(self):
        assert validate_shard((0, 1)) == (0, 1)
        for bad in [(1, 1), (-1, 2), (0, 0), "nope"]:
            with pytest.raises(SweepError):
                validate_shard(bad)


def sweep_full_and_shards(grid: GridSpec, tmp_path):
    """The unsharded checkpoint of ``grid`` and its two shard checkpoints."""
    full = tmp_path / "full.jsonl"
    run_sweep(grid, jsonl_path=full)
    shards = []
    for index in range(2):
        path = tmp_path / f"s{index}.jsonl"
        run_sweep(grid, jsonl_path=path, shard=(index, 2))
        shards.append(path)
    return full, shards


class TestShardCheckpoints:
    def test_sharded_meta_records_identity(self, tmp_path):
        path = tmp_path / "s1.jsonl"
        result = run_sweep(tiny_grid(), jsonl_path=path, shard=(1, 2))
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["shard"] == [1, 2]
        assert result.shard == (1, 2)
        assert result.specs == shard_specs(expand_grid(tiny_grid()), (1, 2))

    def test_unsharded_meta_has_no_shard_key(self, tmp_path):
        path = tmp_path / "full.jsonl"
        run_sweep(tiny_grid(), jsonl_path=path)
        meta = json.loads(path.read_text().splitlines()[0])
        assert "shard" not in meta

    def test_resume_rejects_shard_mismatch(self, tmp_path):
        path = tmp_path / "s0.jsonl"
        run_sweep(tiny_grid(), jsonl_path=path, shard=(0, 2))
        with pytest.raises(SweepError, match="shard 0/2 but this run is unsharded"):
            run_sweep(tiny_grid(), jsonl_path=path, resume=True)
        with pytest.raises(SweepError, match="shard 0/2 but this run is shard 1/2"):
            run_sweep(tiny_grid(), jsonl_path=path, resume=True, shard=(1, 2))
        # The matching shard resumes as a no-op.
        before = path.read_bytes()
        resumed = run_sweep(tiny_grid(), jsonl_path=path, resume=True, shard=(0, 2))
        assert resumed.resumed_trials == len(resumed.specs)
        assert path.read_bytes() == before

    def test_shard_records_are_the_unsharded_lines(self, tmp_path):
        """Each shard writes exactly the unsharded run's bytes for its trials."""
        full, shards = sweep_full_and_shards(tiny_grid(), tmp_path)
        full_records = full.read_text().splitlines()[1:]
        sharded_records = [
            record for path in shards for record in path.read_text().splitlines()[1:]
        ]
        assert sorted(sharded_records) == sorted(full_records)


class TestMerge:
    @pytest.fixture()
    def sharded(self, tmp_path):
        grid = tiny_grid()
        full, shards = sweep_full_and_shards(grid, tmp_path)
        return grid, full, shards

    def test_merge_is_byte_identical(self, sharded, tmp_path):
        grid, full, shards = sharded
        out = tmp_path / "merged.jsonl"
        report = merge_checkpoints(shards, out, grid=grid)
        assert out.read_bytes() == full.read_bytes()
        assert report.shards == 2
        assert report.trials == len(expand_grid(grid))
        # Shard order does not matter.
        merge_checkpoints(list(reversed(shards)), out)
        assert out.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize(
        "ns, shard_1_trials",
        [((16,), 0), ((16, 24), 3)],
        ids=["one-cell-empty-shard", "cells-split"],
    )
    def test_batch_cells_merge_byte_identical(self, tmp_path, ns, shard_1_trials):
        """Batch grids shard whole cells; an empty shard merges too."""
        pytest.importorskip("numpy")
        grid = tiny_grid(
            protocols=("pairwise_elimination",), ns=ns, trials=3, backend="batch"
        )
        specs = expand_grid(grid)
        assert len(shard_specs(specs, (1, 2), by_cell=True)) == shard_1_trials
        full, shards = sweep_full_and_shards(grid, tmp_path)
        out = tmp_path / "merged.jsonl"
        report = merge_checkpoints(shards, out, grid=grid)
        assert out.read_bytes() == full.read_bytes()
        assert report.trials == len(specs)

    def test_merge_rejects_duplicate_shard(self, sharded, tmp_path):
        _, _, shards = sharded
        with pytest.raises(SweepError, match="appears twice"):
            merge_checkpoints([shards[0], shards[0]], tmp_path / "out.jsonl")

    def test_merge_rejects_missing_shard(self, sharded, tmp_path):
        _, _, shards = sharded
        with pytest.raises(SweepError, match="needs all 2 shards"):
            merge_checkpoints([shards[0]], tmp_path / "out.jsonl")

    def test_merge_rejects_unsharded_input(self, sharded, tmp_path):
        _, full, shards = sharded
        with pytest.raises(SweepError, match="not a shard checkpoint"):
            merge_checkpoints([shards[0], full], tmp_path / "out.jsonl")

    def test_merge_rejects_incomplete_shard(self, sharded, tmp_path):
        _, _, shards = sharded
        lines = shards[1].read_text().splitlines(keepends=True)
        shards[1].write_text("".join(lines[:-1]))
        with pytest.raises(SweepError, match="incomplete"):
            merge_checkpoints(shards, tmp_path / "out.jsonl")

    def test_dead_shard_resumes_then_merges(self, sharded, tmp_path):
        """A shard cut off mid-record is recovered by resuming it."""
        grid, full, shards = sharded
        data = shards[1].read_bytes()
        shards[1].write_bytes(data[: len(data) - 10])
        out = tmp_path / "out.jsonl"
        with pytest.raises(SweepError, match="incomplete"):
            merge_checkpoints(shards, out)
        run_sweep(grid, jsonl_path=shards[1], resume=True, shard=(1, 2))
        merge_checkpoints(shards, out)
        assert out.read_bytes() == full.read_bytes()

    def test_record_of_another_shard_is_refused(self, sharded, tmp_path):
        """Resume and merge both refuse a shard file holding another shard's record."""
        grid, _, shards = sharded
        stray = shards[1].read_text().splitlines(keepends=True)[1]
        with open(shards[0], "a", encoding="utf-8") as handle:
            handle.write(stray)
        with pytest.raises(SweepError, match="belongs to another shard"):
            run_sweep(grid, jsonl_path=shards[0], resume=True, shard=(0, 2))
        with pytest.raises(SweepError, match="belongs to another shard"):
            merge_checkpoints(shards, tmp_path / "out.jsonl")

    def test_merge_rejects_grid_mismatch(self, sharded, tmp_path):
        grid, _, shards = sharded
        other = tmp_path / "other.jsonl"
        run_sweep(tiny_grid(seed=grid.seed + 1), jsonl_path=other, shard=(1, 2))
        with pytest.raises(SweepError, match="different sweeps cannot merge"):
            merge_checkpoints([shards[0], other], tmp_path / "out.jsonl")

    def test_merge_rejects_empty_input(self, tmp_path):
        with pytest.raises(SweepError, match="nothing to merge"):
            merge_checkpoints([], tmp_path / "out.jsonl")


class TestGridFile:
    def test_round_trip(self, tmp_path):
        grid = tiny_grid()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_dict()))
        loaded = load_grid_file(path)
        assert GridSpec.from_dict(loaded) == grid

    def test_partial_file_is_allowed(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"ns": [8, 12], "trials": 3}')
        assert load_grid_file(path) == {"ns": [8, 12], "trials": 3}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"populations": [8]}')
        with pytest.raises(SweepError, match="unknown grid key 'populations'"):
            load_grid_file(path)

    @pytest.mark.parametrize(
        "payload",
        [
            '{"ns": 8}',  # axis must be a list
            '{"trials": [3]}',  # scalar must not be a list
            '{"ns": [true]}',  # bools are not ints here
            '{"protocols": [8]}',  # wrong element type
            "[]",  # not an object
            "not json",
        ],
    )
    def test_bad_shapes_rejected(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(payload)
        with pytest.raises(SweepError):
            load_grid_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SweepError, match="cannot read grid file"):
            load_grid_file(tmp_path / "absent.json")
