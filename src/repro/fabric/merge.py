"""Validate and merge shard checkpoints back into the unsharded file.

The merge is the fabric's safety net: workers may die, be re-run, or
run twice, but a set of shard files only merges if it is a **disjoint,
gap-free partition** of the grid — every trial index appears exactly
once, in exactly the shard the hash assigns it to.  Anything else (a
missing shard, an incomplete shard, a record owned by another shard —
the double-count signature) is a loud :class:`~repro.fabric.errors
.FabricError` naming the offending file.

A validated merge re-serializes the outcomes through the same canonical
encoder the sweep writer uses, so the output is **byte-identical** to
the checkpoint an unsharded ``repro sweep`` of the same grid writes —
CI holds that equality with ``cmp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.fabric.errors import FabricError
from repro.sim.backends import get_backend
from repro.sim.sweep import (
    GridSpec,
    ScenarioOutcome,
    expand_grid,
    load_checkpoint,
    read_checkpoint_grid,
    shard_specs,
    write_checkpoint,
)


@dataclass(frozen=True)
class MergeReport:
    """What a successful merge covered."""

    out: Path
    shards: int
    trials: int


def _format_indices(indices: Sequence[int], limit: int = 10) -> str:
    """``[0, 3, 7]`` rendered for an error message, elided past ``limit``."""
    shown = ", ".join(str(index) for index in indices[:limit])
    if len(indices) > limit:
        shown += f", ... ({len(indices) - limit} more)"
    return f"[{shown}]"


def merge_checkpoints(
    paths: Sequence[Union[str, Path]],
    out: Union[str, Path],
    *,
    grid: Optional[GridSpec] = None,
) -> MergeReport:
    """Merge a complete set of shard checkpoints into ``out``.

    ``paths`` must be every shard of one sharded sweep (any order).
    Validation is strict — same grid in every file, shard count equal to
    the number of files, indices exactly ``0..k-1``, each file covering
    exactly the trial indices its shard owns — and only then are the
    outcomes written to ``out`` as the canonical unsharded checkpoint.
    ``grid`` (when given) additionally pins the expected grid, catching
    a merge pointed at the wrong run's files.
    """
    shard_paths = [Path(path) for path in paths]
    if not shard_paths:
        raise FabricError("nothing to merge: no shard checkpoints given")
    metas = [read_checkpoint_grid(path) for path in shard_paths]
    merged_grid = grid if grid is not None else metas[0][0]
    count = len(shard_paths)
    seen_shards: dict[int, Path] = {}
    duplicate_shards: dict[int, list[Path]] = {}
    for path, (stored_grid, shard) in zip(shard_paths, metas):
        if stored_grid != merged_grid:
            reference = "the given grid" if grid is not None else str(shard_paths[0])
            raise FabricError(
                f"{path}: checkpoint grid differs from {reference}; "
                "shards of different sweeps cannot merge"
            )
        if shard is None:
            raise FabricError(
                f"{path}: not a shard checkpoint (written without --shard); "
                "merge only combines sharded files"
            )
        index, shard_count = shard
        if shard_count != count:
            raise FabricError(
                f"{path}: written as shard {index}/{shard_count} but {count} "
                f"file{'s were' if count != 1 else ' was'} given; a merge "
                f"needs all {shard_count} shards"
            )
        if index in seen_shards:
            duplicate_shards.setdefault(index, [seen_shards[index]]).append(path)
        else:
            seen_shards[index] = path
    if duplicate_shards:
        listed = _format_indices(sorted(duplicate_shards))
        detail = "; ".join(
            f"shard {index} in " + ", ".join(str(p) for p in duplicate_shards[index])
            for index in sorted(duplicate_shards)
        )
        raise FabricError(
            f"duplicate shard indices {listed}: each appears twice or more "
            f"({detail}); refusing to double-count"
        )
    missing_shards = sorted(set(range(count)) - set(seen_shards))
    if missing_shards:
        raise FabricError(
            f"missing shard indices {_format_indices(missing_shards)}: the "
            f"given files cover only {_format_indices(sorted(seen_shards))} "
            f"of 0..{count - 1}; a merge needs every shard exactly once"
        )

    specs = expand_grid(merged_grid)
    by_cell = get_backend(merged_grid.backend).batch_cells
    merged: dict[int, ScenarioOutcome] = {}
    for path, (_, shard) in zip(shard_paths, metas):
        outcomes, _ = load_checkpoint(path, merged_grid, specs, shard=shard)
        owned = {spec.index for spec in shard_specs(specs, shard, by_cell=by_cell)}
        stray = sorted(set(outcomes) - owned)
        if stray:
            raise FabricError(
                f"{path}: trial record {stray[0]} belongs to another shard — "
                "a worker may have written into the wrong file; "
                "refusing to double-count"
            )
        missing = sorted(owned - set(outcomes))
        if missing:
            raise FabricError(
                f"{path}: shard {shard[0]}/{shard[1]} is incomplete "
                f"(missing trials {_format_indices(missing)}, "
                f"{len(missing)} in total); "
                "resume it with repro sweep --resume before merging"
            )
        merged.update(outcomes)

    # Disjoint + per-shard complete + all shards present => full coverage.
    ordered = [merged[index] for index in range(len(specs))]
    out_path = Path(out)
    write_checkpoint(out_path, merged_grid, ordered)
    return MergeReport(out=out_path, shards=count, trials=len(specs))
