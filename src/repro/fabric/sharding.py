"""Deterministic grid sharding — the fabric's partition layer.

The primitives live next to the checkpoint format they are part of
(:mod:`repro.sim.sweep`: :func:`~repro.sim.sweep.shard_of`,
:func:`~repro.sim.sweep.shard_specs`, the shard-tagged metadata line);
this module is the fabric-facing surface over them.  The contract that
everything else builds on:

* shard assignment is a pure function of ``(trial index, shard count)``
  — a splitmix-style hash under a fixed salt — so the ``k`` shards of a
  grid are **disjoint and covering by construction**, on every machine,
  in every process, regardless of enumeration order;
* each shard's checkpoint contains exactly the unsharded run's bytes for
  the trial indices it owns, so :func:`repro.fabric.merge
  .merge_checkpoints` can reconstitute the byte-identical unsharded file;
* on a batch-cell backend whole grid cells are assigned by the hash of
  their first trial index, because a lockstep cell's per-row outcomes
  depend on the full cell membership — splitting a cell across shards
  would change its bytes.
"""

from __future__ import annotations

from repro.fabric.errors import FabricError
from repro.sim.backends import get_backend
from repro.sim.sweep import (
    GridSpec,
    ScenarioSpec,
    Shard,
    SweepError,
    expand_grid,
    shard_specs,
    validate_shard,
)


def parse_shard(text: str) -> Shard:
    """Parse the CLI shard syntax ``"i/k"`` into a validated ``(i, k)`` pair."""
    index_text, separator, count_text = text.partition("/")
    if not separator:
        raise FabricError(f"shard must look like I/K (e.g. 0/4), got {text!r}")
    try:
        shard = (int(index_text), int(count_text))
    except ValueError:
        raise FabricError(f"shard must look like I/K (e.g. 0/4), got {text!r}") from None
    try:
        return validate_shard(shard)
    except SweepError as error:
        raise FabricError(str(error)) from None


def shard_grid(grid: GridSpec, index: int, shards: int) -> list[ScenarioSpec]:
    """The scenario specs shard ``index`` of ``shards`` owns for ``grid``.

    Expansion order is preserved, so a shard's specs (and therefore its
    checkpoint records) appear exactly as they would in the unsharded
    stream.  Cell granularity is chosen from the grid's backend: lockstep
    batch-cell engines shard whole cells, everything else shards single
    trials.
    """
    return shard_specs(
        expand_grid(grid),
        (index, shards),
        by_cell=get_backend(grid.backend).batch_cells,
    )
