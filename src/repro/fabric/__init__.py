"""``repro.fabric`` — distributed sweep orchestration.

Two layers over the sweep engine's deterministic checkpoint format:

* **sharding** (:mod:`repro.fabric.sharding`): hash-partition a grid's
  trial stream into disjoint, covering shards whose checkpoints
  concatenate back to the byte-identical unsharded file;
* **merge** (:mod:`repro.fabric.merge`): validate a complete, disjoint
  shard set and write that unsharded file.

A dead shard worker is recovered by re-running its ``repro sweep --shard
i/k --resume`` and merging again; the merge refuses an incomplete shard.

CLI: ``repro sweep --shard i/k``, ``repro merge``.
"""

from repro.fabric.errors import FabricError
from repro.fabric.merge import MergeReport, merge_checkpoints
from repro.fabric.sharding import parse_shard, shard_grid

__all__ = [
    "FabricError",
    "MergeReport",
    "merge_checkpoints",
    "parse_shard",
    "shard_grid",
]
