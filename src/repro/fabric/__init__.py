"""``repro.fabric`` — distributed sweep orchestration.

Three layers over the sweep engine's deterministic checkpoint format:

* **sharding** (:mod:`repro.fabric.sharding`): hash-partition a grid's
  trial stream into disjoint, covering shards whose checkpoints
  concatenate back to the byte-identical unsharded file;
* **providers** (:mod:`repro.fabric.providers`): the spawn/poll/kill
  lifecycle surface of a worker substrate (local subprocesses by
  default), with hard budget caps;
* **pool** (:mod:`repro.fabric.pool`): the lease-based coordinator —
  shards are leased to workers, heartbeats are checkpoint growth,
  timed-out leases are reclaimed with capped exponential-backoff
  retries, and the run ends in a merge-validated unsharded checkpoint
  plus a JSON run report.

CLI: ``repro sweep --shard i/k``, ``repro merge``, ``repro pool``.
"""

from repro.fabric.errors import FabricError
from repro.fabric.merge import MergeReport, merge_checkpoints
from repro.fabric.pool import PoolResult, run_pool, worker_argv
from repro.fabric.providers import (
    BudgetCaps,
    LocalWorkerProvider,
    WorkerHandle,
    WorkerProvider,
)
from repro.fabric.sharding import format_shard, parse_shard, shard_grid

__all__ = [
    "BudgetCaps",
    "FabricError",
    "LocalWorkerProvider",
    "MergeReport",
    "PoolResult",
    "WorkerHandle",
    "WorkerProvider",
    "format_shard",
    "merge_checkpoints",
    "parse_shard",
    "run_pool",
    "shard_grid",
    "worker_argv",
]
