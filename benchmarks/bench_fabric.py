"""E23 — the distributed sweep fabric as a workload.

One grid, three execution paths, one equality gate:

* **serial** — the reference ``run_sweep`` checkpoint;
* **shard+merge** — every shard executed in-process via the fabric's
  deterministic partition, then ``merge_checkpoints`` reconstituting the
  unsharded file;
* **workers=2** — the same ``run_sweep`` fanned out over two worker
  processes.

All three must produce byte-identical checkpoints; the table reports the
wall clock each path paid for them.  This is the benchmark twin of the
CI shard/merge smoke, at experiment scale rather than smoke scale.
"""

from __future__ import annotations


from conftest import fast_scaled, run_once

from repro.fabric import merge_checkpoints, shard_grid
from repro.obs import perf_counter
from repro.sim.sweep import GridSpec, expand_grid, run_sweep

E23_SHARDS = 4

E23_GRID = GridSpec(
    protocols=("elect_leader", "pairwise_elimination"),
    ns=fast_scaled((16, 24, 32), (12, 16)),
    rs=(2, 4),
    adversaries=("clean", "random_soup"),
    fault_rates=(0.0,),
    trials=fast_scaled(5, 2),
    seed=2300,
    max_interactions=fast_scaled(2_000_000, 500_000),
    check_interval=2_000,
)


def test_e23_fabric_shard_merge_workers_identity(benchmark, record_table, tmp_path):
    def experiment():
        rows = []
        trials = len(expand_grid(E23_GRID))

        def timed(label, shards, fn):
            start = perf_counter()
            fn()
            rows.append(
                {
                    "mode": label,
                    "trials": trials,
                    "shards": shards,
                    "wall_s": round(perf_counter() - start, 2),
                }
            )

        serial = tmp_path / "serial.jsonl"
        timed("serial", 1, lambda: run_sweep(E23_GRID, jsonl_path=serial))

        def shard_and_merge():
            paths = []
            for index in range(E23_SHARDS):
                path = tmp_path / f"shard-{index}.jsonl"
                result = run_sweep(E23_GRID, jsonl_path=path, shard=(index, E23_SHARDS))
                assert [spec.index for spec in result.specs] == [
                    spec.index for spec in shard_grid(E23_GRID, index, E23_SHARDS)
                ]
                paths.append(path)
            merge_checkpoints(paths, tmp_path / "merged.jsonl", grid=E23_GRID)

        timed("shard+merge", E23_SHARDS, shard_and_merge)
        assert (tmp_path / "merged.jsonl").read_bytes() == serial.read_bytes()

        parallel = tmp_path / "workers2.jsonl"
        timed("workers=2", 1, lambda: run_sweep(E23_GRID, jsonl_path=parallel, workers=2))
        assert parallel.read_bytes() == serial.read_bytes()
        return rows

    rows = run_once(benchmark, experiment)
    record_table(
        "E23_fabric",
        rows,
        f"E23: fabric identity gate — serial vs {E23_SHARDS}-shard merge vs workers=2 "
        f"({len(expand_grid(E23_GRID))} trials)",
    )
