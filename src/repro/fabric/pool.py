"""The lease-based shard pool — an elastic coordinator over providers.

``run_pool`` drives one sharded sweep to a validated, merged checkpoint:

* the grid is written once as a declarative ``grid.json`` artifact, and
  every worker is just ``python -m repro sweep --grid grid.json --shard
  i/k --out shard-i.jsonl --resume`` on some provider — workers hold no
  state the checkpoint does not;
* each shard is a **lease**: the coordinator spawns a worker for it and
  watches the shard checkpoint grow (the file *is* the heartbeat — a
  worker that stops appending for ``lease_timeout`` seconds is presumed
  dead, killed, and its shard re-leased);
* failures degrade gracefully: a dead or timed-out worker's shard is
  requeued with exponential backoff under a capped retry budget, and the
  replacement worker ``--resume``\\ s the partial checkpoint, so work is
  re-leased but never redone — and never double-counted, because shard
  ownership is a pure hash (:mod:`repro.fabric.sharding`) and the merge
  validator (:mod:`repro.fabric.merge`) refuses anything but a disjoint,
  gap-free partition;
* budgets are hard stops (:class:`~repro.fabric.providers.BudgetCaps`):
  an over-budget grid is refused before any worker spawns, and an
  over-time fleet is killed mid-flight;
* the run ends with the canonical unsharded checkpoint at ``out`` (byte-
  identical to a serial ``repro sweep``) plus a JSON run report beside it
  — per-shard attempts, lease events, wall clock, budget — written on
  failure too, so a dead pool leaves a post-mortem.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.fabric.errors import FabricError
from repro.fabric.merge import merge_checkpoints
from repro.fabric.providers import BudgetCaps, LocalWorkerProvider, WorkerProvider
from repro.obs import get_tracer
from repro.sim.backends import get_backend
from repro.sim.sweep import (
    GridSpec,
    ProgressCallback,
    SweepError,
    expand_grid,
    load_checkpoint,
    shard_specs,
)

POOL_REPORT_KIND = "pool-report"
POOL_REPORT_VERSION = 1


@dataclass
class _Lease:
    """One shard currently leased to a live worker."""

    shard: int
    handle: Any
    last_progress: float  # monotonic time of the last checkpoint growth
    last_size: int  # shard checkpoint size at that moment


@dataclass
class PoolResult:
    """A finished pool run: the merged checkpoint and its run report."""

    out: Path
    report_path: Path
    report: dict[str, Any]

    @property
    def ok(self) -> bool:
        return bool(self.report.get("ok"))


def worker_argv(grid_path: Path, shard: int, count: int, shard_path: Path) -> list[str]:
    """The command line one shard worker runs (any provider, any host)."""
    return [
        sys.executable, "-m", "repro", "sweep",
        "--grid", str(grid_path),
        "--shard", f"{shard}/{count}",
        "--out", str(shard_path),
        "--resume", "--no-progress",
    ]


def _count_trials(path: Path) -> int:
    """Completed trial records in a shard checkpoint (cheap newline count)."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0
    return max(0, data.count(b"\n") - 1)  # minus the metadata line


def run_pool(
    grid: GridSpec,
    *,
    out: Union[str, Path],
    workers: int = 2,
    shards: Optional[int] = None,
    lease_timeout: float = 60.0,
    provider: Optional[WorkerProvider] = None,
    max_retries: int = 3,
    backoff: float = 0.5,
    budget: Optional[BudgetCaps] = None,
    workdir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    poll_interval: float = 0.05,
) -> PoolResult:
    """Run ``grid`` as ``shards`` leased shards on up to ``workers`` workers.

    ``shards`` defaults to ``workers`` (one lease per worker slot).
    ``provider`` is the :class:`WorkerProvider` that spawns workers
    (default: a :class:`LocalWorkerProvider`; tests inject chaos
    providers this way).  ``backoff`` is the base of the exponential
    re-lease delay: attempt ``a`` of a shard waits ``backoff * 2**(a-1)``
    seconds after its predecessor failed.
    Raises :class:`FabricError` — after killing the fleet and writing the
    run report — when a shard exhausts ``max_retries`` re-leases or a
    :class:`~repro.fabric.providers.BudgetCaps` limit trips.
    """
    if workers < 1:
        raise FabricError(f"pool needs workers >= 1, got {workers}")
    count = workers if shards is None else shards
    if count < 1:
        raise FabricError(f"pool needs shards >= 1, got {count}")
    if lease_timeout <= 0:
        raise FabricError(f"lease_timeout must be > 0 seconds, got {lease_timeout}")
    if max_retries < 0:
        raise FabricError(f"max_retries must be >= 0, got {max_retries}")
    if backoff < 0:
        raise FabricError(f"backoff must be >= 0 seconds, got {backoff}")
    budget = budget if budget is not None else BudgetCaps()
    pool_provider = provider if provider is not None else LocalWorkerProvider()
    # Lease-lifecycle events stream live into the trace sink (when one is
    # configured) in addition to the post-mortem ``events`` lists in the
    # run report.  A disabled tracer makes every call below a no-op.
    tracer = get_tracer()

    specs = expand_grid(grid)
    if budget.max_trials is not None and len(specs) > budget.max_trials:
        raise FabricError(
            f"grid expands to {len(specs)} trials, over the max_trials="
            f"{budget.max_trials} budget cap; shrink the grid or raise the cap"
        )
    by_cell = get_backend(grid.backend).batch_cells
    owned = {
        index: {spec.index for spec in shard_specs(specs, (index, count), by_cell=by_cell)}
        for index in range(count)
    }

    out_path = Path(out)
    report_path = out_path.with_suffix(".report.json")
    work_path = (
        Path(workdir) if workdir is not None
        else out_path.parent / f"{out_path.stem}-shards"
    )
    work_path.mkdir(parents=True, exist_ok=True)
    grid_path = work_path / "grid.json"
    grid_path.write_text(json.dumps(grid.to_dict(), indent=2) + "\n", encoding="utf-8")

    def shard_file(index: int) -> Path:
        return work_path / f"shard-{index:03d}-of-{count:03d}.jsonl"

    started = time.monotonic()
    pending: list[tuple[int, float]] = [(index, started) for index in range(count)]
    active: dict[int, _Lease] = {}
    completed: set[int] = set()
    attempts = {index: 0 for index in range(count)}
    events: dict[int, list[str]] = {index: [] for index in range(count)}
    live_trials = {index: 0 for index in range(count)}

    def build_report(ok: bool, error: Optional[str] = None) -> dict[str, Any]:
        report: dict[str, Any] = {
            "kind": POOL_REPORT_KIND,
            "version": POOL_REPORT_VERSION,
            "ok": ok,
            "out": str(out_path),
            "workers": workers,
            "shards": count,
            "provider": pool_provider.name,
            "lease_timeout": lease_timeout,
            "max_retries": max_retries,
            "trials": len(specs),
            "budget": budget.to_dict(),
            "wall_seconds": round(time.monotonic() - started, 3),
            "shard_reports": [
                {
                    "shard": index,
                    "trials": len(owned[index]),
                    "attempts": attempts[index],
                    "completed": index in completed,
                    "path": str(shard_file(index)),
                    "events": events[index],
                }
                for index in range(count)
            ],
        }
        if error is not None:
            report["error"] = error
        return report

    def write_report(report: dict[str, Any]) -> None:
        report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    def fail(message: str) -> None:
        for lease in active.values():
            pool_provider.kill(lease.handle)
            tracer.event("pool.lease.kill", shard=lease.shard, reason="pool failure")
        active.clear()
        write_report(build_report(ok=False, error=message))
        raise FabricError(message)

    def emit_progress() -> None:
        if progress is None:
            return
        done = sum(len(owned[index]) for index in completed)
        done += sum(live_trials[index] for index in active)
        progress(min(done, len(specs)), len(specs))

    def verify_shard(index: int) -> Optional[str]:
        path = shard_file(index)
        if not path.exists():
            return "wrote no checkpoint"
        try:
            outcomes, _ = load_checkpoint(path, grid, specs, shard=(index, count))
        except SweepError as error:
            return f"left an invalid checkpoint: {error}"
        missing = owned[index] - set(outcomes)
        if missing:
            return (
                f"left an incomplete checkpoint ({len(missing)} of "
                f"{len(owned[index])} owned trials missing)"
            )
        return None

    def requeue(index: int, reason: str) -> None:
        events[index].append(f"attempt {attempts[index]}: {reason}")
        live_trials[index] = 0
        tracer.event(
            "pool.lease.reclaim", shard=index, attempt=attempts[index], reason=reason
        )
        if attempts[index] > max_retries:
            fail(
                f"shard {index}/{count} failed {attempts[index]} time"
                f"{'s' if attempts[index] != 1 else ''} "
                f"(retry cap {max_retries}); last failure: {reason}"
            )
        delay = backoff * (2 ** (attempts[index] - 1))
        tracer.event("pool.lease.backoff", shard=index, delay_seconds=delay)
        pending.append((index, time.monotonic() + delay))

    emit_progress()
    while len(completed) < count:
        now = time.monotonic()
        if budget.max_seconds is not None and now - started > budget.max_seconds:
            fail(
                f"pool exceeded its max_seconds={budget.max_seconds:g} budget "
                "cap; killed the remaining workers"
            )
        while len(active) < workers:
            claim = next((entry for entry in pending if entry[1] <= now), None)
            if claim is None:
                break
            pending.remove(claim)
            index = claim[0]
            attempts[index] += 1
            path = shard_file(index)
            handle = pool_provider.spawn(
                f"shard-{index}",
                worker_argv(grid_path, index, count, path),
                log_path=work_path / f"shard-{index:03d}-attempt-{attempts[index]}.log",
            )
            size = path.stat().st_size if path.exists() else 0
            active[index] = _Lease(
                shard=index, handle=handle, last_progress=now, last_size=size
            )
            tracer.event("pool.lease.spawn", shard=index, attempt=attempts[index])
        for index in list(active):
            lease = active[index]
            returncode = pool_provider.poll(lease.handle)
            path = shard_file(index)
            if returncode is None:
                size = path.stat().st_size if path.exists() else 0
                if size > lease.last_size:
                    # The growing checkpoint is the heartbeat.
                    lease.last_size = size
                    lease.last_progress = time.monotonic()
                    live_trials[index] = _count_trials(path)
                    tracer.event(
                        "pool.lease.heartbeat", shard=index, trials=live_trials[index]
                    )
                    emit_progress()
                elif time.monotonic() - lease.last_progress > lease_timeout:
                    tracer.event(
                        "pool.lease.stall", shard=index, timeout_seconds=lease_timeout
                    )
                    pool_provider.kill(lease.handle)
                    tracer.event("pool.lease.kill", shard=index, reason="lease timeout")
                    del active[index]
                    requeue(
                        index,
                        f"lease timed out after {lease_timeout:g}s without "
                        "checkpoint progress; worker killed",
                    )
                continue
            del active[index]
            if returncode == 0:
                problem = verify_shard(index)
                if problem is None:
                    live_trials[index] = 0
                    completed.add(index)
                    tracer.event(
                        "pool.lease.complete", shard=index, attempt=attempts[index]
                    )
                    emit_progress()
                else:
                    requeue(index, f"worker exited 0 but {problem}")
            else:
                requeue(index, f"worker exited with code {returncode}")
        if len(completed) < count:
            time.sleep(poll_interval)

    try:
        merge_checkpoints(
            [shard_file(index) for index in range(count)], out_path, grid=grid
        )
    except FabricError as error:
        fail(f"merge of the completed shards failed: {error}")
    report = build_report(ok=True)
    write_report(report)
    return PoolResult(out=out_path, report_path=report_path, report=report)
