"""Tests for the lease-based worker pool and its worker providers.

The pool's story is graceful degradation: workers are killed, stalled,
and crashed here via chaos providers (the ``provider=`` parameter takes
an instance precisely for this; it defaults to the local subprocess
provider), and the run must still converge to a
validated merged checkpoint — or fail loudly with a post-mortem report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.fabric import (
    BudgetCaps,
    FabricError,
    LocalWorkerProvider,
    WorkerHandle,
    run_pool,
    worker_argv,
)
from repro.sim.sweep import CLEAN, GridSpec, run_sweep


def pool_grid(**overrides) -> GridSpec:
    values = dict(
        protocols=("elect_leader",),
        ns=(8, 10),
        rs=(2,),
        adversaries=(CLEAN,),
        fault_rates=(0.0,),
        trials=2,
        seed=11,
        max_interactions=500_000,
        check_interval=500,
    )
    values.update(overrides)
    return GridSpec(**values)


class KillFirstProvider(LocalWorkerProvider):
    """SIGKILLs the first worker right after spawning it."""

    name = "chaos-kill-first"

    def __init__(self) -> None:
        self.spawned = 0

    def spawn(
        self,
        worker_id: str,
        argv: Sequence[str],
        *,
        log_path: Optional[Path] = None,
    ) -> WorkerHandle:
        handle = super().spawn(worker_id, argv, log_path=log_path)
        self.spawned += 1
        if self.spawned == 1:
            handle.process.kill()
        return handle


class StallFirstProvider(LocalWorkerProvider):
    """Replaces the first worker with a sleeper that never writes."""

    name = "chaos-stall-first"

    def __init__(self) -> None:
        self.spawned = 0

    def spawn(
        self,
        worker_id: str,
        argv: Sequence[str],
        *,
        log_path: Optional[Path] = None,
    ) -> WorkerHandle:
        self.spawned += 1
        if self.spawned == 1:
            argv = [sys.executable, "-c", "import time; time.sleep(600)"]
        return super().spawn(worker_id, argv, log_path=log_path)


class AlwaysKillProvider(KillFirstProvider):
    """Every worker dies immediately — no pool can make progress."""

    name = "chaos-kill-all"

    def spawn(
        self,
        worker_id: str,
        argv: Sequence[str],
        *,
        log_path: Optional[Path] = None,
    ) -> WorkerHandle:
        handle = LocalWorkerProvider.spawn(self, worker_id, argv, log_path=log_path)
        handle.process.kill()
        return handle


class TestPool:
    def test_pool_matches_serial_sweep(self, tmp_path):
        grid = pool_grid()
        reference = tmp_path / "reference.jsonl"
        run_sweep(grid, jsonl_path=reference)
        out = tmp_path / "pool.jsonl"
        result = run_pool(grid, out=out, workers=2, backoff=0.0)
        assert result.ok
        assert out.read_bytes() == reference.read_bytes()
        report = json.loads(result.report_path.read_text())
        assert report == result.report
        assert report["kind"] == "pool-report"
        assert report["shards"] == 2 and report["provider"] == "local"
        assert all(shard["completed"] for shard in report["shard_reports"])

    def test_killed_worker_is_re_leased(self, tmp_path):
        grid = pool_grid()
        reference = tmp_path / "reference.jsonl"
        run_sweep(grid, jsonl_path=reference)
        out = tmp_path / "pool.jsonl"
        provider = KillFirstProvider()
        result = run_pool(grid, out=out, workers=2, backoff=0.0, provider=provider)
        assert result.ok
        assert out.read_bytes() == reference.read_bytes()
        # One shard needed a second attempt, and the report says why.
        attempts = [shard["attempts"] for shard in result.report["shard_reports"]]
        assert sorted(attempts) == [1, 2]
        events = [e for shard in result.report["shard_reports"] for e in shard["events"]]
        assert any("exited with code" in event for event in events)
        assert provider.spawned == 3

    def test_stalled_lease_times_out_and_recovers(self, tmp_path):
        grid = pool_grid(ns=(8,))
        out = tmp_path / "pool.jsonl"
        result = run_pool(
            grid,
            out=out,
            workers=1,
            backoff=0.0,
            lease_timeout=2.0,
            poll_interval=0.02,
            provider=StallFirstProvider(),
        )
        assert result.ok
        events = [e for shard in result.report["shard_reports"] for e in shard["events"]]
        assert any("lease timed out" in event for event in events)

    def test_retry_cap_fails_loudly_with_report(self, tmp_path):
        grid = pool_grid(ns=(8,))
        out = tmp_path / "pool.jsonl"
        with pytest.raises(FabricError, match="retry cap"):
            run_pool(
                grid,
                out=out,
                workers=1,
                backoff=0.0,
                max_retries=1,
                provider=AlwaysKillProvider(),
            )
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["ok"] is False
        assert "retry cap" in report["error"]
        assert not out.exists()

    def test_max_trials_budget_refuses_before_spawning(self, tmp_path):
        grid = pool_grid()  # expands to 4 trials
        provider = KillFirstProvider()
        with pytest.raises(FabricError, match="max_trials"):
            run_pool(
                grid,
                out=tmp_path / "pool.jsonl",
                budget=BudgetCaps(max_trials=3),
                provider=provider,
            )
        assert provider.spawned == 0

    def test_max_seconds_budget_kills_the_fleet(self, tmp_path):
        grid = pool_grid(ns=(8,))
        out = tmp_path / "pool.jsonl"

        class StallAllProvider(StallFirstProvider):
            def spawn(self, worker_id, argv, *, log_path=None):
                argv = [sys.executable, "-c", "import time; time.sleep(600)"]
                return LocalWorkerProvider.spawn(self, worker_id, argv, log_path=log_path)

        with pytest.raises(FabricError, match="max_seconds"):
            run_pool(
                grid,
                out=out,
                workers=1,
                lease_timeout=600.0,
                poll_interval=0.02,
                budget=BudgetCaps(max_seconds=0.3),
                provider=StallAllProvider(),
            )
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["ok"] is False and "max_seconds" in report["error"]

    def test_progress_reports_monotonic_completion(self, tmp_path):
        grid = pool_grid(ns=(8,))
        seen: list[tuple[int, int]] = []
        result = run_pool(
            grid,
            out=tmp_path / "pool.jsonl",
            workers=1,
            backoff=0.0,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert result.ok
        assert seen[-1] == (len(grid.ns) * grid.trials, len(grid.ns) * grid.trials)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones)

    def test_bad_parameters_rejected(self, tmp_path):
        grid = pool_grid()
        out = tmp_path / "pool.jsonl"
        for kwargs in [
            {"workers": 0},
            {"shards": 0},
            {"lease_timeout": 0},
            {"max_retries": -1},
            {"backoff": -1.0},
        ]:
            with pytest.raises(FabricError):
                run_pool(grid, out=out, **kwargs)


class TestWorkerArgv:
    def test_worker_is_a_stateless_resumable_sweep(self, tmp_path):
        argv = worker_argv(tmp_path / "grid.json", 1, 4, tmp_path / "s1.jsonl")
        assert argv[0] == sys.executable
        assert argv[1:3] == ["-m", "repro"]
        assert "--shard" in argv and argv[argv.index("--shard") + 1] == "1/4"
        assert "--resume" in argv and "--no-progress" in argv


class TestProviders:
    def test_budget_caps_validate(self):
        assert BudgetCaps().to_dict() == {"max_seconds": None, "max_trials": None}
        with pytest.raises(FabricError):
            BudgetCaps(max_seconds=0)
        with pytest.raises(FabricError):
            BudgetCaps(max_trials=0)
