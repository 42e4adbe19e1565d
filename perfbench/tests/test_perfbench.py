"""The benchmark's own tests: every workload at smoke size, both modes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done


def _result(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        (workload, trace): _result(_run(workload, trace))
        for workload in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(runs, workload, trace):
    record, result = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], (record["failures"], record["problems"])
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert record["environment"]["nproc"] >= 1
    assert record["failed_share"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_its_wall_time(runs, workload):
    record, result = runs[(workload, 1)]
    assert abs(result["metrics"]["trace.unattributed"]["value"]) <= 0.10
    assert not record["warnings"]


def test_exact_counts_repeat_across_runs(runs):
    import layers

    for workload in WORKLOADS:
        first = runs[(workload, 1)][1]["metrics"]
        second = _result(_run(workload, 1))[1]["metrics"]
        for name in layers.EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_spec_matches_the_code():
    import layers
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert SPEC["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in layers.LAYER_METRICS
    ]
    assert all(metric.moves for metric in layers.LAYER_METRICS)


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
