"""Run one benchmark workload and print its metrics (see BENCHMARK.json).

Usage, from the repository root::

    python3 perfbench/run.py --workload elect_faults --seed 1 --seconds 20 --trace 0

The launcher turns ``--seed`` into the workload's inputs, then starts the
measured processes one at a time and waits for each: a few set-up probes
(fresh interpreters timing imports, protocol, table and start state) and
one measuring worker.  Every child gets single-threaded BLAS/OpenMP pools
and the repository's ``src`` on its path; nothing else runs beside them.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the full run record:
environment stamp, raw and reference timings, steal, counts and digests.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pacer

ROOT = Path(__file__).resolve().parent.parent
#: Fresh set-up probes per run, besides the measuring worker's own set-up.
SETUP_PROBES = 5
#: Every child must be done by then: the whole run has 180 seconds.
DEADLINE_S = 170.0
#: Variables that would change what the program does or how many threads
#: it uses; the children get fixed values or none.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)
PROGRAM_VARIABLES = ("REPRO_TRACE", "REPRO_BENCH_BACKEND", "REPRO_BENCH_FAST", "PYTHONPATH")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_environment() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in PROGRAM_VARIABLES}
    env.update({key: "1" for key in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # A fixed mmap threshold stops glibc from moving it after a large
    # free, so arrays of 4 MiB and up always return to the system when
    # freed and peak RSS follows the program's live memory, not the heap
    # layout left behind by earlier allocations.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    return env


def _spawn(arguments: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before a measured process could start")
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), *arguments],
            env=_child_environment(), cwd=ROOT, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a measured process overran the time limit") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"a measured process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _end_to_end(record: dict, probes: list[dict], ok_share: float) -> tuple[dict, list[str]]:
    units = record["units"]
    problems = []
    digests = {unit["digest"] for unit in units}
    if len(digests) > 1:
        problems.append(f"units of one seed produced different outputs: {sorted(digests)}")
    counts = [unit["counts"] for unit in units]
    for key in counts[0]:
        values = sorted({count[key] for count in counts})
        if len(values) > 1:
            problems.append(f"count {key} differs between units: {values}")
    setups = [probe["setup"]["setup_s"] for probe in probes] + [record["setup"]["setup_s"]]
    metrics = {
        "wall_s": {"value": statistics.median(unit["wall_s"] for unit in units), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "ok_share": {"value": ok_share, "unit": "share"},
    }
    return metrics, problems


def _per_layer(record: dict) -> tuple[dict, list[str], list[str]]:
    import layers

    units = record["units"]
    plain = units[0::2]
    traced = units[1::2]
    problems = []
    warnings = []
    for untraced_unit, traced_unit in zip(plain, traced):
        if untraced_unit["digest"] != traced_unit["digest"]:
            problems.append("a traced unit's outputs differ from the untraced unit's")
        trace = traced_unit["layers"]
        for key in ("fault.bursts", "sweep.append_bytes"):
            if key in traced_unit["counts"] and trace[key] != traced_unit["counts"][key]:
                problems.append(
                    f"trace counted {key}={trace[key]}, outputs give "
                    f"{traced_unit['counts'][key]}"
                )
    for key in layers.EXACT_COUNTS:
        values = sorted({unit["layers"][key] for unit in traced})
        if len(values) > 1:
            problems.append(f"count {key} differs between traced units: {values}")
    metrics = {}
    for metric in layers.LAYER_METRICS:
        if metric.name == "trace.overhead":
            traced_wall = statistics.median(unit["wall_s"] for unit in traced)
            plain_wall = statistics.median(unit["wall_s"] for unit in plain)
            value = traced_wall / plain_wall - 1.0
        else:
            value = statistics.median(unit["layers"][metric.name] for unit in traced)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    unattributed = metrics["trace.unattributed"]["value"]
    if abs(unattributed) > 0.10:
        warnings.append(f"layer self times cover {1 - unattributed:.1%} of the traced wall time")
    return metrics, problems, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = json.dumps(workload.make_inputs(args.seed, args.smoke))
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--inputs", inputs, "--workdir", str(workdir)]
    steal_before = pacer.steal_seconds()
    try:
        probes = [] if args.trace else [
            _spawn([*common, "--probe"], deadline) for _ in range(SETUP_PROBES)
        ]
        measure = [*common, "--seconds", str(args.seconds)]
        record = _spawn([*measure, "--trace"] if args.trace else measure, deadline)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after = pacer.steal_seconds()

    units = record["units"]
    attempted = sum(unit["trials"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    failures = [message for unit in units for message in unit["failures"]]
    if args.trace:
        metrics, problems, warnings = _per_layer(record)
    else:
        metrics, problems = _end_to_end(record, probes, 1.0 - failed / attempted)
        warnings = []
    run_record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": json.loads(inputs),
        "environment": record["environment"],
        "steal_s": (
            None if steal_before is None or steal_after is None
            else steal_after - steal_before
        ),
        "setup_samples": [probe["setup"] for probe in probes] + [record["setup"]],
        "units": units,
        "failed_share": failed / attempted,
        "failures": failures[:10],
        "problems": problems,
        "warnings": warnings,
    }
    print(json.dumps(run_record))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
