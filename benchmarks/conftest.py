"""Shared harness for the experiment benchmarks.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md §4
(the per-experiment index).  Conventions:

* every experiment is a single pytest-benchmark measurement
  (``benchmark.pedantic(..., rounds=1)`` — the experiment itself runs many
  internal trials, so re-running it for timing statistics would be waste);
* the experiment's output table — the paper-shaped rows — is written to
  ``benchmarks/results/<experiment>.txt`` and echoed to the terminal
  (visible with ``-s``; always on disk either way);
* assertions on the *shape* of the results (who wins, growth exponents)
  make the benchmarks double as coarse regression tests.

Run with::

    pytest benchmarks/ --benchmark-only

Two environment knobs control the execution substrate (see
:mod:`repro.sim.parallel`):

* ``REPRO_BENCH_WORKERS`` — worker processes for trial fan-out in every
  ``run_trials``-based experiment (unset or ``0`` = one per CPU; ``1`` =
  sequential).  Results are bit-identical for any worker count; only
  wall-clock changes.
* ``REPRO_BENCH_FAST=1`` — CI smoke mode: experiments that opt in via
  :func:`fast_scaled` trim their sweeps to minutes-scale budgets.

Experiments run on the object engine unless they name another.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Sequence, TypeVar

import pytest

from repro.sim.trials import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def update_perf_summary(experiment: str, payload: dict) -> None:
    """Merge one experiment's summary into ``results/perf-summary.json``.

    The file is a dict keyed by experiment name so each perf gate (the
    array backend's E18, the counts backend's E20, future ones) owns a
    slice without clobbering the others — CI uploads the whole file as
    one artifact.  A pre-merge single-experiment file is migrated under
    its ``experiment`` key; an unreadable file is rebuilt.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "perf-summary.json"
    data: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except ValueError:
            loaded = None
        if isinstance(loaded, dict):
            data = loaded
    if "experiment" in data:  # legacy single-experiment layout
        data = {str(data["experiment"]): data}
    data[experiment] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

#: Worker processes for run_trials fan-out (0/unset = one per CPU).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None

#: CI smoke mode — trimmed sweeps for pre-merge engine-regression checks.
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"

#: No engine that supports a protocol may be this many times slower than
#: its sibling on it (the bound on every reported engine ratio).
PARITY_BOUND = 100.0

T = TypeVar("T")


def fast_scaled(value: T, fast_value: T) -> T:
    """The experiment parameter, or its trimmed variant in smoke mode."""
    return fast_value if FAST else value


@pytest.fixture
def record_table():
    """Write (and echo) an experiment's result table."""

    def _record(experiment: str, rows: Sequence[dict[str, object]], title: str) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = format_table(list(rows), title=title)
        path = RESULTS_DIR / f"{experiment}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")
        return text

    return _record


def run_once(benchmark, fn):
    """Run the experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
