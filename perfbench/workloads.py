"""The benchmark's workloads: inputs from a seed, set-up, one unit, checks.

Each :class:`Workload` is four steps, split so the harness can time them
apart:

* ``make_inputs(seed, smoke)`` runs in the launcher, never in the measured
  process: it turns the ``--seed`` into plain-JSON inputs (the program
  receives only those);
* ``prepare(inputs, workdir)`` is the set-up a user pays once: building
  the protocol, its transition table and the start state;
* ``run(ready)`` is one unit of the workload's fixed work, the thing
  ``wall_s`` times;
* ``check(inputs, ready, output)`` turns the unit's output into a
  :class:`UnitResult`: trials attempted, the ones that failed an output
  check, exact counts that must repeat, and a digest of the outputs.

Output checks use bands implied by the protocol's law (or exact
schedules), never one recorded run, so a sampler change that keeps the
law still passes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.params import ProtocolParams
from repro.core.propagate_reset import ResetEpidemicProtocol
from repro.scheduler.rng import derive_seed
from repro.sim import sweep, trials
from repro.sim.array_backend import transition_table_for
from repro.sim.backends import make_simulation
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.initial_state import CountVector, Replicated
from repro.sim.sweep import PROTOCOLS, GridSpec, _fault_spec, expand_grid
from repro.substrates.epidemics import EpidemicProtocol


@dataclass
class UnitResult:
    """What one unit produced, as the harness compares and reports it."""

    trials: int
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Reference-kernel style matching the workload's code (see pacer).
    kernel: str
    make_inputs: Callable[[int, bool], dict]
    prepare: Callable[[dict, Path], Any]
    run: Callable[[Any], Any]
    check: Callable[[dict, Any, Any], UnitResult]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sweep workloads (elect_faults, batch_wide): fault cells at full budget
# ---------------------------------------------------------------------------


class _IdleEngine:
    """An engine that does nothing, to replay a fault schedule alone."""

    def run_batch(self, count: int) -> None:
        return None

    def apply_fault(self, model, burst_size: int, generator) -> None:
        return None

    def predicate_holds(self, predicate) -> bool:
        return True


@functools.lru_cache(maxsize=None)
def _protocol(name: str, n: int, r: int):
    return PROTOCOLS[name].build(n, r)[0]


def burst_schedule(spec) -> list[int]:
    """Interaction indices at which ``spec``'s fault bursts fire.

    Replays the spec's own fault streams through a
    :class:`~repro.sim.fault_engine.FaultEngine` driving an idle engine, so
    the expectation is independent of the engine under test (the schedule
    is a pure function of the spec's seed on every backend).
    """
    protocol = _protocol(spec.protocol, spec.n, spec.r)
    engine = _fault_spec(spec).make_engine(protocol, n=spec.n)
    engine.measure_availability(
        _IdleEngine(), None,
        total_interactions=spec.max_interactions,
        checkpoint_every=spec.max_interactions,
    )
    return [event.interaction for event in engine.events]


def _sweep_inputs(grids: list[GridSpec]) -> dict:
    return {
        "grids": [grid.to_dict() for grid in grids],
        "bursts": [
            [len(burst_schedule(spec)) for spec in expand_grid(grid)] for grid in grids
        ],
    }


def _sweep_prepare(inputs: dict, workdir: Path) -> list[tuple[GridSpec, Path]]:
    return [
        (GridSpec.from_dict(grid), workdir / f"sweep-{index}.jsonl")
        for index, grid in enumerate(inputs["grids"])
    ]


def _sweep_run(ready: list[tuple[GridSpec, Path]]) -> list:
    return [
        sweep.run_sweep(grid, workers=1, jsonl_path=path, force=True)
        for grid, path in ready
    ]


def _sweep_check(
    inputs: dict, ready: list[tuple[GridSpec, Path]], results: list,
    availability_band: tuple[float, float],
) -> UnitResult:
    """Fault cells: full budget, the scheduled bursts, availability in band."""
    unit = UnitResult(trials=0)
    digests = []
    interactions = bursts = append_bytes = 0
    low, high = availability_band
    for (grid, path), result, expected in zip(ready, results, inputs["bursts"]):
        data = path.read_bytes()
        digests.append(_sha(data))
        append_bytes += len(data)
        checkpoints = math.ceil(grid.max_interactions / grid.check_interval)
        for outcome, want in zip(result.outcomes, expected):
            unit.trials += 1
            interactions += outcome.interactions
            bursts += outcome.fault_bursts
            where = f"trial {outcome.index} (n={outcome.n}, r={outcome.r})"
            # A full budget is every checkpoint: availability counts them.
            available = outcome.availability * checkpoints
            if outcome.interactions != grid.max_interactions or (
                abs(available - round(available)) > 1e-3
            ):
                unit.failures.append(f"{where}: did not run its full budget")
            elif outcome.fault_bursts != want:
                unit.failures.append(
                    f"{where}: {outcome.fault_bursts} bursts, schedule gives {want}"
                )
            elif not low <= outcome.availability <= high:
                unit.failures.append(
                    f"{where}: availability {outcome.availability} outside [{low}, {high}]"
                )
        if len(result.outcomes) != len(expected):
            unit.failures.append(f"{path.name}: {len(result.outcomes)} outcomes, "
                                 f"grid has {len(expected)}")
    unit.counts = {
        "interactions": interactions,
        "fault.bursts": bursts,
        "sweep.append_bytes": append_bytes,
    }
    unit.digest = "+".join(digests)
    return unit


# -- elect_faults -----------------------------------------------------------

#: n=128, r ∈ {8, 16}: one clean-start trial per r, run for its full
#: budget.  Stabilization takes ~26k (r=16) to ~38k (r=8) interactions,
#: after which every interaction pays StableVerify and every checkpoint
#: the full safe-configuration check — several times the cost of ranking.
#: So the unit's cost hinges on how long each trial is safe, and the
#: inputs fix it: the seed search keeps grid seeds whose schedule gives
#: every trial exactly one burst, inside ``window``.  The burst lands
#: late, so each trial runs ranking, verification, the burst, detection
#: and the start of recovery, and the costly safe stretch has the same
#: length for every seed.
ELECT_SIZES = {
    False: dict(n=128, rs=(8, 16), budget=100_000, check=5_000,
                window=(80_000, 85_000), band=(0.25, 0.75)),
    True: dict(n=24, rs=(2, 4), budget=12_000, check=1_000,
               window=(9_000, 10_000), band=(0.0, 1.0)),
}


def _elect_inputs(seed: int, smoke: bool) -> dict:
    size = ELECT_SIZES[smoke]
    low, high = size["window"]
    for attempt in itertools.count():
        grid = GridSpec(
            ns=(size["n"],), rs=size["rs"], protocols=("elect_leader",),
            # Rate n/budget (one expected burst per budget) maximizes the
            # chance of exactly one burst in the window.
            fault_rates=(size["n"] / size["budget"],),
            fault_models=("scramble_burst",),
            trials=1, seed=derive_seed(seed, attempt),
            max_interactions=size["budget"], check_interval=size["check"],
            backend="object",
        )
        schedules = [burst_schedule(spec) for spec in expand_grid(grid)]
        if all(len(s) == 1 and low <= s[0] <= high for s in schedules):
            inputs = _sweep_inputs([grid])
            inputs["band"] = size["band"]
            return inputs


def _elect_check(inputs: dict, ready, results) -> UnitResult:
    return _sweep_check(inputs, ready, results, tuple(inputs["band"]))


# -- batch_wide -------------------------------------------------------------

#: loosely_stabilizing scramble_burst cells on the batch engine at n=16
#: (S=136) and n=10³ (S=334), two trials each, one grid per size.  A burst
#: takes its row out of the lockstep for a step, so the unit's step count
#: depends on where bursts land.  At n=16, ~25 bursts per row average that
#: out (steps vary 2.5% between seeds); at n=10³ bursts are kept rare
#: (under one per row), which holds its ~90 steps of 333 hypergeometric
#: calls each to a 6% spread.
WIDE_SIZES = {
    False: [dict(n=16, rate=0.2, budget=2_000, check=200),
            dict(n=1_000, rate=0.2, budget=1_500, check=250)],
    True: [dict(n=16, rate=0.2, budget=200, check=40),
           dict(n=1_000, rate=0.2, budget=150, check=50)],
}


def _wide_inputs(seed: int, smoke: bool) -> dict:
    grids = [
        GridSpec(
            ns=(size["n"],), protocols=("loosely_stabilizing",),
            fault_rates=(size["rate"],), fault_models=("scramble_burst",),
            trials=2, seed=derive_seed(seed, index),
            max_interactions=size["budget"], check_interval=size["check"],
            backend="batch",
        )
        for index, size in enumerate(WIDE_SIZES[smoke])
    ]
    return _sweep_inputs(grids)


def _wide_check(inputs: dict, ready, results) -> UnitResult:
    return _sweep_check(inputs, ready, results, (0.0, 1.0))


# ---------------------------------------------------------------------------
# reset_1e6: the Appendix-C reset epidemic on the counts engine
# ---------------------------------------------------------------------------

#: One triggered agent until every agent is awake, one engine per trial
#: via ``run_trials``.  The completion time concentrates (the epidemic is
#: near its fluid limit): in parallel time it is a fixed share of
#: R_max + D_max, the reset count plus the dormancy delay.
RESET_SIZES = {False: dict(n=1_000_000, trials=1), True: dict(n=10_000, trials=2)}
#: Completion parallel time / (R_max + D_max) must fall in this band.
RESET_BAND = (0.4, 0.8)


def _reset_inputs(seed: int, smoke: bool) -> dict:
    return dict(RESET_SIZES[smoke], seed=derive_seed(seed, 0))


def _reset_prepare(inputs: dict, workdir: Path):
    n = inputs["n"]
    protocol = ResetEpidemicProtocol(ProtocolParams(n=n))
    transition_table_for(protocol)
    counts = np.zeros(protocol.num_states(), dtype=np.int64)
    counts[0] = n - 1
    counts[protocol.encode_state(protocol.triggered_state())] += 1
    start = CountVector(counts)
    return protocol, goal_counts_predicate(protocol), start, inputs["trials"], inputs["seed"]


def _reset_run(ready):
    protocol, predicate, start, count, seed = ready
    n = protocol.n
    return trials.run_trials(
        protocol, predicate, n=n, trials=count, max_interactions=400 * n,
        seed=seed, check_interval=n // 4, init=start, workers=1, backend="counts",
    )


def _reset_check(inputs: dict, ready, summary) -> UnitResult:
    protocol = ready[0]
    params = protocol.params
    scale = params.reset_count_max + params.delay_timer_max
    low, high = RESET_BAND
    unit = UnitResult(trials=summary.trials)
    unit.failures += ["a trial never woke every agent"] * (summary.trials - summary.converged)
    for interactions in summary.interactions:
        share = interactions / protocol.n / scale
        if not low <= share <= high:
            unit.failures.append(
                f"completion after {interactions} interactions: "
                f"{share:.3f} × (R_max + D_max), outside [{low}, {high}]"
            )
    unit.counts = {"interactions": int(sum(summary.interactions))}
    unit.digest = _sha(json.dumps([summary.converged, summary.interactions]).encode())
    return unit


# ---------------------------------------------------------------------------
# batch_narrow: E22's cell, 1000 rows of the two-way epidemic at n=10⁴
# ---------------------------------------------------------------------------

NARROW_SIZES = {False: dict(n=10_000, rows=1_000), True: dict(n=2_000, rows=64)}
#: Median row completion / (n ln n) must fall in this band.
NARROW_BAND = (0.8, 1.3)


def _narrow_inputs(seed: int, smoke: bool) -> dict:
    return dict(NARROW_SIZES[smoke], seed=derive_seed(seed, 0))


def _narrow_prepare(inputs: dict, workdir: Path):
    n = inputs["n"]
    protocol = EpidemicProtocol()
    transition_table_for(protocol)
    start = Replicated(CountVector([n - 1, 1]), inputs["rows"])
    return protocol, goal_counts_predicate(protocol), start, n, inputs["seed"]


def _narrow_run(ready):
    protocol, predicate, start, n, seed = ready
    engine = make_simulation(protocol, init=start, seed=seed, backend="batch")
    return engine.run_rows_until(
        predicate, max_interactions=30 * n, check_interval=n // 4
    )


def _narrow_check(inputs: dict, ready, rows) -> UnitResult:
    n = inputs["n"]
    unit = UnitResult(trials=len(rows))
    for row in rows:
        if not row.converged:
            unit.failures.append(f"row {row.row} never finished the epidemic")
    done = [row.interactions for row in rows if row.converged]
    if done:
        share = statistics.median(done) / (n * math.log(n))
        low, high = NARROW_BAND
        if not low <= share <= high:
            unit.failures.append(
                f"median completion {share:.3f} × n ln n, outside [{low}, {high}]"
            )
    unit.counts = {"interactions": int(sum(row.interactions for row in rows))}
    unit.digest = _sha(json.dumps([[r.converged, r.interactions] for r in rows]).encode())
    return unit


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "elect_faults",
            "ElectLeader_r at n=128, r in {8,16}, fault cells on the object engine: "
            "the only workload where repro.core (ranking, verification, resets) does the work",
            "object", _elect_inputs, _sweep_prepare, _sweep_run, _elect_check,
        ),
        Workload(
            "reset_1e6",
            "Appendix-C reset epidemic (S=1654) at n=10^6 on the counts engine: the "
            "one-trial many-state path, one C-level hypergeometric draw per run",
            "hypergeometric", _reset_inputs, _reset_prepare, _reset_run, _reset_check,
        ),
        Workload(
            "batch_narrow",
            "E22's cell, 1000 rows of the two-way epidemic at n=10^4 on the batch "
            "engine: few states, many rows, the batched sampler at its best",
            "bulk", _narrow_inputs, _narrow_prepare, _narrow_run, _narrow_check,
        ),
        Workload(
            "batch_wide",
            "loosely_stabilizing fault cells on the batch engine at n=16 and n=10^3: "
            "wide S, few rows, S-1 hypergeometric calls per lockstep step",
            "object", _wide_inputs, _sweep_prepare, _sweep_run, _wide_check,
        ),
    )
}
