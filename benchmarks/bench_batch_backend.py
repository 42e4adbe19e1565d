"""E22 — Batch-backend speedup gate on a 1000-trial grid cell.

The batch backend exists so that a whole sweep cell — every trial of one
``(protocol, n, adversary, fault)`` configuration — executes as a single
``(T, S)`` counts matrix advanced in lockstep, amortizing the Python-level
interpreter work of the counts engine across all rows.  This benchmark is
its regression gate, run by CI's ``bench-perf`` job:

* **E22 (cell gate)** — ``run_trials(backend="batch")`` on the two-way
  epidemic at ``T = 1000`` trials must be **≥ 10×** faster than the same
  call on the per-trial counts backend (``workers=1`` — the honest
  same-substrate comparison; process fan-out buys wall-clock on both
  sides equally).  Both runs execute the identical interaction law; the
  per-trial engine pays its Python dispatch once per trial per batch of
  collision-free stretches, the batch engine once per lockstep step for
  all 1000 rows.  The FAST cell (64 trials at ``n = 2000``) reports the ratio
  of the minimum of three alternating timings per engine and asserts
  only ``1 ≤ ratio ≤ 100``: the batch engine is not slower, and neither
  engine is 100× slower than the other (the parity bound for engines
  that support the same protocol).  Its ratio moves with the per-trial
  engine's speed, which is not the batch engine's business: it read
  5.9–6.4× before the per-row sampler learned to jump over null
  interactions and 3.5–3.6× after, too close to the old 3× floor not
  to flake.

* **E22b (distribution agreement)** — at ``T = 1``, the batch engine *is*
  the counts engine (a one-row engine with the same seed always takes the
  per-row sampler), so the trial outcome is asserted bit-identical.  At full ``T``
  the engines draw from different stream shapes, so agreement is
  statistical: 95% bootstrap confidence intervals of the median
  completion interactions must overlap, and both sides must converge on
  every trial.

* **E22c (fault-schedule identity)** — per-row burst schedules are a pure
  function of the :class:`FaultSpec` seed, so a batched fault row must
  fire bursts at exactly the per-trial :class:`FaultEngine` positions.

Results land in ``benchmarks/results/perf-summary.json`` beside E18/E20.
``ElectLeader_r`` is asserted to fail loudly on the batch backend,
mirroring the other vectorized engines' assertions.
"""

from __future__ import annotations

import math
import statistics

from conftest import FAST, PARITY_BOUND, run_once, update_perf_summary

from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.obs import perf_counter, step_breakdown_rows
from repro.scheduler.rng import RNG, make_rng
from repro.sim.backends import make_simulation
from repro.sim.counts_backend import (
    CountsBackendError,
    CountsSimulation,
    goal_counts_predicate,
)
from repro.sim.fault_engine import FaultSpec
from repro.sim.initial_state import CountVector, Replicated
from repro.sim.trials import run_trials
from repro.substrates.epidemics import EpidemicProtocol

#: The acceptance bar (≥ 10×) applies at the full T = 1000 grid cell;
#: FAST smoke runs a trimmed cell whose ratio is reported, bounded only
#: by 1 ≤ ratio ≤ PARITY_BOUND.
TRIALS = 64 if FAST else 1000
N = 2_000 if FAST else 10_000
SPEEDUP_FLOOR = 1.0 if FAST else 10.0
#: Alternating timings per engine; the cell reports the minimum.  The
#: full cell's per-trial side takes ~40 s, so it is timed once.
REPEATS = 3 if FAST else 1
#: Convergence-check cadence: ¼ parallel-time resolution, as in E20.
CHECK_INTERVAL = N // 4
#: Two-way epidemic completion concentrates near n·ln n; 30n is generous.
BUDGET = 30 * N
#: Bootstrap resamples for the E22b median-interactions CI.
BOOTSTRAP = 400


def _seeded_start(n: int) -> CountVector:
    return CountVector([n - 1, 1])  # one infected source


def _bootstrap_ci(values: list[float], rng: RNG) -> tuple[float, float]:
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP)
    )
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def test_e22_batch_backend_speedup(benchmark, record_table):
    def experiment():
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)

        rows = []
        summaries = {}
        fastest = {"counts": math.inf, "batch": math.inf}
        # Alternate the engines, so a host speed change lands on both.
        for _ in range(REPEATS):
            for name in fastest:
                t0 = perf_counter()
                summaries[name] = run_trials(
                    protocol,
                    predicate,
                    n=N,
                    trials=TRIALS,
                    max_interactions=BUDGET,
                    seed=7,
                    check_interval=CHECK_INTERVAL,
                    init=_seeded_start(N),
                    workers=1,
                    backend=name,
                    label=f"epidemic/{name}",
                )
                fastest[name] = min(fastest[name], perf_counter() - t0)
        for name, summary in summaries.items():
            rows.append(
                {
                    "workload": f"epidemic-cell/{name}",
                    "n": N,
                    "trials": TRIALS,
                    "success_rate": round(summary.success_rate, 3),
                    "median_interactions": summary.median_interactions,
                    "seconds": round(fastest[name], 3),
                }
            )
        return rows, {name: (summaries[name], fastest[name]) for name in fastest}

    rows, summaries = run_once(benchmark, experiment)
    counts_summary, counts_s = summaries["counts"]
    batch_summary, batch_s = summaries["batch"]
    speedup = counts_s / batch_s if batch_s > 0 else float("inf")
    for row in rows:
        row["speedup_vs_counts"] = ""
    rows[1]["speedup_vs_counts"] = round(speedup, 2)
    record_table(
        "E22_batch_backend",
        rows,
        f"E22: batch vs per-trial counts backend (n={N}, one {TRIALS}-trial "
        f"grid cell checked every n/4"
        + (f", min of {REPEATS} alternating runs)" if REPEATS > 1 else ")"),
    )

    # E22b (distribution agreement): everything converges, and the median
    # completion interactions agree up to bootstrap-CI overlap.
    assert counts_summary.converged == TRIALS, rows
    assert batch_summary.converged == TRIALS, rows
    rng = make_rng(22)
    counts_lo, counts_hi = _bootstrap_ci(counts_summary.interactions, rng)
    batch_lo, batch_hi = _bootstrap_ci(batch_summary.interactions, rng)
    ci_overlap = counts_lo <= batch_hi and batch_lo <= counts_hi

    # E22b (T = 1 exactness): a one-row batch is the counts engine with
    # the same derived seed, so the outcome is bit-identical.
    protocol = EpidemicProtocol()
    predicate = goal_counts_predicate(protocol)
    single = {
        name: run_trials(
            protocol,
            predicate,
            n=N,
            trials=1,
            max_interactions=BUDGET,
            seed=7,
            check_interval=CHECK_INTERVAL,
            init=_seeded_start(N),
            workers=1,
            backend=name,
        )
        for name in ("counts", "batch")
    }
    single_exact = (
        single["batch"].interactions == single["counts"].interactions
        and single["batch"].converged == single["counts"].converged
    )

    # E22c (fault-schedule identity): batched rows fire bursts at exactly
    # the per-trial FaultEngine positions for the same FaultSpec.
    spec = FaultSpec(model="scramble_burst", rate=2.0, burst_size=3, seed=22)
    engine = CountsSimulation(
        protocol, init=Replicated(_seeded_start(N), 2), seed=9
    )
    engine.measure_rows_availability(
        predicate,
        total_interactions=4 * N,
        checkpoint_every=N,
        faults=[spec, spec],
    )
    twin = spec.make_engine(protocol, n=N)
    twin_sim = make_simulation(protocol, init=_seeded_start(N), backend="counts", seed=9)
    twin.measure_availability(
        twin_sim,
        predicate,
        total_interactions=4 * N,
        checkpoint_every=N,
    )
    schedule_exact = all(
        [event.interaction for event in engine.fault_events(row)]
        == [event.interaction for event in twin.events]
        for row in (0, 1)
    )

    # Per-step wall-clock breakdown (draw / match / apply / retire): an
    # instrumented engine re-runs the cell so kernel regressions are
    # attributable to a phase, not just visible as a ratio change.
    breakdown_engine = make_simulation(
        protocol,
        init=Replicated(_seeded_start(N), TRIALS),
        seed=7,
        backend="batch",
    )
    step_timings = breakdown_engine.instrument_steps()
    breakdown_engine.run_rows_until(
        predicate, max_interactions=BUDGET, check_interval=CHECK_INTERVAL
    )
    record_table(
        "E22_step_breakdown",
        step_breakdown_rows(step_timings),
        f"E22: batch per-step breakdown (n={N}, {TRIALS}-trial cell)",
    )

    update_perf_summary(
        "E22_batch_backend",
        {
            "experiment": "E22_batch_backend",
            "n": N,
            "trials": TRIALS,
            "fast_mode": FAST,
            "repeats": REPEATS,
            "speedup_floor": SPEEDUP_FLOOR,
            "parity_bound": PARITY_BOUND,
            "cell_speedup": round(speedup, 2),
            "counts_seconds": round(counts_s, 3),
            "batch_seconds": round(batch_s, 3),
            "median_interactions_ci": {
                "counts": [counts_lo, counts_hi],
                "batch": [batch_lo, batch_hi],
            },
            "ci_overlap": ci_overlap,
            "single_trial_exact": single_exact,
            "fault_schedule_exact": schedule_exact,
            "step_breakdown_seconds": {
                phase: round(seconds, 4) for phase, seconds in step_timings.items()
            },
            "rows": rows,
        },
    )

    # ElectLeader_r has no finite encoding: the batch backend must refuse
    # it loudly, never silently fall back to something slower or wrong.
    elect = ElectLeader(ProtocolParams(n=64, r=4))
    try:
        make_simulation(elect, n=64, backend="batch")
    except (CountsBackendError, ValueError):
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("ElectLeader must be rejected by the batch backend")

    assert single_exact, single
    assert schedule_exact
    assert ci_overlap, (counts_lo, counts_hi, batch_lo, batch_hi)

    # E22: the ≥10× cell gate; FAST smoke reports the ratio, which must
    # stay within the parity bound.
    assert SPEEDUP_FLOOR <= speedup <= PARITY_BOUND, rows
