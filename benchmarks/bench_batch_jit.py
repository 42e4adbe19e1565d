"""E24 — JIT kernel gate: ``batch-jit`` vs ``batch`` on the lockstep cell.

:mod:`repro.sim.kernels` compiles the batch engine's lockstep step with
numba — same ``(T, S)`` matrix, same law, counter-based per-row streams
instead of the shared PCG64 (law-exact vs ``batch``, not bit-exact).
This benchmark is its regression gate, run by CI's ``jit`` job (FAST) and
the ``bench-perf``/nightly jobs (full budget):

* **E24 (speedup gates)** — ``run_trials(backend="batch-jit")`` on the
  two-way epidemic cell (``T = 1000``, ``n = 10⁴``) and a small batch of
  ``n = 10⁶`` rows must both be **≥ 3×** faster than ``backend="batch"``
  (≥ 1.5× on the trimmed FAST cell; the big rows are recorded ungated in
  FAST).  Small ``S`` is exactly where the numpy engine's per-step Python
  dispatch dominates and the compiled per-row loop wins.  Skipped when
  numba is absent — compiled speed cannot be measured uncompiled.

* **E24b (law equivalence)** — seed-for-seed distribution agreement vs
  ``batch``: every trial converges on both engines, 95% bootstrap CIs of
  the median completion interactions overlap, and a two-sample KS test on
  the completion-interaction samples does not reject at α = 0.001.
  Without numba this still runs, on the ``REPRO_JIT_PURE_PYTHON=1``
  escape hatch (same kernel source, uncompiled) with a trimmed cell — the
  law gate never depends on having a compiler.

* **E24c (T = 1 exactness)** — a one-row engine runs the shared numpy
  per-row sampler, so the outcome is asserted bit-identical to
  ``backend="counts"``.

Both tests print the per-step wall-clock breakdown from
:meth:`BatchCountsEngine.instrument_steps`; the fused kernel is timed
whole under ``apply``, so the table splits kernel time from ``retire``
(silence and predicate checks).  Results merge into
``benchmarks/results/perf-summary.json`` beside E22.
"""

from __future__ import annotations

import statistics

import pytest
from conftest import FAST, run_once, update_perf_summary

from repro.analysis.stats import ks_statistic, ks_threshold
from repro.obs import perf_counter, step_breakdown_rows
from repro.scheduler.rng import RNG, make_rng
from repro.sim.backends import make_simulation
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.initial_state import CountVector, Replicated
from repro.sim.kernels import PURE_PYTHON_ENV, jit_available
from repro.sim.trials import run_trials
from repro.substrates.epidemics import EpidemicProtocol

#: The acceptance bar (≥ 3×) applies at the full T = 1000, n = 10⁴ cell;
#: FAST smoke runs a trimmed cell with a lenient floor.
TRIALS = 64 if FAST else 1000
N = 2_000 if FAST else 10_000
SPEEDUP_FLOOR = 1.5 if FAST else 3.0
CHECK_INTERVAL = N // 4
BUDGET = 30 * N
#: The headline-scale rows (the paper's n = 10⁶ regime).
BIG_N = 100_000 if FAST else 1_000_000
BIG_ROWS = 4
#: Uncompiled escape-hatch law cell (Python-speed kernels; keep it small).
PURE_TRIALS = 64
PURE_N = 2_000
BOOTSTRAP = 400
KS_ALPHA = 1e-3


def _seeded_start(n: int) -> CountVector:
    return CountVector([n - 1, 1])  # one infected source


def _bootstrap_ci(values: list[float], rng: RNG) -> tuple[float, float]:
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP)
    )
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def _run_cell(backend: str, *, trials: int, n: int, seed: int = 7):
    """One epidemic grid cell through ``run_trials`` on ``backend``."""
    protocol = EpidemicProtocol()
    predicate = goal_counts_predicate(protocol)
    start = perf_counter()
    summary = run_trials(
        protocol,
        predicate,
        n=n,
        trials=trials,
        max_interactions=30 * n,
        seed=seed,
        check_interval=max(1, n // 4),
        init=_seeded_start(n),
        workers=1,
        backend=backend,
        label=f"epidemic/{backend}",
    )
    return summary, perf_counter() - start


def _step_breakdown(backend: str, *, trials: int, n: int) -> dict[str, float]:
    """Drive one instrumented engine; return the per-phase seconds."""
    protocol = EpidemicProtocol()
    predicate = goal_counts_predicate(protocol)
    engine = make_simulation(
        protocol,
        init=Replicated(_seeded_start(n), trials),
        seed=7,
        backend=backend,
    )
    timings = engine.instrument_steps()
    engine.run_rows_until(
        predicate, max_interactions=30 * n, check_interval=max(1, n // 4)
    )
    return timings


def _breakdown_rows(label: str, timings: dict[str, float]) -> list[dict]:
    return [
        {"workload": label, **row} for row in step_breakdown_rows(timings)
    ]


def test_e24_jit_law_equivalence(benchmark, record_table, monkeypatch):
    """E24b/E24c: law (not bit) agreement vs ``batch``; T = 1 exactness.

    Runs in every environment: compiled when numba is installed, else on
    the explicit uncompiled escape hatch with a trimmed cell.
    """
    compiled = jit_available()
    if not compiled:
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
    trials = TRIALS if compiled else min(TRIALS, PURE_TRIALS)
    n = N if compiled else min(N, PURE_N)

    def experiment():
        results = {}
        for backend in ("batch", "batch-jit"):
            summary, elapsed = _run_cell(backend, trials=trials, n=n)
            results[backend] = (summary, elapsed)
        return results

    results = run_once(benchmark, experiment)
    batch_summary, batch_s = results["batch"]
    jit_summary, jit_s = results["batch-jit"]

    rng = make_rng(24)
    batch_lo, batch_hi = _bootstrap_ci(batch_summary.interactions, rng)
    jit_lo, jit_hi = _bootstrap_ci(jit_summary.interactions, rng)
    ci_overlap = batch_lo <= jit_hi and jit_lo <= batch_hi
    ks = ks_statistic(batch_summary.interactions, jit_summary.interactions)
    ks_limit = ks_threshold(trials, trials, KS_ALPHA)

    # E24c: a one-row batch is the counts engine, bit for bit.
    protocol = EpidemicProtocol()
    predicate = goal_counts_predicate(protocol)
    single = {
        backend: run_trials(
            protocol,
            predicate,
            n=n,
            trials=1,
            max_interactions=30 * n,
            seed=7,
            check_interval=max(1, n // 4),
            init=_seeded_start(n),
            workers=1,
            backend=backend,
        )
        for backend in ("counts", "batch-jit")
    }
    single_exact = (
        single["batch-jit"].interactions == single["counts"].interactions
        and single["batch-jit"].converged == single["counts"].converged
    )

    timings = _step_breakdown("batch-jit", trials=trials, n=n)
    rows = [
        {
            "workload": f"epidemic-cell/{backend}",
            "n": n,
            "trials": trials,
            "compiled": compiled,
            "success_rate": round(results[backend][0].success_rate, 3),
            "median_interactions": results[backend][0].median_interactions,
            "seconds": round(results[backend][1], 3),
        }
        for backend in ("batch", "batch-jit")
    ] + _breakdown_rows("batch-jit step breakdown", timings)
    record_table(
        "E24_batch_jit_law",
        rows,
        f"E24b: batch-jit vs batch law agreement (n={n}, {trials}-trial cell, "
        f"{'compiled' if compiled else 'uncompiled escape hatch'})",
    )

    update_perf_summary(
        "E24_batch_jit_law",
        {
            "experiment": "E24_batch_jit_law",
            "n": n,
            "trials": trials,
            "fast_mode": FAST,
            "compiled": compiled,
            "batch_seconds": round(batch_s, 3),
            "batch_jit_seconds": round(jit_s, 3),
            "median_interactions_ci": {
                "batch": [batch_lo, batch_hi],
                "batch-jit": [jit_lo, jit_hi],
            },
            "ci_overlap": ci_overlap,
            "ks_statistic": round(ks, 4),
            "ks_threshold": round(ks_limit, 4),
            "single_trial_exact": single_exact,
            "step_breakdown_seconds": {k: round(v, 4) for k, v in timings.items()},
        },
    )

    assert batch_summary.converged == trials
    assert jit_summary.converged == trials
    assert single_exact, single
    assert ci_overlap, (batch_lo, batch_hi, jit_lo, jit_hi)
    assert ks <= ks_limit, (ks, ks_limit)


def test_e24_jit_speedup(benchmark, record_table):
    """E24: the compiled ≥ 3× gates (cell + headline-scale rows)."""
    if not jit_available():
        pytest.skip(
            "numba not installed (the [jit] extra): compiled speed cannot "
            "be measured on the uncompiled escape hatch"
        )

    # Warm the JIT cache outside the timed region — compilation is a
    # once-per-process cost, not a per-cell cost.
    _run_cell("batch-jit", trials=2, n=500)

    def experiment():
        cell = {
            backend: _run_cell(backend, trials=TRIALS, n=N)
            for backend in ("batch", "batch-jit")
        }
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        big = {}
        for backend in ("batch", "batch-jit"):
            engine = make_simulation(
                protocol,
                init=Replicated(_seeded_start(BIG_N), BIG_ROWS),
                seed=11,
                backend=backend,
            )
            start = perf_counter()
            outcomes = engine.run_rows_until(
                predicate,
                max_interactions=30 * BIG_N,
                check_interval=BIG_N,
            )
            big[backend] = (outcomes, perf_counter() - start)
        return cell, big

    (cell, big) = run_once(benchmark, experiment)
    cell_speedup = cell["batch"][1] / cell["batch-jit"][1]
    big_speedup = big["batch"][1] / big["batch-jit"][1]
    timings = _step_breakdown("batch-jit", trials=TRIALS, n=N)

    rows = [
        {
            "workload": f"epidemic-cell/{backend}",
            "n": N,
            "trials": TRIALS,
            "seconds": round(cell[backend][1], 3),
        }
        for backend in ("batch", "batch-jit")
    ] + [
        {
            "workload": f"big-rows/{backend}",
            "n": BIG_N,
            "trials": BIG_ROWS,
            "seconds": round(big[backend][1], 3),
        }
        for backend in ("batch", "batch-jit")
    ] + _breakdown_rows("batch-jit step breakdown", timings)
    rows[1]["speedup_vs_batch"] = round(cell_speedup, 2)
    rows[3]["speedup_vs_batch"] = round(big_speedup, 2)
    record_table(
        "E24_batch_jit",
        rows,
        f"E24: batch-jit vs batch (cell n={N} × {TRIALS} trials; "
        f"{BIG_ROWS} rows at n={BIG_N})",
    )

    update_perf_summary(
        "E24_batch_jit",
        {
            "experiment": "E24_batch_jit",
            "n": N,
            "trials": TRIALS,
            "big_n": BIG_N,
            "big_rows": BIG_ROWS,
            "fast_mode": FAST,
            "speedup_floor": SPEEDUP_FLOOR,
            "cell_speedup": round(cell_speedup, 2),
            "big_row_speedup": round(big_speedup, 2),
            "step_breakdown_seconds": {k: round(v, 4) for k, v in timings.items()},
        },
    )

    for backend in ("batch", "batch-jit"):
        assert all(outcome.converged for outcome in big[backend][0])
    assert cell_speedup >= SPEEDUP_FLOOR, rows
    if not FAST:  # the headline-scale gate needs the full n = 10⁶ rows
        assert big_speedup >= SPEEDUP_FLOOR, rows
