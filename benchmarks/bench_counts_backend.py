"""E20 — Counts vs array backend at the n = 10⁶ frontier.

The counts backend exists so that the paper's asymptotic claims can be
probed where they live: stabilization-vs-``n`` curves at ``n ≥ 10⁶`` for
the ``S ≪ n`` protocol family.  This benchmark reports how it compares
with the array backend, run by CI's ``bench-perf`` job:

* **E20 (workload ratio, reported)** — the *stabilization workload* (run
  to the convergence verdict, checking every ``n/4`` interactions —
  parallel-time resolution ¼) on the two-way epidemic (Lemma A.2's
  ``c_epi · n log n`` primitive, the engine under every broadcast in
  ``ElectLeader_r``) at ``n = 10⁶``, timed on the counts and the array
  backend.  Both engines simulate the same interaction law; the counts
  engine applies collision-free runs as ``O(S)`` aggregate deltas and
  checks convergence on the count vector, the array engine pays ``O(n)``
  conflict bookkeeping per block.  The array/counts wall-time ratio is a
  column of the table and of ``perf-summary.json``, not a gate: it
  measured 6.7–6.9× at ``n = 10⁶`` and 2.2–2.7× at the ``n = 10⁵``
  smoke size (numpy 2.4, 2 vCPU) once per-row batches drew their
  schedules a block at a time, 4.8–4.9× and 1.7–1.8× before, when they
  first went on through their collisions, 3.8–4.9× and 1.35–1.4× before
  that, and 2.2–3.1× and about 0.7× before the per-row sampler jumped
  over null interactions.
  Raw engine throughput (``run_batch`` only, no convergence checks) is
  reported alongside; its epidemic rows start half infected, where every engine
  takes collision-free runs — from one source the per-row sampler
  crosses the whole budget in a few dozen jump steps, which would time
  the jump rule instead of the run loop.

* **E20b (verdict agreement)** — both engines reach the verdict, at
  completion interaction counts within a small factor of each other
  (distribution-equal engines measured at the same check resolution).

Results land in ``benchmarks/results/perf-summary.json`` (merged beside
E18's rows) for the CI artifact.  ``ElectLeader_r`` is asserted to fail
loudly on the counts backend, mirroring E18's array-side assertion.
"""

from __future__ import annotations


from conftest import FAST, run_once, update_perf_summary

from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.obs import get_tracer, perf_counter
from repro.sim.array_backend import ArraySimulation, transition_table_for
from repro.sim.counts_backend import (
    CountsBackendError,
    CountsSimulation,
    goal_counts_predicate,
)
from repro.sim.initial_state import CodeArray
from repro.substrates.epidemics import EpidemicProtocol

#: The full configuration runs at n = 10⁶; FAST smoke runs at n = 10⁵.
N = 100_000 if FAST else 1_000_000
#: Convergence-check cadence: ¼ parallel-time resolution, the granularity
#: a stabilization-vs-n curve actually needs.
CHECK_INTERVAL = N // 4
#: Two-way epidemic completion concentrates near n·ln n; 30n is generous.
BUDGET = 30 * N
#: Raw-throughput comparison budget (run_batch only, no checks).
RAW_BUDGET = 500_000 if FAST else 2_000_000


def _epidemic_codes(n: int, infected: int = 1):
    import numpy

    codes = numpy.zeros(n, dtype=numpy.int64)
    codes[:infected] = 1
    return codes


def test_e20_counts_backend_speedup(benchmark, record_table):
    def experiment():
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        transition_table_for(protocol)  # built once, cached; excluded from timings

        rows = []
        workload = {}
        for name, build in (
            ("counts",
             lambda: CountsSimulation(protocol, init=CodeArray(_epidemic_codes(N)), seed=3)),
            ("array", lambda: ArraySimulation(protocol, codes=_epidemic_codes(N), seed=3)),
        ):
            sim = build()
            t0 = perf_counter()
            result = sim.run_until(predicate, max_interactions=BUDGET,
                                   check_interval=CHECK_INTERVAL)
            elapsed = perf_counter() - t0
            workload[name] = (result, elapsed)
            rows.append(
                {
                    "workload": f"epidemic-completion/{name}",
                    "n": N,
                    "converged": result.converged,
                    "interactions": result.interactions,
                    "seconds": round(elapsed, 3),
                }
            )

        # Raw engine throughput, convergence checks excluded (informational).
        loose = LooselyStabilizingLeaderElection(BaselineParams(n=N))
        transition_table_for(loose)
        raw = {}
        for label, protocol_r, factory in (
            ("epidemic", protocol,
             lambda p: CountsSimulation(p, init=CodeArray(_epidemic_codes(N, N // 2)), seed=5)),
            ("epidemic", protocol,
             lambda p: ArraySimulation(p, codes=_epidemic_codes(N, N // 2), seed=5)),
            ("loose", loose, lambda p: CountsSimulation(p, n=N, seed=5)),
            ("loose", loose, lambda p: ArraySimulation(p, n=N, seed=5)),
        ):
            sim = factory(protocol_r)
            engine = type(sim).__name__.replace("Simulation", "").lower()
            t0 = perf_counter()
            sim.run_batch(RAW_BUDGET)
            elapsed = perf_counter() - t0
            raw[(label, engine)] = elapsed
            rows.append(
                {
                    "workload": f"raw-batch/{label}/{engine}",
                    "n": N,
                    "converged": "-",
                    "interactions": RAW_BUDGET,
                    "seconds": round(elapsed, 3),
                }
            )
        return rows, workload, raw

    rows, workload, raw = run_once(benchmark, experiment)
    counts_result, counts_s = workload["counts"]
    array_result, array_s = workload["array"]
    speedup = array_s / counts_s if counts_s > 0 else float("inf")
    for row in rows:
        row["speedup_vs_array"] = ""
    rows[0]["speedup_vs_array"] = round(speedup, 2)
    record_table(
        "E20_counts_backend",
        rows,
        f"E20: counts vs array backend (n={N}, stabilization workload "
        f"checked every n/4; raw batches of {RAW_BUDGET})",
    )
    update_perf_summary(
        "E20_counts_backend",
        {
            "experiment": "E20_counts_backend",
            "n": N,
            "fast_mode": FAST,
            "workload_speedup": round(speedup, 2),
            "counts_seconds": round(counts_s, 3),
            "array_seconds": round(array_s, 3),
            "raw_seconds": {
                f"{label}/{engine}": round(value, 3)
                for (label, engine), value in raw.items()
            },
            "rows": rows,
        },
    )

    # ElectLeader_r has no finite encoding: the counts backend must refuse
    # it loudly, never silently fall back to something slower or wrong.
    elect = ElectLeader(ProtocolParams(n=64, r=4))
    try:
        CountsSimulation(elect, n=64, seed=0)
    except CountsBackendError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("ElectLeader must be rejected by the counts backend")

    # E20b: same verdict at the same check resolution, completion counts
    # within a small factor (distribution-equal engines).
    assert counts_result.converged and array_result.converged, rows
    ratio = counts_result.interactions / array_result.interactions
    assert 1 / 1.5 < ratio < 1.5, rows


#: Disabled-tracing overhead bar: spans around the hot loop with no trace
#: sink configured must cost <= 2% (plus a small absolute epsilon so the
#: gate doesn't flake on sub-second runs on loaded shared runners).
TRACE_OVERHEAD_LIMIT = 0.02
TRACE_OVERHEAD_EPSILON_S = 0.05
TRACE_OVERHEAD_BATCHES = 32


def test_e20_tracing_disabled_overhead(benchmark, record_table, monkeypatch):
    """Zero-overhead claim, measured: the E20 raw counts workload wrapped
    in disabled-tracer spans pays <= 2% over the unwrapped drive (min of
    3 runs each — the null tracer is one attribute check per span).  The
    plain and spanned drives alternate, so a host speed change between
    runs lands on both sides instead of reading as overhead.  Every drive
    must take collision-free runs, so the check times the hot loop rather
    than a few jump steps: they are counted as the batch schedules the
    per-row sampler draws, a block at a time, from ``next_run_lengths``."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    tracer = get_tracer()
    assert not tracer.enabled

    protocol = EpidemicProtocol()
    per_batch = max(1, RAW_BUDGET // TRACE_OVERHEAD_BATCHES)

    def drive(spanned: bool) -> tuple[float, int]:
        sim = CountsSimulation(
            protocol, init=CodeArray(_epidemic_codes(N, N // 2)), seed=11
        )
        taken = 0
        next_run_lengths = sim._runs.next_run_lengths

        def counted(count):
            nonlocal taken
            taken += count
            return next_run_lengths(count)

        sim._runs.next_run_lengths = counted
        t0 = perf_counter()
        if spanned:
            for _ in range(TRACE_OVERHEAD_BATCHES):
                with tracer.span("bench.batch"):
                    sim.run_batch(per_batch)
        else:
            for _ in range(TRACE_OVERHEAD_BATCHES):
                sim.run_batch(per_batch)
        return perf_counter() - t0, taken

    def experiment():
        drives = [(drive(False), drive(True)) for _ in range(3)]
        return (
            min(plain for (plain, _), _ in drives),
            min(spanned for _, (spanned, _) in drives),
            min(taken for pair in drives for _, taken in pair),
        )

    plain_s, spanned_s, runs = run_once(benchmark, experiment)
    assert runs > 0, "a drive took no collision-free runs"
    overhead = spanned_s / plain_s - 1 if plain_s > 0 else 0.0
    rows = [
        {
            "workload": f"raw-batch/epidemic/counts{suffix}",
            "n": N,
            "interactions": TRACE_OVERHEAD_BATCHES * per_batch,
            "seconds": round(seconds, 3),
        }
        for suffix, seconds in (("", plain_s), ("+null-spans", spanned_s))
    ]
    record_table(
        "E20_trace_overhead",
        rows,
        f"E20: disabled-tracing overhead (limit {TRACE_OVERHEAD_LIMIT:.0%}, "
        f"measured {overhead:+.1%})",
    )
    update_perf_summary(
        "E20_trace_overhead",
        {
            "experiment": "E20_trace_overhead",
            "n": N,
            "fast_mode": FAST,
            "overhead_limit": TRACE_OVERHEAD_LIMIT,
            "overhead": round(overhead, 4),
            "plain_seconds": round(plain_s, 3),
            "spanned_seconds": round(spanned_s, 3),
            "runs_per_drive": runs,
        },
    )
    assert spanned_s <= plain_s * (1 + TRACE_OVERHEAD_LIMIT) + TRACE_OVERHEAD_EPSILON_S, (
        plain_s,
        spanned_s,
    )
