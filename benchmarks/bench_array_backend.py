"""E18/E19 — Array-backend speed ratio and cross-backend equivalence.

The vectorized numpy backend (:mod:`repro.sim.array_backend`) exists to
make n ≥ 10³–10⁴ leader-election workloads cheap; this benchmark reports
how it compares with the object backend and gates their equivalence,
run by CI's ``bench-perf`` job:

* **E18 (ratio, reported)** — every finite-state leader-election
  workload at n=4096 runs on both backends, three alternating timings
  each, and the table reports ``object_s / array_s`` over the minimum
  timing per engine.  The ratio moves with the object engine's
  per-interaction cost, which is not the array engine's business, so it
  is a column, not a floor: at n=4096 it measured 3.1–23× once the
  object scheduler inlined its draws (8.8–48× before).  Two checks that
  do not depend on that cost gate it: the array backend is not slower
  (ratio ≥ 1), and neither engine is 100× slower than the other (the
  parity bound for engines that support the same protocol).  The
  headline row is the Cai–Izumi–Wada ``n``-state SSLE
  protocol: the finite-state stand-in for the ``elect_leader`` workload,
  since ``ElectLeader_r`` itself prices its speed at ``2^{O(r² log n)}``
  states (Theorem 1.1) and therefore has no transition table to
  vectorize — E18 also asserts that requesting the array backend for it
  fails loudly rather than silently degrading.  Results additionally
  land in ``benchmarks/results/perf-summary.json`` for the CI artifact.

* **E19 (equivalence)** — for every protocol exposing a transition
  table: object- and array-backend runs reach the same convergence
  verdict, replaying one ``RecordedSchedule`` agrees *exactly* (the
  conflict-safe block application is bit-faithful to sequential order),
  and multi-trial stabilization-time distributions are statistically
  indistinguishable (overlapping bootstrap CIs for the median).
"""

from __future__ import annotations


from conftest import FAST, PARITY_BOUND, run_once, update_perf_summary

from repro.analysis.stats import bootstrap_ci
from repro.baselines.cai_izumi_wada import CaiIzumiWada
from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.propagate_reset import ResetEpidemicProtocol
from repro.obs import perf_counter
from repro.scheduler.rng import make_rng
from repro.scheduler.scheduler import RecordedSchedule
from repro.sim.array_backend import (
    ArrayBackendError,
    ArraySimulation,
    replay_array,
    transition_table_for,
)
from repro.sim.initial_state import ObjectConfig
from repro.sim.replay import replay
from repro.sim.simulation import Simulation
from repro.sim.trials import run_trials

N = 1024 if FAST else 4096
BUDGET = 200_000 if FAST else 2_000_000
#: Alternating timings per engine and workload; a row reports the minimum.
REPEATS = 3


def _workloads(n: int):
    """(name, protocol, start configuration) for each array-capable
    leader-election-family workload at population size ``n``."""
    ciw = CaiIzumiWada(BaselineParams(n=n))
    loose = LooselyStabilizingLeaderElection(BaselineParams(n=n))
    reset = ResetEpidemicProtocol(ProtocolParams(n=n, r=4))
    pairwise = PairwiseElimination(n)
    return [
        ("cai_izumi_wada", ciw, ciw.adversarial_configuration(make_rng(11))),
        ("loosely_stabilizing", loose, loose.clean_configuration(n)),
        ("reset_epidemic", reset, reset.triggered_configuration(n)),
        ("pairwise_elimination", pairwise, pairwise.clean_configuration(n)),
    ]


def _timed_batch(engine, protocol, start) -> float:
    sim = engine(protocol, config=[s.clone() for s in start], seed=3)
    t0 = perf_counter()
    sim.run_batch(BUDGET)
    return perf_counter() - t0


def test_e18_array_backend_speedup(benchmark, record_table):
    def experiment():
        rows = []
        for name, protocol, start in _workloads(N):
            t0 = perf_counter()
            transition_table_for(protocol)  # built once, cached; excluded from hot path
            build_s = perf_counter() - t0

            # Alternate the engines, so a host speed change lands on both.
            timings = [
                (_timed_batch(Simulation, protocol, start),
                 _timed_batch(ArraySimulation, protocol, start))
                for _ in range(REPEATS)
            ]
            object_s = min(object_run for object_run, _ in timings)
            array_s = min(array_run for _, array_run in timings)
            rows.append(
                {
                    "workload": name,
                    "n": N,
                    "interactions": BUDGET,
                    "states": protocol.num_states(),
                    "table_build_s": round(build_s, 3),
                    "object_s": round(object_s, 3),
                    "array_s": round(array_s, 3),
                    "speedup": round(object_s / array_s, 2),
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    record_table(
        "E18_array_backend",
        rows,
        f"E18: object vs array backend wall-clock (n={N}, {BUDGET} interactions, "
        f"min of {REPEATS} alternating runs)",
    )
    update_perf_summary(
        "E18_array_backend",
        {
            "experiment": "E18_array_backend",
            "n": N,
            "interactions": BUDGET,
            "fast_mode": FAST,
            "repeats": REPEATS,
            "parity_bound": PARITY_BOUND,
            "rows": rows,
        },
    )

    # ElectLeader_r has no finite encoding: the array backend must refuse
    # it loudly, never silently fall back to something slower or wrong.
    elect = ElectLeader(ProtocolParams(n=64, r=4))
    try:
        ArraySimulation(elect, n=64, seed=0)
    except ArrayBackendError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("ElectLeader must be rejected by the array backend")

    for row in rows:
        # The array engine is not slower, and the object engine is not
        # PARITY_BOUND× slower.
        assert 1.0 <= row["speedup"] <= PARITY_BOUND, rows


# ---------------------------------------------------------------------------
# E19: cross-backend equivalence
# ---------------------------------------------------------------------------

#: (protocol builder, predicate attr, start builder, budget) per protocol —
#: small-n workloads that converge on both backends within the budget.
def _equivalence_cases():
    n = 24
    ciw = CaiIzumiWada(BaselineParams(n=12))
    loose = LooselyStabilizingLeaderElection(BaselineParams(n=n), tau=2.0)
    pairwise = PairwiseElimination(n)
    reset = ResetEpidemicProtocol(ProtocolParams(n=16, r=2))
    return [
        ("cai_izumi_wada", ciw, 12, ciw.is_silent_configuration,
         lambda rng: ciw.adversarial_configuration(rng), 2_000_000),
        ("loosely_stabilizing", loose, n, loose.is_goal_configuration,
         lambda rng: loose.adversarial_configuration(rng), 400_000),
        ("pairwise_elimination", pairwise, n, pairwise.is_goal_configuration,
         lambda rng: None, 400_000),
        ("reset_epidemic", reset, 16, reset.is_goal_configuration,
         lambda rng: reset.triggered_configuration(16, 3), 400_000),
    ]


def test_e19_cross_backend_equivalence(benchmark, record_table):
    def experiment():
        rows = []
        trials = 8 if FAST else 20
        for name, protocol, n, predicate, config_of, budget in _equivalence_cases():
            # Exact-trajectory agreement under a recorded schedule.
            schedule = RecordedSchedule.record(n, 2_000, make_rng(5))
            start = config_of(make_rng(7)) or protocol.clean_configuration(n)
            via_object = replay(protocol, [s.clone() for s in start], schedule)
            via_array = replay_array(protocol, [s.clone() for s in start], schedule)
            encode = protocol.encode_state
            replay_exact = [encode(s) for s in via_object] == [encode(s) for s in via_array]

            summaries = {}
            for backend in ("object", "array"):
                summaries[backend] = run_trials(
                    protocol,
                    predicate,
                    n=n,
                    trials=trials,
                    max_interactions=budget,
                    seed=31,
                    check_interval=64,
                    init=(
                        (lambda index: ObjectConfig(config_of(make_rng(1000 + index))))
                        if config_of(make_rng(0)) is not None else None
                    ),
                    label=f"{name}/{backend}",
                    backend=backend,
                )
            object_summary = summaries["object"]
            array_summary = summaries["array"]
            ci_object = bootstrap_ci(object_summary.interactions, rng=make_rng(1))
            ci_array = bootstrap_ci(array_summary.interactions, rng=make_rng(2))
            overlap = ci_object.low <= ci_array.high and ci_array.low <= ci_object.high
            rows.append(
                {
                    "protocol": name,
                    "n": n,
                    "trials": trials,
                    "replay_exact": replay_exact,
                    "object_success": object_summary.success_rate,
                    "array_success": array_summary.success_rate,
                    "object_median": object_summary.median_interactions,
                    "array_median": array_summary.median_interactions,
                    "median_ci_overlap": overlap,
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    record_table(
        "E19_backend_equivalence",
        rows,
        "E19: cross-backend equivalence (verdicts, replay, time distributions)",
    )
    for row in rows:
        assert row["replay_exact"], row
        assert row["object_success"] == row["array_success"] == 1.0, row
        assert row["median_ci_overlap"], row
