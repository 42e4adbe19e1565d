"""The trial-vectorized batch counts engine (``backend='batch'``).

Contracts gated here:

* a batch of one **is** the per-trial counts engine, bit for bit — clean,
  from an explicit start, and under fault injection — so the row workloads
  are anchored to the per-trial surface the equivalence suite already
  trusts;
* ``run_trials(backend="batch")`` routes through the registry's
  ``trial_runner`` hook and agrees with ``backend="counts"`` exactly at
  one trial;
* structural batch semantics: rows converged at step 0 retire with zero
  interactions and consume no randomness (so a batch's stragglers are
  bit-identical with or without already-converged neighbours), silent
  fault-free rows retire unconverged at the budget, fault bursts never
  land on retired rows, and per-row burst schedules are bit-identical to
  a per-trial :class:`~repro.sim.fault_engine.FaultEngine` under the
  same :class:`~repro.sim.fault_engine.FaultSpec`;
* validation: mixed population sizes are rejected, ``Replicated`` starts
  are batch-engine-only, protocols without a finite encoding fail
  loudly, and an engine drives exactly one workload;
* the ``T > 1`` law on both samplers: rows agree with independent
  one-row pair-at-a-time oracles by two-sample KS tests, on a cell the
  lockstep sampler serves and one the per-row sampler serves;
* the wide-``S`` lockstep path never builds the ``(S², S)`` pair-delta
  matrix it does not read.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.scheduler.rng import derive_seed
from repro.sim.array_backend import transition_table_for
from repro.sim.backends import make_simulation
from repro.sim.batch_backend import BatchCountsEngine, run_trial_batch
from repro.sim.counts_backend import (
    CountsBackendError,
    CountsSimulation,
    counts_aware,
    goal_counts_predicate,
)
from repro.sim.fault_engine import FaultSpec, make_fault_engine
from repro.sim.initial_state import Clean, CountVector, Replicated
from repro.sim.trials import run_trials
from repro.substrates.epidemics import EpidemicProtocol


def epidemic_pred(protocol):
    return goal_counts_predicate(protocol)


def seeded_counts(n: int, sources: int = 1) -> CountVector:
    return CountVector([n - sources, sources])


class TestSingleTrialAnchor:
    """A one-row batch engine is the per-trial counts engine, bit for bit."""

    def test_clean_run_bit_identical(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        init = seeded_counts(48)
        engine = BatchCountsEngine(protocol, init=init, seed=11)
        [row] = engine.run_rows_until(pred, max_interactions=50_000, check_interval=16)
        sim = CountsSimulation(protocol, init=init, seed=11)
        result = sim.run_until(pred, 50_000, 16)
        assert row.converged == result.converged
        assert row.interactions == result.interactions
        assert np.array_equal(engine.counts, sim.counts)

    def test_fault_run_bit_identical(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        spec = FaultSpec(model="scramble_burst", rate=2.0, burst_size=3, seed=5)
        engine = BatchCountsEngine(protocol, init=seeded_counts(32), seed=4)
        [row] = engine.run_rows_until(
            pred, max_interactions=2_000, check_interval=8, faults=[spec]
        )
        sim = CountsSimulation(protocol, init=seeded_counts(32), seed=4)
        fault_engine = spec.make_engine(protocol, n=32)
        result = fault_engine.run_until(
            sim, pred, max_interactions=2_000, check_interval=8
        )
        assert (row.converged, row.interactions) == (result.converged, result.interactions)
        assert np.array_equal(engine.counts, sim.counts)
        assert [e.interaction for e in engine.fault_events(0)] == \
            [e.interaction for e in fault_engine.events]

    def test_availability_report_bit_identical(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        spec = FaultSpec(model="scramble_burst", rate=3.0, burst_size=2, seed=9)
        engine = BatchCountsEngine(protocol, init=seeded_counts(32), seed=4)
        [report] = engine.measure_rows_availability(
            pred, total_interactions=1_500, checkpoint_every=25, faults=[spec]
        )
        sim = CountsSimulation(protocol, init=seeded_counts(32), seed=4)
        twin = make_fault_engine(
            "scramble_burst", protocol, n=32, rate=3.0, burst_size=2, seed=9
        ).measure_availability(
            sim, pred, total_interactions=1_500, checkpoint_every=25
        )
        assert report == twin

    def test_run_trials_batch_matches_counts_at_one_trial(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        kwargs = dict(
            n=40, trials=1, max_interactions=50_000, seed=3, check_interval=16,
            init=seeded_counts(40),
        )
        batch = run_trials(protocol, pred, backend="batch", **kwargs)
        counts = run_trials(protocol, pred, backend="counts", **kwargs)
        assert batch.converged == counts.converged
        assert batch.interactions == counts.interactions
        assert batch.parallel_times == counts.parallel_times


class TestBatchSemantics:
    def test_all_rows_converged_at_step_zero(self):
        protocol = EpidemicProtocol()
        engine = BatchCountsEngine(
            protocol, init=Replicated(CountVector([0, 24]), 3), seed=0
        )
        rows = engine.run_rows_until(
            epidemic_pred(protocol), max_interactions=1_000, check_interval=10
        )
        assert all(r.converged and r.interactions == 0 for r in rows)

    def test_step_zero_retirees_do_not_disturb_stragglers(self):
        # Already-converged rows never consume the shared stream, so a
        # batch's live rows are bit-identical with or without them.
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        goal = CountVector([0, 36])
        x, y = seeded_counts(36, 1), seeded_counts(36, 2)
        padded = BatchCountsEngine(
            protocol, init=Replicated((goal, x, goal, y), 4), seed=21
        )
        bare = BatchCountsEngine(protocol, init=Replicated((x, y), 2), seed=21)
        padded_rows = padded.run_rows_until(pred, max_interactions=50_000, check_interval=8)
        bare_rows = bare.run_rows_until(pred, max_interactions=50_000, check_interval=8)
        assert [(r.converged, r.interactions) for r in (padded_rows[1], padded_rows[3])] \
            == [(r.converged, r.interactions) for r in bare_rows]
        assert np.array_equal(padded.counts[[1, 3]], bare.counts)

    def test_silent_faultless_rows_retire_unconverged_at_budget(self):
        # No leaders at all: pairwise elimination is silent and the goal
        # (exactly one L) is unreachable — the per-trial engine would
        # skip-idle to the budget and report exactly this.
        protocol = PairwiseElimination(12)
        pred = goal_counts_predicate(protocol)
        dead = CountVector([12, 0])
        live = CountVector([9, 3])
        engine = BatchCountsEngine(protocol, init=Replicated((dead, live), 2), seed=2)
        rows = engine.run_rows_until(pred, max_interactions=5_000, check_interval=10)
        assert not rows[0].converged and rows[0].interactions == 5_000
        assert rows[1].converged

    def test_bursts_never_fire_on_retired_rows(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        # Row 0 starts converged and carries an aggressive fault spec:
        # its per-trial twin stops at the passing step-0 check, so no
        # burst may ever fire there.  Row 1 keeps the batch running.
        faults = [FaultSpec(model="scramble_burst", rate=50.0, seed=7), None]
        engine = BatchCountsEngine(
            protocol,
            init=Replicated((CountVector([0, 20]), seeded_counts(20)), 2),
            seed=13,
        )
        rows = engine.run_rows_until(
            pred, max_interactions=2_000, check_interval=5, faults=faults
        )
        assert rows[0].converged and rows[0].interactions == 0
        assert engine.fault_events(0) == []

    def test_burst_schedule_bit_identical_to_fault_engine(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        n = 32
        specs = [
            FaultSpec(model="scramble_burst", rate=4.0, burst_size=2, seed=derive_seed(1, i))
            for i in range(2)
        ]
        engine = BatchCountsEngine(
            protocol, init=Replicated(seeded_counts(n), 2), seed=6
        )
        reports = engine.measure_rows_availability(
            pred, total_interactions=1_000, checkpoint_every=20, faults=specs
        )
        for row, spec in enumerate(specs):
            sim = CountsSimulation(protocol, init=seeded_counts(n), seed=99 + row)
            twin = spec.make_engine(protocol, n=n)
            twin.measure_availability(
                sim, pred, total_interactions=1_000, checkpoint_every=20
            )
            # Burst positions are a pure function of the schedule stream
            # (never of the trajectory), hence identical across engines
            # even though the trajectories differ.
            assert [e.interaction for e in engine.fault_events(row)] == \
                [e.interaction for e in twin.events]
            assert reports[row].fault_bursts == len(twin.events)


class TestValidation:
    def test_mixed_population_sizes_rejected(self):
        protocol = EpidemicProtocol()
        with pytest.raises(ValueError, match="same population size"):
            BatchCountsEngine(
                protocol,
                init=Replicated((seeded_counts(8), seeded_counts(10)), 2),
            )

    def test_replicated_is_batch_only(self):
        protocol = EpidemicProtocol()
        with pytest.raises(ValueError, match="batch engines"):
            make_simulation(
                protocol, init=Replicated(seeded_counts(8), 2), backend="counts"
            )

    def test_elect_leader_rejected_loudly(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(CountsBackendError, match="batch backend"):
            BatchCountsEngine(elect, n=16)

    def test_engine_drives_exactly_one_workload(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        engine = BatchCountsEngine(
            protocol, init=Replicated(seeded_counts(16), 2), seed=0
        )
        engine.run_rows_until(pred, max_interactions=100, check_interval=10)
        with pytest.raises(RuntimeError, match="already been driven"):
            engine.run_rows_until(pred, max_interactions=100, check_interval=10)

    def test_matrix_mode_has_no_single_trial_surface(self):
        protocol = EpidemicProtocol()
        engine = BatchCountsEngine(
            protocol, init=Replicated(seeded_counts(16), 2), seed=0
        )
        with pytest.raises(ValueError, match="no single-trial surface"):
            engine.run_batch(10)

    def test_faults_list_must_match_rows(self):
        protocol = EpidemicProtocol()
        engine = BatchCountsEngine(
            protocol, init=Replicated(seeded_counts(16), 3), seed=0
        )
        with pytest.raises(ValueError, match="per row"):
            engine.run_rows_until(
                epidemic_pred(protocol), max_interactions=100,
                faults=[None],
            )


class TestTrialRunnerHook:
    def test_specs_must_share_the_workload(self):
        from repro.sim.parallel import TrialSpec

        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        specs = [
            TrialSpec(index=0, protocol=protocol, predicate=pred, seed=1,
                      max_interactions=100, check_interval=1, n=8),
            TrialSpec(index=1, protocol=protocol, predicate=pred, seed=2,
                      max_interactions=200, check_interval=1, n=8),
        ]
        with pytest.raises(ValueError, match="share"):
            run_trial_batch(specs)

    def test_clean_rows_fill_in_for_missing_inits(self):
        from repro.sim.parallel import TrialSpec

        protocol = PairwiseElimination(8)
        pred = goal_counts_predicate(protocol)
        specs = [
            TrialSpec(index=i, protocol=protocol, predicate=pred,
                      seed=derive_seed(0, i), max_interactions=10_000,
                      check_interval=10, n=8)
            for i in range(3)
        ]
        outcomes = run_trial_batch(specs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.converged for o in outcomes)

    def test_batch_backend_summary_matches_trials_statistically(self):
        # T > 1 shares one stream, so values differ from per-trial runs
        # bit-wise but the workload shape must hold: every epidemic
        # completes, with plausible interaction counts.
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        summary = run_trials(
            protocol, pred, n=64, trials=16, max_interactions=50_000,
            seed=0, check_interval=16, init=seeded_counts(64), backend="batch",
        )
        assert summary.trials == 16 and summary.converged == 16
        assert all(0 < t <= 50_000 for t in summary.interactions)


class TestStepInstrumentation:
    """The per-step wall-clock breakdown is opt-in and observation-only."""

    def _engine(self, seed: int = 7) -> BatchCountsEngine:
        protocol = EpidemicProtocol()
        return BatchCountsEngine(
            protocol, init=Replicated(seeded_counts(200), 8), seed=seed
        )

    def test_breakdown_covers_every_phase(self):
        engine = self._engine()
        timings = engine.instrument_steps()
        assert set(timings) == set(BatchCountsEngine.STEP_PHASES)
        engine.run_rows_until(
            epidemic_pred(engine.protocol), max_interactions=6_000, check_interval=200
        )
        assert sum(timings.values()) > 0.0
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert engine.step_timings is timings

    def test_instrumented_run_is_bit_identical(self):
        # Timing wraps the existing sections; it must never change the
        # draws.  Same seed, with and without instrumentation, bit-equal.
        plain = self._engine()
        timed = self._engine()
        timed.instrument_steps()
        pred = epidemic_pred(plain.protocol)
        plain_outcomes = plain.run_rows_until(
            pred, max_interactions=6_000, check_interval=200
        )
        timed_outcomes = timed.run_rows_until(
            pred, max_interactions=6_000, check_interval=200
        )
        assert (plain.counts == timed.counts).all()
        assert plain_outcomes == timed_outcomes


#: Two-sample KS false-alarm rate of each law test below (the tests use
#: fixed seeds, so a pass is reproducible; this is the rate at which a
#: correct sampler would fail under a fresh seed).
KS_ALPHA = 1e-3


def _ks_statistic(xs, ys) -> float:
    """Two-sample KS statistic, exact with ties (CDFs at every sample)."""
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.concatenate((xs, ys))
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(cdf_x - cdf_y).max())


def _ks_threshold(nx: int, ny: int) -> float:
    return math.sqrt(-math.log(KS_ALPHA / 2) / 2) * math.sqrt((nx + ny) / (nx * ny))


#: Never holds: rows run their whole budget and retire at it.
NEVER = counts_aware(lambda config: False, lambda counts: False)


class TestRowLaw:
    """Rows of a ``T > 1`` engine follow the law of independent one-row
    pair-at-a-time oracles (``batching="pair"``), on both samplers."""

    def _oracle(self, protocol, init, budget, trials, statistic, fault=None):
        values = []
        for trial in range(trials):
            oracle = CountsSimulation(
                protocol, init=init, seed=derive_seed(2, trial), batching="pair"
            )
            faults = None if fault is None else [fault(derive_seed(3, trial))]
            oracle.run_rows_until(
                NEVER, max_interactions=budget, check_interval=budget, faults=faults
            )
            values.append(statistic(oracle.counts[0]))
        return values

    def test_lockstep_rows_match_the_pair_oracle(self):
        # The two-way epidemic mid-spread: the number infected after 150
        # interactions at n=64 (about 25 collision-free runs per row).
        protocol = EpidemicProtocol()
        init, budget, rows = seeded_counts(64), 150, 300
        engine = BatchCountsEngine(protocol, init=Replicated(init, rows), seed=1)
        assert engine._lockstep(rows)
        engine.run_rows_until(NEVER, max_interactions=budget, check_interval=budget)
        batched = engine.counts[:, 1]
        oracle = self._oracle(protocol, init, budget, rows, lambda counts: counts[1])
        assert _ks_statistic(batched, oracle) <= _ks_threshold(rows, rows)

    def test_per_row_rows_under_faults_match_the_pair_oracle(self):
        # loosely_stabilizing at n=16 (S=136) with scramble bursts, two
        # rows per engine: the per-row sampler's regime.  Statistic: the
        # code-weighted state mass after 8 parallel time units from the
        # clean start (timers and leader bits still settling).
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=16))
        assert protocol.num_states() == 136
        init, budget, engines = Clean(16), 128, 100

        def fault(seed):
            return FaultSpec(model="scramble_burst", rate=0.5, burst_size=2, seed=seed)

        def mass(counts):
            return int(counts @ np.arange(136))

        batched = []
        for index in range(engines):
            engine = BatchCountsEngine(
                protocol, init=Replicated(init, 2), seed=derive_seed(4, index)
            )
            assert not engine._lockstep(2)
            specs = [fault(derive_seed(5, 2 * index + row)) for row in range(2)]
            engine.run_rows_until(
                NEVER, max_interactions=budget, check_interval=budget, faults=specs
            )
            batched.extend(mass(counts) for counts in engine.counts)
        oracle = self._oracle(protocol, init, budget, 2 * engines, mass, fault)
        assert _ks_statistic(batched, oracle) <= _ks_threshold(2 * engines, 2 * engines)


class TestWideStateMemory:
    def test_wide_state_engine_never_builds_the_pair_delta(self):
        # At S=334 the (S², S) int64 pair-delta matrix would be 298 MB;
        # only the lockstep sampler's matching path (S(S-1) <= sqrt(n))
        # reads it, so a wide-S engine must never allocate it.
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=1000))
        assert protocol.num_states() == 334
        transition_table_for(protocol)  # the cached table is not the engine's
        tracemalloc.start()
        try:
            engine = BatchCountsEngine(protocol, init=Replicated(Clean(1000), 2), seed=3)
            engine.run_rows_until(
                goal_counts_predicate(protocol), max_interactions=1_500, check_interval=250
            )
            engine._step_rows([0, 1], [200, 200])  # the lockstep shuffle path too
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "_pair_delta" not in vars(engine)
        assert peak < 16 * 2**20
