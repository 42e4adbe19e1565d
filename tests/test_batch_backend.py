"""The trial-vectorized batch counts engine (``backend='batch'``).

Contracts gated here:

* a batch of one **is** the per-trial counts engine, bit for bit — clean,
  from an explicit start, and under fault injection — so the row workloads
  are anchored to the per-trial surface the equivalence suite already
  trusts;
* ``run_trials`` on the batch engine is exactly one registry-built
  engine over a ``Replicated`` start, trial by trial, and agrees with
  ``backend="counts"`` exactly at one trial;
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
* the row driver: each row is checked at its own boundaries, a row
  that exhausts the budget reports it unconverged, and every lockstep
  step serves every live row, never a few stragglers alone;
* the lockstep stream: epidemic rows (traced and untraced), three-state
  rows and availability rows under bursts hash to pinned sha256 digests;
* the sampler rule: ``R`` live rows step in lockstep exactly when
  ``S(S-1) ≤ √n`` and ``R ≥ S - 1``, for every finite-state sweep
  protocol at ``n`` = 16, 10³ and 10⁴;
* the ``T > 1`` law on both samplers: rows agree with independent
  one-row pair-at-a-time oracles by two-sample KS tests, on a cell the
  lockstep sampler serves and one the per-row sampler serves, and one-row
  engines agree with them on a wide, sparsely occupied state space;
  lockstep availability rows under bursts agree with one-row engines
  driven by a per-trial fault engine, burst schedules bit for bit;
* a wide-``S`` engine never builds the ``(S², S)`` pair-delta matrix,
  even with ``S - 1`` rows, and the per-row sampler's jumps build neither
  it nor the lockstep jump tables, and weigh no row above the
  occupied-code cap;
* row-vectorized predicates: the batch engine answers convergence
  through ``on_counts_rows`` (never the scalar form when the vector form
  is present), and every protocol's ``goal_counts_rows`` override agrees
  with its per-row ``goal_counts``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from pair_oracle import PairOracle
from repro.analysis.stats import ks_statistic, ks_threshold
from repro.baselines.cai_izumi_wada import CaiIzumiWada
from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.propagate_reset import ResetEpidemicProtocol
from repro.core.protocol import PopulationProtocol
from repro.scheduler.rng import derive_seed, np_generator
from repro.sim.array_backend import transition_table_for
from repro.sim.backends import make_simulation
from repro.sim.counts_backend import (
    CountsBackendError,
    CountsSimulation,
    counts_aware,
    goal_counts_predicate,
)
from repro.sim.fault_engine import FaultSpec, make_fault_engine
from repro.sim.initial_state import Clean, CountVector, Replicated
from repro.sim.sweep import PROTOCOLS
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
        engine = CountsSimulation(protocol, init=init, seed=11)
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
        engine = CountsSimulation(protocol, init=seeded_counts(32), seed=4)
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
        engine = CountsSimulation(protocol, init=seeded_counts(32), seed=4)
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
        engine = CountsSimulation(
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
        padded = CountsSimulation(
            protocol, init=Replicated((goal, x, goal, y), 4), seed=21
        )
        bare = CountsSimulation(protocol, init=Replicated((x, y), 2), seed=21)
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
        engine = CountsSimulation(protocol, init=Replicated((dead, live), 2), seed=2)
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
        engine = CountsSimulation(
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
        engine = CountsSimulation(
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


class TestRowDriver:
    """Each row is checked at its own boundaries, and every lockstep step
    serves every live row."""

    def test_rows_stop_at_their_own_boundaries_and_no_step_serves_stragglers(
        self, monkeypatch
    ):
        # From 100 infected of n = 2000 every row is in the run regime at
        # once, so row r takes run steps in the first runs[r] lockstep
        # iterations and jump steps after; an iteration that serves only
        # stragglers would draw one more block of run lengths.
        n, rows, budget = 2_000, 200, 11_000
        interval = n // 4
        protocol = EpidemicProtocol()
        goal = goal_counts_predicate(protocol)
        checked = []

        def on_rows(counts_rows):
            checked.append(len(counts_rows))
            return goal.on_counts_rows(counts_rows)

        engine = CountsSimulation(
            protocol, init=Replicated(CountVector([n - 100, 100]), rows), seed=5
        )
        assert engine._matching and engine._lockstep(1)
        runs = np.zeros(rows, dtype=np.int64)
        step_rows, jump_rows = engine._step_rows, engine._jump_rows
        stepping = []

        def counted_steps(idx, remaining):
            stepping.append(idx)
            return step_rows(idx, remaining)

        def counted_runs(block, remaining):
            # The rows the jump step passes on take a run step.
            run = jump_rows(block, remaining)
            runs[stepping[-1] if run is None else stepping[-1][run]] += 1
            return run

        blocks = []
        next_run_lengths = engine._runs.next_run_lengths

        def counted_blocks(count):
            blocks.append(count)
            return next_run_lengths(count)

        monkeypatch.setattr(engine, "_step_rows", counted_steps)
        monkeypatch.setattr(engine, "_jump_rows", counted_runs)
        monkeypatch.setattr(engine._runs, "next_run_lengths", counted_blocks)
        outcomes = engine.run_rows_until(
            counts_aware(goal.on_config, goal.on_counts, on_rows),
            max_interactions=budget,
            check_interval=interval,
        )
        converged = [row for row in outcomes if row.converged]
        exhausted = [row for row in outcomes if not row.converged]
        assert converged and exhausted  # the budget splits the cell
        assert all(row.interactions % interval == 0 for row in converged)
        assert all(row.interactions == budget for row in exhausted)
        assert not any(goal.on_counts(engine.counts[row.row]) for row in exhausted)
        # Every row is checked once per boundary, from 0 to where it stopped.
        assert sum(checked) == sum(row.interactions // interval + 1 for row in outcomes)
        assert len(blocks) <= runs.max() + 1, (len(blocks), runs.max())


class _ApproximateMajority(PopulationProtocol):
    """Opinions 0 and 1 and the blank 2 (three-state approximate
    majority): an opinion blanks a responder of the other opinion and
    recruits a blank one.  Three states take the lockstep sampler from
    n = 36, where its pairing chain runs over more than one code."""

    name = "approximate-majority"

    def initial_state(self):
        return [2]

    def transition(self, u, v, rng):
        if u[0] < 2 and v[0] != u[0]:
            v[0] = u[0] if v[0] == 2 else 2

    def output(self, state):
        return state[0]

    def num_states(self):
        return 3

    def encode_state(self, state):
        return state[0]

    def decode_state(self, code):
        return [code]


def _stream_digest(outcomes, counts) -> str:
    text = json.dumps([[dataclasses.astuple(row) for row in outcomes], counts.tolist()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestLockstepStream:
    """The lockstep sampler's stream, pinned: a sha256 of every row's
    outcome and the final counts must equal constants recorded from an
    earlier implementation, so a rewrite of the lockstep step that moves
    any draw — its order, its arguments, a skipped or an extra call —
    fails here, while a law-preserving refactor that keeps every draw
    passes."""

    #: start infected -> digest of ``run_rows_until`` at n = 2000, 64 rows
    EPIDEMIC = {1: "6c633da528d88841", 100: "ecab69c0a24c2c75"}
    THREE_STATES = "60728b994965e001"
    AVAILABILITY = "291b7de885256883"

    def _epidemic(self, infected, traced=False):
        # From one infected agent rows jump first; from 100 they run at
        # once.  Both run into collisions and jump again near saturation.
        n, rows = 2_000, 64
        protocol = EpidemicProtocol()
        engine = CountsSimulation(
            protocol, init=Replicated(CountVector([n - infected, infected]), rows), seed=11
        )
        assert engine._lockstep(rows)
        if traced:
            engine.instrument_steps()
        outcomes = engine.run_rows_until(
            goal_counts_predicate(protocol), max_interactions=30 * n, check_interval=n // 4
        )
        return _stream_digest(outcomes, engine.counts)

    @pytest.mark.parametrize("infected", sorted(EPIDEMIC))
    def test_epidemic_rows(self, infected):
        assert self._epidemic(infected) == self.EPIDEMIC[infected]

    @pytest.mark.parametrize("infected", sorted(EPIDEMIC))
    def test_traced_epidemic_rows(self, infected):
        assert self._epidemic(infected, traced=True) == self.EPIDEMIC[infected]

    def test_three_state_rows(self):
        n, rows = 2_000, 16
        engine = CountsSimulation(
            _ApproximateMajority(), init=Replicated(CountVector([900, 800, 300]), rows), seed=14
        )
        assert engine._lockstep(rows)
        outcomes = engine.run_rows_until(NEVER, max_interactions=10 * n, check_interval=n // 4)
        assert _stream_digest(outcomes, engine.counts) == self.THREE_STATES

    def test_availability_rows_under_bursts(self):
        n, rows = 200, 16
        protocol = PairwiseElimination(n)
        specs = [
            FaultSpec(model="scramble_burst", rate=0.1, burst_size=2, seed=derive_seed(12, row))
            for row in range(rows)
        ]
        engine = CountsSimulation(protocol, init=Replicated(Clean(n), rows), seed=13)
        assert engine._lockstep(rows)
        reports = engine.measure_rows_availability(
            goal_counts_predicate(protocol),
            total_interactions=40_000,
            checkpoint_every=100,
            faults=specs,
        )
        assert sum(report.fault_bursts for report in reports) > 0
        assert _stream_digest(reports, engine.counts) == self.AVAILABILITY


class TestSamplerRule:
    """The lockstep sampler pairs runs by type counts, ``O(S²)`` generator
    calls a step, so ``R`` live rows take it exactly when ``S(S-1) ≤ √n``
    and ``R ≥ S - 1``; every other multi-row engine runs per row, at any
    ``R``."""

    @pytest.mark.parametrize("n", [16, 1_000, 10_000])
    @pytest.mark.parametrize(
        "name", [name for name, kind in PROTOCOLS.items() if kind.finite_state]
    )
    def test_lockstep_iff_pairing_by_type_counts_and_enough_rows(
        self, name, n, monkeypatch
    ):
        # The rule reads S, n and the row count only, so the engines skip
        # their tables (Cai-Izumi-Wada's at n = 10⁴ is over the table cap).
        monkeypatch.setattr(
            "repro.sim.counts_backend.transition_table_for", lambda protocol: None
        )
        protocol = PROTOCOLS[name].build(n, 1)[0]
        engine = CountsSimulation(protocol, init=Replicated(Clean(n), 2), seed=0)
        size = engine.num_states
        matching = size * (size - 1) <= math.sqrt(n)
        wrong = [
            rows
            for rows in range(1, 10 * size + 1)
            if engine._lockstep(rows) != (matching and rows >= size - 1)
        ]
        assert not wrong, (size, wrong[:5])


class TestValidation:
    def test_mixed_population_sizes_rejected(self):
        protocol = EpidemicProtocol()
        with pytest.raises(ValueError, match="same population size"):
            CountsSimulation(
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
            CountsSimulation(elect, n=16)

    def test_engine_drives_exactly_one_workload(self):
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        engine = CountsSimulation(
            protocol, init=Replicated(seeded_counts(16), 2), seed=0
        )
        engine.run_rows_until(pred, max_interactions=100, check_interval=10)
        with pytest.raises(RuntimeError, match="already been driven"):
            engine.run_rows_until(pred, max_interactions=100, check_interval=10)

    def test_matrix_mode_has_no_single_trial_surface(self):
        protocol = EpidemicProtocol()
        engine = CountsSimulation(
            protocol, init=Replicated(seeded_counts(16), 2), seed=0
        )
        with pytest.raises(ValueError, match="no single-trial surface"):
            engine.run_batch(10)

    def test_faults_list_must_match_rows(self):
        protocol = EpidemicProtocol()
        engine = CountsSimulation(
            protocol, init=Replicated(seeded_counts(16), 3), seed=0
        )
        with pytest.raises(ValueError, match="per row"):
            engine.run_rows_until(
                epidemic_pred(protocol), max_interactions=100,
                faults=[None],
            )


class TestTrialRunnerHook:
    """``run_trials`` on a ``batch_cells`` engine is one registry-built
    engine whose rows are the trials."""

    @pytest.mark.parametrize("backend", ["batch"])
    def test_run_trials_is_one_registry_built_batch(self, backend):
        # Exact, not in law: these 24 rows take the lockstep sampler, so
        # run_trials building anything but one engine over the whole
        # Replicated start fails here.
        protocol = EpidemicProtocol()
        pred = epidemic_pred(protocol)
        rows = [seeded_counts(64)] * 24
        summary = run_trials(
            protocol, pred, n=64, trials=24, max_interactions=50_000,
            seed=3, check_interval=16, init=rows[0], backend=backend,
        )
        engine = make_simulation(
            protocol, init=Replicated(rows, 24), seed=derive_seed(3, 0),
            backend=backend,
        )
        outcomes = engine.run_rows_until(
            pred, max_interactions=50_000, check_interval=16
        )
        assert summary.converged == 24
        assert summary.interactions == [o.interactions for o in outcomes]
        assert summary.parallel_times == [o.parallel_time for o in outcomes]

    def test_clean_rows_fill_in_for_missing_inits(self):
        protocol = PairwiseElimination(8)
        pred = goal_counts_predicate(protocol)
        runs = {
            label: run_trials(
                protocol, pred, n=8, trials=3, max_interactions=10_000,
                seed=0, check_interval=10, init=init, backend="batch",
            )
            for label, init in (("none", lambda index: None), ("clean", Clean(8)))
        }
        assert runs["none"].converged == 3
        assert runs["none"].interactions == runs["clean"].interactions

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

    def _engine(self, seed: int = 7) -> CountsSimulation:
        protocol = EpidemicProtocol()
        return CountsSimulation(
            protocol, init=Replicated(seeded_counts(200), 8), seed=seed
        )

    def test_breakdown_covers_every_phase(self):
        engine = self._engine()
        timings = engine.instrument_steps()
        assert set(timings) == set(CountsSimulation.STEP_PHASES)
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


#: Never holds: rows run their whole budget and retire at it.
NEVER = counts_aware(lambda config: False, lambda counts: False)


class TestRowLaw:
    """Rows follow the law of independent one-row pair-at-a-time oracles
    (:class:`PairOracle`): ``T > 1`` rows on both samplers, and one-row
    engines where most of a wide state space is empty."""

    def _oracle(self, protocol, init, budget, trials, statistic, fault=None):
        values = []
        for trial in range(trials):
            oracle = PairOracle(protocol, init=init, seed=derive_seed(2, trial))
            faults = None if fault is None else [fault(derive_seed(3, trial))]
            oracle.run_rows_until(
                NEVER, max_interactions=budget, check_interval=budget, faults=faults
            )
            values.append(statistic(oracle.counts[0]))
        return values

    def test_lockstep_rows_match_the_pair_oracle(self):
        # The two-way epidemic mid-spread: the number infected after 150
        # interactions at n=64 (about 25 collision-free runs per row).
        # Rows jump while few agents are infected and take run steps
        # after, so the one slice crosses both step kinds.
        protocol = EpidemicProtocol()
        init, budget, rows = seeded_counts(64), 150, 300
        engine = CountsSimulation(protocol, init=Replicated(init, rows), seed=1)
        assert engine._lockstep(rows)
        engine.run_rows_until(NEVER, max_interactions=budget, check_interval=budget)
        batched = engine.counts[:, 1]
        oracle = self._oracle(protocol, init, budget, rows, lambda counts: counts[1])
        assert ks_statistic(batched, oracle) <= ks_threshold(rows, rows, KS_ALPHA)

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
            engine = CountsSimulation(
                protocol, init=Replicated(init, 2), seed=derive_seed(4, index)
            )
            assert not engine._lockstep(2)
            specs = [fault(derive_seed(5, 2 * index + row)) for row in range(2)]
            engine.run_rows_until(
                NEVER, max_interactions=budget, check_interval=budget, faults=specs
            )
            batched.extend(mass(counts) for counts in engine.counts)
        oracle = self._oracle(protocol, init, budget, 2 * engines, mass, fault)
        assert ks_statistic(batched, oracle) <= ks_threshold(2 * engines, 2 * engines, KS_ALPHA)

    def test_one_row_wide_sparse_state_matches_the_pair_oracle(self):
        # The Appendix-C reset epidemic at n=300 (S=313) from one
        # triggered agent: at most a few dozen codes are ever occupied,
        # so the per-row sampler draws over a small support of a wide
        # state space.  Statistic: the code-weighted state mass after two
        # parallel time units, mid-infection.
        protocol = ResetEpidemicProtocol(ProtocolParams(n=300))
        assert protocol.num_states() == 313
        counts = np.zeros(313, dtype=np.int64)
        counts[0] = 299
        counts[protocol.encode_state(protocol.triggered_state())] += 1
        init, budget, trials = CountVector(counts), 600, 200

        def mass(counts):
            return int(counts @ np.arange(313))

        batched = []
        for trial in range(trials):
            engine = CountsSimulation(protocol, init=init, seed=derive_seed(6, trial))
            engine.run_rows_until(NEVER, max_interactions=budget, check_interval=budget)
            batched.append(mass(engine.counts[0]))
        oracle = self._oracle(protocol, init, budget, trials, mass)
        assert ks_statistic(batched, oracle) <= ks_threshold(trials, trials, KS_ALPHA)


    def test_lockstep_availability_under_bursts_matches_per_trial_runs(self):
        # Pairwise elimination at n = 32 from all leaders, with kill_leaders
        # bursts every 640 interactions on average: the rows take the
        # lockstep sampler and stop at their own bursts.  A burst that
        # demotes the last leader leaves a row dead, but its fault stream
        # keeps it stepping.  Statistic: the number of checkpoints with
        # exactly one leader, against one-row counts engines driven by a
        # per-trial FaultEngine under the same specs, whose burst
        # schedules the rows must repeat bit for bit.
        protocol = PairwiseElimination(32)
        correct = goal_counts_predicate(protocol)
        rows, total, every = 240, 4_000, 16
        specs = [
            FaultSpec(model="kill_leaders", rate=0.05, seed=derive_seed(8, row))
            for row in range(rows)
        ]
        engine = CountsSimulation(protocol, init=Replicated(Clean(32), rows), seed=7)
        assert engine._matching and engine._lockstep(rows)
        reports = engine.measure_rows_availability(
            correct, total_interactions=total, checkpoint_every=every, faults=specs
        )
        per_trial = []
        for row, spec in enumerate(specs):
            sim = CountsSimulation(protocol, init=Clean(32), seed=derive_seed(9, row))
            twin = spec.make_engine(protocol, n=32)
            per_trial.append(
                twin.measure_availability(
                    sim, correct, total_interactions=total, checkpoint_every=every
                ).available_checkpoints
            )
            assert [event.interaction for event in engine.fault_events(row)] == \
                [event.interaction for event in twin.events]
        batched = [report.available_checkpoints for report in reports]
        assert len(set(batched)) > 10  # not a degenerate statistic
        assert ks_statistic(batched, per_trial) <= ks_threshold(rows, rows, KS_ALPHA)


class TestWideStateMemory:
    def test_wide_state_engine_never_builds_the_pair_delta(self):
        # At S=334 the (S², S) int64 pair-delta matrix would be 298 MB;
        # only the lockstep sampler (S(S-1) <= sqrt(n)) reads it, so a
        # wide-S engine must never allocate it, even with the S - 1 rows
        # that would step in lockstep on a narrow protocol.
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=1000))
        assert protocol.num_states() == 334
        rows = 333
        transition_table_for(protocol)  # the cached table is not the engine's
        tracemalloc.start()
        try:
            engine = CountsSimulation(protocol, init=Replicated(Clean(1000), rows), seed=3)
            assert not engine._lockstep(rows)
            engine.run_rows_until(
                goal_counts_predicate(protocol), max_interactions=1_500, check_interval=250
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "_pair_delta" not in vars(engine)
        assert peak < 16 * 2**20

    def test_per_row_jumps_never_build_the_pair_tables(self, monkeypatch):
        # One triggered agent among 300 is the per-row sampler's jump
        # regime: it weighs its few occupied codes straight from the
        # table.  The lockstep jump tables would be an (S², S) matrix,
        # 245 MB at S = 313.
        protocol = ResetEpidemicProtocol(ProtocolParams(n=300))
        assert protocol.num_states() == 313
        transition_table_for(protocol)  # the cached table is not the engine's
        start = np.zeros(313, dtype=np.int64)
        start[0] = 299
        start[protocol.encode_state(protocol.triggered_state())] = 1
        tracemalloc.start()
        try:
            engine = CountsSimulation(protocol, init=CountVector(start), seed=3)
            jumps = []
            jump_row = engine._jump_row

            def counted(counts, remaining):
                taken = jump_row(counts, remaining)
                jumps.append(taken is not None)
                return taken

            monkeypatch.setattr(engine, "_jump_row", counted)
            result = engine.run_until(
                goal_counts_predicate(protocol), max_interactions=120_000, check_interval=75
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged and any(jumps)
        assert "_pair_delta" not in vars(engine) and "_jump_pairs" not in vars(engine)
        assert peak < 16 * 2**20

    def test_per_row_sampler_weighs_no_row_above_the_cap(self, monkeypatch):
        from repro.sim.counts_backend import MAX_SILENCE_STATES

        protocol = ResetEpidemicProtocol(ProtocolParams(n=300))
        start = np.zeros(313, dtype=np.int64)
        start[1:101] = 3  # 300 resetters over 100 codes
        assert 100 > MAX_SILENCE_STATES
        engine = CountsSimulation(protocol, init=CountVector(start), seed=3)
        weighed = []
        monkeypatch.setattr(
            engine, "_pair_weights", lambda counts, occupied: weighed.append(occupied.size)
        )
        engine.run_batch(300)
        assert not weighed
        assert (engine.counts[0] != start).any()


def _predicate_protocols():
    return [
        EpidemicProtocol(),
        PairwiseElimination(32),
        LooselyStabilizingLeaderElection(BaselineParams(n=32)),
        CaiIzumiWada(BaselineParams(n=8)),
        ResetEpidemicProtocol(ProtocolParams(n=32, r=2)),
    ]


class TestRowPredicates:
    """``on_counts_rows`` answers whole live sets in one array op."""

    def test_vectorized_form_is_preferred_over_the_scalar_form(self):
        protocol = EpidemicProtocol()
        calls = {"rows": 0, "scalar": 0}

        def on_counts(row):
            calls["scalar"] += 1
            return protocol.goal_counts(row)

        def on_counts_rows(sub):
            calls["rows"] += 1
            return protocol.goal_counts_rows(sub)

        predicate = counts_aware(
            protocol.is_goal_configuration, on_counts, on_counts_rows
        )
        engine = make_simulation(
            protocol, init=Replicated(seeded_counts(100), 6), seed=5, backend="batch"
        )
        engine.run_rows_until(predicate, max_interactions=3000, check_interval=100)
        assert calls["rows"] > 0
        assert calls["scalar"] == 0

    def test_goal_counts_predicate_carries_the_rows_form(self):
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        assert predicate.on_counts_rows is not None
        rows = np.asarray([[0, 5], [3, 2]], dtype=np.int64)
        assert [bool(v) for v in predicate.on_counts_rows(rows)] == [True, False]

    def test_base_default_is_the_per_row_loop(self):
        protocol = EpidemicProtocol()
        rows = np.asarray([[0, 5], [3, 2]], dtype=np.int64)
        assert PopulationProtocol.goal_counts_rows(protocol, rows) == [True, False]

    @pytest.mark.parametrize(
        "protocol", _predicate_protocols(), ids=lambda p: type(p).__name__
    )
    def test_overrides_agree_with_the_scalar_form(self, protocol):
        size = protocol.num_states()
        rng = np_generator(derive_seed(17, size))
        blocks = [
            rng.integers(0, 5, size=(8, size)),
            rng.integers(0, 2, size=(8, size)),
            np.zeros((1, size), dtype=np.int64),
            np.eye(size, dtype=np.int64)[[0, size - 1]],
        ]
        rows = np.concatenate(blocks).astype(np.int64)
        vectorized = [bool(v) for v in np.asarray(protocol.goal_counts_rows(rows)).reshape(-1)]
        scalar = [bool(protocol.goal_counts(row)) for row in rows]
        assert vectorized == scalar
