"""Tests for the scenario-grid sweep engine (grid → stream → JSONL → resume).

The two headline contracts:

* worker count never changes anything — outcomes, aggregate rows, and the
  JSONL bytes are identical for any ``workers`` value;
* a sweep interrupted mid-run (truncated JSONL, partial final line) and
  resumed produces byte-identical results to the uninterrupted sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.sweep import (
    CLEAN,
    NO_FAULTS,
    NO_R,
    GridSpec,
    SweepError,
    aggregate_rows,
    expand_grid,
    load_checkpoint,
    run_scenario,
    run_sweep,
)
from repro.sim.trials import format_table


def small_grid(**overrides) -> GridSpec:
    """A seconds-scale grid mixing the paper protocol and a baseline."""
    settings = dict(
        protocols=("elect_leader", "pairwise_elimination"),
        ns=(8, 10),
        rs=(2,),
        adversaries=(CLEAN, "random_soup"),
        fault_rates=(0.0,),
        trials=2,
        seed=42,
        max_interactions=2_000_000,
        check_interval=500,
    )
    settings.update(overrides)
    return GridSpec(**settings)


class TestGridSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(SweepError, match="unknown protocol"):
            small_grid(protocols=("elect_leader", "nope"))

    def test_rejects_unknown_adversary(self):
        with pytest.raises(SweepError, match="unknown adversary"):
            small_grid(adversaries=("nope",))

    def test_rejects_bad_axis_values(self):
        with pytest.raises(SweepError):
            small_grid(ns=(1,))
        with pytest.raises(SweepError):
            small_grid(rs=(0,))
        with pytest.raises(SweepError):
            small_grid(fault_rates=(-0.1,))
        with pytest.raises(SweepError):
            small_grid(trials=0)
        with pytest.raises(SweepError):
            small_grid(ns=())

    def test_dict_round_trip(self):
        grid = small_grid()
        assert GridSpec.from_dict(grid.to_dict()) == grid


class TestExpandGrid:
    def test_full_product_for_elect_leader(self):
        grid = small_grid(protocols=("elect_leader",), rs=(2, 3))
        specs = expand_grid(grid)
        # 2 ns × 2 rs × 2 adversaries × 1 fault rate × 2 trials
        assert len(specs) == 16
        assert [spec.index for spec in specs] == list(range(16))

    def test_r_beyond_half_n_is_skipped(self):
        grid = small_grid(protocols=("elect_leader",), ns=(8,), rs=(2, 5))
        specs = expand_grid(grid)
        assert {spec.r for spec in specs} == {2}

    def test_baselines_collapse_unsupported_axes(self):
        grid = small_grid(
            protocols=("pairwise_elimination",),
            ns=(8,),
            rs=(1, 2, 4),
            adversaries=(CLEAN, "random_soup"),
            fault_rates=(0.0,),
        )
        specs = expand_grid(grid)
        # One collapsed cell (r and adversary axes both pinned; the
        # object-layout adversary suite doesn't speak this protocol).
        assert len(specs) == grid.trials
        assert all(spec.r == NO_R for spec in specs)
        assert all(spec.adversary == CLEAN for spec in specs)
        assert all(spec.fault_rate == 0.0 for spec in specs)
        assert all(spec.fault_model == NO_FAULTS for spec in specs)

    def test_finite_state_protocols_keep_the_fault_axis(self):
        # Since the backend-generic fault engine, finite-state protocols
        # run the code-space fault models: the fault axis no longer
        # collapses for them (it used to pin rate 0).
        grid = small_grid(
            protocols=("pairwise_elimination",),
            ns=(8,),
            rs=(1,),
            adversaries=(CLEAN,),
            fault_rates=(0.0, 0.5),
            fault_models=("scramble_burst", "crash_reset"),
        )
        specs = expand_grid(grid)
        cells = {(spec.fault_rate, spec.fault_model) for spec in specs}
        assert cells == {
            (0.0, NO_FAULTS),
            (0.5, "scramble_burst"),
            (0.5, "crash_reset"),
        }

    def test_unsupported_fault_model_cells_are_skipped(self):
        # kill_leaders needs a finite encoding; elect_leader has none, so
        # its fault cells survive only under models with an object-layout
        # leg (scramble_burst wraps the classic scrambler).
        grid = small_grid(
            protocols=("elect_leader",),
            ns=(8,),
            adversaries=(CLEAN,),
            fault_rates=(0.0, 0.5),
            fault_models=("scramble_burst", "kill_leaders"),
            max_interactions=20_000,
        )
        specs = expand_grid(grid)
        cells = {(spec.fault_rate, spec.fault_model) for spec in specs}
        assert cells == {(0.0, NO_FAULTS), (0.5, "scramble_burst")}

    def test_unknown_fault_model_is_rejected(self):
        with pytest.raises(SweepError, match="unknown fault model"):
            small_grid(fault_models=("nope",))

    def test_empty_expansion_raises(self):
        with pytest.raises(SweepError, match="no runnable scenarios"):
            expand_grid(small_grid(protocols=("elect_leader",), ns=(4,), rs=(3,)))

    def test_expansion_is_deterministic(self):
        grid = small_grid()
        assert expand_grid(grid) == expand_grid(grid)

    def test_seeds_are_distinct_per_trial(self):
        specs = expand_grid(small_grid())
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)


class TestRunScenario:
    def test_deterministic(self):
        spec = expand_grid(small_grid())[3]
        assert run_scenario(spec) == run_scenario(spec)

    def test_outcome_mirrors_spec(self):
        spec = expand_grid(small_grid())[5]
        outcome = run_scenario(spec)
        assert outcome.index == spec.index
        assert outcome.seed == spec.seed
        assert (outcome.protocol, outcome.n, outcome.r) == (spec.protocol, spec.n, spec.r)
        assert outcome.converged
        assert outcome.parallel_time == outcome.interactions / spec.n

    def test_fault_injection_records_bursts(self):
        grid = small_grid(
            protocols=("elect_leader",),
            ns=(8,),
            adversaries=("random_soup",),
            fault_rates=(0.5,),
            trials=1,
            max_interactions=50_000,
        )
        outcome = run_scenario(expand_grid(grid)[0])
        assert outcome.fault_rate == 0.5
        assert outcome.fault_bursts > 0


class TestWorkerInvariance:
    def test_rows_outcomes_and_jsonl_identical(self, tmp_path):
        grid = small_grid()
        results = {}
        blobs = {}
        for workers in (1, 2, 4):
            path = tmp_path / f"w{workers}.jsonl"
            results[workers] = run_sweep(grid, workers=workers, jsonl_path=path)
            blobs[workers] = path.read_bytes()
        assert results[1].outcomes == results[2].outcomes == results[4].outcomes
        tables = {w: format_table(r.rows) for w, r in results.items()}
        assert tables[1] == tables[2] == tables[4]
        assert blobs[1] == blobs[2] == blobs[4]

    def test_jsonl_schema(self, tmp_path):
        grid = small_grid(protocols=("pairwise_elimination",), ns=(8,), trials=3)
        path = tmp_path / "out.jsonl"
        result = run_sweep(grid, workers=2, jsonl_path=path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "sweep-meta"
        assert meta["grid"] == grid.to_dict()
        trials = [json.loads(line) for line in lines[1:]]
        assert [t["index"] for t in trials] == list(range(len(result.specs)))
        assert all(t["kind"] == "trial" for t in trials)
        assert {"protocol", "n", "r", "adversary", "fault_rate", "seed",
                "converged", "interactions", "parallel_time"} <= set(trials[0])

    def test_sweep_without_jsonl(self):
        grid = small_grid(protocols=("pairwise_elimination",), ns=(8,), trials=2)
        result = run_sweep(grid, workers=2)
        assert len(result.outcomes) == 2
        assert result.rows[0]["success_rate"] == 1.0


class TestResume:
    @pytest.fixture
    def finished(self, tmp_path) -> tuple[GridSpec, Path, bytes, str]:
        grid = small_grid()
        path = tmp_path / "full.jsonl"
        result = run_sweep(grid, workers=2, jsonl_path=path)
        return grid, path, path.read_bytes(), format_table(result.rows)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_truncated_checkpoint_resumes_byte_identically(
        self, finished, tmp_path, workers
    ):
        # The acceptance gate: interrupt mid-run (simulated by truncating
        # the JSONL to a few complete lines plus a partial one, exactly
        # what a killed writer leaves), resume, and compare bytes.
        grid, _, full_bytes, full_table = finished
        lines = full_bytes.split(b"\n")
        truncated = b"\n".join(lines[:5]) + b"\n" + lines[5][:12]
        path = tmp_path / "resumed.jsonl"
        path.write_bytes(truncated)
        result = run_sweep(grid, workers=workers, jsonl_path=path, resume=True)
        assert result.resumed_trials == 4  # meta + 4 complete trial lines
        assert path.read_bytes() == full_bytes
        assert format_table(result.rows) == full_table

    def test_resume_of_complete_sweep_runs_nothing(self, finished):
        grid, path, full_bytes, full_table = finished
        result = run_sweep(grid, workers=1, jsonl_path=path, resume=True)
        assert result.resumed_trials == len(result.specs)
        assert path.read_bytes() == full_bytes
        assert format_table(result.rows) == full_table

    def test_resume_missing_file_starts_fresh(self, finished, tmp_path):
        grid, _, full_bytes, _ = finished
        path = tmp_path / "fresh.jsonl"
        result = run_sweep(grid, workers=2, jsonl_path=path, resume=True)
        assert result.resumed_trials == 0
        assert path.read_bytes() == full_bytes

    def test_existing_file_without_resume_or_force_raises(self, finished):
        grid, path, _, _ = finished
        with pytest.raises(SweepError, match="already exists"):
            run_sweep(grid, workers=1, jsonl_path=path)

    def test_force_overwrites(self, finished):
        grid, path, full_bytes, _ = finished
        result = run_sweep(grid, workers=2, jsonl_path=path, force=True)
        assert result.resumed_trials == 0
        assert path.read_bytes() == full_bytes

    def test_grid_mismatch_is_rejected(self, finished):
        _, path, _, _ = finished
        other = small_grid(seed=43)
        with pytest.raises(SweepError, match="different grid"):
            run_sweep(other, workers=1, jsonl_path=path, resume=True)

    def test_pre_backend_checkpoint_still_resumes(self, finished, tmp_path):
        # Checkpoints written before the backend knob existed carry
        # neither a grid "backend" key nor per-trial "backend" fields;
        # they are object-backend files and must keep resuming.
        grid, _, full_bytes, full_table = finished
        lines = full_bytes.decode().splitlines()
        legacy = []
        for line in lines:
            record = json.loads(line)
            if record["kind"] == "sweep-meta":
                record["grid"].pop("backend")
            else:
                record.pop("backend")
            legacy.append(json.dumps(record, separators=(",", ":")))
        path = tmp_path / "legacy.jsonl"
        path.write_text("\n".join(legacy[:3]) + "\n")
        result = run_sweep(grid, workers=1, jsonl_path=path, resume=True)
        assert result.resumed_trials == 2  # legacy meta + 2 legacy trials
        assert format_table(result.rows) == full_table

    def test_corrupt_interior_line_is_rejected(self, finished, tmp_path):
        grid, _, full_bytes, _ = finished
        lines = full_bytes.split(b"\n")
        lines[2] = b"{garbage"
        path = tmp_path / "corrupt.jsonl"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SweepError, match="corrupt"):
            run_sweep(grid, workers=1, jsonl_path=path, resume=True)

    def test_partial_meta_line_restarts(self, finished, tmp_path):
        grid, _, full_bytes, _ = finished
        path = tmp_path / "stub.jsonl"
        path.write_bytes(full_bytes.split(b"\n")[0][:7])
        result = run_sweep(grid, workers=2, jsonl_path=path, resume=True)
        assert result.resumed_trials == 0
        assert path.read_bytes() == full_bytes

    def test_load_checkpoint_reports_valid_prefix(self, finished):
        grid, path, full_bytes, _ = finished
        specs = expand_grid(grid)
        outcomes, valid_end = load_checkpoint(path, grid, specs)
        assert len(outcomes) == len(specs)
        assert valid_end == len(full_bytes)


class TestAggregateRows:
    def test_rows_follow_grid_order_and_handle_failures(self):
        grid = small_grid(
            protocols=("pairwise_elimination",), ns=(8,), trials=2,
            max_interactions=5,  # guaranteed not to converge
            check_interval=5,
        )
        specs = expand_grid(grid)
        outcomes = [run_scenario(spec) for spec in specs]
        rows = aggregate_rows(specs, outcomes)
        assert len(rows) == 1
        assert rows[0]["success_rate"] == 0.0
        assert str(rows[0]["median_interactions"]) == "nan"


class TestBackendValidation:
    """GridSpec asks the backend registry, not hardcoded name lists."""

    @pytest.mark.parametrize("backend", ["array", "counts"])
    def test_vectorized_backends_reject_elect_leader(self, backend):
        with pytest.raises(SweepError, match=f"cannot run on the '{backend}'"):
            small_grid(protocols=("elect_leader",), backend=backend)

    def test_unknown_backend_lists_known(self):
        with pytest.raises(SweepError, match="unknown backend 'gpu'"):
            small_grid(protocols=("pairwise_elimination",), backend="gpu")

    @pytest.mark.parametrize("backend", ["array", "counts"])
    def test_finite_state_protocols_accepted(self, backend):
        pytest.importorskip("numpy")
        grid = small_grid(
            protocols=("pairwise_elimination", "cai_izumi_wada"), backend=backend
        )
        assert grid.backend == backend


class TestCodeAdversaries:
    """The vectorized (code-space) adversary axis across backends."""

    def test_collapse_rules(self):
        grid = small_grid(
            protocols=("elect_leader", "pairwise_elimination"),
            ns=(8,),
            adversaries=(CLEAN, "scramble", "random_soup"),
        )
        specs = expand_grid(grid)
        by_protocol = {}
        for spec in specs:
            by_protocol.setdefault(spec.protocol, set()).add(spec.adversary)
        # elect_leader speaks the object-layout suite, the finite-state
        # baseline the code-space suite — each collapses the other to clean.
        assert by_protocol["elect_leader"] == {CLEAN, "random_soup"}
        assert by_protocol["pairwise_elimination"] == {CLEAN, "scramble"}

    @pytest.mark.parametrize("backend", ["object", "array", "counts"])
    def test_scramble_scenario_runs_on_every_backend(self, backend):
        pytest.importorskip("numpy")
        grid = small_grid(
            protocols=("cai_izumi_wada",),
            ns=(10,),
            adversaries=("scramble",),
            trials=1,
            backend=backend,
        )
        outcome = run_scenario(expand_grid(grid)[0])
        assert outcome.converged
        assert outcome.backend == backend

    def test_same_seed_same_start_across_backends(self):
        pytest.importorskip("numpy")
        from repro.adversary.initializers import CODE_ADVERSARIES, code_rng
        from repro.sim.sweep import _ADVERSARY_STREAM
        from repro.scheduler.rng import derive_seed

        grids = {
            backend: small_grid(
                protocols=("cai_izumi_wada",), ns=(10,), adversaries=("scramble",),
                trials=1, backend=backend,
            )
            for backend in ("object", "array", "counts")
        }
        specs = {backend: expand_grid(grid)[0] for backend, grid in grids.items()}
        seeds = {spec.seed for spec in specs.values()}
        assert len(seeds) == 1  # same grid seed/index → same child seed
        seed = seeds.pop()
        draw = CODE_ADVERSARIES["scramble"]
        from repro.baselines.cai_izumi_wada import CaiIzumiWada
        from repro.core.params import BaselineParams

        reference = draw(
            CaiIzumiWada(BaselineParams(n=10)),
            code_rng(derive_seed(seed, _ADVERSARY_STREAM)),
            10,
        ).tolist()
        again = draw(
            CaiIzumiWada(BaselineParams(n=10)),
            code_rng(derive_seed(seed, _ADVERSARY_STREAM)),
            10,
        ).tolist()
        assert reference == again


class TestFaultCells:
    """Fault cells run the availability workload on any backend."""

    def fault_grid(self, **overrides):
        settings = dict(
            protocols=("loosely_stabilizing",),
            ns=(16,),
            adversaries=(CLEAN,),
            fault_rates=(0.0, 0.5),
            fault_models=("scramble_burst", "kill_leaders"),
            trials=2,
            seed=3,
            max_interactions=40_000,
            check_interval=500,
        )
        settings.update(overrides)
        return small_grid(**settings)

    def test_availability_fields_are_first_class(self):
        pytest.importorskip("numpy")
        from repro.sim.sweep import ScenarioOutcome

        specs = expand_grid(self.fault_grid())
        fault_spec = next(spec for spec in specs if spec.fault_rate > 0)
        outcome = run_scenario(fault_spec)
        assert outcome.fault_model == fault_spec.fault_model
        assert outcome.fault_bursts > 0
        assert outcome.availability is not None
        assert 0.0 <= outcome.availability <= 1.0
        # Fault cells run the full budget; convergence means "correct at
        # the final checkpoint".
        assert outcome.interactions == fault_spec.max_interactions
        record = outcome.to_record()
        assert {"fault_model", "availability", "median_repair"} <= set(record)
        assert ScenarioOutcome.from_record(record) == outcome

    def test_fault_free_cells_leave_availability_unset(self):
        specs = expand_grid(self.fault_grid(fault_rates=(0.0,)))
        outcome = run_scenario(specs[0])
        assert outcome.availability is None
        assert outcome.median_repair is None
        assert outcome.fault_model == NO_FAULTS

    @pytest.mark.parametrize("backend", ["object", "array", "counts"])
    def test_fault_cells_run_on_every_backend(self, backend):
        pytest.importorskip("numpy")
        grid = self.fault_grid(
            fault_rates=(0.5,), fault_models=("crash_reset",), trials=1,
            backend=backend,
        )
        outcome = run_scenario(expand_grid(grid)[0])
        assert outcome.backend == backend
        assert outcome.fault_bursts > 0
        assert outcome.availability is not None

    def test_elect_leader_fault_cells_still_run(self):
        pytest.importorskip("numpy")
        grid = self.fault_grid(
            protocols=("elect_leader",), ns=(8,), rs=(2,),
            fault_rates=(0.5,), fault_models=("scramble_burst",), trials=1,
            max_interactions=20_000,
        )
        outcome = run_scenario(expand_grid(grid)[0])
        assert outcome.fault_bursts > 0
        assert outcome.availability is not None

    def test_fault_axis_resume_byte_identical(self, tmp_path):
        pytest.importorskip("numpy")
        grid = self.fault_grid(backend="counts")
        full = tmp_path / "full.jsonl"
        result = run_sweep(grid, workers=1, jsonl_path=full)
        full_bytes = full.read_bytes()
        assert b'"fault_model":"kill_leaders"' in full_bytes
        resumed = tmp_path / "resumed.jsonl"
        resumed.write_bytes(full_bytes[: len(full_bytes) // 3])
        again = run_sweep(grid, workers=2, jsonl_path=resumed, resume=True)
        assert resumed.read_bytes() == full_bytes
        assert again.resumed_trials > 0
        fault_rows = [row for row in result.rows if row["fault_model"] != "-"]
        assert fault_rows
        assert all(row["availability"] != "-" for row in fault_rows)


class TestCountsNativeAdversaries:
    """Counts-native backends draw the O(S) adversary twin (satellite leg)."""

    def scramble_grid(self, backend):
        return small_grid(
            protocols=("cai_izumi_wada",), ns=(10,), adversaries=("scramble",),
            trials=1, backend=backend,
        )

    def test_counts_backend_draws_the_counts_twin(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.adversary.initializers import COUNTS_ADVERSARIES, scrambled_counts

        calls: list[int] = []

        def recording(protocol, generator, n):
            calls.append(n)
            return scrambled_counts(protocol, generator, n)

        monkeypatch.setitem(COUNTS_ADVERSARIES, "scramble", recording)
        outcome = run_scenario(expand_grid(self.scramble_grid("counts"))[0])
        assert calls == [10]
        assert outcome.converged

    def test_legacy_counts_scramble_checkpoint_refuses_resume(self, tmp_path):
        # A pre-fault-engine checkpoint (no "fault_models" grid key) for a
        # counts-backend grid with code-space adversaries drew the codes
        # form; this version draws the counts twin, so resuming would mix
        # two start laws in one file — refuse rather than blend.
        pytest.importorskip("numpy")
        grid = self.scramble_grid("counts")
        path = tmp_path / "legacy.jsonl"
        run_sweep(grid, workers=1, jsonl_path=path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["grid"].pop("fault_models")
        legacy_trials = []
        for line in lines[1:]:
            record = json.loads(line)
            for key in ("fault_model", "availability", "median_repair"):
                record.pop(key)
            legacy_trials.append(json.dumps(record, separators=(",", ":")))
        path.write_text(
            "\n".join([json.dumps(meta, separators=(",", ":")), *legacy_trials[:0]])
            + "\n"
        )
        with pytest.raises(SweepError, match="codes-form start law"):
            run_sweep(grid, workers=1, jsonl_path=path, resume=True)

    def test_other_backends_draw_the_codes_form(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.adversary.initializers import COUNTS_ADVERSARIES

        def explode(protocol, generator, n):  # pragma: no cover - guard
            raise AssertionError("codes-native backend drew the counts twin")

        monkeypatch.setitem(COUNTS_ADVERSARIES, "scramble", explode)
        for backend in ("object", "array"):
            outcome = run_scenario(expand_grid(self.scramble_grid(backend))[0])
            assert outcome.converged


class TestCountsBackendSweep:
    def counts_grid(self, **overrides):
        settings = dict(
            protocols=("cai_izumi_wada", "loosely_stabilizing"),
            ns=(10, 16),
            adversaries=(CLEAN, "scramble"),
            trials=2,
            seed=11,
            max_interactions=2_000_000,
            check_interval=250,
            backend="counts",
        )
        settings.update(overrides)
        return small_grid(**settings)

    def test_end_to_end_with_resume_byte_identical(self, tmp_path):
        pytest.importorskip("numpy")
        grid = self.counts_grid()
        full = tmp_path / "full.jsonl"
        result = run_sweep(grid, workers=1, jsonl_path=full)
        assert all(outcome.converged for outcome in result.outcomes)
        assert all(outcome.backend == "counts" for outcome in result.outcomes)
        full_bytes = full.read_bytes()
        assert b'"backend":"counts"' in full_bytes
        # Kill mid-stream (partial final line) and resume.
        resumed = tmp_path / "resumed.jsonl"
        resumed.write_bytes(full_bytes[: len(full_bytes) * 2 // 5])
        result2 = run_sweep(grid, workers=2, jsonl_path=resumed, resume=True)
        assert resumed.read_bytes() == full_bytes
        assert result2.resumed_trials > 0
        assert [o for o in result2.outcomes] == [o for o in result.outcomes]

    def test_worker_invariance(self, tmp_path):
        pytest.importorskip("numpy")
        grid = self.counts_grid(ns=(10,), adversaries=(CLEAN,))
        tables = []
        for workers in (1, 3):
            result = run_sweep(grid, workers=workers)
            tables.append(format_table(result.rows))
        assert tables[0] == tables[1]


class TestBurstSizeAxis:
    """Burst size is a first-class grid axis (fault cells only)."""

    def burst_grid(self, **overrides):
        settings = dict(
            protocols=("loosely_stabilizing",),
            ns=(16,),
            adversaries=(CLEAN,),
            fault_rates=(0.0, 0.5),
            fault_models=("scramble_burst",),
            burst_sizes=(1, 4),
            trials=1,
            seed=3,
            max_interactions=20_000,
            check_interval=500,
        )
        settings.update(overrides)
        return small_grid(**settings)

    def test_expansion_and_zero_rate_collapse(self):
        specs = expand_grid(self.burst_grid())
        cells = {(spec.fault_rate, spec.burst_size) for spec in specs}
        # Zero-rate cells collapse the burst axis to 1; fault cells sweep it.
        assert cells == {(0.0, 1), (0.5, 1), (0.5, 4)}

    def test_burst_axis_is_last_so_default_grids_expand_unchanged(self):
        base = small_grid()
        with_axis = small_grid(burst_sizes=(1,))
        stripped = [
            {k: v for k, v in spec.__dict__.items() if k != "burst_size"}
            for spec in expand_grid(with_axis)
        ]
        assert stripped == [
            {k: v for k, v in spec.__dict__.items() if k != "burst_size"}
            for spec in expand_grid(base)
        ]

    def test_rejects_bad_burst_sizes(self):
        with pytest.raises(SweepError, match="burst size"):
            small_grid(burst_sizes=(0,))
        with pytest.raises(SweepError, match="burst_sizes"):
            small_grid(burst_sizes=())

    def test_burst_size_reaches_the_fault_engine(self):
        pytest.importorskip("numpy")
        from repro.sim.fault_engine import FaultEngine

        seen: list[int] = []
        original = FaultEngine.__init__

        def recording(self, model, protocol, *, n, rate, burst_size, seed):
            seen.append(burst_size)
            original(self, model, protocol, n=n, rate=rate,
                     burst_size=burst_size, seed=seed)

        specs = [s for s in expand_grid(self.burst_grid()) if s.fault_rate > 0]
        try:
            FaultEngine.__init__ = recording
            for spec in specs:
                run_scenario(spec)
        finally:
            FaultEngine.__init__ = original
        assert sorted(seen) == [1, 4]

    def test_burst_size_in_records_and_rows(self):
        pytest.importorskip("numpy")
        from repro.sim.sweep import ScenarioOutcome

        specs = expand_grid(self.burst_grid())
        spec = next(s for s in specs if s.burst_size == 4)
        outcome = run_scenario(spec)
        record = outcome.to_record()
        assert record["burst_size"] == 4
        assert ScenarioOutcome.from_record(record) == outcome
        # Pre-axis records default to 1.
        del record["burst_size"]
        assert ScenarioOutcome.from_record(record).burst_size == 1
        rows = aggregate_rows(specs, [run_scenario(s) for s in specs])
        by_burst = {row["burst_size"] for row in rows}
        assert by_burst == {"-", 1, 4}

    def test_pre_burst_axis_checkpoint_still_resumes(self, tmp_path):
        # A checkpoint written before the burst axis existed carries no
        # "burst_sizes" grid key: defaulting it keeps the file resumable.
        pytest.importorskip("numpy")
        grid = self.burst_grid(fault_rates=(0.0,), burst_sizes=(1,))
        path = tmp_path / "legacy.jsonl"
        run_sweep(grid, workers=1, jsonl_path=path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["grid"].pop("burst_sizes")
        trials = []
        for line in lines[1:]:
            record = json.loads(line)
            record.pop("burst_size")
            trials.append(json.dumps(record, separators=(",", ":")))
        path.write_text("\n".join([json.dumps(meta, separators=(",", ":")), *trials]) + "\n")
        specs = expand_grid(grid)
        outcomes, _ = load_checkpoint(path, grid, specs)
        assert len(outcomes) == len(specs)


class TestBatchBackendSweep:
    """--backend batch runs whole cells as one counts engine."""

    def batch_grid(self, **overrides):
        settings = dict(
            protocols=("cai_izumi_wada", "loosely_stabilizing"),
            ns=(10, 16),
            adversaries=(CLEAN, "scramble"),
            trials=3,
            seed=11,
            max_interactions=2_000_000,
            check_interval=250,
            backend="batch",
        )
        settings.update(overrides)
        return small_grid(**settings)

    def test_single_trial_cells_match_counts_backend_exactly(self):
        # A one-trial cell is a one-row counts engine with the same seed,
        # so everything but the backend label is bit-identical to the
        # per-trial counts sweep.
        pytest.importorskip("numpy")
        batch = run_sweep(self.batch_grid(trials=1))
        counts = run_sweep(self.batch_grid(trials=1, backend="counts"))
        for b, c in zip(batch.outcomes, counts.outcomes):
            assert b.backend == "batch" and c.backend == "counts"
            assert (b.converged, b.interactions, b.parallel_time) == \
                (c.converged, c.interactions, c.parallel_time)

    def test_end_to_end_with_resume_byte_identical(self, tmp_path):
        pytest.importorskip("numpy")
        grid = self.batch_grid()
        full = tmp_path / "full.jsonl"
        result = run_sweep(grid, workers=1, jsonl_path=full)
        assert all(outcome.converged for outcome in result.outcomes)
        full_bytes = full.read_bytes()
        assert b'"backend":"batch"' in full_bytes
        # Kill mid-stream (partial final line, mid-cell) and resume: the
        # interrupted cell re-runs deterministically and only its missing
        # rows are appended.
        resumed = tmp_path / "resumed.jsonl"
        resumed.write_bytes(full_bytes[: len(full_bytes) * 2 // 5])
        result2 = run_sweep(grid, jsonl_path=resumed, resume=True)
        assert resumed.read_bytes() == full_bytes
        assert result2.resumed_trials > 0
        assert result2.outcomes == result.outcomes

    def test_sweep_is_deterministic_across_runs(self):
        pytest.importorskip("numpy")
        grid = self.batch_grid(ns=(10,), adversaries=(CLEAN,))
        first = run_sweep(grid)
        second = run_sweep(grid)
        assert first.outcomes == second.outcomes

    def test_fault_cells_run_batched(self):
        pytest.importorskip("numpy")
        grid = self.batch_grid(
            protocols=("loosely_stabilizing",), ns=(16,),
            adversaries=(CLEAN,), fault_rates=(0.5,),
            fault_models=("scramble_burst",), burst_sizes=(1, 2),
            trials=2, max_interactions=20_000, check_interval=500,
        )
        result = run_sweep(grid)
        fault_outcomes = [o for o in result.outcomes if o.fault_rate > 0]
        assert fault_outcomes
        assert all(o.fault_bursts > 0 for o in fault_outcomes)
        assert all(o.availability is not None for o in fault_outcomes)
        assert {o.burst_size for o in fault_outcomes} == {1, 2}

    def test_fault_cell_burst_schedules_match_per_trial_engines(self):
        # The per-row burst schedule is a pure function of the spec seed,
        # so the batched sweep and the per-trial counts sweep agree on
        # every row's burst count.
        pytest.importorskip("numpy")
        settings = dict(
            protocols=("loosely_stabilizing",), ns=(16,),
            adversaries=(CLEAN,), fault_rates=(0.5,),
            fault_models=("scramble_burst",),
            trials=2, max_interactions=20_000, check_interval=500,
        )
        batch = run_sweep(self.batch_grid(**settings))
        counts = run_sweep(self.batch_grid(backend="counts", **settings))
        assert [o.fault_bursts for o in batch.outcomes] == \
            [o.fault_bursts for o in counts.outcomes]

    def test_elect_leader_grid_is_rejected_loudly(self):
        with pytest.raises(SweepError, match="batch"):
            small_grid(protocols=("elect_leader",), backend="batch")
