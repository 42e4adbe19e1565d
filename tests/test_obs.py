"""Tests for ``repro.obs`` — tracing, step breakdowns, and the ``repro trace`` CLI.

The load-bearing contract is the zero-overhead / zero-perturbation law:

* with no sink configured, :func:`get_tracer` returns one shared no-op
  object, so instrumented call sites pay a single attribute check;
* with a sink configured, tracing never touches an RNG stream — traced
  and untraced runs produce **byte-identical** sweep checkpoints on
  every registered backend, and an ``instrument_steps``-instrumented
  drive reaches the exact outcome of the plain one.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.obs import (
    NULL_TRACER,
    STEP_PHASES,
    TRACE_ENV,
    SpanBuffer,
    TraceError,
    Tracer,
    configure_tracing,
    get_tracer,
    load_trace,
    step_breakdown_rows,
    summarize_trace,
    to_chrome_trace,
)
from repro.sim.backends import backend_names, make_simulation
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.fault_engine import make_fault_engine
from repro.sim.initial_state import CountVector
from repro.sim.sweep import CLEAN, PROTOCOLS, GridSpec, run_sweep
from repro.substrates.epidemics import EpidemicProtocol


@pytest.fixture(autouse=True)
def _tracing_off(monkeypatch):
    """Every test starts and ends with tracing disabled (the env var is
    process-global and the tracer is memoized on it)."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    yield
    configure_tracing(None)


def vector_grid(backend: str, **overrides) -> GridSpec:
    """A tiny grid a vectorized backend can run."""
    values = dict(
        protocols=("cai_izumi_wada",),
        ns=(16, 24),
        rs=(2,),
        adversaries=(CLEAN,),
        fault_rates=(0.0,),
        trials=3,
        seed=7,
        max_interactions=200_000,
        check_interval=100,
        backend=backend,
    )
    values.update(overrides)
    return GridSpec(**values)


def grid_for(backend: str) -> GridSpec:
    if backend == "object":
        return vector_grid(backend, protocols=("elect_leader",), ns=(8, 10))
    return vector_grid(backend)


class TestNullTracer:
    def test_disabled_tracer_is_the_shared_noop(self):
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        assert tracer.enabled is False

    def test_null_span_is_one_preallocated_object(self):
        tracer = get_tracer()
        first = tracer.span("a", item=1)
        second = tracer.span("b")
        assert first is second  # no allocation per span when disabled
        with first as span:
            span.event("ignored")
            span.annotate(key="ignored")
        tracer.event("ignored")
        tracer.record_span("ignored", 0.0, 1.0)

    def test_memoized_on_env_value(self, monkeypatch, tmp_path):
        sink = tmp_path / "t.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        tracer = get_tracer()
        assert tracer.enabled and tracer is get_tracer()
        monkeypatch.delenv(TRACE_ENV)
        assert get_tracer() is NULL_TRACER


class TestTracer:
    def test_nested_spans_parent_links_and_order(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        tracer = Tracer(str(sink))
        with tracer.span("outer", item=1) as outer:
            with tracer.span("inner"):
                pass
            outer.event("tick", k=2)
        tracer.close()
        records = load_trace(sink)
        # completion order: inner span, then the event line, then outer
        inner, event, outer_rec = records
        assert [r["name"] for r in records] == ["inner", "tick", "outer"]
        assert outer_rec["parent"] is None
        assert inner["parent"] == outer_rec["id"]
        assert event["kind"] == "event" and event["parent"] == outer_rec["id"]
        assert outer_rec["labels"] == {"item": 1}
        assert outer_rec["dur"] >= inner["dur"] >= 0.0

    def test_annotate_merges_labels(self, tmp_path):
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        with tracer.span("s", a=1) as span:
            span.annotate(b=2)
        tracer.close()
        (record,) = load_trace(tmp_path / "t.jsonl")
        assert record["labels"] == {"a": 1, "b": 2}

    def test_record_span_uses_explicit_endpoints(self, tmp_path):
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        tracer.record_span("cell", tracer.epoch + 1.5, 0.25, cell="x")
        tracer.close()
        (record,) = load_trace(tmp_path / "t.jsonl")
        assert record["ts"] == pytest.approx(1.5)
        assert record["dur"] == pytest.approx(0.25)
        assert record["labels"] == {"cell": "x"}

    def test_span_buffer_collects_in_memory(self):
        buffer = SpanBuffer()
        with buffer.span("work", worker=1):
            pass
        assert len(buffer.records) == 1
        assert buffer.records[0]["name"] == "work"
        # raw monotonic stamps: the parent rebases them at the yield point
        assert buffer.epoch == 0.0


class TestMetrics:
    def test_step_breakdown_rows_canonical_order_and_shares(self):
        rows = step_breakdown_rows({"apply": 3.0, "draw": 1.0, "extra": 0.0})
        assert [row["phase"] for row in rows] == ["draw", "apply", "extra"]
        assert rows[0]["share"] == "25%" and rows[1]["share"] == "75%"
        assert list(STEP_PHASES) == ["draw", "match", "apply", "retire"]


def engine_case(backend: str, protocol, predicate, init=None):
    """``(protocol, predicate, build)`` for the per-backend identity tests:
    ``ElectLeader`` on the object engine, the given finite-state protocol
    on the vectorized ones."""
    n = 64
    if backend == "object":
        protocol = ElectLeader(ProtocolParams(n=n, r=2))
        predicate = protocol.is_safe_configuration
        init = None
    return protocol, predicate, lambda: make_simulation(
        protocol, init=init, n=None if init is not None else n, seed=3, backend=backend
    )


def native_state(sim):
    """The engine's whole state in its native form: the object
    configuration, the array ``codes`` or the counts matrix."""
    for name in ("counts", "codes"):
        if hasattr(sim, name):
            return getattr(sim, name).tolist()
    return list(sim.config)


class TestBitIdentity:
    """Tracing (and the phase clocks behind it) never changes results —
    the observability invariant, per backend."""

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_instrumented_run_matches_plain(self, backend):
        epidemic = EpidemicProtocol()
        _, predicate, build = engine_case(
            backend, epidemic, goal_counts_predicate(epidemic), CountVector([63, 1])
        )
        plain_sim = build()
        plain = plain_sim.run_until(predicate, max_interactions=50_000, check_interval=64)
        instrumented_sim = build()
        timings = instrumented_sim.instrument_steps()
        traced = instrumented_sim.run_until(
            predicate, max_interactions=50_000, check_interval=64
        )
        assert traced.interactions == plain.interactions
        assert traced.converged == plain.converged
        assert native_state(instrumented_sim) == native_state(plain_sim)
        assert set(timings) == set(STEP_PHASES)
        assert sum(timings.values()) > 0.0

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_instrumented_fault_drivers_match_plain(self, backend):
        # Bursts land between run_batch calls, so the fault drivers are
        # where an instrumented loop that reorders its draws would show;
        # Cai-Izumi-Wada keeps moving under bursts (an epidemic absorbs).
        protocol, predicate, build = engine_case(
            backend, *PROTOCOLS["cai_izumi_wada"].build(64, 2)
        )

        def drive(driver: str, instrumented: bool):
            sim = build()
            if instrumented:
                sim.instrument_steps()
            engine = make_fault_engine(
                "scramble_burst", protocol, n=sim.n, rate=1.0, burst_size=2, seed=5
            )
            if driver == "run_until":
                result = engine.run_until(
                    sim, predicate, max_interactions=20_000, check_interval=500
                )
                outcome = (result.converged, result.interactions)
            else:
                report = engine.measure_availability(
                    sim, predicate, total_interactions=20_000, checkpoint_every=500
                )
                outcome = (report.available_checkpoints, report.repair_times)
            return outcome, engine.events, native_state(sim), sim.step_timings

        for driver in ("run_until", "measure_availability"):
            plain = drive(driver, instrumented=False)
            traced = drive(driver, instrumented=True)
            assert traced[:3] == plain[:3], driver
            assert plain[1], f"{driver}: no burst fired"
            assert sum(traced[3].values()) > 0.0

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_traced_sweep_checkpoint_is_byte_identical(self, backend, tmp_path):
        grid = grid_for(backend)
        plain_out = tmp_path / "plain.jsonl"
        run_sweep(grid, jsonl_path=plain_out)
        configure_tracing(str(tmp_path / "trace.jsonl"))
        traced_out = tmp_path / "traced.jsonl"
        run_sweep(grid, jsonl_path=traced_out)
        configure_tracing(None)
        assert traced_out.read_bytes() == plain_out.read_bytes()
        records = load_trace(tmp_path / "trace.jsonl")
        names = {record["name"] for record in records}
        assert "sweep.checkpoint_append" in names
        assert "sweep.cell" in names
        assert any(name.startswith("step.") for name in names)

    def test_traced_parallel_sweep_matches_serial(self, tmp_path):
        grid = grid_for("object")
        serial_out = tmp_path / "serial.jsonl"
        run_sweep(grid, jsonl_path=serial_out)
        configure_tracing(str(tmp_path / "trace.jsonl"))
        parallel_out = tmp_path / "parallel.jsonl"
        run_sweep(grid, jsonl_path=parallel_out, workers=2)
        configure_tracing(None)
        assert parallel_out.read_bytes() == serial_out.read_bytes()
        records = load_trace(tmp_path / "trace.jsonl")
        trials = [r for r in records if r["name"] == "sweep.trial"]
        assert len(trials) == len(grid.ns) * grid.trials
        # the reorder buffer writes worker spans in deterministic order
        assert [span["labels"]["item"] for span in trials] == sorted(
            span["labels"]["item"] for span in trials
        )


class TestTraceIO:
    def test_load_trace_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no such trace file"):
            load_trace(tmp_path / "absent.jsonl")

    def test_load_trace_corrupt_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"span","name":"a","ts":0,"dur":1}\n{oops\n')
        with pytest.raises(TraceError, match="not a JSON trace record"):
            load_trace(bad)

    def test_load_trace_rejects_non_records_and_empty(self, tmp_path):
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('[1, 2, 3]\n')
        with pytest.raises(TraceError, match="not a trace record"):
            load_trace(wrong)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            load_trace(empty)

    def test_summary_self_time_subtracts_children(self):
        records = [
            {"kind": "span", "name": "inner", "ts": 0.1, "dur": 0.6,
             "pid": 1, "id": "1:2", "parent": "1:1", "labels": {}},
            {"kind": "span", "name": "outer", "ts": 0.0, "dur": 1.0,
             "pid": 1, "id": "1:1", "parent": None, "labels": {}},
        ]
        summary = summarize_trace(records)
        by_name = {row["name"]: row for row in summary["top_spans"]}
        assert by_name["outer"]["total_s"] == pytest.approx(1.0)
        assert by_name["outer"]["self_s"] == pytest.approx(0.4)
        assert by_name["inner"]["self_s"] == pytest.approx(0.6)

    def test_chrome_export_shape(self):
        records = [
            {"kind": "span", "name": "s", "ts": 0.5, "dur": 0.25,
             "pid": 7, "id": "7:1", "parent": None, "labels": {"item": 3}},
            {"kind": "event", "name": "e", "ts": 0.75, "pid": 7,
             "parent": "7:1", "labels": {}},
        ]
        document = to_chrome_trace(records)
        span_event, instant = document["traceEvents"]
        assert span_event["ph"] == "X"
        assert span_event["ts"] == pytest.approx(0.5e6)
        assert span_event["dur"] == pytest.approx(0.25e6)
        assert span_event["pid"] == span_event["tid"] == 7
        assert span_event["args"] == {"item": 3}
        assert instant["ph"] == "i" and instant["s"] == "p"


class TestTraceCLI:
    def run_traced_sweep(self, tmp_path) -> str:
        sink = tmp_path / "sweep.trace.jsonl"
        code = main(
            [
                "sweep", "--protocols", "elect_leader", "--ns", "8",
                "--trials", "2", "--seed", "5", "--out",
                str(tmp_path / "sweep.jsonl"), "--no-progress",
                "--trace", str(sink),
            ]
        )
        assert code == 0
        return str(sink)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["trace", str(bad)])
        assert code == 2
        assert "not a JSON trace record" in capsys.readouterr().err

    def test_text_summary(self, tmp_path, capsys):
        sink = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["trace", sink]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace: ")
        assert "sweep.trial" in out
        assert "draw" in out  # the step-phase table

    def test_json_summary(self, tmp_path, capsys):
        sink = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["trace", sink, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == summary["spans"] + summary["events"]
        assert summary["spans"] > 0
        assert {row["name"] for row in summary["top_spans"]} >= {
            "sweep.trial", "sweep.cell", "sweep.checkpoint_append",
        }

    def test_chrome_export_round_trips(self, tmp_path, capsys):
        sink = self.run_traced_sweep(tmp_path)
        chrome = tmp_path / "chrome.json"
        assert main(["trace", sink, "--chrome", str(chrome)]) == 0
        document = json.loads(chrome.read_text())
        records = load_trace(sink)
        assert len(document["traceEvents"]) == len(records)
        assert {e["name"] for e in document["traceEvents"]} == {
            r["name"] for r in records
        }
