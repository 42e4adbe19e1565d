"""Per-layer attribution for the traced run.

The traced run times calls into the program's public functions from the
benchmark's own files: :func:`instrumented` swaps timing shims in for
the functions below for the duration of one unit and restores them
after; the program's files are untouched.  The engines' own
``instrument_steps()`` phase clocks supply ``step.*``, and everything is
rolled up by :func:`repro.obs.summarize_trace` into total and self time
per span name.

Shims only read the monotonic clock and bump counters, so a traced unit
must reproduce the untraced unit's outputs exactly (the ``repro.obs``
invariant, checked by the worker).

Spans nest by the dynamic call stack, with one rule on top: a span that
runs inside an engine phase (the transition function inside ``apply``,
the convergence predicate inside ``retire``) is filed under that
``step.<phase>`` of the innermost ``engine.drive``, so self times add up
to the unit's wall time without counting the phase twice.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.core import elect_leader
from repro.core.protocol import PopulationProtocol
from repro.obs import STEP_PHASES, summarize_trace
from repro.scheduler.scheduler import CollisionRunSampler
from repro.sim import backends, sweep, trials
from repro.sim.array_backend import ArraySimulation
from repro.sim.batch_backend import BatchCountsEngine
from repro.sim.counts_backend import CountsSimulation
from repro.sim.fault_engine import FAULT_MODELS, FaultEngine
from repro.sim.simulation import Simulation

ROOT = "workload"
DRIVE = "engine.drive"


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric and workloads this layer should move; on
    #: every other workload the prediction is no change.
    moves: str


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("sweep.append_s", "s", "lower",
                "wall_s on elect_faults and batch_wide, by under 1%"),
    LayerMetric("sweep.append_bytes", "count", "lower",
                "wall_s on elect_faults and batch_wide, by under 1%"),
    LayerMetric("sweep.self_s", "s", "lower", "wall_s on elect_faults and batch_wide"),
    LayerMetric("engine.builds", "count", "lower",
                "wall_s and peak_rss_mb on batch_wide; setup_s on reset_1e6"),
    LayerMetric("engine.build_s", "s", "lower",
                "wall_s and peak_rss_mb on batch_wide; setup_s on reset_1e6"),
    LayerMetric("table.builds", "count", "lower",
                "wall_s and peak_rss_mb on batch_wide; setup_s on reset_1e6"),
    LayerMetric("table.build_s", "s", "lower",
                "wall_s and peak_rss_mb on batch_wide; setup_s on reset_1e6"),
    LayerMetric("step.draw_s", "s", "lower", "wall_s on batch_wide and reset_1e6"),
    LayerMetric("step.match_s", "s", "lower", "wall_s on batch_narrow"),
    LayerMetric("step.apply_s", "s", "lower", "wall_s on elect_faults"),
    LayerMetric("step.retire_s", "s", "lower", "wall_s on elect_faults and batch_narrow"),
    LayerMetric("sched.runs", "count", "lower",
                "wall_s on reset_1e6, batch_narrow and batch_wide"),
    LayerMetric("sched.steps", "count", "lower",
                "wall_s on reset_1e6, batch_narrow and batch_wide"),
    LayerMetric("sched.mean_run", "interactions", "higher",
                "wall_s on reset_1e6, batch_narrow and batch_wide"),
    LayerMetric("core.assign_ranks_s", "s", "lower", "wall_s on elect_faults"),
    LayerMetric("core.stable_verify_s", "s", "lower", "wall_s on elect_faults"),
    LayerMetric("core.propagate_reset_s", "s", "lower", "wall_s on elect_faults"),
    LayerMetric("core.safe_checks", "count", "lower", "wall_s on elect_faults"),
    LayerMetric("core.safe_check_s", "s", "lower", "wall_s on elect_faults"),
    LayerMetric("core.hard_resets", "count", "lower", "wall_s on elect_faults"),
    LayerMetric("core.soft_resets", "count", "lower", "wall_s on elect_faults"),
    LayerMetric("fault.bursts", "count", "lower", "wall_s on elect_faults and batch_wide"),
    LayerMetric("fault.apply_s", "s", "lower", "wall_s on elect_faults and batch_wide"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "no end-to-end metric: traced over untraced wall time, minus 1"),
    LayerMetric("trace.unattributed", "ratio", "lower",
                "no end-to-end metric: share of the traced wall time outside every layer"),
)

#: Trace counts that must repeat exactly between runs of one commit.
EXACT_COUNTS = (
    "sched.runs", "sched.steps", "table.builds", "engine.builds", "fault.bursts",
    "core.safe_checks", "core.hard_resets", "core.soft_resets", "sweep.append_bytes",
)


class _Frame:
    __slots__ = ("name", "path")

    def __init__(self, name: str, path: tuple[str, ...]) -> None:
        self.name = name
        self.path = path


class Recorder:
    """Aggregates spans by call path (calls, seconds) and plain counters."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._spans: dict[tuple[str, ...], list] = {}
        self.counts: Counter[str] = Counter()

    def _enter(self, name: str, phase: Optional[str]) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            path: tuple[str, ...] = (name,)
        elif phase is not None and parent.name == DRIVE:
            path = parent.path + (f"step.{phase}", name)
        else:
            path = parent.path + (name,)
        frame = _Frame(name, path)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, seconds: float) -> None:
        self._stack.pop()
        self.add(frame.path, seconds)

    def add(self, path: tuple[str, ...], seconds: float, calls: int = 1) -> None:
        entry = self._spans.setdefault(path, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._enter(name, None)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, perf_counter() - start)

    def timed(self, name: str, fn: Callable, phase: Optional[str] = None) -> Callable:
        """``fn`` under a span; a same-named call nested in it is not
        counted again (e.g. one fault applier delegating to another)."""
        recorder = self

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = recorder._enter(name, phase)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._exit(frame, perf_counter() - start)

        return timed_call

    def drive(self, fn: Callable, engine_of: Callable[[tuple], Any]) -> Callable:
        """An engine driver under :data:`DRIVE`, with the engine's phase
        clocks filed beneath it as ``step.*`` spans."""
        recorder = self

        def driven(*args: Any, **kwargs: Any) -> Any:
            if any(frame.name == DRIVE for frame in recorder._stack):
                return fn(*args, **kwargs)  # the outer drive owns the clocks
            timings = engine_of(args).instrument_steps()
            before = dict(timings)
            frame = recorder._enter(DRIVE, None)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._exit(frame, perf_counter() - start)
                for phase in STEP_PHASES:
                    spent = timings.get(phase, 0.0) - before.get(phase, 0.0)
                    if spent > 0.0:
                        recorder.add(frame.path + (f"step.{phase}",), spent)

        return driven

    def counted(self, fn: Callable, bump: Callable[["Counter[str]", tuple], None]) -> Callable:
        counts = self.counts

        def counted_call(*args: Any, **kwargs: Any) -> Any:
            bump(counts, args)
            return fn(*args, **kwargs)

        return counted_call

    def records(self) -> list[dict]:
        """The aggregated spans as ``repro.obs`` span records."""
        return [
            {
                "kind": "span", "name": path[-1], "ts": 0.0, "dur": seconds,
                "pid": 0, "id": "/".join(path),
                "parent": "/".join(path[:-1]) or None,
                "labels": {"calls": calls},
            }
            for path, (calls, seconds) in self._spans.items()
        ]

    def calls(self, name: str) -> int:
        return sum(calls for path, (calls, _) in self._spans.items() if path[-1] == name)


class _TimedFile:
    """A sweep checkpoint handle whose writes and flushes are spans."""

    def __init__(self, handle: Any, recorder: Recorder) -> None:
        self._handle = handle
        self._counts = recorder.counts
        self.write = recorder.timed("sweep.append", self._write)
        self.flush = recorder.timed("sweep.append", handle.flush)

    def _write(self, text: str) -> int:
        self._counts["sweep.append_bytes"] += len(text.encode("utf-8"))
        return self._handle.write(text)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)

    def __enter__(self) -> "_TimedFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self._handle.close()


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _one_run(counts: Counter, args: tuple) -> None:
    counts["sched.runs"] += 1
    counts["sched.steps"] += 1


def _run_block(counts: Counter, args: tuple) -> None:
    counts["sched.runs"] += int(args[1])
    counts["sched.steps"] += 1


def _tally(key: str) -> Callable[[Counter, tuple], None]:
    def bump(counts: Counter, args: tuple) -> None:
        counts[key] += 1

    return bump


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install every shim for one traced unit; restore the program after."""
    undo: list[Callable[[], None]] = []

    def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = vars(owner)
        if attr in own:
            original = own[attr]
            undo.append(lambda: setattr(owner, attr, original))
        else:
            undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, make(getattr(owner, attr)))

    try:
        patch(sweep, "run_sweep", lambda fn: recorder.timed("sweep.run", fn))
        # run_sweep opens its checkpoint with the builtin; a module global
        # of the same name shadows it for the sweep module alone.
        sweep.open = lambda *args, **kwargs: _TimedFile(builtins.open(*args, **kwargs), recorder)
        undo.append(lambda: delattr(sweep, "open"))
        patch(trials, "run_trials", lambda fn: recorder.timed("trials.run", fn))
        for name in backends.backend_names():
            entry = backends.get_backend(name)
            wrapped = dataclasses.replace(
                entry, factory=recorder.timed("engine.build", entry.factory)
            )
            backends.register_backend(wrapped, replace=True)
            undo.append(lambda entry=entry: backends.register_backend(entry, replace=True))
        for cls in _subclasses(PopulationProtocol):
            if "transition_table" in vars(cls):
                patch(cls, "transition_table", lambda fn: recorder.timed("table.build", fn))
        for engine in (Simulation, ArraySimulation, CountsSimulation):
            patch(engine, "run_until", lambda fn: recorder.drive(fn, lambda a: a[0]))
        for method in ("run_rows_until", "measure_rows_availability"):
            patch(BatchCountsEngine, method, lambda fn: recorder.drive(fn, lambda a: a[0]))
        for method in ("run_until", "measure_availability"):
            patch(FaultEngine, method, lambda fn: recorder.drive(fn, lambda a: a[1]))
        patch(CollisionRunSampler, "next_run_length", lambda fn: recorder.counted(fn, _one_run))
        patch(CollisionRunSampler, "next_run_lengths", lambda fn: recorder.counted(fn, _run_block))
        for function in ("assign_ranks", "stable_verify", "propagate_reset"):
            patch(elect_leader, function,
                  lambda fn, function=function: recorder.timed(f"core.{function}", fn, "apply"))
        leader = elect_leader.ElectLeader
        patch(leader, "is_safe_configuration",
              lambda fn: recorder.timed("core.safe_check", fn, "retire"))
        patch(leader, "trigger", lambda fn: recorder.counted(fn, _tally("core.hard_resets")))
        patch(leader, "_count_soft_reset",
              lambda fn: recorder.counted(fn, _tally("core.soft_resets")))
        for model in FAULT_MODELS.values():
            for applier in ("apply_config", "apply_codes", "apply_counts"):
                patch(model, applier, lambda fn: recorder.timed("fault.apply", fn))
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()


def rollup(recorder: Recorder, scale: float, interactions: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit.

    ``scale`` converts the unit's raw span seconds to seconds at the
    nominal host speed (the same factor as its ``wall_s``).
    """
    summary = summarize_trace(recorder.records())
    rows = {row["name"]: row for row in summary["top_spans"]}

    def seconds(name: str, column: str = "total_s") -> float:
        return rows[name][column] * scale if name in rows else 0.0

    wall = rows[ROOT]["total_s"]
    attributed = sum(row["self_s"] for name, row in rows.items() if name != ROOT)
    counts = recorder.counts
    runs = counts["sched.runs"]
    metrics = {
        "sweep.append_s": seconds("sweep.append"),
        "sweep.append_bytes": counts["sweep.append_bytes"],
        "sweep.self_s": seconds("sweep.run", "self_s"),
        "engine.builds": recorder.calls("engine.build"),
        "engine.build_s": seconds("engine.build"),
        "table.builds": recorder.calls("table.build"),
        "table.build_s": seconds("table.build"),
        "sched.runs": runs,
        "sched.steps": counts["sched.steps"],
        "sched.mean_run": interactions / runs if runs else 0.0,
        "core.safe_checks": recorder.calls("core.safe_check"),
        "core.safe_check_s": seconds("core.safe_check"),
        "core.hard_resets": counts["core.hard_resets"],
        "core.soft_resets": counts["core.soft_resets"],
        "fault.bursts": recorder.calls("fault.apply"),
        "fault.apply_s": seconds("fault.apply"),
        "trace.unattributed": 1.0 - attributed / wall if wall else 1.0,
    }
    for phase in STEP_PHASES:
        metrics[f"step.{phase}_s"] = seconds(f"step.{phase}")
    for function in ("assign_ranks", "stable_verify", "propagate_reset"):
        metrics[f"core.{function}_s"] = seconds(f"core.{function}")
    return metrics
