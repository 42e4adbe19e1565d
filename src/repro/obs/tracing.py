"""Span tracer: nested spans on monotonic clocks, JSONL sink, no-op off.

This module is the repository's single home for wall-clock reads.  Every
engine and benchmark that needs a timestamp imports :data:`perf_counter`
from here (contract L007 rejects direct ``time.time``/``time.monotonic``/
``time.perf_counter`` calls anywhere else), and every execution surface
reports *where the time went* through spans:

* :func:`get_tracer` returns the process tracer.  With ``REPRO_TRACE``
  unset it is the shared :data:`NULL_TRACER` — ``enabled`` is ``False``
  and ``span()``/``event()`` return one preallocated no-op object, so a
  hot loop pays a single attribute check and nothing else.
* ``REPRO_TRACE=path`` (or the CLI's ``--trace``, which sets the same
  variable so worker processes inherit it) switches to a real
  :class:`Tracer` appending one JSON object per line to ``path``.
  Lines are written whole through an ``O_APPEND`` descriptor, so
  concurrent writers (several processes sharing one sink) interleave
  at line granularity, never mid-record.
* :class:`SpanBuffer` is the cross-process variant: a worker collects
  span records in memory and ships them back with its result, and the
  parent writes them at the reorder buffer's in-order yield point — so
  the trace file order is deterministic even though workers race.

The non-negotiable invariant: tracing never touches an RNG stream and
never changes results.  Spans only read the monotonic clock; traced and
untraced runs are bit-identical on every backend (gated by
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

#: The blessed monotonic clock.  Engines and benchmarks must import it
#: from here (L007), so timing reads are greppable and mockable in one
#: place.
perf_counter = time.perf_counter

#: Environment variable naming the JSONL trace sink.  Empty/unset = off.
TRACE_ENV = "REPRO_TRACE"

#: Canonical per-step phase names shared by every engine's
#: ``instrument_steps`` breakdown (draw pairs / match rows / apply the
#: law / retire converged work).
STEP_PHASES: tuple[str, ...] = ("draw", "match", "apply", "retire")


class _NullSpan:
    """The do-nothing span: one shared instance, zero allocation per use."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def event(self, name: str, **labels: Any) -> None:
        return None

    def annotate(self, **labels: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a preallocated no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **labels: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **labels: Any) -> None:
        return None

    def record_span(
        self, name: str, start: float, duration: float, **labels: Any
    ) -> None:
        return None

    def write_record(self, record: dict) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """A live span: context manager that stamps itself on exit."""

    __slots__ = ("_tracer", "name", "labels", "span_id", "parent_id", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, labels: dict, parent_id: Optional[str]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.labels = labels
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer.write_record(
            {
                "kind": "span",
                "name": self.name,
                "ts": self._start - self._tracer.epoch,
                "dur": end - self._start,
                "pid": os.getpid(),
                "id": self.span_id,
                "parent": self.parent_id,
                "labels": self.labels,
            }
        )

    def event(self, name: str, **labels: Any) -> None:
        """An instant event attributed to this span."""
        self._tracer._emit_event(name, labels, parent=self.span_id)

    def annotate(self, **labels: Any) -> None:
        """Attach labels discovered mid-span (merged into the record)."""
        self.labels.update(labels)


class Tracer:
    """A live tracer appending one JSON record per line to a sink file."""

    enabled = True

    def __init__(self, path: str) -> None:
        self.path = str(path)
        #: Span timestamps are relative to this per-process origin, so a
        #: record never embeds absolute wall-clock (keeps checkpoints'
        #: no-timestamp discipline out of reach of accidental reuse).
        self.epoch = perf_counter()
        self._stack: list[Span] = []
        self._sequence = 0
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def _next_id(self) -> str:
        self._sequence += 1
        return f"{os.getpid()}:{self._sequence}"

    def span(self, name: str, **labels: Any) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, labels, parent)

    def event(self, name: str, **labels: Any) -> None:
        parent = self._stack[-1].span_id if self._stack else None
        self._emit_event(name, labels, parent=parent)

    def _emit_event(self, name: str, labels: dict, parent: Optional[str]) -> None:
        self.write_record(
            {
                "kind": "event",
                "name": name,
                "ts": perf_counter() - self.epoch,
                "pid": os.getpid(),
                "parent": parent,
                "labels": labels,
            }
        )

    def record_span(
        self, name: str, start: float, duration: float, **labels: Any
    ) -> None:
        """Write a span with explicit endpoints (for reconstructed spans,
        e.g. a sweep cell whose trials landed across the reorder buffer)."""
        self.write_record(
            {
                "kind": "span",
                "name": name,
                "ts": start - self.epoch,
                "dur": duration,
                "pid": os.getpid(),
                "id": self._next_id(),
                "parent": None,
                "labels": labels,
            }
        )

    def write_record(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        # One os.write of a whole line on an O_APPEND descriptor: POSIX
        # appends atomically, so concurrent processes interleave lines,
        # never bytes.
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class SpanBuffer(Tracer):
    """A tracer that buffers records in memory instead of writing a file.

    Workers run their trial under a ``SpanBuffer`` and return
    ``buffer.records`` alongside the result; the parent process writes
    them to the real sink at the reorder buffer's in-order yield, which
    makes the merged trace order a pure function of the work list.
    """

    def __init__(self) -> None:
        self.path = "<buffer>"
        self.epoch = 0.0  # keep worker timestamps on the raw monotonic clock
        self._stack = []
        self._sequence = 0
        self._fd = -1
        self.records: list[dict] = []

    def write_record(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        return None


_tracer: Optional[object] = None
_tracer_key: Optional[str] = None


def get_tracer():
    """The process tracer: a :class:`Tracer` when ``REPRO_TRACE`` names a
    file, else the shared no-op :data:`NULL_TRACER`.  Memoized until the
    environment value changes (see :func:`configure_tracing`)."""
    global _tracer, _tracer_key
    key = os.environ.get(TRACE_ENV) or None
    if _tracer is None or key != _tracer_key:
        if _tracer is not None and isinstance(_tracer, Tracer):
            _tracer.close()
        _tracer = Tracer(key) if key else NULL_TRACER
        _tracer_key = key
    return _tracer


def configure_tracing(path: Optional[str]) -> None:
    """Select the trace sink programmatically (the CLI's ``--trace``).

    Sets/clears ``REPRO_TRACE`` — through the environment on purpose, so
    worker processes spawned later inherit the same sink — and resets the
    memoized tracer.
    """
    if path:
        os.environ[TRACE_ENV] = str(path)
    else:
        os.environ.pop(TRACE_ENV, None)
    get_tracer()
