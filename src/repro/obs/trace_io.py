"""Trace-file loading, summarizing, and Chrome trace-event export.

The sink format (one JSON object per line, written by
:class:`repro.obs.tracing.Tracer`) is deliberately dumb; this module is
where it becomes useful:

* :func:`load_trace` — parse a JSONL trace, failing loudly
  (:class:`TraceError`) on missing or corrupt files;
* :func:`summarize_trace` — top spans by total/self time and per-phase
  tables from ``step.*`` spans;
* :func:`to_chrome_trace` — the Chrome trace-event JSON document
  (``ph: "X"`` complete spans + ``ph: "i"`` instants) that Perfetto and
  ``chrome://tracing`` load directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

__all__ = [
    "TraceError",
    "load_trace",
    "render_summary_text",
    "summarize_trace",
    "to_chrome_trace",
]


class TraceError(Exception):
    """A trace file that cannot be loaded (missing, empty, or corrupt)."""


def load_trace(path) -> list[dict]:
    """Parse a JSONL trace file into its record dicts, in file order."""
    trace_path = Path(path)
    if not trace_path.is_file():
        raise TraceError(f"{trace_path}: no such trace file")
    records: list[dict] = []
    with trace_path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{trace_path}:{lineno}: not a JSON trace record ({error.msg})"
                ) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise TraceError(
                    f"{trace_path}:{lineno}: not a trace record "
                    "(expected an object with a 'kind' field)"
                )
            records.append(record)
    if not records:
        raise TraceError(f"{trace_path}: empty trace (no records)")
    return records


def _span_rows(spans: list[dict]) -> list[dict]:
    """Aggregate spans by name: count, total, and self time (total minus
    the duration of direct children, via the parent links)."""
    child_time: dict[Optional[str], float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span.get("dur", 0.0)
    totals: dict[str, dict] = {}
    for span in spans:
        name = span.get("name", "?")
        entry = totals.setdefault(
            name, {"name": name, "count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span.get("dur", 0.0)
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - child_time.get(span.get("id"), 0.0))
    rows = sorted(totals.values(), key=lambda row: -row["total_s"])
    for row in rows:
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
    return rows


def _phase_rows(spans: list[dict]) -> list[dict]:
    """Per-phase table from ``step.<phase>`` spans (engine breakdowns)."""
    # Imported here to keep trace_io importable without the tracing side
    # of the package having initialized anything.
    from repro.obs.metrics import step_breakdown_rows

    timings: dict[str, float] = {}
    for span in spans:
        name = span.get("name", "")
        if name.startswith("step."):
            phase = name[len("step."):]
            timings[phase] = timings.get(phase, 0.0) + span.get("dur", 0.0)
    return step_breakdown_rows(timings) if timings else []


def summarize_trace(records: list[dict]) -> dict:
    """The summary document behind ``repro trace``."""
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    return {
        "records": len(records),
        "spans": len(spans),
        "events": len(events),
        "processes": sorted({r.get("pid") for r in records if r.get("pid") is not None}),
        "top_spans": _span_rows(spans),
        "step_phases": _phase_rows(spans),
    }


def render_summary_text(summary: dict) -> str:
    """Human rendering of :func:`summarize_trace`'s document."""
    lines = [
        f"trace: {summary['records']} records "
        f"({summary['spans']} spans, {summary['events']} events, "
        f"{len(summary['processes'])} processes)"
    ]
    if summary["top_spans"]:
        lines.append("")
        lines.append(f"{'span':<28} {'count':>7} {'total_s':>10} {'self_s':>10}")
        for row in summary["top_spans"][:15]:
            lines.append(
                f"{row['name']:<28} {row['count']:>7} "
                f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )
    if summary["step_phases"]:
        lines.append("")
        lines.append(f"{'phase':<10} {'seconds':>10} {'share':>7}")
        for row in summary["step_phases"]:
            lines.append(
                f"{row['phase']:<10} {row['seconds']:>10.4f} {row['share']:>7}"
            )
    return "\n".join(lines)


def to_chrome_trace(records: list[dict]) -> dict:
    """The Chrome trace-event document (Perfetto / ``chrome://tracing``).

    Spans become ``ph: "X"`` complete events and instant events become
    ``ph: "i"``; timestamps and durations are microseconds per the
    format, one ``tid`` per source process.
    """
    trace_events = []
    for record in records:
        pid = record.get("pid", 0)
        base = {
            "name": record.get("name", "?"),
            "ts": record.get("ts", 0.0) * 1e6,
            "pid": pid,
            "tid": pid,
            "args": record.get("labels", {}) or {},
        }
        if record.get("kind") == "span":
            trace_events.append(
                {**base, "ph": "X", "dur": record.get("dur", 0.0) * 1e6}
            )
        elif record.get("kind") == "event":
            trace_events.append({**base, "ph": "i", "s": "p"})
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
