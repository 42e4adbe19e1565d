"""repro.obs — the tracing substrate (see README "Observability").

One package owns every wall-clock read and every trace emission in the
repository (enforced statically by lint rule L007):

* :mod:`repro.obs.tracing` — nested spans on monotonic clocks, the
  ``REPRO_TRACE`` JSONL sink, the shared no-op tracer when disabled,
  and :class:`SpanBuffer` for shipping worker spans across the process
  boundary;
* :mod:`repro.obs.metrics` — the shared ``instrument_steps`` breakdown
  formatter;
* :mod:`repro.obs.trace_io` — trace loading, the ``repro trace``
  summary, and Chrome trace-event export.

Tracing never touches an RNG stream: traced and untraced runs are
bit-identical on every backend.
"""

from repro.obs.metrics import step_breakdown_rows
from repro.obs.trace_io import (
    TraceError,
    load_trace,
    render_summary_text,
    summarize_trace,
    to_chrome_trace,
)
from repro.obs.tracing import (
    NULL_TRACER,
    STEP_PHASES,
    TRACE_ENV,
    NullTracer,
    Span,
    SpanBuffer,
    Tracer,
    configure_tracing,
    get_tracer,
    perf_counter,
)

__all__ = [
    # tracing
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanBuffer",
    "STEP_PHASES",
    "TRACE_ENV",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "perf_counter",
    # step breakdowns
    "step_breakdown_rows",
    # trace IO
    "TraceError",
    "load_trace",
    "render_summary_text",
    "summarize_trace",
    "to_chrome_trace",
]
