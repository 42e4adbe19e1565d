"""Parallel trial execution — fan independent trials out over processes.

The paper's guarantees are w.h.p. statements, so every experiment in this
repository reduces to many independent seeded trials; those trials are
embarrassingly parallel.  This module is the execution substrate under
:func:`repro.sim.trials.run_trials` and :func:`repro.sim.sweep.run_sweep`:

* a :class:`TrialSpec` is a picklable, fully-determined work item — the
  protocol, the convergence predicate, an optional explicit start
  configuration, and a child seed already derived in the parent via
  :func:`repro.scheduler.rng.derive_seed` (so seed derivation never
  depends on which process runs the trial);
* :func:`run_trial` executes one spec and ships back a light-weight
  :class:`TrialOutcome` (no configurations cross the process boundary);
* :func:`stream_ordered` is the one process-pool fan-out: it submits work
  items individually and *yields* each result as soon as it can be
  emitted in item order — a reorder buffer holds early completions, so
  consumers (aggregators, JSONL checkpoint writers, progress lines) see
  exactly the sequential stream for any worker count.

Closures and lambdas do not pickle; an unpicklable item (common in tests
that pass ``lambda config: False``) runs in the parent at submission
time, which is always semantically equivalent, while picklable
neighbours still fan out.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

from repro.core.protocol import PopulationProtocol
from repro.obs import SpanBuffer, get_tracer
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.initial_state import InitialState, require_init
from repro.sim.simulation import ConfigPredicate, run_until


@dataclass
class TrialSpec:
    """One fully-determined trial, picklable for process fan-out.

    ``backend`` names a registered execution engine
    (:mod:`repro.sim.backends`).

    The start configuration is ``init`` — an
    :class:`~repro.sim.initial_state.InitialState`, whose members cover
    every pickle-cost point from full state-object lists down to the
    ``O(S)`` count vectors and ``O(1)`` sampled-adversary handles — or
    ``n`` for a clean start.
    """

    index: int
    protocol: PopulationProtocol
    predicate: ConfigPredicate
    seed: int
    max_interactions: int
    check_interval: int = 1
    init: Optional[InitialState] = None
    n: Optional[int] = None
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        require_init(self.init)


@dataclass
class TrialOutcome:
    """The light-weight per-trial result shipped back from a worker."""

    index: int
    converged: bool
    interactions: int
    parallel_time: float


def run_trial(spec: TrialSpec) -> TrialOutcome:
    """Execute one spec (in whichever process it landed)."""
    result = run_until(
        spec.protocol,
        spec.predicate,
        init=spec.init,
        n=spec.n,
        seed=spec.seed,
        max_interactions=spec.max_interactions,
        check_interval=spec.check_interval,
        backend=spec.backend,
    )
    return TrialOutcome(
        index=spec.index,
        converged=result.converged,
        interactions=result.interactions,
        parallel_time=result.parallel_time,
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None``/``0`` → one per CPU."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be positive (or None/0 for auto), got {workers}")
    return workers


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

_UNPICKLABLE_WARNING = (
    "work item is not picklable (lambda/closure predicate or protocol?); "
    "running it in-process while picklable items keep fanning out"
)


def _run_span_buffered(fn: Callable[[_Item], _Result], span_name: str, item: _Item):
    """Run ``fn(item)`` under a :class:`SpanBuffer` span and ship both back.

    Module-level (so ``partial(_run_span_buffered, fn, name)`` pickles
    wherever ``fn`` does): the worker collects its span records in memory
    — it never opens the sink — and the parent writes them at the reorder
    buffer's in-order yield, labeled with the item index there.  The
    tracer only reads the monotonic clock, so a traced worker's RNG
    streams and results are untouched.
    """
    buffer = SpanBuffer()
    with buffer.span(span_name, worker=os.getpid()):
        result = fn(item)
    return result, buffer.records


def stream_ordered(
    items: Iterable[_Item],
    fn: Callable[[_Item], _Result],
    *,
    workers: Optional[int] = 1,
    window: Optional[int] = None,
    span: Optional[str] = None,
) -> Iterator[_Result]:
    """Apply ``fn`` to ``items`` on a process pool, yielding results in item order.

    Items are submitted individually and each result is yielded as soon
    as every earlier item has been yielded — completions that arrive
    early wait in a reorder buffer, so the yielded stream is identical to
    ``map(fn, items)`` for any worker count.  Consumers can therefore
    checkpoint or aggregate incrementally without giving up determinism.

    ``workers`` and ``window`` are keyword-only (a bare
    ``stream_ordered(items, fn, 8)`` is ambiguous between the two).  Bad
    arguments raise at *call* time, not first-``next`` time — validation
    lives in this plain function, which then hands off to the inner
    generator.

    ``items`` is consumed lazily: at most ``window`` items (default
    ``4 × workers``) are in flight or buffered at once, so arbitrarily
    long sweeps run in O(window) memory.  ``workers`` follows
    :func:`resolve_workers`; ``workers=1`` degenerates to a plain lazy
    ``map``.  An unpicklable item runs in the parent process at
    submission time (with a one-time warning) instead of failing the
    sweep — its result still streams out at its index, but while it runs
    the parent cannot yield earlier completions.

    ``span`` names a per-item tracing span (see :mod:`repro.obs`): when
    tracing is enabled each item's ``fn`` call runs under a span carrying
    a ``worker`` (pid) label, buffered in the worker and written by the
    parent at the in-order yield with the item index added — so the
    trace's span order is deterministic for any worker count, exactly
    like the result stream.  With tracing disabled (the default) ``span``
    costs one attribute check and changes nothing.
    """
    worker_count = resolve_workers(workers)
    if window is not None and window < 1:
        raise ValueError(f"window must be positive, got {window}")
    return _stream_ordered(items, fn, worker_count, window, span)


def _stream_ordered(
    items: Iterable[_Item],
    fn: Callable[[_Item], _Result],
    worker_count: int,
    window: Optional[int],
    span: Optional[str] = None,
) -> Iterator[_Result]:
    tracer = get_tracer()
    traced = span is not None and tracer.enabled
    if worker_count <= 1:
        if traced:
            for index, item in enumerate(items):
                with tracer.span(span, item=index, worker=os.getpid()):
                    result = fn(item)
                yield result
            return
        for item in items:
            yield fn(item)
        return
    # Imported here, so a process that never starts a pool never loads
    # multiprocessing and the thirty-odd modules behind it.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    if window is None:
        window = worker_count * 4
    # With tracing on, the worker call is wrapped so each item's span
    # records ride back with its result; the parent unwraps at the
    # in-order yield below.
    call: Callable[[_Item], Any] = (
        partial(_run_span_buffered, fn, span) if traced else fn
    )

    iterator = enumerate(items)
    pending: dict[Any, int] = {}  # future -> item index
    buffered: dict[int, _Result] = {}  # completed, waiting for their turn
    next_yield = 0
    exhausted = False
    warned = False
    pool = ProcessPoolExecutor(max_workers=worker_count)
    try:
        while True:
            # Top up the in-flight window.  Items are submitted in order, so
            # whenever index k is still unsubmitted nothing above k has been
            # either — the drain below can never starve.
            while not exhausted and len(pending) + len(buffered) < window:
                try:
                    index, item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                # The probe costs one extra serialization per item; the
                # high-volume callers (sweep ScenarioSpecs) submit a few
                # dozen bytes per item.
                try:
                    pickle.dumps(item)
                except Exception:
                    if not warned:
                        warnings.warn(_UNPICKLABLE_WARNING, RuntimeWarning, stacklevel=2)
                        warned = True
                    buffered[index] = call(item)
                else:
                    pending[pool.submit(call, item)] = index
            while next_yield in buffered:
                value = buffered.pop(next_yield)
                if traced:
                    value, records = value
                    for record in records:
                        # SpanBuffer records carry raw monotonic stamps
                        # (epoch 0); rebase onto this tracer's origin and
                        # label with the deterministic item index.
                        record["ts"] = record.get("ts", 0.0) - tracer.epoch
                        record.setdefault("labels", {})["item"] = next_yield
                        tracer.write_record(record)
                yield value
                next_yield += 1
            if exhausted and not pending:
                return
            if pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    buffered[pending.pop(future)] = future.result()
    finally:
        # An abandoned generator (consumer break / error) must not leave
        # worker processes running queued items.
        pool.shutdown(wait=True, cancel_futures=True)

