"""The ``batch`` registry entry — a whole sweep cell as one counts engine.

The counts engine (:class:`~repro.sim.counts_backend.CountsSimulation`)
holds ``T`` trials as the rows of one ``(T, S)`` counts matrix;
:data:`BatchCountsEngine` is the same class under the name the batch
backend was introduced with.  Built from a
:class:`~repro.sim.initial_state.Replicated` start it runs a cell's
trials together through its row workloads (``run_rows_until`` /
``measure_rows_availability``), picking the per-row or the lockstep
sampler at every row advance (see
:data:`~repro.sim.counts_backend.ROW_RUN_COST`); stragglers never pay for
finished neighbours, because rows retire as they converge, go silent or
exhaust their budget.

Construction goes through the backend registry
(``make_simulation(backend="batch")``); :func:`run_trial_batch` is the
``Backend.trial_runner`` hook that lets :func:`repro.sim.trials.run_trials`
hand a whole spec list to one engine.
"""

from __future__ import annotations

from repro.sim.counts_backend import CountsSimulation, RowOutcome
from repro.sim.initial_state import Clean, Replicated

#: The counts engine, named for its role as a whole-cell batch runner.
BatchCountsEngine = CountsSimulation


def run_trial_batch(specs, *, engine_factory=None) -> list:
    """Run a list of :class:`~repro.sim.parallel.TrialSpec` as one batch.

    The ``Backend.trial_runner`` implementation behind
    ``run_trials(backend="batch")``: every spec becomes one matrix row,
    driven in-process by a single :class:`BatchCountsEngine` seeded with
    the first spec's derived seed (per-spec seeds still shape per-row
    :class:`~repro.sim.initial_state.SampledStart` draws).  All specs
    must share the protocol, predicate and budgets — which
    ``run_trials``-built specs do by construction.  Outcomes come back
    in spec order, as the process-pool runner's do.

    ``engine_factory`` (default :class:`BatchCountsEngine`) is how other
    batch-shaped engines reuse this runner — the jitted leg registers
    itself with ``engine_factory=JitBatchCountsEngine`` and inherits the
    whole spec-validation/outcome-mapping contract with no conditionals.
    """
    from repro.sim.parallel import TrialOutcome

    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    for spec in specs[1:]:
        if (
            spec.protocol is not first.protocol
            or spec.predicate is not first.predicate
            or spec.max_interactions != first.max_interactions
            or spec.check_interval != first.check_interval
        ):
            raise ValueError(
                "a batch trial run needs every spec to share its protocol, "
                "predicate, max_interactions and check_interval"
            )
    rows = tuple(
        spec.init if spec.init is not None else Clean(spec.n) for spec in specs
    )
    if engine_factory is None:
        engine_factory = BatchCountsEngine
    engine = engine_factory(
        first.protocol,
        init=Replicated(rows, len(rows)),
        seed=first.seed,
    )
    outcomes = engine.run_rows_until(
        first.predicate,
        max_interactions=first.max_interactions,
        check_interval=first.check_interval,
    )
    return [
        TrialOutcome(
            index=spec.index,
            converged=outcome.converged,
            interactions=outcome.interactions,
            parallel_time=outcome.parallel_time,
        )
        for spec, outcome in zip(specs, outcomes)
    ]


__all__ = [
    "BatchCountsEngine",
    "RowOutcome",
    "run_trial_batch",
]
