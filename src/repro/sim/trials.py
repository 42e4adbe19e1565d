"""Multi-trial experiment runner with w.h.p.-style aggregation.

The paper's guarantees are "with high probability" statements; at finite
``n`` we estimate the corresponding quantiles by running many independent
seeded trials and reporting median / p95 alongside the success rate within
the interaction budget.

Trials are independent by construction (each gets a child seed via
:func:`derive_seed` and, when a per-trial ``init`` factory is supplied,
its own start configuration built in the parent), so execution takes one
of two paths.  A batch engine (``Backend.batch_cells``) runs every trial
as one row of a single engine built through the registry.  Any other
engine runs one spec per trial through
:func:`repro.sim.parallel.stream_ordered`: ``workers=1`` runs in-process
and lazily, ``workers>1`` fans the same specs out over a process pool
with bit-identical results.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.core.protocol import PopulationProtocol
from repro.scheduler.rng import derive_seed
from repro.sim.backends import DEFAULT_BACKEND, get_backend, make_simulation
from repro.sim.initial_state import Clean, InitialState, Replicated
from repro.sim.parallel import TrialSpec, resolve_workers, run_trial, stream_ordered
from repro.sim.simulation import ConfigPredicate

#: The ``init=`` argument of :func:`run_trials`: one shared
#: :class:`InitialState`, or a per-trial factory mapping the trial index
#: to an ``InitialState`` (or ``None`` for a clean start).
InitFactory = Callable[[int], Optional[InitialState]]
TrialsInit = Union[InitialState, InitFactory, None]


@dataclass
class TrialSummary:
    """Aggregated statistics over independent trials of one experiment."""

    label: str
    n: int
    trials: int
    converged: int
    interactions: list[float]
    parallel_times: list[float]

    @property
    def success_rate(self) -> float:
        return self.converged / self.trials if self.trials else 0.0

    @property
    def median_interactions(self) -> float:
        return statistics.median(self.interactions) if self.interactions else float("nan")

    @property
    def median_time(self) -> float:
        return statistics.median(self.parallel_times) if self.parallel_times else float("nan")

    @property
    def p95_time(self) -> float:
        """Nearest-rank 95th percentile: the smallest value whose rank is
        >= ceil(0.95 k).  ``int(0.95 k)`` would return the maximum (p100)
        for any k not divisible by 20 — e.g. rank 19 of 20 is the p95,
        not rank 20."""
        if not self.parallel_times:
            return float("nan")
        ordered = sorted(self.parallel_times)
        rank = min(len(ordered), math.ceil(0.95 * len(ordered)))
        return ordered[rank - 1]

    def as_row(self) -> dict[str, object]:
        return {
            "label": self.label,
            "n": self.n,
            "trials": self.trials,
            "success_rate": round(self.success_rate, 3),
            "median_interactions": self.median_interactions,
            "median_time": round(self.median_time, 2),
            "p95_time": round(self.p95_time, 2),
        }


def run_trials(
    protocol: PopulationProtocol,
    predicate: ConfigPredicate,
    *,
    n: int,
    trials: int,
    max_interactions: int,
    seed: int = 0,
    check_interval: int = 1,
    init: TrialsInit = None,
    label: str = "",
    workers: Optional[int] = 1,
    backend: Optional[str] = None,
) -> TrialSummary:
    """Run ``trials`` independent seeded executions and aggregate.

    Only converged trials contribute to the time statistics; the success
    rate reports how many converged within the interaction budget (the
    empirical stand-in for the paper's w.h.p. qualifier).

    ``workers`` selects the execution substrate: ``1`` (default) runs
    in-process, ``>1`` fans trials out over that many worker processes,
    ``None``/``0`` uses one worker per CPU.  The summary is identical for
    every worker count — each trial is determined by its derived seed, and
    outcomes are aggregated in trial order.

    ``init`` describes each trial's start: ``None`` for a clean
    ``n``-agent start, one :class:`~repro.sim.initial_state.InitialState`
    shared by every trial, or a per-trial factory ``index ->
    Optional[InitialState]`` (adversarial starts use
    :class:`~repro.sim.initial_state.SampledStart`, which ships as an
    ``O(1)`` handle and materializes in whichever representation the
    backend asks for).

    ``backend`` names a registered execution engine
    (:mod:`repro.sim.backends`).  A batch engine (``batch_cells``) runs
    the whole call as the rows of one in-process engine seeded with
    ``derive_seed(seed, 0)``; ``workers`` is irrelevant there — the batch
    engine's row matrix *is* its parallelism.
    """
    engine = get_backend(DEFAULT_BACKEND if backend is None else backend)

    def init_for(index: int) -> Optional[InitialState]:
        if init is None or isinstance(init, InitialState):
            return init
        return init(index)

    def build_spec(index: int) -> TrialSpec:
        start = init_for(index)
        return TrialSpec(
            index=index,
            protocol=protocol,
            predicate=predicate,
            seed=derive_seed(seed, index),
            max_interactions=max_interactions,
            check_interval=check_interval,
            init=start,
            n=None if start is not None else n,
            backend=engine.name,
        )

    if engine.batch_cells and trials > 0:
        # One engine whose rows are the trials (a Replicated start needs
        # at least one row).
        rows = [init_for(index) or Clean(n) for index in range(trials)]
        simulation = make_simulation(
            protocol,
            init=Replicated(rows, trials),
            seed=derive_seed(seed, 0),
            backend=engine.name,
        )
        outcomes = simulation.run_rows_until(
            predicate, max_interactions=max_interactions, check_interval=check_interval
        )
    else:
        # Specs are built lazily, so the sequential path holds one start
        # configuration at a time; one trial never starts a process pool.
        outcomes = stream_ordered(
            map(build_spec, range(trials)),
            run_trial,
            workers=min(resolve_workers(workers), max(trials, 1)),
        )
    interactions: list[float] = []
    times: list[float] = []
    converged = 0
    for outcome in outcomes:
        if outcome.converged:
            converged += 1
            interactions.append(outcome.interactions)
            times.append(outcome.parallel_time)
    return TrialSummary(
        label=label or protocol.name,
        n=n,
        trials=trials,
        converged=converged,
        interactions=interactions,
        parallel_times=times,
    )


def format_table(rows: Sequence[dict[str, object]], title: str = "") -> str:
    """Render aggregated rows as a fixed-width text table (bench output)."""
    if not rows:
        return f"{title}\n(no rows)"
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), max(len(str(row.get(k, ""))) for row in rows)) for k in keys}
    header = "  ".join(str(k).ljust(widths[k]) for k in keys)
    rule = "-" * len(header)
    lines = [title, rule, header, rule] if title else [header, rule]
    for row in rows:
        lines.append("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))
    lines.append(rule)
    return "\n".join(lines)
