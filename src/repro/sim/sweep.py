"""Scenario-grid sweeps with streaming JSONL checkpoints and resume.

The paper's claims are sweep-shaped — stabilization time vs. ``n``
(Theorem 1.1), the space/time trade-off vs. ``r``, recovery across
adversarial starts, availability vs. fault rate — so the natural workload
is a Cartesian *grid* of scenarios, each run for many independent seeded
trials.  This module is that workload, end to end:

* :class:`GridSpec` declares the grid: protocols (``ElectLeader_r`` and
  the baseline suite), population sizes, trade-off parameters, adversary
  initializers, fault rates and fault models (the
  :mod:`repro.sim.fault_engine` registry), plus the shared trial budget;
* :func:`expand_grid` expands it into :class:`ScenarioSpec` work items —
  tiny, declarative, trivially picklable records (strings and numbers
  only) with a child seed already derived in the parent, so execution is
  deterministic regardless of which process runs which trial;
* :func:`run_scenario` materializes one spec inside the worker (protocol,
  adversarial start as an :class:`~repro.sim.initial_state.InitialState`,
  fault engine) and runs it to convergence or budget — fault cells run
  the availability workload on whichever backend the grid names, with
  burst size a first-class grid axis, and their
  :class:`~repro.sim.faults.AvailabilityReport` outcomes (availability,
  median repair) are first-class JSONL fields;
* on a batch-cell backend (``--backend batch``) the sweep instead runs
  :func:`run_scenario_cell`: all of a cell's trials become the rows of
  one :class:`~repro.sim.counts_backend.CountsSimulation`, in-process —
  resume still works cell-wise, re-running any
  partially-checkpointed cell deterministically and appending only the
  missing rows;
* :func:`run_sweep` streams the specs through
  :func:`repro.sim.parallel.stream_ordered` — outcomes are re-ordered on
  arrival, appended to a JSONL results file as they land, and aggregated
  into per-scenario rows that are bit-identical to a sequential run for
  any worker count;
* the JSONL file doubles as a checkpoint: :func:`load_checkpoint`
  re-reads it (tolerating a truncated final line from a killed run),
  verifies it against the grid, and :func:`run_sweep` skips the specs it
  already covers — an interrupted large-``n`` sweep continues instead of
  restarting, and the resumed file is byte-identical to an uninterrupted
  one;
* sharding splits a sweep across machines (``repro sweep --shard i/k``):
  :func:`shard_specs` deals the grid's units out round robin — trial
  ``t`` to shard ``t % k``, or on a batch-cell backend, whose lockstep
  rows depend on the whole cell, cell ``c`` (in expansion order) to shard
  ``c % k`` — and each shard's checkpoint holds exactly the unsharded
  run's records for the units it owns.  :func:`merge_checkpoints`
  (``repro merge``) checks that a set of shard files is one complete,
  disjoint partition and writes the byte-identical unsharded file; a
  dead shard is re-run with ``--resume`` and merged again.

Records carry no timestamps or host information on purpose: the file is
a pure function of ``(grid, code)``, which is what makes the byte-level
resume guarantee (and CI's ``cmp`` gate) possible.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import statistics
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.adversary.initializers import ADVERSARIES, CODE_ADVERSARIES
from repro.baselines.cai_izumi_wada import CaiIzumiWada
from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.protocol import PopulationProtocol
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.backends import DEFAULT_BACKEND, get_backend, make_simulation
from repro.sim.counts_backend import counts_aware, goal_counts_predicate
from repro.sim.fault_engine import (
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    FaultSpec,
    get_fault_model,
)
from repro.sim.initial_state import (
    Clean,
    InitialState,
    ObjectConfig,
    Replicated,
    SampledStart,
)
from repro.obs import get_tracer, perf_counter
from repro.sim.parallel import stream_ordered
from repro.sim.simulation import ConfigPredicate
from repro.sim.trials import TrialSummary

#: Adversary name meaning "clean start" (protocol's own initial states).
CLEAN = "clean"

#: Sentinel recorded as ``r`` for protocols without a trade-off parameter.
NO_R = 0

#: Fault-model sentinel for cells whose fault rate is zero (no injection).
NO_FAULTS = "none"

#: Derived-seed stream tags (offsets under a spec's child seed).  The
#: simulation itself uses streams 0 and 1 of its own seed; the adversary
#: and fault streams are derived from the *spec* seed with distinct tags,
#: so all four are independent.
_ADVERSARY_STREAM = 0xAD
_FAULT_STREAM = 0xFA

#: JSONL record kinds.
_META_KIND = "sweep-meta"
_TRIAL_KIND = "trial"
_JSONL_VERSION = 1


class SweepError(RuntimeError):
    """A sweep could not be started or resumed (bad grid, bad checkpoint)."""


def _numpy_available() -> bool:
    """Whether the code-space adversaries' numpy dependency is importable."""
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:  # pragma: no cover - exotic import hooks
        return False


# ---------------------------------------------------------------------------
# Protocol registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolKind:
    """One entry of the sweep's protocol axis.

    ``build(n, r)`` returns the protocol instance and its convergence
    predicate (counts-aware where the protocol has a counts form, so the
    counts backend checks convergence in ``O(S)``).  ``uses_r`` protocols
    sweep the full ``r`` axis (cells with ``r > n/2`` are skipped,
    mirroring :class:`ProtocolParams`); the rest collapse it to a single
    cell recorded with ``r = 0``.  The object-layout adversary
    initializers scramble ``ElectLeader`` state layouts specifically, so
    only ``elect_leader`` supports them (``supports_faults`` marks the
    same layout affinity for the object-layout fault scrambler);
    ``finite_state`` protocols instead support the code-space adversary
    suite (``CODE_ADVERSARIES``) and the code-space fault models
    (:mod:`repro.sim.fault_engine`) on every backend.  Which *backends* can
    run a protocol is not declared here — :class:`GridSpec` asks the
    backend registry (:func:`repro.sim.backends.get_backend`) via a small
    probe instance.
    """

    name: str
    uses_r: bool
    supports_adversaries: bool
    supports_faults: bool
    build: Callable[[int, int], tuple[PopulationProtocol, ConfigPredicate]]
    finite_state: bool = False


def _build_elect_leader(n: int, r: int) -> tuple[PopulationProtocol, ConfigPredicate]:
    protocol = ElectLeader(ProtocolParams(n=n, r=r))
    return protocol, protocol.is_safe_configuration


def _build_pairwise(n: int, r: int) -> tuple[PopulationProtocol, ConfigPredicate]:
    protocol = PairwiseElimination(n)
    return protocol, goal_counts_predicate(protocol)


def _build_cai_izumi_wada(n: int, r: int) -> tuple[PopulationProtocol, ConfigPredicate]:
    protocol = CaiIzumiWada(BaselineParams(n=n))
    # goal_counts ("no rank held twice") is exactly the silence predicate
    # in counts space, so one counts-aware bundle serves every backend.
    return protocol, counts_aware(
        protocol.is_silent_configuration,
        protocol.goal_counts,
        protocol.goal_counts_rows,
    )


def _build_loose(n: int, r: int) -> tuple[PopulationProtocol, ConfigPredicate]:
    protocol = LooselyStabilizingLeaderElection(BaselineParams(n=n))
    return protocol, goal_counts_predicate(protocol)


PROTOCOLS: dict[str, ProtocolKind] = {
    "elect_leader": ProtocolKind(
        "elect_leader", uses_r=True, supports_adversaries=True,
        supports_faults=True, build=_build_elect_leader,
    ),
    "pairwise_elimination": ProtocolKind(
        "pairwise_elimination", uses_r=False, supports_adversaries=False,
        supports_faults=False, build=_build_pairwise, finite_state=True,
    ),
    "cai_izumi_wada": ProtocolKind(
        "cai_izumi_wada", uses_r=False, supports_adversaries=False,
        supports_faults=False, build=_build_cai_izumi_wada, finite_state=True,
    ),
    "loosely_stabilizing": ProtocolKind(
        "loosely_stabilizing", uses_r=False, supports_adversaries=False,
        supports_faults=False, build=_build_loose, finite_state=True,
    ),
}


#: Capability-probe instances (one tiny build per protocol kind): backend
#: support is a property of the protocol *family*, so a small instance
#: answers for the whole axis.  Resource-level limits that only bite at a
#: sweep's largest ``n`` (table-size caps) still fail loudly per trial.
_PROBES: dict[str, PopulationProtocol] = {}


def _probe_protocol(kind: ProtocolKind) -> PopulationProtocol:
    probe = _PROBES.get(kind.name)
    if probe is None:
        probe = kind.build(16, 1)[0]
        _PROBES[kind.name] = probe
    return probe


# ---------------------------------------------------------------------------
# Grid declaration and expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A Cartesian scenario grid plus the shared per-trial budget.

    Axis order is fixed — ``protocol × n × r × adversary × fault_rate ×
    fault_model × burst_size``, then ``trials`` trials per cell — and
    expansion is deterministic, so a grid's global trial indices (and
    therefore its derived seeds and its JSONL checkpoint) are stable
    across runs and processes.  The ``fault_models`` and ``burst_sizes``
    axes only matter for cells with a positive fault rate; zero-rate
    cells collapse them to :data:`NO_FAULTS` and ``1`` (``burst_sizes``
    is the *last* product axis, so default grids expand exactly as they
    did before the axis existed).
    """

    ns: tuple[int, ...]
    rs: tuple[int, ...] = (1,)
    protocols: tuple[str, ...] = ("elect_leader",)
    adversaries: tuple[str, ...] = (CLEAN,)
    fault_rates: tuple[float, ...] = (0.0,)
    trials: int = 5
    seed: int = 0
    max_interactions: int = 20_000_000
    check_interval: int = 1_000
    backend: str = DEFAULT_BACKEND
    fault_models: tuple[str, ...] = (DEFAULT_FAULT_MODEL,)
    burst_sizes: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        try:
            engine = get_backend(self.backend)
        except ValueError as error:
            raise SweepError(str(error)) from None
        for name, values in (
            ("protocols", self.protocols), ("ns", self.ns), ("rs", self.rs),
            ("adversaries", self.adversaries), ("fault_rates", self.fault_rates),
            ("fault_models", self.fault_models), ("burst_sizes", self.burst_sizes),
        ):
            if not values:
                raise SweepError(f"grid axis '{name}' must be non-empty")
        for model in self.fault_models:
            if model not in FAULT_MODELS:
                known = ", ".join(FAULT_MODELS)
                raise SweepError(f"unknown fault model '{model}' (known: {known})")
        if any(rate > 0 for rate in self.fault_rates) and not _numpy_available():
            # The fault engine's burst schedule and corruption laws draw
            # from numpy PCG64 streams on every backend; fail at grid
            # construction rather than mid-sweep in a worker.
            raise SweepError(
                "fault injection (fault_rates > 0) requires numpy "
                "(pip install repro-podc25-leader-election[array])"
            )
        for protocol in self.protocols:
            if protocol not in PROTOCOLS:
                known = ", ".join(sorted(PROTOCOLS))
                raise SweepError(f"unknown protocol '{protocol}' (known: {known})")
            reason = engine.supports(_probe_protocol(PROTOCOLS[protocol]))
            if reason is not None:
                raise SweepError(
                    f"protocol '{protocol}' cannot run on the "
                    f"'{self.backend}' backend: {reason}"
                )
        for adversary in self.adversaries:
            if adversary != CLEAN and adversary not in ADVERSARIES \
                    and adversary not in CODE_ADVERSARIES:
                known = ", ".join([CLEAN, *sorted(ADVERSARIES), *sorted(CODE_ADVERSARIES)])
                raise SweepError(f"unknown adversary '{adversary}' (known: {known})")
            if adversary in CODE_ADVERSARIES and not _numpy_available():
                # Fail at grid construction, not mid-sweep in a worker:
                # the numpy-free object runtime is supported, but the
                # code-space initializers draw with numpy on any backend.
                raise SweepError(
                    f"adversary '{adversary}' requires numpy "
                    "(pip install repro-podc25-leader-election[array])"
                )
        for n in self.ns:
            if n < 2:
                raise SweepError(f"population size must be >= 2, got n={n}")
        for r in self.rs:
            if r < 1:
                raise SweepError(f"trade-off parameter must be >= 1, got r={r}")
        for rate in self.fault_rates:
            if rate < 0:
                raise SweepError(f"fault rate must be >= 0, got {rate}")
        for burst in self.burst_sizes:
            if burst < 1:
                raise SweepError(f"burst size must be >= 1, got {burst}")
        if self.trials < 1:
            raise SweepError(f"trials must be >= 1, got {self.trials}")
        if self.max_interactions < 1 or self.check_interval < 1:
            raise SweepError("max_interactions and check_interval must be positive")

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-round-trippable form (checkpoint fingerprint)."""
        data = asdict(self)
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in data.items()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GridSpec":
        kwargs = dict(data)
        for key in (
            "protocols", "ns", "rs", "adversaries", "fault_rates",
            "fault_models", "burst_sizes",
        ):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined trial of one grid cell.

    Deliberately declarative — names and numbers only — so specs pickle
    in a few bytes and the worker rebuilds the heavyweight objects
    (protocol, adversarial configuration, fault injector) locally from
    the derived seed.
    """

    index: int  # global position in grid expansion order
    protocol: str
    n: int
    r: int  # NO_R (0) for protocols without a trade-off parameter
    adversary: str
    fault_rate: float
    trial: int  # trial number within the scenario
    seed: int  # child seed derived from (grid seed, index) in the parent
    max_interactions: int
    check_interval: int
    backend: str = DEFAULT_BACKEND  # execution engine (registry name)
    fault_model: str = NO_FAULTS  # corruption law for fault_rate > 0 cells
    burst_size: int = 1  # agents corrupted per burst (fault cells)

    @property
    def scenario_key(self) -> tuple[str, int, int, str, float, str, int]:
        """The grid-cell identity (everything but trial/index/seed)."""
        return (
            self.protocol, self.n, self.r, self.adversary,
            self.fault_rate, self.fault_model, self.burst_size,
        )


@dataclass(frozen=True)
class ScenarioOutcome:
    """The per-trial result row appended to the JSONL stream.

    Fault cells (``fault_rate > 0``) run the availability workload and
    carry its first-class outcomes: ``availability`` (fraction of correct
    checkpoints over the full budget), ``median_repair`` (interactions
    from each burst to the first correct checkpoint after it; ``None``
    when no repair was ever observed), with ``converged`` meaning
    "correct at the final checkpoint".  Fault-free cells leave both at
    ``None`` and keep the run-to-convergence semantics.
    """

    index: int
    protocol: str
    n: int
    r: int
    adversary: str
    fault_rate: float
    trial: int
    seed: int
    converged: bool
    interactions: int
    parallel_time: float
    fault_bursts: int = 0
    backend: str = DEFAULT_BACKEND
    fault_model: str = NO_FAULTS
    burst_size: int = 1
    availability: Optional[float] = None
    median_repair: Optional[float] = None

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {"kind": _TRIAL_KIND}
        record.update(asdict(self))
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ScenarioOutcome":
        """The outcome a trial record holds; a missing field is a ``KeyError``."""
        return cls(**{field.name: record[field.name] for field in fields(cls)})


def expand_grid(grid: GridSpec) -> list[ScenarioSpec]:
    """Expand the Cartesian grid into globally-indexed scenario specs.

    Cells that are invalid for their protocol are dropped or collapsed,
    mirroring the ``tradeoff`` sweep: ``elect_leader`` requires
    ``1 <= r <= n/2`` (other ``(n, r)`` pairs are skipped), and a protocol
    that ignores an axis — ``r`` for every baseline, adversaries and fault
    injection for protocols whose state layout the scramblers don't speak —
    contributes one collapsed cell (``r = 0``, clean start, rate ``0``) no
    matter how many values the grid lists, so mixed protocol/baseline
    grids stay expressible.  Raises if nothing survives.
    """
    specs: list[ScenarioSpec] = []
    seen_cells: set[tuple[str, int, int, str, float, str, int]] = set()
    for protocol, n, r, adversary, fault_rate, fault_model, burst_size in itertools.product(
        grid.protocols, grid.ns, grid.rs, grid.adversaries,
        grid.fault_rates, grid.fault_models, grid.burst_sizes,
    ):
        kind = PROTOCOLS[protocol]
        if kind.uses_r:
            if not 1 <= r <= n // 2:
                continue
        else:
            r = NO_R
        if adversary in CODE_ADVERSARIES:
            # Code-space adversaries need the finite encoding; the
            # object-layout suite needs an ElectLeader state layout.
            if not kind.finite_state:
                adversary = CLEAN
        elif not kind.supports_adversaries:
            adversary = CLEAN
        # Fault injection runs wherever some corruption law speaks the
        # protocol: the object-layout scrambler (supports_faults) or the
        # code-space fault models (finite_state).  Cells pairing a model
        # with a protocol it cannot corrupt (e.g. kill_leaders on the
        # encoding-less elect_leader) are skipped, mirroring the r > n/2
        # rule; zero-rate cells collapse the model axis entirely.
        if not (kind.supports_faults or kind.finite_state):
            fault_rate = 0.0
        if fault_rate == 0.0:
            fault_model = NO_FAULTS
            burst_size = 1
        elif get_fault_model(fault_model).supports(_probe_protocol(kind)) is not None:
            continue
        cell = (protocol, n, r, adversary, fault_rate, fault_model, burst_size)
        if cell in seen_cells:  # collapsed axes revisit the same cell
            continue
        seen_cells.add(cell)
        for trial in range(grid.trials):
            index = len(specs)
            specs.append(
                ScenarioSpec(
                    index=index,
                    protocol=protocol,
                    n=n,
                    r=r,
                    adversary=adversary,
                    fault_rate=fault_rate,
                    trial=trial,
                    seed=derive_seed(grid.seed, index),
                    max_interactions=grid.max_interactions,
                    check_interval=grid.check_interval,
                    backend=grid.backend,
                    fault_model=fault_model,
                    burst_size=burst_size,
                )
            )
    if not specs:
        raise SweepError(
            "grid expansion produced no runnable scenarios "
            "(every (n, r) cell violated 1 <= r <= n/2?)"
        )
    return specs


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


#: A shard request: ``(index, count)`` with ``0 <= index < count``.
Shard = tuple[int, int]


def validate_shard(shard: Shard) -> Shard:
    """Normalize and validate an ``(index, count)`` shard request."""
    try:
        index, count = (int(value) for value in shard)
    except (TypeError, ValueError):
        raise SweepError(f"shard must be an (index, count) pair, got {shard!r}") from None
    if count < 1:
        raise SweepError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise SweepError(f"shard index must satisfy 0 <= index < {count}, got {index}")
    return index, count


def parse_shard(text: str) -> Shard:
    """Parse the CLI shard syntax ``"i/k"`` into a validated ``(i, k)`` pair."""
    index_text, _, count_text = text.partition("/")
    try:
        shard = (int(index_text), int(count_text))
    except ValueError:
        raise SweepError(f"shard must look like I/K (e.g. 0/4), got {text!r}") from None
    return validate_shard(shard)


def shard_of(ordinal: int, shard_count: int) -> int:
    """The shard owning unit ``ordinal`` among ``shard_count``: round robin.

    Part of the checkpoint format: it fixes which shard file holds which
    record (the module docstring says what a unit is).
    """
    return ordinal % shard_count


def shard_specs(
    specs: Sequence[ScenarioSpec], shard: Shard, *, by_cell: bool = False
) -> list[ScenarioSpec]:
    """Select the specs one shard owns from a grid's full expansion, in order.

    The units dealt out by :func:`shard_of` are trials, or with
    ``by_cell=True`` (batch-cell backends) whole grid cells.
    """
    index, count = validate_shard(shard)
    units = _iter_cells(specs) if by_cell else ([spec] for spec in specs)
    return [
        spec
        for ordinal, unit in enumerate(units)
        if shard_of(ordinal, count) == index
        for spec in unit
    ]


# ---------------------------------------------------------------------------
# Scenario execution (runs inside the worker process)
# ---------------------------------------------------------------------------


def _scenario_init(spec: ScenarioSpec, protocol: PopulationProtocol) -> Optional[InitialState]:
    """The spec's start configuration as an :class:`InitialState`.

    Code-space adversaries ship as an ``O(1)``
    :class:`~repro.sim.initial_state.SampledStart` handle: the backend
    materializes whichever form is native — counts engines get the
    law-matched ``O(S)`` twin, everyone else the state-code form — from
    a fresh generator on the same derived seed, so the draw matches what
    every engine saw before the ``init=`` redesign.  Object-layout
    adversaries build their configuration eagerly (their initializers
    speak state objects).  ``None`` means a clean ``spec.n``-agent start.
    """
    if spec.adversary in CODE_ADVERSARIES:
        return SampledStart(
            spec.adversary, spec.n, derive_seed(spec.seed, _ADVERSARY_STREAM)
        )
    if spec.adversary != CLEAN:
        adversary_rng = make_rng(derive_seed(spec.seed, _ADVERSARY_STREAM))
        return ObjectConfig(ADVERSARIES[spec.adversary](protocol, adversary_rng))
    return None


def _fault_spec(spec: ScenarioSpec) -> Optional[FaultSpec]:
    """The spec's fault injection as a portable :class:`FaultSpec` (or None)."""
    if spec.fault_rate <= 0:
        return None
    return FaultSpec(
        model=spec.fault_model,
        rate=spec.fault_rate,
        burst_size=spec.burst_size,
        seed=derive_seed(spec.seed, _FAULT_STREAM),
    )


def _outcome(
    spec: ScenarioSpec,
    *,
    converged: bool,
    interactions: int,
    parallel_time: float,
    fault_bursts: int = 0,
    availability: Optional[float] = None,
    median_repair: Optional[float] = None,
) -> ScenarioOutcome:
    return ScenarioOutcome(
        index=spec.index,
        protocol=spec.protocol,
        n=spec.n,
        r=spec.r,
        adversary=spec.adversary,
        fault_rate=spec.fault_rate,
        trial=spec.trial,
        seed=spec.seed,
        converged=converged,
        interactions=interactions,
        parallel_time=parallel_time,
        fault_bursts=fault_bursts,
        backend=spec.backend,
        fault_model=spec.fault_model,
        burst_size=spec.burst_size,
        availability=availability,
        median_repair=median_repair,
    )


def _availability_outcome(spec: ScenarioSpec, report) -> ScenarioOutcome:
    repair = report.median_repair_interactions
    return _outcome(
        spec,
        converged=report.last_checkpoint_correct,
        interactions=spec.max_interactions,
        parallel_time=spec.max_interactions / spec.n,
        fault_bursts=report.fault_bursts,
        availability=round(report.availability, 6),
        median_repair=None if math.isnan(repair) else float(repair),
    )


def _emit_step_spans(tracer, timings, started: float, **labels: Any) -> None:
    """Record an engine's accumulated step-phase seconds as ``step.*`` spans.

    The phases of one drive are emitted as sibling spans sharing the
    drive's start timestamp — their durations (the phase table in
    ``repro trace``) are exact accumulations; only their placement on the
    timeline is collapsed.
    """
    for phase, seconds in timings.items():
        if seconds > 0.0:
            tracer.record_span(f"step.{phase}", started, seconds, **labels)


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Materialize and run one scenario trial (in whichever process it landed).

    Everything stochastic draws from streams derived from ``spec.seed``:
    the simulation's scheduler/transition streams, the adversary's
    configuration stream, and the fault engine's schedule/corruption
    streams — so the outcome is a pure function of the spec.

    Fault cells run the backend-generic availability workload
    (:meth:`repro.sim.fault_engine.FaultEngine.measure_availability`) for
    the full interaction budget, corrupting ``spec.burst_size`` agents
    per burst and sampling the cell's convergence predicate every
    ``check_interval`` interactions; fault-free cells run to convergence
    as before.
    """
    kind = PROTOCOLS[spec.protocol]
    protocol, predicate = kind.build(spec.n, spec.r)
    init = _scenario_init(spec, protocol)
    sim = make_simulation(
        protocol, init=init,
        n=None if init is not None else spec.n,
        seed=spec.seed, backend=spec.backend,
    )
    # With a trace sink configured, collect the engine's step-phase
    # breakdown for this trial.  The instrumented drive only reads the
    # clock around the plain drive's RNG calls, in identical order, so the
    # outcome stays bit-identical (a tier-1 test holds that equality).
    tracer = get_tracer()
    timings = sim.instrument_steps() if tracer.enabled else None
    started = perf_counter() if tracer.enabled else 0.0
    faults = _fault_spec(spec)
    if faults is not None:
        report = faults.make_engine(protocol, n=spec.n).measure_availability(
            sim, predicate,
            total_interactions=spec.max_interactions,
            checkpoint_every=spec.check_interval,
        )
        outcome = _availability_outcome(spec, report)
    else:
        result = sim.run_until(predicate, spec.max_interactions, spec.check_interval)
        outcome = _outcome(
            spec,
            converged=result.converged,
            interactions=result.interactions,
            parallel_time=result.parallel_time,
        )
    if timings is not None:
        _emit_step_spans(tracer, timings, started, item=spec.index)
    return outcome


def run_scenario_cell(specs: Sequence[ScenarioSpec]) -> list[ScenarioOutcome]:
    """Run one grid cell's trials as a single counts engine.

    The batch twin of per-trial :func:`run_scenario`: all of a cell's
    trial specs become the rows of one
    :class:`~repro.sim.counts_backend.CountsSimulation` (built through
    ``make_simulation`` with a
    :class:`~repro.sim.initial_state.Replicated` start), whose rows
    advance together under the engine's sampler rule.  Per-row starts
    and fault schedules still draw from each spec's own derived seed —
    burst positions are bit-identical to the per-trial engine's — while
    the interaction stream is shared (rows are independent and
    distribution-identical to per-trial runs; a one-trial cell is the
    ``backend='counts'`` stream, bit for bit).
    """
    specs = list(specs)
    first = specs[0]
    kind = PROTOCOLS[first.protocol]
    protocol, predicate = kind.build(first.n, first.r)
    rows = tuple(
        _scenario_init(spec, protocol) or Clean(spec.n) for spec in specs
    )
    faults = [_fault_spec(spec) for spec in specs]
    engine = make_simulation(
        protocol,
        init=Replicated(rows, len(rows)),
        seed=first.seed,
        backend=first.backend,
    )
    tracer = get_tracer()
    timings = engine.instrument_steps() if tracer.enabled else None
    started = perf_counter() if tracer.enabled else 0.0
    if first.fault_rate > 0:
        reports = engine.measure_rows_availability(
            predicate,
            total_interactions=first.max_interactions,
            checkpoint_every=first.check_interval,
            faults=faults,
        )
        outcomes = [
            _availability_outcome(spec, report)
            for spec, report in zip(specs, reports)
        ]
    else:
        row_outcomes = engine.run_rows_until(
            predicate,
            max_interactions=first.max_interactions,
            check_interval=first.check_interval,
        )
        outcomes = [
            _outcome(
                spec,
                converged=row.converged,
                interactions=row.interactions,
                parallel_time=row.parallel_time,
            )
            for spec, row in zip(specs, row_outcomes)
        ]
    if timings is not None:
        _emit_step_spans(
            tracer, timings, started,
            cell="/".join(str(part) for part in first.scenario_key),
        )
    return outcomes


# ---------------------------------------------------------------------------
# JSONL checkpoint
# ---------------------------------------------------------------------------


def _dump_line(record: dict[str, Any]) -> str:
    # One canonical encoding — byte-identical files require byte-identical
    # lines, so every writer funnels through here.
    return json.dumps(record, separators=(",", ":"), sort_keys=False) + "\n"


def _meta_record(grid: GridSpec, shard: Optional[Shard] = None) -> dict[str, Any]:
    record: dict[str, Any] = {
        "kind": _META_KIND, "version": _JSONL_VERSION, "grid": grid.to_dict(),
    }
    if shard is not None:
        # Sharded files carry their identity so resume and merge can tell
        # a shard checkpoint from an unsharded one; the key is *absent*
        # (not null) on unsharded files, keeping their bytes unchanged.
        record["shard"] = list(validate_shard(shard))
    return record


def _parse_meta(path: Path, meta: dict[str, Any]) -> tuple[GridSpec, Optional[Shard]]:
    """Validate a decoded metadata record; return its ``(grid, shard)``.

    The grid must name every :class:`GridSpec` field: a checkpoint written
    before the backend, fault-model and burst-size axes existed is refused
    rather than read with guessed defaults.
    """
    if meta.get("kind") != _META_KIND:
        raise SweepError(f"{path}: first line is not a {_META_KIND} record")
    if meta.get("version") != _JSONL_VERSION:
        raise SweepError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    stored_grid = meta.get("grid")
    if not isinstance(stored_grid, dict):
        raise SweepError(f"{path}: metadata record carries no grid")
    missing = [key for key in GRID_FILE_KEYS if key not in stored_grid]
    if missing:
        raise SweepError(
            f"{path}: checkpoint predates the current format (its grid has no "
            f"{', '.join(missing)}); start a fresh output file"
        )
    try:
        grid = GridSpec.from_dict(stored_grid)
    except (TypeError, SweepError) as error:
        raise SweepError(f"{path}: metadata grid does not parse: {error}") from None
    shard = meta.get("shard")
    return grid, validate_shard(tuple(shard)) if shard is not None else None


def read_checkpoint_grid(path: Path) -> tuple[GridSpec, Optional[Shard]]:
    """Read just the metadata line: the grid a checkpoint was written for.

    Returns ``(grid, shard)`` where ``shard`` is the ``(index, count)``
    pair of a sharded checkpoint or ``None`` for an unsharded one.  This
    is the merge validator's first pass — cheap enough to run over every
    shard file before any of them is fully parsed.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    if not first.endswith(b"\n"):
        raise SweepError(f"{path}: no complete metadata line (empty or truncated file)")
    try:
        meta = json.loads(first.decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("not a sweep record")
    except (ValueError, UnicodeDecodeError) as error:
        raise SweepError(f"{path}: corrupt metadata line: {error}") from None
    return _parse_meta(path, meta)


def write_checkpoint(
    path: Path,
    grid: GridSpec,
    outcomes: Sequence[ScenarioOutcome],
    *,
    shard: Optional[Shard] = None,
) -> None:
    """Write a complete checkpoint file in the canonical encoding.

    The metadata line plus one trial record per outcome, in the given
    order — byte-identical to what :func:`run_sweep` streams for the same
    outcomes, which is what lets ``repro merge`` reconstitute an
    unsharded file from validated shard files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_dump_line(_meta_record(grid, shard)))
        for outcome in outcomes:
            handle.write(_dump_line(outcome.to_record()))


#: GridSpec field names accepted by declarative grid files.
GRID_FILE_KEYS: tuple[str, ...] = tuple(field.name for field in fields(GridSpec))

#: Expected JSON shape per grid-file key: (container element type | scalar type).
_GRID_FILE_SCHEMA: dict[str, tuple[bool, type | tuple[type, ...]]] = {
    "protocols": (True, str),
    "ns": (True, int),
    "rs": (True, int),
    "adversaries": (True, str),
    "fault_rates": (True, (int, float)),
    "fault_models": (True, str),
    "burst_sizes": (True, int),
    "trials": (False, int),
    "seed": (False, int),
    "max_interactions": (False, int),
    "check_interval": (False, int),
    "backend": (False, str),
}


def load_grid_file(path: str | Path) -> dict[str, Any]:
    """Read a declarative grid file: JSON with :class:`GridSpec` keys.

    The file is the one artifact every shard of a sweep reads instead of a
    dozen flags (``repro sweep --grid grid.json``); flags still override
    its values.  Returns the validated key/value dict — semantic validation
    (axis contents, backend capability) stays with ``GridSpec`` itself.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise SweepError(f"cannot read grid file {path}: {error}") from None
    except ValueError as error:
        raise SweepError(f"{path}: grid file is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise SweepError(f"{path}: grid file must be a JSON object of GridSpec keys")
    unknown = sorted(set(data) - set(GRID_FILE_KEYS))
    if unknown:
        known = ", ".join(GRID_FILE_KEYS)
        raise SweepError(
            f"{path}: unknown grid key '{unknown[0]}' (known: {known})"
        )
    for key, value in data.items():
        is_axis, element = _GRID_FILE_SCHEMA[key]
        if is_axis:
            ok = isinstance(value, list) and all(
                isinstance(item, element) and not isinstance(item, bool)
                for item in value
            )
        else:
            ok = isinstance(value, element) and not isinstance(value, bool)
        if not ok:
            shape = f"a list of {element}" if is_axis else str(element)
            raise SweepError(f"{path}: grid key '{key}' must be {shape}, got {value!r}")
    return data


def load_checkpoint(
    path: Path,
    grid: GridSpec,
    specs: Sequence[ScenarioSpec],
    *,
    shard: Optional[Shard] = None,
) -> tuple[dict[int, ScenarioOutcome], int]:
    """Read a (possibly truncated) JSONL checkpoint back.

    Returns ``(outcomes by global index, valid byte length)``.  The final
    line is allowed to be garbage — a killed writer leaves a partial line
    — and is simply discarded; corruption anywhere *else* is an error, as
    is a metadata line of an older format or for a grid other than
    ``grid``, or a trial record that lacks a field or contradicts its
    spec (different seed ⇒ different grid or code).
    ``shard`` is the shard this checkpoint is expected to cover — a file
    written for a different shard (or an unsharded file when a shard is
    expected, and vice versa) is refused rather than silently mixed.
    """
    raw = path.read_bytes()
    outcomes: dict[int, ScenarioOutcome] = {}
    offset = 0
    records: list[tuple[dict[str, Any], int]] = []  # (record, end offset)
    lines = raw.split(b"\n")
    # split() leaves a final element for the bytes after the last newline:
    # empty for a cleanly-terminated file, the partial line otherwise.
    complete, partial = lines[:-1], lines[-1]
    for position, line in enumerate(complete):
        end = offset + len(line) + 1
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError("not a sweep record")
        except (ValueError, UnicodeDecodeError) as error:
            if position == len(complete) - 1 and not partial:
                break  # interrupted mid-line, right before the newline
            raise SweepError(f"{path}: corrupt checkpoint line {position + 1}: {error}")
        records.append((record, end))
        offset = end
    if not records:
        return {}, 0
    meta, meta_end = records[0]
    _, stored_shard = _parse_meta(path, meta)
    if meta["grid"] != grid.to_dict():
        raise SweepError(
            f"{path}: checkpoint was written for a different grid; "
            "re-run with the original flags or start a fresh output file"
        )
    expected_shard = None if shard is None else validate_shard(shard)
    if stored_shard != expected_shard:
        def _describe(value: Optional[Shard]) -> str:
            return "unsharded" if value is None else f"shard {value[0]}/{value[1]}"
        raise SweepError(
            f"{path}: checkpoint is {_describe(stored_shard)} but this run is "
            f"{_describe(expected_shard)}; use a matching --shard or a fresh "
            "output file"
        )
    valid_end = meta_end
    for record, end in records[1:]:
        if record.get("kind") != _TRIAL_KIND:
            raise SweepError(f"{path}: unexpected record kind {record.get('kind')!r}")
        try:
            outcome = ScenarioOutcome.from_record(record)
        except (KeyError, TypeError) as error:
            raise SweepError(f"{path}: malformed trial record: {error}")
        if not 0 <= outcome.index < len(specs):
            raise SweepError(f"{path}: trial index {outcome.index} outside the grid")
        spec = specs[outcome.index]
        if (
            outcome.seed != spec.seed
            or outcome.trial != spec.trial
            or outcome.protocol != spec.protocol
            or (outcome.n, outcome.r) != (spec.n, spec.r)
            or outcome.adversary != spec.adversary
            or outcome.fault_rate != spec.fault_rate
            or outcome.backend != spec.backend
            or outcome.fault_model != spec.fault_model
            or outcome.burst_size != spec.burst_size
        ):
            raise SweepError(
                f"{path}: trial record {outcome.index} does not match the grid "
                "(was the checkpoint produced by different flags?)"
            )
        if outcome.index in outcomes:
            raise SweepError(f"{path}: duplicate trial record {outcome.index}")
        outcomes[outcome.index] = outcome
        valid_end = end
    return outcomes, valid_end


def _refuse_strays(
    path: Path, outcomes: dict[int, ScenarioOutcome], owned: Sequence[ScenarioSpec]
) -> None:
    """Refuse a shard checkpoint holding a record that another shard owns.

    Resume and merge both check this: such a record means a worker wrote
    into the wrong file, and keeping it would count its trial twice.
    """
    stray = sorted(set(outcomes) - {spec.index for spec in owned})
    if stray:
        raise SweepError(
            f"{path}: trial record {stray[0]} belongs to another shard — "
            "a worker may have written into the wrong file; "
            "refusing to double-count"
        )


@dataclass(frozen=True)
class MergeReport:
    """What a successful merge covered."""

    out: Path
    shards: int
    trials: int


def _format_indices(indices: Sequence[int], limit: int = 10) -> str:
    """``[0, 3, 7]`` rendered for an error message, elided past ``limit``."""
    shown = ", ".join(str(index) for index in indices[:limit])
    if len(indices) > limit:
        shown += f", ... ({len(indices) - limit} more)"
    return f"[{shown}]"


def merge_checkpoints(
    paths: Sequence[str | Path],
    out: str | Path,
    *,
    grid: Optional[GridSpec] = None,
) -> MergeReport:
    """Merge a complete set of shard checkpoints into ``out``.

    ``paths`` must be every shard of one sharded sweep (any order).
    Validation is strict — same grid in every file, shard count equal to
    the number of files, indices exactly ``0..k-1``, each file covering
    exactly the units its shard owns (:func:`shard_specs`) — and only
    then are the outcomes written to ``out`` through the canonical
    encoder, byte-identical to the checkpoint an unsharded sweep of the
    same grid writes.  ``grid`` (when given) additionally pins the
    expected grid, catching a merge pointed at the wrong run's files.
    """
    shard_paths = [Path(path) for path in paths]
    if not shard_paths:
        raise SweepError("nothing to merge: no shard checkpoints given")
    metas = [read_checkpoint_grid(path) for path in shard_paths]
    merged_grid = grid if grid is not None else metas[0][0]
    count = len(shard_paths)
    paths_of: dict[int, list[Path]] = {}
    for path, (stored_grid, shard) in zip(shard_paths, metas):
        if stored_grid != merged_grid:
            reference = "the given grid" if grid is not None else str(shard_paths[0])
            raise SweepError(
                f"{path}: checkpoint grid differs from {reference}; "
                "shards of different sweeps cannot merge"
            )
        if shard is None:
            raise SweepError(
                f"{path}: not a shard checkpoint (written without --shard); "
                "merge only combines sharded files"
            )
        index, shard_count = shard
        if shard_count != count:
            raise SweepError(
                f"{path}: written as shard {index}/{shard_count} but {count} "
                f"file{'s were' if count != 1 else ' was'} given; a merge "
                f"needs all {shard_count} shards"
            )
        paths_of.setdefault(index, []).append(path)
    duplicates = sorted(index for index, found in paths_of.items() if len(found) > 1)
    if duplicates:
        detail = "; ".join(
            f"shard {index} in " + ", ".join(str(p) for p in paths_of[index])
            for index in duplicates
        )
        raise SweepError(
            f"duplicate shard indices {_format_indices(duplicates)}: each appears "
            f"twice or more ({detail}); refusing to double-count"
        )
    # k files with distinct indices in 0..k-1: every shard is present.

    specs = expand_grid(merged_grid)
    by_cell = get_backend(merged_grid.backend).batch_cells
    merged: dict[int, ScenarioOutcome] = {}
    for path, (_, shard) in zip(shard_paths, metas):
        outcomes, _ = load_checkpoint(path, merged_grid, specs, shard=shard)
        owned = shard_specs(specs, shard, by_cell=by_cell)
        _refuse_strays(path, outcomes, owned)
        missing = [spec.index for spec in owned if spec.index not in outcomes]
        if missing:
            raise SweepError(
                f"{path}: shard {shard[0]}/{shard[1]} is incomplete "
                f"(missing trials {_format_indices(missing)}, "
                f"{len(missing)} in total); "
                "resume it with repro sweep --resume before merging"
            )
        merged.update(outcomes)

    # Disjoint + per-shard complete + all shards present => full coverage.
    ordered = [merged[index] for index in range(len(specs))]
    out_path = Path(out)
    write_checkpoint(out_path, merged_grid, ordered)
    return MergeReport(out=out_path, shards=count, trials=len(specs))


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


#: Progress callback: ``progress(completed_trials, total_trials)``.
ProgressCallback = Callable[[int, int], None]


@dataclass
class SweepResult:
    """Everything a finished (or resumed-and-finished) sweep produced."""

    grid: GridSpec
    specs: list[ScenarioSpec]  # the specs this run owned (the shard's, if any)
    outcomes: list[ScenarioOutcome]  # in global index order
    resumed_trials: int  # how many came from the checkpoint
    shard: Optional[Shard] = None  # the shard this run covered, if sharded

    @property
    def rows(self) -> list[dict[str, object]]:
        return aggregate_rows(self.specs, self.outcomes)


def aggregate_rows(
    specs: Sequence[ScenarioSpec], outcomes: Sequence[ScenarioOutcome]
) -> list[dict[str, object]]:
    """Fold per-trial outcomes into one row per grid cell.

    Outcomes are consumed in global index order (the caller guarantees
    it), so the aggregates — medians, the nearest-rank p95, success rates
    — are bit-identical to a sequential run for any worker count.  Fault
    cells additionally aggregate the availability workload's first-class
    outcomes: median availability and the median of per-trial median
    repair times (``"-"`` on fault-free cells).
    """
    order: list[tuple[str, int, int, str, float, str, int]] = []
    cells: dict[tuple[str, int, int, str, float, str, int], list[ScenarioOutcome]] = {}
    for spec in specs:
        if spec.scenario_key not in cells:
            order.append(spec.scenario_key)
            cells[spec.scenario_key] = []
    for outcome in outcomes:
        key = (
            outcome.protocol, outcome.n, outcome.r, outcome.adversary,
            outcome.fault_rate, outcome.fault_model, outcome.burst_size,
        )
        cells[key].append(outcome)
    rows = []
    for key in order:
        protocol, n, r, adversary, fault_rate, fault_model, burst_size = key
        group = cells[key]
        converged = [o for o in group if o.converged]
        summary = TrialSummary(
            label=f"{protocol}/adv={adversary}",
            n=n,
            trials=len(group),
            converged=len(converged),
            interactions=[float(o.interactions) for o in converged],
            parallel_times=[o.parallel_time for o in converged],
        )
        availabilities = [o.availability for o in group if o.availability is not None]
        repairs = [o.median_repair for o in group if o.median_repair is not None]
        rows.append(
            {
                "protocol": protocol,
                "n": n,
                "r": r if r != NO_R else "-",
                "adversary": adversary,
                "fault_rate": f"{fault_rate:g}",
                "fault_model": fault_model if fault_model != NO_FAULTS else "-",
                "burst_size": burst_size if fault_model != NO_FAULTS else "-",
                "trials": summary.trials,
                "success_rate": round(summary.success_rate, 3),
                "median_interactions": summary.median_interactions,
                "median_time": round(summary.median_time, 2),
                "p95_time": round(summary.p95_time, 2),
                "availability": (
                    round(statistics.median(availabilities), 3) if availabilities else "-"
                ),
                "median_repair": (
                    round(statistics.median(repairs), 1) if repairs else "-"
                ),
            }
        )
    return rows


def _iter_cells(specs: Sequence[ScenarioSpec]):
    """Group specs into their grid cells (contiguous in expansion order)."""
    cell: list[ScenarioSpec] = []
    for spec in specs:
        if cell and spec.scenario_key != cell[0].scenario_key:
            yield cell
            cell = []
        cell.append(spec)
    if cell:
        yield cell


def _run_missing_cells(
    specs: Sequence[ScenarioSpec], completed: dict[int, ScenarioOutcome]
):
    """Drive a batch-cell backend: whole cells at a time, resume-aware.

    A cell with *any* trial missing from the checkpoint is re-run in
    full — :func:`run_scenario_cell` is a pure function of the specs, so
    already-checkpointed rows reproduce identically and only the missing
    outcomes are yielded (in index order), keeping the resumed JSONL
    byte-identical to an uninterrupted run.  Fully-checkpointed cells
    are skipped outright.
    """
    for cell in _iter_cells(specs):
        if all(spec.index in completed for spec in cell):
            continue
        for outcome in run_scenario_cell(cell):
            if outcome.index not in completed:
                yield outcome


def run_sweep(
    grid: GridSpec,
    *,
    workers: Optional[int] = 1,
    jsonl_path: Optional[str | Path] = None,
    resume: bool = False,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
    shard: Optional[Shard] = None,
) -> SweepResult:
    """Run (or resume) a scenario-grid sweep.

    With ``jsonl_path`` set, every completed trial is appended to the file
    as it lands — in global index order, courtesy of the streaming
    engine's reorder buffer — so the file is always a clean, resumable
    prefix of the full sweep.  ``resume=True`` re-reads an existing file,
    truncates any partial final line a killed run left behind, and runs
    only the missing specs; ``force=True`` discards an existing file.
    An existing non-empty file with neither flag is an error rather than
    a silent overwrite.

    The aggregate rows (and, when every trial is written by this engine,
    the JSONL bytes themselves) are identical for any ``workers`` value
    and for any interrupt/resume split.

    With ``shard=(i, k)`` the run owns only its round-robin slice of the
    expanded grid (:func:`shard_specs`): the checkpoint carries the
    shard identity in its metadata, resume refuses a mismatched file,
    and the trial records are exactly the unsharded run's bytes for the
    owned indices, which :func:`merge_checkpoints` joins back into the
    unsharded checkpoint.

    On a batch-cell backend (``Backend.batch_cells``, e.g. ``batch``)
    the sweep runs cell-grouped and in-process — every cell's trials are
    one lockstep engine, which *is* the parallelism — so ``workers`` is
    ignored there; checkpointing, resume and the byte-identity guarantee
    are unchanged (a partially-checkpointed cell is re-run
    deterministically and only its missing rows are appended).
    """
    specs = expand_grid(grid)
    batch_cells = get_backend(grid.backend).batch_cells
    if shard is None:
        work_specs = specs
    else:
        shard = validate_shard(shard)
        work_specs = shard_specs(specs, shard, by_cell=batch_cells)
    completed: dict[int, ScenarioOutcome] = {}
    path = Path(jsonl_path) if jsonl_path is not None else None
    fresh_file = True
    if path is not None and path.exists() and path.stat().st_size > 0:
        if resume:
            completed, valid_end = load_checkpoint(path, grid, specs, shard=shard)
            _refuse_strays(path, completed, work_specs)
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
            fresh_file = valid_end == 0
        elif force:
            path.unlink()
        else:
            raise SweepError(
                f"{path} already exists; resume it (--resume / resume=True) "
                "or overwrite it (--force / force=True)"
            )

    to_run = [spec for spec in work_specs if spec.index not in completed]
    outcomes = dict(completed)
    done = len(completed)
    total = len(work_specs)
    if progress:
        progress(done, total)
    handle = None
    # Tracing (see repro.obs): per-trial spans ride the reorder buffer
    # (span="sweep.trial"), checkpoint appends get their own spans, and
    # each cell's wall-clock window is reconstructed as it completes.
    # The trace sink is a separate file — never the checkpoint, whose
    # bytes stay a pure function of (grid, code) with or without tracing.
    tracer = get_tracer()
    if tracer.enabled:
        cell_of = {spec.index: spec.scenario_key for spec in work_specs}
        cell_pending: dict[Any, int] = {}
        for spec in work_specs:
            if spec.index not in completed:
                cell_pending[spec.scenario_key] = (
                    cell_pending.get(spec.scenario_key, 0) + 1
                )
        cell_started: dict[Any, float] = {}
    try:
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(path, "a", encoding="utf-8", newline="\n")
            if fresh_file:
                handle.write(_dump_line(_meta_record(grid, shard)))
                handle.flush()
        if batch_cells:
            outcome_stream = _run_missing_cells(work_specs, completed)
        else:
            outcome_stream = stream_ordered(
                to_run, run_scenario, workers=workers, span="sweep.trial"
            )
        for outcome in outcome_stream:
            outcomes[outcome.index] = outcome
            if handle is not None:
                with tracer.span("sweep.checkpoint_append", item=outcome.index):
                    handle.write(_dump_line(outcome.to_record()))
                    handle.flush()
            if tracer.enabled:
                key = cell_of.get(outcome.index)
                now = perf_counter()
                cell_started.setdefault(key, now)
                cell_pending[key] -= 1
                if cell_pending[key] == 0:
                    tracer.record_span(
                        "sweep.cell",
                        cell_started[key],
                        now - cell_started[key],
                        cell="/".join(str(part) for part in key),
                    )
            done += 1
            if progress:
                progress(done, total)
    finally:
        if handle is not None:
            handle.close()
    ordered = [outcomes[spec.index] for spec in work_specs]
    return SweepResult(
        grid=grid, specs=list(work_specs), outcomes=ordered,
        resumed_trials=len(completed), shard=shard,
    )
