"""Count-vector execution engine for finite-state protocols (ppsim-style).

The array backend stores one ``int64`` cell per agent, which caps
practical sweeps near ``n ≈ 10⁴–10⁵``: every block of interactions pays
``O(n)`` passes (conflict bookkeeping) and every convergence check decodes
``n`` state objects.  For the ``S ≪ n`` protocols — epidemics, the reset
epidemic, pairwise elimination, loosely-stabilizing leader election — the
configuration is fully described by an ``S``-length **count vector**
``counts[code] = #agents in state code``, and both costs collapse to
``O(S)``.  This module is that engine, in the spirit of Doty and
Severson's ``ppsim`` (CMSB 2021) and the batching analysis of Berenbrink
et al.  It holds ``T`` independent trials as the rows of one ``(T, S)``
``int64`` matrix; a single trial is a one-row matrix.  The registry
exposes it twice: ``counts`` (one trial per engine, the common per-trial
surface) and ``batch`` (a whole sweep cell per engine, see
:mod:`repro.sim.batch_backend`).

**Law-exact batched sampling.**  The uniform pairwise scheduler draws
agent *identities*, which a count vector deliberately forgets.  The engine
recovers exactness through *collision-free runs*:

* which interactions first reuse an agent is a pure function of agent
  draws — state-independent — so the length ``L`` of the maximal prefix of
  interactions touching ``2L`` distinct agents follows a birthday-problem
  law tabulated once per ``n``
  (:class:`repro.scheduler.scheduler.CollisionRunSampler`);
* conditioned on ``L``, those ``2L`` agents are a uniform sample *without
  replacement* — their states follow a multivariate hypergeometric draw
  from ``counts``, and a uniform shuffle pairs them into initiators and
  responders;
* because the run's agents are distinct, its interactions commute: the
  whole run is applied as one aggregate count delta through the compiled
  ``S × S`` transition table (:func:`apply_pair_counts`, reusing
  :mod:`repro.sim.array_backend`'s table builder);
* the ``(L+1)``-th interaction *collides* — it involves at least one
  already-used agent, whose current state distribution is the multiset of
  run outputs.  It is applied individually from the used/unused split
  (category weights ``U(U-1) : U·A : A·U``), then the run machinery
  restarts.

Agents in equal states are exchangeable, so the counts process is an
exact lumping of the agent-level chain; truncating a run at a batch
boundary and restarting fresh is likewise exact (the Markov property:
the future law depends only on ``counts``).  The batched sampler is
therefore *distribution*-identical to the object and array engines — and
to this engine's own pair-at-a-time oracle (``batching="pair"``), which
tests use to gate it.

**Two samplers, one law.**  A row advance draws its runs with one of two
samplers, chosen by :data:`ROW_RUN_COST` from ``S`` and the number of
rows stepping:

* the *per-row* sampler runs one row at a time, one C-level
  ``multivariate_hypergeometric`` per run — cheap per row, whatever
  ``S``.  One-row engines always use it, so a single trial is the same
  stream whichever registry name built it;
* the *lockstep* sampler serves every stepping row with a fixed number of
  numpy calls per run: one run-length block draw, a conditional
  hypergeometric chain over the ``S`` codes vectorized across rows (numpy's
  own ``marginals`` decomposition), and the pairing either by pair-type
  counts or by a segmented shuffle (see :meth:`CountsSimulation._step_rows`).
  It costs ``S - 1`` generator calls per step, whatever the number of rows.

Rows share one PCG64 stream seeded ``derive_seed(seed, 0)`` and consume
disjoint draws, so rows are mutually independent and each is
distribution-identical to a one-row engine.

**Faults.**  Each row may carry a :class:`~repro.sim.fault_engine
.FaultSpec`; row advances are sliced at every row's burst boundaries,
with the row firing its burst from its own schedule/corruption streams
(the derived-seed tags a :class:`~repro.sim.fault_engine.FaultEngine`
uses).  Burst positions are a pure function of the schedule stream, so a
row's burst schedule is bit-identical to a per-trial ``FaultEngine`` under
the same ``FaultSpec``.

**Determinism.**  A run is a pure function of ``(protocol, initial
counts, seed, batching mode, advance split sequence)``.  Unlike the array
scheduler there is **no** slicing-invariance guarantee: changing
``check_interval`` changes how runs are truncated and therefore the
concrete sample path (never the law).  Checkpoint/resume stays
byte-identical because sweep grids pin the check interval.

**Convergence on counts.**  Predicates carrying a counts-space form
(``predicate.on_counts``, see :func:`counts_aware` and
:meth:`repro.core.protocol.PopulationProtocol.goal_counts`) are evaluated
on the vector directly — ``O(S)`` per check — and ``on_counts_rows``
answers a whole set of rows in one array op; plain config predicates fall
back to an expanded configuration (``O(n)``, correct but slow).

Like the array backend, numpy is optional at import time and every entry
point raises a clear error without it.  ``ElectLeader_r`` is rejected for
the same reason as on the array backend: no finite encoding (Theorem 1.1
prices its speed at ``2^{Θ(r² log n)}`` states).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.protocol import PopulationProtocol
from repro.obs import STEP_PHASES, perf_counter
from repro.scheduler.rng import np_stream
from repro.scheduler.scheduler import CollisionRunSampler
from repro.sim.array_backend import (
    ArrayBackendError,
    TransitionTable,
    require_numpy,
    transition_table_for,
)
from repro.sim.fault_engine import (
    _CORRUPT_STREAM,
    _SCHEDULE_STREAM,
    FaultSpec,
    get_fault_model,
)
from repro.sim.faults import AvailabilityAccounting, AvailabilityReport, FaultEvent
from repro.sim.initial_state import Clean, InitialState, Replicated
from repro.sim.metrics import Metrics
from repro.sim.simulation import ConfigPredicate, SimulationResult


class CountsBackendError(ArrayBackendError):
    """The counts backend cannot run this protocol (or numpy is missing).

    Subclasses :class:`ArrayBackendError` because the two vectorized
    engines share the transition-table machinery — callers that catch the
    array error (the established "no finite encoding" signal) catch this
    one too.
    """


#: The two sampling modes of :class:`CountsSimulation`.
BATCHING_RUN = "run"
BATCHING_PAIR = "pair"
BATCHING_MODES = (BATCHING_RUN, BATCHING_PAIR)

#: Occupied-state cap for the counts-level silence check: above this many
#: occupied codes the O(occupied²) table scan stops paying for itself and
#: the batched sampler just runs (correct either way).
MAX_SILENCE_STATES = 64

#: The sampler rule: ``R`` stepping rows take the lockstep sampler when
#: ``R * ROW_RUN_COST >= S - 1``, else the per-row sampler.  It is the
#: cost of one per-row run in units of one lockstep chain call (a
#: vectorized ``hypergeometric``, of which a lockstep run makes ``S - 1``).
#: Measured by timing both samplers on R rows of the Cai-Izumi-Wada table
#: over S ranks, 10³ agents per row (numpy 2.4.6, Python 3.11, one Intel
#: Xeon thread): the two break even at R ≈ 0.6–2 × (S - 1) for
#: S = 17…334.  Below S ≈ 10 the lockstep step's fixed cost (about ten
#: per-row runs) dominates instead; the rule leaves it out, so two-state
#: protocols keep the lockstep sampler at every R.
ROW_RUN_COST = 1


# ---------------------------------------------------------------------------
# Count-vector codecs
# ---------------------------------------------------------------------------


def counts_from_configuration(protocol: PopulationProtocol, config: Sequence[Any]):
    """Fold a list of state objects into an ``int64`` count vector."""
    np = require_numpy()
    _require_num_states(protocol)
    encode = protocol.encode_state
    codes = np.fromiter((encode(s) for s in config), dtype=np.int64, count=len(config))
    return counts_from_codes(protocol, codes)


def counts_from_codes(protocol: PopulationProtocol, codes):
    """Fold a state-code sequence into an ``int64`` count vector."""
    np = require_numpy()
    size = _require_num_states(protocol)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise CountsBackendError("state codes outside range(num_states)")
    return np.bincount(codes, minlength=size).astype(np.int64)


def configuration_from_counts(protocol: PopulationProtocol, counts) -> list[Any]:
    """Expand a count vector to a configuration list.

    Agents of equal state **share** one decoded object per occupied code —
    a count vector cannot tell them apart anyway.  The result is safe for
    predicates and other read-only consumers; callers that mutate states
    must clone first.
    """
    np = require_numpy()
    counts = np.asarray(counts)
    decode = protocol.decode_state
    config: list[Any] = []
    for code in np.flatnonzero(counts):
        config.extend([decode(int(code))] * int(counts[code]))
    return config


def _require_num_states(protocol: PopulationProtocol) -> int:
    size = protocol.num_states()
    if size is None:
        raise CountsBackendError(
            f"protocol '{protocol.name}' has no finite state encoding "
            "(num_states() is None), so it cannot run on the counts/batch "
            "backend; use backend='object'"
        )
    return size


def counts_are_silent(table: TransitionTable, counts) -> bool:
    """True iff no *possible* interaction can change ``counts``.

    The counts-level form of the paper's silence notion: every ordered
    pair ``(a, b)`` of occupied codes that two distinct agents can
    realize must satisfy ``δ(a, b) = (a, b)``.  A diagonal pair
    ``(a, a)`` needs two agents in code ``a``, so single-occupancy codes
    are exempt on the diagonal — which is exactly why a one-leader
    pairwise-elimination population and a CIW permutation count as
    silent.  ``O(occupied²)`` lookups, bailing out above
    :data:`MAX_SILENCE_STATES` occupied codes (``False`` is always a
    safe answer).
    """
    np = require_numpy()
    occupied = np.flatnonzero(counts)
    if occupied.size > MAX_SILENCE_STATES:
        return False
    grid = np.ix_(occupied, occupied)
    changes = (table.u_out[grid] != occupied[:, None])
    changes |= (table.v_out[grid] != occupied[None, :])
    if not changes.any():
        return True
    # Non-inert diagonal entries are unrealizable with a single agent.
    diagonal = np.arange(occupied.size)
    changes[diagonal, diagonal] &= counts[occupied] > 1
    return not changes.any()


# ---------------------------------------------------------------------------
# Aggregate application of state-pair interactions
# ---------------------------------------------------------------------------


def apply_pair_counts(counts, initiators, responders, table: TransitionTable) -> None:
    """Apply a batch of state-pair interactions to ``counts`` in place.

    ``initiators``/``responders`` are equal-length vectors of *state
    codes* (not agent indices): entry ``k`` says one interaction happened
    between an agent in state ``initiators[k]`` and an agent in state
    ``responders[k]``.  Each interaction contributes the count delta
    ``-e[a] - e[b] + e[δu(a,b)] + e[δv(a,b)]``; deltas are additive, so
    the vectorized bincount form below is *exactly* the sum a
    pair-at-a-time loop would produce (the hypothesis property test in
    ``tests/test_counts_backend.py`` pins this down).

    The caller guarantees physical feasibility — within one collision-free
    run every interaction involves distinct agents, so the multiset of
    input states is drawn without replacement from ``counts``.
    """
    np = require_numpy()
    if initiators.shape != responders.shape:
        raise ValueError("initiator and responder vectors must have equal length")
    if initiators.size == 0:
        return
    size = table.num_states
    u_flat, v_flat = table.flat
    index = initiators * size
    index = index + responders
    outputs = np.concatenate([u_flat.take(index), v_flat.take(index)])
    counts += np.bincount(outputs, minlength=size)
    counts -= np.bincount(initiators, minlength=size)
    counts -= np.bincount(responders, minlength=size)


def apply_pairs_sequential(counts, initiators, responders, table: TransitionTable) -> None:
    """Pair-at-a-time oracle for :func:`apply_pair_counts` (tests only)."""
    size = table.num_states
    u_flat, v_flat = table.flat
    for a, b in zip(initiators.tolist(), responders.tolist()):
        index = a * size + b
        counts[a] -= 1
        counts[b] -= 1
        counts[int(u_flat[index])] += 1
        counts[int(v_flat[index])] += 1


# ---------------------------------------------------------------------------
# Counts-aware convergence predicates
# ---------------------------------------------------------------------------


class CountsAwarePredicate:
    """A configuration predicate that also carries a counts-space form.

    Calling it evaluates the configuration form (so object- and
    array-backend ``run_until`` use it unchanged); the counts engine
    spots the ``on_counts`` attribute and evaluates that instead —
    ``O(S)`` rather than ``O(n)`` per convergence check.  The optional
    ``on_counts_rows`` form answers a whole ``(T, S)`` set of rows in one
    call (see :meth:`repro.core.protocol.PopulationProtocol
    .goal_counts_rows`) — ``None`` means the engine falls back to per-row
    ``on_counts``.
    """

    __slots__ = ("on_config", "on_counts", "on_counts_rows")

    def __init__(
        self,
        on_config: ConfigPredicate,
        on_counts: Callable[[Any], bool],
        on_counts_rows: Optional[Callable[[Any], Any]] = None,
    ):
        self.on_config = on_config
        self.on_counts = on_counts
        self.on_counts_rows = on_counts_rows

    def __call__(self, config: Sequence[Any]) -> bool:
        return self.on_config(config)


def counts_aware(
    on_config: ConfigPredicate,
    on_counts: Callable[[Any], bool],
    on_counts_rows: Optional[Callable[[Any], Any]] = None,
) -> CountsAwarePredicate:
    """Bundle a config predicate with its counts-space form(s)."""
    return CountsAwarePredicate(on_config, on_counts, on_counts_rows)


def goal_counts_predicate(protocol: PopulationProtocol) -> CountsAwarePredicate:
    """The protocol's goal predicate, counts-aware on every backend."""
    return CountsAwarePredicate(
        protocol.is_goal_configuration,
        protocol.goal_counts,
        protocol.goal_counts_rows,
    )


# ---------------------------------------------------------------------------
# Per-row results and fault state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowOutcome:
    """One row's result — the light per-trial record of the row workloads."""

    row: int
    converged: bool
    interactions: int
    parallel_time: float


class _RowFaultState:
    """One row's materialized :class:`FaultSpec` — streams, clock, events.

    The per-row twin of a :class:`~repro.sim.fault_engine.FaultEngine`'s
    mutable state: the schedule stream is seeded and consumed exactly as
    the engine's (one exponential at construction, one per fired burst),
    so the burst positions recorded in ``events`` are bit-identical to
    the per-trial engine's under the same spec.
    """

    __slots__ = (
        "model", "burst_size", "mean_gap", "schedule", "corrupt",
        "next_burst", "events",
    )

    def __init__(self, spec: FaultSpec, protocol: PopulationProtocol, n: int):
        if spec.rate <= 0:
            raise ValueError("fault rate must be positive")
        if spec.burst_size < 1:
            raise ValueError("burst size must be at least one agent")
        model = get_fault_model(spec.model) if isinstance(spec.model, str) else spec.model
        model.require(protocol)
        self.model = model
        self.burst_size = spec.burst_size
        self.mean_gap = n / spec.rate
        self.schedule = np_stream(spec.seed, _SCHEDULE_STREAM)
        self.corrupt = np_stream(spec.seed, _CORRUPT_STREAM)
        self.next_burst = self.schedule.exponential(self.mean_gap)
        self.events: list[FaultEvent] = []


# ---------------------------------------------------------------------------
# The counts engine
# ---------------------------------------------------------------------------


class CountsSimulation:
    """``T`` trials as the rows of one ``(T, S)`` ``int64`` counts matrix.

    ``init`` is any :class:`~repro.sim.initial_state.InitialState` — a
    :class:`~repro.sim.initial_state.Replicated` batch gives one row per
    trial, anything else (or a plain ``n``, a clean start) one row.
    Every row must describe the same population size (the collision-run
    law and the fault clock are per-``n``).  All randomness comes from one
    PCG64 stream seeded ``derive_seed(seed, 0)`` (table protocols are
    deterministic, so no transition stream is needed).  ``batching``
    selects the sampler family: ``"run"`` (default) the collision-run
    samplers, ``"pair"`` the pair-at-a-time oracle — same law, wildly
    different speed; tests run both and compare.

    A one-row engine exposes the common per-trial engine surface (``run``
    / ``run_batch`` / ``run_until`` / ``predicate_holds`` / ``apply_fault``
    / ``metrics`` / ``config`` / ``n``); with more rows those methods
    raise, because a batch has rows, not a single trajectory.  Every
    engine also has the row workloads :meth:`run_rows_until` and
    :meth:`measure_rows_availability`, each with an optional per-row
    :class:`~repro.sim.fault_engine.FaultSpec` list; an engine drives
    **one** row workload — it is a consumed object, not a reusable runner.

    Observers are not supported (there are no per-agent interactions to
    observe); use the object backend for instrumented runs.  Likewise
    there is no ``RecordedSchedule`` replay: a schedule names agent
    identities, which this representation deliberately forgets.
    """

    #: The accounted phases, in hot-loop order (re-exported for engines).
    STEP_PHASES: tuple[str, ...] = STEP_PHASES

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        init: Optional[InitialState] = None,
        n: Optional[int] = None,
        seed: int = 0,
        batching: str = BATCHING_RUN,
    ):
        np = require_numpy()
        if batching not in BATCHING_MODES:
            known = ", ".join(BATCHING_MODES)
            raise ValueError(f"unknown batching mode '{batching}' (known: {known})")
        size = _require_num_states(protocol)
        if init is None:
            if n is None:
                raise ValueError("provide an initial state init= or a population size n")
            init = Clean(n)
        if isinstance(init, Replicated):
            rows = [init.row(index) for index in range(init.trials)]
        else:
            rows = [init]
        vectors = []
        for index, row in enumerate(rows):
            vector = np.array(row.to_counts(protocol), dtype=np.int64)
            if vector.shape != (size,):
                raise CountsBackendError(
                    f"row {index}: counts must have shape ({size},), got {vector.shape}"
                )
            if vector.size and vector.min() < 0:
                raise CountsBackendError(f"row {index}: counts must be non-negative")
            vectors.append(vector)
        self._matrix = np.stack(vectors)
        sums = set(self._matrix.sum(axis=1).tolist())
        if len(sums) != 1:
            raise ValueError(
                f"every batch row must describe the same population size, "
                f"got row sums {sorted(sums)}"
            )
        self.n = sums.pop()
        if n is not None and n != self.n:
            raise ValueError(f"n={n} disagrees with the rows' population size {self.n}")
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        self.protocol = protocol
        self.num_states = size
        self.trials = len(rows)
        self.seed = seed
        self.batching = batching
        self.table = transition_table_for(protocol)
        self.metrics = Metrics(n=self.n)
        self._np = np
        self._codes = np.arange(size, dtype=np.int64)
        self._generator = np_stream(seed, 0)
        self._runs = CollisionRunSampler(self.n, self._generator)
        self._timings: Optional[dict[str, float]] = None
        self._driven = False
        self._row_events: list[list[FaultEvent]] = []
        # The lockstep sampler pairs runs by type counts (an S² chain)
        # when that beats materializing the Θ(√n)-length agent multiset;
        # both pairings sample the identical law (see _step_rows).
        self._matching = size * (size - 1) <= math.isqrt(self.n)
        # (S, S) mask of pairs the protocol's δ actually changes, for the
        # row-vectorized silence check (None above the O(S²) memory bar).
        if size <= MAX_SILENCE_STATES:
            self._effectful = (
                (self.table.u_out != self._codes[:, None])
                | (self.table.v_out != self._codes[None, :])
            )
        else:
            self._effectful = None

    # ------------------------------------------------------------------
    # Views and instrumentation
    # ------------------------------------------------------------------

    @property
    def counts(self):
        """The ``(T, S)`` counts matrix (a live view, not a copy)."""
        return self._matrix

    @property
    def config(self) -> list[Any]:
        """The one row's configuration as decoded state objects (shared per code)."""
        return configuration_from_counts(self.protocol, self._one_row())

    def fault_events(self, row: int = 0) -> list[FaultEvent]:
        """Row ``row``'s fired bursts from the last driven row workload."""
        if not self._row_events:
            raise RuntimeError("no row workload has been driven yet")
        return self._row_events[row]

    def instrument_steps(self) -> dict[str, float]:
        """Switch on per-phase wall-clock accounting (common engine surface).

        Returns the live accumulator over :data:`repro.obs.STEP_PHASES`:
        ``draw`` (run lengths + composition), ``match`` (pairing),
        ``apply`` (aggregate delta + collision interactions), ``retire``
        (silence + predicate checks).  The samplers only read the
        monotonic clock between their sections, so instrumented and plain
        runs are bit-identical.
        """
        if self._timings is None:
            self._timings = {phase: 0.0 for phase in STEP_PHASES}
        return self._timings

    @property
    def step_timings(self) -> Optional[dict[str, float]]:
        """The accumulator from :meth:`instrument_steps` (``None`` when off)."""
        return self._timings

    # ------------------------------------------------------------------
    # The per-trial surface (one-row engines)
    # ------------------------------------------------------------------

    def _one_row(self):
        if self.trials != 1:
            raise ValueError(
                f"this engine holds a batch of {self.trials} trials and has no "
                "single-trial surface; use run_rows_until()/measure_rows_availability()"
            )
        return self._matrix[0]

    def run(self, interactions: int) -> None:
        """Run a fixed number of interactions."""
        self.run_batch(interactions)

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the per-row sampler."""
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        self._run_row(self._one_row(), count)
        self.metrics.interactions += count

    def run_until(
        self,
        predicate: ConfigPredicate,
        max_interactions: int,
        check_interval: int = 1,
    ) -> SimulationResult:
        """Run until the predicate holds or the budget is exhausted.

        Identical check discipline to the other engines: the predicate is
        evaluated before the first step and then every ``check_interval``
        interactions, through :meth:`predicate_holds`.
        """
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        if self.predicate_holds(predicate):
            return self._result(converged=True)
        remaining = max_interactions
        while remaining > 0:
            burst = min(check_interval, remaining)
            self.run_batch(burst)
            remaining -= burst
            if self.predicate_holds(predicate):
                return self._result(converged=True)
        return self._result(converged=False)

    def predicate_holds(self, predicate: ConfigPredicate) -> bool:
        """Evaluate a predicate in this backend's cheapest form.

        Counts-aware predicates read the count vector directly (``O(S)``);
        plain config predicates get an expanded configuration per call —
        correct, but ``O(n)``.
        """
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        held = self._row_predicate(predicate, self._one_row())
        if timings is not None:
            timings["retire"] += perf_counter() - start
        return held

    def apply_fault(self, model, burst_size: int, generator) -> None:
        """Inject one fault burst (common engine surface).

        ``model`` is a :class:`repro.sim.fault_engine.FaultModel`; on this
        backend its ``O(S)`` aggregate applier moves ``burst_size`` agents'
        worth of state mass on the count vector via a multivariate-
        hypergeometric victim draw — no per-agent work at any ``n``.
        """
        model.apply_counts(self.protocol, self._one_row(), burst_size, generator)

    def configuration_is_silent(self) -> bool:
        """True iff no *possible* interaction can change the counts.

        See :func:`counts_are_silent` for the law (and the
        single-occupancy diagonal exemption).
        """
        return counts_are_silent(self.table, self._one_row())

    def _result(self, converged: bool) -> SimulationResult:
        return SimulationResult(
            converged=converged,
            interactions=self.metrics.interactions,
            parallel_time=self.metrics.parallel_time,
            metrics=self.metrics,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # Row workloads
    # ------------------------------------------------------------------

    def run_rows_until(
        self,
        predicate: ConfigPredicate,
        *,
        max_interactions: int,
        check_interval: int = 1,
        faults: Optional[Sequence[Optional[FaultSpec]]] = None,
    ) -> list[RowOutcome]:
        """Row-wise ``run_until``: every row to convergence or budget.

        Same check discipline as every engine — the predicate is
        evaluated per row before the first step and then every
        ``check_interval`` interactions; a converged row retires with its
        interaction count (a check boundary), a row that exhausts the
        budget reports ``max_interactions`` unconverged.  A row that goes
        *silent* without faults can never converge, so it retires
        unconverged immediately (same outcome ``run_until`` reports after
        idling out its budget).  ``faults`` gives each row an optional
        :class:`FaultSpec`, sliced into the advances at that row's burst
        boundaries.
        """
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        states = self._start_drive(faults)
        outcomes: list[Optional[RowOutcome]] = [None] * self.trials
        timings = self._timings
        live = list(range(self.trials))
        position = 0
        checked = perf_counter() if timings is not None else 0.0
        live = self._retire_converged(live, outcomes, predicate, position)
        live = self._retire_silent(live, outcomes, states, max_interactions)
        if timings is not None:
            timings["retire"] += perf_counter() - checked
        while live and position < max_interactions:
            target = min(position + check_interval, max_interactions)
            self._advance_rows(live, position, target, states)
            position = target
            checked = perf_counter() if timings is not None else 0.0
            live = self._retire_converged(live, outcomes, predicate, position)
            if position < max_interactions:
                live = self._retire_silent(live, outcomes, states, max_interactions)
            if timings is not None:
                timings["retire"] += perf_counter() - checked
        for row in live:
            outcomes[row] = RowOutcome(
                row, False, max_interactions, max_interactions / self.n
            )
        return outcomes  # type: ignore[return-value]

    def measure_rows_availability(
        self,
        correct: ConfigPredicate,
        *,
        total_interactions: int,
        checkpoint_every: int,
        faults: Optional[Sequence[Optional[FaultSpec]]] = None,
    ) -> list[AvailabilityReport]:
        """Row-wise availability workload: inject, checkpoint, report per row.

        Every row runs the full budget (availability has no early exit);
        rows that go silent with no faults pending stop *sampling* — their
        counts are provably frozen — but keep checkpointing.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        states = self._start_drive(faults)
        accounting = [AvailabilityAccounting() for _ in range(self.trials)]
        frozen: set[int] = set()
        position = 0
        while position < total_interactions:
            target = min(position + checkpoint_every, total_interactions)
            active = [row for row in range(self.trials) if row not in frozen]
            self._advance_rows(active, position, target, states)
            position = target
            for row in range(self.trials):
                state = states[row]
                if state is not None:
                    accounting[row].note_events(state.events)
                accounting[row].checkpoint(
                    position, self._row_predicate(correct, self._matrix[row])
                )
                if row not in frozen and state is None and self._row_silent(row):
                    frozen.add(row)
        return [
            accounting[row].report(
                total_interactions=total_interactions,
                fault_bursts=len(states[row].events) if states[row] else 0,
            )
            for row in range(self.trials)
        ]

    def _start_drive(self, faults) -> list[Optional[_RowFaultState]]:
        """Claim the engine's one row workload; materialize per-row faults."""
        if faults is None:
            specs: list[Optional[FaultSpec]] = [None] * self.trials
        else:
            specs = list(faults)
            if len(specs) != self.trials:
                raise ValueError(
                    f"faults must give one Optional[FaultSpec] per row: "
                    f"expected {self.trials}, got {len(specs)}"
                )
            for spec in specs:
                if spec is not None and not isinstance(spec, FaultSpec):
                    raise TypeError(
                        f"faults entries must be FaultSpec or None, got {type(spec).__name__}"
                    )
        if self._driven:
            raise RuntimeError(
                "this engine has already been driven; build a fresh engine per workload"
            )
        self._driven = True
        states = [
            _RowFaultState(spec, self.protocol, self.n) if spec is not None else None
            for spec in specs
        ]
        self._row_events = [state.events if state else [] for state in states]
        return states

    # ------------------------------------------------------------------
    # Retirement and per-row checks
    # ------------------------------------------------------------------

    def _row_predicate(self, predicate, counts) -> bool:
        on_counts = getattr(predicate, "on_counts", None)
        if on_counts is not None:
            return bool(on_counts(counts))
        return bool(predicate(configuration_from_counts(self.protocol, counts)))

    def _row_silent(self, row: int) -> bool:
        return counts_are_silent(self.table, self._matrix[row])

    def _retire_converged(self, live, outcomes, predicate, position):
        if not live:
            return []
        held = self._rows_predicate(predicate, live)
        survivors = []
        for row, holds in zip(live, held):
            if holds:
                outcomes[row] = RowOutcome(row, True, position, position / self.n)
            else:
                survivors.append(row)
        return survivors

    def _rows_predicate(self, predicate, rows) -> list[bool]:
        """``predicate`` over every row of ``rows`` — one array op when
        the predicate carries a row-vectorized counts form.

        Predicates built by :func:`goal_counts_predicate` expose
        ``on_counts_rows`` (backed by
        :meth:`~repro.core.protocol.PopulationProtocol.goal_counts_rows`),
        so the whole live set is answered by one ``(R, S)`` expression
        instead of a Python loop over ``T``.  Plain predicates fall back
        to the per-row check.
        """
        on_rows = getattr(predicate, "on_counts_rows", None)
        if on_rows is not None:
            np = self._np
            sub = self._matrix[np.asarray(rows, dtype=np.int64)]
            return [bool(holds) for holds in np.asarray(on_rows(sub)).reshape(-1)]
        return [self._row_predicate(predicate, self._matrix[row]) for row in rows]

    def _silent_rows(self, rows):
        """Per-row :func:`counts_are_silent`, vectorized over ``rows``.

        One ``(R, S, S)`` mask against the precomputed effectful-pair
        table — same verdicts as the per-row scan, including the
        diagonal's two-agent requirement.  Falls back to the per-row
        check when ``S`` is past the O(S²)-memory bar.
        """
        np = self._np
        if self._effectful is None:
            return [self._row_silent(row) for row in rows]
        sub = self._matrix[np.asarray(rows, dtype=np.int64)]
        occupied = sub > 0
        changes = occupied[:, :, None] & occupied[:, None, :] & self._effectful
        diagonal = np.arange(self.num_states)
        changes[:, diagonal, diagonal] &= sub > 1
        return ~changes.any(axis=(1, 2))

    def _retire_silent(self, live, outcomes, states, max_interactions):
        # A silent row with no fault stream is frozen forever: its
        # predicate stays False at every future check, so run_until would
        # idle to the budget and report exactly this.  Rows with faults
        # stay live — a burst can corrupt them awake.
        candidates = [row for row in live if states[row] is None]
        if not candidates:
            return list(live)
        silent = dict(zip(candidates, self._silent_rows(candidates)))
        survivors = []
        for row in live:
            if silent.get(row, False):
                outcomes[row] = RowOutcome(
                    row, False, max_interactions, max_interactions / self.n
                )
            else:
                survivors.append(row)
        return survivors

    # ------------------------------------------------------------------
    # Row advances: burst slicing and the sampler choice
    # ------------------------------------------------------------------

    def _advance_rows(self, rows, position, target, states) -> None:
        """Advance every row in ``rows`` from ``position`` to ``target``,
        firing each row's scheduled bursts at their interaction boundaries
        (the row-wise twin of :meth:`FaultEngine._advance_to`)."""
        pos = {row: position for row in rows}
        while True:
            stepping: list[int] = []
            amounts: list[int] = []
            for row in rows:
                state = states[row]
                if state is not None:
                    # Fire every burst due at (or before) this row's
                    # current boundary — several can ceil to one position.
                    while math.ceil(state.next_burst) <= pos[row]:
                        self._fire_burst(row, state, pos[row])
                if pos[row] >= target:
                    continue
                stop = target
                if state is not None:
                    stop = min(stop, math.ceil(state.next_burst))
                stepping.append(row)
                amounts.append(stop - pos[row])
                pos[row] = stop
            if not stepping:
                return
            if self._lockstep(len(stepping)):
                self._step_rows(stepping, amounts)
            else:
                for row, amount in zip(stepping, amounts):
                    self._run_row(self._matrix[row], amount)

    def _lockstep(self, stepping: int) -> bool:
        """The sampler rule for ``stepping`` rows (see :data:`ROW_RUN_COST`);
        one-row engines and the pair oracle always run per row."""
        return (
            self.trials > 1
            and self.batching == BATCHING_RUN
            and stepping * ROW_RUN_COST >= self.num_states - 1
        )

    def _fire_burst(self, row, state, position) -> None:
        state.model.apply_counts(
            self.protocol, self._matrix[row], state.burst_size, state.corrupt
        )
        state.events.append(FaultEvent(position, []))
        state.next_burst += state.schedule.exponential(state.mean_gap)

    # ------------------------------------------------------------------
    # The per-row sampler
    # ------------------------------------------------------------------

    def _run_row(self, counts, count: int) -> None:
        """``count`` interactions on one row vector ``counts``, in place.

        The collision-run sampler first runs the counts-level *silence
        check* (:func:`counts_are_silent`): when every interaction the row
        can produce is provably a no-op — a silent protocol in its goal
        configuration, an epidemic at saturation — the whole advance is
        skipped in ``O(occupied²)`` table lookups.  Law-exact: from such a
        configuration the counts trajectory is constant, so skipping
        changes nothing but the wall clock.  The pair-at-a-time oracle
        never skips (its job is to be obviously correct).
        """
        if self.batching == BATCHING_PAIR:
            self._run_pairwise(counts, count)
            return
        if not count:
            return
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        silent = counts_are_silent(self.table, counts)
        if timings is not None:
            timings["retire"] += perf_counter() - start
        if not silent:
            self._run_batched(counts, count)

    def _run_batched(self, counts, count: int) -> None:
        """``count`` interactions as collision-free runs + collision steps.

        Each loop iteration is one (possibly budget-truncated) run: draw
        its length from the birthday law, draw the ``2k`` distinct
        agents' states by multivariate hypergeometric, pair them with a
        shuffle, apply the aggregate delta, then — if the budget allows —
        apply the colliding ``(L+1)``-th interaction individually.
        Truncating a run at the advance boundary and restarting fresh next
        call is exact (see the module docstring).

        The body is the engine's hot loop — ``Θ(√n)`` interactions per
        iteration means tens of thousands of iterations per ``n·log n``
        workload — so the draw/apply kernels are inlined against hoisted
        locals and ndarray *methods* (``.repeat``/``.take``), skipping
        the ``numpy.*`` wrapper dispatch that would otherwise rival the
        kernels themselves.  The clock is read only when instrumented.
        """
        np = self._np
        rng = self._generator
        codes = self._codes
        size = self.num_states
        u_flat, v_flat = self.table.flat
        bincount = np.bincount
        concatenate = np.concatenate
        draw_sample = rng.multivariate_hypergeometric
        shuffle = rng.shuffle
        next_run_length = self._runs.next_run_length
        timings = self._timings
        remaining = count
        while remaining > 0:
            if timings is not None:
                start = perf_counter()
            length = next_run_length()
            k = min(length, remaining)
            collide = remaining > k and k == length
            sample = draw_sample(counts, 2 * k)
            if timings is not None:
                drawn_at = perf_counter()
                timings["draw"] += drawn_at - start
            drawn = codes.repeat(sample)
            shuffle(drawn)
            if collide:
                avail = counts - sample  # pre-run states of unused agents
            if timings is not None:
                matched_at = perf_counter()
                timings["match"] += matched_at - drawn_at
            index = drawn[0::2] * size
            index += drawn[1::2]
            outputs = concatenate((u_flat.take(index), v_flat.take(index)))
            counts += bincount(outputs, minlength=size)
            counts -= bincount(drawn, minlength=size)
            remaining -= k
            if collide:
                self._collision_interaction(counts, avail)
                remaining -= 1
            if timings is not None:
                timings["apply"] += perf_counter() - matched_at

    def _collision_interaction(self, counts, avail) -> None:
        """One interaction conditioned on touching an already-used agent.

        ``avail`` holds the states of the agents the current run has not
        touched; ``counts - avail`` is the (post-interaction) state
        multiset of the used agents.  The colliding ordered pair is
        uniform over pairs with at least one used member: categories
        (used, used), (used, unused), (unused, used) with weights
        ``U(U-1)``, ``U·A``, ``A·U`` — which sum to
        ``n(n-1) - A(A-1)``, the number of qualifying pairs.
        """
        used = counts - avail
        used_total = int(used.sum())
        avail_total = self.n - used_total
        w_uu = used_total * (used_total - 1)
        w_ua = used_total * avail_total
        x = self._generator.random() * (w_uu + 2 * w_ua)
        if x < w_uu:
            a = self._draw_state(used, used_total)
            used[a] -= 1
            b = self._draw_state(used, used_total - 1)
            used[a] += 1
        elif x < w_uu + w_ua:
            a = self._draw_state(used, used_total)
            b = self._draw_state(avail, avail_total)
        else:
            a = self._draw_state(avail, avail_total)
            b = self._draw_state(used, used_total)
        self._apply_one(counts, a, b)

    def _draw_state(self, pool, total: int) -> int:
        """The state of one agent drawn uniformly from a count-vector pool."""
        x = int(self._generator.integers(0, total))
        # ndarray methods, not numpy.* wrappers: this runs twice per
        # collision interaction, i.e. once per Θ(√n) simulated steps.
        return int(pool.cumsum().searchsorted(x, side="right"))

    def _apply_one(self, counts, a: int, b: int) -> None:
        out_u, out_v = self.table.lookup(a, b)
        counts[a] -= 1
        counts[b] -= 1
        counts[out_u] += 1
        counts[out_v] += 1

    def _run_pairwise(self, counts, count: int) -> None:
        """Exact sequential sampling over counts (the gating oracle).

        Per interaction: the initiator's state is drawn uniformly over
        all ``n`` agents (i.e. from ``counts``), the responder's over the
        remaining ``n - 1``, and the pair is applied immediately.  Scalar
        and slow — its job is to be obviously correct.
        """
        for _ in range(count):
            a = self._draw_state(counts, self.n)
            counts[a] -= 1  # the responder is one of the other n-1 agents
            b = self._draw_state(counts, self.n - 1)
            counts[a] += 1
            self._apply_one(counts, a, b)

    # ------------------------------------------------------------------
    # The lockstep sampler
    # ------------------------------------------------------------------

    def _step_rows(self, rows, amounts) -> None:
        """Run ``amounts[i]`` interactions on each row of ``rows``, in
        lockstep collision-free runs; rows leave the stepping set as
        their budget empties (the straggler-retirement hot loop).

        Per iteration, for the R still-stepping rows: one run-length
        block draw, one row-wise hypergeometric sample of the ``2k``
        agents' states, the uniform pairing of those agents, one
        aggregate delta — and a vectorized collision interaction for
        every row whose run completed inside its budget.

        The pairing has two law-identical implementations.  A uniform
        shuffle of the ``2k``-agent multiset decomposes exactly: the
        initiator (odd-position) states are a size-``k`` multivariate
        hypergeometric subsample of the drawn composition, and the
        initiator→responder assignment is a uniform matching, whose
        pair-type counts follow the multivariate Fisher hypergeometric —
        both samplable by the same conditional chain that already draws
        the composition.  That *matching* path costs ``O(S²)`` generator
        calls per step, independent of the run length, so it is used
        whenever ``S(S-1) ≤ √n``; wider protocols keep the explicit
        multiset materialization + segmented-shuffle path (``O(R·√n)``
        elements but only a dozen numpy calls).
        """
        np = self._np
        rng = self._generator
        size = self.num_states
        counts = self._matrix
        u_flat, v_flat = self.table.flat
        timings = self._timings
        idx = np.asarray(rows, dtype=np.int64)
        remaining = np.asarray(amounts, dtype=np.int64)
        while idx.size:
            start = perf_counter() if timings is not None else 0.0
            lengths = self._runs.next_run_lengths(int(idx.size))
            k = np.minimum(lengths, remaining)
            collide = (remaining > k) & (k == lengths)
            two_k = 2 * k
            sub = counts[idx]  # (R, S) snapshot of the pre-run counts
            sample = self._sample_rows(sub, two_k)
            live = int(idx.size)
            if timings is not None:
                drawn = perf_counter()
                timings["draw"] += drawn - start
            if self._matching:
                # Run applied by pair-type counts: no per-agent arrays.
                initiators = self._sample_rows(sample, k)
                matched = self._match_rows(initiators, sample - initiators)
                if timings is not None:
                    paired = perf_counter()
                    timings["match"] += paired - drawn
                counts[idx] += matched.reshape(live, size * size) @ self._pair_delta
            else:
                # Pair the drawn states with one segmented shuffle: random
                # keys offset by the local row index sort row-major with a
                # uniform order inside each row; segments have even length,
                # so the global even/odd split never pairs across rows.
                flat_codes = np.repeat(np.tile(self._codes, live), sample.reshape(-1))
                row_local = np.repeat(np.arange(live, dtype=np.int64), two_k)
                order = np.argsort(row_local + rng.random(flat_codes.size))
                shuffled = flat_codes[order]
                initiators = shuffled[0::2]
                responders = shuffled[1::2]
                pair_rows = np.repeat(np.arange(live, dtype=np.int64), k)
                pair_index = initiators * size + responders
                if timings is not None:
                    paired = perf_counter()
                    timings["match"] += paired - drawn
                outputs = np.concatenate(
                    (u_flat.take(pair_index), v_flat.take(pair_index))
                )
                out_rows = np.concatenate((pair_rows, pair_rows))
                delta = np.bincount(out_rows * size + outputs, minlength=live * size)
                delta -= np.bincount(row_local * size + flat_codes, minlength=live * size)
                counts[idx] += delta.reshape(live, size)
            remaining = remaining - k
            if collide.any():
                self._collision_rows(idx[collide], sub[collide] - sample[collide])
                remaining[collide] -= 1
            if timings is not None:
                timings["apply"] += perf_counter() - paired
            keep = remaining > 0
            if not keep.all():
                idx = idx[keep]
                remaining = remaining[keep]

    @functools.cached_property
    def _pair_delta(self):
        """Per-ordered-pair aggregate delta: row ``i*S + j`` is the counts
        change of one ``(i, j)`` interaction, so a whole run applies as
        ``pair-type counts @ delta``.  ``(S², S)`` int64 — built on the
        first matching step only, never for wide-``S`` protocols."""
        np = self._np
        size = self.num_states
        u_flat, v_flat = self.table.flat
        pairs = np.arange(size * size, dtype=np.int64)
        delta = np.zeros((size * size, size), dtype=np.int64)
        np.add.at(delta, (pairs, u_flat), 1)
        np.add.at(delta, (pairs, v_flat), 1)
        np.subtract.at(delta, (pairs, pairs // size), 1)
        np.subtract.at(delta, (pairs, pairs % size), 1)
        return delta

    def _match_rows(self, initiators, responders):
        """Row-wise pair-type counts of a uniform initiator→responder
        matching: ``[r, i, j]`` counts run pairs with initiator code
        ``i`` and responder code ``j``.

        Uniformity makes the responders matched to each initiator code a
        multivariate hypergeometric subsample of the responders not yet
        matched, so the chain over initiator codes (each step one
        :meth:`_sample_rows` call) samples the exact joint law; the last
        code takes whatever remains.
        """
        np = self._np
        size = self.num_states
        matched = np.zeros((initiators.shape[0], size, size), dtype=np.int64)
        remaining = responders.copy()
        for code in range(size - 1):
            taken = self._sample_rows(remaining, initiators[:, code])
            matched[:, code, :] = taken
            remaining -= taken
        matched[:, size - 1, :] = remaining
        return matched

    def _sample_rows(self, sub, nsample):
        """Row-wise multivariate hypergeometric: the states of ``nsample``
        distinct agents drawn from each row of ``sub``.

        The conditional chain over codes (numpy's own ``marginals``
        decomposition): code by code, a vectorized-over-rows scalar
        hypergeometric of the remaining draw against the remaining
        population.  ``S - 1`` generator calls serve the whole batch.
        """
        np = self._np
        rng = self._generator
        out = np.zeros_like(sub)
        population_rest = sub.sum(axis=1)
        draw_rest = nsample.astype(np.int64)
        for code in range(self.num_states - 1):
            good = sub[:, code]
            population_rest = population_rest - good
            # hypergeometric needs a non-empty urn; an exhausted row has
            # draw_rest == 0, so a phantom bad ball never gets drawn.
            bad = np.where(good + population_rest > 0, population_rest, 1)
            taken = rng.hypergeometric(good, bad, draw_rest)
            out[:, code] = taken
            draw_rest = draw_rest - taken
        out[:, -1] = draw_rest
        return out

    def _collision_rows(self, rows, avail) -> None:
        """One colliding interaction per row, vectorized across rows.

        ``avail`` holds each row's unused agents' states; ``counts -
        avail`` (post-run) is the used agents' output multiset.  Category
        weights and pool draws mirror :meth:`_collision_interaction`
        row-wise.
        """
        np = self._np
        rng = self._generator
        size = self.num_states
        counts = self._matrix
        used = counts[rows] - avail
        used_total = used.sum(axis=1)
        avail_total = self.n - used_total
        w_uu = used_total * (used_total - 1)
        w_ua = used_total * avail_total
        x = rng.random(rows.size) * (w_uu + 2 * w_ua)
        uu = x < w_uu
        ua = (~uu) & (x < w_uu + w_ua)
        au = ~(uu | ua)
        # Two category-merged draws instead of one pair per category:
        # the initiator comes from the used pool except in (unused, used)
        # rows; the responder from the used pool except in (used, unused)
        # rows, with (used, used) rows' pool depleted by the initiator.
        a_pool = np.where(au[:, None], avail, used)
        a = self._draw_state_rows(a_pool, np.where(au, avail_total, used_total))
        b_pool = np.where(ua[:, None], avail, used)
        b_pool[uu, a[uu]] -= 1
        b_total = np.where(ua, avail_total, used_total - uu)
        b = self._draw_state_rows(b_pool, b_total)
        pair_index = a * size + b
        u_flat, v_flat = self.table.flat
        base = rows * size
        flat = counts.reshape(-1)
        flat += np.bincount(
            np.concatenate((base + u_flat.take(pair_index), base + v_flat.take(pair_index))),
            minlength=flat.size,
        )
        flat -= np.bincount(
            np.concatenate((base + a, base + b)), minlength=flat.size
        )

    def _draw_state_rows(self, pools, totals):
        """Row-wise: the state of one agent drawn uniformly from each pool."""
        np = self._np
        x = self._generator.integers(0, totals)
        return (pools.cumsum(axis=1) <= x[:, None]).sum(axis=1).astype(np.int64)
