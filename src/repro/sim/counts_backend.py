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
surface) and ``batch`` (a whole sweep cell per engine, built from a
:class:`~repro.sim.initial_state.Replicated` start).

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
  ``S × S`` transition table (one ``bincount`` of its outputs, reusing
  :mod:`repro.sim.array_backend`'s table builder);
* the ``(L+1)``-th interaction *collides* — it involves at least one
  already-used agent, whose current state is one of the run's outputs.
  Its ordered pair is uniform over the ``U(U-1) + 2·U·A`` pairs with a
  used member (``U = 2L`` used agents, ``A = n - U`` unused), so it is
  applied individually;
* the per-row sampler's *batch* goes on from there: the next stretch of
  collision-free interactions follows the birthday law conditioned on
  the ``U`` agents already used, and so on through up to
  :data:`RUN_COLLISIONS` collisions.  Every agent the batch meets for the
  first time is still a uniform draw from the counts at the batch's
  start, so one multivariate hypergeometric gives them all; the lockstep
  sampler restarts after its one collision;
* a batch's agent schedule — its stretches and which agents its
  collisions reuse — never reads the agents' states, so the per-row
  sampler draws the schedules of :data:`BATCH_BLOCK` batches in one
  vectorized pass and serves them one batch at a time; an advance's
  last batch is cut at its budget and the rest of its schedule is
  discarded.

Agents in equal states are exchangeable, so the counts process is an
exact lumping of the agent-level chain; ending a batch at a stopping
time — its last collision, an advance boundary — and restarting fresh
is likewise exact (the Markov property: the future law depends only on
``counts``).  The batched sampler is therefore *distribution*-identical
to the object and array engines — and to a pair-at-a-time oracle that
draws each interaction's two states in turn, which the law tests keep
beside them to gate it.

**Two samplers, one law.**  In the row loop each row stops at its own
check boundaries and bursts (:meth:`CountsSimulation._drive_rows`), and
each iteration steps the live rows with one of two samplers, chosen by
:meth:`CountsSimulation._lockstep` from ``S``, ``n`` and the number of
live rows:

* the *per-row* sampler runs one row at a time to its stop in batches,
  one C-level ``multivariate_hypergeometric`` over the occupied codes per
  batch, with the batches' schedules drawn a block at a time and shared
  by every row it steps; its collisions apply in time order to the
  batch's own outputs, and an unused member of a colliding pair is one
  more fresh agent — a batch costs ``O(occupied codes + batch length)``,
  however wide ``S`` is.  One-row engines always use it, so a single
  trial is the same stream whichever registry name built it;
* the *lockstep* sampler gives every live row one step with numpy calls
  vectorized across the rows: one run-length block draw, and conditional
  hypergeometric chains over the ``S`` codes (numpy's own ``marginals``
  decomposition) for the run's states and its pair-type counts (see
  :meth:`CountsSimulation._step_rows`).  A step costs ``O(S²)``
  generator calls whatever the number of rows, so the sampler serves
  only protocols with ``S(S-1) ≤ √n``, and only once at least ``S - 1``
  rows step; every other engine runs each row per row.  Around those
  calls a step makes a few dozen passes over the live rows' ``(R, S)``
  block, which is read out of the matrix once and written back once;
  each chain starts from its rows' known totals (``n``, ``2k``, ``k``)
  rather than summing them.

Either sampler may *jump* instead of running: a row that expects fewer
than one count change per run (near the start or the end of an epidemic)
draws the geometric number of null interactions up to the next effectful
one and applies that one pair — Gillespie's idea on the discrete-time
chain, still the exact law.  The lockstep sampler weighs its rows as
``c·(M c)`` over the 0/1 matrix ``M`` of the effectful pairs, and pair
by pair only the rows that jump; the per-row sampler weighs its row's
occupied codes straight from the table, up to
:data:`MAX_SILENCE_STATES` of them.

**One rule for effectful pairs.**  An ``(a, b)`` interaction changes the
counts unless ``δ(a, b)`` is ``(a, b)`` or the swap ``(b, a)``, and the
engine decides this in one place (:meth:`CountsSimulation._changes_counts`).
A row's jump weight ``W`` counts the ordered agent pairs that change its
counts, and a row with ``W = 0`` is *silent*: a jump step ends its
advance, ``run_rows_until`` retires it and ``measure_rows_availability``
stops sampling it, none of them with a draw.

Rows share one PCG64 stream seeded ``derive_seed(seed, 0)`` and consume
disjoint draws, so rows are mutually independent and each is
distribution-identical to a one-row engine.

**Faults.**  Each row may carry a :class:`~repro.sim.fault_engine
.FaultSpec`; the row holds the :class:`~repro.sim.fault_engine.FaultEngine`
it builds, the row stops at each of its burst boundaries, and
the row's engine fires its bursts through the same firing step it uses on
a per-trial engine.  A row's burst schedule is therefore bit-identical to
a per-trial ``FaultEngine`` under the same ``FaultSpec``.

**Determinism.**  A run is a pure function of ``(protocol, initial
counts, seed, check and burst boundaries)``.  Unlike the array
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
    require_numpy,
    transition_table_for,
)
from repro.sim.fault_engine import FaultEngine, FaultSpec
from repro.sim.faults import AvailabilityAccounting, AvailabilityReport, FaultEvent
from repro.sim.initial_state import Clean, InitialState, Replicated
from repro.sim.metrics import Metrics
from repro.sim.simulation import ConfigPredicate, _Engine


class CountsBackendError(ArrayBackendError):
    """The counts backend cannot run this protocol (or numpy is missing).

    Subclasses :class:`ArrayBackendError` because the two vectorized
    engines share the transition-table machinery — callers that catch the
    array error (the established "no finite encoding" signal) catch this
    one too.
    """


#: The cap on weighing effectful pairs: up to this many states the silence
#: check reads one (S, S) mask; wider protocols weigh a row's occupied codes
#: straight from the table (jump weights and silence alike), and above this
#: many occupied codes the O(occupied²) read stops paying for itself — the
#: row just runs and is never called silent (correct either way).
MAX_SILENCE_STATES = 64

#: The colliding interactions a per-row batch goes on through: the batch
#: ends at its ``RUN_COLLISIONS``-th (see :meth:`CountsSimulation
#: ._run_batched`).  Each batch pays one fixed cost — the occupied-code
#: scan, one hypergeometric draw, a dozen numpy calls — and each collision
#: under a microsecond to draw (in blocks of :data:`BATCH_BLOCK`) and
#: about one to apply.  On the n = 10⁶ reset epidemic (S = 1654, one Intel
#: Xeon thread, numpy 2.4.6) four paced runs each took 2.25–2.33 s at 8,
#: 2.09–2.25 s at 16, 2.06–2.23 s at 24 and 1.98–2.13 s at 32.  Past 16
#: the gain is within the host's noise while a batch's arrays grow: the
#: traced peak of a 20,000-interaction n = 10⁶ epidemic run reads 176,
#: 229, 278 and 324 KB, and the engine keeps it under n/4 bytes (see
#: ``TestResultSnapshot``).  At 16 a batch's used agents stay near
#: 5.7·√n, inside the stretch table's ``max_used`` ≈ 7.7·√n.
RUN_COLLISIONS = 16

#: The batch schedules :meth:`CountsSimulation._batch_schedule` draws at
#: once (:meth:`~repro.scheduler.scheduler.CollisionRunSampler
#: .next_batches`): each of the draw's ~30 numpy calls a collision costs
#: a few microseconds whether it serves one schedule or 128, and a block
#: stays alive while it is served (four ``RUN_COLLISIONS × 128`` int64
#: tables and the batches' sizes, ~100 KB at 16), inside the same traced
#: peak.
BATCH_BLOCK = 128


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


def _row_items(matrix):
    """A C-contiguous ``(R, S)`` matrix as ``R`` opaque items, one a row,
    sharing its memory: gathering or scattering rows through it is one
    1-D fancy index, which numpy does about ten times faster than the
    2-D one."""
    return matrix.view(f"V{matrix.strides[0]}").reshape(-1)


def _require_num_states(protocol: PopulationProtocol) -> int:
    size = protocol.num_states()
    if size is None:
        raise CountsBackendError(
            f"protocol '{protocol.name}' has no finite state encoding "
            "(num_states() is None), so it cannot run on the counts/batch "
            "backend; use backend='object'"
        )
    return size


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
# Per-row results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowOutcome:
    """One row's result — the light per-trial record of the row workloads."""

    row: int
    converged: bool
    interactions: int
    parallel_time: float


# ---------------------------------------------------------------------------
# The counts engine
# ---------------------------------------------------------------------------


class CountsSimulation(_Engine):
    """``T`` trials as the rows of one ``(T, S)`` ``int64`` counts matrix.

    ``init`` is any :class:`~repro.sim.initial_state.InitialState` — a
    :class:`~repro.sim.initial_state.Replicated` batch gives one row per
    trial, anything else (or a plain ``n``, a clean start) one row.
    Every row must describe the same population size (the collision-run
    law and the fault clock are per-``n``).  All randomness comes from one
    PCG64 stream seeded ``derive_seed(seed, 0)`` (table protocols are
    deterministic, so no transition stream is needed).

    A one-row engine is a per-trial engine: it defines ``run_batch`` /
    ``predicate_holds`` / ``apply_fault`` / ``config`` and inherits ``run``
    / ``run_until`` and the phase clock from the shared engine driver
    (``draw``: run lengths, compositions and jump draws, ``match``:
    pairing, ``apply``: aggregate deltas, collision interactions and
    jumped pairs, ``retire``: jump weights, silence and predicate checks).  With more rows the per-trial methods
    raise, because a batch has rows, not a single trajectory.  Jump
    weights, silence and the lockstep jump tables all read one rule for
    which pairs change the counts, :meth:`_changes_counts`.  Every
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
    ):
        np = require_numpy()
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
        self.table = transition_table_for(protocol)
        self.metrics = Metrics(n=self.n)
        self._np = np
        self._generator = np_stream(seed, 0)
        self._runs = CollisionRunSampler(self.n, self._generator)
        # The per-row sampler's block of batch schedules, and how many of
        # them it has served (see _batch_schedule).
        self._block = None
        self._served = BATCH_BLOCK
        # The jump rule's E[L] = Σ P(L ≥ t), the mean collision-free run.
        self._mean_run = float(self._runs.survival.sum())
        self._driven = False
        self._row_faults: list[Optional[FaultEngine]] = [None] * self.trials
        self._faulted = np.zeros(self.trials, dtype=bool)
        self._row_events: list[list[FaultEvent]] = []
        # The lockstep sampler pairs runs by type counts, an S² chain of
        # generator calls per step, so it serves only protocols where
        # that is at most √n (see _lockstep).
        self._matching = size * (size - 1) <= math.isqrt(self.n)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def counts(self):
        """The ``(T, S)`` counts matrix (a live view, not a copy)."""
        return self._matrix

    @property
    def config(self) -> list[Any]:
        """The one row's configuration as decoded state objects (shared per code)."""
        return configuration_from_counts(self.protocol, self._one_row())

    def _config_snapshot(self) -> Callable[[], list[Any]]:
        row = self._one_row().copy()
        return functools.partial(configuration_from_counts, self.protocol, row)

    def fault_events(self, row: int = 0) -> list[FaultEvent]:
        """Row ``row``'s fired bursts from the last driven row workload."""
        if not self._row_events:
            raise RuntimeError("no row workload has been driven yet")
        return self._row_events[row]

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

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the per-row sampler."""
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        self._run_row(self._one_row(), count)
        self.metrics.interactions += count

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
        ``check_interval`` interactions of that row; a converged row
        retires with its interaction count (a check boundary), a row that
        exhausts the budget reports ``max_interactions`` unconverged.  A
        row that goes *silent* without faults can never converge, so it
        retires unconverged immediately (same outcome ``run_until``
        reports after idling out its budget).  ``faults`` gives each row
        an optional :class:`FaultSpec`, whose bursts stop the row at their
        boundaries (see :meth:`_drive_rows`).
        """
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        self._start_drive(faults)
        n = self.n
        outcomes = [
            RowOutcome(row, False, max_interactions, max_interactions / n)
            for row in range(self.trials)
        ]

        def check(rows, positions):
            held = self._rows_predicate(predicate, rows)
            for row, position in zip(rows[held].tolist(), positions[held].tolist()):
                outcomes[row] = RowOutcome(row, True, position, position / n)
            keep = ~held
            keep[keep] = ~self._frozen(rows[keep])
            return keep

        self._drive_rows(max_interactions, check_interval, check)
        return outcomes

    def measure_rows_availability(
        self,
        correct: ConfigPredicate,
        *,
        total_interactions: int,
        checkpoint_every: int,
        faults: Optional[Sequence[Optional[FaultSpec]]] = None,
    ) -> list[AvailabilityReport]:
        """Row-wise availability workload: inject, checkpoint, report per row.

        Every row runs the full budget (availability has no early exit)
        and is checkpointed every ``checkpoint_every`` of its
        interactions.  A row that is silent with no faults — from the
        start or at a checkpoint — stops *sampling*: its counts are
        provably frozen, so every checkpoint it has left reads the verdict
        it holds now.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self._start_drive(faults)
        total, every = total_interactions, checkpoint_every
        accounting = [AvailabilityAccounting() for _ in range(self.trials)]

        def check(rows, positions):
            # A frozen row takes every checkpoint it has left now, with
            # the verdict it holds now; there is no checkpoint at 0.
            frozen = self._frozen(rows)
            judged = (positions > 0) | frozen
            held = self._np.zeros(rows.size, dtype=bool)
            held[judged] = self._rows_predicate(correct, rows[judged])
            for row, position, holds, still in zip(
                rows.tolist(), positions.tolist(), held.tolist(), frozen.tolist()
            ):
                account = accounting[row]
                account.note_events(self._row_events[row])
                last = total if still else position
                for mark in range(position or every, last, every):
                    account.checkpoint(mark, holds)
                if last:
                    account.checkpoint(last, holds)
            return ~frozen

        self._drive_rows(total, every, check)
        return [
            accounting[row].report(
                total_interactions=total, fault_bursts=len(self._row_events[row])
            )
            for row in range(self.trials)
        ]

    def _start_drive(self, faults) -> None:
        """Claim the engine's one row workload; build each row's fault engine."""
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
        self._row_faults = [
            spec.make_engine(self.protocol, n=self.n) if spec is not None else None
            for spec in specs
        ]
        self._faulted = self._np.array([spec is not None for spec in specs], dtype=bool)
        self._row_events = [faults.events if faults else [] for faults in self._row_faults]

    # ------------------------------------------------------------------
    # Per-row checks
    # ------------------------------------------------------------------

    def _row_predicate(self, predicate, counts) -> bool:
        on_counts = getattr(predicate, "on_counts", None)
        if on_counts is not None:
            return bool(on_counts(counts))
        return bool(predicate(configuration_from_counts(self.protocol, counts)))

    def _rows_predicate(self, predicate, rows):
        """``predicate`` over every row of ``rows``, as a boolean mask —
        one array op when the predicate carries a row-vectorized counts
        form.

        Predicates built by :func:`goal_counts_predicate` expose
        ``on_counts_rows`` (backed by
        :meth:`~repro.core.protocol.PopulationProtocol.goal_counts_rows`),
        so a whole set of rows is answered by one ``(R, S)`` expression
        instead of a Python loop.  Plain predicates fall back to the
        per-row check.
        """
        np = self._np
        on_rows = getattr(predicate, "on_counts_rows", None)
        if on_rows is not None:
            held = on_rows(self._matrix.take(rows, axis=0))
        else:
            held = [self._row_predicate(predicate, self._matrix[row]) for row in rows]
        return np.asarray(held, dtype=bool).reshape(-1)

    def _silent_rows(self, rows):
        """Whether each row of ``rows`` is silent: its jump weight ``W`` is
        0, so no ordered pair of two distinct agents changes its counts.

        Up to :data:`MAX_SILENCE_STATES` states, ``W`` is the lockstep jump
        step's (:meth:`_jump_weights`) — ``O(R·S²)`` arithmetic in
        ``O(R·S)`` memory, where weighing each pair would hold ``(R,
        pairs)`` arrays.  Wider protocols weigh each row with the per-row
        jump step's :meth:`_pair_weights`, and call no row with more than
        :data:`MAX_SILENCE_STATES` occupied codes silent.
        """
        if self.num_states > MAX_SILENCE_STATES:
            silent = []
            for row in rows:
                counts = self._matrix[row]
                occupied = counts.nonzero()[0]
                silent.append(
                    occupied.size <= MAX_SILENCE_STATES
                    and not self._pair_weights(counts, occupied).any()
                )
            return silent
        return self._jump_weights(self._matrix.take(rows, axis=0)) == 0

    def _frozen(self, rows):
        """The mask of the rows of ``rows`` whose counts never move again:
        silent (:meth:`_silent_rows`), with no fault stream to corrupt
        them awake."""
        frozen = ~self._faulted[rows]
        if frozen.any():
            frozen[frozen] = self._silent_rows(rows[frozen])
        return frozen

    # ------------------------------------------------------------------
    # The row driver: one event loop, each row at its own stops
    # ------------------------------------------------------------------

    def _drive_rows(self, budget: int, interval: int, check) -> None:
        """Step every row to its own stops until ``check`` retires it or
        its ``budget`` runs out — the one loop behind both row workloads.

        A row's *stop* is the nearer of its next check boundary (every
        ``interval`` of its interactions, and ``budget``) and its next
        burst.  Each iteration gives every live row one step: one lockstep
        iteration (:meth:`_step_rows`) when the sampler rule
        (:meth:`_lockstep`) picks it for the live rows, else the per-row
        sampler to each row's stop.  Rows at their stop are handled at
        once while the rest keep stepping: due bursts fire (the row-wise
        :meth:`FaultEngine._advance_to`), then ``check(rows, positions)``,
        one call over the rows at a check boundary charged to ``retire``,
        says which go on.  It also runs over every row before the first
        step; a row stops at its budget.
        """
        np = self._np
        timings = self._timings

        def checked(rows, positions):
            start = perf_counter() if timings is not None else 0.0
            keep = check(rows, positions) & (positions < budget)
            if timings is not None:
                timings["retire"] += perf_counter() - start
            return keep

        rows = np.arange(self.trials, dtype=np.int64)
        rows = rows[checked(rows, np.zeros_like(rows))]
        pos = np.zeros_like(rows)
        boundary = np.full_like(rows, min(interval, budget))
        burst = np.full_like(rows, budget)  # a fault-free row never bursts
        faulted = self._faulted[rows]
        arrived = np.arange(rows.size)
        while True:
            for i in arrived[faulted[arrived]].tolist():
                row = int(rows[i])
                apply = functools.partial(self._apply_row_fault, row)
                burst[i] = self._row_faults[row]._fire_due(apply, int(pos[i]))
            due = arrived[pos[arrived] == boundary[arrived]]
            if due.size:
                stay = checked(rows[due], pos[due])
                boundary[due] = np.minimum(boundary[due] + interval, budget)
                if not stay.all():
                    keep = np.ones(rows.size, dtype=bool)
                    keep[due[~stay]] = False
                    rows, pos, boundary, burst, faulted = (
                        rows[keep], pos[keep], boundary[keep], burst[keep], faulted[keep]
                    )
            if not rows.size:
                return
            stop = np.minimum(boundary, burst)
            if self._lockstep(rows.size):
                pos = stop - self._step_rows(rows, stop - pos)
                arrived = (pos == stop).nonzero()[0]
            else:
                for row, amount in zip(rows.tolist(), (stop - pos).tolist()):
                    self._run_row(self._matrix[row], amount)
                pos = stop
                arrived = np.arange(rows.size)

    def _lockstep(self, stepping: int) -> bool:
        """The sampler rule: ``stepping`` live rows take one lockstep step
        each when the engine pairs runs by type counts (``S(S-1) ≤ √n``)
        and at least ``S - 1`` rows step, else the per-row sampler.  So
        two-state protocols (from ``n = 4``) step in lockstep and wide-``S``
        ones run per row at any row count, and one-row engines always run
        per row."""
        return self.trials > 1 and self._matching and stepping >= self.num_states - 1

    def _apply_row_fault(self, row: int, model, burst_size: int, generator) -> None:
        model.apply_counts(self.protocol, self._matrix[row], burst_size, generator)

    # ------------------------------------------------------------------
    # The per-row sampler
    # ------------------------------------------------------------------

    def _run_row(self, counts, count: int) -> None:
        """``count`` interactions on one row vector ``counts``, in place.

        The per-row form of the jump rule (see :meth:`_step_rows`): the
        advance starts with a jump step (:meth:`_jump_row`), and keeps
        jumping while the row expects fewer than one count change per
        collision-free run.  Once it expects more — or holds more than
        :data:`MAX_SILENCE_STATES` occupied codes, which are not weighed —
        the rest of the advance is batches of collision-free stretches
        and collisions (:meth:`_run_batched`).  A row that turns sparse
        mid-advance thus keeps running until its next advance: a weight
        pass costs a sizeable share of a batch, so batches are never
        re-weighed.  A row with no
        effectful pair — a silent protocol in its goal configuration, an
        epidemic at saturation — skips the whole advance with no draws:
        its counts trajectory is constant, so skipping changes nothing
        but the wall clock.
        """
        while count:
            jumped = self._jump_row(counts, count)
            if jumped is None:
                self._run_batched(counts, count)
                return
            count -= jumped

    def _jump_row(self, counts, remaining: int) -> Optional[int]:
        """One jump step on the row ``counts``: returns the interactions it
        took, or ``None`` when the row takes runs instead.

        The per-row form of :meth:`_jump_rows`.  The weight pass
        (:meth:`_pair_weights`, charged to ``retire``) reads the table over
        the occupied codes only, and is skipped above
        :data:`MAX_SILENCE_STATES` of them.  A row with ``W·E[L] ≥
        n(n-1)`` returns ``None``.  Otherwise ``τ ~ Geometric(W /
        n(n-1))`` is the number of interactions up to and including the
        next effectful one; if it fits ``remaining``, one effectful pair
        drawn in proportion to its weight is applied and ``τ`` returned.
        An overrunning ``τ`` ends the advance unchanged (the geometric is
        memoryless), and ``W = 0`` ends it without a draw: both return
        ``remaining``.
        """
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        occupied = counts.nonzero()[0]
        total = None
        if occupied.size <= MAX_SILENCE_STATES:
            cumulative = self._pair_weights(counts, occupied).cumsum()
            total = int(cumulative[-1])
        if timings is not None:
            weighed = perf_counter()
            timings["retire"] += weighed - start
        pairs = self.n * (self.n - 1)
        if total is None or total * self._mean_run >= pairs:
            return None
        if not total:
            return remaining
        rng = self._generator
        tau = int(rng.geometric(total / pairs))
        if tau > remaining:
            if timings is not None:
                timings["draw"] += perf_counter() - weighed
            return remaining
        pick = int(cumulative.searchsorted(rng.integers(0, total), "right"))
        a, b = divmod(pick, occupied.size)
        if timings is not None:
            drawn = perf_counter()
            timings["draw"] += drawn - weighed
        self._apply_one(counts, int(occupied[a]), int(occupied[b]))
        if timings is not None:
            timings["apply"] += perf_counter() - drawn
        return tau

    def _pair_weights(self, counts, occupied):
        """``(m, m)`` weights of the ordered pairs of the ``m`` occupied
        codes: entry ``[i, j]`` is ``c_a·(c_b - [a = b])`` for ``a, b =
        occupied[i], occupied[j]`` — the number of ordered agent pairs in
        those states — where the pair changes the counts, else 0."""
        np = self._np
        sizes = counts[occupied]
        weights = sizes[:, None] * sizes
        diagonal = np.arange(occupied.size)
        weights[diagonal, diagonal] -= sizes
        weights *= self._changes_counts(occupied[:, None], occupied)
        return weights

    def _changes_counts(self, initiators, responders):
        """Where an ``(a, b)`` interaction changes the counts, over any
        broadcast pair of code arrays: ``δ(a, b) ∉ {(a, b), (b, a)}``.  A
        swap only trades two agents' states, so the counts — all the
        counts process and its predicates see — stay put."""
        u_flat, v_flat = self.table.flat
        index = initiators * self.num_states + responders
        u = u_flat.take(index)
        v = v_flat.take(index)
        return ((u != initiators) | (v != responders)) & ((u != responders) | (v != initiators))

    def _run_batched(self, counts, count: int) -> None:
        """``count`` interactions as batches: collision-free stretches and
        the colliding interactions between them.

        Each loop iteration is one batch: its agent schedule first, which
        does not depend on the agents' states and so comes from a block
        drawn ahead (:meth:`_batch_schedule`), then the states.  Every
        agent the batch meets for the first time is *fresh* — a uniform
        draw without replacement from the counts at the batch's start,
        since nothing earlier in the batch touched it.
        One multivariate hypergeometric over the occupied codes (a code
        with no agents can only draw zero) gives all of them, a shuffle
        orders them, and taking them out of ``counts`` leaves exactly the
        agents the batch never meets.  The stretches' pairs (the *bulk*)
        are all fresh, so they apply at once through the table, in place
        in the agent array; then the collisions apply in time order to
        their agents' current outputs, and one ``bincount`` adds the array
        back.  A batch ends at its :data:`RUN_COLLISIONS`-th collision, at
        the advance's budget or where the stretch table ends — each a
        stopping time, so restarting fresh is exact (see the module
        docstring); the block's schedules are independent of each other
        and of every state, so the next batch, in this advance or a later
        one, takes the next schedule.

        This is the engine's hot loop — ``Θ(√n)`` interactions per
        collision means thousands of batches per ``n·log n`` workload.
        Every draw and every Python-level step is ``O(occupied codes +
        batch length)``; the only ``S``-length passes are C scans (finding
        the occupied codes, the final ``bincount``).  The kernels are
        inlined against hoisted locals and ndarray *methods*
        (``.repeat``/``.take``), skipping the ``numpy.*`` wrapper dispatch
        that would otherwise rival the kernels themselves.  The clock is
        read only when instrumented.
        """
        np = self._np
        rng = self._generator
        size = self.num_states
        u_flat, v_flat = self.table.flat
        bincount = np.bincount
        draw_sample = rng.multivariate_hypergeometric
        shuffle = rng.shuffle
        schedule = self._batch_schedule
        timings = self._timings
        remaining = count
        while remaining > 0:
            if timings is not None:
                start = perf_counter()
            bulk, agents, collisions = schedule(remaining)
            remaining -= bulk + len(collisions)
            # The occupied codes; nonzero on a bool array is numpy's fast path.
            support = counts.astype(bool).nonzero()[0]
            sample = draw_sample(counts[support], agents)
            if timings is not None:
                drawn_at = perf_counter()
                timings["draw"] += drawn_at - start
            drawn = support.repeat(sample)
            shuffle(drawn)
            if timings is not None:
                matched_at = perf_counter()
                timings["match"] += matched_at - drawn_at
            counts[support] -= sample
            end = 2 * bulk
            index = drawn[0:end:2] * size
            index += drawn[1:end:2]
            drawn[0:end:2] = u_flat.take(index)
            drawn[1:end:2] = v_flat.take(index)
            for first, second in collisions:
                pair = int(drawn[first]) * size + int(drawn[second])
                drawn[first] = u_flat[pair]
                drawn[second] = v_flat[pair]
            counts += bincount(drawn, minlength=size)
            if timings is not None:
                timings["apply"] += perf_counter() - matched_at

    def _batch_schedule(self, remaining: int):
        """The agent schedule of the next batch, cut to at most
        ``remaining`` interactions, as ``(bulk, agents, collisions)``.

        Schedules do not depend on the agents' states, so they come a
        block of :data:`BATCH_BLOCK` at a time, each up to
        :data:`RUN_COLLISIONS` collisions long
        (:meth:`~repro.scheduler.scheduler.CollisionRunSampler
        .next_batches`, which also lays out the agent array), and every
        call serves the next one; the first call, and the one after the
        block's last, draws a new block.  A schedule longer than
        ``remaining`` is cut there — inside a stretch or right after a
        collision — and the rest of it is discarded, the same stopping time
        as a batch drawn for this budget alone.

        ``bulk`` counts the stretches' interactions, ``agents`` the fresh
        agents (the used ones, ``U``), and ``collisions`` lists each
        collision as the array indices of its initiator and responder.
        """
        np = self._np
        served = self._served
        if served == BATCH_BLOCK:
            first, stretches, members, used, taken = self._runs.next_batches(
                BATCH_BLOCK, RUN_COLLISIONS
            )
            bulk = first + stretches.sum(axis=0)
            agents = used[taken - 1, np.arange(BATCH_BLOCK)]  # no stretch after the last
            sizes = np.stack((bulk + taken, bulk, agents, taken, first), axis=1).tolist()
            self._block = sizes, stretches, members, used
            served = 0
        self._served = served + 1
        sizes, stretches, members, used = self._block
        length, bulk, agents, taken, first = sizes[served]
        collisions = members[:taken, :, served].tolist()
        if length <= remaining:
            return bulk, agents, collisions
        if first >= remaining:
            return remaining, 2 * remaining, ()
        # The budget ends after some collision k, or inside its stretch.
        bulk = first
        remaining -= first
        for k, stretch in enumerate(stretches[:taken, served].tolist()):
            remaining -= 1
            if remaining <= stretch:
                agents = int(used[k, served]) + 2 * remaining
                return bulk + remaining, agents, collisions[: k + 1]
            bulk += stretch
            remaining -= stretch
        raise AssertionError("a schedule longer than the budget ends inside it")

    def _apply_one(self, counts, a: int, b: int) -> None:
        out_u, out_v = self.table.lookup(a, b)
        counts[a] -= 1
        counts[b] -= 1
        counts[out_u] += 1
        counts[out_v] += 1

    # ------------------------------------------------------------------
    # The lockstep sampler
    # ------------------------------------------------------------------

    def _step_rows(self, idx, remaining):
        """At least one step for each row of ``idx`` towards its stop,
        ``remaining`` interactions away; returns the interactions each row
        has left (the lockstep step of :meth:`_drive_rows`).

        The rows' ``(R, S)`` block is gathered from the counts matrix once,
        goes through the step in place and is written back once, one
        opaque item a row (:func:`_row_items`).  One lockstep iteration
        gives every row one step of one of two kinds.  A row that expects
        fewer than one count change per collision-free run takes a *jump
        step* (:meth:`_jump_rows`): it skips straight over the null
        interactions to the next effectful one.  Every other row takes a
        *run step* (:meth:`_run_rows`).  Which kind a row takes depends
        only on its counts, so by the Markov property the mixture samples
        the same law as runs alone.

        A run step, for the R rows taking one: one run-length block draw,
        one row-wise hypergeometric sample of the ``2k`` agents' states,
        the uniform pairing of those agents by pair-type counts, one
        aggregate delta — and a vectorized collision interaction for
        every row whose run ended short of its stop.  A uniform shuffle of
        the ``2k``-agent multiset decomposes exactly: the initiator
        (odd-position) states are a size-``k`` multivariate
        hypergeometric subsample of the drawn composition, and the
        initiator→responder assignment is a uniform matching, whose
        pair-type counts follow the multivariate Fisher hypergeometric —
        both samplable by the same conditional chain that already draws
        the composition.  That costs ``O(S²)`` generator calls per step,
        independent of the run length, hence the sampler rule's
        ``S(S-1) ≤ √n`` (:meth:`_lockstep`); the rest of the step is a
        few passes over the block.
        """
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        block = self._matrix.take(idx, axis=0)
        if timings is not None:
            timings["draw"] += perf_counter() - start
        run = self._jump_rows(block, remaining)
        if run is None:
            remaining = self._run_rows(block, remaining)
        elif run.any():
            runs = run.nonzero()[0]
            stepping = block.take(runs, axis=0)
            remaining[runs] = self._run_rows(stepping, remaining.take(runs))
            _row_items(block)[runs] = _row_items(stepping)
        if timings is not None:
            start = perf_counter()
        _row_items(self._matrix)[idx] = _row_items(block)
        if timings is not None:
            timings["apply"] += perf_counter() - start
        return remaining

    def _jump_rows(self, block, remaining):
        """One jump step for each row of ``block`` that expects fewer than
        one count change per run; returns the mask of the rows that take a
        run step instead, or ``None`` when that is every row.

        A row's jump weight ``W`` (:meth:`_jump_weights`) is the number of
        ordered agent pairs whose interaction changes its counts, so each
        interaction is effectful with probability ``W / n(n-1)``,
        independently.  A row with ``W·E[L] < n(n-1)`` (``E[L]`` the mean
        run length) jumps: it draws the number of interactions up to and
        including the next effectful one, ``τ ~ Geometric(W / n(n-1))``,
        and if ``τ`` fits before its stop applies one effectful pair,
        drawn in proportion to its weight ``c_a·(c_b - [a = b])`` by one
        integer in ``[0, W)``, and advances ``τ``.  A row whose ``τ``
        overruns its stop reaches the stop unchanged (the geometric is
        memoryless, so restarting there is exact), and a row with ``W =
        0`` reaches it without drawing at all.  Only the rows that apply a
        pair weigh the pairs one by one, held pair-major as ``(pairs,
        rows)`` so that their running totals are one contiguous
        ``cumsum``.  ``block`` and ``remaining`` are updated in place for
        the rows that jumped.
        """
        rng = self._generator
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        total = self._jump_weights(block)
        pairs = self.n * (self.n - 1)
        jump = total * self._mean_run < pairs
        if not jump.any():
            if timings is not None:
                timings["draw"] += perf_counter() - start
            return None
        rows = jump.nonzero()[0]
        # Empty draws consume nothing, so W = 0 rows leave the stream alone.
        hit = rows[total[rows] > 0]
        tau = rng.geometric(total[hit] / pairs)
        fits = tau <= remaining[hit]
        hit, tau = hit[fits], tau[fits]
        x = rng.integers(0, total[hit])
        initiators, responders, diagonal, codes = self._jump_pairs
        columns = block.take(hit, axis=0).T
        weights = columns[initiators] * (columns[responders] - diagonal)
        pick = (weights.cumsum(axis=0) <= x).sum(axis=0)
        if timings is not None:
            drawn = perf_counter()
            timings["draw"] += drawn - start
        left = remaining[hit] - tau
        remaining[rows] = 0
        remaining[hit] = left
        self._apply_pairs(block, hit, codes.take(pick))
        if timings is not None:
            timings["apply"] += perf_counter() - drawn
        return ~jump

    def _jump_weights(self, block):
        """Each row's jump weight ``W = Σ c_a·(c_b - [a = b])`` over the
        effectful pairs ``(a, b)``: ``c·(M c)`` less the counts of the
        diagonal codes (:attr:`_effectful_matrix`) — ``O(R·S²)``
        arithmetic in ``O(R·S)`` memory.  The rows are weighed as columns,
        so the one sum runs down ``S`` contiguous rows."""
        matrix, loops = self._effectful_matrix
        columns = block.T
        weighed = matrix @ columns
        if loops is not None:
            weighed -= loops
        weighed *= columns
        return weighed.sum(axis=0)

    @functools.cached_property
    def _effectful_pairs(self):
        """The ordered pairs ``(a, b)`` that change the counts
        (:meth:`_changes_counts`), as initiator codes, responder codes and
        ``[a = b]`` flags — the one list behind the jump weights and the
        row-wise silence verdicts, built on first use."""
        codes = self._np.arange(self.num_states, dtype=self._np.int64)
        initiators, responders = self._changes_counts(codes[:, None], codes).nonzero()
        return initiators, responders, (initiators == responders).astype(self._np.int64)

    @functools.cached_property
    def _effectful_matrix(self):
        """The effectful pairs as an ``(S, S)`` 0/1 matrix ``M`` and, as a
        column, its diagonal: the flags of the codes ``a`` whose ``(a, a)``
        pair is effectful (see :meth:`_jump_weights`), or ``None`` where
        there is none."""
        initiators, responders, _ = self._effectful_pairs
        matrix = self._np.zeros((self.num_states, self.num_states), dtype=self._np.int64)
        matrix[initiators, responders] = 1
        loops = matrix.diagonal()[:, None].copy()
        return matrix, loops if loops.any() else None

    @functools.cached_property
    def _jump_pairs(self):
        """The jump step's tables, built on the first lockstep step: the
        effectful pairs (:attr:`_effectful_pairs`), their ``[a = b]`` flags
        as a column and their codes ``a·S + b`` (rows of
        :attr:`_pair_delta`)."""
        initiators, responders, diagonal = self._effectful_pairs
        codes = initiators * self.num_states + responders
        return initiators, responders, diagonal[:, None], codes

    def _run_rows(self, block, remaining):
        """One lockstep run step for each row of ``block``, in place;
        returns the interactions each row has left (see
        :meth:`_step_rows`)."""
        np = self._np
        size = self.num_states
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        lengths = self._runs.next_run_lengths(block.shape[0])
        k = np.minimum(lengths, remaining)
        collide = remaining > lengths
        two_k = 2 * k
        sample = self._sample_rows(block, self.n, two_k)
        if timings is not None:
            drawn = perf_counter()
            timings["draw"] += drawn - start
        # The run applies by pair-type counts: no per-agent arrays.
        initiators = self._sample_rows(sample, two_k, k)
        matched = self._match_rows(sample, initiators, k)
        if timings is not None:
            paired = perf_counter()
            timings["match"] += paired - drawn
        deltas = self._pair_delta[:-1].reshape(size, size, size)  # by initiator code
        delta = matched[-1] @ deltas[-1]
        for code in range(size - 1):
            delta += matched[code] @ deltas[code]
        block += delta
        remaining = remaining - k
        if collide.any():
            rows = collide.nonzero()[0]
            pool = (sample + delta).take(rows, axis=0)  # the used agents' states
            pairs = self._collision_rows(pool, block.take(rows, axis=0) - pool, two_k.take(rows))
            self._apply_pairs(block, rows, pairs)
            remaining -= collide
        if timings is not None:
            timings["apply"] += perf_counter() - paired
        return remaining

    @functools.cached_property
    def _pair_delta(self):
        """Per-ordered-pair aggregate delta: row ``a·S + b`` is the counts
        change of one ``(a, b)`` interaction, so a whole run applies as
        ``pair-type counts @ delta``; the last row, ``S²``, is zero, for
        the rows with no interaction (:meth:`_apply_pairs`).  ``(S² + 1,
        S)`` int64 — built on the first lockstep step only, never for
        wide-``S`` protocols."""
        np = self._np
        size = self.num_states
        u_flat, v_flat = self.table.flat
        pairs = np.arange(size * size, dtype=np.int64)
        delta = np.zeros((size * size + 1, size), dtype=np.int64)
        np.add.at(delta, (pairs, u_flat), 1)
        np.add.at(delta, (pairs, v_flat), 1)
        np.subtract.at(delta, (pairs, pairs // size), 1)
        np.subtract.at(delta, (pairs, pairs % size), 1)
        return delta

    def _apply_pairs(self, block, rows, pairs) -> None:
        """One interaction on each row of ``block`` in ``rows``, in place,
        its ordered pair given as the code ``a·S + b`` in ``pairs``.
        Every row of the block adds one row of :attr:`_pair_delta`, the
        zero row where it has no interaction: one gather and one add,
        where updating the rows themselves would index them in 2-D."""
        codes = self._np.empty(block.shape[0], dtype=pairs.dtype)
        codes.fill(self.num_states * self.num_states)
        codes[rows] = pairs
        block += self._pair_delta.take(codes, axis=0)

    def _match_rows(self, sample, initiators, total):
        """Row-wise pair-type counts of a uniform initiator→responder
        matching of each row's ``sample`` agents, ``initiators`` of whom
        initiate: one ``(R, S)`` array per initiator code ``i``, whose
        ``[r, j]`` counts row ``r``'s run pairs with initiator code ``i``
        and responder code ``j``.

        Uniformity makes the responders matched to each initiator code a
        multivariate hypergeometric subsample of the responders not yet
        matched, so the chain over initiator codes (each step one
        :meth:`_sample_rows` call) samples the exact joint law; the last
        code takes whatever remains.  ``total`` is each row's number of
        responders, ``k``.
        """
        responders = sample - initiators
        matched = []
        for code in range(self.num_states - 1):
            taken = self._sample_rows(responders, total, initiators[:, code])
            matched.append(taken)
            responders -= taken
            total = total - initiators[:, code]
        matched.append(responders)
        return matched

    def _sample_rows(self, sub, total, nsample):
        """Row-wise multivariate hypergeometric: the states of ``nsample``
        distinct agents drawn from each row of ``sub``, whose rows hold
        ``total`` agents each (a scalar or one total per row, which the
        caller knows: ``n``, ``2k`` or the responders left).

        The conditional chain over codes (numpy's own ``marginals``
        decomposition): code by code, a vectorized-over-rows scalar
        hypergeometric of the remaining draw against the remaining
        population.  ``S - 1`` generator calls serve the whole batch.  A
        row that has drawn all it needs meets an empty urn, from which
        numpy's generator draws nothing and consumes no randomness.
        """
        rng = self._generator
        out = self._np.empty_like(sub)
        draw = nsample
        for code in range(self.num_states - 1):
            good = sub[:, code]
            total = total - good
            taken = rng.hypergeometric(good, total, draw)
            out[:, code] = taken
            draw = draw - taken
        out[:, -1] = draw
        return out

    def _collision_rows(self, pool, rest, used):
        """The colliding interaction of each row, vectorized across rows;
        returns their ordered pairs as codes ``a·S + b``.

        ``pool`` holds each row's ``U = 2k`` used agents' states (the
        run's outputs), ``rest`` its ``A = n - U`` unused agents' states,
        and ``used`` is ``U``.  The pairs with a used member are ``U(n-1)``
        with a used initiator and ``A·U`` with an unused one: the per-row
        sampler's ``U(U-1) + 2·U·A`` (:meth:`_run_batched`).  One
        ``integers`` call picks each row's pair, which
        :meth:`_collision_pairs` decodes.
        """
        n = self.n
        x = self._generator.integers(0, used * (n - 1 + n - used))
        return self._collision_pairs(x, pool, rest, used)

    def _collision_pairs(self, x, pool, rest, used):
        """The ordered pairs of codes, as ``a·S + b``, that the draws ``x``
        in ``[0, U(2n-1-U))`` pick (see :meth:`_collision_rows`).

        A row's agents stand in a line, its used ones (``pool``, code by
        code) before its unused ones (``rest``).  Below ``U(n-1)``, ``x``
        is the ``x // (n-1)``-th used agent initiating with the ``x %
        (n-1)``-th of the other ``n - 1`` (its own place skipped); from
        there, ``x - U(n-1)`` is the ``⌊·/U⌋``-th unused agent initiating
        with the ``(· mod U)``-th used one.  An agent's code is the number
        of its pool's running totals over codes ``0 … S-2`` at or below
        its index.  Both agents are counted against both pools, with no
        branch on a row's case: where late, the initiator's ``x // (n-1)``
        passes all ``S - 1`` used totals, taken off again, and elsewhere
        its unused index ``⌊·/U⌋`` is negative and passes no unused total;
        the responder's place in the line, blended by arithmetic and
        counted from the first unused agent, passes no unused total when
        it is used and all ``S - 1`` used totals, taken off again, when
        it is not.
        """
        np = self._np
        n = self.n
        size = self.num_states
        bound = used * (n - 1)
        late = x >= bound  # an unused initiator with a used responder
        first, second = np.divmod(x, n - 1)
        second += second >= first
        over, under = np.divmod(x - bound, used)
        under -= second
        under *= late
        second += under  # the responder's place in the line
        second -= used  # ... from the first unused agent
        a = late * (1 - size)
        b = (second >= 0) * (1 - size)
        used_below = unused_below = 0
        for code in range(size - 1):
            used_below = used_below + pool[:, code]
            unused_below = unused_below + rest[:, code]
            a += first >= used_below
            a += over >= unused_below
            b += second >= used_below - used
            b += second >= unused_below
        a *= size
        a += b
        return a
