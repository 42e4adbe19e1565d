"""Vectorized numpy execution engine for finite-state protocols.

The object backend (:class:`repro.sim.simulation.Simulation`) pays Python
dispatch for every interaction; that is the wall-clock bottleneck for the
population sizes (n ≥ 10³–10⁴) where the paper's asymptotic claims become
visible.  This module is the opt-in fast path: protocols whose state space
is small and finite (see :meth:`PopulationProtocol.num_states`) are
compiled to a dense ``S × S`` **pair-transition table**, the configuration
becomes an ``int64`` state-code array, scheduler pairs are drawn in
vectorized blocks (:class:`repro.scheduler.scheduler.ArrayScheduler`), and
transitions are applied by table lookup.

**Which protocols qualify.**  A transition table exists iff the protocol
exposes the encoding hooks *and* its transition function is deterministic
(never touches its ``rng`` argument).  In this repository that covers the
finite-state protocols: the Cai–Izumi–Wada ``n``-state SSLE baseline,
loosely-stabilizing leader election, pairwise elimination, the epidemic
substrates, and the standalone reset epidemic.  ``ElectLeader_r`` itself
is *provably* out of reach: Theorem 1.1 prices its speed at
``2^{O(r² log n)}`` states (countdowns alone take ``Θ((n/r) log n)``
values, FastLeaderElect identifiers range over ``[n³]``), so there is no
small finite encoding to tabulate — requesting ``backend="array"`` for it
raises :class:`ArrayBackendError` with exactly that explanation.

**Sequential-conflict-safe block application.**  A block of pairs drawn in
advance cannot be applied in one vectorized shot: if agent ``a`` interacts
at block positions 3 and 7, position 7 must read the state position 3
wrote.  :func:`apply_pair_block` resolves this with *first-occurrence
rounds*: in each round it applies (fully vectorized) every pending pair
that is the earliest pending occurrence of **both** its agents — such
pairs are mutually disjoint and each has no unapplied predecessor, so the
round is exactly a prefix-consistent chunk of the sequential order — then
repeats on the remainder.  The result is bit-identical to applying the
block's pairs one at a time, which is what makes `RecordedSchedule` replay
through this engine **exact**, not just distribution-equal (the
equivalence gate in ``tests/test_array_backend.py`` checks this for every
table protocol).

**Determinism and cross-backend equivalence.**  An array-backend run is a
pure function of ``(protocol, initial configuration, seed)``, like an
object-backend run — but the two backends draw their scheduler pairs from
different generators (PCG64 vs Mersenne Twister) over the *same* uniform
pair distribution, so they agree in distribution, not bit-for-bit.  The
cross-backend contract, gated by tests and ``bench_array_backend.py``:
same convergence verdicts, statistically indistinguishable
stabilization-time distributions, and exact trajectory agreement when both
replay one recorded schedule.

numpy is an optional dependency (``pip install .[array]``); importing this
module without it succeeds, and every entry point raises a clear
:class:`ArrayBackendError` instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence
from weakref import WeakKeyDictionary

from repro.core.protocol import PopulationProtocol
from repro.obs import perf_counter
from repro.scheduler.rng import derive_seed
from repro.scheduler.scheduler import ArrayScheduler
from repro.sim.metrics import Metrics
from repro.sim.simulation import ConfigPredicate, _Engine

try:  # pragma: no cover - exercised implicitly on every import
    import numpy as _np
except ImportError:  # pragma: no cover - container images bake numpy in
    _np = None

#: Upper bound on pairs per vectorized block.  Blocks scale with n (more
#: agents = fewer within-block conflicts = fewer application rounds) but
#: are capped so block buffers stay a few MB even at n ≥ 10⁶.
MAX_BLOCK = 1 << 16

#: Refuse tables above this many entries (two int16 arrays, 4 bytes per
#: entry): the dense representation is the point of the backend, and a
#: protocol large enough to blow this limit should not pretend to be
#: "finite-state" in the tractable sense.  The cap keeps ``S ≤ 5,792``, so
#: every state code fits in int16.
MAX_TABLE_ENTRIES = 1 << 25


class ArrayBackendError(RuntimeError):
    """The array backend cannot run this protocol (or numpy is missing)."""


def require_numpy():
    """Return the numpy module, or raise a clear error if it is absent."""
    if _np is None:
        raise ArrayBackendError(
            "the vectorized (array/counts) backends require numpy; install it "
            "with 'pip install repro-podc25-leader-election[array]' or use "
            "backend='object'"
        )
    return _np


class _TableRNG:
    """Poisoned RNG handed to transitions during table building.

    Any attribute access (``randrange``, ``random``, ...) proves the
    transition consumes randomness, which a lookup table cannot replay.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise ArrayBackendError(
            f"transition consumed randomness (rng.{name}) while building the "
            "transition table; randomized protocols cannot run on the array "
            "backend — derandomize first (Appendix B) or use backend='object'"
        )


@dataclass(frozen=True)
class TransitionTable:
    """Dense encoding of δ: ``(u_out[a, b], v_out[a, b]) = δ(a, b)``.

    Both tables are ``(S, S)`` int16 arrays over state codes, allocated by
    :func:`table_buffers`; ``S`` is :attr:`num_states`.  Int16 takes a
    quarter of the natural int64's bytes (the Cai–Izumi–Wada table at
    n=4096 is 2 × 32 MB), and :data:`MAX_TABLE_ENTRIES` keeps every code
    in its range.  Readers only index with the entries, compare them or
    store them into int64 arrays; numpy keeps int16 for an int16 array
    times a Python int, so a ``code · S`` product is formed from int64
    codes, never from the entries themselves.
    """

    num_states: int
    u_out: Any  # np.ndarray, shape (S, S), dtype int16
    v_out: Any  # np.ndarray, shape (S, S), dtype int16

    def __post_init__(self) -> None:
        np = require_numpy()
        expected = (self.num_states, self.num_states)
        for name, table in (("u_out", self.u_out), ("v_out", self.v_out)):
            if not isinstance(table, np.ndarray) or table.shape != expected:
                raise ArrayBackendError(
                    f"{name} must be a numpy array of shape {expected}, "
                    f"got {getattr(table, 'shape', type(table))}"
                )
            if table.dtype != np.int16:
                raise ArrayBackendError(
                    f"{name} must hold int16 codes (see table_buffers), got {table.dtype}"
                )
            if table.size and (table.min() < 0 or table.max() >= self.num_states):
                raise ArrayBackendError(f"{name} contains codes outside range(S)")

    def lookup(self, a: int, b: int) -> tuple[int, int]:
        """Scalar δ lookup (test/debug convenience)."""
        return int(self.u_out[a, b]), int(self.v_out[a, b])

    @property
    def flat(self):
        """``(u_flat, v_flat)`` raveled views for single-gather lookups."""
        return self.u_out.ravel(), self.v_out.ravel()


def table_size_problem(protocol: PopulationProtocol) -> Optional[str]:
    """Why ``protocol`` gets no dense transition table, or ``None``.

    The one capability rule of the table engines: a finite encoding of at
    least one state whose ``S × S`` table fits :data:`MAX_TABLE_ENTRIES`.
    The registry's ``supports`` hook reports it, and every table build
    enforces it (:func:`_require_table_size`) — closed forms included.
    """
    size = protocol.num_states()
    if size is None:
        return (
            "it has no finite state encoding (num_states() is None); "
            "use backend='object'"
        )
    if size < 1:
        return f"num_states() must be >= 1, got {size}"
    if size * size > MAX_TABLE_ENTRIES:
        return (
            f"its {size}x{size} transition table exceeds the "
            f"{MAX_TABLE_ENTRIES}-entry cap"
        )
    return None


def _require_table_size(protocol: PopulationProtocol) -> int:
    """``num_states()``, or :class:`ArrayBackendError` by :func:`table_size_problem`."""
    problem = table_size_problem(protocol)
    if problem is not None:
        raise ArrayBackendError(f"protocol '{protocol.name}' cannot be tabulated: {problem}")
    return protocol.num_states()


def table_buffers(size: int):
    """``(u_out, v_out)``: the two empty ``(size, size)`` int16 arrays of a
    :class:`TransitionTable`, which every table builder fills in place."""
    np = require_numpy()
    return np.empty((size, size), dtype=np.int16), np.empty((size, size), dtype=np.int16)


def build_transition_table(protocol: PopulationProtocol) -> TransitionTable:
    """Generic table builder: enumerate all ``S × S`` pairs through δ.

    Decodes every ordered state pair, applies :meth:`transition` with a
    poisoned RNG (so randomized transitions fail loudly instead of being
    frozen into the table), and records the encoded results.  Cost is
    ``S²`` transition calls — fine for the ``S ≲ 10³`` protocols that use
    this default; larger structured tables (Cai–Izumi–Wada's ``n × n``)
    override :meth:`PopulationProtocol.transition_table` with a closed
    form instead.
    """
    size = _require_table_size(protocol)
    u_out, v_out = table_buffers(size)
    rng = _TableRNG()
    decode = protocol.decode_state
    encode = protocol.encode_state
    transition = protocol.transition
    for a in range(size):
        row_u = u_out[a]
        row_v = v_out[a]
        for b in range(size):
            u = decode(a)
            v = decode(b)
            transition(u, v, rng)  # type: ignore[arg-type]
            row_u[b] = encode(u)
            row_v[b] = encode(v)
    return TransitionTable(num_states=size, u_out=u_out, v_out=v_out)


#: Per-protocol-instance table cache: tables are pure functions of the
#: protocol's parameters, and building one costs up to S² δ calls.
_TABLE_CACHE: "WeakKeyDictionary[PopulationProtocol, TransitionTable]" = WeakKeyDictionary()


def transition_table_for(protocol: PopulationProtocol) -> TransitionTable:
    """The protocol's transition table, built at most once per instance.

    Every table engine gets its table here, so the size cap is checked
    here, before a closed-form :meth:`transition_table` allocates anything.
    """
    table = _TABLE_CACHE.get(protocol)
    if table is None:
        _require_table_size(protocol)
        table = protocol.transition_table()
        _TABLE_CACHE[protocol] = table
    return table


def reachable_state_codes(
    protocol: PopulationProtocol,
    seeds: Iterable[Any],
    limit: Optional[int] = None,
) -> set[int]:
    """Codes reachable from ``seeds`` under δ-closure over ordered pairs.

    Walks the transition table from the seed states' codes until no new
    code appears (or ``limit`` codes are seen).  Tests use this to check
    that an encoding covers everything its start configurations can reach
    — the enumeration-completeness half of the table contract.
    """
    table = transition_table_for(protocol)
    known: set[int] = {int(protocol.encode_state(seed)) for seed in seeds}
    frontier = set(known)
    while frontier:
        fresh: set[int] = set()
        for a in frontier:
            for b in known:
                for x, y in ((a, b), (b, a)):
                    out_u, out_v = table.lookup(x, y)
                    for code in (out_u, out_v):
                        if code not in known:
                            fresh.add(code)
        known |= fresh
        frontier = fresh
        if limit is not None and len(known) > limit:
            raise ArrayBackendError(f"more than {limit} reachable states")
    return known


# ---------------------------------------------------------------------------
# Configuration codecs
# ---------------------------------------------------------------------------


def encode_configuration(protocol: PopulationProtocol, config: Sequence[Any]):
    """Encode a list of state objects as an ``int64`` state-code array."""
    np = require_numpy()
    encode = protocol.encode_state
    return np.fromiter((encode(s) for s in config), dtype=np.int64, count=len(config))


def decode_configuration(protocol: PopulationProtocol, codes) -> list[Any]:
    """Decode a state-code array back to fresh state objects."""
    decode = protocol.decode_state
    return [decode(int(code)) for code in codes]


# ---------------------------------------------------------------------------
# Sequential-conflict-safe block application
# ---------------------------------------------------------------------------


#: Pending-pair count below which the round loop finishes scalar: a tail
#: of k conflicted pairs costs k numpy rounds in the worst case (a chain
#: on one agent) but only one cheap Python loop.
SCALAR_TAIL = 64


class Workspace:
    """Preallocated per-simulation buffers for :func:`apply_pair_block`.

    Rounds run many small numpy ops; reusing the scratch arrays and the
    position templates (``arange`` and its pairwise-repeated form) keeps
    the per-round fixed overhead to the kernels that do real work.
    """

    def __init__(self, n: int, max_block: int):
        np = require_numpy()
        self.max_block = max_block
        self.first = np.empty(n, dtype=np.int64)
        self.agents = np.empty(2 * max_block, dtype=np.int64)
        self.positions = np.arange(max_block, dtype=np.int64)
        self.doubled = np.repeat(self.positions, 2)


def _apply_scalar(codes, initiators, responders, table: TransitionTable) -> None:
    """Plain sequential application (the tail path and the oracle).

    Touches only the agents named by the pairs — the tail is a handful of
    conflicted pairs, so an O(n) densify of ``codes`` would dominate it.
    """
    size = table.num_states
    u_flat, v_flat = table.flat
    for i, j in zip(initiators.tolist(), responders.tolist()):
        index = int(codes[i]) * size + int(codes[j])
        codes[i] = u_flat[index]
        codes[j] = v_flat[index]


def _retire_inert_pairs(codes, initiators, responders, table: TransitionTable, workspace):
    """Drop pairs that are provably no-ops; return the remaining pairs.

    A pair is *inert* if δ maps its agents' current codes to themselves.
    Inert pairs cannot be dropped blindly — an earlier pair may change one
    of their agents first — so contamination is closed transitively: flag
    every agent touched by an active pair, then repeatedly flag both
    agents of any pair touching a flagged agent.  At the fixpoint, pairs
    split cleanly into both-agents-flagged (kept, order-sensitive) and
    both-agents-unflagged (retired): unflagged agents are touched only by
    retired pairs, which stay inert because unflagged agents never change.
    Silent(-ish) protocols — CIW near a permutation, epidemics near
    saturation — retire most of every block here for a few vector ops.
    """
    np = require_numpy()
    size = table.num_states
    u_flat, v_flat = table.flat
    a = codes[initiators]
    b = codes[responders]
    index = a * size
    index += b
    active = u_flat.take(index) != a
    active |= v_flat.take(index) != b
    if not active.any():
        return initiators[:0], responders[:0]
    hot = workspace.first  # reused as a per-agent contamination flag
    hot[:] = 0
    hot[initiators[active]] = 1
    hot[responders[active]] = 1
    kept = active
    while True:
        touching = hot[initiators] == 1
        touching |= hot[responders] == 1
        if touching.sum() == kept.sum():
            return initiators[touching], responders[touching]
        kept = touching
        hot[initiators[touching]] = 1
        hot[responders[touching]] = 1


def apply_pair_block(codes, initiators, responders, table: TransitionTable, workspace=None):
    """Apply a block of ordered pairs to ``codes`` in sequential order.

    ``codes`` is the ``(n,)`` int64 configuration (mutated in place);
    ``initiators``/``responders`` are equal-length index vectors.  The
    first-occurrence-rounds scheme (module docstring) makes the result
    bit-identical to a pair-at-a-time loop while staying vectorized:

    * ``first[a]`` = earliest pending block position touching agent ``a``,
      computed by a reversed fancy-index scatter (later writes win, so
      writing positions in descending order leaves the minimum);
    * a pair is *ready* iff it is the first pending occurrence of both its
      agents; ready pairs are mutually disjoint and prefix-consistent, so
      one gather/lookup/scatter applies them all;
    * non-ready pairs carry to the next round.  The earliest pending pair
      is always ready, so every round makes progress; once fewer than
      ``SCALAR_TAIL`` pairs remain the loop finishes scalar — conflict
      chains shrink rounds geometrically, so the tail is where vectorized
      rounds stop paying for their dispatch.  Adversarial schedules (one
      hot pair repeated) degrade to the scalar loop, never to wrong
      results.
    """
    np = require_numpy()
    if initiators.shape != responders.shape:
        raise ValueError("initiator and responder vectors must have equal length")
    if workspace is None or initiators.size > workspace.max_block:
        workspace = Workspace(codes.shape[0], max(1, initiators.size))
    first = workspace.first
    u_flat, v_flat = table.flat
    size = table.num_states
    if initiators.size > SCALAR_TAIL:
        initiators, responders = _retire_inert_pairs(
            codes, initiators, responders, table, workspace
        )
    while initiators.size > SCALAR_TAIL:
        count = initiators.size
        positions = workspace.positions[:count]
        first[:] = count
        agents = workspace.agents[: 2 * count]
        agents[0::2] = initiators
        agents[1::2] = responders
        first[agents[::-1]] = workspace.doubled[: 2 * count][::-1]
        ready = first[initiators] == positions
        ready &= first[responders] == positions
        ready_i = initiators[ready]
        ready_j = responders[ready]
        index = codes[ready_i]
        index *= size
        index += codes[ready_j]
        codes[ready_j] = v_flat.take(index)
        codes[ready_i] = u_flat.take(index)
        pending = ~ready
        initiators = initiators[pending]
        responders = responders[pending]
    if initiators.size:
        _apply_scalar(codes, initiators, responders, table)
    return codes


# ---------------------------------------------------------------------------
# The array simulation
# ---------------------------------------------------------------------------


class ArraySimulation(_Engine):
    """Table-backed counterpart of :class:`repro.sim.simulation.Simulation`.

    Mirrors the object engine's surface — ``run``/``run_batch``/
    ``run_until``/``metrics``/``config`` — over an ``int64`` state-code
    array; its phase clock files pair blocks under ``draw`` and their
    conflict-safe application under ``apply``.  Seeding: the pair stream
    is ``PCG64(derive_seed(seed, 0))`` (the scheduler slot of the object
    backend's seed derivation, through the array scheduler's own
    generator family); table protocols are deterministic, so the
    transition stream (slot 1) is never consumed.

    Observers are not supported: per-interaction callbacks would force
    scalar dispatch and negate the backend.  Use the object backend for
    instrumented runs.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        config: Optional[Sequence[Any]] = None,
        n: Optional[int] = None,
        seed: int = 0,
        block_size: Optional[int] = None,
        codes: Optional[Sequence[int]] = None,
    ):
        np = require_numpy()
        self.protocol = protocol
        self.table = transition_table_for(protocol)
        if codes is not None:
            if config is not None:
                raise ValueError("provide at most one of config= and codes=")
            # The engine's native currency — adversarial initializers hand
            # state-code arrays straight through without a decode/encode
            # round trip.  Copied: the caller keeps ownership of its array.
            self.codes = np.asarray(codes, dtype=np.int64).copy()
        elif config is None:
            if n is None:
                raise ValueError("provide either an initial config or a population size n")
            self.codes = encode_configuration(protocol, protocol.clean_configuration(n))
        else:
            self.codes = encode_configuration(protocol, config)
        self.n = int(self.codes.shape[0])
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= self.table.num_states):
            raise ArrayBackendError("initial configuration encodes outside range(num_states)")
        self.seed = seed
        self.scheduler = ArrayScheduler(self.n, derive_seed(seed, 0))
        self.metrics = Metrics(n=self.n)
        if block_size is None:
            # ~n/2 pairs per block keeps the expected per-agent multiplicity
            # around 1, so most pairs apply in the first one or two rounds.
            block_size = min(MAX_BLOCK, max(256, self.n // 2))
        if block_size < 1:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        self._workspace = Workspace(self.n, block_size)

    # ------------------------------------------------------------------

    @property
    def config(self) -> list[Any]:
        """The current configuration as fresh decoded state objects."""
        return decode_configuration(self.protocol, self.codes)

    def _config_snapshot(self) -> Callable[[], list[Any]]:
        return functools.partial(decode_configuration, self.protocol, self.codes.copy())

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the vectorized path."""
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        remaining = count
        timings = self._timings
        while remaining > 0:
            block = min(remaining, self.block_size)
            if timings is not None:
                start = perf_counter()
            initiators, responders = self.scheduler.next_pairs(block)
            if timings is not None:
                drawn = perf_counter()
                timings["draw"] += drawn - start
            apply_pair_block(self.codes, initiators, responders, self.table, self._workspace)
            if timings is not None:
                timings["apply"] += perf_counter() - drawn
            remaining -= block
        self.metrics.interactions += count

    def predicate_holds(self, predicate: ConfigPredicate) -> bool:
        """Evaluate a predicate in this backend's cheapest form.

        A predicate carrying a counts-space form (``predicate.on_counts``,
        see :func:`repro.sim.counts_backend.counts_aware`) is evaluated on
        ``bincount(codes)`` — one ``O(n)`` vectorized pass and an ``O(S)``
        aggregate check, instead of materializing ``n`` decoded state
        objects and walking them in Python.  Plain config predicates fall
        back to the decoded configuration, unchanged.
        """
        timings = self._timings
        start = perf_counter() if timings is not None else 0.0
        on_counts = getattr(predicate, "on_counts", None)
        if on_counts is not None:
            np = require_numpy()
            held = bool(on_counts(np.bincount(self.codes, minlength=self.table.num_states)))
        else:
            held = bool(predicate(self.config))
        if timings is not None:
            timings["retire"] += perf_counter() - start
        return held

    def apply_fault(self, model, burst_size: int, generator) -> None:
        """Inject one fault burst (common engine surface).

        ``model`` is a :class:`repro.sim.fault_engine.FaultModel`; on this
        backend its vectorized applier corrupts the state-code array in
        place at the drawn victim indices.
        """
        model.apply_codes(self.protocol, self.codes, burst_size, generator)

    def apply_schedule(self, schedule: Iterable[tuple[int, int]]) -> None:
        """Apply a fixed interaction sequence (e.g. a ``RecordedSchedule``).

        Exact replay: the conflict-safe block machinery reproduces the
        sequential application of ``schedule`` bit-for-bit, so the final
        configuration matches :func:`repro.sim.replay.replay` on the
        object backend whenever both start from the same configuration.
        """
        np = require_numpy()
        pairs = list(schedule)
        if not pairs:
            return
        initiators = np.fromiter((i for i, _ in pairs), dtype=np.int64, count=len(pairs))
        responders = np.fromiter((j for _, j in pairs), dtype=np.int64, count=len(pairs))
        for vector in (initiators, responders):
            if vector.size and (vector.min() < 0 or vector.max() >= self.n):
                raise ValueError("schedule references agent outside population")
        if ((initiators == responders).any()):
            raise ValueError("self-interaction is not a valid pair")
        start = 0
        while start < len(pairs):
            stop = min(start + self.block_size, len(pairs))
            apply_pair_block(
                self.codes, initiators[start:stop], responders[start:stop],
                self.table, self._workspace,
            )
            start = stop
        self.metrics.interactions += len(pairs)


def replay_array(
    protocol: PopulationProtocol,
    config: Sequence[Any],
    schedule: Iterable[tuple[int, int]],
) -> list[Any]:
    """Array-backend counterpart of :func:`repro.sim.replay.replay`.

    Applies ``schedule`` to ``config`` through the transition table and
    returns the final configuration as decoded state objects.  Unlike the
    random-schedule path, this is *exact* relative to the object backend:
    same schedule + same start ⇒ identical final states.
    """
    sim = ArraySimulation(protocol, config=list(config), seed=0)
    sim.apply_schedule(schedule)
    return sim.config
