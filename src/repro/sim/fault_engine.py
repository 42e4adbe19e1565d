"""Backend-generic fault injection — named fault models, one burst law.

The paper's opening premise is that state corruption is the rule, not the
exception; self-stabilization is the answer.  This module turns that into a
measurable workload on every execution engine — the subsystem that lets
every ``protocol × fault model × fault rate × n`` cell run on every
backend, from ``ElectLeader_r`` on the object engine (experiment E15) up to
the ``n = 10⁶`` populations only the counts backend reaches (E21).

**Fault models.**  A :class:`FaultModel` is one named corruption law with
three *law-matched* appliers, one per configuration representation:

* ``apply_config`` — per-agent corruption of a state-object list (the
  object engine; for ``ElectLeader_r``, which has no finite encoding,
  ``scramble_burst`` wraps the adversary suite's
  :func:`~repro.adversary.initializers.single_agent_scrambler`);
* ``apply_codes``  — vectorized index corruption of an ``(n,)`` state-code
  array (the array engine);
* ``apply_counts`` — ``O(S)`` state-mass moves on an ``(S,)`` count vector
  (the counts engine): victims are drawn by a multivariate-hypergeometric
  sample from the count vector — exactly the state multiset of a uniform
  without-replacement victim draw — and the replacement mass follows the
  model's corruption law in aggregate form.

Law-matched means: for a fixed model, the post-burst configuration has the
same distribution on every backend (and the config/codes appliers consume
the *same* generator draws, so object- and array-side bursts are
bit-identical given one corruption stream).  The built-in registry:

======================  =====================================================
``scramble_burst``      victims' states drawn uniformly from the encoded
                        space (the generic transient fault; wraps the
                        object-layout scrambler for ``ElectLeader_r``).
``kill_leaders``        up to ``burst_size`` agents currently *outputting
                        leader* are demoted to the first non-leader state —
                        the targeted attack behind the availability story.
``plant_minority``      one uniformly drawn state is planted into all
                        victims — a coordinated minority, the burst-shaped
                        twin of the ``plant_minority`` adversary.
``crash_reset``         victims are reset to the protocol's clean initial
                        state — a crash-and-reboot fault (runs on *every*
                        protocol, encoded or not).
======================  =====================================================

**The burst engine.**  :class:`FaultEngine` owns two PCG64 streams derived
from one seed: a *schedule* stream drawing exponential burst inter-arrival
gaps (mean ``n / rate`` interactions — ``rate`` bursts per unit of
parallel time), and a *corruption* stream feeding the appliers.  Because
the schedule stream is consumed identically no matter which engine runs,
the burst schedule is **bit-identical across backends for a given seed**
(E21 gates this); the corruption draws are representation-shaped and match
in law.  Injection slices ``run_batch`` at each burst's interaction
boundary — on the counts backend this truncates the collision-free run at
the burst, which is exact (the Markov property: restarting a run from the
current counts is the counts process's own law).

Drivers: :meth:`FaultEngine.run_until` stabilizes under continuous
injection (the classic recovery workload, on the engines' own check loop)
and :meth:`FaultEngine.measure_availability` samples a correctness
predicate at checkpoints (the E15/E21 availability workload), both written
against the common engine surface (``run_batch`` / ``predicate_holds`` /
``apply_fault``) so any registered backend works unchanged.  The counts
engine's row workloads hold one :class:`FaultEngine` per faulted row and
fire its bursts through the same firing step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional
from weakref import WeakKeyDictionary

from repro.core.elect_leader import ElectLeader
from repro.core.protocol import PopulationProtocol
from repro.scheduler.rng import make_rng, np_stream
from repro.sim.array_backend import require_numpy
from repro.sim.faults import AvailabilityAccounting, AvailabilityReport, FaultEvent
from repro.sim.simulation import ConfigPredicate, SimulationResult

#: Derived-seed stream tags under a :class:`FaultEngine` seed: the burst
#: *schedule* stream (identical consumption on every backend) and the
#: *corruption* stream (representation-shaped draws, matched in law).
_SCHEDULE_STREAM = 0x5C
_CORRUPT_STREAM = 0xC0


class FaultEngineError(RuntimeError):
    """A fault model cannot run on this protocol (or numpy is missing)."""


@dataclass(frozen=True)
class FaultSpec:
    """One trial's fault-injection recipe, as plain data.

    The portable form of a :class:`FaultEngine` construction: batch
    drivers (:class:`~repro.sim.counts_backend.CountsSimulation`'s row
    workloads) and sweep cells carry one ``FaultSpec`` per trial row and
    build each row's engine from it with :meth:`make_engine`.  ``seed``
    is the engine seed, so a ``FaultSpec`` replayed through any driver
    produces the bit-identical burst schedule.
    """

    model: str
    rate: float
    burst_size: int = 1
    seed: int = 0

    def make_engine(self, protocol: PopulationProtocol, *, n: int) -> FaultEngine:
        return make_fault_engine(
            self.model, protocol, n=n, rate=self.rate,
            burst_size=self.burst_size, seed=self.seed,
        )


# ---------------------------------------------------------------------------
# Per-protocol caches shared by the appliers
# ---------------------------------------------------------------------------


_LEADER_MASK_CACHE: "WeakKeyDictionary[PopulationProtocol, Any]" = WeakKeyDictionary()


def leader_code_mask(protocol: PopulationProtocol):
    """Boolean ``(S,)`` mask of state codes whose output is truthy (leader).

    A pure function of the protocol's parameters, cached per instance like
    the transition table — ``kill_leaders`` consults it on every burst.
    """
    np = require_numpy()
    mask = _LEADER_MASK_CACHE.get(protocol)
    if mask is None:
        size = protocol.num_states()
        if size is None:
            raise FaultEngineError(
                f"protocol '{protocol.name}' has no finite state encoding"
            )
        mask = np.fromiter(
            (bool(protocol.output(protocol.decode_state(code))) for code in range(size)),
            dtype=bool,
            count=size,
        )
        _LEADER_MASK_CACHE[protocol] = mask
    return mask


def initial_state_code(protocol: PopulationProtocol) -> int:
    """The code of the protocol's clean initial state."""
    return int(protocol.encode_state(protocol.initial_state()))


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------


class FaultModel:
    """One named corruption law with three law-matched appliers.

    Subclasses customize the *replacement* law through two hooks —
    :meth:`_replacement_codes` (per-victim codes) and
    :meth:`_replacement_mass` (the aggregate counts form of the same law)
    — and, where victim selection is state-dependent (``kill_leaders``),
    override the appliers themselves.  The base appliers select victims
    uniformly without replacement, which is what makes the hypergeometric
    counts draw the exact aggregate twin.
    """

    name: str = "fault-model"
    description: str = ""

    def supports(self, protocol: PopulationProtocol) -> Optional[str]:
        """``None`` when this model can corrupt ``protocol``, else the reason."""
        if protocol.num_states() is None:
            return (
                "it has no finite state encoding (num_states() is None), "
                "which this fault model's corruption law requires"
            )
        return None

    def require(self, protocol: PopulationProtocol) -> None:
        reason = self.supports(protocol)
        if reason is not None:
            raise FaultEngineError(
                f"fault model '{self.name}' cannot corrupt protocol "
                f"'{protocol.name}': {reason}"
            )

    # -- replacement-law hooks (uniform-victim models) ------------------

    def _replacement_codes(self, protocol: PopulationProtocol, old_codes, generator):
        """Replacement codes for victims currently in ``old_codes``."""
        raise NotImplementedError

    def _replacement_mass(self, protocol: PopulationProtocol, removed, generator):
        """The ``(S,)`` aggregate twin of :meth:`_replacement_codes`.

        ``removed`` is the hypergeometric victim draw (mass leaving each
        code); the result is the mass entering each code, summing to
        ``removed.sum()`` and distributed as ``bincount`` of the codes
        form would be.
        """
        raise NotImplementedError

    @staticmethod
    def _uniform_victims(generator, n: int, burst_size: int):
        """``min(burst_size, n)`` distinct victim indices, uniform."""
        return generator.choice(n, size=min(burst_size, n), replace=False)

    # -- the three appliers ---------------------------------------------

    def apply_codes(self, protocol: PopulationProtocol, codes, burst_size: int, generator):
        """Corrupt ``burst_size`` agents of an ``(n,)`` state-code array."""
        victims = self._uniform_victims(generator, codes.shape[0], burst_size)
        codes[victims] = self._replacement_codes(protocol, codes[victims], generator)

    def apply_counts(self, protocol: PopulationProtocol, counts, burst_size: int, generator):
        """Move ``burst_size`` agents' mass on an ``(S,)`` count vector.

        ``O(S)`` regardless of ``n``: the victims' state multiset is a
        multivariate-hypergeometric draw from ``counts`` (exactly the law
        of ``bincount(codes[uniform distinct victims])``), and the
        replacement mass follows the model's aggregate law.
        """
        total = int(counts.sum())
        size = min(burst_size, total)
        removed = generator.multivariate_hypergeometric(counts, size)
        counts -= removed
        counts += self._replacement_mass(protocol, removed, generator)

    def apply_config(
        self, protocol: PopulationProtocol, config: list[Any], burst_size: int, generator
    ) -> None:
        """Corrupt ``burst_size`` agents of a state-object list.

        Default: run the codes applier on an encoded view and decode the
        changed entries back — the object and array backends therefore
        consume *identical* corruption draws, so one corruption stream
        produces bit-identical bursts on both.
        """
        np = require_numpy()
        self.require(protocol)
        encode = protocol.encode_state
        codes = np.fromiter(
            (encode(state) for state in config), dtype=np.int64, count=len(config)
        )
        before = codes.copy()
        self.apply_codes(protocol, codes, burst_size, generator)
        for index in np.flatnonzero(codes != before).tolist():
            config[index] = protocol.decode_state(int(codes[index]))


class ScrambleBurst(FaultModel):
    """Victims' states are redrawn uniformly from the encoded space.

    The generic transient fault: any code decodes to a well-formed state
    (the encoding is a bijection), so this is the model's "arbitrary
    memory corruption" restricted to a burst.  For protocols *without* a
    finite encoding — ``ElectLeader_r`` — the object applier wraps
    :func:`repro.adversary.initializers.single_agent_scrambler`, which
    replaces each victim's whole memory with independent garbage (the
    corruption law of E15).
    """

    name = "scramble_burst"
    description = "victims redrawn uniformly from the encoded state space"

    def supports(self, protocol: PopulationProtocol) -> Optional[str]:
        if protocol.num_states() is not None:
            return None
        if isinstance(protocol, ElectLeader):
            return None  # the object-layout scrambler speaks this protocol
        return (
            "it has no finite state encoding and no object-layout scrambler; "
            "only ElectLeader-shaped protocols take the object-layout path"
        )

    def _replacement_codes(self, protocol, old_codes, generator):
        np = require_numpy()
        return generator.integers(
            0, protocol.num_states(), size=old_codes.shape[0], dtype=np.int64
        )

    def _replacement_mass(self, protocol, removed, generator):
        np = require_numpy()
        size = protocol.num_states()
        pvals = np.full(size, 1.0 / size)
        return generator.multinomial(int(removed.sum()), pvals).astype(np.int64)

    def apply_config(self, protocol, config, burst_size, generator) -> None:
        if protocol.num_states() is not None:
            super().apply_config(protocol, config, burst_size, generator)
            return
        # Object-layout leg: select victims from the shared corruption
        # stream, then hand each to the classic scrambler through a child
        # random.Random — deterministic, and exactly the E15 corruption.
        from repro.adversary.initializers import single_agent_scrambler

        self.require(protocol)
        victims = self._uniform_victims(generator, len(config), burst_size)
        rng = make_rng(int(generator.integers(1 << 62)))
        corrupt = single_agent_scrambler(protocol)
        for victim in victims.tolist():
            replacement = corrupt(config[victim], rng)
            if replacement is not None:
                config[victim] = replacement


class KillLeaders(FaultModel):
    """Demote up to ``burst_size`` current leaders to a non-leader state.

    The targeted attack: victims are drawn uniformly among the agents
    whose *output* is truthy, and each is moved to the first non-leader
    code — for a ranking protocol that plants a duplicate rank, for a
    leader-bit protocol it clears the bit.  A burst with no leaders alive
    is a no-op (still scheduled and recorded).
    """

    name = "kill_leaders"
    description = "uniformly chosen current leaders demoted to a non-leader state"

    def supports(self, protocol: PopulationProtocol) -> Optional[str]:
        reason = super().supports(protocol)
        if reason is not None:
            return reason
        if self._fallback_code(protocol) is None:
            return "every state outputs leader, so there is no state to demote to"
        return None

    @staticmethod
    def _fallback_code(protocol: PopulationProtocol) -> Optional[int]:
        np = require_numpy()
        non_leaders = np.flatnonzero(~leader_code_mask(protocol))
        return int(non_leaders[0]) if non_leaders.size else None

    def apply_codes(self, protocol, codes, burst_size, generator):
        np = require_numpy()
        leaders = np.flatnonzero(leader_code_mask(protocol)[codes])
        size = min(burst_size, int(leaders.size))
        if size == 0:
            return
        victims = generator.choice(leaders, size=size, replace=False)
        codes[victims] = self._fallback_code(protocol)

    def apply_counts(self, protocol, counts, burst_size, generator):
        np = require_numpy()
        mask = leader_code_mask(protocol)
        leader_counts = np.where(mask, counts, 0)
        size = min(burst_size, int(leader_counts.sum()))
        if size == 0:
            return
        removed = generator.multivariate_hypergeometric(leader_counts, size)
        counts -= removed
        counts[self._fallback_code(protocol)] += size


class PlantMinority(FaultModel):
    """All victims are planted with one uniformly drawn state.

    The burst-shaped twin of the ``plant_minority`` adversary: a
    *coordinated* minority (every victim agrees) rather than independent
    scrambling — the hardest shape for collision detection at a given
    corruption budget.
    """

    name = "plant_minority"
    description = "one uniformly drawn state planted into every victim"

    def _replacement_codes(self, protocol, old_codes, generator):
        np = require_numpy()
        planted = int(generator.integers(0, protocol.num_states()))
        return np.full(old_codes.shape[0], planted, dtype=np.int64)

    def _replacement_mass(self, protocol, removed, generator):
        np = require_numpy()
        added = np.zeros(protocol.num_states(), dtype=np.int64)
        added[int(generator.integers(0, protocol.num_states()))] = int(removed.sum())
        return added


class CrashReset(FaultModel):
    """Victims crash and reboot into the protocol's clean initial state.

    Deterministic damage (the replacement is ``initial_state()``), so
    recovery-time measurements are not confounded by corruption
    randomness.  Runs on *every* protocol — an initial state always
    exists — making it the one model available to ``ElectLeader_r`` and
    the finite-state family alike.
    """

    name = "crash_reset"
    description = "victims rebooted into the protocol's clean initial state"

    def supports(self, protocol: PopulationProtocol) -> Optional[str]:
        return None  # initial_state() is part of the base protocol contract

    def _replacement_codes(self, protocol, old_codes, generator):
        np = require_numpy()
        return np.full(old_codes.shape[0], initial_state_code(protocol), dtype=np.int64)

    def _replacement_mass(self, protocol, removed, generator):
        np = require_numpy()
        added = np.zeros(protocol.num_states(), dtype=np.int64)
        added[initial_state_code(protocol)] = int(removed.sum())
        return added

    def apply_config(self, protocol, config, burst_size, generator) -> None:
        # No encoding needed: replace victims with fresh initial states
        # (consumes exactly the victim draw, like the codes applier).
        victims = self._uniform_victims(generator, len(config), burst_size)
        for victim in victims.tolist():
            config[victim] = protocol.initial_state()


# ---------------------------------------------------------------------------
# The fault-model registry
# ---------------------------------------------------------------------------


#: Name → model, in registration order (the default model first).
FAULT_MODELS: dict[str, FaultModel] = {}

#: The model used when a fault axis is active but none is named.
DEFAULT_FAULT_MODEL = "scramble_burst"


def register_fault_model(model: FaultModel, *, replace: bool = False) -> FaultModel:
    """Add a model to the registry (the extension point for new laws)."""
    if not model.name or not model.name.isidentifier():
        raise ValueError(f"fault model name must be a simple identifier, got {model.name!r}")
    if model.name in FAULT_MODELS and not replace:
        raise ValueError(f"fault model '{model.name}' is already registered")
    FAULT_MODELS[model.name] = model
    return model


def fault_model_names() -> tuple[str, ...]:
    """All registered fault-model names, default model first."""
    return tuple(FAULT_MODELS)


def get_fault_model(name: str) -> FaultModel:
    """Pure registry lookup; unknown names list the known models."""
    try:
        return FAULT_MODELS[name]
    except KeyError:
        known = ", ".join(fault_model_names())
        raise ValueError(f"unknown fault model '{name}' (known: {known})") from None


register_fault_model(ScrambleBurst())
register_fault_model(KillLeaders())
register_fault_model(PlantMinority())
register_fault_model(CrashReset())


# ---------------------------------------------------------------------------
# The burst engine
# ---------------------------------------------------------------------------


class FaultEngine:
    """Schedules and injects fault bursts into any execution backend.

    Bursts arrive with exponential inter-arrival gaps of mean ``n / rate``
    interactions (``rate`` bursts per unit of parallel time) drawn from a
    dedicated PCG64 *schedule* stream; each burst corrupts ``burst_size``
    agents through the model's applier for the simulation's
    representation (``sim.apply_fault``), drawing from a separate
    *corruption* stream.  Both streams derive from one ``seed``, and the
    schedule stream's consumption never depends on the backend — so for a
    fixed seed the burst schedule (interaction indices and count) is
    bit-identical on every engine, while the corruption matches in law.

    Attach to a *fresh* simulation (``metrics.interactions == 0``); the
    drivers below own the run loop, slicing ``run_batch`` exactly at
    burst boundaries (which keeps the counts backend's collision-free
    runs law-exact — a truncated run restarted from the current counts is
    the process's own Markov law).
    """

    def __init__(
        self,
        model: FaultModel,
        protocol: PopulationProtocol,
        *,
        n: int,
        rate: float,
        burst_size: int = 1,
        seed: int = 0,
    ):
        np = require_numpy()
        if rate <= 0:
            raise ValueError("fault rate must be positive")
        if burst_size < 1:
            raise ValueError("burst size must be at least one agent")
        model.require(protocol)
        self.model = model
        self.protocol = protocol
        self.n = n
        self.rate = rate
        self.burst_size = burst_size
        self.seed = seed
        self.mean_gap = n / rate
        self._schedule = np_stream(seed, _SCHEDULE_STREAM)
        self._corrupt = np_stream(seed, _CORRUPT_STREAM)
        self._next_burst = self._schedule.exponential(self.mean_gap)
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------

    def _fire_due(self, apply_fault: Callable[..., None], position: int) -> int:
        """Fire every burst due at or before interaction ``position`` —
        several can ceil to one boundary — through ``apply_fault(model,
        burst_size, generator)``; return the boundary of the next burst.

        The one firing step: :meth:`_advance_to` passes an engine's
        ``apply_fault``, the counts engine's row driver a row's applier.
        """
        while (due := math.ceil(self._next_burst)) <= position:
            apply_fault(self.model, self.burst_size, self._corrupt)
            self.events.append(FaultEvent(position))
            self._next_burst += self._schedule.exponential(self.mean_gap)
        return due

    def _advance_to(self, sim, position: int, target: int) -> int:
        """Run ``sim`` from ``position`` to ``target`` interactions,
        firing every burst scheduled on the way (at the first interaction
        boundary at or after its continuous arrival time)."""
        while position < target:
            stop = min(self._fire_due(sim.apply_fault, position), target)
            sim.run_batch(stop - position)
            position = stop
        self._fire_due(sim.apply_fault, target)
        return target

    @property
    def fault_bursts(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Drivers (generic over the common engine surface)
    # ------------------------------------------------------------------

    def run_until(
        self,
        sim,
        predicate: ConfigPredicate,
        *,
        max_interactions: int,
        check_interval: int = 1,
    ) -> SimulationResult:
        """Run ``sim`` under continuous injection until the predicate holds.

        The engines' own ``run_until`` check loop (before the first step,
        then every ``check_interval`` interactions, via
        ``sim.predicate_holds`` so counts-aware predicates stay ``O(S)``),
        with each advance cut at the scheduled burst boundaries.
        """
        return sim._run_checked(
            predicate, max_interactions, check_interval,
            functools.partial(self._advance_to, sim),
        )

    def measure_availability(
        self,
        sim,
        correct: ConfigPredicate,
        *,
        total_interactions: int,
        checkpoint_every: int,
    ) -> AvailabilityReport:
        """Run the availability workload: inject, checkpoint, report.

        Runs the full budget under injection, samples ``correct`` every
        ``checkpoint_every`` interactions, and reports the available
        fraction plus one repair-time sample per burst (measured to the
        first correct checkpoint after it).  Needs only ``run_batch``,
        ``apply_fault`` and ``predicate_holds`` of ``sim``.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        accounting = AvailabilityAccounting()
        position = 0
        while position < total_interactions:
            position = self._advance_to(
                sim, position, min(position + checkpoint_every, total_interactions)
            )
            accounting.note_events(self.events)
            accounting.checkpoint(position, sim.predicate_holds(correct))
        return accounting.report(
            total_interactions=total_interactions, fault_bursts=len(self.events)
        )


def make_fault_engine(
    model: str | FaultModel,
    protocol: PopulationProtocol,
    *,
    n: int,
    rate: float,
    burst_size: int = 1,
    seed: int = 0,
) -> FaultEngine:
    """Build a :class:`FaultEngine`, resolving a model name via the registry."""
    resolved = get_fault_model(model) if isinstance(model, str) else model
    return FaultEngine(
        resolved, protocol, n=n, rate=rate, burst_size=burst_size, seed=seed
    )


__all__ = [
    "DEFAULT_FAULT_MODEL",
    "FAULT_MODELS",
    "CrashReset",
    "FaultEngine",
    "FaultEngineError",
    "FaultModel",
    "FaultSpec",
    "KillLeaders",
    "PlantMinority",
    "ScrambleBurst",
    "fault_model_names",
    "get_fault_model",
    "initial_state_code",
    "leader_code_mask",
    "make_fault_engine",
    "register_fault_model",
]
