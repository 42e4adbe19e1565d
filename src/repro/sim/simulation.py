"""The simulation engine.

:class:`Simulation` owns a configuration (a list of agent states), a
protocol, a scheduler and a metrics object, and advances the population
one uniformly random interaction at a time.  Convergence predicates are
evaluated every ``check_interval`` interactions (full-configuration
predicates such as ``ElectLeader.is_safe_configuration`` walk the whole
message system, so per-interaction evaluation would dominate runtime).

Determinism: a simulation is fully determined by ``(protocol, initial
configuration, seed)`` — the seed drives both the scheduler and the
transition-function sampling, through two independent derived streams.

Every engine — this one, the array and the counts engines — inherits
``run``, ``run_until`` and the phase clock from the one engine driver
defined here, and defines only its constructor, ``run_batch``,
``predicate_holds``, ``apply_fault`` and ``config``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.protocol import PopulationProtocol
from repro.obs import STEP_PHASES, perf_counter
from repro.scheduler.rng import RNG, derive_seed, make_rng
from repro.scheduler.scheduler import RandomScheduler
from repro.sim import backends
from repro.sim.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.initial_state import InitialState

#: A predicate over the full configuration.
ConfigPredicate = Callable[[Sequence[Any]], bool]
#: Observer invoked as ``observer(simulation, i, j)`` after each interaction.
Observer = Callable[["Simulation", int, int], None]


@dataclass
class SimulationResult:
    """Outcome of :meth:`Simulation.run_until` / :func:`run_until`.

    ``snapshot`` decodes the configuration captured at return, kept in
    the engine's own form: the object engine's live list, or a copy of a
    counts row or of an array engine's codes.  :attr:`config` calls it on
    first read, so a caller that reads only the verdict and the counters
    never builds an ``n``-agent list.
    """

    converged: bool
    interactions: int
    parallel_time: float
    metrics: Metrics
    snapshot: Callable[[], list[Any]] = field(repr=False, compare=False)

    @functools.cached_property
    def config(self) -> list[Any]:
        """The configuration at return, decoded on first read."""
        return self.snapshot()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.converged


class _Engine:
    """The driver every engine shares: ``run``, ``run_until`` and the phase clock.

    An engine subclass defines only what differs between representations
    — its constructor (which sets ``metrics`` and ``n``), ``run_batch``,
    ``predicate_holds``, ``apply_fault`` and the ``config`` view — and
    reads ``self._timings`` in its hot loops, touching the clock only
    when it is not ``None``.
    """

    _timings: Optional[dict[str, float]] = None

    def run(self, interactions: int) -> None:
        """Run a fixed number of interactions."""
        self.run_batch(interactions)

    def run_until(
        self,
        predicate: ConfigPredicate,
        max_interactions: int,
        check_interval: int = 1,
    ) -> SimulationResult:
        """Run until ``predicate(config)`` holds or the budget is exhausted.

        The predicate is evaluated before the first step (an adversarial
        start may already satisfy it) and then every ``check_interval``
        interactions, through :meth:`predicate_holds` — so each engine
        answers it in its cheapest native form.
        """
        return self._run_checked(
            predicate, max_interactions, check_interval,
            lambda position, target: self.run_batch(target - position),
        )

    def _run_checked(
        self,
        predicate: ConfigPredicate,
        max_interactions: int,
        check_interval: int,
        advance: Callable[[int, int], Any],
    ) -> SimulationResult:
        """The check loop behind every ``run_until``: ``advance(position,
        target)`` moves the engine between checks (a fault engine cuts it
        at burst boundaries)."""
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        position = 0
        while not self.predicate_holds(predicate):
            if position >= max_interactions:
                return self._result(converged=False)
            target = min(position + check_interval, max_interactions)
            advance(position, target)
            position = target
        return self._result(converged=True)

    def instrument_steps(self) -> dict[str, float]:
        """Switch on per-phase wall-clock accounting (common engine surface).

        Returns the live accumulator mapping :data:`repro.obs.STEP_PHASES`
        to seconds: ``draw`` (pair or run-length and composition draws),
        ``match`` (pairing, where an engine has a separate phase for it),
        ``apply`` (transitions), ``retire`` (silence and predicate
        checks).  Instrumentation only reads the monotonic clock; the RNG
        streams are consumed identically, so results never change.
        """
        if self._timings is None:
            self._timings = {phase: 0.0 for phase in STEP_PHASES}
        return self._timings

    @property
    def step_timings(self) -> Optional[dict[str, float]]:
        """The accumulator from :meth:`instrument_steps` (``None`` when off)."""
        return self._timings

    def _result(self, converged: bool) -> SimulationResult:
        return SimulationResult(
            converged=converged,
            interactions=self.metrics.interactions,
            parallel_time=self.metrics.parallel_time,
            metrics=self.metrics,
            snapshot=self._config_snapshot(),
        )

    def _config_snapshot(self) -> Callable[[], list[Any]]:
        """The configuration now, as a thunk that decodes it; engines
        whose ``config`` is built on each read override this to copy
        their own representation instead."""
        config = self.config
        return lambda: config


class Simulation(_Engine):
    """A single protocol execution under the uniform random scheduler.

    The configuration arguments are keyword-only, so ``Simulation(p,
    cfg)`` is Python's own :class:`TypeError` rather than a silent rebind.
    The phase clock files scheduler pair draws under ``draw``,
    transitions under ``apply`` and predicate checks under ``retire``.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        config: Optional[list[Any]] = None,
        n: Optional[int] = None,
        seed: int = 0,
    ):
        if config is None:
            if n is None:
                raise ValueError("provide either an initial config or a population size n")
            config = protocol.clean_configuration(n)
        self.protocol = protocol
        self.config = config
        self.n = len(config)
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        self.seed = seed
        self._scheduler_rng: RNG = make_rng(derive_seed(seed, 0))
        self.transition_rng: RNG = make_rng(derive_seed(seed, 1))
        self.scheduler = RandomScheduler(self.n, self._scheduler_rng)
        self.metrics = Metrics(n=self.n)
        self.observers: list[Observer] = []

    # ------------------------------------------------------------------

    def step(self) -> tuple[int, int]:
        """Run one interaction; returns the interacting pair."""
        i, j = self.scheduler.next_pair()
        self.protocol.transition(self.config[i], self.config[j], self.transition_rng)
        self.metrics.interactions += 1
        for observer in self.observers:
            observer(self, i, j)
        return i, j

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the batched fast path.

        Scheduler pairs stream through the lazy :meth:`RandomScheduler
        .pairs` iterator — each pair is drawn, unpacked, and freed in turn
        (never a list of ``count`` tuples) — and transitions run in a
        tight loop that touches only locals; the interaction counter is
        bumped once per batch.  Because observers may read
        ``metrics.interactions`` (or mutate the configuration) mid-run,
        any registered observer routes the batch through the per-step path
        instead — either way the RNG streams are consumed identically, so
        ``run_batch(k)`` is bit-identical to ``k`` calls of :meth:`step`.
        """
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        if self.observers:
            for _ in range(count):
                self.step()
            return
        config = self.config
        transition = self.protocol.transition
        rng = self.transition_rng
        timings = self._timings
        pairs = self.scheduler.pairs(count)
        if timings is not None:
            # Instrumented, the pairs are drawn up front so draw and apply
            # time separate cleanly.  The scheduler and transition streams
            # are independent, so each is consumed in the same order.
            start = perf_counter()
            pairs = list(pairs)
            drawn = perf_counter()
            timings["draw"] += drawn - start
        for i, j in pairs:
            transition(config[i], config[j], rng)
        if timings is not None:
            timings["apply"] += perf_counter() - drawn
        self.metrics.interactions += count

    def predicate_holds(self, predicate: ConfigPredicate) -> bool:
        """Evaluate a convergence/correctness predicate on the current state.

        Part of the common engine surface (see :mod:`repro.sim.backends`):
        each backend evaluates predicates in its cheapest native form —
        here, simply on the configuration list.
        """
        timings = self._timings
        if timings is None:
            return bool(predicate(self.config))
        start = perf_counter()
        held = bool(predicate(self.config))
        timings["retire"] += perf_counter() - start
        return held

    def apply_fault(self, model, burst_size: int, generator) -> None:
        """Inject one fault burst (common engine surface).

        ``model`` is a :class:`repro.sim.fault_engine.FaultModel`; on this
        backend its per-agent object applier corrupts the configuration
        list in place, drawing victims and replacements from ``generator``.
        """
        model.apply_config(self.protocol, self.config, burst_size, generator)


def run_until(
    protocol: PopulationProtocol,
    predicate: ConfigPredicate,
    *,
    init: Optional["InitialState"] = None,
    n: Optional[int] = None,
    seed: int = 0,
    max_interactions: int,
    check_interval: int = 1,
    backend: Optional[str] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around
    :func:`repro.sim.backends.make_simulation`."""
    sim = backends.make_simulation(protocol, init=init, n=n, seed=seed, backend=backend)
    return sim.run_until(predicate, max_interactions, check_interval)
