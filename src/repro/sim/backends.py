"""The execution-backend registry — one place that knows every engine.

Four registry entries run ``Simulation``-shaped workloads today:

* ``object`` — the per-interaction reference engine
  (:class:`repro.sim.simulation.Simulation`): state objects, Python
  dispatch, observers, fault injection.  Runs every protocol.
* ``array``  — the vectorized per-agent engine
  (:class:`repro.sim.array_backend.ArraySimulation`): ``int64`` state
  codes per agent, dense transition tables, block pair application.
  Finite-state protocols only.
* ``counts`` — the count-vector engine
  (:class:`repro.sim.counts_backend.CountsSimulation`), one trial per
  engine: the whole population is an ``S``-length count vector;
  interactions are sampled in law-exact collision-free runs and applied
  as aggregate count deltas.  Finite-state protocols only, and the engine
  of choice once only aggregate statistics matter (n ≥ 10⁶ stabilization
  curves).
* ``batch`` — the same counts engine holding a whole sweep cell
  (:data:`repro.sim.batch_backend.BatchCountsEngine`): ``T`` trials as
  the rows of one ``(T, S)`` counts matrix, each row advance taking the
  per-row or the lockstep sampler by ``S`` and the number of rows
  stepping.  The engine of choice when a sweep cell or a ``run_trials``
  call runs many trials of one protocol.

Every dispatch site in the repository — :func:`make_simulation`,
:func:`repro.sim.simulation.run_until`, :func:`repro.sim.trials
.run_trials`, :class:`repro.sim.sweep.GridSpec`, the ``repro sweep
--backend`` CLI choices — derives from this registry; none of them name a
backend in an ``if``/``elif`` chain.  Adding an engine is therefore one
new module that calls :func:`register_backend` (plus its registration
line below), and every entry point picks it up.

**The registry contract.**  A :class:`Backend` bundles:

* ``name`` — the string users pass as ``backend=`` / ``--backend``;
* ``factory(protocol, *, init, n, seed)`` — builds an engine that
  defines :data:`ENGINE_SURFACE` (``run_batch`` / ``predicate_holds`` /
  ``apply_fault`` / ``metrics`` / ``config`` / ``n``) and inherits the
  shared driver (``run`` / ``run_until`` / ``instrument_steps`` /
  ``step_timings``).  ``init`` is an
  :class:`~repro.sim.initial_state.InitialState` (or ``None`` for a
  clean ``n``-agent start); the factory asks it for
  the engine's native representation (``to_config`` / ``to_codes`` /
  ``to_counts``), so one value describes the start on every backend and
  adversaries no longer need to know which form an engine prefers;
* ``native_form`` — which representation the engine consumes natively
  (``"config"``, ``"codes"`` or ``"counts"``): registry metadata for
  docs, ``--help`` and schema-compatibility checks (nothing dispatches
  on it);
* ``supports(protocol)`` — ``None`` when the engine can run the protocol,
  else a human-readable reason (used by :class:`~repro.sim.sweep
  .GridSpec` validation and by callers that want to fail before spawning
  workers).  ``supports`` is a cheap *capability* check — engines may
  still raise at construction time for resource-level problems it cannot
  see (e.g. a transition table that only blows the size cap at the
  sweep's largest ``n``);
* ``batch_cells`` — the one batch hook: ``True`` when the factory,
  given a :class:`~repro.sim.initial_state.Replicated` start, builds an
  engine that runs all its rows through the batch-driver surface
  (``run_rows_until`` / ``measure_rows_availability``).  ``run_trials``
  then runs a whole call, and ``run_sweep`` a whole cell (sharded by
  cell), as one engine instead of one work item per trial;
* ``description`` — one line for ``--help`` and error messages.

**Resolution happens once.**  :func:`resolve_backend` applies the
``None`` → ``$REPRO_BENCH_BACKEND`` → ``object`` defaulting rule and is
called once, at the outermost entry point (``run_trials``, the sweep
CLI).  Everything downstream carries the resolved name and uses
:func:`get_backend` — a pure dictionary lookup that never consults the
environment — so worker processes can never disagree with their parent
about which engine runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.protocol import PopulationProtocol
from repro.sim.initial_state import InitialState, Replicated, require_init

#: Environment variable naming the default backend (see resolve_backend).
BACKEND_ENV = "REPRO_BENCH_BACKEND"

#: Canonical backend names.  These are ordinary registry keys — nothing
#: dispatches on them — kept as constants so call sites that *pin* an
#: engine (e.g. the object-only ``tradeoff`` CLI command) spell it
#: consistently.
BACKEND_OBJECT = "object"
BACKEND_ARRAY = "array"
BACKEND_COUNTS = "counts"
BACKEND_BATCH = "batch"

#: The engine used when neither the caller nor the environment names one.
DEFAULT_BACKEND = BACKEND_OBJECT

#: The three native configuration representations (``Backend.native_form``).
NATIVE_CONFIG = "config"
NATIVE_CODES = "codes"
NATIVE_COUNTS = "counts"

#: The canonical engine surface: the members every engine defines itself
#: (methods or attributes).  Everything else an engine exposes — ``run``,
#: ``run_until``, ``instrument_steps``, ``step_timings`` — it inherits
#: from the one engine driver in :mod:`repro.sim.simulation`.  The
#: contract checker (:mod:`repro.lint`, rule L002) holds engine classes to
#: this tuple statically, and constructs each registered engine to verify
#: this tuple plus the inherited driver members on the live object, so a
#: new registration inherits the gate without touching the linter.
ENGINE_SURFACE: tuple[str, ...] = (
    "run_batch",
    "predicate_holds",
    "apply_fault",
    "metrics",
    "config",
    "n",
)

#: Factory signature: ``factory(protocol, init=, n=, seed=)``.
SimulationFactory = Callable[..., Any]

#: Capability check: ``None`` = supported, else the reason it is not.
SupportsCheck = Callable[[PopulationProtocol], Optional[str]]


@dataclass(frozen=True)
class Backend:
    """One registered execution engine (see the module docstring)."""

    name: str
    factory: SimulationFactory
    supports: SupportsCheck
    description: str = ""
    #: The representation the engine consumes natively (registry metadata).
    native_form: str = NATIVE_CONFIG
    #: True when the engine runs whole batches through the batch surface.
    batch_cells: bool = False

    def require(self, protocol: PopulationProtocol) -> None:
        """Raise ``ValueError`` unless this engine can run ``protocol``."""
        reason = self.supports(protocol)
        if reason is not None:
            raise ValueError(
                f"protocol '{protocol.name}' cannot run on the "
                f"'{self.name}' backend: {reason}"
            )


#: Name → Backend, in registration order (object first, so iteration and
#: therefore CLI choices list the default engine first).
_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Add an engine to the registry (the one-file-change extension point).

    Registering a name twice is an error unless ``replace=True`` —
    accidental shadowing of a built-in engine should be loud.
    """
    # A simple identifier: names double as CLI choices and registry keys.
    if not backend.name.isidentifier():
        raise ValueError(f"backend name must be a simple identifier, got {backend.name!r}")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend '{backend.name}' is already registered")
    if backend.native_form not in (NATIVE_CONFIG, NATIVE_CODES, NATIVE_COUNTS):
        raise ValueError(
            f"backend native_form must be one of "
            f"{NATIVE_CONFIG!r}/{NATIVE_CODES!r}/{NATIVE_COUNTS!r}, "
            f"got {backend.native_form!r}"
        )
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """All registered engine names, default engine first."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> Backend:
    """Pure lookup of a *resolved* backend name (never reads the env)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        # Sorted, not registration order: the message is deterministic
        # however (and in whatever order) engines were registered.
        known = ", ".join(sorted(backend_names()))
        raise ValueError(f"unknown backend '{name}' (known: {known})") from None


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend request: ``None`` → ``$REPRO_BENCH_BACKEND`` → default.

    The environment variable gives benchmarks and the CLI a process-wide
    default without threading a flag through every call site; an explicit
    ``backend=`` argument always wins.  Call this once at the entry point
    and pass the resolved name down (:func:`get_backend` from there on).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "") or DEFAULT_BACKEND
    return get_backend(backend).name


def make_simulation(
    protocol: PopulationProtocol,
    *,
    init: Optional[InitialState] = None,
    n: Optional[int] = None,
    seed: int = 0,
    backend: Optional[str] = None,
) -> Any:
    """Build a simulation on the requested execution backend.

    The initial configuration is ``init`` — an
    :class:`~repro.sim.initial_state.InitialState` — or ``n`` for a clean
    start.  ``backend=None`` resolves the environment default; a
    non-``None`` name is treated as already resolved and looked up
    directly.  Everything after ``protocol`` is keyword-only.
    """
    init = require_init(init)
    entry = get_backend(backend if backend is not None else resolve_backend(None))
    return entry.factory(protocol, init=init, n=n, seed=seed)


# ---------------------------------------------------------------------------
# Built-in engine registrations
# ---------------------------------------------------------------------------
#
# Factories import their engine modules lazily: the object engine must
# stay importable without numpy, and the vectorized engines already
# import-guard numpy themselves and raise a clear error at use time.


def _object_factory(
    protocol: PopulationProtocol,
    *,
    init: Optional[InitialState] = None,
    n: Optional[int] = None,
    seed: int = 0,
) -> Any:
    from repro.sim.simulation import Simulation

    config = init.to_config(protocol) if init is not None else None
    return Simulation(protocol, config=config, n=n, seed=seed)


def _object_supports(protocol: PopulationProtocol) -> Optional[str]:
    return None  # the reference engine runs everything


def _finite_state_supports(protocol: PopulationProtocol) -> Optional[str]:
    """Shared capability check of the table-driven engines."""
    from repro.sim.array_backend import table_size_problem

    return table_size_problem(protocol)


def _array_factory(
    protocol: PopulationProtocol,
    *,
    init: Optional[InitialState] = None,
    n: Optional[int] = None,
    seed: int = 0,
) -> Any:
    from repro.sim.array_backend import ArraySimulation

    codes = init.to_codes(protocol) if init is not None else None
    return ArraySimulation(protocol, n=n, seed=seed, codes=codes)


def _counts_factory(
    protocol: PopulationProtocol,
    *,
    init: Optional[InitialState] = None,
    n: Optional[int] = None,
    seed: int = 0,
) -> Any:
    from repro.sim.counts_backend import CountsSimulation

    if isinstance(init, Replicated):
        init.to_counts(protocol)  # raises: a counts engine runs one trial
    return CountsSimulation(protocol, init=init, n=n, seed=seed)


def _batch_factory(
    protocol: PopulationProtocol,
    *,
    init: Optional[InitialState] = None,
    n: Optional[int] = None,
    seed: int = 0,
) -> Any:
    from repro.sim.batch_backend import BatchCountsEngine

    return BatchCountsEngine(protocol, init=init, n=n, seed=seed)


register_backend(
    Backend(
        name=BACKEND_OBJECT,
        factory=_object_factory,
        supports=_object_supports,
        description="per-interaction state objects (every protocol; observers, faults)",
        native_form=NATIVE_CONFIG,
    )
)
register_backend(
    Backend(
        name=BACKEND_ARRAY,
        factory=_array_factory,
        supports=_finite_state_supports,
        description="vectorized per-agent state-code array (finite-state protocols)",
        native_form=NATIVE_CODES,
    )
)
register_backend(
    Backend(
        name=BACKEND_COUNTS,
        factory=_counts_factory,
        supports=_finite_state_supports,
        description="count-vector over state codes (finite-state protocols, aggregate statistics)",
        native_form=NATIVE_COUNTS,
    )
)
register_backend(
    Backend(
        name=BACKEND_BATCH,
        factory=_batch_factory,
        supports=_finite_state_supports,
        description=(
            "the counts engine over a (T, S) matrix — a whole trial batch "
            "per engine, per-row or lockstep sampling (finite-state protocols)"
        ),
        native_form=NATIVE_COUNTS,
        batch_cells=True,
    )
)
