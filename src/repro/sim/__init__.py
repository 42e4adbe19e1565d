"""Simulation engine: run protocols under the uniform random scheduler."""

from repro.sim.convergence import (
    SilenceDetector,
    all_of,
    any_of,
    correct_ranking,
    run_to_silence,
    unique_leader,
)
from repro.sim.batch_backend import (
    BatchCountsEngine,
    RowOutcome,
    run_trial_batch,
)
from repro.sim.fault_engine import (
    FAULT_MODELS,
    FaultEngine,
    FaultEngineError,
    FaultModel,
    FaultSpec,
    fault_model_names,
    get_fault_model,
    make_fault_engine,
    register_fault_model,
)
from repro.sim.initial_state import (
    Clean,
    CodeArray,
    CountVector,
    InitialState,
    ObjectConfig,
    Replicated,
    SampledStart,
    reject_removed_kwargs,
    require_init,
)
from repro.sim.faults import AvailabilityReport
from repro.sim.metrics import Metrics
from repro.sim.parallel import (
    TrialOutcome,
    TrialSpec,
    resolve_workers,
    run_trial,
    run_trial_specs,
    run_trial_specs_streaming,
    stream_ordered,
)
from repro.sim.array_backend import (
    ArrayBackendError,
    ArraySimulation,
    TransitionTable,
    apply_pair_block,
    build_transition_table,
    replay_array,
    transition_table_for,
)
from repro.sim.backends import (
    Backend,
    backend_names,
    get_backend,
    register_backend,
    supports_backend,
)
from repro.sim.counts_backend import (
    CountsAwarePredicate,
    CountsBackendError,
    CountsSimulation,
    apply_pair_counts,
    configuration_from_counts,
    counts_aware,
    counts_from_codes,
    counts_from_configuration,
    goal_counts_predicate,
)
from repro.sim.replay import replay, record_and_replay_matches
from repro.sim.simulation import (
    Simulation,
    SimulationResult,
    make_simulation,
    resolve_backend,
    run_until,
)


def __getattr__(name: str):
    # Live view of the registered engine names (legacy static-tuple
    # import): evaluated per access so backends registered after this
    # package was imported still show up.
    if name == "BACKENDS":
        return backend_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
from repro.sim.sweep import (
    GridSpec,
    ScenarioOutcome,
    ScenarioSpec,
    SweepError,
    SweepResult,
    aggregate_rows,
    expand_grid,
    load_checkpoint,
    run_scenario,
    run_scenario_cell,
    run_sweep,
)
from repro.sim.trace import ProtocolTracer, TraceEvent
from repro.sim.trials import TrialSummary, format_table, run_trials

__all__ = [
    "Simulation",
    "SimulationResult",
    "run_until",
    "make_simulation",
    "resolve_backend",
    "BACKENDS",
    "Backend",
    "backend_names",
    "get_backend",
    "register_backend",
    "supports_backend",
    "CountsAwarePredicate",
    "CountsBackendError",
    "CountsSimulation",
    "apply_pair_counts",
    "configuration_from_counts",
    "counts_aware",
    "counts_from_codes",
    "counts_from_configuration",
    "goal_counts_predicate",
    "BatchCountsEngine",
    "RowOutcome",
    "run_trial_batch",
    "InitialState",
    "Clean",
    "CodeArray",
    "CountVector",
    "ObjectConfig",
    "Replicated",
    "SampledStart",
    "reject_removed_kwargs",
    "require_init",
    "ArrayBackendError",
    "ArraySimulation",
    "TransitionTable",
    "apply_pair_block",
    "build_transition_table",
    "transition_table_for",
    "replay_array",
    "Metrics",
    "TrialSummary",
    "run_trials",
    "format_table",
    "TrialSpec",
    "TrialOutcome",
    "run_trial",
    "run_trial_specs",
    "run_trial_specs_streaming",
    "stream_ordered",
    "resolve_workers",
    "GridSpec",
    "ScenarioSpec",
    "ScenarioOutcome",
    "SweepError",
    "SweepResult",
    "expand_grid",
    "run_scenario",
    "run_scenario_cell",
    "run_sweep",
    "aggregate_rows",
    "load_checkpoint",
    "replay",
    "record_and_replay_matches",
    "SilenceDetector",
    "run_to_silence",
    "unique_leader",
    "correct_ranking",
    "all_of",
    "any_of",
    "AvailabilityReport",
    "FAULT_MODELS",
    "FaultEngine",
    "FaultEngineError",
    "FaultModel",
    "FaultSpec",
    "fault_model_names",
    "get_fault_model",
    "make_fault_engine",
    "register_fault_model",
    "ProtocolTracer",
    "TraceEvent",
]
