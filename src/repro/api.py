"""The stable public API surface of the repro package.

``import repro.api as repro`` (or ``from repro.api import ...``) is the
supported way to drive the reproduction programmatically.  Everything
re-exported here follows the keyword-only calling conventions documented
in the README (a stray positional is Python's own ``TypeError``);
anything *not* listed in ``__all__`` — including the implementation
modules themselves — is internal and may move between releases.

The module deliberately contains only ``from X import name`` statements:
no submodule object is bound as an attribute, so internal modules are not
reachable through it (``repro.api.sweep`` is an :class:`AttributeError`,
not a back door).  A test enforces this with an AST walk.

The surface groups into four layers:

* **protocols & parameters** — :class:`ElectLeader`,
  :class:`ProtocolParams`, the baselines' :class:`BaselineParams`, and
  the :class:`PopulationProtocol` base;
* **single executions** — :func:`make_simulation` / :class:`Simulation`
  / :func:`run_until` on a registered backend, started from any
  :class:`InitialState` (clean, explicit, counted, or sampled
  adversarial);
* **trial batches & sweeps** — :func:`run_trials` aggregation into a
  :class:`TrialSummary`, :class:`GridSpec` expansion via
  :func:`expand_grid` into :class:`ScenarioSpec` trials,
  :func:`run_scenario` / :func:`run_sweep` execution with JSONL
  checkpoints, round-robin :func:`shard_specs` sharding with
  :func:`merge_checkpoints` to join the shard files, and
  :func:`stream_ordered`, the ordered process fan-out under both;
* **observability** — :func:`configure_tracing` / :func:`get_tracer`
  span tracing (a no-op unless a sink is configured; never touches an
  RNG stream), the blessed :func:`perf_counter` clock, and the
  :func:`load_trace` / :func:`summarize_trace` / :func:`to_chrome_trace`
  trace readers.

This is the one curated surface: the top-level :mod:`repro` package
keeps only the quickstart names, and :mod:`repro.sim` exports nothing.
"""

from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.protocol import PopulationProtocol, RankingProtocol
from repro.obs import (
    TraceError,
    configure_tracing,
    get_tracer,
    load_trace,
    perf_counter,
    summarize_trace,
    to_chrome_trace,
)
from repro.sim.backends import backend_names, make_simulation
from repro.sim.initial_state import (
    Clean,
    CodeArray,
    CountVector,
    InitialState,
    ObjectConfig,
    Replicated,
    SampledStart,
)
from repro.sim.parallel import stream_ordered
from repro.sim.simulation import Simulation, SimulationResult, run_until
from repro.sim.sweep import (
    GridSpec,
    MergeReport,
    ScenarioOutcome,
    ScenarioSpec,
    SweepError,
    SweepResult,
    aggregate_rows,
    expand_grid,
    load_grid_file,
    merge_checkpoints,
    parse_shard,
    run_scenario,
    run_sweep,
    shard_specs,
    validate_shard,
)
from repro.sim.trials import TrialSummary, format_table, run_trials

__all__ = [
    # protocols & parameters
    "BaselineParams",
    "ElectLeader",
    "PopulationProtocol",
    "ProtocolParams",
    "RankingProtocol",
    # initial states
    "Clean",
    "CodeArray",
    "CountVector",
    "InitialState",
    "ObjectConfig",
    "Replicated",
    "SampledStart",
    # single executions
    "Simulation",
    "SimulationResult",
    "backend_names",
    "make_simulation",
    "run_until",
    # trial batches
    "TrialSummary",
    "format_table",
    "run_trials",
    "stream_ordered",
    # sweeps
    "GridSpec",
    "MergeReport",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SweepError",
    "SweepResult",
    "aggregate_rows",
    "expand_grid",
    "load_grid_file",
    "merge_checkpoints",
    "parse_shard",
    "run_scenario",
    "run_sweep",
    "shard_specs",
    "validate_shard",
    # observability
    "TraceError",
    "configure_tracing",
    "get_tracer",
    "load_trace",
    "perf_counter",
    "summarize_trace",
    "to_chrome_trace",
]
