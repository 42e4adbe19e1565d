"""Tests for the stable ``repro.api`` surface and its calling conventions.

Two contracts:

* ``repro.api`` exposes exactly its curated ``__all__`` — no internal
  module is reachable through it, checked both statically (an AST walk
  over the source: nothing but ``from X import name``) and at runtime
  (no attribute is a module object);
* configuration arguments across the surface are keyword-only, and a
  stray positional gets the pointed :class:`TypeError` telling the
  caller which keyword to use — not a silent mis-bind.
"""

from __future__ import annotations

import ast
import inspect
import types

import pytest

import repro.api as api
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams


class TestSurface:
    def test_source_contains_only_from_imports(self):
        tree = ast.parse(inspect.getsource(api))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Import), (
                f"plain 'import {node.names[0].name}' would bind a module "
                "object on repro.api; use 'from ... import name'"
            )
            if isinstance(node, ast.ImportFrom):
                assert node.names[0].name != "*", "star imports hide the surface"

    def test_no_module_objects_leak(self):
        leaked = [
            name
            for name in dir(api)
            if not name.startswith("__")
            and isinstance(getattr(api, name), types.ModuleType)
        ]
        assert leaked == [], f"internal modules reachable via repro.api: {leaked}"

    def test_all_is_exact_and_sorted_within_groups(self):
        public = {name for name in dir(api) if not name.startswith("_")}
        assert public == set(api.__all__)

    def test_internal_modules_are_attribute_errors(self):
        for name in ("sweep", "simulation", "backends", "pool", "cli"):
            with pytest.raises(AttributeError):
                getattr(api, name)

    def test_packages_keep_only_the_quickstart_names(self):
        import repro
        import repro.sim

        quickstart = ["ElectLeader", "ProtocolParams", "Simulation", "run_trials", "format_table"]
        assert repro.__all__ == quickstart + ["__version__"]
        for name in quickstart:
            assert getattr(repro, name) is getattr(api, name)
        exported = [
            name
            for name, value in vars(repro.sim).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        ]
        assert exported == [], f"repro.sim re-exports {exported}; use repro.api"


def make_protocol():
    return ElectLeader(ProtocolParams(n=8, r=2))


class TestKeywordOnlySurface:
    """``f(x, 8)`` used to silently bind 8 to whatever came next; now the
    configuration arguments are keyword-only and the stray positional
    raises a TypeError that names the keyword to use."""

    def test_simulation_rejects_positional_config(self):
        protocol = make_protocol()
        with pytest.raises(TypeError, match=r"pass config=\.\.\. by name"):
            api.Simulation(protocol, [protocol.initial_state() for _ in range(8)])
        with pytest.raises(TypeError, match="keyword-only"):
            api.Simulation(protocol, None, 8)

    def test_make_simulation_rejects_positional_init(self):
        with pytest.raises(TypeError, match=r"pass init=\.\.\. by name"):
            api.make_simulation(make_protocol(), None)

    def test_resolve_backend_rejects_positional_extras(self):
        with pytest.raises(TypeError, match="resolve_backend"):
            api.resolve_backend("object", "array")

    def test_run_until_rejects_positional_budget(self):
        with pytest.raises(TypeError, match="run_until"):
            api.run_until(make_protocol(), lambda config: True, 100)

    def test_run_trials_rejects_positional_counts(self):
        # The required counts are keyword-only already (Python enforces
        # that); a stray positional alongside them gets the pointed error.
        with pytest.raises(TypeError, match=r"pass n=\.\.\. by name"):
            api.run_trials(
                make_protocol(), lambda config: True, 8,
                n=8, trials=1, max_interactions=10,
            )

    def test_run_trial_specs_rejects_positional_workers(self):
        with pytest.raises(TypeError, match=r"pass workers=\.\.\. by name"):
            api.run_trial_specs([], 4)

    def test_stream_ordered_rejects_positional_workers_eagerly(self):
        # The check fires at call time, not at first next() — stream_ordered
        # validates in a plain wrapper before handing off to the generator.
        with pytest.raises(TypeError, match="stream_ordered"):
            api.stream_ordered([], str, 4)
        with pytest.raises(TypeError, match=r"pass workers=\.\.\., window=\.\.\. by name"):
            api.stream_ordered([], str, 4, 16)

    def test_run_trial_specs_streaming_rejects_positional_workers(self):
        with pytest.raises(TypeError, match="run_trial_specs_streaming"):
            api.run_trial_specs_streaming([], 4)

    def test_error_message_counts_strays(self):
        with pytest.raises(TypeError, match="got 2 positional values"):
            api.run_trial_specs([], 4, 16)

    def test_keyword_calls_still_work(self):
        protocol = make_protocol()
        sim = api.Simulation(protocol, n=8, seed=1)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=500_000, check_interval=500
        )
        assert result.converged
        assert api.run_trial_specs([], workers=1) == []
