"""Tests for the stable ``repro.api`` surface and its calling conventions.

Two contracts:

* ``repro.api`` exposes exactly its curated ``__all__`` — no internal
  module is reachable through it, checked both statically (an AST walk
  over the source: nothing but ``from X import name``) and at runtime
  (no attribute is a module object);
* configuration arguments across the surface are keyword-only, so a
  stray positional is Python's own :class:`TypeError` — not a silent
  mis-bind.
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
    configuration arguments are keyword-only (a bare ``*``), so a stray
    positional is Python's own TypeError at call time."""

    def test_simulation_rejects_positional_config(self):
        protocol = make_protocol()
        with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
            api.Simulation(protocol, [protocol.initial_state() for _ in range(8)])
        with pytest.raises(TypeError, match=r"Simulation\.__init__\(\) takes 2"):
            api.Simulation(protocol, None, 8)

    def test_make_simulation_rejects_positional_init(self):
        with pytest.raises(TypeError, match="takes 1 positional argument but 2"):
            api.make_simulation(make_protocol(), None)

    def test_run_until_rejects_positional_budget(self):
        with pytest.raises(TypeError, match=r"run_until\(\) takes 2 positional"):
            api.run_until(make_protocol(), lambda config: True, 100)

    def test_run_trials_rejects_positional_counts(self):
        with pytest.raises(TypeError, match=r"run_trials\(\) takes 2 positional"):
            api.run_trials(
                make_protocol(), lambda config: True, 8,
                n=8, trials=1, max_interactions=10,
            )

    def test_stream_ordered_rejects_positional_workers_eagerly(self):
        # The error fires at call time, not at first next(): stream_ordered
        # is a plain function that hands off to its inner generator.
        with pytest.raises(TypeError, match=r"stream_ordered\(\) takes 2 positional"):
            api.stream_ordered([], str, 4)

    def test_error_message_counts_strays(self):
        with pytest.raises(TypeError, match="but 4 were given"):
            api.stream_ordered([], str, 4, 16)

    def test_keyword_calls_still_work(self):
        protocol = make_protocol()
        sim = api.Simulation(protocol, n=8, seed=1)
        result = sim.run_until(
            protocol.is_safe_configuration, max_interactions=500_000, check_interval=500
        )
        assert result.converged
        assert list(api.stream_ordered([], str, workers=1)) == []
