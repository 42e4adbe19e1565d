"""The benchmark harness's hooks into the program.

A traced benchmark run (``perfbench/layers.py``) swaps timing shims in
for program functions by name for one unit and restores them after.
These tests hold the program to that contract from the tier-1 suite,
without editing a benchmark file: every name the harness patches exists,
the engines call the run-length sampler the way the harness counts it
(``next_run_lengths`` with its count as the first positional argument),
and leaving the context restores every attribute it touched.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.sim import backends  # noqa: E402
from repro.sim.counts_backend import CountsSimulation, goal_counts_predicate  # noqa: E402
from repro.sim.initial_state import CountVector, Replicated  # noqa: E402
from repro.substrates.epidemics import EpidemicProtocol  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def _program_attributes():
    """Every attribute of every loaded ``repro`` module and of every class
    defined in one, by owner: the names a shim could replace."""
    owners = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        owners[name] = module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                owners[f"{name}.{value.__qualname__}"] = value
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def _changed(before, after):
    changed = []
    for owner in before.keys() | after.keys():
        old, new = before.get(owner, {}), after.get(owner, {})
        for attr in old.keys() | new.keys():
            if attr not in old or attr not in new or old[attr] is not new[attr]:
                changed.append(f"{owner}.{attr}")
    return sorted(changed)


def _registry():
    return {name: backends.get_backend(name) for name in backends.backend_names()}


def test_instrumented_patches_the_named_hooks_and_restores_every_attribute(layers):
    before, registry = _program_attributes(), _registry()
    with layers.instrumented(layers.Recorder()):
        patched = _changed(before, _program_attributes())
        assert _registry() != registry  # every backend factory is timed
    for hook in (
        "repro.scheduler.scheduler.CollisionRunSampler.next_run_length",
        "repro.scheduler.scheduler.CollisionRunSampler.next_run_lengths",
        "repro.sim.counts_backend.CountsSimulation.run_until",
        "repro.sim.counts_backend.CountsSimulation.run_rows_until",
        "repro.sim.counts_backend.CountsSimulation.measure_rows_availability",
        "repro.sim.fault_engine.FaultEngine.run_until",
        "repro.sim.fault_engine.FaultEngine.measure_availability",
    ):
        assert hook in patched
    assert _changed(before, _program_attributes()) == []
    assert _registry() == registry


def test_traced_lockstep_drive_counts_its_run_blocks(layers):
    # The shims count next_run_lengths(count) by its positional count; a
    # keyword call would fail inside the context.
    n, rows = 2_000, 16
    protocol = EpidemicProtocol()

    def drive():
        engine = CountsSimulation(
            protocol, init=Replicated(CountVector([n - 100, 100]), rows), seed=4
        )
        assert engine._lockstep(rows)
        return engine.run_rows_until(
            goal_counts_predicate(protocol), max_interactions=20 * n, check_interval=n // 4
        )

    recorder = layers.Recorder()
    with layers.instrumented(recorder):
        traced = drive()
    assert traced == drive()
    assert recorder.calls("engine.drive") == 1
    assert recorder.counts["sched.runs"] > recorder.counts["sched.steps"] > 0
