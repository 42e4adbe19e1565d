"""The execution-backend registry: one source of truth for engine dispatch.

Contracts gated here:

* the registry knows exactly the four built-in engines (object first),
  rejects unknown names with the known list, and supports one-file
  extension via :func:`register_backend`;
* ``backend=None`` is the object engine;
* capability checks: the object engine runs everything, the vectorized
  engines reject protocols without a finite encoding, with a reason;
* ``make_simulation`` routes to the right engine class and materializes
  one ``init=`` :class:`~repro.sim.initial_state.InitialState` into each
  engine's native form;
* the removed ``config=``/``codes=``/``counts=`` kwargs get Python's own
  ``TypeError``;
* the dispatch sites themselves (``simulation``/``trials``/``sweep``/
  ``cli``) contain no hardcoded backend-name conditionals.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.baselines.nonss_leader import PairwiseElimination
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.sim import backends
from repro.sim.backends import (
    Backend,
    backend_names,
    get_backend,
    make_simulation,
    register_backend,
)
from repro.sim.initial_state import CodeArray, CountVector
from repro.sim.simulation import Simulation


class TestRegistry:
    def test_builtins_registered_default_first(self):
        names = backend_names()
        assert names[0] == "object"
        assert set(names) >= {"object", "array", "counts", "batch"}

    def test_get_backend_unknown_lists_known(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'.*object"):
            get_backend("gpu")

    def test_unknown_backend_error_lists_names_sorted(self):
        # The error message is part of the CLI surface: registered names
        # come back in deterministic sorted order, not insertion order.
        with pytest.raises(ValueError) as excinfo:
            get_backend("gpu")
        expected = ", ".join(sorted(backend_names()))
        assert f"(known: {expected})" in str(excinfo.value)

    def test_register_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("object"))
        for bad in ("not a name", "dashed-name", ""):
            with pytest.raises(ValueError, match="simple identifier"):
                register_backend(
                    Backend(name=bad, factory=lambda *a, **k: None,
                            supports=lambda p: None)
                )

    def test_fifth_backend_is_one_registration(self):
        """The extension contract: register → every entry point sees it."""
        calls = {}

        def factory(protocol, *, init=None, n=None, seed=0):
            calls["built"] = True
            config = init.to_config(protocol) if init is not None else None
            return Simulation(protocol, config=config, n=n, seed=seed)

        register_backend(
            Backend(name="dummy", factory=factory, supports=lambda p: None)
        )
        try:
            assert "dummy" in backend_names()
            assert get_backend("dummy").name == "dummy"
            sim = make_simulation(PairwiseElimination(8), n=8, backend="dummy")
            assert calls["built"] and isinstance(sim, Simulation)
        finally:
            del backends._REGISTRY["dummy"]

    def test_replace_requires_flag(self):
        original = get_backend("object")
        register_backend(original, replace=True)  # no-op re-registration
        assert get_backend("object") is original

    def test_batch_entry_hooks(self):
        # The batch engine is the only one with the whole-batch hook that
        # run_trials and cell-grouped sweeps both read.
        assert get_backend("batch").batch_cells
        for name in ("object", "array", "counts"):
            assert not get_backend(name).batch_cells

    def test_exactly_four_builtin_backends(self, capsys):
        # The compiled twin of the batch engine is gone: neither the
        # library nor the sweep CLI accepts its name.
        from repro.cli import build_parser

        assert sorted(backend_names()) == ["array", "batch", "counts", "object"]
        with pytest.raises(ValueError) as excinfo:
            make_simulation(PairwiseElimination(8), n=8, backend="batch-jit")
        assert str(excinfo.value) == (
            "unknown backend 'batch-jit' (known: array, batch, counts, object)"
        )
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["sweep", "--backend", "batch-jit"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'batch-jit'" in capsys.readouterr().err


class TestResolution:
    def test_none_defaults_to_object(self):
        assert isinstance(make_simulation(PairwiseElimination(8), n=8), Simulation)


class TestCapabilities:
    def test_object_runs_everything(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        assert get_backend("object").supports(elect) is None

    @pytest.mark.parametrize("name", ["array", "counts", "batch"])
    def test_vectorized_engines_reject_elect_leader(self, name):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        reason = get_backend(name).supports(elect)
        assert reason is not None and "finite state encoding" in reason

    @pytest.mark.parametrize("name", ["array", "counts", "batch"])
    def test_vectorized_engines_accept_finite_state(self, name):
        assert get_backend(name).supports(PairwiseElimination(8)) is None

    def test_require_raises_with_protocol_and_backend(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(ValueError, match="'elect-leader'.*'counts'"):
            get_backend("counts").require(elect)


class TestMakeSimulation:
    def test_routes_to_engine_classes(self):
        pytest.importorskip("numpy")
        from repro.sim.array_backend import ArraySimulation
        from repro.sim.counts_backend import CountsSimulation

        protocol = PairwiseElimination(8)
        assert isinstance(make_simulation(protocol, n=8), Simulation)
        assert isinstance(
            make_simulation(protocol, n=8, backend="array"), ArraySimulation
        )
        assert isinstance(
            make_simulation(protocol, n=8, backend="counts"), CountsSimulation
        )
        assert isinstance(
            make_simulation(protocol, n=8, backend="batch"), CountsSimulation
        )

    def test_init_reaches_every_engine_natively(self):
        np = pytest.importorskip("numpy")
        protocol = PairwiseElimination(8)
        codes = [1, 0, 1, 0, 0, 0, 1, 0]
        init = CodeArray(codes)
        object_sim = make_simulation(protocol, init=init, backend="object")
        array_sim = make_simulation(protocol, init=init, backend="array")
        counts_sim = make_simulation(protocol, init=init, backend="counts")
        assert [protocol.encode_state(s) for s in object_sim.config] == codes
        assert array_sim.codes.tolist() == codes
        assert counts_sim.counts[0].tolist() == np.bincount(codes, minlength=2).tolist()

    def test_count_vector_reaches_every_engine_identically(self):
        np = pytest.importorskip("numpy")
        from repro.sim.counts_backend import CountsSimulation

        protocol = PairwiseElimination(8)
        init = CountVector([5, 3])
        object_sim = make_simulation(protocol, init=init, backend="object")
        array_sim = make_simulation(protocol, init=init, backend="array")
        counts_sim = make_simulation(protocol, init=init, backend="counts")
        assert isinstance(counts_sim, CountsSimulation)
        assert sorted(protocol.encode_state(s) for s in object_sim.config) == \
            [0] * 5 + [1] * 3
        assert np.sort(array_sim.codes).tolist() == [0] * 5 + [1] * 3
        assert counts_sim.counts[0].tolist() == [5, 3]

    def test_counts_expand_to_fresh_objects_on_the_object_engine(self):
        # The object engine mutates states in place, so the expansion must
        # never alias two agents to one decoded object (the counts
        # backend's shared-object expansion is read-only-safe only).
        protocol = PairwiseElimination(6)
        sim = make_simulation(protocol, init=CountVector([0, 6]), backend="object")
        assert len({id(state) for state in sim.config}) == 6

    def test_counts_length_is_validated(self):
        pytest.importorskip("numpy")
        protocol = PairwiseElimination(8)
        for backend in ("object", "array", "counts"):
            with pytest.raises((ValueError, RuntimeError)):
                make_simulation(protocol, init=CountVector([1, 2, 3]), backend=backend)

    def test_init_rejects_non_initial_state(self):
        protocol = PairwiseElimination(8)
        with pytest.raises(TypeError, match="InitialState"):
            make_simulation(protocol, init=[0] * 8)


class TestLegacyKwargsRemoved:
    """``config=``/``codes=``/``counts=`` are gone: like any unknown
    keyword, each gets Python's own :class:`TypeError`."""

    def test_unknown_kwargs_are_plain_unexpected(self):
        protocol = PairwiseElimination(8)
        for keyword in ("bogus", "config", "codes", "counts"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                make_simulation(protocol, **{keyword: [0] * 8})


class TestNoHardcodedDispatch:
    def test_dispatch_sites_use_registry_lookups_only(self):
        """No ``backend == "array"``-style conditionals outside the registry."""
        from repro import cli
        from repro.sim import simulation, sweep, trials

        pattern = re.compile(r"""backend\s*(?:==|!=|\bin\b)\s*[("']""")
        for module in (simulation, trials, sweep, cli):
            source = inspect.getsource(module)
            assert not pattern.search(source), (
                f"{module.__name__} compares backend names directly; "
                "use the registry instead"
            )
