"""The array backend's equivalence gate.

Four contracts, each gated here for every protocol exposing a transition
table:

* **encoding** — ``encode_state``/``decode_state`` are inverse bijections
  over ``range(num_states())``, and everything reachable from supported
  start configurations stays inside the encoding;
* **table** — lookups agree with calling δ directly on decoded states
  (property-tested over random state pairs), and randomized or
  table-less protocols are rejected loudly;
* **exactness** — recorded-schedule replay through the conflict-safe
  block machinery is bit-identical to the object backend's sequential
  replay, and results are invariant to block size / check interval;
* **distribution** — random-scheduler runs on the two backends reach the
  same convergence verdicts with statistically indistinguishable
  stabilization-time distributions (the streams differ by construction:
  PCG64 vs Mersenne Twister over the same uniform pair law).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.stats import bootstrap_ci  # noqa: E402
from repro.baselines.cai_izumi_wada import CaiIzumiWada  # noqa: E402
from repro.baselines.loosely_stabilizing import (  # noqa: E402
    LooselyStabilizingLeaderElection,
)
from repro.baselines.nonss_leader import PairwiseElimination  # noqa: E402
from repro.core.elect_leader import ElectLeader  # noqa: E402
from repro.core.params import BaselineParams, ProtocolParams  # noqa: E402
from repro.core.propagate_reset import ResetEpidemicProtocol  # noqa: E402
from repro.core.protocol import PopulationProtocol  # noqa: E402
from repro.scheduler.rng import make_rng  # noqa: E402
from repro.scheduler.scheduler import ArrayScheduler, RecordedSchedule  # noqa: E402
from repro.sim.array_backend import (  # noqa: E402
    ArrayBackendError,
    ArraySimulation,
    TransitionTable,
    apply_pair_block,
    build_transition_table,
    encode_configuration,
    reachable_state_codes,
    replay_array,
    transition_table_for,
)
from repro.sim.backends import (  # noqa: E402
    get_backend,
    make_simulation,
    resolve_backend,
)
from repro.sim.counts_backend import (  # noqa: E402
    CountsSimulation,
    counts_from_configuration,
)
from repro.sim.initial_state import CountVector, Replicated  # noqa: E402
from repro.sim.replay import replay  # noqa: E402
from repro.sim.simulation import run_until  # noqa: E402
from repro.sim.sweep import GridSpec, SweepError, run_sweep  # noqa: E402
from repro.sim.trials import run_trials  # noqa: E402
from repro.substrates.epidemics import (  # noqa: E402
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)

N = 12


def _build_protocols() -> list[tuple[PopulationProtocol, object]]:
    """Every table protocol with a start-configuration builder."""
    ciw = CaiIzumiWada(BaselineParams(n=N))
    loose = LooselyStabilizingLeaderElection(BaselineParams(n=N), tau=1.0)
    pairwise = PairwiseElimination(N)
    reset = ResetEpidemicProtocol(ProtocolParams(n=N, r=2))
    epidemic = EpidemicProtocol()
    one_way = OneWayEpidemicProtocol()
    return [
        (ciw, lambda rng: ciw.adversarial_configuration(rng)),
        (loose, lambda rng: loose.adversarial_configuration(rng)),
        (pairwise, lambda rng: [pairwise.initial_state() for _ in range(N)]),
        (reset, lambda rng: reset.triggered_configuration(N, 1 + rng.randrange(3))),
        (epidemic, lambda rng: EpidemicProtocol.seeded_configuration(N, 2)),
        (one_way, lambda rng: EpidemicProtocol.seeded_configuration(N, 2)),
    ]


PROTOCOLS = _build_protocols()
IDS = [protocol.name for protocol, _ in PROTOCOLS]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class TestEncoding:
    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    def test_round_trip_every_code(self, protocol, config_of):
        size = protocol.num_states()
        assert size is not None and size >= 2
        for code in range(size):
            assert protocol.encode_state(protocol.decode_state(code)) == code

    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    def test_start_configurations_encode(self, protocol, config_of):
        size = protocol.num_states()
        for seed in range(3):
            for state in config_of(make_rng(seed)):
                assert 0 <= protocol.encode_state(state) < size

    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    def test_reachable_closure_within_encoding(self, protocol, config_of):
        # δ-closure from the start states never escapes range(S): the
        # encoding really enumerates every reachable state.
        seeds = config_of(make_rng(0))
        codes = reachable_state_codes(protocol, seeds, limit=protocol.num_states())
        assert all(0 <= code < protocol.num_states() for code in codes)

    def test_elect_leader_has_no_encoding(self):
        protocol = ElectLeader(ProtocolParams(n=16, r=2))
        assert protocol.num_states() is None
        with pytest.raises(NotImplementedError):
            protocol.encode_state(protocol.initial_state())


# ---------------------------------------------------------------------------
# Table building
# ---------------------------------------------------------------------------


class _RandomizedToy(PopulationProtocol):
    """Two states, but the transition flips a coin — not tabulatable."""

    name = "randomized-toy"

    def initial_state(self):
        return [0]

    def transition(self, u, v, rng):
        u[0] = rng.randrange(2)

    def output(self, state):
        return state[0]

    def num_states(self):
        return 2

    def encode_state(self, state):
        return state[0]

    def decode_state(self, code):
        return [code]


class _HugeToy(_RandomizedToy):
    name = "huge-toy"

    def num_states(self):
        return 1 << 20


class _OverCapToy(_RandomizedToy):
    """Over the table cap, with a closed form that records each build."""

    name = "over-cap-toy"

    def __init__(self):
        self.builds = 0

    def num_states(self):
        return 1 << 13

    def transition_table(self):
        self.builds += 1
        return super().transition_table()


class TestTableBuilder:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_lookup_agrees_with_delta(self, data):
        # The satellite property test: random (pair, states) lookups agree
        # with calling the transition function directly.
        protocol, _ = PROTOCOLS[data.draw(st.integers(0, len(PROTOCOLS) - 1))]
        size = protocol.num_states()
        a = data.draw(st.integers(0, size - 1))
        b = data.draw(st.integers(0, size - 1))
        table = transition_table_for(protocol)
        u = protocol.decode_state(a)
        v = protocol.decode_state(b)
        protocol.transition(u, v, make_rng(0))
        assert table.lookup(a, b) == (protocol.encode_state(u), protocol.encode_state(v))

    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    def test_tables_are_cached_per_instance(self, protocol, config_of):
        assert transition_table_for(protocol) is transition_table_for(protocol)

    def test_randomized_transition_rejected(self):
        with pytest.raises(ArrayBackendError, match="randomness"):
            build_transition_table(_RandomizedToy())

    def test_oversized_table_rejected(self):
        with pytest.raises(ArrayBackendError, match="cap"):
            build_transition_table(_HugeToy())

    @pytest.mark.parametrize("backend", ["array", "counts", "batch"])
    def test_cap_checked_before_a_closed_form_runs(self, backend):
        # The engines take their tables from transition_table_for, which
        # must refuse an over-cap protocol before its closed form can
        # allocate the S × S outputs — with the registry's own reason.
        protocol = _OverCapToy()
        with pytest.raises(ArrayBackendError, match="cap") as error:
            make_simulation(protocol, n=4, backend=backend)
        assert protocol.builds == 0
        assert get_backend(backend).supports(protocol) in str(error.value)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_ciw_closed_form_matches_generic_builder(self, n):
        protocol = CaiIzumiWada(BaselineParams(n=n))
        closed = protocol.transition_table()
        generic = build_transition_table(protocol)
        assert np.array_equal(closed.u_out, generic.u_out)
        assert np.array_equal(closed.v_out, generic.v_out)

    def test_elect_leader_rejected(self):
        protocol = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(ArrayBackendError, match="no finite state encoding"):
            build_transition_table(protocol)
        with pytest.raises(ArrayBackendError):
            ArraySimulation(protocol, n=16, seed=0)

    def test_table_codes_validated(self):
        bad = np.full((2, 2), 7, dtype=np.int16)
        with pytest.raises(ArrayBackendError, match="outside range"):
            TransitionTable(num_states=2, u_out=bad, v_out=bad)
        wide = np.zeros((2, 2), dtype=np.int32)
        with pytest.raises(ArrayBackendError, match="int16"):
            TransitionTable(num_states=2, u_out=wide, v_out=wide)


def _int64_flat(table):
    """``TransitionTable.flat`` as int64 copies: the reference reading."""
    return table.u_out.ravel().astype(np.int64), table.v_out.ravel().astype(np.int64)


def _triggered(protocol, sources):
    """The reset epidemic at n = 300 with ``sources`` fresh resetters."""
    config = protocol.triggered_configuration(300, sources=sources)
    return CountVector(counts_from_configuration(protocol, config).tolist())


class TestInt16TableReaders:
    """Every path that reads a table ends where int64 copies of its entries
    lead, under the same seed.  The reset epidemic at n = 300 has S = 313
    codes, so a ``code · S`` product formed in int16 would wrap (from
    S = 182 on); each run is compared along its trajectory, because the
    epidemic ends all-awake whatever happened on the way."""

    PROTOCOL = ResetEpidemicProtocol(ProtocolParams(n=300, r=1))

    @staticmethod
    def _same_with_int64_flat(monkeypatch, run):
        built = run()
        with monkeypatch.context() as patch:
            patch.setattr(TransitionTable, "flat", property(_int64_flat))
            assert np.array_equal(run(), built)
        return built

    def test_per_row_jumps_batches_and_collisions(self, monkeypatch):
        # One source: each advance starts with jump steps, and batches go
        # through their collisions until the reset cycle ends.
        start = _triggered(self.PROTOCOL, 1)

        def run():
            sim = CountsSimulation(self.PROTOCOL, init=start, seed=3)
            trajectory = []
            for _ in range(50):
                sim.run_batch(300)
                trajectory.append(sim.counts[0].copy())
            return np.stack(trajectory)

        trajectory = self._same_with_int64_flat(monkeypatch, run)
        assert trajectory[-1, 0] == 300 > trajectory[10, 0]

    def test_per_row_jump_weights(self, monkeypatch):
        # Cai–Izumi–Wada at n = 200 (S = 200) changes the counts only on
        # its diagonal, so a weight read at a wrapped index would count
        # pairs that change nothing.  Five agents on each of the top 40
        # ranks: few occupied codes, so the row weighs them and jumps.
        protocol = CaiIzumiWada(BaselineParams(n=200))
        start = CountVector([0] * 160 + [5] * 40)

        def run():
            sim = CountsSimulation(protocol, init=start, seed=3)
            trajectory = []
            for _ in range(20):
                sim.run_batch(100)
                trajectory.append(sim.counts[0].copy())
            return np.stack(trajectory)

        self._same_with_int64_flat(monkeypatch, run)

    def test_one_matching_step(self, monkeypatch):
        # S = 183 keeps the (S², S) pair deltas near 50 MB; the engine
        # takes the lockstep sampler by itself only from n = (S(S-1))², so
        # the test calls its step directly.  Row 0 jumps, row 1 runs and
        # collides.
        protocol = ResetEpidemicProtocol(ProtocolParams(n=300, r=1, c_delay=2.2))
        assert protocol.num_states() == 183
        start = Replicated([_triggered(protocol, 1), _triggered(protocol, 30)], 2)

        def run():
            sim = CountsSimulation(protocol, init=start, seed=3)
            left = sim._step_rows(np.arange(2), np.full(2, 200))
            return np.column_stack((sim.counts, left))

        self._same_with_int64_flat(monkeypatch, run)

    def test_array_block_apply(self, monkeypatch):
        config = self.PROTOCOL.triggered_configuration(300, sources=30)
        codes = encode_configuration(self.PROTOCOL, config)

        def run():
            sim = ArraySimulation(self.PROTOCOL, codes=codes, seed=3)
            trajectory = []
            for _ in range(20):
                sim.run_batch(1_000)
                trajectory.append(sim.codes.copy())
            return np.stack(trajectory)

        self._same_with_int64_flat(monkeypatch, run)


# ---------------------------------------------------------------------------
# The array scheduler
# ---------------------------------------------------------------------------


class TestArrayScheduler:
    def test_pairs_are_valid(self):
        scheduler = ArrayScheduler(7, seed=3)
        initiators, responders = scheduler.next_pairs(5_000)
        assert initiators.shape == responders.shape == (5_000,)
        assert ((0 <= initiators) & (initiators < 7)).all()
        assert ((0 <= responders) & (responders < 7)).all()
        assert (initiators != responders).all()

    def test_deterministic_per_seed(self):
        a_i, a_j = ArrayScheduler(9, seed=5).next_pairs(1_000)
        b_i, b_j = ArrayScheduler(9, seed=5).next_pairs(1_000)
        c_i, c_j = ArrayScheduler(9, seed=6).next_pairs(1_000)
        assert (a_i == b_i).all() and (a_j == b_j).all()
        assert not ((a_i == c_i).all() and (a_j == c_j).all())

    def test_slicing_invariance(self):
        # The pair sequence is a pure function of the seed, independent of
        # how draws are sliced — the property that makes array runs
        # independent of block size and check interval.
        whole_i, whole_j = ArrayScheduler(9, seed=5).next_pairs(10_000)
        sliced = ArrayScheduler(9, seed=5)
        parts = [sliced.next_pairs(k) for k in (1, 249, 750, 9_000)]
        sliced_i = np.concatenate([i for i, _ in parts])
        sliced_j = np.concatenate([j for _, j in parts])
        assert (whole_i == sliced_i).all() and (whole_j == sliced_j).all()

    def test_every_agent_participates(self):
        initiators, responders = ArrayScheduler(8, seed=0).next_pairs(4_000)
        assert set(initiators.tolist()) == set(range(8))
        assert set(responders.tolist()) == set(range(8))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ArrayScheduler(1, seed=0)
        with pytest.raises(ValueError):
            ArrayScheduler(4, seed=0).next_pairs(-1)
        empty_i, empty_j = ArrayScheduler(4, seed=0).next_pairs(0)
        assert empty_i.size == empty_j.size == 0


# ---------------------------------------------------------------------------
# Exact replay through the conflict-safe block machinery
# ---------------------------------------------------------------------------


class TestExactReplay:
    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recorded_schedule_replays_exactly(self, protocol, config_of, seed):
        config = config_of(make_rng(seed))
        schedule = RecordedSchedule.record(N, 1_200, make_rng(seed + 50))
        via_object = replay(protocol, [s.clone() for s in config], schedule)
        via_array = replay_array(protocol, [s.clone() for s in config], schedule)
        encode = protocol.encode_state
        assert [encode(s) for s in via_object] == [encode(s) for s in via_array]

    @pytest.mark.parametrize("protocol,config_of", PROTOCOLS, ids=IDS)
    def test_conflict_heavy_schedule(self, protocol, config_of):
        # Repeated hot pairs and chains force the scalar tail and multi-
        # round paths; the result must still match sequential replay.
        schedule = RecordedSchedule(
            [(0, 1)] * 40 + [(1, 2), (2, 3), (3, 4), (0, 1)] * 25 + [(4, 5), (5, 4)] * 30
        )
        config = config_of(make_rng(9))
        via_object = replay(protocol, [s.clone() for s in config], schedule)
        via_array = replay_array(protocol, [s.clone() for s in config], schedule)
        encode = protocol.encode_state
        assert [encode(s) for s in via_object] == [encode(s) for s in via_array]

    def test_block_size_does_not_change_results(self):
        protocol = CaiIzumiWada(BaselineParams(n=48))
        small = ArraySimulation(protocol, n=48, seed=7, block_size=1)
        large = ArraySimulation(protocol, n=48, seed=7, block_size=1 << 14)
        ragged = ArraySimulation(protocol, n=48, seed=7, block_size=977)
        small.run_batch(4_000)
        large.run_batch(4_000)
        for _ in range(40):
            ragged.run_batch(100)
        assert (small.codes == large.codes).all()
        assert (small.codes == ragged.codes).all()

    def test_apply_pair_block_matches_scalar_loop(self):
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=16), tau=1.0)
        table = transition_table_for(protocol)
        rng = make_rng(4)
        config = protocol.adversarial_configuration(rng)
        codes = np.array([protocol.encode_state(s) for s in config], dtype=np.int64)
        initiators, responders = ArrayScheduler(16, seed=8).next_pairs(600)
        expected = codes.copy()
        for i, j in zip(initiators.tolist(), responders.tolist()):
            a, b = int(expected[i]), int(expected[j])
            expected[i], expected[j] = table.lookup(a, b)
        apply_pair_block(codes, initiators, responders, table)
        assert (codes == expected).all()

    def test_schedule_validation(self):
        protocol = PairwiseElimination(6)
        sim = ArraySimulation(protocol, n=6, seed=0)
        with pytest.raises(ValueError, match="outside population"):
            sim.apply_schedule([(0, 9)])
        sim.apply_schedule([])  # empty schedule is a no-op
        assert sim.metrics.interactions == 0


# ---------------------------------------------------------------------------
# Simulation semantics and cross-backend equivalence
# ---------------------------------------------------------------------------


class TestArraySimulation:
    def test_mirrors_simulation_interface(self):
        protocol = PairwiseElimination(10)
        sim = ArraySimulation(protocol, n=10, seed=0)
        sim.run(25)
        assert sim.metrics.interactions == 25
        assert sim.metrics.parallel_time == 2.5
        assert len(sim.config) == 10
        with pytest.raises(ValueError):
            ArraySimulation(protocol)
        with pytest.raises(ValueError):
            ArraySimulation(protocol, config=[protocol.initial_state()])
        with pytest.raises(ValueError):
            sim.run_batch(-1)
        with pytest.raises(ValueError):
            sim.run_until(lambda config: False, 10, check_interval=0)

    def test_run_until_checks_initial_config(self):
        protocol = PairwiseElimination(10)
        config = [protocol.initial_state() for _ in range(10)]
        for state in config[1:]:
            state.leader = False
        result = ArraySimulation(protocol, config=config, seed=1).run_until(
            protocol.is_goal_configuration, max_interactions=100
        )
        assert result.converged and result.interactions == 0

    def test_counts_aware_predicates_take_the_bincount_fast_path(self):
        # Satellite of the fault-engine PR: run_until must answer
        # counts-aware predicates from one bincount per check, never by
        # decoding n state objects.
        from repro.sim.counts_backend import counts_aware

        protocol = PairwiseElimination(12)
        calls = {"config": 0, "counts": 0}

        def on_config(config):
            calls["config"] += 1
            return protocol.is_goal_configuration(config)

        def on_counts(counts):
            calls["counts"] += 1
            assert int(counts.sum()) == 12
            return protocol.goal_counts(counts)

        sim = ArraySimulation(protocol, n=12, seed=0)
        result = sim.run_until(
            counts_aware(on_config, on_counts),
            max_interactions=100_000,
            check_interval=32,
        )
        assert result.converged
        assert calls["counts"] > 0
        assert calls["config"] == 0
        assert protocol.is_goal_configuration(sim.config)

    def test_predicate_holds_agrees_with_config_form(self):
        from repro.sim.counts_backend import goal_counts_predicate

        protocol = CaiIzumiWada(BaselineParams(n=12))
        sim = ArraySimulation(protocol, n=12, seed=3)
        predicate = goal_counts_predicate(protocol)
        for _ in range(20):
            assert sim.predicate_holds(predicate) == bool(predicate(sim.config))
            sim.run_batch(50)

    def test_run_until_budget_and_quantization(self):
        protocol = PairwiseElimination(10)
        result = ArraySimulation(protocol, n=10, seed=1).run_until(
            lambda config: False, max_interactions=100
        )
        assert not result.converged and result.interactions == 100
        result = ArraySimulation(protocol, n=10, seed=1).run_until(
            protocol.is_goal_configuration, max_interactions=100_000, check_interval=64
        )
        assert result.converged and result.interactions % 64 == 0

    @pytest.mark.parametrize(
        "protocol,n,predicate_of",
        [
            (CaiIzumiWada(BaselineParams(n=N)), N, lambda p: p.is_silent_configuration),
            (
                LooselyStabilizingLeaderElection(BaselineParams(n=24), tau=2.0),
                24,
                lambda p: p.is_goal_configuration,
            ),
            (PairwiseElimination(24), 24, lambda p: p.is_goal_configuration),
            (
                ResetEpidemicProtocol(ProtocolParams(n=16, r=2)),
                16,
                lambda p: p.is_goal_configuration,
            ),
        ],
        ids=["ciw", "loose", "pairwise", "reset"],
    )
    def test_same_verdict_as_object_backend(self, protocol, n, predicate_of):
        predicate = predicate_of(protocol)
        for seed in (0, 1):
            outcomes = {
                backend: run_until(
                    protocol,
                    predicate,
                    n=n,
                    seed=seed,
                    max_interactions=3_000_000,
                    check_interval=128,
                    backend=backend,
                )
                for backend in ("object", "array")
            }
            assert outcomes["object"].converged == outcomes["array"].converged
            if outcomes["object"].converged:
                assert predicate(outcomes["array"].config)

    def test_stabilization_time_distributions_overlap(self):
        # Different RNG streams, same law: bootstrap CIs for the median
        # stabilization time must overlap across backends.
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=24), tau=2.0)
        summaries = {
            backend: run_trials(
                protocol,
                protocol.is_goal_configuration,
                n=24,
                trials=30,
                max_interactions=500_000,
                seed=17,
                check_interval=32,
                backend=backend,
            )
            for backend in ("object", "array")
        }
        assert summaries["object"].success_rate == summaries["array"].success_rate == 1.0
        ci_object = bootstrap_ci(summaries["object"].interactions, rng=make_rng(1))
        ci_array = bootstrap_ci(summaries["array"].interactions, rng=make_rng(2))
        assert ci_object.low <= ci_array.high and ci_array.low <= ci_object.high

    def test_explicit_start_configuration(self):
        protocol = CaiIzumiWada(BaselineParams(n=8))
        config = protocol.adversarial_configuration(make_rng(2))
        sim = ArraySimulation(protocol, config=[s.clone() for s in config], seed=0)
        assert [s.rank for s in sim.config] == [s.rank for s in config]


class TestBackendRouting:
    def test_resolve_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        assert resolve_backend(None) == "object"
        assert resolve_backend("array") == "array"
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "array")
        assert resolve_backend(None) == "array"
        assert resolve_backend("object") == "object"  # explicit beats env

    def test_make_simulation_routes(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        protocol = PairwiseElimination(8)
        from repro.sim.simulation import Simulation

        assert isinstance(make_simulation(protocol, n=8), Simulation)
        assert isinstance(make_simulation(protocol, n=8, backend="array"), ArraySimulation)
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "array")
        assert isinstance(make_simulation(protocol, n=8), ArraySimulation)

    def test_run_trials_backend_parity(self):
        protocol = PairwiseElimination(16)
        results = {
            backend: run_trials(
                protocol,
                protocol.is_goal_configuration,
                n=16,
                trials=10,
                max_interactions=100_000,
                seed=3,
                check_interval=16,
                backend=backend,
            )
            for backend in ("object", "array")
        }
        assert results["object"].success_rate == results["array"].success_rate == 1.0


class TestSweepBackend:
    def test_grid_rejects_unknown_backend(self):
        with pytest.raises(SweepError, match="unknown backend"):
            GridSpec(ns=(8,), backend="gpu")

    def test_grid_rejects_tableless_protocols_on_array(self):
        with pytest.raises(SweepError, match="array"):
            GridSpec(ns=(8,), protocols=("elect_leader",), backend="array")

    def test_grid_round_trips_backend(self):
        grid = GridSpec(ns=(8,), protocols=("cai_izumi_wada",), backend="array")
        assert GridSpec.from_dict(grid.to_dict()) == grid

    def test_array_sweep_runs_and_records_backend(self, tmp_path):
        grid = GridSpec(
            ns=(8, 12),
            protocols=("cai_izumi_wada", "pairwise_elimination"),
            trials=2,
            seed=5,
            max_interactions=200_000,
            check_interval=50,
            backend="array",
        )
        path = tmp_path / "array-sweep.jsonl"
        result = run_sweep(grid, jsonl_path=path)
        assert all(outcome.backend == "array" for outcome in result.outcomes)
        assert all(outcome.converged for outcome in result.outcomes)
        # The checkpoint resumes cleanly under the same backend.
        resumed = run_sweep(grid, jsonl_path=path, resume=True)
        assert resumed.resumed_trials == len(result.outcomes)
