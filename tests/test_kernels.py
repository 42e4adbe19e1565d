"""The compiled lockstep kernels (``backend='batch-jit'``).

Contracts gated here:

* **loud failure, explicit escape hatch** — without numba the backend
  raises :class:`~repro.sim.kernels.JitBackendError` with the
  ``[jit]``-extra install hint at construction; only the explicit
  ``REPRO_JIT_PURE_PYTHON=1`` opt-in runs the kernel source uncompiled
  (the shared ``pure_ok`` fixture, so this whole suite passes on the
  numba-free CI matrix — slowly — and compiled on the ``jit`` job);
* **the counter-based stream** — per-row draws are a pure function of
  ``(key, counter)``, land in ``[0, 1)``, and distinct keys give
  distinct streams;
* **the scalar hypergeometric is law-exact** — support bounds are hard,
  the Monte-Carlo mean tracks the closed form over hypothesis-drawn
  parameters, a fixed-seed sample passes a two-sample KS test against
  ``numpy``'s sampler, and degenerate supports consume no randomness
  (the conditional-chain decomposition inherits the law);
* **the jump step is law-exact** — :func:`~repro.sim.kernels._k_jump`
  leaves rows that expect a change per run and rows with no effectful
  pair without a draw, waits a geometric number of interactions, picks
  each effectful pair in proportion to its weight (the diagonal's
  ``c_a·(c_a - 1)`` included), and ``batch-jit`` rows that only jump
  follow the closed-form law;
* **engine equivalence** — ``batch-jit`` vs ``batch`` agrees in law
  (KS over completion interactions), ``T = 1`` is bit-for-bit the
  counts engine, an instrumented engine (the fused kernel timed whole,
  under ``apply``) is bit-identical to a plain one, silent rows retire
  before any kernel call, and fault burst schedules are bit-identical to
  the per-trial :class:`~repro.sim.fault_engine.FaultEngine`;
* **row-vectorized predicates** — the batch engines answer convergence
  through ``on_counts_rows`` (never the scalar form when the vector
  form is present), and every protocol's ``goal_counts_rows`` override
  agrees with its per-row ``goal_counts``;
* **the poisoned-RNG gate holds** — ``repro lint`` over
  ``repro.sim.kernels`` is clean (no generator construction sneaks into
  the kernel module).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.stats import ks_statistic, ks_threshold  # noqa: E402
from repro.baselines.cai_izumi_wada import CaiIzumiWada  # noqa: E402
from repro.baselines.nonss_leader import PairwiseElimination  # noqa: E402
from repro.core.params import BaselineParams, ProtocolParams  # noqa: E402
from repro.core.protocol import PopulationProtocol  # noqa: E402
from repro.lint import run_lint  # noqa: E402
from repro.scheduler.rng import derive_seed, np_generator  # noqa: E402
from repro.sim import kernels  # noqa: E402
from repro.sim.backends import make_simulation  # noqa: E402
from repro.sim.batch_backend import BatchCountsEngine  # noqa: E402
from repro.sim.counts_backend import (  # noqa: E402
    CountsBackendError,
    counts_aware,
    goal_counts_predicate,
)
from repro.sim.fault_engine import FaultSpec  # noqa: E402
from repro.sim.initial_state import CountVector, Replicated  # noqa: E402
from repro.sim.kernels import (  # noqa: E402
    PURE_PYTHON_ENV,
    JitBackendError,
    JitBatchCountsEngine,
    overflow_guard,
    require_numba,
)
from repro.sim.trials import run_trials  # noqa: E402
from repro.substrates.epidemics import (  # noqa: E402
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Law-equivalence cell — small enough for the uncompiled escape hatch.
TRIALS = 48
N = 256
KS_ALPHA = 1e-3


def _key(*parts: int):
    seed = 0
    for part in parts:
        seed = derive_seed(seed, part)
    return np.uint64(seed)


def _epidemic_batch(trials: int, n: int, *, seed: int = 7, backend: str = "batch-jit"):
    return make_simulation(
        EpidemicProtocol(),
        init=Replicated(CountVector([n - 1, 1]), trials),
        seed=seed,
        backend=backend,
    )


class TestImportGuard:
    """Missing numba fails loudly; the escape hatch is an explicit opt-in."""

    def test_require_numba_raises_the_install_hint(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numba", None)
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        with pytest.raises(
            JitBackendError,
            match=r"pip install repro-podc25-leader-election\[jit\]",
        ):
            require_numba()

    def test_engine_construction_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numba", None)
        monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        with pytest.raises(JitBackendError, match="batch-jit backend requires numba"):
            _epidemic_batch(4, 100)

    def test_escape_hatch_downgrades_to_uncompiled(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numba", None)
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        assert require_numba() is None
        engine = _epidemic_batch(4, 100)
        assert isinstance(engine, JitBatchCountsEngine)

    def test_error_hierarchy_reaches_runtime_error(self):
        # L002 constructs backends live and notes (ImportError, RuntimeError)
        # as capability gaps; JitBackendError must land on that path.
        assert issubclass(JitBackendError, CountsBackendError)
        assert issubclass(JitBackendError, RuntimeError)


class TestCounterStream:
    """splitmix64 draws are a pure function of ``(key, counter)``."""

    def test_draws_are_deterministic_and_advance_the_counter(self):
        key = _key(7, 3)
        with overflow_guard():
            u1, c1 = kernels._k_next(key, np.uint64(0))
            u2, c2 = kernels._k_next(key, np.uint64(0))
        assert float(u1) == float(u2)
        assert int(c1) == int(c2) == 1

    def test_draws_fill_the_unit_interval(self):
        key = _key(11, 5)
        ctr = np.uint64(0)
        draws = []
        with overflow_guard():
            for _ in range(512):
                u, ctr = kernels._k_next(key, ctr)
                draws.append(float(u))
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == len(draws)
        assert 0.40 < statistics.fmean(draws) < 0.60

    def test_distinct_keys_give_distinct_streams(self):
        with overflow_guard():
            a, _ = kernels._k_next(_key(1, 0), np.uint64(0))
            b, _ = kernels._k_next(_key(1, 1), np.uint64(0))
        assert float(a) != float(b)

    def test_randint_covers_the_range(self):
        key = _key(13, 2)
        ctr = np.uint64(0)
        seen = set()
        with overflow_guard():
            for _ in range(256):
                x, ctr = kernels._k_randint(key, ctr, 5)
                seen.add(int(x))
        assert seen == {0, 1, 2, 3, 4}


def _draw_hyper(key, ngood: int, nbad: int, nsample: int, count: int) -> list[int]:
    ctr = np.uint64(0)
    out = []
    with overflow_guard():
        for _ in range(count):
            x, ctr = kernels._k_hypergeometric(key, ctr, ngood, nbad, nsample)
            out.append(int(x))
    return out


class TestHypergeometricKernel:
    """The mode-centered inversion samples the exact hypergeometric law."""

    @settings(max_examples=30, deadline=None)
    @given(
        ngood=st.integers(0, 60),
        nbad=st.integers(0, 60),
        frac=st.floats(0.0, 1.0),
    )
    def test_support_and_mean_match_the_law(self, ngood, nbad, frac):
        total = ngood + nbad
        nsample = min(total, int(frac * total))
        draws = _draw_hyper(_key(ngood, nbad, nsample), ngood, nbad, nsample, 256)
        lo = max(0, nsample - nbad)
        hi = min(ngood, nsample)
        assert all(lo <= x <= hi for x in draws)
        if total == 0 or nsample == 0:
            assert set(draws) == {0}
            return
        mean = nsample * ngood / total
        variance = 0.0
        if total > 1:
            variance = (
                nsample * (ngood / total) * (nbad / total) * (total - nsample) / (total - 1)
            )
        tolerance = max(6.0 * math.sqrt(variance / len(draws)), 1e-9)
        assert abs(statistics.fmean(draws) - mean) <= tolerance

    def test_degenerate_support_consumes_no_randomness(self):
        # ngood=4, nbad=0, nsample=3 pins the draw to 3; ctr must not move.
        with overflow_guard():
            x, ctr = kernels._k_hypergeometric(_key(1, 2), np.uint64(5), 4, 0, 3)
        assert int(x) == 3
        assert int(ctr) == 5

    def test_fixed_seed_ks_against_numpy(self):
        ngood, nbad, nsample = 40, 90, 35
        size = 1500
        draws = _draw_hyper(_key(ngood, nbad, nsample), ngood, nbad, nsample, size)
        reference = np_generator(derive_seed(24, 1)).hypergeometric(
            ngood, nbad, nsample, size=size
        )
        stat = ks_statistic(draws, reference)
        assert stat <= ks_threshold(size, size, KS_ALPHA), stat


class TestSampleChainLaw:
    """The conditional chain matches numpy's multivariate hypergeometric."""

    def test_composition_is_a_valid_subsample(self):
        pool = np.asarray([50, 30, 15, 5], dtype=np.int64)
        nsample = 40
        key = _key(9, 1)
        ctr = np.uint64(0)
        out = np.empty(4, dtype=np.int64)
        with overflow_guard():
            for _ in range(64):
                ctr = kernels._k_sample_chain(key, ctr, pool, nsample, out)
                assert int(out.sum()) == nsample
                assert bool((out >= 0).all()) and bool((out <= pool).all())

    def test_marginals_match_numpy(self):
        pool = np.asarray([50, 30, 15, 5], dtype=np.int64)
        nsample = 40
        trials = 600
        key = _key(9, 2)
        ctr = np.uint64(0)
        out = np.empty(4, dtype=np.int64)
        sums = np.zeros(4)
        first = []
        with overflow_guard():
            for _ in range(trials):
                ctr = kernels._k_sample_chain(key, ctr, pool, nsample, out)
                sums += out
                first.append(int(out[0]))
        total = int(pool.sum())
        for code in range(4):
            mean = nsample * pool[code] / total
            variance = (
                nsample
                * (pool[code] / total)
                * (1 - pool[code] / total)
                * (total - nsample)
                / (total - 1)
            )
            tolerance = 6.0 * math.sqrt(variance / trials)
            assert abs(sums[code] / trials - mean) <= tolerance, code
        reference = np_generator(derive_seed(24, 2)).multivariate_hypergeometric(
            pool.tolist(), nsample, size=trials
        )
        stat = ks_statistic(first, reference[:, 0])
        assert stat <= ks_threshold(trials, trials, KS_ALPHA), stat


class TestJumpKernel:
    """The kernel's jump step, the scalar twin of the numpy engine's."""

    def _args(self, protocol, counts):
        # The numpy engine's effectful-pair lists, fed to the kernel as the
        # batch-jit engine feeds them.
        engine = BatchCountsEngine(protocol, init=Replicated(CountVector(counts), 2))
        initiators, responders, _, _, mean_run = engine._jump_pairs
        return (
            initiators, responders, np.empty(initiators.size, dtype=np.int64),
            mean_run, engine.n,
            np.ascontiguousarray(engine.table.u_out, dtype=np.int64),
            np.ascontiguousarray(engine.table.v_out, dtype=np.int64),
        )

    def _jumps(self, protocol, counts, budget, draws, key):
        args = self._args(protocol, counts)
        ctr = np.uint64(0)
        outcomes = []
        with overflow_guard():
            for _ in range(draws):
                row = np.asarray(counts, dtype=np.int64)
                jumped, left, ctr = kernels._k_jump(row, *args, key, ctr, budget)
                assert jumped
                outcomes.append((budget - int(left), tuple(row.tolist())))
        return outcomes

    def test_rows_expecting_a_change_per_run_take_a_run_step(self, pure_ok):
        # Two-way epidemic at n = 256, half infected: W·E[L] ≈ 5·n(n-1).
        row = np.asarray([128, 128], dtype=np.int64)
        ctr = np.uint64(5)
        with overflow_guard():
            jumped, left, after = kernels._k_jump(
                row, *self._args(EpidemicProtocol(), row), _key(30, 1), ctr, 1_000
            )
        assert (jumped, int(left), after) == (False, 1_000, ctr)
        assert row.tolist() == [128, 128]

    def test_rows_with_no_effectful_pair_end_the_slice_without_draws(self, pure_ok):
        row = np.asarray([0, 256], dtype=np.int64)
        ctr = np.uint64(5)
        with overflow_guard():
            jumped, left, after = kernels._k_jump(
                row, *self._args(EpidemicProtocol(), row), _key(30, 2), ctr, 1_000
            )
        assert (jumped, int(left), after) == (True, 0, ctr)
        assert row.tolist() == [0, 256]

    def test_wait_and_pick_follow_the_law(self, pure_ok):
        # Cai-Izumi-Wada over three ranks changes the counts only when two
        # agents of one rank meet: from [3, 2, 0] (n = 5) the weights are
        # 3·2 = 6 and 2·1 = 2 of n(n-1) = 20 ordered pairs, so the wait is
        # Geometric(0.4) and rank 0 is picked with probability 3/4.
        draws = 4_000
        outcomes = self._jumps(
            CaiIzumiWada(BaselineParams(n=3)), [3, 2, 0], 10**9, draws, _key(30, 3)
        )
        waits = [wait for wait, _ in outcomes]
        assert min(waits) >= 1
        sd = math.sqrt(0.6 / 0.4**2 / draws)
        assert abs(statistics.fmean(waits) - 2.5) <= 6 * sd
        picks = Counter(row for _, row in outcomes)
        assert set(picks) == {(2, 3, 0), (3, 1, 1)}
        share = picks[(2, 3, 0)] / draws
        assert abs(share - 0.75) <= 6 * math.sqrt(0.75 * 0.25 / draws), share

    def test_a_wait_past_the_budget_ends_the_slice_unchanged(self, pure_ok):
        # Pairwise elimination from [3 followers, 2 leaders]: only the two
        # leaders meeting changes the counts, with probability 2/20 per
        # interaction, so a budget of 1 jumps unchanged 9 times in 10.
        draws = 4_000
        outcomes = self._jumps(PairwiseElimination(5), [3, 2], 1, draws, _key(30, 4))
        unchanged = sum(row == (3, 2) for _, row in outcomes) / draws
        assert all(wait == 1 for wait, _ in outcomes)
        assert abs(unchanged - 0.9) <= 6 * math.sqrt(0.9 * 0.1 / draws), unchanged

    @pytest.mark.parametrize(
        "protocol, start, p",
        [
            # Only two leaders meeting changes the counts: 2 of 20 pairs.
            pytest.param(PairwiseElimination(5), [3, 2], 0.1, id="pairwise-n5"),
            # Only an infected initiator meeting a susceptible responder
            # does: 3 of 12 pairs, so swapped roles would never move a row.
            pytest.param(OneWayEpidemicProtocol(), [3, 1], 0.25, id="one-way-n4"),
        ],
    )
    def test_batch_jit_jump_rows_follow_the_closed_form(self, pure_ok, protocol, start, p):
        # Through the engine every step jumps, and a row is still at its
        # start after three interactions with probability (1 - p)³.
        rows = 2_000
        engine = make_simulation(
            protocol, init=Replicated(CountVector(start), rows), seed=11, backend="batch-jit"
        )
        assert engine._matching and engine._lockstep(rows)
        engine._drive_rows(3, 3, lambda idx, positions: np.ones(idx.size, bool))
        stayed = float((engine.counts == start).all(axis=1).mean())
        expected = (1 - p) ** 3
        assert abs(stayed - expected) <= 6 * math.sqrt(expected * (1 - expected) / rows), stayed


class TestEngineEquivalence:
    """``batch-jit`` agrees with ``batch`` in law and with itself in bits."""

    def _cell(self, backend: str):
        protocol = EpidemicProtocol()
        return run_trials(
            protocol,
            goal_counts_predicate(protocol),
            n=N,
            trials=TRIALS,
            max_interactions=30 * N,
            seed=7,
            check_interval=N // 4,
            init=CountVector([N - 1, 1]),
            workers=1,
            backend=backend,
        )

    def test_law_equivalence_with_the_numpy_batch_engine(self, pure_ok):
        batch = self._cell("batch")
        jit = self._cell("batch-jit")
        assert batch.converged == TRIALS
        assert jit.converged == TRIALS
        stat = ks_statistic(batch.interactions, jit.interactions)
        assert stat <= ks_threshold(TRIALS, TRIALS, KS_ALPHA), stat

    def test_single_trial_is_bit_for_bit_the_counts_engine(self, pure_ok):
        protocol = EpidemicProtocol()
        outcomes = {
            backend: run_trials(
                protocol,
                goal_counts_predicate(protocol),
                n=N,
                trials=1,
                max_interactions=30 * N,
                seed=7,
                check_interval=N // 4,
                init=CountVector([N - 1, 1]),
                workers=1,
                backend=backend,
            )
            for backend in ("counts", "batch-jit")
        }
        assert outcomes["batch-jit"].interactions == outcomes["counts"].interactions
        assert outcomes["batch-jit"].converged == outcomes["counts"].converged

    def test_instrumented_stepper_is_bit_identical_to_fused(self, pure_ok):
        predicate = goal_counts_predicate(EpidemicProtocol())
        plain = _epidemic_batch(12, 200)
        timed = _epidemic_batch(12, 200)
        timings = timed.instrument_steps()
        plain.run_rows_until(predicate, max_interactions=30 * 200, check_interval=50)
        timed.run_rows_until(predicate, max_interactions=30 * 200, check_interval=50)
        assert bool((plain.counts == timed.counts).all())
        assert bool((plain._counters == timed._counters).all())
        assert set(timings) == set(BatchCountsEngine.STEP_PHASES)
        assert timings["apply"] > 0.0  # the fused kernel is timed whole

    def test_silent_rows_retire_before_any_kernel_call(self, pure_ok, monkeypatch):
        # The numpy engine's silence verdicts retire rows 0 and 1 (one
        # state each) before the first advance; only rows 2 and 3 ever
        # reach the fused kernel.
        engine = _epidemic_batch(4, 50, seed=3)
        engine._matrix[:] = np.asarray(
            [[50, 0], [0, 50], [25, 25], [49, 1]], dtype=np.int64
        )
        stepped = []
        run_rows = kernels._k_run_rows

        def recorded(counts, rows, *args):
            stepped.append(rows.tolist())
            run_rows(counts, rows, *args)

        monkeypatch.setattr(kernels, "_k_run_rows", recorded)
        never = counts_aware(lambda config: False, lambda counts: False)
        outcomes = engine.run_rows_until(never, max_interactions=400, check_interval=100)
        assert stepped and all(set(rows) <= {2, 3} for rows in stepped)
        assert [(row.converged, row.interactions) for row in outcomes[:2]] == [(False, 400)] * 2
        assert engine.counts[:2].tolist() == [[50, 0], [0, 50]]
        assert engine._counters[:2].tolist() == [0, 0]

    def test_fault_schedules_match_the_per_trial_engine(self, pure_ok):
        n = 200
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        spec = FaultSpec(model="scramble_burst", rate=2.0, burst_size=3, seed=22)
        engine = _epidemic_batch(2, n, seed=9)
        engine.measure_rows_availability(
            predicate,
            total_interactions=4 * n,
            checkpoint_every=n,
            faults=[spec, spec],
        )
        twin = spec.make_engine(protocol, n=n)
        twin_sim = make_simulation(
            protocol, init=CountVector([n - 1, 1]), backend="counts", seed=9
        )
        twin.measure_availability(
            twin_sim, predicate, total_interactions=4 * n, checkpoint_every=n
        )
        expected = [event.interaction for event in twin.events]
        for row in (0, 1):
            assert [event.interaction for event in engine.fault_events(row)] == expected


def _predicate_protocols():
    from repro.baselines.cai_izumi_wada import CaiIzumiWada
    from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
    from repro.baselines.nonss_leader import PairwiseElimination
    from repro.core.propagate_reset import ResetEpidemicProtocol

    return [
        EpidemicProtocol(),
        PairwiseElimination(32),
        LooselyStabilizingLeaderElection(BaselineParams(n=32)),
        CaiIzumiWada(BaselineParams(n=8)),
        ResetEpidemicProtocol(ProtocolParams(n=32, r=2)),
    ]


class TestRowPredicates:
    """``on_counts_rows`` answers whole live sets in one array op."""

    def test_vectorized_form_is_preferred_over_the_scalar_form(self):
        protocol = EpidemicProtocol()
        calls = {"rows": 0, "scalar": 0}

        def on_counts(row):
            calls["scalar"] += 1
            return protocol.goal_counts(row)

        def on_counts_rows(sub):
            calls["rows"] += 1
            return protocol.goal_counts_rows(sub)

        predicate = counts_aware(
            protocol.is_goal_configuration, on_counts, on_counts_rows
        )
        engine = _epidemic_batch(6, 100, seed=5, backend="batch")
        engine.run_rows_until(predicate, max_interactions=3000, check_interval=100)
        assert calls["rows"] > 0
        assert calls["scalar"] == 0

    def test_goal_counts_predicate_carries_the_rows_form(self):
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        assert predicate.on_counts_rows is not None
        rows = np.asarray([[0, 5], [3, 2]], dtype=np.int64)
        assert [bool(v) for v in predicate.on_counts_rows(rows)] == [True, False]

    def test_base_default_is_the_per_row_loop(self):
        protocol = EpidemicProtocol()
        rows = np.asarray([[0, 5], [3, 2]], dtype=np.int64)
        assert PopulationProtocol.goal_counts_rows(protocol, rows) == [True, False]

    @pytest.mark.parametrize(
        "protocol", _predicate_protocols(), ids=lambda p: type(p).__name__
    )
    def test_overrides_agree_with_the_scalar_form(self, protocol):
        size = protocol.num_states()
        rng = np_generator(derive_seed(17, size))
        blocks = [
            rng.integers(0, 5, size=(8, size)),
            rng.integers(0, 2, size=(8, size)),
            np.zeros((1, size), dtype=np.int64),
            np.eye(size, dtype=np.int64)[[0, size - 1]],
        ]
        rows = np.concatenate(blocks).astype(np.int64)
        vectorized = [bool(v) for v in np.asarray(protocol.goal_counts_rows(rows)).reshape(-1)]
        scalar = [bool(protocol.goal_counts(row)) for row in rows]
        assert vectorized == scalar


class TestPoisonedRngGate:
    def test_kernels_module_passes_repro_lint(self):
        target = REPO_ROOT / "src" / "repro" / "sim" / "kernels.py"
        report = run_lint([str(target)], base=REPO_ROOT)
        assert report.clean, report.findings
