"""The counts backend's equivalence gate.

Contracts gated here, mirroring the array backend's suite one level up
the abstraction ladder (counts instead of per-agent codes):

* **codecs** — configurations, code arrays and count vectors round-trip,
  and expansion shares one decoded object per occupied code;
* **one silence rule** — a row is silent exactly when no ordered pair of
  two distinct agents changes its counts (a brute-force oracle over
  random count vectors, on the mask path and the per-row weight path), so
  rows whose only transitions are swaps retire and freeze without a draw;
* **sampler law** — collision-run lengths stay in ``[1, n//2]`` with a
  monotone survival curve, and the block draw's guide table gives the
  lengths a search of that curve gives, from the same uniforms and the
  same stream; the stretch after ``U`` used agents follows
  its product formula for every ``U`` at ``n = 6–12``, and the table
  holds every stretch's tail up to ``max_used``; conservation and
  protocol invariants (epidemic monotonicity, pairwise-elimination
  leader floors) hold along batched runs; the batched sampler and the
  pair-at-a-time oracle agree on verdicts, at ``n = 400`` it passes a
  two-sample KS test against the object engine, and degenerate
  populations (``n = 2``, every interaction a collision) agree exactly
  across all engines;
* **exact small-``n`` law** — the per-row sampler's counts after two to
  four interactions at ``n = 4–6`` match the law enumerated over every
  ordered agent-pair sequence (chi-square), jump steps, collision
  categories, initiator/responder roles and batches that reach a second
  collision after a non-empty stretch included, and so do the lockstep
  sampler's jump steps and its colliding pair, whose decode from its
  draw matches the walk over each pool code by code for every draw at
  small sizes; rows with nothing left to change draw nothing on either
  sampler;
* **result snapshots** — ``run_until`` never expands a configuration
  nobody reads, and a late read still sees the configuration at return;
* **three-way distribution equivalence** — object, array and counts
  backends reach the same convergence verdicts with overlapping
  bootstrap CIs for median stabilization interactions;
* **vectorized adversaries** — the code/count initializer twins share one
  law, and one seed gives every backend the same adversarial start.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from pair_oracle import PairOracle  # noqa: E402
from repro.adversary.initializers import (  # noqa: E402
    code_rng,
    planted_codes,
    planted_counts,
    scrambled_codes,
    scrambled_counts,
)
from repro.analysis.stats import bootstrap_ci, ks_statistic, ks_threshold  # noqa: E402
from repro.baselines.cai_izumi_wada import CaiIzumiWada  # noqa: E402
from repro.baselines.loosely_stabilizing import (  # noqa: E402
    LooselyStabilizingLeaderElection,
)
from repro.baselines.nonss_leader import PairwiseElimination  # noqa: E402
from repro.core.elect_leader import ElectLeader  # noqa: E402
from repro.core.params import BaselineParams, ProtocolParams  # noqa: E402
from repro.core.propagate_reset import ResetEpidemicProtocol  # noqa: E402
from repro.core.protocol import PopulationProtocol  # noqa: E402
from repro.scheduler.rng import make_rng, np_generator  # noqa: E402
from repro.scheduler.scheduler import CollisionRunSampler  # noqa: E402
from repro.sim.array_backend import (  # noqa: E402
    ArrayBackendError,
    transition_table_for,
)
from repro.sim.backends import make_simulation  # noqa: E402
from repro.sim.counts_backend import (  # noqa: E402
    MAX_SILENCE_STATES,
    CountsBackendError,
    CountsSimulation,
    configuration_from_counts,
    counts_aware,
    counts_from_codes,
    counts_from_configuration,
    goal_counts_predicate,
)
from repro.sim.initial_state import (  # noqa: E402
    CodeArray,
    CountVector,
    ObjectConfig,
    Replicated,
)
from repro.sim.trials import run_trials  # noqa: E402
from repro.substrates.epidemics import (  # noqa: E402
    EpidemicProtocol,
    OneWayEpidemicProtocol,
)

N = 12


def _epidemic_codes(n: int, sources: int) -> list[int]:
    return [1] * sources + [0] * (n - sources)


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


class TestCodecs:
    def test_configuration_round_trip(self):
        protocol = CaiIzumiWada(BaselineParams(n=N))
        config = protocol.adversarial_configuration(make_rng(3))
        counts = counts_from_configuration(protocol, config)
        assert int(counts.sum()) == N
        expanded = configuration_from_counts(protocol, counts)
        assert sorted(protocol.encode_state(s) for s in expanded) == sorted(
            protocol.encode_state(s) for s in config
        )

    def test_codes_round_trip_and_validation(self):
        protocol = PairwiseElimination(6)
        assert counts_from_codes(protocol, [1, 0, 1, 1, 0, 0]).tolist() == [3, 3]
        with pytest.raises(CountsBackendError, match="outside range"):
            counts_from_codes(protocol, [0, 2])

    def test_expansion_shares_objects_per_code(self):
        protocol = PairwiseElimination(6)
        expanded = configuration_from_counts(protocol, np.array([4, 2]))
        followers = [s for s in expanded if not s.leader]
        assert len(followers) == 4
        assert all(s is followers[0] for s in followers)  # read-only sharing


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_clean_start_is_n_copies_of_initial(self):
        protocol = PairwiseElimination(10)
        sim = CountsSimulation(protocol, n=10)
        assert sim.counts.tolist() == [[0, 10]]  # everyone a potential leader
        assert sim.n == 10

    def test_config_codes_counts_agree(self):
        protocol = EpidemicProtocol()
        codes = _epidemic_codes(8, 3)
        by_codes = CountsSimulation(protocol, init=CodeArray(codes))
        by_config = CountsSimulation(
            protocol, init=ObjectConfig([protocol.decode_state(c) for c in codes])
        )
        by_counts = CountsSimulation(protocol, init=CountVector([5, 3]))
        assert (
            by_codes.counts.tolist()
            == by_config.counts.tolist()
            == by_counts.counts.tolist()
            == [[5, 3]]
        )

    def test_input_validation(self):
        protocol = EpidemicProtocol()
        with pytest.raises(TypeError, match="codes"):
            CountsSimulation(protocol, codes=[0, 1])
        with pytest.raises(ValueError, match="population size n"):
            CountsSimulation(protocol)
        with pytest.raises(ValueError, match="at least two"):
            CountsSimulation(protocol, n=1)
        with pytest.raises(ValueError, match="disagrees"):
            CountsSimulation(protocol, init=CountVector([1, 1]), n=3)
        with pytest.raises(CountsBackendError, match="shape"):
            CountsSimulation(protocol, init=CountVector([1, 1, 1]))
        with pytest.raises(CountsBackendError, match="non-negative"):
            CountsSimulation(protocol, init=CountVector([-1, 3]))
        # The pair-at-a-time oracle lives with the tests, not behind an option.
        with pytest.raises(TypeError, match="batching"):
            CountsSimulation(protocol, n=8, batching="pair")

    def test_elect_leader_rejected_loudly(self):
        protocol = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(CountsBackendError, match="no finite state encoding"):
            CountsSimulation(protocol, n=16)
        # The established "no finite encoding" signal catches it too.
        with pytest.raises(ArrayBackendError):
            CountsSimulation(protocol, n=16)


# ---------------------------------------------------------------------------
# Collision-run sampler
# ---------------------------------------------------------------------------


class TestCollisionRunSampler:
    def test_survival_curve_monotone_from_one(self):
        sampler = CollisionRunSampler(64, np.random.Generator(np.random.PCG64(0)))
        survival = sampler.survival
        assert survival[0] == pytest.approx(1.0)  # one interaction never collides
        assert all(a >= b for a, b in zip(survival, survival[1:]))

    @pytest.mark.parametrize("n", [2, 3, 16, 10_000])
    def test_lengths_in_range(self, n):
        sampler = CollisionRunSampler(n, np.random.Generator(np.random.PCG64(7)))
        lengths = [sampler.next_run_length() for _ in range(200)]
        assert all(1 <= length <= n // 2 for length in lengths)
        if n == 2:
            assert set(lengths) == {1}  # both agents used after one pair

    def test_birthday_scale(self):
        # E[run] is Θ(√n): at n=10⁴ the mean sits near √(πn/8) ≈ 63.
        sampler = CollisionRunSampler(10_000, np.random.Generator(np.random.PCG64(1)))
        mean = sum(sampler.next_run_length() for _ in range(500)) / 500
        assert 30 < mean < 130

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError, match="at least two"):
            CollisionRunSampler(1, np.random.Generator(np.random.PCG64(0)))

    @pytest.mark.parametrize("n", [2, 3, 16, 2_000, 10_000, 10**6])
    def test_guide_table_gives_the_searched_lengths(self, n):
        # The block draw reads lengths off a guide table; a search of the
        # survival curve is the reference.  Uniforms at every survival
        # value, every bucket edge and a random spread, each also one ulp
        # to either side.
        sampler = CollisionRunSampler(n, np.random.Generator(np.random.PCG64(0)))
        survival = sampler.survival
        edges = np.arange(CollisionRunSampler.GUIDE + 1) / CollisionRunSampler.GUIDE
        spread = np.random.Generator(np.random.PCG64(n)).random(100_000)
        points = np.concatenate((survival, edges, spread))
        uniforms = np.concatenate((points, np.nextafter(points, 2.0), np.nextafter(points, -1.0)))
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        searched = np.maximum((-survival).searchsorted(-uniforms, side="right"), 1)
        assert (sampler._run_lengths(uniforms) == searched).all()

    @pytest.mark.parametrize("n", [3, 2_000, 10**6])
    def test_block_draw_consumes_the_stream_as_scalar_draws(self, n):
        scalar = CollisionRunSampler(n, np.random.Generator(np.random.PCG64(5)))
        block = CollisionRunSampler(n, np.random.Generator(np.random.PCG64(5)))
        lengths = [scalar.next_run_length() for _ in range(5_000)]
        assert block.next_run_lengths(5_000).tolist() == lengths
        assert block._generator.bit_generator.state == scalar._generator.bit_generator.state

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_stretch_law_matches_the_product_formula(self, n):
        # Every U from none used to all used, odd and even, in one call
        # that reads both chains; U = 0 is the run law, which
        # next_run_length draws too.
        generator = np.random.Generator(np.random.PCG64(n))
        sampler = CollisionRunSampler(n, generator)
        assert sampler.max_used >= n  # the chains reach exhaustion
        draws = 4_000
        every_used = np.arange(n + 1).repeat(draws)
        exponentials = generator.standard_exponential(every_used.size)
        drawn = sampler.stretch_lengths(every_used, exponentials).reshape(n + 1, draws)
        for used in range(n + 1):
            lengths = Counter(drawn[used].tolist())
            assert min(lengths) >= 0 and max(lengths) <= (n - used) // 2, (used, lengths)
            if used >= n - 1:
                assert set(lengths) == {0}
            law = _stretch_law(n, used)
            assert set(lengths) <= set(law)
            assert _chi2_pvalue(lengths, law, draws) >= CHI2_ALPHA, (used, lengths)
        runs = Counter(sampler.next_run_length() for _ in range(draws))
        assert _chi2_pvalue(runs, _stretch_law(n, 0), draws) >= CHI2_ALPHA

    @pytest.mark.parametrize("n", [2_000, 10**6])
    def test_table_holds_every_stretch_tail_up_to_max_used(self, n):
        # Where the chains stop short of exhaustion, a stretch law is whole
        # (its tail past the table below 1e-30) up to max_used, both
        # parities, and not two agents further.
        sampler = CollisionRunSampler(n, np.random.Generator(np.random.PCG64(0)))

        def tail(used):
            chain = sampler._chains[used & 1]
            return math.exp(chain[used >> 1] - chain[-1])

        assert len(sampler._chains[0]) < n // 2
        assert tail(sampler.max_used - 1) <= CollisionRunSampler.TAIL
        assert tail(sampler.max_used) <= CollisionRunSampler.TAIL
        assert tail(sampler.max_used + 2) > CollisionRunSampler.TAIL


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------


class TestCountsSimulation:
    @pytest.mark.parametrize("engine", [CountsSimulation, PairOracle], ids=["run", "pair"])
    def test_conservation_and_accounting(self, engine):
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=32), tau=1.0)
        sim = engine(protocol, n=32, seed=9)
        for burst in (1, 7, 250, 1000):
            sim.run_batch(burst)
            assert int(sim.counts.sum()) == 32
            assert int(sim.counts.min()) >= 0
        assert sim.metrics.interactions == 1258
        assert sim.metrics.parallel_time == pytest.approx(1258 / 32)

    def test_deterministic_given_seed(self):
        protocol = EpidemicProtocol()
        runs = []
        for _ in range(2):
            sim = CountsSimulation(protocol, init=CodeArray(_epidemic_codes(64, 1)), seed=11)
            sim.run_batch(120)  # mid-epidemic: infection still spreading
            runs.append(sim.counts.tolist())
        assert runs[0] == runs[1]
        other = CountsSimulation(protocol, init=CodeArray(_epidemic_codes(64, 1)), seed=12)
        other.run_batch(120)
        # Not a hard law, but astronomically unlikely to coincide exactly
        # mid-epidemic; catches an ignored seed.
        assert other.counts.tolist() != runs[0]

    def test_epidemic_monotone_under_batching(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CodeArray(_epidemic_codes(100, 1)), seed=3)
        marked = 1
        while int(sim.counts[0, 1]) < 100:
            sim.run_batch(50)
            now = int(sim.counts[0, 1])
            assert now >= marked  # infection never recedes
            marked = now

    def test_pairwise_leader_floor(self):
        protocol = PairwiseElimination(64)
        sim = CountsSimulation(protocol, n=64, seed=5)
        for _ in range(40):
            sim.run_batch(100)
            assert int(sim.counts[0, 1]) >= 1  # elimination keeps one leader

    def test_run_until_checks_on_counts(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CodeArray(_epidemic_codes(32, 1)), seed=2)
        seen = []

        def on_counts(counts):
            seen.append(int(counts[1]))
            return int(counts[0]) == 0

        predicate = counts_aware(protocol.is_goal_configuration, on_counts)
        result = sim.run_until(predicate, max_interactions=100_000, check_interval=64)
        assert result.converged
        assert seen and seen[-1] == 32
        assert result.interactions % 64 == 0  # check-interval discipline

    def test_run_until_plain_predicate_falls_back(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CodeArray(_epidemic_codes(16, 1)), seed=2)
        result = sim.run_until(
            protocol.is_goal_configuration, max_interactions=50_000, check_interval=32
        )
        assert result.converged
        assert protocol.is_goal_configuration(result.config)

    def test_converged_start_returns_before_stepping(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CountVector([0, 8]), seed=0)
        result = sim.run_until(
            goal_counts_predicate(protocol), max_interactions=1_000, check_interval=10
        )
        assert result.converged and result.interactions == 0

    def test_budget_exhaustion_reports_failure(self):
        protocol = PairwiseElimination(32)
        sim = CountsSimulation(protocol, n=32, seed=0)
        result = sim.run_until(
            counts_aware(lambda config: False, lambda counts: False),
            max_interactions=500,
            check_interval=100,
        )
        assert not result.converged and result.interactions == 500

    def test_goal_counts_default_expands(self):
        # The base-class fallback evaluates the config predicate on the
        # shared-object expansion — correct for any symmetric predicate.
        protocol = EpidemicProtocol()
        assert protocol.goal_counts(np.array([0, 5]))
        assert not protocol.goal_counts(np.array([1, 4]))


class _SwapToy(PopulationProtocol):
    """Three states whose only non-identity transitions are swaps,
    ``δ(a, b) = (b, a)``: every interaction leaves the counts as they are."""

    name = "swap-toy"

    def initial_state(self):
        return [0]

    def transition(self, u, v, rng):
        u[0], v[0] = v[0], u[0]

    def output(self, state):
        return state[0]

    def num_states(self):
        return 3

    def encode_state(self, state):
        return state[0]

    def decode_state(self, code):
        return [code]


def _silence_oracle(table, counts) -> bool:
    """No ordered pair of two distinct agents changes ``counts``."""
    counts = counts.tolist()
    occupied = [code for code, count in enumerate(counts) if count]
    for a, b in itertools.product(occupied, repeat=2):
        if a == b and counts[a] < 2:
            continue
        u, v = table.lookup(a, b)
        after = list(counts)
        after[a] -= 1
        after[b] -= 1
        after[u] += 1
        after[v] += 1
        if after != counts:
            return False
    return True


def _silence_cases():
    return [
        pytest.param(EpidemicProtocol(), id="epidemic"),
        pytest.param(OneWayEpidemicProtocol(), id="one-way-epidemic"),
        pytest.param(PairwiseElimination(16), id="pairwise"),
        pytest.param(CaiIzumiWada(BaselineParams(n=16)), id="ciw-S16"),
        pytest.param(
            LooselyStabilizingLeaderElection(BaselineParams(n=32), tau=1.0), id="loose-S44"
        ),
        pytest.param(ResetEpidemicProtocol(ProtocolParams(n=5, r=1)), id="reset-S41"),
        pytest.param(_SwapToy(), id="swap-toy"),
        # Past MAX_SILENCE_STATES states: the per-row weight path.
        pytest.param(CaiIzumiWada(BaselineParams(n=80)), id="ciw-S80"),
        pytest.param(LooselyStabilizingLeaderElection(BaselineParams(n=16)), id="loose-S136"),
        pytest.param(ResetEpidemicProtocol(ProtocolParams(n=16)), id="reset-S92"),
    ]


class TestSilenceDetection:
    """Counts-level silence: a row is silent when its jump weight is 0."""

    @staticmethod
    def _silent(protocol, counts) -> bool:
        engine = CountsSimulation(protocol, init=CountVector(counts), seed=0)
        return bool(engine._silent_rows([0])[0])

    def test_saturated_epidemic_is_silent(self):
        protocol = EpidemicProtocol()
        assert self._silent(protocol, [0, 64])
        assert not self._silent(protocol, [1, 63])

    def test_single_occupancy_diagonal_is_exempt(self):
        # One leader + followers: the only non-inert pair (L, L) needs two
        # leaders, so the configuration is silent — exactly the converged
        # state of pairwise elimination.
        protocol = PairwiseElimination(16)
        assert self._silent(protocol, [15, 1])
        assert not self._silent(protocol, [14, 2])

    def test_ciw_permutation_is_silent_below_the_cap(self):
        protocol = CaiIzumiWada(BaselineParams(n=32))
        permutation = np.ones(32, dtype=np.int64)
        assert self._silent(protocol, permutation)
        duplicated = permutation.copy()
        duplicated[0], duplicated[1] = 2, 0
        assert not self._silent(protocol, duplicated)

    def test_cap_returns_the_safe_answer(self):
        n = MAX_SILENCE_STATES + 8
        protocol = CaiIzumiWada(BaselineParams(n=n))
        # Genuinely silent, but above the occupied-state cap the check
        # declines (False is always safe — the sampler just runs).
        assert not self._silent(protocol, np.ones(n, dtype=np.int64))

    @pytest.mark.parametrize("protocol", _silence_cases())
    def test_verdicts_match_the_brute_force_oracle(self, protocol):
        size = protocol.num_states()
        rng = np_generator(size)
        supports = [1, 1, 2, 2, 3, 4, 6, MAX_SILENCE_STATES, MAX_SILENCE_STATES + 1, size]
        clean = np.zeros(size, dtype=np.int64)
        clean[protocol.encode_state(protocol.initial_state())] = 8
        vectors = [clean]
        for occupied in [min(support, size) for support in supports] * 6:
            vector = np.zeros(size, dtype=np.int64)
            codes = rng.choice(size, occupied, replace=False)
            vector[codes] = rng.choice([1, 1, 2, 3], occupied)
            if occupied == 1:
                vector[codes] += 1  # a pair needs two agents
            vectors.append(vector)
        engine = CountsSimulation(protocol, init=CountVector(clean), seed=0)
        engine._matrix = np.stack(vectors)
        expected = [
            np.count_nonzero(vector) <= MAX_SILENCE_STATES
            and _silence_oracle(engine.table, vector)
            for vector in vectors
        ]
        silent = engine._silent_rows(list(range(len(vectors))))
        assert [bool(verdict) for verdict in silent] == expected
        # The path taken: the effectful pairs' matrix, or the per-row weights.
        assert ("_effectful_matrix" in vars(engine)) == (size <= MAX_SILENCE_STATES)

    def test_silent_batches_skip_but_count(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CountVector([0, 128]), seed=7)
        state_before = sim._generator.bit_generator.state
        sim.run_batch(100_000)
        assert sim.metrics.interactions == 100_000
        assert sim.counts.tolist() == [[0, 128]]
        # The skip consumes no randomness — the batch was proven a no-op.
        assert sim._generator.bit_generator.state == state_before

    def test_pair_oracle_never_skips(self):
        protocol = EpidemicProtocol()
        sim = PairOracle(protocol, init=CountVector([0, 16]), seed=7)
        state_before = sim._generator.bit_generator.state
        sim.run_batch(10)
        assert sim._generator.bit_generator.state != state_before
        assert sim.counts.tolist() == [[0, 16]]


class TestSwapOnlyRowsAreSilent:
    """A swap leaves the counts as they are, so rows whose only
    transitions are swaps are silent.  Three states at n = 16 give
    ``S(S-1) = 6 > √n``, so two rows run per row; retirement and freezing
    stop them sampling before any advance could weigh them."""

    @staticmethod
    def _engine():
        engine = CountsSimulation(
            _SwapToy(), init=Replicated(CountVector([6, 5, 5]), 2), seed=4
        )
        assert not engine._lockstep(2)
        return engine

    def test_run_rows_until_retires_them_before_any_draw(self):
        engine = self._engine()
        before = engine._generator.bit_generator.state
        outcomes = engine.run_rows_until(NEVER, max_interactions=1_000, check_interval=100)
        assert engine._generator.bit_generator.state == before
        assert [(row.converged, row.interactions) for row in outcomes] == [(False, 1_000)] * 2

    def test_measure_rows_availability_freezes_them(self):
        engine = self._engine()
        before = engine._generator.bit_generator.state
        reports = engine.measure_rows_availability(
            NEVER, total_interactions=1_000, checkpoint_every=100
        )
        assert engine._generator.bit_generator.state == before
        assert [(report.checkpoints, report.available_checkpoints) for report in reports] \
            == [(10, 0)] * 2


class TestModesAgree:
    def test_n2_forced_collisions_exact(self):
        # With two agents every run is one interaction and every second
        # interaction is a collision: the engine, the pair oracle and both
        # other engines must land on the absorbing (L, F) configuration
        # immediately.
        protocol = PairwiseElimination(2)
        for engine in (CountsSimulation, PairOracle):
            sim = engine(protocol, n=2, seed=4)
            sim.run_batch(25)
            assert sim.counts.tolist() == [[1, 1]]
        for backend in ("object", "array"):
            sim = make_simulation(protocol, n=2, seed=4, backend=backend)
            sim.run_batch(25)
            assert counts_from_configuration(protocol, sim.config).tolist() == [1, 1]

    def test_verdicts_match_across_modes(self):
        protocol = EpidemicProtocol()
        for seed in range(4):
            outcomes = []
            for engine in (CountsSimulation, PairOracle):
                sim = engine(protocol, init=CodeArray(_epidemic_codes(40, 2)), seed=seed)
                result = sim.run_until(
                    goal_counts_predicate(protocol),
                    max_interactions=20_000,
                    check_interval=40,
                )
                outcomes.append(result.converged)
            assert outcomes[0] == outcomes[1] is True

    def test_batches_match_the_object_engine_at_moderate_n(self):
        # The one-way epidemic at n = 400 from 40 marked agents, 1,200
        # interactions: about 30 batches a draw, each through up to eight
        # collisions with stretches of about a dozen interactions between
        # them.  Statistic: the number marked, against the object engine,
        # which draws its pairs one at a time (the pair oracle would take
        # ~30 s here).
        protocol, start, budget, draws = OneWayEpidemicProtocol(), [360, 40], 1_200, 1_500
        engine = CountsSimulation(protocol, init=CountVector(start), seed=9)
        row = engine.counts[0]
        batched = []
        for _ in range(draws):
            row[:] = start
            engine.run_batch(budget)
            batched.append(int(row[1]))
        paired = []
        for seed in range(draws):
            sim = make_simulation(protocol, init=CountVector(start), seed=seed, backend="object")
            sim.run_batch(budget)
            paired.append(int(counts_from_configuration(protocol, sim.config)[1]))
        statistic = ks_statistic(batched, paired)
        assert statistic <= ks_threshold(draws, draws, KS_ALPHA), statistic


# ---------------------------------------------------------------------------
# The per-row sampler against the enumerated agent-level law
# ---------------------------------------------------------------------------

#: Chi-square false-alarm rate of each exact-law test below (the tests use
#: fixed seeds, so a pass is reproducible; this is the rate at which a
#: correct sampler would fail under a fresh seed).
CHI2_ALPHA = 1e-3
#: Two-sample KS false-alarm rate of the moderate-``n`` law test, likewise.
KS_ALPHA = 1e-3
#: Independent short runs per law test.
LAW_DRAWS = 10_000


def _agent_level_law(protocol, start, steps):
    """The exact law of the state multiset after ``steps`` interactions.

    ``start`` holds one state code per agent.  Under the uniform scheduler
    every sequence of ``steps`` ordered pairs of distinct agents is
    equally likely, so the law is a tally over all of them, each applied
    agent by agent through the transition table.
    """
    table = transition_table_for(protocol)
    pairs = list(itertools.permutations(range(len(start)), 2))
    tally = Counter()
    for sequence in itertools.product(pairs, repeat=steps):
        agents = list(start)
        for a, b in sequence:
            agents[a], agents[b] = table.lookup(agents[a], agents[b])
        tally[tuple(sorted(agents))] += 1
    total = len(pairs) ** steps
    return {outcome: hits / total for outcome, hits in tally.items()}


def _stretch_law(n, used):
    """``P(stretch = t | U = used)`` from the product formula
    ``P(stretch >= t | U) = Π_{s<t} (n-U-2s)(n-U-2s-1) / (n(n-1))``."""
    survival = [1.0]
    while True:
        free = n - used - 2 * (len(survival) - 1)
        if free < 2:
            break
        survival.append(survival[-1] * free * (free - 1) / (n * (n - 1)))
    survival.append(0.0)
    law = {t: survival[t] - survival[t + 1] for t in range(len(survival) - 1)}
    return {t: p for t, p in law.items() if p > 0}


def _chi2_survival(statistic: float, df: int) -> float:
    """``P(χ²_df ≥ statistic)`` for integer ``df``: the upper regularized
    gamma ``Q(df/2, x/2)`` by its unit-step recurrence from ``Q(1/2)`` or
    ``Q(1)``."""
    y = statistic / 2
    if y <= 0:
        return 1.0
    s, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while s < df / 2:
        q += math.exp(s * math.log(y) - y - math.lgamma(s + 1))
        s += 1
    return q


def _chi2_pvalue(observed: Counter, law: dict, draws: int) -> float:
    """Pearson goodness of fit of ``observed`` against ``law``; the rarest
    outcomes share bins until each bin expects at least five hits."""
    bins = []
    seen = expected = 0.0
    for outcome in sorted(law, key=law.get):
        seen += observed[outcome]
        expected += law[outcome] * draws
        if expected >= 5:
            bins.append((seen, expected))
            seen = expected = 0.0
    statistic = sum((hits - mean) ** 2 / mean for hits, mean in bins)
    return _chi2_survival(statistic, len(bins) - 1)


def _jump_law_cases():
    # PairwiseElimination codes: 0 = follower, 1 = leader.
    return [
        pytest.param(OneWayEpidemicProtocol(), [1, 0, 0, 0], 3, id="one-way-n4"),
        pytest.param(OneWayEpidemicProtocol(), [1, 0, 0, 0, 0], 3, id="one-way-n5"),
        pytest.param(OneWayEpidemicProtocol(), [1, 1, 0, 0, 0, 0], 2, id="one-way-n6"),
        pytest.param(EpidemicProtocol(), [1, 0, 0, 0, 0, 0], 3, id="two-way-n6"),
        pytest.param(PairwiseElimination(5), [0, 0, 0, 1, 1], 3, id="pairwise-n5"),
    ]


def _small_law_cases():
    reset = ResetEpidemicProtocol(ProtocolParams(n=5))
    triggered = reset.encode_state(reset.triggered_state())
    # A second resetter (count 1, delay 2): within three interactions
    # resetters meet each other and awake agents, and counts reach the
    # dormant 0.
    late = 1 + (reset.params.delay_timer_max + 1) + 2
    return [
        *_jump_law_cases(),
        pytest.param(reset, [triggered, late, 0, 0, 0], 3, id="reset-n5"),
    ]


class TestExactSmallLaw:
    """A one-row engine's per-row sampler matches the agent-level law.

    Among four to six agents a collision-free run is expected to change
    fewer than one pair, so every case's first step is a jump; the one-way
    epidemic tells initiator from responder, and pairwise elimination's
    one effectful pair is diagonal.  The reset epidemic (S = 41, at most
    five codes occupied) has many states and a sparse support, and in
    about 85 % of draws one or two jumps take it to more than one
    expected change per run, so it goes on with runs that end in
    colliding interactions of every category.  Runs alone, with no
    jump steps, must match the same law: two or three interactions among
    four to six agents end in a collision most of the time, so each
    category — and which of its agents initiates, with or without an
    unused member — carries mass the chi-square test sees.
    """

    @pytest.mark.parametrize("protocol, start, steps", _small_law_cases())
    def test_per_row_sampler_matches_the_enumerated_law(
        self, protocol, start, steps, monkeypatch
    ):
        engine = CountsSimulation(protocol, init=CodeArray(start), seed=1)
        steps_jumped = []
        jump_row = engine._jump_row

        def counted(counts, remaining):
            taken = jump_row(counts, remaining)
            steps_jumped.append(taken is not None)
            return taken

        monkeypatch.setattr(engine, "_jump_row", counted)
        first_jumps = 0

        def advance(row):
            nonlocal first_jumps
            steps_jumped.clear()
            engine._run_row(row, steps)
            first_jumps += steps_jumped[0]

        self._check_law(engine, start, steps, advance)
        assert first_jumps == LAW_DRAWS, "every draw's first step is a jump"

    @pytest.mark.parametrize("protocol, start, steps", _small_law_cases())
    def test_runs_alone_match_the_enumerated_law(self, protocol, start, steps):
        engine = CountsSimulation(protocol, init=CodeArray(start), seed=1)
        self._check_law(engine, start, steps, lambda row: engine._run_batched(row, steps))

    @pytest.mark.parametrize("max_used", [None, 3], ids=["whole-table", "table-ends-at-3"])
    def test_batches_through_collisions_match_the_enumerated_law(self, max_used, monkeypatch):
        """Four interactions of the reset epidemic among five agents: about
        one batch in eleven reaches a second collision after a non-empty
        stretch, whose agents the first collision could not touch and the
        second may.  Such batches are counted, so a sampler that ends its
        batch at the first collision fails.  With ``max_used`` cut to 3,
        batches also end where the stretch table would, which must keep
        the law.  Both are read from the drawn blocks."""
        protocol, start, _ = _small_law_cases()[-1].values
        steps = 4
        engine = CountsSimulation(protocol, init=CodeArray(start), seed=1)
        runs = engine._runs
        if max_used is not None:
            monkeypatch.setattr(runs, "max_used", max_used)
        next_batches = runs.next_batches
        block_stretches = []

        def recorded(count, collisions):
            block = next_batches(count, collisions)
            _, stretches, _, used, taken = block
            for batch, last in enumerate((taken - 1).tolist()):
                # A stretch follows each collision before the last, drawn
                # at U <= max_used; a batch ends short only past it.
                assert (used[:last, batch] <= runs.max_used).all()
                assert last + 1 == collisions or used[last, batch] > runs.max_used
                assert stretches[last, batch] == 0
            block_stretches[:] = [stretches]
            return block

        monkeypatch.setattr(runs, "next_batches", recorded)
        schedule = engine._batch_schedule
        spaced = 0

        def counted(remaining):
            nonlocal spaced
            bulk, agents, collisions = schedule(remaining)
            # The stretch after collision j precedes collision j + 1 unless
            # the budget cut the batch there.
            stretches = block_stretches[0][:, engine._served - 1]
            spaced += bool(stretches[: len(collisions) - 1].any())
            return bulk, agents, collisions

        monkeypatch.setattr(engine, "_batch_schedule", counted)
        self._check_law(engine, start, steps, lambda row: engine._run_batched(row, steps))
        assert spaced > LAW_DRAWS // 20, spaced

    def test_advances_in_pieces_match_the_enumerated_law(self, monkeypatch):
        """The same four interactions as ``1 + 1 + 2`` advances: each piece
        cuts its batch short and discards the rest, and one block of
        schedules serves many pieces, so a remainder that leaked into the
        next advance would show in the law."""
        protocol, start, _ = _small_law_cases()[-1].values
        engine = CountsSimulation(protocol, init=CodeArray(start), seed=1)
        next_batches = engine._runs.next_batches
        blocks = 0

        def counted(count, collisions):
            nonlocal blocks
            blocks += 1
            return next_batches(count, collisions)

        monkeypatch.setattr(engine._runs, "next_batches", counted)
        pieces = (1, 1, 2)

        def advance(row):
            for piece in pieces:
                engine._run_batched(row, piece)

        self._check_law(engine, start, sum(pieces), advance)
        assert blocks < LAW_DRAWS * len(pieces), "no block served more than one advance"

    @staticmethod
    def _check_law(engine, start, steps, advance):
        """``LAW_DRAWS`` advances of the engine's row from ``start``
        against the enumerated law."""
        law = _agent_level_law(engine.protocol, start, steps)
        initial = np.bincount(start, minlength=engine.num_states)
        row = engine.counts[0]
        codes = np.arange(engine.num_states)
        observed = Counter()
        for _ in range(LAW_DRAWS):
            row[:] = initial
            advance(row)
            observed[tuple(codes.repeat(row).tolist())] += 1
        assert set(observed) <= set(law), "sampled an outcome no agent sequence reaches"
        assert _chi2_pvalue(observed, law, LAW_DRAWS) >= CHI2_ALPHA


def _drive_every_row(engine, budget):
    """Every row of ``engine`` ``budget`` interactions through the row
    driver, with no fault and no check retiring a row early."""
    engine._drive_rows(budget, budget, lambda rows, positions: np.ones(rows.size, bool))


class TestJumpStepLaw:
    """The lockstep sampler's jump step matches the agent-level law.

    The row driver advances ``LAW_DRAWS`` rows from the same start
    (:func:`_drive_every_row`).  At ``n = 4–6`` a collision-free run is
    expected to change fewer than one pair, so the rows take jump steps.
    The one-way epidemic tells initiator from responder, and pairwise
    elimination's one effectful pair is diagonal (two leaders meet),
    which only the ``c_a·(c_b - 1)`` weight counts right.
    """

    @pytest.mark.parametrize("protocol, start, steps", _jump_law_cases())
    def test_jump_steps_match_the_enumerated_law(self, protocol, start, steps, monkeypatch):
        law = _agent_level_law(protocol, start, steps)
        size = protocol.num_states()
        initial = np.bincount(start, minlength=size)
        engine = CountsSimulation(
            protocol, init=Replicated(CountVector(initial), LAW_DRAWS), seed=1
        )
        assert engine._matching and engine._lockstep(LAW_DRAWS)
        jumped = []
        jump_rows = engine._jump_rows

        def counted(block, remaining):
            run = jump_rows(block, remaining)
            jumped.append(0 if run is None else int(len(block) - run.sum()))
            return run

        monkeypatch.setattr(engine, "_jump_rows", counted)
        _drive_every_row(engine, steps)
        assert jumped[0] == LAW_DRAWS, "every row's first step is a jump"
        codes = np.arange(size)
        observed = Counter(tuple(codes.repeat(row).tolist()) for row in engine.counts)
        assert set(observed) <= set(law), "sampled an outcome no agent sequence reaches"
        assert _chi2_pvalue(observed, law, LAW_DRAWS) >= CHI2_ALPHA

    @pytest.mark.parametrize(
        "protocol, counts, trials",
        [
            pytest.param(EpidemicProtocol(), [0, 64], 16, id="saturated-epidemic"),
            pytest.param(PairwiseElimination(64), [63, 1], 16, id="one-leader"),
            pytest.param(PairwiseElimination(64), [63, 1], 1, id="one-row-one-leader"),
        ],
    )
    def test_rows_with_no_effectful_pair_draw_nothing(self, protocol, counts, trials):
        # Sixteen two-state rows take the lockstep sampler, one row the
        # per-row sampler.
        engine = CountsSimulation(
            protocol, init=Replicated(CountVector(counts), trials), seed=2
        )
        before = engine._generator.bit_generator.state
        _drive_every_row(engine, 10_000)
        assert engine._generator.bit_generator.state == before
        assert (engine.counts == counts).all()


class _PairMarker(PopulationProtocol):
    """Codes 0–2 are inputs, and a pair of inputs ``(a, b)`` turns both
    agents into the marker ``3 + 3a + b``: one interaction's ordered
    pair reads off the counts."""

    name = "pair-marker"

    def initial_state(self):
        return [0]

    def transition(self, u, v, rng):
        if u[0] < 3 and v[0] < 3:
            u[0] = v[0] = 3 + 3 * u[0] + v[0]

    def output(self, state):
        return state[0]

    def num_states(self):
        return 12

    def encode_state(self, state):
        return state[0]

    def decode_state(self, code):
        return [code]


def _walked_collision_pairs(x, pool, rest, used, n):
    """The reference collision decode: each agent's code found by
    walking its own pool (the used agents' or the unused ones') code by
    code, one ``where`` per code and agent."""
    size = pool.shape[1]
    bound = used * (n - 1)
    late = x >= bound
    first, second = np.divmod(x, n - 1)
    second += second >= first
    over, under = np.divmod(x - bound, used)
    first = np.where(late, over, first)  # within the initiator's pool
    second = np.where(late, under, second)
    unused = second >= used  # never where late: under < U
    second -= used * unused  # within the responder's pool
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    for code in range(size - 1):
        first -= np.where(late, rest[:, code], pool[:, code])
        a += first >= 0
        second -= np.where(unused, rest[:, code], pool[:, code])
        b += second >= 0
    return a * size + b


class _Inert(PopulationProtocol):
    """``size`` codes that no interaction changes."""

    name = "inert"

    def __init__(self, size):
        self.size = size

    def initial_state(self):
        return [0]

    def transition(self, u, v, rng):
        pass

    def output(self, state):
        return state[0]

    def num_states(self):
        return self.size

    def encode_state(self, state):
        return state[0]

    def decode_state(self, code):
        return [code]


class TestCollisionLaw:
    """The lockstep collision is uniform over the ordered pairs with a
    used member: both used, a used initiator with an unused responder,
    and the reverse."""

    @pytest.mark.parametrize("size", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_decode_matches_the_walk_for_every_draw(self, size, n):
        # Every used count U and a few splits of the used and the unused
        # agents over the codes (empty codes included), each with every
        # draw x in [0, U(2n-1-U)): the decode must pick the pair the
        # per-code walk picks, category boundaries included.
        engine = CountsSimulation(_Inert(size), n=n, seed=0)
        rng = np.random.Generator(np.random.PCG64(size * 100 + n))
        for used in range(1, n + 1):
            for _ in range(4):
                pool = np.bincount(rng.integers(0, size, used), minlength=size)
                rest = np.bincount(rng.integers(0, size, n - used), minlength=size)
                x = np.arange(used * (2 * n - 1 - used))
                rows = np.full(x.size, used)
                pools, rests = np.tile(pool, (x.size, 1)), np.tile(rest, (x.size, 1))
                decoded = engine._collision_pairs(x, pools, rests, rows)
                walked = _walked_collision_pairs(x, pools, rests, rows, n)
                assert (decoded == walked).all(), (used, pool, rest)

    @pytest.mark.parametrize(
        "post, unused",
        [
            pytest.param([5, 4, 3], [3, 1, 2], id="three-codes"),
            pytest.param([1, 1, 0], [0, 0, 0], id="no-unused-agent"),
        ],
    )
    def test_pair_states_match_the_exact_law(self, post, unused):
        used = [total - left for total, left in zip(post, unused)]
        agents = [(True, code) for code in range(3) for _ in range(used[code])]
        agents += [(False, code) for code in range(3) for _ in range(unused[code])]
        tally = Counter(
            (a, b) for (a_used, a), (b_used, b) in itertools.permutations(agents, 2)
            if a_used or b_used
        )
        law = {pair: count / sum(tally.values()) for pair, count in tally.items()}
        draws = 20_000
        start = np.zeros(12, dtype=np.int64)
        start[:3] = post
        engine = CountsSimulation(
            _PairMarker(), init=Replicated(CountVector(start), draws), seed=3
        )
        avail = np.zeros((draws, 12), dtype=np.int64)
        avail[:, :3] = unused
        pairs = engine._collision_rows(engine.counts - avail, avail, np.full(draws, sum(used)))
        engine._apply_pairs(engine.counts, np.arange(draws), pairs)
        markers = engine.counts[:, 3:].argmax(axis=1).tolist()
        observed = Counter(divmod(marker, 3) for marker in markers)
        assert set(observed) <= set(law), "drew a pair with no used member"
        assert _chi2_pvalue(observed, law, draws) >= CHI2_ALPHA


# ---------------------------------------------------------------------------
# Result snapshots
# ---------------------------------------------------------------------------


#: Never holds: run_until spends its whole budget.
NEVER = counts_aware(lambda config: False, lambda counts: False)


class TestResultSnapshot:
    """``SimulationResult.config`` is the configuration at return,
    decoded only when read."""

    def test_unread_config_is_never_expanded(self):
        # Expanding n = 10⁶ agents would build an 8 MB list of references;
        # the run itself needs O(S) counts and O(√n) run buffers.
        n = 10**6
        engine = CountsSimulation(EpidemicProtocol(), init=CountVector([n // 2, n // 2]), seed=3)
        tracemalloc.start()
        try:
            result = engine.run_until(NEVER, max_interactions=20_000, check_interval=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.interactions == 20_000
        assert peak < n // 4, peak
        assert len(result.config) == n

    @pytest.mark.parametrize("backend", ["counts", "array"])
    def test_late_read_sees_the_configuration_at_return(self, backend):
        protocol = EpidemicProtocol()
        sim = make_simulation(protocol, init=CountVector([63, 1]), seed=4, backend=backend)
        result = sim.run_until(NEVER, max_interactions=40, check_interval=40)
        at_return = [protocol.encode_state(state) for state in sim.config]
        sim.run(4_000)
        assert [protocol.encode_state(state) for state in sim.config] != at_return
        assert [protocol.encode_state(state) for state in result.config] == at_return


# ---------------------------------------------------------------------------
# Three-way cross-backend equivalence
# ---------------------------------------------------------------------------


def _equivalence_cases():
    ciw = CaiIzumiWada(BaselineParams(n=10))
    loose = LooselyStabilizingLeaderElection(BaselineParams(n=20), tau=2.0)
    pairwise = PairwiseElimination(20)
    reset = ResetEpidemicProtocol(ProtocolParams(n=12, r=2))
    epidemic = EpidemicProtocol()
    return [
        (
            "cai_izumi_wada", ciw, 10,
            counts_aware(ciw.is_silent_configuration, ciw.goal_counts),
            lambda rng: ciw.adversarial_configuration(rng), 1_000_000,
        ),
        (
            "loosely_stabilizing", loose, 20, goal_counts_predicate(loose),
            lambda rng: loose.adversarial_configuration(rng), 400_000,
        ),
        (
            "pairwise_elimination", pairwise, 20, goal_counts_predicate(pairwise),
            lambda rng: None, 400_000,
        ),
        (
            "reset_epidemic", reset, 12, goal_counts_predicate(reset),
            lambda rng: reset.triggered_configuration(12, 2), 400_000,
        ),
        (
            "epidemic", epidemic, 16, goal_counts_predicate(epidemic),
            lambda rng: EpidemicProtocol.seeded_configuration(16, 2), 200_000,
        ),
    ]


class TestThreeWayEquivalence:
    @pytest.mark.parametrize(
        "name,protocol,n,predicate,config_of,budget",
        _equivalence_cases(),
        ids=[case[0] for case in _equivalence_cases()],
    )
    def test_same_verdicts_overlapping_cis(
        self, name, protocol, n, predicate, config_of, budget
    ):
        trials = 10
        summaries = {}
        for backend in ("object", "array", "counts"):
            summaries[backend] = run_trials(
                protocol,
                predicate,
                n=n,
                trials=trials,
                max_interactions=budget,
                seed=77,
                check_interval=32,
                init=(
                    (lambda index: ObjectConfig(config_of(make_rng(5000 + index))))
                    if config_of(make_rng(0)) is not None
                    else None
                ),
                label=f"{name}/{backend}",
                backend=backend,
            )
        assert all(s.success_rate == 1.0 for s in summaries.values()), summaries
        cis = {
            backend: bootstrap_ci(summary.interactions, rng=make_rng(1))
            for backend, summary in summaries.items()
        }
        for backend in ("array", "counts"):
            assert cis["object"].low <= cis[backend].high, (name, cis)
            assert cis[backend].low <= cis["object"].high, (name, cis)


# ---------------------------------------------------------------------------
# Vectorized adversarial initializers
# ---------------------------------------------------------------------------


class TestVectorizedAdversaries:
    def test_scramble_codes_shape_range_determinism(self):
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=50), tau=1.0)
        size = protocol.num_states()
        first = scrambled_codes(protocol, code_rng(3), 50)
        again = scrambled_codes(protocol, code_rng(3), 50)
        assert first.shape == (50,)
        assert first.min() >= 0 and first.max() < size
        assert first.tolist() == again.tolist()

    def test_scramble_counts_matches_codes_law(self):
        protocol = PairwiseElimination(400)
        total_codes = np.zeros(2, dtype=np.int64)
        total_counts = np.zeros(2, dtype=np.int64)
        for seed in range(30):
            total_codes += np.bincount(
                scrambled_codes(protocol, code_rng(seed), 400), minlength=2
            )
            counts = scrambled_counts(protocol, code_rng(1_000 + seed), 400)
            assert int(counts.sum()) == 400
            total_counts += counts
        # Same mean occupancy (n/S) for both emitters, within ~5σ.
        for total in (total_codes, total_counts):
            assert abs(int(total[0]) - 6000) < 400

    def test_planted_twins(self):
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=64), tau=1.0)
        base = protocol.encode_state(protocol.initial_state())
        codes = planted_codes(protocol, code_rng(5), 64)
        assert codes.shape == (64,)
        assert int((codes != base).sum()) <= 8  # ⌈64/8⌉ corruption budget
        counts = planted_counts(protocol, code_rng(5), 64)
        assert int(counts.sum()) == 64
        assert int(counts[base]) >= 64 - 8
        with pytest.raises(ValueError, match="planted"):
            planted_codes(protocol, code_rng(0), 8, planted=9)

    def test_one_seed_same_start_on_every_backend(self):
        protocol = CaiIzumiWada(BaselineParams(n=16))
        codes = scrambled_codes(protocol, code_rng(21), 16)
        object_sim = make_simulation(protocol, init=CodeArray(codes), backend="object")
        array_sim = make_simulation(protocol, init=CodeArray(codes), backend="array")
        counts_sim = make_simulation(protocol, init=CodeArray(codes), backend="counts")
        reference = codes.tolist()
        assert [protocol.encode_state(s) for s in object_sim.config] == reference
        assert array_sim.codes.tolist() == reference
        assert counts_sim.counts[0].tolist() == np.bincount(codes, minlength=16).tolist()
