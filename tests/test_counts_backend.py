"""The counts backend's equivalence gate.

Contracts gated here, mirroring the array backend's suite one level up
the abstraction ladder (counts instead of per-agent codes):

* **codecs** — configurations, code arrays and count vectors round-trip,
  and expansion shares one decoded object per occupied code;
* **application exactness** — the vectorized aggregate delta
  (:func:`apply_pair_counts`) matches a pair-at-a-time loop *exactly* for
  any feasible interaction multiset (hypothesis property: count updates
  are additive deltas, so batching must commute);
* **sampler law** — collision-run lengths stay in ``[1, n//2]`` with a
  monotone survival curve; conservation and protocol invariants
  (epidemic monotonicity, pairwise-elimination leader floors) hold along
  batched runs; the batched sampler and the pair-at-a-time oracle agree
  on verdicts, and degenerate populations (``n = 2``, every interaction
  a collision) agree exactly across all engines;
* **three-way distribution equivalence** — object, array and counts
  backends reach the same convergence verdicts with overlapping
  bootstrap CIs for median stabilization interactions;
* **vectorized adversaries** — the code/count initializer twins share one
  law, and one seed gives every backend the same adversarial start.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.adversary.initializers import (  # noqa: E402
    code_rng,
    planted_codes,
    planted_counts,
    scrambled_codes,
    scrambled_counts,
)
from repro.analysis.stats import bootstrap_ci  # noqa: E402
from repro.baselines.cai_izumi_wada import CaiIzumiWada  # noqa: E402
from repro.baselines.loosely_stabilizing import (  # noqa: E402
    LooselyStabilizingLeaderElection,
)
from repro.baselines.nonss_leader import PairwiseElimination  # noqa: E402
from repro.core.elect_leader import ElectLeader  # noqa: E402
from repro.core.params import BaselineParams, ProtocolParams  # noqa: E402
from repro.core.propagate_reset import ResetEpidemicProtocol  # noqa: E402
from repro.scheduler.rng import make_rng  # noqa: E402
from repro.scheduler.scheduler import CollisionRunSampler  # noqa: E402
from repro.sim.array_backend import (  # noqa: E402
    ArrayBackendError,
    transition_table_for,
)
from repro.sim.backends import make_simulation  # noqa: E402
from repro.sim.counts_backend import (  # noqa: E402
    CountsBackendError,
    CountsSimulation,
    apply_pair_counts,
    apply_pairs_sequential,
    configuration_from_counts,
    counts_aware,
    counts_from_codes,
    counts_from_configuration,
    goal_counts_predicate,
)
from repro.sim.initial_state import CodeArray, CountVector, ObjectConfig  # noqa: E402
from repro.sim.trials import run_trials  # noqa: E402
from repro.substrates.epidemics import EpidemicProtocol  # noqa: E402

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
        with pytest.raises(ValueError, match="batching mode"):
            CountsSimulation(protocol, n=8, batching="magic")

    def test_elect_leader_rejected_loudly(self):
        protocol = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(CountsBackendError, match="no finite state encoding"):
            CountsSimulation(protocol, n=16)
        # The established "no finite encoding" signal catches it too.
        with pytest.raises(ArrayBackendError):
            CountsSimulation(protocol, n=16)


# ---------------------------------------------------------------------------
# Batched delta application == pair-at-a-time (the exactness property)
# ---------------------------------------------------------------------------


def _property_protocols():
    loose = LooselyStabilizingLeaderElection(BaselineParams(n=N), tau=1.0)
    reset = ResetEpidemicProtocol(ProtocolParams(n=N, r=2))
    return [
        ("epidemic", EpidemicProtocol()),
        ("loose", loose),
        ("reset", reset),
    ]


PROPERTY_PROTOCOLS = _property_protocols()


class TestApplyPairCounts:
    @pytest.mark.parametrize(
        "protocol", [p for _, p in PROPERTY_PROTOCOLS],
        ids=[name for name, _ in PROPERTY_PROTOCOLS],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batched_matches_pair_at_a_time_exactly(self, protocol, data):
        table = transition_table_for(protocol)
        size = table.num_states
        pair_count = data.draw(st.integers(min_value=0, max_value=24), label="pairs")
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, size - 1), st.integers(0, size - 1)
                ),
                min_size=pair_count,
                max_size=pair_count,
            ),
            label="state pairs",
        )
        # Feasible by construction: give every state enough agents that
        # any drawn multiset could have come from distinct agents.
        counts = np.full(size, 2 * max(1, pair_count), dtype=np.int64)
        initiators = np.array([a for a, _ in pairs], dtype=np.int64)
        responders = np.array([b for _, b in pairs], dtype=np.int64)
        batched = counts.copy()
        sequential = counts.copy()
        apply_pair_counts(batched, initiators, responders, table)
        apply_pairs_sequential(sequential, initiators, responders, table)
        assert batched.tolist() == sequential.tolist()
        assert int(batched.sum()) == int(counts.sum())  # conservation

    def test_length_mismatch_rejected(self):
        protocol = EpidemicProtocol()
        table = transition_table_for(protocol)
        counts = np.array([3, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="equal length"):
            apply_pair_counts(
                counts, np.array([0, 1]), np.array([0]), table
            )


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


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------


class TestCountsSimulation:
    @pytest.mark.parametrize("batching", ["run", "pair"])
    def test_conservation_and_accounting(self, batching):
        protocol = LooselyStabilizingLeaderElection(BaselineParams(n=32), tau=1.0)
        sim = CountsSimulation(protocol, n=32, seed=9, batching=batching)
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


class TestSilenceDetection:
    """Counts-level silence: provably-no-op batches are skipped in O(S²)."""

    def test_saturated_epidemic_is_silent(self):
        protocol = EpidemicProtocol()
        sim = CountsSimulation(protocol, init=CountVector([0, 64]), seed=0)
        assert sim.configuration_is_silent()
        sim2 = CountsSimulation(protocol, init=CountVector([1, 63]), seed=0)
        assert not sim2.configuration_is_silent()

    def test_single_occupancy_diagonal_is_exempt(self):
        # One leader + followers: the only non-inert pair (L, L) needs two
        # leaders, so the configuration is silent — exactly the converged
        # state of pairwise elimination.
        protocol = PairwiseElimination(16)
        one_leader = CountsSimulation(protocol, init=CountVector([15, 1]), seed=0)
        two_leaders = CountsSimulation(protocol, init=CountVector([14, 2]), seed=0)
        assert one_leader.configuration_is_silent()
        assert not two_leaders.configuration_is_silent()

    def test_ciw_permutation_is_silent_below_the_cap(self):
        protocol = CaiIzumiWada(BaselineParams(n=32))
        permutation = np.ones(32, dtype=np.int64)
        assert CountsSimulation(
            protocol, init=CountVector(permutation), seed=0
        ).configuration_is_silent()
        duplicated = permutation.copy()
        duplicated[0], duplicated[1] = 2, 0
        assert not CountsSimulation(
            protocol, init=CountVector(duplicated), seed=0
        ).configuration_is_silent()

    def test_cap_returns_the_safe_answer(self):
        from repro.sim.counts_backend import MAX_SILENCE_STATES

        n = MAX_SILENCE_STATES + 8
        protocol = CaiIzumiWada(BaselineParams(n=n))
        sim = CountsSimulation(protocol, init=CountVector(np.ones(n, dtype=np.int64)), seed=0)
        # Genuinely silent, but above the occupied-state cap the check
        # declines (False is always safe — the sampler just runs).
        assert not sim.configuration_is_silent()

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
        sim = CountsSimulation(protocol, init=CountVector([0, 16]), seed=7, batching="pair")
        state_before = sim._generator.bit_generator.state
        sim.run_batch(10)
        assert sim._generator.bit_generator.state != state_before
        assert sim.counts.tolist() == [[0, 16]]


class TestModesAgree:
    def test_n2_forced_collisions_exact(self):
        # With two agents every run is one interaction and every second
        # interaction is a collision: both modes and both other engines
        # must land on the absorbing (L, F) configuration immediately.
        protocol = PairwiseElimination(2)
        for batching in ("run", "pair"):
            sim = CountsSimulation(protocol, n=2, seed=4, batching=batching)
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
            for batching in ("run", "pair"):
                sim = CountsSimulation(
                    protocol, init=CodeArray(_epidemic_codes(40, 2)), seed=seed, batching=batching
                )
                result = sim.run_until(
                    goal_counts_predicate(protocol),
                    max_interactions=20_000,
                    check_interval=40,
                )
                outcomes.append(result.converged)
            assert outcomes[0] == outcomes[1] is True


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
