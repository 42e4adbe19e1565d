"""Tests for the batched fast path and the parallel trial engine.

The two contracts under test:

* batching never changes semantics — ``run_batch(k)`` (and the
  ``next_pairs`` draw under it) consumes the RNG streams exactly like
  ``k`` calls of ``step()``, so batched and stepwise runs of one seed are
  bit-identical;
* worker count never changes results — ``stream_ordered`` yields
  ``run_trial`` outcomes in spec order for any ``workers`` value, and
  ``run_trials`` aggregates the same ``TrialSummary``, because every
  trial is fully determined by its derived seed.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.baselines.nonss_leader import PairwiseElimination
from repro.scheduler.rng import derive_seed, make_rng
from repro.scheduler.scheduler import RandomScheduler
from repro.sim.initial_state import ObjectConfig
from repro.sim.parallel import TrialSpec, resolve_workers, run_trial, stream_ordered
from repro.sim.simulation import Simulation
from repro.sim.trials import run_trials


@pytest.fixture
def protocol() -> PairwiseElimination:
    return PairwiseElimination(10)


class TestNextPairs:
    def test_matches_stepwise_draws(self):
        batched = RandomScheduler(9, make_rng(7))
        stepwise = RandomScheduler(9, make_rng(7))
        assert batched.next_pairs(250) == [stepwise.next_pair() for _ in range(250)]

    def test_leaves_rng_in_same_state(self):
        batched = RandomScheduler(9, make_rng(7))
        stepwise = RandomScheduler(9, make_rng(7))
        batched.next_pairs(50)
        for _ in range(50):
            stepwise.next_pair()
        assert batched.next_pair() == stepwise.next_pair()

    def test_empty_batch(self):
        scheduler = RandomScheduler(5, make_rng(0))
        assert scheduler.next_pairs(0) == []

    def test_rejects_negative_count(self):
        scheduler = RandomScheduler(5, make_rng(0))
        with pytest.raises(ValueError):
            scheduler.next_pairs(-1)

    def test_pairs_stream_matches_materialized_draw(self):
        # The lazy iterator is the batch loop's fast path: same RNG
        # consumption, same pairs, no list of `count` tuples held alive.
        streamed = RandomScheduler(9, make_rng(7))
        materialized = RandomScheduler(9, make_rng(7))
        assert list(streamed.pairs(250)) == materialized.next_pairs(250)
        # Both leave the stream in the same place.
        assert streamed.next_pair() == materialized.next_pair()

    def test_pairs_stream_is_lazy(self):
        scheduler = RandomScheduler(9, make_rng(7))
        reference = RandomScheduler(9, make_rng(7))
        stream = scheduler.pairs(100)
        # Nothing consumed until iteration starts.
        assert scheduler.next_pair() == reference.next_pair()
        first = next(stream)
        assert first == reference.next_pair()


class TestRunBatch:
    def test_bit_identical_to_stepwise(self, protocol):
        stepped = Simulation(protocol, n=10, seed=11)
        batched = Simulation(protocol, n=10, seed=11)
        for _ in range(300):
            stepped.step()
        batched.run_batch(300)
        assert [s.leader for s in stepped.config] == [s.leader for s in batched.config]
        assert stepped.metrics.interactions == batched.metrics.interactions == 300
        # Both RNG streams were consumed identically: continuations agree.
        stepped.run_batch(100)
        for _ in range(100):
            batched.step()
        assert [s.leader for s in stepped.config] == [s.leader for s in batched.config]

    def test_observers_force_per_step_path(self, protocol):
        sim = Simulation(protocol, n=10, seed=3)
        counts: list[int] = []
        sim.observers.append(lambda s, i, j: counts.append(s.metrics.interactions))
        sim.run_batch(25)
        # Observers see every interaction, with the counter already bumped.
        assert counts == list(range(1, 26))

    def test_rejects_negative_count(self, protocol):
        sim = Simulation(protocol, n=10, seed=3)
        with pytest.raises(ValueError):
            sim.run_batch(-5)

    def test_split_batches_match_one_large_batch(self, protocol):
        # The lazy pair stream makes batch memory O(1) in the batch size;
        # splitting a batch never changes the RNG streams or the results.
        split = Simulation(protocol, n=10, seed=21)
        for _ in range(5):
            split.run_batch(60)
        whole = Simulation(protocol, n=10, seed=21)
        whole.run_batch(300)
        assert [s.leader for s in split.config] == [s.leader for s in whole.config]
        assert split.metrics.interactions == whole.metrics.interactions == 300

    def test_run_until_unchanged_by_batching(self, protocol):
        # run_until now routes bursts through run_batch; the convergence
        # point must be exactly where the per-step loop found it.
        fast = Simulation(protocol, n=10, seed=1)
        result = fast.run_until(protocol.is_goal_configuration, 100_000, check_interval=64)
        slow = Simulation(protocol, n=10, seed=1)
        slow.observers.append(lambda s, i, j: None)  # forces the per-step path
        reference = slow.run_until(protocol.is_goal_configuration, 100_000, check_interval=64)
        assert result.converged and reference.converged
        assert result.interactions == reference.interactions


class TestResolveWorkers:
    def test_auto_modes_use_cpu_count(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_explicit_count_passthrough(self):
        assert resolve_workers(3) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestTrialSpecs:
    def _specs(self, protocol, count):
        return [
            TrialSpec(
                index=index,
                protocol=protocol,
                predicate=protocol.is_goal_configuration,
                seed=derive_seed(17, index),
                max_interactions=100_000,
                check_interval=8,
                n=10,
            )
            for index in range(count)
        ]

    def test_run_trial_preserves_index(self, protocol):
        outcome = run_trial(self._specs(protocol, 3)[2])
        assert outcome.index == 2
        assert outcome.converged
        assert outcome.parallel_time == outcome.interactions / 10

    def test_pool_returns_spec_order(self, protocol):
        specs = self._specs(protocol, 6)
        sequential = [run_trial(spec) for spec in specs]
        pooled = list(stream_ordered(specs, run_trial, workers=2))
        assert [o.index for o in pooled] == list(range(6))
        assert pooled == sequential


class TestStreaming:
    def _specs(self, protocol, count):
        return [
            TrialSpec(
                index=index,
                protocol=protocol,
                predicate=protocol.is_goal_configuration,
                seed=derive_seed(23, index),
                max_interactions=100_000,
                check_interval=8,
                n=10,
            )
            for index in range(count)
        ]

    def test_streamed_equals_blocking_for_every_worker_count(self, protocol):
        specs = self._specs(protocol, 8)
        blocking = [run_trial(spec) for spec in specs]
        for workers in (1, 2, 4, None):
            streamed = list(stream_ordered(specs, run_trial, workers=workers))
            assert streamed == blocking, f"workers={workers}"

    def test_yields_in_spec_order(self, protocol):
        specs = self._specs(protocol, 8)
        streamed = stream_ordered(specs, run_trial, workers=4)
        assert [outcome.index for outcome in streamed] == list(range(8))

    def test_consumes_specs_lazily(self, protocol):
        # The window bounds how far ahead of the consumer the engine reads,
        # so endless spec generators stream in O(window) memory.
        import itertools

        def endless():
            index = 0
            while True:
                yield self._specs(protocol, index + 1)[index]
                index += 1

        outcomes = list(itertools.islice(
            stream_ordered(endless(), run_trial, workers=2, window=3), 5
        ))
        assert [outcome.index for outcome in outcomes] == list(range(5))

    def test_unpicklable_spec_degrades_in_place(self, protocol):
        class Unpicklable:
            leader = True

            def __reduce__(self):
                raise TypeError("cannot pickle")

        specs = self._specs(protocol, 5)
        poisoned = list(specs)
        poisoned[2] = TrialSpec(
            index=2,
            protocol=protocol,
            predicate=protocol.is_goal_configuration,
            seed=specs[2].seed,
            max_interactions=100_000,
            check_interval=8,
            init=ObjectConfig([Unpicklable() for _ in range(10)]),
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            outcomes = list(stream_ordered(poisoned, run_trial, workers=2))
        assert [outcome.index for outcome in outcomes] == list(range(5))
        # The picklable neighbours still match the fully-picklable run.
        reference = [run_trial(spec) for spec in specs]
        assert [outcomes[i] for i in (0, 1, 3, 4)] == [reference[i] for i in (0, 1, 3, 4)]

    def test_stream_ordered_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(stream_ordered([1, 2], _double, workers=2, window=0))

    def test_stream_ordered_generic_function(self):
        assert list(stream_ordered(range(10), _double, workers=2)) == [
            value * 2 for value in range(10)
        ]

    def test_abandoned_stream_shuts_down_cleanly(self, protocol):
        specs = self._specs(protocol, 8)
        stream = stream_ordered(specs, run_trial, workers=2)
        first = next(stream)
        assert first.index == 0
        stream.close()  # must not hang or leak worker processes


def _double(value: int) -> int:
    return value * 2


class TestRunTrialsWorkers:
    def _summary(self, protocol, workers):
        return run_trials(
            protocol,
            protocol.is_goal_configuration,
            n=10,
            trials=6,
            max_interactions=100_000,
            seed=9,
            check_interval=8,
            workers=workers,
        )

    def test_worker_count_invariance(self, protocol):
        baseline = self._summary(protocol, 1)
        for workers in (2, 4, None):
            summary = self._summary(protocol, workers)
            assert summary.converged == baseline.converged
            assert summary.interactions == baseline.interactions
            assert summary.parallel_times == baseline.parallel_times

    def test_unpicklable_later_config_falls_back(self, protocol):
        # The pickle probe covers every spec, not just the first: a
        # per-trial init factory may return a poisoned configuration
        # mid-sweep, and that one trial runs in the parent.
        class Unpicklable:
            leader = True

            def __reduce__(self):
                raise TypeError("cannot pickle")

        def factory(index):
            if index == 2:
                return ObjectConfig([Unpicklable() for _ in range(10)])
            return None

        with pytest.warns(RuntimeWarning, match="not picklable"):
            summary = run_trials(
                protocol,
                protocol.is_goal_configuration,
                n=10,
                trials=4,
                max_interactions=100_000,
                seed=9,
                init=factory,
                workers=2,
            )
        assert summary.trials == 4

    def test_unpicklable_predicate_falls_back(self, protocol):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            summary = run_trials(
                protocol,
                lambda config: protocol.is_goal_configuration(config),
                n=10,
                trials=3,
                max_interactions=100_000,
                seed=9,
                workers=2,
            )
        assert summary.converged == 3

    def test_one_trial_starts_no_process_pool(self, protocol, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-trial run must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        summary = run_trials(
            protocol,
            protocol.is_goal_configuration,
            n=10,
            trials=1,
            max_interactions=100_000,
            seed=9,
            workers=4,
        )
        assert summary.trials == 1 and summary.converged == 1
