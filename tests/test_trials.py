"""Tests for the multi-trial runner and table formatting."""

from __future__ import annotations

import math

import pytest

from repro.baselines.nonss_leader import PairwiseElimination
from repro.sim.initial_state import CodeArray, CountVector, ObjectConfig
from repro.sim.trials import TrialSummary, format_table, run_trials


class TestRunTrials:
    def test_aggregates_converged_trials(self):
        protocol = PairwiseElimination(12)
        summary = run_trials(
            protocol,
            protocol.is_goal_configuration,
            n=12,
            trials=6,
            max_interactions=200_000,
            seed=3,
        )
        assert summary.trials == 6
        assert summary.converged == 6
        assert summary.success_rate == 1.0
        assert len(summary.parallel_times) == 6
        assert summary.median_time > 0

    def test_reports_failures(self):
        protocol = PairwiseElimination(12)
        summary = run_trials(
            protocol,
            lambda config: False,
            n=12,
            trials=3,
            max_interactions=50,
            seed=3,
        )
        assert summary.converged == 0
        assert summary.success_rate == 0.0
        assert math.isnan(summary.median_time)
        assert math.isnan(summary.p95_time)

    def test_config_factory_used(self):
        protocol = PairwiseElimination(6)

        def factory(index: int):
            config = [protocol.initial_state() for _ in range(6)]
            for state in config[1:]:
                state.leader = False
            return ObjectConfig(config)  # already converged

        summary = run_trials(
            protocol,
            protocol.is_goal_configuration,
            n=6,
            trials=4,
            max_interactions=10,
            init=factory,
        )
        assert summary.converged == 4
        assert all(t == 0 for t in summary.parallel_times)

    def test_deterministic_given_seed(self):
        protocol = PairwiseElimination(10)
        a = run_trials(
            protocol, protocol.is_goal_configuration, n=10, trials=4,
            max_interactions=100_000, seed=9,
        )
        b = run_trials(
            protocol, protocol.is_goal_configuration, n=10, trials=4,
            max_interactions=100_000, seed=9,
        )
        assert a.interactions == b.interactions

    def test_label_defaults_to_protocol_name(self):
        protocol = PairwiseElimination(6)
        summary = run_trials(
            protocol, protocol.is_goal_configuration, n=6, trials=1,
            max_interactions=100_000,
        )
        assert summary.label == protocol.name


class TestSummaryStatistics:
    def test_percentiles(self):
        summary = TrialSummary(
            label="x",
            n=4,
            trials=5,
            converged=5,
            interactions=[10, 20, 30, 40, 50],
            parallel_times=[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        assert summary.median_time == 3.0
        assert summary.p95_time == 5.0
        assert summary.median_interactions == 30

    def test_p95_is_nearest_rank_not_maximum(self):
        # Regression: int(0.95 * 20) == 19 indexed the maximum (p100);
        # nearest-rank p95 of 20 samples is the 19th order statistic.
        summary = TrialSummary(
            label="x", n=4, trials=20, converged=20,
            interactions=list(range(20)),
            parallel_times=[float(value) for value in range(1, 21)],
        )
        assert summary.p95_time == 19.0

    def test_p95_known_lists(self):
        def p95(values):
            return TrialSummary(
                label="x", n=4, trials=len(values), converged=len(values),
                interactions=list(values), parallel_times=list(values),
            ).p95_time

        assert p95([float(v) for v in range(1, 101)]) == 95.0  # ceil(95) = 95
        assert p95([float(v) for v in range(1, 41)]) == 38.0  # ceil(38) = 38
        assert p95([5.0, 1.0, 3.0]) == 5.0  # ceil(2.85) = 3 → maximum
        assert p95([7.0]) == 7.0
        # Order must not matter.
        assert p95([20.0] + [float(v) for v in range(1, 20)]) == 19.0

    def test_as_row_keys(self):
        summary = TrialSummary("x", 4, 1, 1, [10], [1.0])
        row = summary.as_row()
        assert set(row) == {
            "label", "n", "trials", "success_rate",
            "median_interactions", "median_time", "p95_time",
        }


class TestFormatTable:
    def test_renders_columns(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "222" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="T")


class TestBackendSelection:
    def test_counts_factory_builds_o_of_s_specs(self):
        import pytest

        pytest.importorskip("numpy")
        from repro.sim.counts_backend import goal_counts_predicate

        protocol = PairwiseElimination(64)
        built: list[int] = []

        def counts_factory(index: int):
            built.append(index)
            return CountVector([32, 32])  # half leaders, half followers

        summary = run_trials(
            protocol,
            goal_counts_predicate(protocol),
            n=64,
            trials=3,
            max_interactions=500_000,
            seed=4,
            check_interval=64,
            init=counts_factory,
            backend="counts",
        )
        assert built == [0, 1, 2]
        assert summary.converged == 3

    def test_removed_factory_kwargs_raise(self):
        protocol = PairwiseElimination(8)
        with pytest.raises(TypeError, match="unexpected keyword argument 'counts_factory'"):
            run_trials(
                protocol,
                protocol.is_goal_configuration,
                n=8,
                trials=1,
                max_interactions=100,
                counts_factory=lambda index: [8, 0],
            )

    def test_counts_backend_summary(self):
        import pytest

        pytest.importorskip("numpy")
        protocol = PairwiseElimination(16)
        from repro.sim.counts_backend import goal_counts_predicate

        summary = run_trials(
            protocol,
            goal_counts_predicate(protocol),
            n=16,
            trials=4,
            max_interactions=200_000,
            seed=9,
            check_interval=16,
            backend="counts",
        )
        assert summary.converged == 4
        assert all(t > 0 for t in summary.parallel_times)

    def test_explicit_backend_immune_to_bogus_env(self, monkeypatch):
        # Resolution happens once at the entry point; an explicit name is
        # a pure registry lookup and never consults the environment.
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "bogus")
        protocol = PairwiseElimination(12)
        summary = run_trials(
            protocol,
            protocol.is_goal_configuration,
            n=12,
            trials=2,
            max_interactions=100_000,
            seed=1,
            backend="object",
        )
        assert summary.converged == 2

    def test_codes_factory_builds_encoded_starts(self):
        import pytest

        np = pytest.importorskip("numpy")
        from repro.substrates.epidemics import EpidemicProtocol
        from repro.sim.counts_backend import goal_counts_predicate

        protocol = EpidemicProtocol()

        def seeded(index):
            codes = np.zeros(48, dtype=np.int64)
            codes[0] = 1
            return CodeArray(codes)

        summaries = [
            run_trials(
                protocol,
                goal_counts_predicate(protocol),
                n=48,
                trials=3,
                max_interactions=100_000,
                seed=4,
                check_interval=48,
                init=seeded,
                backend=backend,
            )
            for backend in ("object", "counts")
        ]
        assert all(s.converged == 3 for s in summaries)
