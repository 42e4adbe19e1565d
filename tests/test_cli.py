"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 32 and args.r == 4 and args.seed == 0

    def test_recover_requires_known_adversary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover", "unknown-adversary"])

    def test_statespace_sizes(self):
        args = build_parser().parse_args(["statespace", "--sizes", "8", "16"])
        assert args.sizes == [8, 16]

    def test_sweep_defaults(self):
        # Grid flags parse to None (a --grid file may fill them); the
        # effective defaults live in _grid_from_args, asserted below.
        args = build_parser().parse_args(["sweep"])
        assert args.protocols is None and args.ns is None and args.rs is None
        assert args.grid is None and args.shard is None
        assert args.out == "sweep.jsonl" and not args.resume and not args.force

    def test_sweep_effective_grid_defaults(self):
        from repro.cli import _grid_from_args

        grid = _grid_from_args(build_parser().parse_args(["sweep"]))
        assert grid.protocols == ("elect_leader",)
        assert grid.ns == (16, 32) and grid.rs == (4,)
        assert grid.adversaries == ("clean",) and grid.fault_rates == (0.0,)

    def test_sweep_shard_flag(self):
        args = build_parser().parse_args(["sweep", "--shard", "1/4"])
        assert args.shard == (1, 4)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--shard", "4/4"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--shard", "nonsense"])


class TestInputValidation:
    """`-n`/`-r` are rejected at argparse level (clean usage error, exit 2)
    instead of crashing deep inside the protocol with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "-n", "-3"],
            ["run", "-n", "1"],
            ["run", "-r", "0"],
            ["run", "-r", "-2"],
            ["recover", "all_duplicate_rank", "-n", "0"],
            ["recover", "all_duplicate_rank", "-r", "-1"],
            ["tradeoff", "-n", "1"],
            ["tradeoff", "--trials", "0"],
            ["sweep", "--ns", "1"],
            ["sweep", "--ns", "16", "-3"],
            ["sweep", "--rs", "0"],
            ["sweep", "--fault-rates", "-0.5"],
            ["sweep", "--trials", "0"],
        ],
    )
    def test_bad_values_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_r_exceeding_half_n_is_one_clean_line(self, capsys):
        code = main(["run", "-n", "8", "-r", "7"])
        assert code == 2
        err = capsys.readouterr().err
        assert "1 <= r <= n/2" in err
        assert "Traceback" not in err


class TestCommands:
    def test_run_stabilizes(self, capsys):
        code = main(["run", "-n", "12", "-r", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilized after" in out
        assert "leaders: 1" in out

    def test_recover_from_adversary(self, capsys):
        code = main(
            ["recover", "all_duplicate_rank", "-n", "12", "-r", "3", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilized after" in out
        assert "ranking_correct: True" in out

    def test_recover_failure_exit_code(self, capsys):
        code = main(
            [
                "recover", "all_duplicate_rank", "-n", "12", "-r", "3",
                "--seed", "2", "--max-interactions", "10",
            ]
        )
        assert code == 1

    def test_statespace_table(self, capsys):
        code = main(["statespace", "--sizes", "16", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ciw_bits" in out and "ours_rmax_bits" in out

    def test_tradeoff_table(self, capsys):
        code = main(["tradeoff", "-n", "12", "--trials", "2", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state_bits" in out
        assert "r=" not in out  # labels are numeric rows, not prefixed


class TestWithoutNumpy:
    """numpy is an optional extra (``dependencies = []``): the CLI and the
    object engine must run without it."""

    def test_run_command_with_numpy_blocked(self):
        done = run_python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(['run', '-n', '12', '-r', '3', '--seed', '1',"
            " '--batch', '500']))\n"
        )
        assert done.returncode == 0, done.stderr
        assert "stabilized after" in done.stdout

    def test_package_and_object_engine_import_no_numpy(self):
        pytest.importorskip("numpy")
        done = run_python(
            "import sys\n"
            "import repro, repro.sim.simulation\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestSweepCommand:
    SWEEP_ARGS = [
        "sweep", "--protocols", "elect_leader", "--ns", "8", "--rs", "2",
        "--adversaries", "clean", "random_soup", "--trials", "2", "--seed", "3",
        "--max-interactions", "2000000", "--batch", "500", "--no-progress",
    ]

    def test_sweep_runs_and_writes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code = main([*self.SWEEP_ARGS, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Scenario sweep: 4 trials over 2 cells" in stdout
        assert "random_soup" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # meta + 4 trials

    def test_sweep_refuses_overwrite_then_resumes(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert main([*self.SWEEP_ARGS, "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert main([*self.SWEEP_ARGS, "--out", str(out)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert main([*self.SWEEP_ARGS, "--out", str(out), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "4 resumed from checkpoint" in resumed
        # The aggregate table is unchanged by the resume.
        assert first.splitlines()[-3] == resumed.splitlines()[-3]

    def test_sweep_workers_invariance_via_cli(self, capsys, tmp_path):
        tables = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.jsonl"
            code = main([*self.SWEEP_ARGS, "--out", str(out), "--workers", workers])
            assert code == 0
            tables.append(capsys.readouterr().out)
        # Identical apart from the per-run output path line.
        def strip(text):
            return [line for line in text.splitlines() if "results in" not in line]

        assert strip(tables[0]) == strip(tables[1])

    def test_sweep_fault_model_axis(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        out = tmp_path / "faults.jsonl"
        args = [
            "sweep", "--protocols", "loosely_stabilizing", "--ns", "16",
            "--adversaries", "clean", "--fault-rates", "0", "0.5",
            "--fault-model", "scramble_burst", "kill_leaders",
            "--trials", "2", "--seed", "3", "--backend", "counts",
            "--max-interactions", "40000", "--batch", "500", "--no-progress",
            "--out", str(out),
        ]
        code = main(args)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "availability" in stdout
        assert "kill_leaders" in stdout
        blob = out.read_text()
        assert '"fault_model":"scramble_burst"' in blob
        assert '"availability":' in blob
        # Resume of the finished sweep is a no-op with identical bytes.
        assert main([*args, "--resume"]) == 0
        assert out.read_text() == blob

    def test_sweep_rejects_unknown_fault_model(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--protocols", "loosely_stabilizing", "--ns", "16",
                "--fault-model", "bogus", "--no-progress",
                "--out", str(tmp_path / "x.jsonl"),
            ])

    def test_sweep_array_backend(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        out = tmp_path / "array.jsonl"
        code = main([
            "sweep", "--protocols", "cai_izumi_wada", "pairwise_elimination",
            "--ns", "8", "--trials", "2", "--seed", "3", "--backend", "array",
            "--max-interactions", "200000", "--batch", "100", "--no-progress",
            "--out", str(out),
        ])
        assert code == 0
        assert '"backend":"array"' in out.read_text()

    def test_sweep_array_backend_rejects_elect_leader(self, capsys, tmp_path):
        code = main([
            "sweep", "--protocols", "elect_leader", "--ns", "8", "--rs", "2",
            "--backend", "array", "--no-progress",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "array" in err

    def test_sweep_backend_env_default(self, capsys, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "array")
        out = tmp_path / "env.jsonl"
        code = main([
            "sweep", "--protocols", "pairwise_elimination", "--ns", "8",
            "--trials", "1", "--max-interactions", "100000", "--batch", "100",
            "--no-progress", "--out", str(out),
        ])
        assert code == 0
        assert '"backend":"array"' in out.read_text()
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "bogus")
        code = main([
            "sweep", "--protocols", "pairwise_elimination", "--ns", "8",
            "--trials", "1", "--no-progress", "--out", str(tmp_path / "y.jsonl"),
        ])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_sweep_counts_backend(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        out = tmp_path / "counts.jsonl"
        code = main([
            "sweep", "--protocols", "cai_izumi_wada", "loosely_stabilizing",
            "--ns", "10", "--adversaries", "clean", "scramble",
            "--trials", "2", "--seed", "3", "--backend", "counts",
            "--max-interactions", "2000000", "--batch", "250", "--no-progress",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert '"backend":"counts"' in text
        assert '"adversary":"scramble"' in text
        assert "success_rate" in capsys.readouterr().out

    def test_sweep_counts_backend_rejects_elect_leader(self, capsys, tmp_path):
        code = main([
            "sweep", "--protocols", "elect_leader", "--ns", "8", "--rs", "2",
            "--backend", "counts", "--no-progress",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "counts" in err

    def test_backend_choices_come_from_registry(self, capsys):
        from repro.sim.backends import backend_names

        parser = build_parser()
        # Every registered engine parses as a valid --backend choice...
        for name in backend_names():
            args = parser.parse_args(["sweep", "--backend", name])
            assert args.backend == name
        # ...and an unregistered one is rejected by argparse itself.
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--backend", "not_a_backend"])
        capsys.readouterr()  # swallow argparse's usage message
