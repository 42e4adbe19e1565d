"""Command-line interface: ``python -m repro <command>``.

The subcommands mirror the library's main entry points:

* ``run``       — stabilize ``ElectLeader_r`` from a clean start;
* ``recover``   — stabilize from a named adversarial configuration;
* ``tradeoff``  — sweep r at fixed n and print the measured trade-off;
* ``sweep``     — run a scenario grid (protocols × n × r × adversaries ×
  fault rates) with streaming JSONL checkpoints and ``--resume``; with
  ``--shard i/k`` it runs one deterministic shard of the grid, and with
  ``--grid grid.json`` the whole grid arrives as one declarative file
  (flags still override it);
* ``merge``     — validate a complete, disjoint shard set and merge it
  into the byte-identical unsharded checkpoint;
* ``statespace`` — print the analytic bit-complexity comparison table;
* ``trace``      — summarize a ``repro.obs`` trace file (top spans, step-
  phase breakdown) and export Chrome trace-event JSON for Perfetto.

``sweep`` accepts ``--trace PATH`` (equivalent to setting
``$REPRO_TRACE``) to stream span/event records to a JSONL sink while it
runs; tracing never touches an RNG stream, so traced and untraced runs
produce byte-identical checkpoints.

All commands are deterministic given ``--seed`` — including ``tradeoff``
and ``sweep`` under ``--workers N``: trials fan out over a process pool
but each trial's randomness comes from its own derived seed, so worker
count never changes the numbers.  ``--batch`` sets the convergence-check
interval, which is also the batch size of the simulator's fast path.
``sweep --backend`` selects an execution engine from the backend registry
(:mod:`repro.sim.backends`): ``array`` (vectorized per-agent state
codes), ``counts`` (count-vector aggregate) or ``batch`` (trial-
vectorized counts matrix, one lockstep engine per sweep cell) for
finite-state protocols, else the default ``object`` engine (or
``$REPRO_BENCH_BACKEND``); see README "Execution backends".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.adversary.initializers import ADVERSARIES, CODE_ADVERSARIES
from repro.analysis.statespace import comparison_table, elect_leader_bits
from repro.analysis.theory import predicted_stabilization_interactions
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.fabric import FabricError, merge_checkpoints, parse_shard
from repro.obs import TraceError, configure_tracing
from repro.scheduler.rng import make_rng
from repro.sim.backends import BACKEND_OBJECT, backend_names, resolve_backend
from repro.sim.fault_engine import DEFAULT_FAULT_MODEL, fault_model_names
from repro.sim.simulation import Simulation
from repro.sim.sweep import (
    CLEAN,
    PROTOCOLS,
    GridSpec,
    SweepError,
    load_grid_file,
    run_sweep,
)
from repro.sim.trials import format_table, run_trials


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _population_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"population size must be an integer >= 2, got {value}"
        )
    return value


def _tradeoff_r(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"trade-off parameter r must be an integer >= 1, got {value}"
        )
    return value


def _fault_rate(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"fault rate must be >= 0, got {value}")
    return value


def _workers_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = one per CPU), got {value}")
    return value


def _shard_spec(text: str) -> tuple[int, int]:
    try:
        return parse_shard(text)
    except FabricError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


#: Grid values used when neither a flag nor a --grid file supplies one.
#: Keys are GridSpec fields; ``backend=None`` defers to resolve_backend
#: ($REPRO_BENCH_BACKEND, else 'object').
_GRID_DEFAULTS: dict[str, object] = {
    "protocols": ["elect_leader"],
    "ns": [16, 32],
    "rs": [4],
    "adversaries": [CLEAN],
    "fault_rates": [0.0],
    "fault_models": [DEFAULT_FAULT_MODEL],
    "burst_sizes": [1],
    "trials": 5,
    "seed": 0,
    "max_interactions": 20_000_000,
    "check_interval": 1_000,
    "backend": None,
}

#: argparse dest -> GridSpec key for the grid-shaped flags.
_GRID_ARG_KEYS: dict[str, str] = {
    "protocols": "protocols",
    "ns": "ns",
    "rs": "rs",
    "adversaries": "adversaries",
    "fault_rates": "fault_rates",
    "fault_models": "fault_models",
    "burst_sizes": "burst_sizes",
    "trials": "trials",
    "seed": "seed",
    "max_interactions": "max_interactions",
    "batch": "check_interval",
    "backend": "backend",
}


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid-shaped flags of ``sweep``.

    Every flag defaults to ``None`` so :func:`_grid_from_args` can layer
    the three sources cleanly: explicit flag > ``--grid`` file value >
    built-in default (:data:`_GRID_DEFAULTS`).
    """
    batch_help = "interactions per convergence check (the fast-path batch size)"
    parser.add_argument(
        "--grid", default=None, metavar="FILE",
        help="declarative grid file: a JSON object with GridSpec keys "
        "(protocols, ns, rs, adversaries, fault_rates, fault_models, "
        "burst_sizes, trials, seed, max_interactions, check_interval, "
        "backend); explicit flags override its values",
    )
    parser.add_argument(
        "--protocols", nargs="+", choices=sorted(PROTOCOLS), default=None,
        help="protocol axis of the grid",
    )
    parser.add_argument(
        "--ns", nargs="+", type=_population_size, default=None, metavar="N",
        help="population sizes (each >= 2)",
    )
    parser.add_argument(
        "--rs", nargs="+", type=_tradeoff_r, default=None, metavar="R",
        help="trade-off parameters (each >= 1; cells with r > n/2 are skipped)",
    )
    parser.add_argument(
        "--adversaries", nargs="+",
        choices=[CLEAN, *sorted(ADVERSARIES), *sorted(CODE_ADVERSARIES)],
        default=None,
        help="initializer axis ('clean' = protocol's own start; 'scramble'/"
        "'plant_minority' = code-space adversaries for finite-state protocols)",
    )
    parser.add_argument(
        "--fault-rates", nargs="+", type=_fault_rate, default=None, metavar="RATE",
        help="fault bursts per unit of parallel time (0 = no injection)",
    )
    parser.add_argument(
        "--fault-model", dest="fault_models", nargs="+",
        choices=fault_model_names(), default=None, metavar="MODEL",
        help="fault-model axis for cells with a positive fault rate "
        f"(registry: {', '.join(fault_model_names())}; ignored at rate 0). "
        "Fault cells run the availability workload and record availability "
        "and median repair time as first-class JSONL fields.",
    )
    parser.add_argument(
        "--burst-size", dest="burst_sizes", nargs="+", type=_positive_int,
        default=None, metavar="K",
        help="agents corrupted per fault burst (an axis of the grid; "
        "ignored at rate 0, where it collapses to 1)",
    )
    parser.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="execution engine (from the backend registry): 'object' = "
        "per-interaction, 'array' = vectorized per-agent state codes, "
        "'counts' = count-vector aggregate, 'batch' = trial-vectorized "
        "counts matrix running each whole cell in lockstep (the "
        "vectorized engines are finite-state only). "
        "Default: $REPRO_BENCH_BACKEND, else 'object'.",
    )
    parser.add_argument(
        "--trials", type=_positive_int, default=None, help="trials per cell"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-interactions", type=_positive_int, default=None)
    parser.add_argument("--batch", type=_positive_int, default=None, help=batch_help)


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    """Build the GridSpec: flags over the --grid file over the defaults."""
    values = dict(_GRID_DEFAULTS)
    if args.grid is not None:
        values.update(load_grid_file(args.grid))
    for dest, key in _GRID_ARG_KEYS.items():
        flag = getattr(args, dest)
        if flag is not None:
            values[key] = flag
    try:
        backend = resolve_backend(values["backend"])
    except ValueError as error:  # bad $REPRO_BENCH_BACKEND or file backend
        raise _UsageError(str(error)) from error
    return GridSpec(
        protocols=tuple(values["protocols"]),
        ns=tuple(values["ns"]),
        rs=tuple(values["rs"]),
        adversaries=tuple(values["adversaries"]),
        fault_rates=tuple(values["fault_rates"]),
        fault_models=tuple(values["fault_models"]),
        burst_sizes=tuple(values["burst_sizes"]),
        trials=values["trials"],
        seed=values["seed"],
        max_interactions=values["max_interactions"],
        check_interval=values["check_interval"],
        backend=backend,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing leader election in population protocols "
        "(PODC 2025 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    batch_help = "interactions per convergence check (the fast-path batch size)"
    workers_help = "worker processes for trial fan-out (0 = one per CPU)"

    run = sub.add_parser("run", help="stabilize from a clean start")
    run.add_argument("-n", type=_population_size, default=32, help="population size (>= 2)")
    run.add_argument("-r", type=_tradeoff_r, default=4, help="trade-off parameter (>= 1)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-interactions", type=int, default=20_000_000)
    run.add_argument("--batch", type=_positive_int, default=1_000, help=batch_help)

    recover = sub.add_parser("recover", help="stabilize from an adversarial start")
    recover.add_argument("adversary", choices=sorted(ADVERSARIES))
    recover.add_argument("-n", type=_population_size, default=32)
    recover.add_argument("-r", type=_tradeoff_r, default=4)
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--max-interactions", type=int, default=40_000_000)
    recover.add_argument("--batch", type=_positive_int, default=1_000, help=batch_help)

    tradeoff = sub.add_parser("tradeoff", help="sweep r at fixed n")
    tradeoff.add_argument("-n", type=_population_size, default=36)
    tradeoff.add_argument("--trials", type=_positive_int, default=5)
    tradeoff.add_argument("--seed", type=int, default=0)
    tradeoff.add_argument("--workers", type=_workers_count, default=1, help=workers_help)
    tradeoff.add_argument("--batch", type=_positive_int, default=1_000, help=batch_help)

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario grid with streaming JSONL checkpoints",
        description="Expand a Cartesian scenario grid (protocols × n × r × "
        "adversaries × fault rates), run every cell for --trials seeded "
        "trials, stream each outcome to a JSONL checkpoint as it lands, and "
        "print the per-cell aggregate table.  An interrupted sweep continues "
        "from its checkpoint with --resume.  --shard I/K runs one "
        "deterministic shard of the grid (merge the K shard files back with "
        "'repro merge'); --grid FILE reads the whole grid from one JSON "
        "artifact, with flags overriding it.",
    )
    _add_grid_arguments(sweep)
    sweep.add_argument("--workers", type=_workers_count, default=1, help=workers_help)
    sweep.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="I/K",
        help="run only shard I of K (deterministic trial-hash partition; "
        "the checkpoint records the shard and 'repro merge' reassembles "
        "the unsharded file byte-identically)",
    )
    sweep.add_argument(
        "--out", default="sweep.jsonl", metavar="PATH",
        help="JSONL results/checkpoint file (default: sweep.jsonl)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep from --out instead of failing",
    )
    sweep.add_argument(
        "--force", action="store_true",
        help="discard an existing --out file and start over",
    )
    sweep.add_argument(
        "--no-progress", action="store_true", help="suppress the stderr progress line"
    )
    sweep.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append span/event records to this JSONL trace file while the "
        "sweep runs (same as setting $REPRO_TRACE; summarize it with "
        "'repro trace'); tracing never changes the checkpoint bytes",
    )

    merge = sub.add_parser(
        "merge",
        help="merge shard checkpoints into the unsharded file",
        description="Validate a complete set of shard checkpoints (one "
        "sweep, every shard present, each shard complete, no trial counted "
        "twice) and write the merged checkpoint — byte-identical to the "
        "file an unsharded 'repro sweep' of the same grid writes.",
    )
    merge.add_argument(
        "shards", nargs="+", metavar="SHARD_JSONL",
        help="every shard checkpoint of one sharded sweep (any order)",
    )
    merge.add_argument(
        "--out", default="merged.jsonl", metavar="PATH",
        help="merged checkpoint file (default: merged.jsonl)",
    )

    statespace = sub.add_parser("statespace", help="bit-complexity comparison")
    statespace.add_argument(
        "--sizes", type=int, nargs="+", default=[16, 64, 256, 1024, 4096]
    )

    trace = sub.add_parser(
        "trace",
        help="summarize a repro.obs trace file",
        description="Read a JSONL trace written via --trace / $REPRO_TRACE "
        "and print its summary: top spans by total and self time, the "
        "draw/match/apply/retire step-phase table.  --chrome exports the "
        "trace as Chrome trace-event JSON loadable in Perfetto "
        "(ui.perfetto.dev) or chrome://tracing.",
    )
    trace.add_argument("trace_file", metavar="TRACE_JSONL", help="trace file to read")
    trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="summary output: human text or a JSON document (default: text)",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also write the trace as Chrome trace-event JSON to PATH",
    )

    return parser


def _stabilize(
    protocol: ElectLeader, config, seed: int, budget: int, batch: int = 1_000
) -> int:
    sim = Simulation(protocol, config=config, n=None if config else protocol.n, seed=seed)
    result = sim.run_until(
        protocol.is_safe_configuration, max_interactions=budget, check_interval=batch
    )
    if not result.converged:
        print(f"did NOT stabilize within {budget} interactions", file=sys.stderr)
        return 1
    summary = protocol.describe_configuration(result.config)
    print(
        f"stabilized after {result.interactions} interactions "
        f"({result.parallel_time:.1f} parallel time)"
    )
    print(f"leaders: {summary['leaders']}  ranking_correct: {summary['ranking_correct']}")
    print(
        f"events: hard_resets={protocol.events['hard_reset']} "
        f"soft_resets={protocol.events['soft_reset']}"
    )
    return 0


class _UsageError(Exception):
    """A parameter combination argparse can't validate (e.g. r > n/2)."""


def _build_protocol(n: int, r: int) -> ElectLeader:
    try:
        return ElectLeader(ProtocolParams(n=n, r=r))
    except ValueError as error:
        raise _UsageError(str(error)) from error


def cmd_run(args: argparse.Namespace) -> int:
    protocol = _build_protocol(args.n, args.r)
    print(f"ElectLeader_r: n={args.n} r={args.r} seed={args.seed} (clean start)")
    return _stabilize(protocol, None, args.seed, args.max_interactions, args.batch)


def cmd_recover(args: argparse.Namespace) -> int:
    protocol = _build_protocol(args.n, args.r)
    config = ADVERSARIES[args.adversary](protocol, make_rng(args.seed))
    print(
        f"ElectLeader_r: n={args.n} r={args.r} seed={args.seed} "
        f"(adversary: {args.adversary})"
    )
    return _stabilize(protocol, config, args.seed + 1, args.max_interactions, args.batch)


def cmd_tradeoff(args: argparse.Namespace) -> int:
    n = args.n
    rs = sorted({1, 2, 4, max(1, n // 8), max(1, n // 2)})
    rows = []
    for r in rs:
        if r > n // 2:
            continue
        protocol = ElectLeader(ProtocolParams(n=n, r=r))
        summary = run_trials(
            protocol,
            protocol.is_safe_configuration,
            n=n,
            trials=args.trials,
            max_interactions=50_000_000,
            seed=args.seed + r,
            check_interval=args.batch,
            label=f"r={r}",
            workers=args.workers,
            # ElectLeader has no finite state encoding, so this command is
            # object-engine only; pinning it keeps a stray
            # $REPRO_BENCH_BACKEND from turning the sweep into a traceback.
            backend=BACKEND_OBJECT,
        )
        rows.append(
            {
                "r": r,
                "median_interactions": summary.median_interactions,
                "parallel_time": round(summary.median_time, 1),
                "predicted": round(
                    predicted_stabilization_interactions(protocol.params)
                ),
                "state_bits": round(elect_leader_bits(n, r), 1),
            }
        )
    print(format_table(rows, title=f"Space-time trade-off at n={n}"))
    return 0


def _sweep_progress(stream) -> Callable[[int, int], None]:
    """A progress printer: live \\r updates on a tty, sparse lines otherwise."""
    interactive = hasattr(stream, "isatty") and stream.isatty()
    last_reported = -1

    def report(done: int, total: int) -> None:
        nonlocal last_reported
        if interactive:
            end = "\n" if done == total else ""
            print(f"\rsweep: {done}/{total} trials", end=end, file=stream, flush=True)
        else:
            # Non-interactive (CI logs): at most ~10 lines plus the endpoints.
            step = max(1, total // 10)
            if done == total or done == 0 or done - last_reported >= step:
                print(f"sweep: {done}/{total} trials", file=stream, flush=True)
                last_reported = done

    return report


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    if args.trace is not None:
        configure_tracing(args.trace)
    progress = None if args.no_progress else _sweep_progress(sys.stderr)
    result = run_sweep(
        grid,
        workers=args.workers,
        jsonl_path=args.out,
        resume=args.resume,
        force=args.force,
        progress=progress,
        shard=args.shard,
    )
    cells = len(result.rows)
    if result.shard is not None:
        index, count = result.shard
        title = (
            f"Scenario sweep shard {index}/{count}: {len(result.specs)} "
            f"owned trials over {cells} cells"
        )
    else:
        title = f"Scenario sweep: {len(result.specs)} trials over {cells} cells"
    if result.resumed_trials:
        title += f" ({result.resumed_trials} resumed from checkpoint)"
    print(format_table(result.rows, title=title))
    print(f"[per-trial results in {args.out}]")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    report = merge_checkpoints(args.shards, args.out)
    print(f"merged {report.shards} shards ({report.trials} trials) into {report.out}")
    return 0


def cmd_statespace(args: argparse.Namespace) -> int:
    rows = comparison_table(args.sizes)
    print(format_table(rows, title="Bit complexity (log2 #states)"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    # Imported here, not at module top: the summary helpers are only
    # needed by this subcommand.
    import json

    from repro.obs import (
        load_trace,
        render_summary_text,
        summarize_trace,
        to_chrome_trace,
    )

    records = load_trace(args.trace_file)
    summary = summarize_trace(records)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary_text(summary))
    if args.chrome is not None:
        chrome_path = Path(args.chrome)
        chrome_path.write_text(
            json.dumps(to_chrome_trace(records)) + "\n", encoding="utf-8"
        )
        # stderr on purpose: stdout stays machine-parseable under
        # ``--format json`` even when an export rides along.
        print(
            f"[chrome trace written to {chrome_path}; open in ui.perfetto.dev]",
            file=sys.stderr,
        )
    return 0


COMMANDS = {
    "run": cmd_run,
    "recover": cmd_recover,
    "tradeoff": cmd_tradeoff,
    "sweep": cmd_sweep,
    "merge": cmd_merge,
    "statespace": cmd_statespace,
    "trace": cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (FabricError, SweepError, TraceError, _UsageError) as error:
        # Parameter combinations argparse can't see (r > n/2, a checkpoint
        # for a different grid, ...) get one clean line, not a traceback;
        # anything else propagates so real bugs keep their tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
