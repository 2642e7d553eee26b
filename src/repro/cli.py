"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``   — emit a synthetic industrial-shaped netlist as ``.bench``;
* ``analyze``    — SCOAP/COP/label summary for a ``.bench`` netlist;
* ``train``      — train the GCN classifier; writes a model ``.npz`` plus a
  run manifest under ``results/<run>/``;
* ``infer``      — score netlists with a trained model; writes a manifest;
* ``atpg``       — run the random+PODEM ATPG on a ``.bench`` netlist;
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``exec-info``  — print the resolved execution-fabric configuration;
* ``exec-worker`` — join a distributed coordinator as a compute worker
  (the remote end of the ``socket`` execution backend);
* ``serve``      — run the online netlist-scoring daemon (``GET /metrics``
  exposes Prometheus text);
* ``obs-report`` — print where a recorded run's time went (the span tree
  of its ``trace.json``, wall/CPU per span) and write it to
  ``results/<run>/report.md``.

Every subcommand accepts ``--log-level``, ``--log-format {text,json}`` and
``--log-file`` (see :mod:`repro.obs.logs`).  Failures exit with a distinct
status per error class (config=2, bad input=3, runtime=4) and a one-line
typed error on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser", "exit_code_for"]

#: exit statuses by failure class (argparse usage errors also exit 2)
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4
#: backwards-compatible alias for the pre-split single error status
EXIT_USAGE = EXIT_CONFIG

_EXIT_CODES_HELP = (
    "exit status: 0 on success; 2 for configuration errors (bad flags, "
    "invalid limits); 3 for bad inputs (missing/malformed netlist, corrupt "
    "model file); 4 for runtime failures (divergence, worker loss)"
)


def exit_code_for(exc: BaseException) -> int:
    """Map a typed failure to its CLI exit status.

    Input errors (the request/file is bad): netlist parse/validation
    failures, corrupt checkpoints, missing files.  Config errors (the tool
    was invoked wrong): :class:`~repro.resilience.errors.ConfigError`.
    Everything else in the :class:`~repro.resilience.errors.ReproError`
    hierarchy is a runtime failure.
    """
    from repro.circuit.validate import NetlistValidationError
    from repro.resilience.errors import (
        CheckpointCorruptError,
        ConfigError,
        NetlistFormatError,
    )

    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(
        exc,
        (
            NetlistFormatError,
            NetlistValidationError,
            CheckpointCorruptError,
            FileNotFoundError,
            IsADirectoryError,
            PermissionError,
        ),
    ):
        return EXIT_INPUT
    return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    from repro.obs import logs

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'19 GCN testability-analysis reproduction toolkit",
        epilog=_EXIT_CODES_HELP,
    )
    # Shared observability flags, accepted after any subcommand.
    log_flags = argparse.ArgumentParser(add_help=False)
    logs.add_cli_args(log_flags)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", parents=[log_flags], help="generate a synthetic netlist"
    )
    gen.add_argument("output", help="output .bench path")
    gen.add_argument("--gates", type=int, default=2000)
    gen.add_argument("--seed", type=int, default=0)

    ana = sub.add_parser(
        "analyze", parents=[log_flags], help="testability analysis of a netlist"
    )
    ana.add_argument("netlist", help="input .bench path")
    ana.add_argument("--patterns", type=int, default=256)
    ana.add_argument("--threshold", type=float, default=0.01)
    ana.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: cores)"
    )

    train = sub.add_parser(
        "train",
        parents=[log_flags],
        help="train the GCN observability classifier",
        description="Train on the given .bench netlists (or synthetic "
        "designs when none are given), save the model, and write a run "
        "manifest + span-tree trace under results/<run-id>/.",
        epilog=_EXIT_CODES_HELP,
    )
    train.add_argument(
        "netlists", nargs="*", help=".bench training designs (default: synthetic)"
    )
    train.add_argument("--output", "-o", default="model.npz", help="model path")
    train.add_argument("--epochs", type=int, default=60)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--designs", type=int, default=2, help="synthetic designs when no netlists"
    )
    train.add_argument(
        "--gates", type=int, default=600, help="gates per synthetic design"
    )
    train.add_argument("--patterns", type=int, default=256, help="labelling patterns")
    train.add_argument("--threshold", type=float, default=0.01)
    train.add_argument("--run-name", default=None, help="run id (default: derived)")

    inf = sub.add_parser(
        "infer",
        parents=[log_flags],
        help="score netlists with a trained model",
        description="Score the given .bench netlists with a GCN or cascade "
        "model file (as api.score does) and write a run manifest + span-tree "
        "trace under results/<run-id>/.",
        epilog=_EXIT_CODES_HELP,
    )
    inf.add_argument("model", help="model .npz (GCN or cascade)")
    inf.add_argument("netlists", nargs="+", help=".bench designs to score")
    inf.add_argument(
        "--fp32", action="store_true", help="deployment-style float32 inference"
    )
    inf.add_argument(
        "--backend",
        choices=["auto", "single", "sharded"],
        default="auto",
        help="inference engine (auto routes large graphs to sharded)",
    )
    inf.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: cores)"
    )
    inf.add_argument(
        "--shards", type=int, default=None, help="shard count (default: workers)"
    )
    inf.add_argument("--run-name", default=None, help="run id (default: derived)")

    atpg = sub.add_parser("atpg", parents=[log_flags], help="run ATPG on a netlist")
    atpg.add_argument("netlist", help="input .bench path")
    atpg.add_argument("--max-random", type=int, default=2048)
    atpg.add_argument("--seed", type=int, default=0)
    atpg.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: cores)"
    )

    exp = sub.add_parser(
        "experiment", parents=[log_flags], help="regenerate a paper table/figure"
    )
    exp.add_argument(
        "name",
        choices=["table1", "table2", "table3", "figure8", "figure9", "figure10"],
    )
    exp.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for training checkpoints; an interrupted experiment "
        "resumes its model training from the latest snapshot here",
    )

    sub.add_parser(
        "report",
        parents=[log_flags],
        help="summarise results/*.json from a previous benchmark run",
    )

    sub.add_parser(
        "exec-info",
        parents=[log_flags],
        help="show the resolved execution-fabric configuration",
        description="Print the execution fabric's resolved backend, worker "
        "count, chaos-injection state (REPRO_EXEC_BACKEND / REPRO_CHAOS), "
        "the distributed-coordinator settings, and the result of sweeping "
        "orphaned shared-memory segments.",
    )

    wkr = sub.add_parser(
        "exec-worker",
        parents=[log_flags],
        help="join a distributed execution coordinator as a worker",
        description="Connect to a repro.exec coordinator (the 'socket' "
        "execution backend) and serve ShardTasks until the coordinator "
        "shuts the fleet down.  Run one per core on each compute host.",
    )
    wkr.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address, e.g. 127.0.0.1:7077 (the coordinator "
        "prints its bound address; see also REPRO_EXEC_COORD)",
    )
    wkr.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity for re-registration after reconnects "
        "(default: host-pid derived)",
    )

    srv = sub.add_parser(
        "serve",
        parents=[log_flags],
        help="run the online netlist-scoring daemon",
        description="Long-running HTTP service scoring .bench netlists with "
        "the best available predictor (POST /v1/score, /v1/score:batch, "
        "/reload; GET /healthz, /readyz, /metrics — Prometheus text "
        "exposition).  Concurrent requests coalesce into block-diagonal "
        "batches within the --batch-max-* budgets; every pass, batched or "
        "not, picks the single or sharded engine by the same rule as "
        "`repro infer`.  SIGTERM drains gracefully.",
        epilog=_EXIT_CODES_HELP,
    )
    srv.add_argument(
        "--model",
        default=None,
        help="model .npz (GCN or cascade); omitted = SCOAP-heuristic only",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8351, help="0 binds an ephemeral port"
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=2,
        help="scoring threads, and as many forked admission workers (request "
        "bodies are parsed and turned into graphs there, off the daemon's "
        "interpreter lock)",
    )
    srv.add_argument("--queue-capacity", type=int, default=16)
    srv.add_argument(
        "--deadline-ms", type=int, default=30_000, help="default per-request deadline"
    )
    srv.add_argument(
        "--batch-max-requests",
        type=int,
        default=16,
        help="netlists per coalesced block-diagonal batch (1: one scoring "
        "pass per request)",
    )
    srv.add_argument(
        "--batch-max-nodes",
        type=int,
        default=200_000,
        help="total node budget per batch; a larger design is scored in a "
        "pass of its own",
    )
    srv.add_argument(
        "--debug",
        action="store_true",
        help="request logging + fault-injection request fields (smoke tests)",
    )

    rep = sub.add_parser(
        "obs-report",
        parents=[log_flags],
        help="print where a recorded run's time went (span tree + fleet metrics)",
        description="Print the span tree a run recorded in trace.json (wall "
        "and CPU per span) and the fleet-labelled metric families of its "
        "manifest, and write both to results/<run>/report.md.  Defaults to "
        "the most recent run directory containing a manifest.",
        epilog=_EXIT_CODES_HELP,
    )
    rep.add_argument(
        "--run",
        default=None,
        help="run id under results/ (or a run directory path)",
    )
    return parser


def _execution(**overrides):
    """ExecutionConfig from env + CLI flags; unset flags defer to env."""
    from repro import api

    return api.ExecutionConfig.from_env(
        **{k: v for k, v in overrides.items() if v is not None}
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import api

    netlist = api.generate_design(args.gates, seed=args.seed)
    api.save_netlist(netlist, args.output)
    print(f"wrote {netlist} to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import api

    netlist = api.load_netlist(args.netlist)
    print(netlist)
    scoap = api.compute_scoap(netlist)
    cop = api.compute_cop(netlist)
    labels = api.label_nodes(
        netlist,
        api.LabelConfig(
            n_patterns=args.patterns,
            threshold=args.threshold,
            execution=_execution(workers=args.workers),
        ),
    )
    print(f"SCOAP CO: median={np.median(scoap.co):.1f} max={scoap.co.max():.0f}")
    print(f"COP obs:  median={np.median(cop.obs):.4f} min={cop.obs.min():.2e}")
    print(
        f"difficult-to-observe: {labels.n_positive}/{len(labels.labels)} "
        f"({labels.positive_rate:.2%}) at threshold {args.threshold}"
    )
    worst = np.argsort(labels.observed_count)[:10]
    names = ", ".join(netlist.cell_name(int(v)) for v in worst)
    print(f"ten least-observed nodes: {names}")
    return 0


def _load_or_generate(args: argparse.Namespace):
    """Training designs: the given .bench files or synthetic stand-ins."""
    from repro import api

    if args.netlists:
        return [api.load_netlist(path) for path in args.netlists]
    return [
        api.generate_design(args.gates, seed=args.seed + i, name=f"synth-{i}")
        for i in range(args.designs)
    ]


def _cmd_train(args: argparse.Namespace) -> int:
    from repro import api
    from repro.obs import RunRecorder

    config = {
        "epochs": args.epochs,
        "lr": args.lr,
        "optimizer": args.optimizer,
        "gates": args.gates,
        "patterns": args.patterns,
        "threshold": args.threshold,
        "output": args.output,
    }
    with RunRecorder(
        "train",
        command="repro train",
        config=config,
        seed=args.seed,
        run_id=args.run_name,
    ) as run:
        netlists = _load_or_generate(args)
        graphs = []
        for netlist in netlists:
            labels = api.label_nodes(
                netlist,
                api.LabelConfig(n_patterns=args.patterns, threshold=args.threshold),
            )
            graphs.append(
                api.build_graph(netlist, labels=labels.labels, name=netlist.name)
            )
        run.set_dataset(graphs)
        trained = api.train(
            graphs,
            config=api.TrainConfig(
                epochs=args.epochs, lr=args.lr, optimizer=args.optimizer
            ),
            gcn=api.GCNConfig(seed=args.seed),
        )
        history = trained.history
        model_path = trained.save(args.output)
        run.note(
            model_path=str(model_path),
            final_loss=history.loss[-1] if history.loss else None,
            final_train_accuracy=history.final_train_accuracy(),
        )
    print(
        f"trained on {len(graphs)} graph(s) for {args.epochs} epochs: "
        f"train accuracy {history.final_train_accuracy():.2%}"
    )
    print(f"model: {model_path}")
    print(f"manifest: {run.manifest_path}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.serialize import load_model
    from repro.obs import RunRecorder

    execution = _execution(
        backend=args.backend,
        workers=args.workers,
        shards=args.shards,
        dtype="float32" if args.fp32 else None,
    )
    model = load_model(args.model)
    if isinstance(model, api.GCN):
        model = api.FastInference(model.layer_weights(), execution=execution)
    config = {
        "model": args.model,
        "fp32": args.fp32,
        "backend": args.backend,
        "workers": args.workers,
        "shards": args.shards,
    }
    with RunRecorder(
        "infer", command="repro infer", config=config, run_id=args.run_name
    ) as run:
        graphs = [
            api.build_graph(api.load_netlist(path), name=path)
            for path in args.netlists
        ]
        run.set_dataset(graphs)
        summaries = []
        for graph in graphs:
            positives = api.score(model, graph).n_positive
            summaries.append(
                {
                    "design": graph.name,
                    "num_nodes": graph.num_nodes,
                    "positives": positives,
                    "positive_rate": round(positives / max(1, graph.num_nodes), 6),
                }
            )
        run.note(designs=summaries)
    for row in summaries:
        print(
            f"{row['design']}: {row['positives']}/{row['num_nodes']} "
            f"difficult-to-observe ({row['positive_rate']:.2%})"
        )
    print(f"manifest: {run.manifest_path}")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro import api

    netlist = api.load_netlist(args.netlist)
    result = api.run_atpg(
        netlist,
        config=api.AtpgConfig(
            max_random_patterns=args.max_random,
            seed=args.seed,
            execution=_execution(workers=args.workers),
        ),
    )
    print(
        f"faults={result.n_faults} coverage={result.fault_coverage:.2%} "
        f"patterns={result.pattern_count} untestable={result.untestable} "
        f"aborted={result.aborted}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import os

    if args.checkpoint_dir:
        # Consumed by repro.experiments.common: model fits checkpoint (and
        # resume) under this directory.
        os.environ["REPRO_CHECKPOINT_DIR"] = args.checkpoint_dir
    from repro.data.benchmarks import benchmark_scale
    from repro.data.dataset import load_suite
    from repro.experiments import (
        experiment_label_config,
        format_accuracy,
        format_depth_sweep,
        format_f1,
        format_scalability,
        format_statistics,
        format_testability,
        run_accuracy_comparison,
        run_depth_sweep,
        run_f1_comparison,
        run_scalability,
        run_testability_comparison,
    )

    from repro.obs import RunRecorder

    with RunRecorder(
        f"experiment-{args.name}", command=f"repro experiment {args.name}"
    ) as run:
        if args.name == "figure10":
            result = run_scalability()
            run.note(
                sizes=result.sizes,
                fast_seconds=result.fast_seconds,
                recursive_seconds=result.recursive_seconds,
                speedups=result.speedups(),
            )
            table = format_scalability(result)
        else:
            scale = benchmark_scale()
            suite = load_suite(scale=scale, label_config=experiment_label_config())
            run.set_dataset(d.graph for d in suite.values())
            if args.name == "table1":
                table = format_statistics(suite)
            elif args.name == "table2":
                table = format_accuracy(run_accuracy_comparison(suite))
            elif args.name == "figure8":
                table = format_depth_sweep(run_depth_sweep(suite))
            elif args.name == "figure9":
                f1 = run_f1_comparison(suite, scale)
                run.note(single_f1=f1.single, multi_f1=f1.multi)
                table = format_f1(f1)
            elif args.name == "table3":
                table = format_testability(run_testability_comparison(suite, scale))
        run.note(table=table)
    print(table)
    print(f"manifest: {run.manifest_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_report

    print(render_report())
    return 0


def _cmd_exec_info(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.exec import (
        CHAOS_ENV,
        COORD_ENV,
        EXEC_BACKEND_ENV,
        ChaosSpec,
        coordinator_address,
        leaked_segment_names,
        resolve_exec_backend,
        sweep_orphans,
    )
    from repro.exec import net as exec_net

    execution = _execution()
    chaos = ChaosSpec.from_env()
    host, port = coordinator_address()
    exec_net.require_token(host)
    removed = sweep_orphans()
    info = {
        "backend": {
            "requested": execution.exec_backend,
            "resolved": resolve_exec_backend(execution.exec_backend),
            "env": os.environ.get(EXEC_BACKEND_ENV) or None,
        },
        "workers": execution.resolved_workers(),
        "chaos": (
            None
            if chaos is None
            else {
                "mode": chaos.mode,
                "rate": chaos.rate,
                "seed": chaos.seed,
                "hang_seconds": chaos.hang_seconds,
                "env": os.environ.get(CHAOS_ENV),
            }
        ),
        "coordinator": {
            "address": f"{host}:{port}",
            "env": os.environ.get(COORD_ENV) or None,
            "token_set": bool(os.environ.get(exec_net.TOKEN_ENV)),
            "connect_timeout_s": exec_net.connect_timeout(),
            "heartbeat_interval_s": exec_net.heartbeat_interval(),
            "heartbeat_timeout_s": exec_net.heartbeat_timeout(),
        },
        "sweep": {"removed": removed, "remaining": leaked_segment_names()},
    }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_exec_worker(args: argparse.Namespace) -> int:
    from repro.exec import parse_address, run_worker

    address = parse_address(args.connect)
    run_worker(address, worker_id=args.worker_id)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from repro.obs.manifest import write_report

    root = Path(os.environ.get("REPRO_RESULTS", "results"))
    if args.run:
        manifests = [
            root / args.run / "manifest.json",
            Path(args.run) / "manifest.json",
        ]
    else:
        manifests = sorted(
            root.glob("*/manifest.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
    manifest = next((m for m in manifests if m.is_file()), None)
    if manifest is None:
        which = f" {args.run!r}" if args.run else ""
        print(
            f"error: no recorded run{which} under {root}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    print(write_report(manifest.parent), end="")
    print(f"report: {manifest.parent / 'report.md'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline_ms=args.deadline_ms,
        batch_max_requests=args.batch_max_requests,
        batch_max_nodes=args.batch_max_nodes,
        debug=args.debug,
    )
    return serve(config=config, model_path=args.model, announce=print)


def main(argv: list[str] | None = None) -> int:
    from repro.obs import logs
    from repro.resilience.errors import ReproError

    args = build_parser().parse_args(argv)
    logs.configure_from_args(args)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "train": _cmd_train,
        "infer": _cmd_infer,
        "atpg": _cmd_atpg,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "exec-info": _cmd_exec_info,
        "exec-worker": _cmd_exec_worker,
        "serve": _cmd_serve,
        "obs-report": _cmd_obs_report,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
