"""Command-line interface: ``python -m repro <command>``.

The commands cover the common workflows:

* ``datasets`` — print Table-3-style characteristics of the synthetic dataset
  stand-ins (entities, triples, average cluster size, gold accuracy);
* ``evaluate`` — run one accuracy evaluation of a chosen dataset with a chosen
  sampling design and quality requirement, and print the report
  (``--backend sqlite`` stores the built dataset in a disk-resident database
  instead of columns in RAM and yields the identical estimate under the same
  seed; ``--from-snapshot`` evaluates a reopened labelled snapshot in the
  format it was stored in);
* ``experiment`` — regenerate one of the paper's tables/figures and print the
  rows (the same functions the benchmark suite calls);
* ``snapshot`` — build a dataset and persist it with
  :meth:`~repro.generators.datasets.LabelledKG.save`: a memory-mappable
  snapshot directory, or a SQLite database with ``--backend sqlite``;
  ``--with-labels`` stores the ground-truth label array next to the graph;
* ``monitor`` — run an evolving-KG monitoring session (Section 7.3.2): a base
  dataset receives a stream of update batches and an incremental evaluator
  tracks its accuracy on a columnar base with zero-copy delta updates;
  ``--snapshot`` persists (and on re-runs reopens, like ``evaluate
  --from-snapshot``) the base graph plus its labels, so the expensive
  build/labelling happens once;
* ``serve`` — run the long-lived multi-session evaluation daemon: graphs stay
  attached across requests, the latest estimate of every session is an O(1)
  cached read, and SIGTERM drains gracefully (finish in-flight rounds,
  checkpoint every session to ``--state-dir``, export ``--metrics-out``);
* ``client`` — talk to a running daemon: ``run`` (the served twin of
  ``monitor`` — bit-identical trajectories), ``estimate`` (non-blocking
  cached read), ``poll`` (threshold wait), ``sessions`` and ``detach``;
* ``scenario`` — run declarative stress-scenario packs through the real
  engine with statistical gates: ``run`` executes every scenario's seeded
  replications on a chosen backend and checks empirical CI coverage against
  a Wilson tolerance band, ``compare`` diffs a ``SCENARIOS_*.json`` result
  file against a committed baseline, ``list`` shows the registry (see
  ``docs/scenarios.md``).

``evaluate`` and ``monitor`` run one single-stream loop in this process at
every graph size: the random stream of a seeded run depends on the seed, the
data and the quality target only.

``evaluate --from-snapshot``, ``monitor --snapshot`` and a served
``snapshot`` session reopen a labelled snapshot with
:meth:`~repro.generators.datasets.LabelledKG.open`; a path it cannot read
fails with one ``cannot open snapshot <path>: <reason>`` line.

Examples
--------
::

    python -m repro datasets
    python -m repro evaluate --dataset nell --design twcs --moe 0.05 --seed 7
    python -m repro evaluate --dataset nell --backend sqlite
    python -m repro experiment table5 --trials 10
    python -m repro snapshot --dataset movie --out movie.snap --with-labels
    python -m repro snapshot --dataset movie --out movie.sqlite --backend sqlite --with-labels
    python -m repro evaluate --from-snapshot movie.snap
    python -m repro monitor --dataset movie --batches 5
    python -m repro monitor --dataset nell \\
        --log-json run.jsonl --metrics-out monitor.json
    python -m repro metrics summarize monitor.json
    python -m repro serve --listen 127.0.0.1:7400 --state-dir /tmp/serve-state
    python -m repro client run --connect 127.0.0.1:7400 --dataset nell \\
        --evaluator ss --batches 2
    python -m repro client estimate --connect 127.0.0.1:7400 --session session-1
    python -m repro scenario run --pack builtin-smoke --backend sqlite \\
        --out SCENARIOS_smoke.json
    python -m repro scenario compare baselines/SCENARIOS_smoke.json SCENARIOS_smoke.json

``evaluate``, ``monitor`` and ``serve`` all accept ``--log-json PATH`` /
``--log-level`` (structured JSON-lines logs) and ``--metrics-out PATH`` (a
mergeable metrics snapshot written on exit); ``metrics summarize`` merges any
set of snapshots and lists their series.  Observability never touches a numpy
RNG stream: trajectories are bit-identical with the flags on or off.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

# Only what `evaluate` runs is imported here; every other command imports
# its own subsystem, so a cold `evaluate` loads none of them.
from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.generators.datasets import DATASETS, LabelledKG, make_dataset
from repro.sampling import DESIGNS, make_design

__all__ = ["main", "build_parser", "MONITOR_HEADER", "monitor_row"]


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.kg.statistics import cluster_size_summary

    rows = []
    for name in DATASETS:
        data = make_dataset(name, args.seed, args.movie_scale)
        summary = cluster_size_summary(data.graph)
        rows.append(
            {
                "dataset": data.name,
                "entities": summary.num_entities,
                "triples": summary.num_triples,
                "avg_cluster_size": summary.mean_size,
                "max_cluster_size": summary.max_size,
                "gold_accuracy": data.true_accuracy,
            }
        )
    print(format_table(rows, title="Dataset characteristics (synthetic stand-ins, cf. Table 3)"))
    return 0


def _open_snapshot(path: str) -> LabelledKG:
    try:
        return LabelledKG.open(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _load_cli_secret(args: argparse.Namespace):
    if not getattr(args, "secret_file", None):
        return None
    from repro.sampling.rpc import load_secret_file

    try:
        return load_secret_file(args.secret_file)
    except OSError as exc:
        raise SystemExit(f"cannot read --secret-file {args.secret_file}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.from_snapshot:
        # Evaluated in the format it was stored in: a SQLite snapshot stays
        # on disk, which is what keeps a cold audit from reading every triple.
        data = _open_snapshot(args.from_snapshot)
    else:
        # A dataset stand-in is built as columns in RAM.
        data = make_dataset(args.dataset, args.seed, args.movie_scale)
        if args.backend == "sqlite":
            data = data.to_sqlite()
    design = make_design(
        args.design, data.graph, args.second_stage_size, args.seed, allocation=args.allocation
    )
    annotator = SimulatedAnnotator(data.oracle, seed=args.seed)
    config = EvaluationConfig(moe_target=args.moe, confidence_level=args.confidence)
    report = StaticEvaluator(design, annotator, config).run()
    interval = report.confidence_interval
    # `shards=1` and `(R rounds)` stay in the report because the cold-audit
    # workload of perfbench parses both (`_REPORT_FIELDS` in perfbench/workloads.py).
    print(f"dataset            : {data.name}")
    print(f"design             : {args.design} (m={args.second_stage_size}, shards=1)")
    print(f"true accuracy      : {data.true_accuracy:.1%} (hidden from the estimator)")
    print(f"estimated accuracy : {report.accuracy:.1%}")
    print(f"{args.confidence:.0%} interval     : [{interval.lower:.1%}, {interval.upper:.1%}]")
    print(f"margin of error    : {report.margin_of_error:.3f} (target {args.moe})")
    print(f"sample units       : {report.num_units} ({report.iterations} rounds)")
    print(f"triples annotated  : {report.num_triples_annotated}")
    print(f"entities identified: {report.num_entities_identified}")
    print(f"annotation cost    : {report.annotation_cost_hours:.2f} hours")
    return 0 if report.satisfied else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    data = make_dataset(args.dataset, args.seed, args.movie_scale)
    path = data.save(args.out, backend=args.backend, labels=args.with_labels)
    if args.backend == "sqlite":
        layout, label_note = "sqlite database (WAL)", "stored (meta table)"
    else:
        layout, label_note = "mmap-able directory", "stored (format v2)"
    print(f"dataset  : {data.name}")
    print(f"entities : {data.graph.num_entities}")
    print(f"triples  : {data.graph.num_triples}")
    print(f"labels   : {label_note if args.with_labels else 'not stored'}")
    print(f"snapshot : {path} ({layout})")
    return 0


#: Header of the trajectory table ``monitor`` and ``client`` print.
MONITOR_HEADER = "batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)"


def monitor_row(record) -> str:
    """One :class:`~repro.evolving.monitor.MonitorRecord` as a row under
    :data:`MONITOR_HEADER`; ``client run`` prints the rows ``monitor`` prints."""
    return (
        f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
        f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
        f"{record.incremental_cost_hours:12.2f}  {record.cumulative_cost_hours:12.2f}"
    )


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.evolving.baseline import BaselineEvolvingEvaluator
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
    from repro.generators.workload import UpdateWorkloadGenerator

    # The delta machinery evolves a frozen columnar base, so every base ends
    # up as columns; to_columnar() hands a columnar graph back unchanged.
    if args.snapshot and Path(args.snapshot).exists():
        data = _open_snapshot(args.snapshot).to_columnar()
        print(f"base KG  : {data.graph!r} (reopened from {args.snapshot})")
    else:
        data = make_dataset(args.dataset, args.seed, args.movie_scale).to_columnar()
        if args.snapshot:
            data.save(args.snapshot)
            print(f"base KG  : {data.graph!r} (snapshot saved to {args.snapshot})")
        else:
            print(f"base KG  : {data.graph!r}")

    evaluator_classes = {
        "rs": ReservoirIncrementalEvaluator,
        "ss": StratifiedIncrementalEvaluator,
        "baseline": BaselineEvolvingEvaluator,
    }
    config = EvaluationConfig(moe_target=args.moe, confidence_level=args.confidence)
    evaluator = evaluator_classes[args.evaluator](data, config=config, seed=args.seed)
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.evaluate_base()
    workload = UpdateWorkloadGenerator(data, seed=args.seed)
    batch_size = max(1, int(round(args.batch_fraction * data.graph.num_triples)))
    for batch, batch_oracle in workload.generate_sequence(
        args.batches, batch_size, args.update_accuracy
    ):
        monitor.apply_update(batch, batch_oracle)

    print(f"evaluator: {args.evaluator} (columnar backend)")
    print(MONITOR_HEADER)
    for record in monitor.records:
        print(monitor_row(record))
    final = monitor.records[-1]
    return 0 if final.estimation_error <= max(2 * args.moe, 0.15) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the long-lived multi-session evaluation daemon."""
    import signal
    import threading

    from repro.sampling.rpc import parse_node_address
    from repro.serve.server import EvalServer

    host, port = parse_node_address(args.listen)
    server = EvalServer(
        host,
        port,
        secret=_load_cli_secret(args),
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
        root_seed=args.root_seed,
    )

    # SIGTERM/SIGINT request a *drain*, not an exit: set the stop event and
    # return to the foreground wait, which finishes every admitted round,
    # checkpoints all sessions, and falls through to main()'s finally block
    # so --metrics-out captures the daemon's full lifetime.
    stop = threading.Event()

    def _on_term(signum, frame):  # pragma: no cover - signal path
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_term)
        except ValueError:  # pragma: no cover - not the main thread (tests)
            pass

    bound_host, bound_port = server.start()
    args.obs_node_id = f"{bound_host}:{bound_port}"
    # Single parseable line: launchers using port 0 read the real port.
    print(f"serve listening on {bound_host}:{bound_port}", flush=True)
    if args.state_dir:
        print(f"state dir          {args.state_dir}", flush=True)
    try:
        server.wait(stop)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    print("serve draining", flush=True)
    server.shutdown(drain=True)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``repro client``: talk to a running serve daemon."""
    from repro.sampling.rpc import RPCError
    from repro.serve.client import ServeClient, ServeRequestError

    secret = _load_cli_secret(args)
    try:
        with ServeClient(args.connect, secret=secret) as client:
            if args.client_command == "run":
                return _client_run(args, client)
            if args.client_command == "estimate":
                reply = client.estimate(args.session)
                print(f"session  : {reply['session']}")
                print(f"records  : {reply['num_records']}  pending: {reply['pending']}")
                if reply["failed"]:
                    print(f"failed   : {reply['failed']}")
                    return 1
                if reply["latest"] is None:
                    print("estimate : (no completed rounds yet)")
                    return 0
                print(MONITOR_HEADER)
                print(monitor_row(reply["latest"]["record"]))
                return 0
            if args.client_command == "poll":
                reply = client.poll(
                    args.session,
                    min_records=args.min_records,
                    moe_below=args.moe_below,
                    timeout=args.timeout,
                )
                state = "satisfied" if reply["satisfied"] else "timeout"
                print(f"session  : {reply['session']}  ({state})")
                if reply["failed"]:
                    print(f"failed   : {reply['failed']}")
                if reply["latest"] is not None:
                    print(MONITOR_HEADER)
                    print(monitor_row(reply["latest"]["record"]))
                return 0 if reply["satisfied"] else 1
            if args.client_command == "sessions":
                entries = client.sessions()["entries"]
                if not entries:
                    print("(no attached sessions)")
                    return 0
                print("session                evaluator  dataset     records  pending")
                for entry in entries:
                    failed = "  FAILED" if entry["failed"] else ""
                    print(
                        f"{entry['session']:<22} {entry['evaluator']:<10} "
                        f"{str(entry['dataset']):<11} {entry['num_records']:>7}  "
                        f"{entry['pending']:>7}{failed}"
                    )
                return 0
            if args.client_command == "detach":
                reply = client.detach(args.session)
                print(f"detached : {reply['session']}")
                return 0
    except ServeRequestError as exc:
        print(f"serve error [{exc.code}]: {exc}", flush=True)
        return 1
    except (RPCError, OSError) as exc:
        # Unreachable daemon, wrong secret, dropped connection: one line, not
        # a traceback.
        print(f"serve error: {exc}", flush=True)
        return 1
    raise SystemExit(f"unknown client command {args.client_command!r}")


def _client_run(args: argparse.Namespace, client) -> int:
    """Drive one monitoring session through the daemon (mirrors ``monitor``)."""
    from repro.generators.workload import UpdateWorkloadGenerator

    # The workload stream is generated client-side from the same dataset the
    # daemon attaches, exactly like an external update producer would.
    data = make_dataset(args.dataset, args.seed, args.movie_scale).to_columnar()
    spec: dict = {
        "dataset": args.dataset,
        "dataset_seed": args.seed,
        "movie_scale": args.movie_scale,
        "evaluator": args.evaluator,
        "seed": args.seed,
        "moe": args.moe,
        "confidence": args.confidence,
    }
    reply = client.attach(spec, session=args.session)
    session = reply["session"]
    resumed = " (resumed)" if reply.get("resumed") else ""
    print(f"session  : {session}{resumed} seed={reply['seed']}")
    workload = UpdateWorkloadGenerator(data, seed=args.seed)
    batch_size = max(1, int(round(args.batch_fraction * data.graph.num_triples)))
    for batch, batch_oracle in workload.generate_sequence(
        args.batches, batch_size, args.update_accuracy
    ):
        client.submit_batch(session, batch, batch_oracle)
    entries = client.trajectory(session)["entries"]
    print(f"evaluator: {args.evaluator} (served by {args.connect})")
    print(MONITOR_HEADER)
    for entry in entries:
        print(monitor_row(entry["record"]))
    if args.detach:
        client.detach(session)
    final = entries[-1]["record"]
    return 0 if final.estimation_error <= max(2 * args.moe, 0.15) else 1


#: Each experiment's runner, called with the :mod:`repro.experiments` module
#: (imported only when an experiment runs) and the parsed arguments.
_EXPERIMENTS = {
    "table4": lambda ex, args: ex.format_table(
        ex.table4_movie_cost(args.trials, args.seed, args.movie_scale),
        title="Table 4: MOVIE evaluation cost",
    ),
    "table5": lambda ex, args: ex.format_table(
        ex.table5_static_comparison(args.trials, args.seed, args.movie_scale),
        title="Table 5: static-KG evaluation",
    ),
    "table6": lambda ex, args: ex.format_table(
        ex.table6_kgeval_comparison(max(1, args.trials // 2), args.seed),
        title="Table 6: TWCS vs KGEval",
    ),
    "table7": lambda ex, args: ex.format_table(
        ex.table7_stratification(args.trials, args.seed, args.movie_scale),
        title="Table 7: stratified TWCS",
    ),
    "fig5": lambda ex, args: ex.format_table(
        ex.figure5_confidence_sweep(args.trials, args.seed, args.movie_scale),
        title="Figure 5: confidence-level sweep",
    ),
    "fig6": lambda ex, args: ex.format_table(
        [
            row
            for row in ex.figure6_optimal_m(max(1, args.trials // 2), args.seed)
            if "annotation_hours" in row
        ],
        title="Figure 6: optimal second-stage size",
    ),
    "fig7": lambda ex, args: "\n".join(
        ex.format_table(rows, title=f"Figure 7 ({label})")
        for label, rows in ex.figure7_scalability(max(1, args.trials // 2), args.seed).items()
    ),
    "fig8": lambda ex, args: "\n".join(
        ex.format_table(rows, title=f"Figure 8 ({label})")
        for label, rows in ex.figure8_single_update(
            max(1, args.trials // 2), args.seed, args.movie_scale
        ).items()
    ),
}


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``repro scenario run|compare|list``: the declarative stress-pack registry."""
    from repro.scenarios import (
        BUILTIN_PACKS,
        compare_documents,
        format_results_table,
        load_pack,
        load_results,
        results_to_document,
        run_pack,
        write_results,
    )

    if args.scenario_command == "list":
        if args.pack is None:
            print("built-in packs:")
            for name in BUILTIN_PACKS:
                pack = load_pack(name)
                print(f"  {name:<16} {len(pack.scenarios)} scenarios — {pack.description}")
            print("(pass --pack NAME_OR_FILE to list the scenarios inside a pack)")
            return 0
        pack = load_pack(args.pack)
        print(f"pack {pack.name}: {pack.description}")
        for spec in pack.scenarios:
            print(f"  {spec.name:<24} {spec.kind:<9} x{spec.replications:<4} {spec.description}")
        return 0

    if args.scenario_command == "compare":
        baseline = load_results(args.baseline)
        current = load_results(args.current)
        differences = compare_documents(
            baseline, current, float_tolerance=args.float_tolerance
        )
        if not differences:
            print(f"OK: {args.current} reproduces {args.baseline}")
            return 0
        print(f"{len(differences)} difference(s) against baseline:")
        for line in differences:
            print(f"  {line}")
        return 1

    # run
    pack = load_pack(args.pack)
    only = tuple(args.only) if args.only else None
    results = run_pack(
        pack,
        backend=args.backend,
        replications=args.replications,
        root_seed=args.root_seed,
        only=only,
        progress=lambda result: print(
            f"  {result.name}: {'PASS' if result.passed else 'FAIL'}", file=sys.stderr
        ),
    )
    print(format_results_table(results))
    if args.out:
        document = results_to_document(pack.name, args.backend, args.root_seed, results)
        written = write_results(args.out, document)
        print(f"results written to {written}")
    return 0 if all(result.passed for result in results) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = _EXPERIMENTS.get(args.name)
    if runner is None:
        print(f"unknown experiment {args.name!r}; choose from {sorted(_EXPERIMENTS)}")
        return 2
    from repro import experiments

    print(runner(experiments, args))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics summarize FILE...``: merge snapshots and print tables."""
    from repro.obs.summarize import summarize_files

    print(summarize_files(args.files))
    return 0


# --------------------------------------------------------------------------- #
# Observability wiring
# --------------------------------------------------------------------------- #
_OBS_COMMANDS = ("evaluate", "monitor", "serve")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Observability options shared by ``evaluate``, ``monitor`` and ``serve``.

    Neither flag ever touches a numpy RNG stream, so instrumented runs stay
    bit-identical to uninstrumented ones.
    """
    parser.add_argument(
        "--log-json",
        default=None,
        dest="log_json",
        help="append structured JSON-lines logs (and trace spans) to this "
        "file; every record carries the run id",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        dest="log_level",
        help="minimum level written to --log-json (default info)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        help="write a JSON metrics snapshot here on exit; feed one or more "
        "such files to `repro metrics summarize`",
    )


def _obs_setup(args: argparse.Namespace) -> str:
    """Configure logging/tracing from the obs flags; returns the run id."""
    run_id = os.urandom(6).hex()
    if getattr(args, "log_json", None):
        from repro.obs import logging as obs_logging
        from repro.obs import trace as obs_trace

        obs_logging.configure(
            args.log_json,
            level=args.log_level,
            run_id=run_id,
            command=args.command,
            pid=os.getpid(),
        )
        obs_trace.enable()
    return run_id


def _obs_teardown(args: argparse.Namespace, run_id: str) -> None:
    """Export the metrics snapshot (if asked) and release the log sink."""
    if getattr(args, "metrics_out", None):
        from repro.obs import metrics as obs_metrics

        meta = {"run_id": run_id, "command": args.command, "pid": os.getpid()}
        node_id = getattr(args, "obs_node_id", None)
        if node_id:
            meta["node_id"] = node_id
        obs_metrics.export(args.metrics_out, meta=meta)
    if getattr(args, "log_json", None):
        from repro.obs import logging as obs_logging
        from repro.obs import trace as obs_trace

        obs_trace.disable()
        obs_logging.reset()


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient knowledge-graph accuracy evaluation (VLDB 2019 reproduction).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Full documentation lives in docs/:\n"
            "  docs/architecture.md   layer-by-layer system walkthrough\n"
            "  docs/wire-protocol.md  serve protocol v2 frames, tags, handshake\n"
            "  docs/operations.md     serve runbook (secrets, drain, metrics)\n"
            "  docs/scenarios.md      stress-scenario packs and coverage gates"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--movie-scale",
        type=float,
        default=0.01,
        help="scale of the MOVIE-like dataset relative to the published size (default 0.01)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "datasets", parents=[common], help="print dataset characteristics (cf. Table 3)"
    )

    evaluate = subparsers.add_parser(
        "evaluate", parents=[common], help="run one accuracy evaluation"
    )
    evaluate.add_argument("--dataset", choices=DATASETS, default="nell")
    evaluate.add_argument("--design", choices=DESIGNS, default="twcs")
    evaluate.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    evaluate.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    evaluate.add_argument(
        "--second-stage-size",
        "-m",
        type=int,
        default=5,
        dest="second_stage_size",
        help="TWCS second-stage cap m (default 5)",
    )
    graph_source = evaluate.add_mutually_exclusive_group()
    graph_source.add_argument(
        "--backend",
        choices=("columnar", "sqlite"),
        default="columnar",
        help="storage backend for the built --dataset: 'columnar' keeps it as "
        "columns in RAM, 'sqlite' in a disk-resident WAL database (default "
        "columnar; not with --from-snapshot)",
    )
    graph_source.add_argument(
        "--from-snapshot",
        default=None,
        dest="from_snapshot",
        help="evaluate a reopened snapshot (saved with --with-labels) in the "
        "format it was stored in, instead of building --dataset",
    )
    _add_obs_options(evaluate)
    evaluate.add_argument(
        "--allocation",
        choices=("proportional", "neyman"),
        default="proportional",
        help="per-round stratum allocation for --design twcs-strat runs "
        "(default proportional)",
    )

    snapshot = subparsers.add_parser(
        "snapshot",
        parents=[common],
        help="build a dataset and persist it as a snapshot directory or SQLite database",
    )
    snapshot.add_argument("--dataset", choices=DATASETS, default="nell")
    snapshot.add_argument(
        "--out",
        required=True,
        help="target path: a memory-mappable snapshot directory, or a WAL "
        "database with --backend sqlite",
    )
    snapshot.add_argument(
        "--backend",
        choices=("columnar", "sqlite"),
        default="columnar",
        help="persistence format: 'columnar' writes a snapshot directory, "
        "'sqlite' writes a disk-resident WAL database that `evaluate "
        "--from-snapshot` reopens out-of-core (default columnar)",
    )
    snapshot.add_argument(
        "--with-labels",
        action="store_true",
        dest="with_labels",
        help="store the ground-truth label array next to the graph, enabling "
        "`evaluate --from-snapshot`, `monitor --snapshot` and serve snapshot sessions",
    )

    monitor = subparsers.add_parser(
        "monitor",
        parents=[common],
        help="monitor an evolving KG over a stream of update batches",
    )
    monitor.add_argument("--dataset", choices=DATASETS, default="movie")
    monitor.add_argument(
        "--evaluator",
        choices=("rs", "ss", "baseline"),
        default="ss",
        help="incremental evaluator: reservoir (Alg. 1), stratified (Alg. 2) "
        "or the re-evaluate-from-scratch baseline (default ss)",
    )
    monitor.add_argument(
        "--batches", type=int, default=3, help="number of update batches (default 3)"
    )
    monitor.add_argument(
        "--batch-fraction",
        type=float,
        default=0.1,
        dest="batch_fraction",
        help="update batch size as a fraction of the base KG (default 0.1)",
    )
    monitor.add_argument(
        "--update-accuracy",
        type=float,
        default=0.8,
        dest="update_accuracy",
        help="accuracy of inserted triples (default 0.8)",
    )
    monitor.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    monitor.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    monitor.add_argument(
        "--snapshot",
        default=None,
        help="persist the base graph + labels here on the first run and reopen "
        "them on later runs (skipping the build/labelling work); an existing path "
        "is reopened like `evaluate --from-snapshot` reopens it",
    )
    _add_obs_options(monitor)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived multi-session evaluation daemon",
    )
    serve.add_argument(
        "--listen",
        default="127.0.0.1:7400",
        help="address to listen on as host:port (port 0 picks a free port, "
        "printed on startup; default 127.0.0.1:7400)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        dest="state_dir",
        help="checkpoint directory: a draining daemon (SIGTERM) checkpoints "
        "every session here, and a restart on the same directory resumes "
        "them with bit-identical future trajectories",
    )
    serve.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the client-authentication secret; every connection "
        "must pass the mutual HMAC handshake (omit for the empty secret — "
        "loopback testing only)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        dest="queue_limit",
        help="admission-queue bound: submits beyond this many queued rounds "
        "are refused with a typed backpressure error (default 16)",
    )
    serve.add_argument(
        "--root-seed",
        type=int,
        default=0,
        dest="root_seed",
        help="entropy root for the per-session SeedSequence streams handed "
        "to sessions that omit an explicit seed (default 0)",
    )
    _add_obs_options(serve)

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--connect",
        required=True,
        help="address (host:port) of the serve daemon",
    )
    client_common.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the daemon's client-authentication secret",
    )
    client = subparsers.add_parser(
        "client",
        help="talk to a running serve daemon",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)
    client_run = client_sub.add_parser(
        "run",
        parents=[common, client_common],
        help="drive one monitoring session through the daemon (the served "
        "twin of `repro monitor`; trajectories are bit-identical)",
    )
    client_run.add_argument("--dataset", choices=DATASETS, default="movie")
    client_run.add_argument(
        "--session",
        default=None,
        help="session name (re-attaching an existing name with the same spec "
        "resumes it; default: daemon-assigned)",
    )
    client_run.add_argument(
        "--evaluator",
        choices=("rs", "ss"),
        default="ss",
        help="incremental evaluator: reservoir (Alg. 1) or stratified "
        "(Alg. 2; default ss)",
    )
    client_run.add_argument(
        "--batches", type=int, default=3, help="number of update batches (default 3)"
    )
    client_run.add_argument(
        "--batch-fraction",
        type=float,
        default=0.1,
        dest="batch_fraction",
        help="update batch size as a fraction of the base KG (default 0.1)",
    )
    client_run.add_argument(
        "--update-accuracy",
        type=float,
        default=0.8,
        dest="update_accuracy",
        help="accuracy of inserted triples (default 0.8)",
    )
    client_run.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    client_run.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    client_run.add_argument(
        "--detach",
        action="store_true",
        help="detach (and drop) the session after printing the trajectory",
    )
    client_estimate = client_sub.add_parser(
        "estimate",
        parents=[client_common],
        help="O(1) read of a session's latest cached estimate (never samples)",
    )
    client_estimate.add_argument("--session", required=True, help="session name")
    client_poll = client_sub.add_parser(
        "poll",
        parents=[client_common],
        help="block until a session's trajectory satisfies a threshold",
    )
    client_poll.add_argument("--session", required=True, help="session name")
    client_poll.add_argument(
        "--min-records",
        type=int,
        default=None,
        dest="min_records",
        help="wait until at least this many rounds completed",
    )
    client_poll.add_argument(
        "--moe-below",
        type=float,
        default=None,
        dest="moe_below",
        help="wait until the latest margin of error drops below this",
    )
    client_poll.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="maximum seconds to wait (default 30)",
    )
    client_sub.add_parser(
        "sessions",
        parents=[client_common],
        help="list the daemon's attached sessions",
    )
    client_detach = client_sub.add_parser(
        "detach",
        parents=[client_common],
        help="detach a session (refused while rounds are pending)",
    )
    client_detach.add_argument("--session", required=True, help="session name")

    metrics = subparsers.add_parser(
        "metrics",
        help="inspect metrics snapshots written by --metrics-out",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summarize = metrics_sub.add_parser(
        "summarize",
        help="merge snapshot files and list every series",
    )
    summarize.add_argument(
        "files",
        nargs="+",
        help="metrics snapshot JSON files written by --metrics-out",
    )

    experiment = subparsers.add_parser(
        "experiment", parents=[common], help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--trials", type=int, default=5, help="randomised trials (default 5)")

    scenario = subparsers.add_parser(
        "scenario",
        help="run declarative stress-scenario packs with statistical coverage gates",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run",
        help="execute a pack's seeded replications and gate coverage/MoE/cost",
    )
    scenario_run.add_argument(
        "--pack",
        default="builtin-smoke",
        help="built-in pack name (builtin-full, builtin-smoke) or a "
        ".json/.toml pack file (default builtin-smoke)",
    )
    scenario_run.add_argument(
        "--backend",
        choices=("columnar", "sqlite"),
        default="columnar",
        help="storage backend the replications run on (default columnar); "
        "trajectory digests are bit-identical across backends",
    )
    scenario_run.add_argument(
        "--out",
        default=None,
        help="write a deterministic SCENARIOS_*.json result document here "
        "(feed it to `repro scenario compare`)",
    )
    scenario_run.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    scenario_run.add_argument(
        "--replications",
        type=int,
        default=None,
        help="override every scenario's replication count (default: as declared)",
    )
    scenario_run.add_argument(
        "--root-seed",
        type=int,
        default=0,
        dest="root_seed",
        help="root seed mixed into every per-replication seed (default 0)",
    )
    scenario_compare = scenario_sub.add_parser(
        "compare",
        help="diff a result file against a committed baseline (exit 1 on drift)",
    )
    scenario_compare.add_argument("baseline", help="baseline SCENARIOS_*.json")
    scenario_compare.add_argument("current", help="current SCENARIOS_*.json")
    scenario_compare.add_argument(
        "--float-tolerance",
        type=float,
        default=1e-9,
        dest="float_tolerance",
        help="absolute tolerance for float fields (default 1e-9); digests and "
        "coverage counts always compare exactly",
    )
    scenario_list = scenario_sub.add_parser(
        "list", help="list the built-in packs, or the scenarios inside one pack"
    )
    scenario_list.add_argument(
        "--pack",
        default=None,
        help="pack to list scenarios for (built-in name or .json/.toml file)",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "evaluate": _cmd_evaluate,
        "snapshot": _cmd_snapshot,
        "monitor": _cmd_monitor,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "metrics": _cmd_metrics,
        "scenario": _cmd_scenario,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    if args.command not in _OBS_COMMANDS:
        return handler(args)
    run_id = _obs_setup(args)
    try:
        return handler(args)
    finally:
        # Runs on clean exit and on errors, and after serve's SIGTERM drain,
        # so --metrics-out snapshots survive orderly shutdowns.
        _obs_teardown(args, run_id)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
