"""Reduce a workload pass to the metrics ``BENCHMARK.json`` names."""

from __future__ import annotations

import statistics

from common import Outcome, percentile, tail_percentile


def end_to_end(outcome: Outcome) -> dict[str, float]:
    """The gated metrics, measured with tracing off.

    Times are at the nominal CPU speed (see ``common.SpeedProbe``), and an
    op's cost in time is gated as its CPU time, not as its latency: on a
    shared host, neighbours and CPU steal moved whole runs' latencies by a
    quarter.
    """
    return {
        "setup_s": statistics.median(outcome.nominal_setup_seconds),
        "op_cpu_s": statistics.median(op.nominal_cpu_seconds for op in outcome.ops),
        "annotation_cost_h": statistics.fmean(op.output["cost_h"] for op in outcome.ops),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def coverage(outcome: Outcome) -> float:
    """Share of evaluations (or rounds) whose interval contains the true accuracy."""
    evaluations = sum(op.output["evaluations"] for op in outcome.ops)
    return sum(op.output["covered"] for op in outcome.ops) / evaluations


def report_rows(outcome: Outcome) -> list[tuple[str, object, str]]:
    """The workload's other end-to-end figures, printed but not gated.

    Latency is too noisy on a shared host to gate, and not every workload
    has the rest: a tail percentile needs at least ten samples beyond it,
    and only served-stream has reads.
    ``failed_op_ratio`` is also the JSON's ``failed / attempted``.
    """
    latencies = outcome.latencies()
    rows: list[tuple[str, object, str]] = [
        ("op_s_p50", statistics.median(latencies), "s"),
        ("ops_per_s", len(latencies) / sum(latencies), "1/s"),
        ("op_cpu_s_measured", statistics.median(op.cpu_seconds for op in outcome.ops), "s"),
        ("setup_s_measured", statistics.median(outcome.setup_seconds), "s"),
    ]
    tail = tail_percentile(len(latencies))
    if tail is None:
        rows.append(("op_s_p90", f"n/a ({len(latencies)} ops < 100)", "s"))
    else:
        rows.append((f"op_s_p{tail:g}", percentile(latencies, tail), "s"))
    reads = outcome.extra.get("reads") or []
    if reads:
        rows.append(("read_s_p50", percentile(reads, 50), "s"))
        read_tail = tail_percentile(len(reads))
        rows.append((f"read_s_p{read_tail:g}", percentile(reads, read_tail), "s"))
    rows.append(("ci_coverage", coverage(outcome), "fraction"))
    rows.append(("failed_op_ratio", outcome.failed / max(1, outcome.attempted), "fraction"))
    rows.append(("ops", len(latencies), "count"))
    imports = [op.output["import_s"] for op in outcome.ops if "import_s" in op.output]
    if imports:
        rows.append(("import_s_p50", statistics.median(imports), "s"))
    return rows


def _mean_output(outcome: Outcome, key: str) -> float:
    return statistics.fmean(op.output[key] for op in outcome.ops)


def per_layer(untraced, traced) -> dict[str, float]:
    """Per-layer metrics of a traced pass, per op (``s/op``) or per set-up (``s``).

    Layer times are inclusive: a span covers the layers it calls.  ``*self*``
    metrics subtract the time child spans cover.  A layer the workload never
    enters reports 0.
    """
    ops = traced.outcome.ops
    count = len(ops)
    setups = len(traced.outcome.setup_seconds)

    def op_seconds(*names: str) -> float:
        return sum(view.total_seconds(n, w) for view, w in traced.op_traces for n in names) / count

    def op_self(name: str) -> float:
        return sum(view.self_seconds(name, w) for view, w in traced.op_traces) / count

    def op_items(name: str) -> float:
        return sum(view.items(name, w) for view, w in traced.op_traces) / count

    def setup_seconds(*names: str) -> float:
        return (
            sum(view.total_seconds(n, w) for view, w in traced.setup_traces for n in names)
            / setups
        )

    views = {id(view): view for view, _ in traced.op_traces + traced.setup_traces}
    imports = [view.total_seconds("repro.import") for view in views.values()]
    triples_annotated = _mean_output(traced.outcome, "triples")
    materialised = op_items("kg.materialise")
    write_overhead = 0.0
    submit_bytes = 0.0
    if traced.outcome.extra.get("reads"):
        write_overhead = statistics.fmean(op.seconds for op in ops) - op_seconds(
            "evolving.apply_update"
        )
        submit_bytes = statistics.fmean(traced.outcome.extra["submit_bytes"])
        units_per_write = _mean_output(traced.outcome, "units")
    else:
        units_per_write = 0.0
    def cpu_p50(outcome) -> float:
        return statistics.median(op.nominal_cpu_seconds for op in outcome.ops)

    overhead = cpu_p50(traced.outcome) / cpu_p50(untraced.outcome) - 1.0
    return {
        "repro.import_s": statistics.fmean(imports),
        "cli.self_s": op_self("cli.main"),
        "generators.build_s": setup_seconds("generators.build"),
        "storage.convert_s": setup_seconds("storage.convert"),
        "storage.open_s": op_seconds("storage.open"),
        "storage.rows_scanned": op_items("storage.scan"),
        "storage.delta_append_s": op_seconds("storage.delta_append"),
        "kg.triples_materialised": materialised,
        "kg.materialise_s": op_seconds("kg.materialise"),
        "kg.materialised_per_annotated": materialised / max(triples_annotated, 1e-12),
        "labels.oracle_build_s": op_seconds("labels.oracle_build"),
        "labels.position_array_s": op_seconds("labels.position_array"),
        "labels.true_accuracy_s": op_seconds("labels.true_accuracy"),
        "labels.setup_s": setup_seconds(
            "labels.oracle_build", "labels.position_array", "labels.true_accuracy"
        ),
        "sampling.design_init_s": op_seconds("sampling.design_init"),
        "sampling.plan_s": op_seconds("sampling.plan"),
        "sampling.draw_s": op_seconds("sampling.draw"),
        "sampling.update_s": op_seconds("sampling.update"),
        "sampling.units": _mean_output(traced.outcome, "units"),
        "sampling.rounds": _mean_output(traced.outcome, "rounds"),
        "sampling.shards": _mean_output(traced.outcome, "shards"),
        "cost.annotate_s": op_seconds("cost.annotate"),
        "cost.triples_annotated": triples_annotated,
        "cost.entities_identified": _mean_output(traced.outcome, "entities"),
        "stats.estimate_s": op_seconds("stats.estimate"),
        "stats.ci_coverage": coverage(untraced.outcome),
        "core.loop_self_s": op_self("core.loop"),
        "evolving.base_eval_s": setup_seconds("evolving.base_eval"),
        "evolving.apply_update_s": op_seconds("evolving.apply_update"),
        "evolving.units_per_write": units_per_write,
        "serve.decode_batch_s": op_seconds("serve.decode_batch"),
        "serve.write_overhead_s": write_overhead,
        "serve.submit_bytes": submit_bytes,
        "trace.overhead": overhead,
        "trace.absent_entry_points": max(len(view.absent) for view in views.values()),
    }
