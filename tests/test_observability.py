"""Observability layer: unit coverage and the zero-perturbation contract.

Two halves:

* **Unit coverage** of `repro.obs` — the metrics registry (labeled series,
  snapshot/export/merge), the structured JSON-lines logger (levels, context,
  reset), the span tracer (nesting, explicit parent contexts), and the
  ``metrics summarize`` renderer.
* **The sacred invariant** — re-running the pinned golden trajectories with
  the *entire* observability stack live (debug-level JSON logs, tracing
  enabled, metrics recording) must reproduce every golden bit-for-bit.
  Instruments never touch numpy RNG streams; these tests are the proof.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from test_golden_trajectories import STATIC_DESIGNS, static_design, static_trajectory

from repro.core.config import EvaluationConfig
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.state import capture_evaluator_state, restore_evaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, merge_snapshots
from repro.obs.summarize import load_snapshot, render_tables, summarize_files

_SEED = 2026


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability fully off and empty."""
    obs_metrics.reset()
    obs_trace.disable()
    obs_logging.reset()
    yield
    obs_metrics.reset()
    obs_trace.disable()
    obs_logging.reset()


@pytest.fixture(scope="module")
def labelled():
    return make_nell_like(seed=0).to_columnar()


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
def test_counter_series_identity_and_monotonicity():
    registry = MetricsRegistry()
    first = registry.counter("frames_total", node="a")
    second = registry.counter("frames_total", node="a")
    other = registry.counter("frames_total", node="b")
    assert first is second
    assert first is not other
    first.inc()
    first.inc(2.5)
    assert first.value == 3.5
    assert other.value == 0.0
    with pytest.raises(ValueError):
        first.inc(-1)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("window")
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0


def test_histogram_buckets_and_fake_clock_timer():
    ticks = iter([10.0, 10.25])
    registry = MetricsRegistry(clock=lambda: next(ticks))
    histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    with histogram.time():  # fake clock: exactly 0.25s, lands in the 1.0 bucket
        pass
    snap = histogram._snapshot()
    assert snap["count"] == 4
    assert snap["bucket_counts"] == [1, 2, 1]
    assert snap["min"] == 0.05
    assert snap["max"] == 5.0
    assert snap["sum"] == pytest.approx(0.05 + 0.5 + 5.0 + 0.25)


def test_kind_mismatch_is_a_typed_error():
    registry = MetricsRegistry()
    registry.counter("mixed_up")
    with pytest.raises(ValueError, match="already registered as counter"):
        registry.gauge("mixed_up")


def test_snapshot_export_load_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("events_total", node="n1").inc(7)
    registry.histogram("work_seconds").observe(0.02)
    path = tmp_path / "metrics.json"
    exported = registry.export(path, meta={"node_id": "n1", "run_id": "r"})
    assert exported["meta"] == {"node_id": "n1", "run_id": "r"}
    loaded = load_snapshot(path)
    assert loaded["meta"]["run_id"] == "r"
    by_name = {entry["name"]: entry for entry in loaded["series"]}
    assert by_name["events_total"]["value"] == 7.0
    # load_snapshot back-fills the exporter's node_id onto node-less series.
    assert by_name["work_seconds"]["labels"]["node"] == "n1"
    assert by_name["events_total"]["labels"]["node"] == "n1"  # explicit label wins


def test_load_snapshot_rejects_non_snapshots(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"series": "not-a-list"}))
    with pytest.raises(ValueError, match="not a metrics snapshot"):
        load_snapshot(path)


def test_merge_snapshots_is_associative_across_nodes():
    def node_snapshot(value, gauge, observation):
        registry = MetricsRegistry()
        registry.counter("frames_total", node="shared").inc(value)
        registry.gauge("window").set(gauge)
        registry.histogram("latency_seconds").observe(observation)
        return registry.snapshot()

    merged = merge_snapshots([node_snapshot(3, 1, 0.1), node_snapshot(4, 9, 0.9)])
    by_name = {entry["name"]: entry for entry in merged["series"]}
    assert by_name["frames_total"]["value"] == 7.0  # counters sum
    assert by_name["window"]["value"] == 9.0  # gauges: last wins
    latency = by_name["latency_seconds"]
    assert latency["count"] == 2
    assert latency["min"] == 0.1 and latency["max"] == 0.9  # extrema widen
    assert sum(latency["bucket_counts"]) == 2
    assert latency["bounds"] == list(DEFAULT_BUCKETS)


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #
def _read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_logging_is_off_by_default(tmp_path):
    log = obs_logging.get_logger("test")
    assert not obs_logging.is_enabled("error")
    log.error("dropped_on_the_floor")  # must be a cheap no-op, not an error


def test_configure_levels_context_and_reset(tmp_path):
    path = tmp_path / "run.jsonl"
    obs_logging.configure(path, level="info", run_id="r1", node_id=None)
    log = obs_logging.get_logger("rpc.master")
    assert log.enabled_for("warning")
    assert not log.enabled_for("debug")
    log.debug("too_quiet", x=1)  # below threshold: not written
    log.info("node_drop", address="10.0.0.1:9", count=np.int64(2))
    obs_logging.reset()
    log.info("after_reset")  # sink closed: not written
    records = _read_records(path)
    assert [record["event"] for record in records] == ["node_drop"]
    record = records[0]
    assert record["component"] == "rpc.master"
    assert record["run_id"] == "r1"
    assert "node_id" not in record  # None context values are dropped
    assert record["count"] == 2  # numpy scalars serialize as plain JSON numbers


def test_configure_validates_its_arguments(tmp_path):
    with pytest.raises(ValueError, match="unknown log level"):
        obs_logging.configure(tmp_path / "x.jsonl", level="loud")
    with pytest.raises(ValueError, match="exactly one of"):
        obs_logging.configure()


# --------------------------------------------------------------------------- #
# Span tracer
# --------------------------------------------------------------------------- #
def test_disabled_tracer_yields_null_spans():
    with obs_trace.span("sampling.round", round=1) as outer:
        assert outer.context is None  # safe to attach to a ShardTask as trace=None
    assert obs_trace.current() is None
    assert obs_trace.trace_id() is None


def test_child_context_works_while_disabled():
    # Workers never enable tracing themselves but must echo usable contexts.
    parent = obs_trace.TraceContext(trace_id="abcd" * 4, span_id="ef01")
    child = obs_trace.child_context(parent)
    assert child.trace_id == parent.trace_id
    assert child.span_id != parent.span_id


def test_spans_nest_and_link_parents(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs_logging.configure(path, level="debug")
    root_trace = obs_trace.enable()
    with obs_trace.span("evaluate") as outer:
        assert outer.context.trace_id == root_trace
        with obs_trace.span("sampling.round", round=0) as inner:
            assert inner.context.trace_id == root_trace
            assert inner.parent_id == outer.context.span_id
            assert obs_trace.current() is inner.context
    obs_trace.disable()
    records = {record["name"]: record for record in _read_records(path)}
    assert records["sampling.round"]["parent_id"] == records["evaluate"]["span_id"]
    assert records["sampling.round"]["round"] == 0
    assert records["evaluate"]["parent_id"] is None
    assert all(record["ok"] for record in records.values())


def test_explicit_parent_spans_work_without_enable(tmp_path):
    # A caller holding a TraceContext opens a child span under it even
    # though tracing is off locally.
    path = tmp_path / "child.jsonl"
    obs_logging.configure(path, level="debug")
    parent = obs_trace.TraceContext(trace_id="feed" * 4, span_id="0a0b")
    with obs_trace.span("child.task", parent=parent, shard=3) as task_span:
        assert task_span.context.trace_id == parent.trace_id
        assert task_span.parent_id == parent.span_id
    (record,) = _read_records(path)
    assert record["trace_id"] == parent.trace_id
    assert record["parent_id"] == parent.span_id
    assert record["shard"] == 3


# --------------------------------------------------------------------------- #
# Summarize tables
# --------------------------------------------------------------------------- #
def test_render_tables_sections(tmp_path):
    registry = MetricsRegistry()
    registry.histogram("serve_request_seconds", op="estimate").observe(0.01)
    registry.counter("serve_connections_total").inc(12)
    registry.counter("sampling_rounds_total").inc(4)
    text = render_tables(registry.snapshot())
    assert text.splitlines()[0] == "Series"
    assert "sampling_rounds_total  4" in text
    assert "serve_connections_total  12" in text
    assert "serve_request_seconds{op=estimate}  count=1" in text


def test_render_tables_empty_snapshot():
    assert render_tables({"series": []}) == "(no series recorded)"


def test_summarize_keeps_files_apart_by_node_id(tmp_path):
    # Two daemons export the same counter; each file's node id labels its
    # node-less series, so the merged report shows one line per daemon.
    paths = []
    for port, value in ((7400, 5), (7401, 3)):
        registry = MetricsRegistry()
        registry.counter("serve_connections_total").inc(value)
        path = tmp_path / f"serve-{port}.json"
        registry.export(path, meta={"node_id": f"127.0.0.1:{port}"})
        paths.append(path)
    lines = summarize_files(paths).splitlines()
    assert "serve_connections_total{node=127.0.0.1:7400}  5" in lines
    assert "serve_connections_total{node=127.0.0.1:7401}  3" in lines


# --------------------------------------------------------------------------- #
# The sacred invariant: full observability moves no trajectory
# --------------------------------------------------------------------------- #
@pytest.fixture
def full_observability(tmp_path):
    """Everything on at maximum verbosity: debug logs, tracing, metrics."""
    log_path = tmp_path / "obs-parity.jsonl"
    obs_logging.configure(log_path, level="debug", run_id="golden-obs-parity")
    obs_trace.enable()
    yield log_path
    obs_trace.disable()
    obs_logging.reset()
    # The instrumentation must actually have fired — a parity test against
    # a silently disabled stack would prove nothing.
    names = {entry["name"] for entry in obs_metrics.snapshot()["series"]}
    assert "sampling_rounds_total" in names
    assert "sampling_units_total" in names


@pytest.mark.parametrize("design", sorted(STATIC_DESIGNS))
def test_goldens_replay_bitwise_with_obs_active(labelled, golden, full_observability, design):
    trajectory = static_trajectory(labelled, static_design(labelled.graph, design))
    golden.check(f"static_{design}", trajectory)


def test_stratified_golden_replays_bitwise_with_obs_active(labelled, golden, full_observability):
    design = static_design(labelled.graph, "twcs", "neyman")
    golden.check("static_twcs_strat_neyman", static_trajectory(labelled, design))


@pytest.mark.parametrize(
    "kind, cls",
    [("rs", ReservoirIncrementalEvaluator), ("ss", StratifiedIncrementalEvaluator)],
)
def test_evolving_goldens_replay_bitwise_with_obs_active(golden, tmp_path, kind, cls):
    obs_logging.configure(tmp_path / "evolving.jsonl", level="debug", run_id="evolving-obs")
    obs_trace.enable()
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    evaluator = cls(base, config=EvaluationConfig(moe_target=0.06), seed=_SEED)
    evaluator.evaluate_base()
    workload = UpdateWorkloadGenerator(base, seed=_SEED)
    for batch, batch_oracle in workload.generate_sequence(2, 120, 0.8):
        evaluator.apply_update(batch, batch_oracle)
    trajectory = [
        {
            "batch_id": entry.batch_id,
            "accuracy": float(entry.accuracy),
            "margin_of_error": float(entry.report.margin_of_error),
            "num_units": int(entry.report.num_units),
            "triples_annotated": int(entry.report.num_triples_annotated),
            "entities_identified": int(entry.report.num_entities_identified),
            "cumulative_cost_seconds": float(entry.cumulative_cost_seconds),
        }
        for entry in evaluator.history
    ]
    trajectory.append({"true_accuracy": float(evaluator.current_true_accuracy())})
    golden.check(f"evolving_{kind}", trajectory)
    # The evolving layer's own instruments fired during the pinned run.
    names = {entry["name"] for entry in obs_metrics.snapshot()["series"]}
    assert "annotation_cost_seconds_total" in names
    assert "annotation_triples_total" in names


# --------------------------------------------------------------------------- #
# Evolving annotation counters
# --------------------------------------------------------------------------- #
_ANNOTATION_COUNTERS = {
    "annotation_cost_seconds_total": "annotation_cost_seconds",
    "annotation_triples_total": "num_triples_annotated",
    "annotation_entities_total": "num_entities_identified",
}


def _assert_counters_sum_reports(evaluator, evaluations) -> None:
    """Each annotation counter holds the sum of the reports' incremental field."""
    kind = type(evaluator).__name__
    for name, field in _ANNOTATION_COUNTERS.items():
        expected = sum(getattr(evaluation.report, field) for evaluation in evaluations)
        assert obs_metrics.counter(name, evaluator=kind).value == expected, name


def test_baseline_annotation_counters_count_every_snapshot():
    # Every snapshot opens a fresh session, so each one's full cost counts.
    base = make_nell_like(seed=0)
    evaluator = BaselineEvolvingEvaluator(base, seed=0)
    evaluator.evaluate_base()
    workload = UpdateWorkloadGenerator(base, seed=0)
    for batch, batch_oracle in workload.generate_sequence(3, 300, 0.8):
        evaluator.apply_update(batch, batch_oracle)
    _assert_counters_sum_reports(evaluator, evaluator.history)
    kind = "BaselineEvolvingEvaluator"
    counted = obs_metrics.counter("annotation_cost_seconds_total", evaluator=kind).value
    assert counted == pytest.approx(evaluator.total_cost_hours * 3600.0)


def test_resumed_evaluator_counters_count_only_new_work():
    base = make_nell_like(seed=0)
    updates = list(UpdateWorkloadGenerator(base, seed=3).generate_sequence(2, 200, 0.8))
    evaluator = StratifiedIncrementalEvaluator(base, seed=3)
    evaluator.evaluate_base()
    evaluator.apply_update(*updates[0])
    state = capture_evaluator_state(evaluator)

    # A fresh process: empty counters, the evaluator rebuilt from its state.
    obs_metrics.reset()
    resumed = restore_evaluator(state, make_nell_like(seed=0))
    evaluation = resumed.apply_update(*updates[1])
    assert evaluation.report.annotation_cost_seconds > 0
    _assert_counters_sum_reports(resumed, [evaluation])
