"""Tests for the benchmark's own machinery (not for the program it measures)."""

import json
import sys
import time
import types
from pathlib import Path

import pytest
import tracing
from common import (
    PROBE_NOMINAL_RATE,
    ROOT,
    OpRecord,
    SpeedProbe,
    closed_loop,
    op_seed,
    percentile,
    tail_percentile,
)
from tracing import Tracer, TraceView, in_windows
from workloads import ServedStream, parse_evaluate_report


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer, child, grandchild = (tracer._name_id(n) for n in ("core.loop", "draw", "annotate"))
    root = tracer.open(outer)  # 0..100
    clock.now = 10
    first = tracer.open(child)  # 10..40, with a grandchild inside
    clock.now = 20
    inner = tracer.open(grandchild)  # 20..30
    clock.now = 30
    tracer.close(inner)
    clock.now = 40
    tracer.close(first)
    clock.now = 60
    second = tracer.open(child)  # 60..70
    clock.now = 70
    tracer.close(second)
    clock.now = 100
    tracer.close(root)
    view = TraceView(tracer.to_dict())
    assert view.self_time(root) == 100 - 30 - 10
    assert view.self_time(first) == 30 - 10
    assert view.total_seconds("draw") == pytest.approx(40e-9)
    assert view.self_seconds("core.loop") == pytest.approx(60e-9)


def test_recursive_spans_of_one_name_count_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    name = tracer._name_id("stats.estimate")
    outer = tracer.open(name)
    clock.now = 5
    inner = tracer.open(name)
    clock.now = 8
    tracer.close(inner)
    clock.now = 10
    tracer.close(outer)
    view = TraceView(tracer.to_dict())
    assert view.select("stats.estimate") == [outer]
    assert view.total_seconds("stats.estimate") == pytest.approx(10e-9)


def test_windows_select_spans_by_start():
    windows = [(10, 20), (30, 40)]
    assert [t for t in (5, 10, 15, 20, 25, 30, 41) if in_windows(t, windows)] == [10, 15, 20, 30]
    assert not in_windows(1, [])


@pytest.mark.parametrize(
    ("count", "expected"),
    [(9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 99) == 99.0
    assert percentile([3.0], 99.9) == 3.0


class ScriptedProbe:
    """A speed probe whose readings are scripted: each op window at one rate."""

    scale = staticmethod(SpeedProbe.scale)

    def __init__(self, rates: list[float]) -> None:
        self.readings: list[tuple[int, int]] = [(0, 0)]
        for rate in rates:  # the probe gets 10 ms of each op window
            rounds, cpu_ns = self.readings[-1]
            self.readings.append((rounds + round(rate * 0.01), cpu_ns + 10_000_000))
            self.readings.append(self.readings[-1])  # no probe CPU between ops
        self.readings.pop()
        self._next = iter(self.readings)

    def reading(self) -> tuple[int, int]:
        return next(self._next)


def test_closed_loop_scales_cpu_time_to_the_nominal_speed():
    half, full = PROBE_NOMINAL_RATE / 2, PROBE_NOMINAL_RATE
    ops = closed_loop(
        0.0, 2, lambda i: OpRecord(0.1, {}, cpu_seconds=2.0), probe=ScriptedProbe([half, full])
    )
    assert [op.nominal_cpu_seconds for op in ops] == pytest.approx([1.0, 2.0])
    grouped = closed_loop(
        0.0,
        3,
        lambda i: OpRecord(0.1, {}, cpu_seconds=2.0),
        probe=ScriptedProbe([half, full, full]),
        group=2,
    )
    assert [op.nominal_cpu_seconds for op in grouped] == pytest.approx([1.5, 1.5, 2.0])


def test_probe_scale_without_probe_time_is_one():
    assert SpeedProbe.scale([((5, 100), (5, 100))]) == 1.0
    assert SpeedProbe.scale([]) == 1.0


def test_speed_probe_counts_and_stops(tmp_path):
    with SpeedProbe(tmp_path) as probe:
        first = probe.reading()
        deadline = time.monotonic() + 10.0
        while probe.reading()[0] == first[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        later = probe.reading()
        assert later[0] > first[0] and later[1] > first[1]
    assert probe.proc.returncode is not None


@pytest.fixture
def fake_program():
    """Two throwaway ``repro``-named modules, one importing from the other."""
    source = types.ModuleType("repro_benchfake")

    def build(n):
        return list(range(n))

    def scan(n):
        yield from range(n)

    class Graph:
        def __init__(self):
            self._view = None

        @property
        def triples(self):
            if self._view is None:
                self._view = (1, 2, 3)
            return self._view

    source.build, source.scan, source.Graph = build, scan, Graph
    user = types.ModuleType("repro_benchfake_user")
    user.build = build
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    yield source, user
    del sys.modules[source.__name__], sys.modules[user.__name__]


def test_removed_entry_point_is_reported_absent(fake_program):
    source, user = fake_program
    tracer = Tracer()
    tracer.install(
        {
            "gone.module": ("repro_no_such_module:build",),
            "gone.attribute": ("repro_benchfake:NoSuchClass.method", "repro_benchfake:missing"),
            "fake.build": ("repro_benchfake:build",),
        }
    )
    try:
        assert tracer.absent == [
            "repro_no_such_module:build",
            "repro_benchfake:NoSuchClass.method",
            "repro_benchfake:missing",
        ]
        assert source.build(3) == [0, 1, 2]
        assert user.build(2) == [0, 1]  # the ``from ... import`` copy is wrapped too
        assert len(TraceView(tracer.to_dict()).select("fake.build")) == 2
    finally:
        tracer.uninstall()
    assert not hasattr(source.build, "__wrapped__")
    assert user.build is source.build


def test_wrappers_count_work_without_changing_results(fake_program, monkeypatch):
    source, _ = fake_program
    monkeypatch.setitem(tracing.COUNTERS, "repro_benchfake:Graph.triples", "new_sequence")
    tracer = Tracer()
    tracer.install(
        {
            "storage.scan": ("repro_benchfake:scan",),
            "kg.materialise": ("repro_benchfake:Graph.triples",),
        }
    )
    try:
        assert list(source.scan(4)) == [0, 1, 2, 3]
        graph = source.Graph()
        assert graph.triples == (1, 2, 3)
        assert graph.triples == (1, 2, 3)  # cached: no second materialisation
    finally:
        tracer.uninstall()
    view = TraceView(tracer.to_dict())
    assert view.items("storage.scan") == 4
    assert view.items("kg.materialise") == 3
    assert len(view.select("kg.materialise")) == 2


def test_same_seed_yields_identical_op_inputs():
    first = [op_seed(7, "cold-audit", i) for i in range(50)]
    assert first == [op_seed(7, "cold-audit", i) for i in range(50)]
    assert first != [op_seed(8, "cold-audit", i) for i in range(50)]
    assert len(set(first)) == 50
    ctx = types.SimpleNamespace(seed=7)
    served = ServedStream()
    assert served._spec(ctx, "ss", 3) == served._spec(ctx, "ss", 3)
    assert served._spec(ctx, "ss", 3)["seed"] != served._spec(ctx, "rs", 3)["seed"]


def test_evaluate_report_parser():
    text = """dataset            : MOVIE-like
design             : twcs (m=5, shards=9, transport=auto:serial)
true accuracy      : 89.9% (hidden from the estimator)
estimated accuracy : 89.3%
95% interval     : [88.4%, 90.3%]
margin of error    : 0.010 (target 0.01)
sample units       : 1000 (100 rounds)
triples annotated  : 4716
entities identified: 953
annotation cost    : 44.66 hours
"""
    report = parse_evaluate_report(text)
    assert report["shards"] == 9 and report["units"] == 1000 and report["rounds"] == 100
    assert report["lower"] == pytest.approx(0.884) and report["truth"] == pytest.approx(0.899)
    assert parse_evaluate_report("dataset : x\n") is None


def test_metric_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((Path(__file__).resolve().parents[1] / "metric_map.json").read_text())
    names = {entry["name"] for entry in spec["per_layer"]}
    assert set(mapping["layers"]) == names
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    workloads = {entry["name"] for entry in spec["workloads"]}
    for entry in mapping["layers"].values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workloads
    assert isinstance(mapping["held_out_seed"], int)
