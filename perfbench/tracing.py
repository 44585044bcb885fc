"""In-memory span tracer wrapped around the program's public entry points.

The benchmark never edits the program: it imports ``repro``, then replaces
each entry point named in :data:`ENTRY_POINTS` with a wrapper that records a
span (name, start, end, parent span, thread, items) and forwards the call.
Spans stay in memory and are written as one JSON file when the traced
process exits.  Wrappers only time: they never touch arguments or results,
so a traced op must produce exactly the output of an untraced one.

An entry point that no longer exists (renamed or removed by a refactor) is
recorded in :attr:`Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path

#: Span name -> the ``module:attribute.path`` entry points it wraps.  Names are
#: ``<layer>.<what>``, after the program's modules.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "cli.main": ("repro.cli:main",),
    "generators.build": ("repro.generators.datasets:make_movie_like",),
    "storage.convert": (
        "repro.kg.graph:KnowledgeGraph.to_columnar",
        "repro.kg.graph:KnowledgeGraph.to_sqlite",
    ),
    "storage.open": ("repro.storage.sqlite:SqliteStore.__init__",),
    "storage.scan": ("repro.storage.sqlite:SqliteStore.iter_triples",),
    "storage.delta_append": ("repro.storage.delta:DeltaStore.add_batch",),
    "kg.materialise": (
        "repro.kg.graph:KnowledgeGraph.triples",
        "repro.kg.graph:KnowledgeGraph.subset",
    ),
    "labels.oracle_build": ("repro.labels.oracle:LabelOracle.__init__",),
    "labels.position_array": ("repro.labels.oracle:LabelOracle.as_position_array",),
    "labels.true_accuracy": ("repro.labels.oracle:LabelOracle.true_accuracy",),
    "sampling.design_init": (
        "repro.sampling.srs:SimpleRandomDesign.__init__",
        "repro.sampling.rcs:RandomClusterDesign.__init__",
        "repro.sampling.wcs:WeightedClusterDesign.__init__",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.__init__",
        "repro.sampling.stratified:StratifiedTWCSDesign.__init__",
        "repro.sampling.segment:SegmentTWCSDesign.__init__",
        "repro.sampling.stratification:stratify_by_size",
    ),
    "sampling.plan": (
        "repro.sampling.planner:plan_shards",
        "repro.sampling.planner:AdaptivePlanner.plan",
    ),
    "sampling.draw": (
        "repro.sampling.srs:SimpleRandomDesign.draw",
        "repro.sampling.rcs:RandomClusterDesign.draw",
        "repro.sampling.wcs:WeightedClusterDesign.draw",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.draw",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.draw_positions",
        "repro.sampling.segment:SegmentTWCSDesign.draw_positions",
        "repro.sampling.stratified:StratifiedTWCSDesign.draw",
        "repro.sampling.parallel:SamplingRun.step",
    ),
    "sampling.update": (
        "repro.sampling.srs:SimpleRandomDesign.update",
        "repro.sampling.rcs:RandomClusterDesign.update",
        "repro.sampling.wcs:WeightedClusterDesign.update",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.update",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.update_all_positions",
        "repro.sampling.segment:SegmentTWCSDesign.update_all_positions",
        "repro.sampling.stratified:StratifiedTWCSDesign.update",
    ),
    "sampling.drive": ("repro.sampling.parallel:SamplingRun.drive",),
    "cost.annotate": (
        "repro.cost.annotator:SimulatedAnnotator.annotate_triples",
        "repro.cost.annotator:PositionAnnotationAccount.charge",
    ),
    "stats.estimate": (
        "repro.sampling.srs:SimpleRandomDesign.estimate",
        "repro.sampling.rcs:RandomClusterDesign.estimate",
        "repro.sampling.wcs:WeightedClusterDesign.estimate",
        "repro.sampling.twcs:TwoStageWeightedClusterDesign.estimate",
        "repro.sampling.segment:SegmentTWCSDesign.estimate",
        "repro.sampling.stratified:StratifiedTWCSDesign.estimate",
        "repro.sampling.parallel:SamplingRun.estimate",
        "repro.sampling.base:Estimate.satisfies",
    ),
    "core.loop": ("repro.core.framework:StaticEvaluator.run",),
    "evolving.base_eval": ("repro.evolving.monitor:EvolvingAccuracyMonitor.evaluate_base",),
    "evolving.apply_update": ("repro.evolving.monitor:EvolvingAccuracyMonitor.apply_update",),
    "serve.decode_batch": ("repro.serve.protocol:decode_batch",),
}

#: Entry points whose spans also carry a work count: ``graph_triples`` (size
#: of the returned graph) or ``new_sequence`` (length of a returned sequence
#: the first time that object is returned).  Generators count what they yield.
COUNTERS: dict[str, str] = {
    "repro.kg.graph:KnowledgeGraph.triples": "new_sequence",
    "repro.kg.graph:KnowledgeGraph.subset": "graph_triples",
}

# Span record layout: [name id, start ns, end ns, parent index, thread id, items].
NAME, START, END, PARENT, THREAD, ITEMS = range(6)


class Tracer:
    """Collects spans from wrapped entry points, across threads.

    ``clock`` must be system-wide (``time.monotonic_ns`` on Linux is
    ``CLOCK_MONOTONIC``), so spans written by a daemon can be matched to op
    windows measured by the benchmark process.
    """

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def open(self, name_id: int, *, push: bool = True) -> int:
        """Start a span; returns its index.  ``push`` makes it the parent of later spans."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name_id, self.clock(), 0, parent, threading.get_ident(), 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if push:
            stack.append(index)
        return index

    def close(self, index: int, items: int = 0, *, pop: bool = True) -> None:
        record = self.spans[index]
        record[END] = self.clock()
        record[ITEMS] += items
        if pop:
            stack = self._stack()
            if stack and stack[-1] == index:
                stack.pop()

    def record(self, name: str, start: int, end: int) -> None:
        """Add a finished top-level span (e.g. the import measured before install)."""
        record = [self._name_id(name), start, end, -1, threading.get_ident(), 0]
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap_function(self, fn, name: str, counter: str | None):
        tracer = self
        name_id = self._name_id(name)
        seen: dict[int, int] = {}

        def count(args, result) -> int:
            if counter == "graph_triples":
                return int(result.num_triples)
            if counter == "new_sequence":
                # A cached view is returned again on later reads; only the
                # first read of each sequence materialises anything.
                owner = id(args[0]) if args else 0
                if seen.get(owner) == id(result):
                    return 0
                seen[owner] = id(result)
                return len(result)
            return 0

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                # A generator may be consumed interleaved with other calls, so
                # its span never becomes the parent of other spans.
                index = tracer.open(name_id, push=False)
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    tracer.close(index, yielded, pop=False)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name_id)
            items = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    items = count(args, result)
                return result
            finally:
                tracer.close(index, items)

        return wrapper

    def install(self, entry_points: dict[str, tuple[str, ...]] = ENTRY_POINTS) -> "Tracer":
        """Wrap every entry point that exists; record the others as absent."""
        for name, labels in entry_points.items():
            for label in labels:
                self._install_one(name, label)
        return self

    def _install_one(self, name: str, label: str) -> None:
        module_name, path = label.split(":")
        counter = COUNTERS.get(label)
        try:
            module = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return
        if isinstance(raw, property):
            wrapped = property(
                self._wrap_function(raw.fget, name, counter), raw.fset, raw.fdel, raw.__doc__
            )
        elif isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap_function(raw.__func__, name, counter))
        elif callable(raw):
            wrapped = self._wrap_function(raw, name, counter)
        else:
            self.absent.append(label)
            return
        self._restore.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)
        if owner is module:
            self._rebind(raw, wrapped)

    def _rebind(self, original, wrapped) -> None:
        """Point ``from module import name`` copies in loaded modules at the wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "names": list(self.names),
                "spans": [list(span) for span in self.spans],
                "absent": list(self.absent),
            }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), separators=(",", ":")))


# --------------------------------------------------------------------------- #
# Analysis (runs in the benchmark process on dumped traces)
# --------------------------------------------------------------------------- #
class TraceView:
    """Read-only queries over one dumped trace."""

    def __init__(self, payload: dict) -> None:
        self.names: list[str] = payload["names"]
        self.spans: list[list[int]] = payload["spans"]
        self.absent: list[str] = payload.get("absent", [])
        self._children: dict[int, list[int]] = {}
        # Outermost spans per name: a span nested (at any depth) inside one of
        # the same name is part of its ancestor's time, so recursion counts once.
        self._outermost: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            self._children.setdefault(span[PARENT], []).append(index)
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != span[NAME]:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                self._outermost.setdefault(self.names[span[NAME]], []).append(index)

    @classmethod
    def load(cls, path: str | Path) -> "TraceView":
        return cls(json.loads(Path(path).read_text()))

    def select(self, name: str, windows: list[tuple[int, int]] | None = None) -> list[int]:
        """Outermost spans called ``name`` that start inside one of ``windows``.

        ``windows`` must be sorted and disjoint (op windows of a closed loop are).
        """
        spans = self._outermost.get(name, [])
        if windows is None:
            return list(spans)
        return [i for i in spans if in_windows(self.spans[i][START], windows)]

    def duration(self, index: int) -> int:
        span = self.spans[index]
        return max(0, span[END] - span[START])

    def self_time(self, index: int) -> int:
        """Duration minus the part of it that child spans cover."""
        span = self.spans[index]
        intervals = sorted(
            (max(span[START], self.spans[c][START]), min(span[END], self.spans[c][END]))
            for c in self._children.get(index, ())
        )
        covered = 0
        current_start = current_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return max(0, self.duration(index) - covered)

    def total_seconds(self, name: str, windows=None) -> float:
        return sum(self.duration(i) for i in self.select(name, windows)) / 1e9

    def self_seconds(self, name: str, windows=None) -> float:
        return sum(self.self_time(i) for i in self.select(name, windows)) / 1e9

    def items(self, name: str, windows=None) -> int:
        return sum(self.spans[i][ITEMS] for i in self.select(name, windows))


def in_windows(timestamp: int, windows: list[tuple[int, int]]) -> bool:
    """Whether ``timestamp`` falls in one of the sorted, disjoint ``windows``."""
    position = bisect.bisect_right(windows, (timestamp, float("inf"))) - 1
    return position >= 0 and windows[position][0] <= timestamp <= windows[position][1]
