"""Evolving-KG backend benchmark: columnar + delta segments vs in-memory.

Reproduces the Figure 8/9 update loops — base evaluation followed by a stream
of insertion batches handled by the incremental evaluators (Algorithms 1 and
2) — on a >=1M-triple synthetic KG, once per storage backend:

* **memory** — the evolving graph is a full object copy of the base
  (O(M) per-triple adds before the first batch even arrives) and position
  draws go through the dict-of-lists cluster index;
* **columnar** — the evolving graph is a zero-copy
  :class:`~repro.storage.delta.DeltaStore` view over the frozen columnar
  base, update batches append CSR segments, and draws run on the frozen CSR
  index.

Because the evaluators consume the random stream identically on every
backend, the two runs must produce **bit-identical** estimate
trajectories — the benchmark asserts that — while the columnar run is
expected to finish the whole update loop >=3x faster at 1M triples (the
speed assertion is only enforced at full scale so the CI smoke run at ~50k
triples stays a correctness check).

Environment knobs: ``REPRO_BENCH_EVOLVING_TRIPLES`` (default 1_000_000)
scales the KG; ``REPRO_BENCH_EVOLVING_BATCHES`` (default 5) and
``REPRO_BENCH_EVOLVING_BATCH_FRACTION`` (default 0.01) shape the update
stream.  Set ``REPRO_BENCH_RESULTS_DIR`` to also dump the raw numbers as
JSON (uploaded as a CI artifact by the benchmark-smoke job).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------- #
# Shared configuration
# --------------------------------------------------------------------------- #
_TARGET_TRIPLES = int(os.environ.get("REPRO_BENCH_EVOLVING_TRIPLES", 1_000_000))
_NUM_BATCHES = int(os.environ.get("REPRO_BENCH_EVOLVING_BATCHES", 5))
_BATCH_FRACTION = float(os.environ.get("REPRO_BENCH_EVOLVING_BATCH_FRACTION", 0.01))
_FULL_SCALE = 1_000_000
_MEAN_CLUSTER_SIZE = 9.0
_GRAPH_SEED = 0
_LABEL_SEED = 1
_EVAL_SEED = 2
_WORKLOAD_SEED = 3
_ACCURACY = 0.9
_UPDATE_ACCURACY = 0.7


def _kg_config():
    from repro.generators.synthetic_kg import SyntheticKGConfig

    num_entities = max(10, int(round(_TARGET_TRIPLES / _MEAN_CLUSTER_SIZE * 1.04)))
    return SyntheticKGConfig(
        num_entities=num_entities,
        mean_cluster_size=_MEAN_CLUSTER_SIZE,
        size_skew=1.1,
        max_cluster_size=500,
        name="bench-evolving",
    )


# --------------------------------------------------------------------------- #
# Subprocess worker
# --------------------------------------------------------------------------- #
def _worker_run(backend: str, method: str) -> dict:
    """Run one evaluator's full update loop on one backend (fresh process,
    so neither warm string-hash caches nor a polluted shared vocabulary can
    distort the comparison)."""
    import numpy as np

    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
    from repro.generators.datasets import LabelledKG
    from repro.generators.synthetic_kg import generate_kg
    from repro.generators.workload import UpdateWorkloadGenerator
    from repro.kg.graph import KnowledgeGraph
    from repro.labels.oracle import LabelOracle

    started = time.perf_counter()
    graph = generate_kg(_kg_config(), seed=_GRAPH_SEED)
    if backend == "memory":
        # The object-per-triple layout: the generated triples re-added one by one.
        graph = KnowledgeGraph(graph, name=graph.name, backend="memory")
    build_seconds = time.perf_counter() - started

    label_array = np.random.default_rng(_LABEL_SEED).random(graph.num_triples) < _ACCURACY
    # The label array is the whole oracle: no Triple-keyed mapping at 1M triples.
    base = LabelledKG(graph, LabelOracle.from_positions(graph, label_array))

    # Pre-generate the identical update stream outside the timed section.
    workload = UpdateWorkloadGenerator(base, seed=_WORKLOAD_SEED)
    batch_size = max(1, int(round(_BATCH_FRACTION * graph.num_triples)))
    updates = list(workload.generate_sequence(_NUM_BATCHES, batch_size, _UPDATE_ACCURACY))

    cls = {
        "SS": StratifiedIncrementalEvaluator,
        "RS": ReservoirIncrementalEvaluator,
    }[method]
    started = time.perf_counter()
    evaluator = cls(base, seed=_EVAL_SEED)
    setup_seconds = time.perf_counter() - started

    started = time.perf_counter()
    evaluator.evaluate_base()
    base_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for batch, batch_oracle in updates:
        evaluator.apply_update(batch, batch_oracle)
    batches_seconds = time.perf_counter() - started

    return {
        "backend": backend,
        "method": method,
        "num_triples": graph.num_triples,
        "num_entities": graph.num_entities,
        "build_seconds": build_seconds,
        "num_batches": _NUM_BATCHES,
        "batch_size": batch_size,
        "setup_seconds": setup_seconds,
        "base_eval_seconds": base_seconds,
        "batches_seconds": batches_seconds,
        "loop_seconds": setup_seconds + base_seconds + batches_seconds,
        "estimates": [e.accuracy for e in evaluator.history],
        "moes": [e.report.margin_of_error for e in evaluator.history],
        "cost_hours": evaluator.total_cost_hours,
        "true_accuracy": evaluator.current_true_accuracy(),
    }


def _run_worker(backend: str, method: str) -> dict:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), backend, method],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {backend}/{method} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _dump_results(name: str, payload: dict) -> None:
    results_dir = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    if not results_dir:
        return
    target = Path(results_dir)
    target.mkdir(parents=True, exist_ok=True)
    with open(target / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


# --------------------------------------------------------------------------- #
# Benchmark
# --------------------------------------------------------------------------- #
def test_evolving_backend_update_loop(benchmark):
    from conftest import emit, run_once

    def run_comparison():
        return {
            method: {backend: _run_worker(backend, method) for backend in ("memory", "columnar")}
            for method in ("SS", "RS")
        }

    results = run_once(benchmark, run_comparison)
    _dump_results("bench_evolving_backend", results)

    reference = results["SS"]["memory"]
    lines = [
        f"{'':34}{'memory':>12}{'columnar':>12}{'speedup':>9}",
        f"{'graph build seconds':34}{reference['build_seconds']:>12.1f}"
        f"{results['SS']['columnar']['build_seconds']:>12.1f}",
    ]
    speedups = {}
    for method in ("SS", "RS"):
        mem, col = results[method]["memory"], results[method]["columnar"]
        speedups[method] = mem["loop_seconds"] / col["loop_seconds"]
        lines += [
            f"{method + ' setup (evolving view) s':34}{mem['setup_seconds']:>12.2f}"
            f"{col['setup_seconds']:>12.2f}",
            f"{method + ' base evaluation s':34}{mem['base_eval_seconds']:>12.2f}"
            f"{col['base_eval_seconds']:>12.2f}",
            f"{method + ' update batches s':34}{mem['batches_seconds']:>12.2f}"
            f"{col['batches_seconds']:>12.2f}",
            f"{method + ' update loop total s':34}{mem['loop_seconds']:>12.2f}"
            f"{col['loop_seconds']:>12.2f}{speedups[method]:>8.1f}x",
            f"{method + ' final estimate':34}{mem['estimates'][-1]:>12.4f}"
            f"{col['estimates'][-1]:>12.4f}",
        ]
    emit(
        "Evolving update loop: columnar + delta segments vs in-memory copy "
        f"({reference['num_triples']:,} triples, {reference['num_batches']} batches "
        f"of {reference['batch_size']:,})",
        "\n".join(lines),
    )

    for method in ("SS", "RS"):
        mem, col = results[method]["memory"], results[method]["columnar"]
        assert mem["num_triples"] == col["num_triples"]
        # The statistical contract: same seed, same draws, same labels on
        # both backends — the trajectories must match bit for bit.
        assert mem["estimates"] == col["estimates"], method
        assert mem["moes"] == col["moes"], method
        assert mem["cost_hours"] == col["cost_hours"], method
        assert mem["true_accuracy"] == col["true_accuracy"], method
        # Sanity: the estimate tracks the (diluted) true accuracy.
        assert abs(mem["estimates"][-1] - mem["true_accuracy"]) < 0.08
    if reference["num_triples"] >= _FULL_SCALE:
        for method, speedup in speedups.items():
            assert speedup >= 3.0, (
                f"{method} update-loop speedup {speedup:.1f}x below the 3x target"
            )


# --------------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------------- #
if __name__ == "__main__":
    print(json.dumps(_worker_run(sys.argv[1], sys.argv[2])))
