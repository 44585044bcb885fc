#!/usr/bin/env python3
"""Continuously monitoring the accuracy of an evolving knowledge graph.

A production KG ingests new facts in batches; re-certifying its accuracy from
scratch after every batch is wasteful.  This example follows Section 6/7.3 of
the paper: a MOVIE-like base KG receives a stream of update batches of varying
quality, and three evaluators keep its accuracy estimate within a 5 % margin
of error:

* Baseline — fresh static TWCS evaluation per snapshot,
* RS       — reservoir incremental evaluation (Algorithm 1),
* SS       — stratified incremental evaluation (Algorithm 2).

Every evaluator samples integer triple positions and reads ground truth from
a position-aligned label array.  The second part shows the production-scale
variant of the same workflow: the base KG moves to the columnar backend and
is persisted with ``LabelledKG.save`` (a snapshot directory of columns plus
the label array), update batches become appended CSR segments over a
zero-copy DeltaStore view, no Triple objects are materialised, and
re-running the script reopens the snapshot with ``LabelledKG.open`` (its
stored label array becomes the oracle as is) instead of rebuilding the base.
Estimates are bit-identical across storage backends under a fixed seed.

Run with:  python examples/evolving_kg_monitoring.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BaselineEvolvingEvaluator,
    EvolvingAccuracyMonitor,
    LabelledKG,
    RandomErrorModel,
    ReservoirIncrementalEvaluator,
    StratifiedIncrementalEvaluator,
    UpdateWorkloadGenerator,
    make_movie_like,
)

NUM_BATCHES = 6
BATCH_FRACTION = 0.15
BATCH_ACCURACIES = (0.95, 0.9, 0.6, 0.85, 0.4, 0.9)


def build_base(seed: int) -> LabelledKG:
    """A 50% subset of a MOVIE-like KG, relabelled at 90% accuracy with REM."""
    movie = make_movie_like(seed=seed, scale=0.01)
    rng = np.random.default_rng(seed)
    base_graph = movie.graph.random_triple_subset(0.5, rng, name="MOVIE-base")
    oracle = RandomErrorModel.with_accuracy(0.9, seed=seed).generate(base_graph)
    return LabelledKG(base_graph, oracle)


def main() -> None:
    base = build_base(seed=5)
    print(f"Base KG: {base.graph!r}, true accuracy {base.true_accuracy:.1%}\n")
    batch_size = int(BATCH_FRACTION * base.graph.num_triples)

    evaluators = {
        "Baseline": BaselineEvolvingEvaluator(base, seed=1),
        "RS (reservoir)": ReservoirIncrementalEvaluator(base, seed=1),
        "SS (stratified)": StratifiedIncrementalEvaluator(base, seed=1),
    }
    for name, evaluator in evaluators.items():
        monitor = EvolvingAccuracyMonitor(evaluator)
        monitor.evaluate_base()
        # Every evaluator sees an identically generated update stream.
        workload = UpdateWorkloadGenerator(base, seed=99)
        for accuracy in BATCH_ACCURACIES[:NUM_BATCHES]:
            batch, batch_oracle = workload.generate_batch(batch_size, accuracy)
            monitor.apply_update(batch, batch_oracle)

        print(f"=== {name} ===")
        print("batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)")
        for record in monitor.records:
            print(
                f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
                f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
                f"{record.incremental_cost_hours:12.2f}  {record.cumulative_cost_hours:12.2f}"
            )
        print()

    print(
        "Expected shape: all three track the falling-then-recovering true accuracy;\n"
        "SS spends the least annotation time, the Baseline by far the most."
    )


def columnar_with_snapshot_resume(snapshot_dir: Path) -> None:
    """The same monitoring loop on the columnar backend, resumable via snapshot.

    First call: builds the base KG, converts it to columnar storage and
    persists graph + labels.  Subsequent calls reopen the snapshot in
    milliseconds and replay the identical trajectory — nothing is
    re-generated or re-annotated.
    """
    if snapshot_dir.exists():
        # The stored label array is the whole oracle: no Triple-keyed mapping.
        base = LabelledKG.open(snapshot_dir)
        print(f"reopened {base.graph!r} from {snapshot_dir} (labels persisted alongside)")
    else:
        base = build_base(seed=5).to_columnar()
        base.save(snapshot_dir)
        print(f"built {base.graph!r} and saved graph + labels to {snapshot_dir}")

    evaluator = StratifiedIncrementalEvaluator(base, seed=1)
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.evaluate_base()
    workload = UpdateWorkloadGenerator(base, seed=99)
    batch_size = int(BATCH_FRACTION * base.graph.num_triples)
    for accuracy in BATCH_ACCURACIES[:3]:
        batch, batch_oracle = workload.generate_batch(batch_size, accuracy)
        monitor.apply_update(batch, batch_oracle)

    print("=== SS on columnar + DeltaStore ===")
    print("batch  estimate  truth   MoE    total-cost(h)")
    for record in monitor.records:
        print(
            f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
            f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
            f"{record.cumulative_cost_hours:12.2f}"
        )
    print()


if __name__ == "__main__":
    main()
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_dir = Path(tmp) / "movie-base"
        columnar_with_snapshot_resume(snapshot_dir)  # builds + saves
        columnar_with_snapshot_resume(snapshot_dir)  # reopens + replays
