#!/usr/bin/env python3
"""Evaluating your own knowledge graph loaded from a TSV file.

The other examples generate synthetic KGs; this one shows the path a
downstream user of the library would actually take:

1. load a knowledge graph from a ``subject<TAB>predicate<TAB>object`` file
   (here we first write a small demo file so the example is self-contained);
2. run a *pilot* TWCS round against human annotators — simulated below — to
   get rough cluster-accuracy information;
3. pick the optimal second-stage size m from the pilot (Eq. 12) and run the
   full evaluation to the required margin of error.

Run with:  python examples/custom_kg_from_tsv.py
"""

import tempfile
from pathlib import Path

from repro import CostModel, SimulatedAnnotator, TwoStageWeightedClusterDesign, evaluate_accuracy
from repro.generators import make_nell_like
from repro.kg.io import read_labelled_tsv, write_labelled_tsv
from repro.labels import LabelOracle
from repro.sampling.pilot import recommend_design, run_pilot


def write_demo_file(path: Path) -> None:
    """Write a small labelled KG to disk (stands in for your exported KG)."""
    data = make_nell_like(seed=21)
    labels = {triple: data.oracle.label(triple) for triple in data.graph}
    write_labelled_tsv(labels, path)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        kg_path = Path(tmp) / "my_kg.tsv"
        write_demo_file(kg_path)

        # 1. Load the KG (and, because this demo file happens to ship labels,
        #    the ground truth the simulated annotator will consult).
        graph, labels = read_labelled_tsv(kg_path, name="my-kg")
        oracle = LabelOracle(labels)
        print(f"Loaded {graph!r} from {kg_path.name}")

        # 2. Pilot round: a cheap TWCS pass of 40 cluster draws, 3 triples each.
        pilot = run_pilot(graph, SimulatedAnnotator(oracle, seed=1), num_clusters=40, seed=1)
        print(
            f"Pilot: {pilot.num_clusters} clusters, {pilot.num_triples_annotated} triples, "
            f"accuracy~{pilot.accuracy_estimate:.1%}, cost={pilot.cost_hours:.2f}h"
        )

        # 3. Use the pilot's per-cluster picture to choose m, then run the
        #    full evaluation at 5% MoE.  The pilot-derived cluster accuracies
        #    are crude (few triples per cluster), which is exactly the
        #    situation a practitioner is in.
        optimum = recommend_design(pilot, CostModel(), moe_target=0.05)
        print(f"Pilot-estimated optimal m = {optimum.second_stage_size}")

        design = TwoStageWeightedClusterDesign(
            graph, second_stage_size=optimum.second_stage_size, seed=5
        )
        annotator = SimulatedAnnotator(oracle, seed=5)
        report = evaluate_accuracy(design, annotator, moe_target=0.05)
        interval = report.confidence_interval
        print(f"Final: {report.summary()}")
        print(f"95% confidence interval: [{interval.lower:.1%}, {interval.upper:.1%}]")


if __name__ == "__main__":
    main()
