"""The warm-sweep process: set up once, then run Table-5 rows on request.

``python perfbench/sweep_worker.py <dataset seed>`` imports the program,
builds MOVIE x0.1 with ``make_movie_like``, converts it explicitly with
``.to_columnar()`` and derives the label array.  It then answers JSON lines
on stdin: ``{"row": seed}`` runs ``StaticEvaluator`` once per design at 2 %
MoE and 95 % confidence and replies with every report and the row's CPU
time (``cpu_s``, every thread of this process); ``{"exit": true}`` or end
of input stops it.  Replies go to the original stdout; anything the
program prints goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time

import bootstrap

DESIGNS = ("srs", "rcs", "wcs", "twcs", "twcs-strat")
MOVIE_SCALE = 0.1
MOE = 0.02
CONFIDENCE = 0.95
SECOND_STAGE_SIZE = 5
NUM_STRATA = 4


def build_design(name: str, graph, seed: int):
    from repro.sampling import (
        RandomClusterDesign,
        SimpleRandomDesign,
        StratifiedTWCSDesign,
        TwoStageWeightedClusterDesign,
        WeightedClusterDesign,
    )
    from repro.sampling.stratification import stratify_by_size

    if name == "srs":
        return SimpleRandomDesign(graph, seed=seed)
    if name == "rcs":
        return RandomClusterDesign(graph, seed=seed)
    if name == "wcs":
        return WeightedClusterDesign(graph, seed=seed)
    if name == "twcs":
        return TwoStageWeightedClusterDesign(graph, second_stage_size=SECOND_STAGE_SIZE, seed=seed)
    strata = stratify_by_size(graph, num_strata=NUM_STRATA)
    return StratifiedTWCSDesign(graph, strata, second_stage_size=SECOND_STAGE_SIZE, seed=seed)


def run_row(data, seed: int) -> list[dict]:
    from repro.core import EvaluationConfig, StaticEvaluator
    from repro.cost import SimulatedAnnotator

    config = EvaluationConfig(moe_target=MOE, confidence_level=CONFIDENCE)
    evaluations = []
    for name in DESIGNS:
        design = build_design(name, data.graph, seed)
        report = StaticEvaluator(design, SimulatedAnnotator(data.oracle, seed=seed), config).run()
        interval = report.confidence_interval
        evaluations.append(
            {
                "design": name,
                "accuracy": report.accuracy,
                "moe": report.margin_of_error,
                "lower": interval.lower,
                "upper": interval.upper,
                "satisfied": bool(report.satisfied),
                "units": report.num_units,
                "rounds": report.iterations,
                "triples": report.num_triples_annotated,
                "entities": report.num_entities_identified,
                "cost_seconds": report.annotation_cost_seconds,
            }
        )
    return evaluations


def main() -> int:
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    dataset_seed = int(sys.argv[1])
    tracer, import_seconds = bootstrap.start()
    from repro.cost import CostModel
    from repro.generators import LabelledKG, make_movie_like

    built = make_movie_like(seed=dataset_seed, scale=MOVIE_SCALE)
    data = LabelledKG(built.graph.to_columnar(), built.oracle)
    labels = data.oracle.as_position_array(data.graph)
    model = CostModel()
    ready = {
        "ready": True,
        "true_accuracy": float(labels.mean()),
        "cost_model": [model.identification_cost, model.validation_cost],
    }
    channel.write(json.dumps(ready) + "\n")
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if "row" not in request:
                break
            seed = int(request["row"])
            started = time.process_time()
            evaluations = run_row(data, seed)
            reply = {"row": seed, "evaluations": evaluations, "cpu_s": time.process_time() - started}
            channel.write(json.dumps(reply) + "\n")
    finally:
        bootstrap.finish(tracer, import_seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
