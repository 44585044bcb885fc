"""A bare ``repro evaluate`` runs the single-stream loop.

The CLI has one engine: :class:`StaticEvaluator` stepping the chosen design
until the MoE target holds.  Its report must carry exactly the numbers of
that loop run directly from the same dataset, design, annotator and seed.
"""

from __future__ import annotations

from repro.cli import main
from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.generators.datasets import make_nell_like
from repro.sampling.twcs import TwoStageWeightedClusterDesign


class TestAutoParity:
    def test_default_auto_keeps_the_classic_loop(self, capsys):
        assert main(["evaluate", "--dataset", "nell", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        data = make_nell_like(seed=7)
        design = TwoStageWeightedClusterDesign(data.graph, second_stage_size=5, seed=7)
        annotator = SimulatedAnnotator(data.oracle, seed=7)
        report = StaticEvaluator(design, annotator, EvaluationConfig(moe_target=0.05)).run()
        expected = [
            "design             : twcs (m=5, shards=1)",
            f"estimated accuracy : {report.accuracy:.1%}",
            f"margin of error    : {report.margin_of_error:.3f} (target 0.05)",
            f"sample units       : {report.num_units} ({report.iterations} rounds)",
            f"triples annotated  : {report.num_triples_annotated}",
            f"entities identified: {report.num_entities_identified}",
            f"annotation cost    : {report.annotation_cost_hours:.2f} hours",
        ]
        lines = out.splitlines()
        for line in expected:
            assert line in lines
