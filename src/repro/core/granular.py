"""Accuracy evaluation at finer granularity: per predicate or per custom group.

The paper's conclusion lists "efficient evaluation on different granularity,
such as accuracy per predicate or per entity type" as future work.  This
module provides that extension on top of the existing machinery: the KG is
partitioned into groups by an arbitrary triple-level key (predicate by
default), each group is evaluated with its own TWCS design and
margin-of-error target, and all groups share one annotation session so an
entity identified for one group is free for every other group it appears in.

Small groups (fewer triples than a census would cost to reach the MoE target)
are simply annotated exhaustively, which is both cheaper and exact.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.core.result import EvaluationReport
from repro.cost.annotator import SimulatedAnnotator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.sampling.base import Estimate, PositionBatch
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["GroupReport", "GranularEvaluator", "evaluate_by_predicate"]


@dataclass(frozen=True)
class GroupReport:
    """The evaluation outcome for one group of triples."""

    group: str
    num_triples_in_group: int
    report: EvaluationReport
    exhaustive: bool

    @property
    def accuracy(self) -> float:
        """Estimated (or exact, if exhaustive) accuracy of the group."""
        return self.report.accuracy

    @property
    def margin_of_error(self) -> float:
        """Margin of error of the group estimate (0 for exhaustive groups)."""
        return 0.0 if self.exhaustive else self.report.margin_of_error


class GranularEvaluator:
    """Evaluates KG accuracy separately for each group of triples.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    annotator:
        A single annotator shared by all groups, so entity identifications are
        paid for once across the whole granular evaluation.
    config:
        Per-group quality requirement (MoE / confidence / batch size).
    second_stage_size:
        TWCS cap ``m`` used inside each group.
    seed:
        Seed for all sampling randomness.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        annotator: SimulatedAnnotator,
        config: EvaluationConfig | None = None,
        second_stage_size: int = 5,
        seed: int | None = None,
    ) -> None:
        self.graph = graph
        self.annotator = annotator
        self.config = config if config is not None else EvaluationConfig()
        self.second_stage_size = second_stage_size
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def _partition(self, group_key: Callable[[Triple], str]) -> dict[str, KnowledgeGraph]:
        groups: dict[str, list[Triple]] = {}
        for triple in self.graph:
            groups.setdefault(group_key(triple), []).append(triple)
        return {
            key: KnowledgeGraph(triples, name=f"{self.graph.name}:{key}")
            for key, triples in groups.items()
        }

    def _census_cheaper(self, group_graph: KnowledgeGraph) -> bool:
        """Whether exhaustively annotating the group is cheaper than sampling.

        A TWCS evaluation needs at least ``min_units`` cluster draws; when the
        group holds fewer triples than that, a census costs no more and yields
        an exact answer.
        """
        return group_graph.num_triples <= self.config.min_units

    def _exhaustive_report(self, group_graph: KnowledgeGraph) -> EvaluationReport:
        cost_before = self.annotator.total_cost_seconds
        triples_before = self.annotator.total_triples_annotated
        entities_before = self.annotator.entities_identified
        # Every triple of the group as a triple-level unit, in position order.
        num_triples = group_graph.num_triples
        batch = PositionBatch.of_triples(np.arange(num_triples))
        labels = self.annotator.annotate_positions(group_graph, batch)
        accuracy = int(np.count_nonzero(labels)) / num_triples if num_triples else 0.0
        estimate = Estimate(
            value=accuracy,
            std_error=0.0,
            num_units=group_graph.num_triples,
            num_triples=group_graph.num_triples,
        )
        return EvaluationReport(
            estimate=estimate,
            confidence_level=self.config.confidence_level,
            moe_target=self.config.moe_target,
            satisfied=True,
            iterations=1,
            num_units=group_graph.num_triples,
            num_triples_annotated=self.annotator.total_triples_annotated - triples_before,
            num_entities_identified=self.annotator.entities_identified - entities_before,
            annotation_cost_seconds=self.annotator.total_cost_seconds - cost_before,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, group_key: Callable[[Triple], str]) -> dict[str, GroupReport]:
        """Evaluate every group induced by ``group_key`` to the configured MoE.

        Returns a mapping from group label to :class:`GroupReport`, ordered by
        descending group size (largest groups first, which also front-loads
        the entity identifications most likely to be shared).
        """
        groups = self._partition(group_key)
        ordered = sorted(groups.items(), key=lambda item: -item[1].num_triples)
        reports: dict[str, GroupReport] = {}
        for label, group_graph in ordered:
            if self._census_cheaper(group_graph):
                report = self._exhaustive_report(group_graph)
                exhaustive = True
            else:
                design = TwoStageWeightedClusterDesign(
                    group_graph, second_stage_size=self.second_stage_size, seed=self._rng
                )
                evaluator = StaticEvaluator(design, self.annotator, self.config)
                report = evaluator.run(reset=False)
                exhaustive = False
            reports[label] = GroupReport(
                group=label,
                num_triples_in_group=group_graph.num_triples,
                report=report,
                exhaustive=exhaustive,
            )
        return reports

    def evaluate_by_predicate(self) -> dict[str, GroupReport]:
        """Per-predicate accuracy evaluation (the paper's headline future-work case)."""
        return self.evaluate(lambda triple: triple.predicate)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @staticmethod
    def combine(reports: Mapping[str, GroupReport]) -> Estimate:
        """Combine group estimates into an overall estimate (stratified form).

        Groups are non-overlapping and cover the KG, so the combination is a
        stratified estimator with weights proportional to group sizes.
        """
        total = sum(report.num_triples_in_group for report in reports.values())
        if total == 0:
            return Estimate(value=0.0, std_error=float("inf"), num_units=0, num_triples=0)
        value = 0.0
        variance = 0.0
        num_units = 0
        num_triples = 0
        for report in reports.values():
            weight = report.num_triples_in_group / total
            value += weight * report.report.estimate.value
            std_error = report.report.estimate.std_error
            if not report.exhaustive and np.isfinite(std_error):
                variance += weight * weight * std_error**2
            num_units += report.report.estimate.num_units
            num_triples += report.report.estimate.num_triples
        return Estimate(
            value=value,
            std_error=float(np.sqrt(variance)),
            num_units=num_units,
            num_triples=num_triples,
        )


def evaluate_by_predicate(
    graph: KnowledgeGraph,
    annotator: SimulatedAnnotator,
    moe_target: float = 0.05,
    confidence_level: float = 0.95,
    second_stage_size: int = 5,
    seed: int | None = None,
) -> dict[str, GroupReport]:
    """One-call per-predicate accuracy evaluation.

    Examples
    --------
    >>> from repro.generators import make_nell_like
    >>> from repro.cost import SimulatedAnnotator
    >>> data = make_nell_like(seed=0)
    >>> reports = evaluate_by_predicate(data.graph, SimulatedAnnotator(data.oracle), moe_target=0.1)
    >>> all(0.0 <= r.accuracy <= 1.0 for r in reports.values())
    True
    """
    config = EvaluationConfig(moe_target=moe_target, confidence_level=confidence_level)
    evaluator = GranularEvaluator(
        graph, annotator, config, second_stage_size=second_stage_size, seed=seed
    )
    return evaluator.evaluate_by_predicate()
