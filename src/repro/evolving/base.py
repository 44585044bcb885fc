"""Common interface of the evolving-KG evaluators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.result import EvaluationReport
from repro.cost.annotator import PositionAnnotationAccount
from repro.cost.model import CostModel
from repro.generators.datasets import LabelledKG
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch
from repro.obs import metrics as obs_metrics
from repro.sampling.base import Estimate, PositionBatch
from repro.sampling.segment import PositionSegment
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["UpdateEvaluation", "IncrementalEvaluator"]


@dataclass(frozen=True)
class UpdateEvaluation:
    """The outcome of evaluating one KG state (base or after an update batch).

    Attributes
    ----------
    batch_id:
        ``"base"`` for the initial evaluation, otherwise the update batch id.
    report:
        The evaluation report for this state; its cost fields cover only the
        *incremental* work done for this state (annotations reused from
        earlier states cost nothing).
    cumulative_cost_seconds:
        Total annotation cost spent since the evaluator was created.
    """

    batch_id: str
    report: EvaluationReport
    cumulative_cost_seconds: float

    @property
    def accuracy(self) -> float:
        """Point estimate of overall KG accuracy at this state."""
        return self.report.accuracy

    @property
    def incremental_cost_hours(self) -> float:
        """Annotation hours spent specifically for this state."""
        return self.report.annotation_cost_hours

    @property
    def cumulative_cost_hours(self) -> float:
        """Annotation hours spent since the evaluator was created."""
        return self.cumulative_cost_seconds / 3600.0


class IncrementalEvaluator(ABC):
    """Base class for evaluators that track an evolving knowledge graph.

    Subclasses are constructed around a labelled base KG and then fed update
    batches one at a time.  Sampling, labels and cost accounting all run on
    integer triple positions: ground truth is a position-aligned boolean
    array, extended per batch by the batch's own label column, and Eq. (4)
    cost is charged to one
    :class:`~repro.cost.annotator.PositionAnnotationAccount` whose session
    spans the evaluator's lifetime, so annotations paid for earlier states
    are naturally reused (or deliberately discarded, in the Baseline's case).
    Each update batch is sampled as an appended CSR
    :class:`~repro.sampling.segment.PositionSegment`; the evolved graph is a
    :class:`~repro.storage.delta.DeltaStore` view over the base's columns
    (zero-copy on a columnar base).  The random stream is consumed
    identically on every storage backend, so a fixed seed yields
    bit-identical estimates across backends.

    Parameters
    ----------
    base:
        The labelled base knowledge graph ``G``.  Its oracle's label array is
        read once (:meth:`~repro.labels.oracle.LabelOracle.as_position_array`):
        an oracle built with
        :meth:`~repro.labels.oracle.LabelOracle.from_positions` (a stored
        label array) hands it over as is; a Triple-keyed one costs one O(M)
        pass.
    config:
        Quality requirement applied to every state (default: 5 % MoE, 95 %).
    cost_model:
        Annotation cost parameters (default: the paper's fitted c1/c2).
    second_stage_size:
        TWCS second-stage cap ``m`` used by all evaluators.
    seed:
        Seed for all randomness (sampling and reservoir keys).
    """

    def __init__(
        self,
        base: LabelledKG,
        config: EvaluationConfig | None = None,
        cost_model: CostModel | None = None,
        second_stage_size: int = 5,
        seed: int | None = None,
    ) -> None:
        self.config = config if config is not None else EvaluationConfig()
        self.second_stage_size = second_stage_size
        self.seed = seed
        self.evolving = EvolvingKnowledgeGraph(base.graph)
        self._labels = base.oracle.as_position_array(base.graph)
        # Running count of correct labels: current_true_accuracy reads it
        # instead of summing the whole label array on every write.
        self._num_correct = int(np.count_nonzero(self._labels))
        self._account = PositionAnnotationAccount(cost_model)
        self.history: list[UpdateEvaluation] = []
        # Cost charged to accounts that have since been replaced (only the
        # Baseline replaces its account); added back so cumulative cost is
        # monotone across snapshots for every evaluator.
        self._discarded_cost_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @abstractmethod
    def evaluate_base(self) -> UpdateEvaluation:
        """Evaluate the base graph ``G`` and remember the result."""

    @abstractmethod
    def apply_update(self, batch: UpdateBatch) -> UpdateEvaluation:
        """Apply one insertion batch and re-evaluate ``G + Δ`` incrementally."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> np.ndarray:
        """Position-aligned ground-truth labels of the evolved graph."""
        return self._labels

    @property
    def account(self) -> PositionAnnotationAccount:
        """The cost account charged by the current annotation session."""
        return self._account

    def _append_update(self, batch: UpdateBatch) -> PositionSegment:
        """Apply one batch and return the appended CSR segment to sample.

        The label array grows by the batch's labels of the triples the graph
        actually added (a duplicate keeps its original label).
        """
        current = self.evolving.current
        first_position = current.num_triples
        added = self.evolving.apply(batch)
        segment = PositionSegment.from_rows(
            current.backend.appended_rows(first_position), first_position
        )
        labels = batch.label_array[added]
        self._labels = np.concatenate([self._labels, labels])
        self._num_correct += int(np.count_nonzero(labels))
        return segment

    def _entity_row(self, segment: PositionSegment | None, cluster: int) -> int:
        """Evolved-graph entity row of ``cluster`` in ``segment``.

        ``segment=None`` means ``cluster`` already is a base graph row: base
        rows coincide with the evolved graph's rows on every backend
        (first-seen order is preserved by copy and delta view), so c1 is
        charged once per entity across the base and every update segment.
        """
        if segment is None:
            return cluster
        return int(segment.rows[cluster])

    def _charge_units(self, batch: PositionBatch, segment: PositionSegment | None) -> None:
        """Charge the account for one round of drawn cluster units, unit after unit."""
        for positions, cluster, _ in batch:
            self._account.charge(self._entity_row(segment, cluster), positions)

    def _run_static(self, design: TwoStageWeightedClusterDesign) -> int:
        """The static TWCS loop over a whole graph; returns the rounds run.

        Draw, charge and fold one round (one position batch) at a time
        until the estimate meets the quality requirement, exactly as
        :meth:`~repro.core.framework.StaticEvaluator.run` stops.
        """
        config = self.config
        iterations = 0
        while True:
            estimate = design.estimate()
            if config.target_met(estimate):
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                break
            batch = design.draw_positions(config.batch_size)
            if not len(batch):
                break
            self._charge_units(batch, None)
            design.update_all_positions(batch, self._labels)
            iterations += 1
        return iterations

    def current_true_accuracy(self) -> float:
        """Exact accuracy of the evolved graph under the ground truth.

        The running count of correct labels over the label count: the sum
        is an exact integer and the division is correctly rounded, so this
        equals the label array's mean bit for bit.
        """
        if self._labels.shape[0] == 0:
            return 0.0
        return self._num_correct / self._labels.shape[0]

    # ------------------------------------------------------------------ #
    # Cost accounting and reports
    # ------------------------------------------------------------------ #
    def _cost_totals(self) -> tuple[float, int, int]:
        """Current ``(cost_seconds, triples_annotated, entities_identified)``."""
        return (
            self._account.total_cost_seconds,
            self._account.total_triples_annotated,
            self._account.entities_identified,
        )

    def _report(
        self,
        estimate: Estimate,
        iterations: int,
        satisfied: bool,
        totals_before: tuple[float, int, int],
    ) -> EvaluationReport:
        """A report whose cost fields cover the work since ``totals_before``."""
        cost_now, triples_now, entities_now = self._cost_totals()
        cost_before, triples_before, entities_before = totals_before
        return EvaluationReport(
            estimate=estimate,
            confidence_level=self.config.confidence_level,
            moe_target=self.config.moe_target,
            satisfied=satisfied,
            iterations=iterations,
            num_units=estimate.num_units,
            num_triples_annotated=triples_now - triples_before,
            num_entities_identified=entities_now - entities_before,
            annotation_cost_seconds=cost_now - cost_before,
        )

    def _record(self, batch_id: str, report: EvaluationReport) -> UpdateEvaluation:
        # The counters advance by this state's own incremental work, which
        # stays right across a Baseline account swap and a resumed evaluator.
        kind = type(self).__name__
        obs_metrics.counter("annotation_cost_seconds_total", evaluator=kind).inc(
            report.annotation_cost_seconds
        )
        obs_metrics.counter("annotation_triples_total", evaluator=kind).inc(
            report.num_triples_annotated
        )
        obs_metrics.counter("annotation_entities_total", evaluator=kind).inc(
            report.num_entities_identified
        )
        evaluation = UpdateEvaluation(
            batch_id=batch_id, report=report, cumulative_cost_seconds=self._spent_seconds()
        )
        self.history.append(evaluation)
        return evaluation

    def _spent_seconds(self) -> float:
        """Annotation seconds charged since the evaluator was created."""
        return self._account.total_cost_seconds + self._discarded_cost_seconds

    @property
    def latest(self) -> UpdateEvaluation:
        """The most recent evaluation result.

        Raises
        ------
        IndexError
            If no evaluation has been performed yet.
        """
        return self.history[-1]

    @property
    def total_cost_hours(self) -> float:
        """Total annotation hours spent by this evaluator so far."""
        return self._spent_seconds() / 3600.0
