"""Common interface of the evolving-KG evaluators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.result import EvaluationReport
from repro.cost.annotator import PositionAnnotationAccount, SimulatedAnnotator
from repro.cost.model import CostModel
from repro.generators.datasets import LabelledKG
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch
from repro.labels.oracle import LabelOracle
from repro.obs import metrics as obs_metrics
from repro.sampling.segment import PositionSegment

__all__ = ["UpdateEvaluation", "IncrementalEvaluator"]

_SURFACES = ("object", "position")


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
    batches one at a time.  They own an annotator whose session spans the
    whole lifetime of the evaluator, so annotations paid for earlier states
    are naturally reused (or deliberately discarded, in the Baseline's case).

    Parameters
    ----------
    base:
        The labelled base knowledge graph ``G``.
    config:
        Quality requirement applied to every state (default: 5 % MoE, 95 %).
    cost_model:
        Annotation cost parameters (default: the paper's fitted c1/c2).
    second_stage_size:
        TWCS second-stage cap ``m`` used by all evaluators.
    seed:
        Seed for all randomness (sampling and reservoir keys).
    surface:
        ``"object"`` (default) — annotation flows through Triple objects and
        a :class:`~repro.cost.annotator.SimulatedAnnotator`, the seed
        behaviour.  ``"position"`` — sampling, labels and cost accounting run
        on integer triple positions and boolean label arrays, with update
        batches handled as appended CSR segments; on a columnar base the
        evolved graph is a zero-copy
        :class:`~repro.storage.delta.DeltaStore` view.  Position-mode runs
        consume the random stream identically on every storage backend, so a
        fixed seed yields bit-identical estimates across backends.
    position_labels:
        Ground-truth labels for the base graph as a position-aligned boolean
        array (position mode only).  When omitted it is derived from the base
        oracle with one O(M) pass; passing it (e.g. from a format-v2 snapshot)
        skips that pass entirely.
    compact_threshold:
        When set and the evolving graph is delta-backed, re-freeze the tail
        into the base whenever it outgrows this fraction of the base
        (:meth:`~repro.storage.delta.DeltaStore.maybe_compact`).  Compaction
        preserves every position, row and per-cluster order, so estimate
        trajectories are bit-identical either way — but a compacted run can
        no longer be captured as snapshot-v3 evaluator state (the tail has
        been folded into the base).
    """

    def __init__(
        self,
        base: LabelledKG,
        config: EvaluationConfig | None = None,
        cost_model: CostModel | None = None,
        second_stage_size: int = 5,
        seed: int | None = None,
        surface: str = "object",
        position_labels: np.ndarray | None = None,
        compact_threshold: float | None = None,
    ) -> None:
        if surface not in _SURFACES:
            raise ValueError(f"surface must be one of {_SURFACES}, got {surface!r}")
        self.config = config if config is not None else EvaluationConfig()
        self.second_stage_size = second_stage_size
        self.seed = seed
        self.surface = surface
        self.evolving = EvolvingKnowledgeGraph(base.graph, compact_threshold=compact_threshold)
        # Vocabulary size of the untouched base, recorded before any batch
        # interns new strings; state persistence (snapshot format v3) uses it
        # to capture exactly the strings an update stream added.
        vocab = getattr(base.graph.backend, "vocab", None)
        self._base_vocab_size = len(vocab) if vocab is not None else None
        if surface == "position":
            # The oracle is only read (never extended) in position mode: the
            # ground truth lives in the position-aligned label array, which is
            # extended per batch instead.
            self.oracle = base.oracle
            if position_labels is not None:
                self._labels = np.asarray(position_labels, dtype=bool)
                if self._labels.shape[0] != base.graph.num_triples:
                    raise ValueError(
                        "position_labels must be aligned with the base graph "
                        f"({self._labels.shape[0]} labels, "
                        f"{base.graph.num_triples} triples)"
                    )
            else:
                self._labels = base.oracle.as_position_array(base.graph)
            self._account: PositionAnnotationAccount | None = PositionAnnotationAccount(cost_model)
        else:
            self.oracle = LabelOracle(base.oracle.as_dict())
            self._labels = None
            self._account = None
        self.annotator = SimulatedAnnotator(self.oracle, cost_model=cost_model, seed=seed)
        self.history: list[UpdateEvaluation] = []
        # Cost charged in annotator sessions that have since been reset (only
        # the Baseline resets sessions); added back so cumulative cost is
        # monotone across snapshots for every evaluator.
        self._discarded_cost_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @abstractmethod
    def evaluate_base(self) -> UpdateEvaluation:
        """Evaluate the base graph ``G`` and remember the result."""

    @abstractmethod
    def apply_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> UpdateEvaluation:
        """Apply one insertion batch and re-evaluate ``G + Δ`` incrementally."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @property
    def position_mode(self) -> bool:
        """Whether this evaluator runs on the position surface."""
        return self.surface == "position"

    @property
    def labels(self) -> np.ndarray | None:
        """Position-aligned ground-truth labels (position mode only)."""
        return self._labels

    @property
    def account(self) -> PositionAnnotationAccount | None:
        """The position-surface cost account (position mode only)."""
        return self._account

    def _register_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> list[bool]:
        """Record the batch in the evolving graph and extend the oracle.

        Returns the per-triple added flags (``False`` for duplicates the
        graph already contained).
        """
        self.oracle.extend(batch_oracle)
        return self.evolving.apply(batch)

    def _append_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> PositionSegment:
        """Position-mode twin of :meth:`_register_update`.

        Applies the batch, extends the label array with the batch's ground
        truth and returns the appended CSR segment the evaluator samples.
        """
        assert self._labels is not None
        first_position = self.evolving.current.num_triples
        flags = self.evolving.apply(batch)
        segment = PositionSegment.from_batch(batch.triples, flags, first_position)
        batch_labels = np.fromiter(
            (
                batch_oracle.label(triple)
                for triple, added in zip(batch.triples, flags)
                if added
            ),
            dtype=bool,
            count=segment.num_triples,
        )
        self._labels = np.concatenate([self._labels, batch_labels])
        return segment

    def current_true_accuracy(self) -> float:
        """Exact accuracy of the evolved graph under the ground truth.

        O(1)-ish in position mode (one array mean); one O(M) oracle pass in
        object mode.
        """
        if self._labels is not None:
            if self._labels.shape[0] == 0:
                return 0.0
            return float(self._labels.mean())
        return self.oracle.true_accuracy(self.evolving.current)

    # ------------------------------------------------------------------ #
    # Unified cost accounting across surfaces
    # ------------------------------------------------------------------ #
    def _cost_totals(self) -> tuple[float, int, int]:
        """Current ``(cost_seconds, triples_annotated, entities_identified)``."""
        if self._account is not None:
            return (
                self._account.total_cost_seconds,
                self._account.total_triples_annotated,
                self._account.entities_identified,
            )
        return (
            self.annotator.total_cost_seconds,
            self.annotator.total_triples_annotated,
            self.annotator.entities_identified,
        )

    def _report_fields(self, totals_before: tuple[float, int, int]) -> tuple[int, int, float]:
        """Incremental ``(triples, entities, cost_seconds)`` since ``totals_before``."""
        cost_now, triples_now, entities_now = self._cost_totals()
        cost_before, triples_before, entities_before = totals_before
        return (
            triples_now - triples_before,
            entities_now - entities_before,
            cost_now - cost_before,
        )

    def _record(self, batch_id: str, report: EvaluationReport) -> UpdateEvaluation:
        cost_now, triples_now, entities_now = self._cost_totals()
        # Annotation-cost deltas since the previous recorded state: the
        # counters advance batch by batch even though the account only
        # exposes cumulative totals.
        last_cost, last_triples, last_entities = getattr(
            self, "_obs_last_totals", (0.0, 0, 0)
        )
        kind = type(self).__name__
        obs_metrics.counter("annotation_cost_seconds_total", evaluator=kind).inc(
            max(0.0, cost_now - last_cost)
        )
        obs_metrics.counter("annotation_triples_total", evaluator=kind).inc(
            max(0, triples_now - last_triples)
        )
        obs_metrics.counter("annotation_entities_total", evaluator=kind).inc(
            max(0, entities_now - last_entities)
        )
        self._obs_last_totals = (cost_now, triples_now, entities_now)
        evaluation = UpdateEvaluation(
            batch_id=batch_id,
            report=report,
            cumulative_cost_seconds=cost_now + self._discarded_cost_seconds,
        )
        self.history.append(evaluation)
        return evaluation

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
        return (self._cost_totals()[0] + self._discarded_cost_seconds) / 3600.0
