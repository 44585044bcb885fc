"""The Sample Pool: handing sampled units to a crew of annotators.

Figure 2 of the paper places a *Sample Pool* between the sample collector and
the estimator: it accumulates sampled triples, groups them by subject into
Evaluation Tasks (Section 3.1), and hands the tasks to human annotators.  The
framework is "independent of the manual annotation process — users can specify
either single evaluation or multiple evaluations (assigned to different
annotators) per Evaluation Task" (Section 4).

This module implements that component for the simulated setting, on the
position surface every annotator shares
(:meth:`~repro.cost.annotator.SimulatedAnnotator.annotate_positions`):

* :class:`NoisyAnnotator` — a simulated annotator whose labels are wrong with
  a configurable probability, standing in for imperfect human workers;
* :class:`AnnotationTaskPool` — hands each sampled unit (one cluster's drawn
  triples, or one triple) as one task to one or more annotators
  (round-robin), resolves disagreements by majority vote and accounts for the
  total annotation cost across the crew.

Both take a round of :class:`~repro.sampling.base.PositionBatch` units and
return a label array by position, so either drops into
:class:`~repro.core.framework.StaticEvaluator` unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle
from repro.sampling.base import PositionBatch
from repro.storage.columnar import first_occurrences

__all__ = ["NoisyAnnotator", "TaskRecord", "AnnotationTaskPool"]


class NoisyAnnotator(SimulatedAnnotator):
    """A simulated annotator that makes mistakes.

    Each position gets its label once per session, when it is first
    labelled: the oracle's, flipped with probability ``label_error_rate``.
    The flips take one draw per newly labelled position from their own
    random stream, in draw order, and a position keeps its label for the
    rest of the session.

    Parameters
    ----------
    oracle:
        Ground-truth labels.
    label_error_rate:
        Probability that each produced label is flipped relative to the truth.
    cost_model, time_noise_sigma, seed:
        As in :class:`~repro.cost.annotator.SimulatedAnnotator`.
    """

    def __init__(
        self,
        oracle: LabelOracle,
        label_error_rate: float = 0.05,
        cost_model: CostModel | None = None,
        time_noise_sigma: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= label_error_rate <= 1.0:
            raise ValueError("label_error_rate must be in [0, 1]")
        # Derive independent child streams for timing noise and label flips.
        # Passing the same `seed` to both would make them identical streams:
        # the k-th label flip and the k-th time-noise factor would be driven
        # by the same underlying draws, silently correlating label errors
        # with annotation cost.
        if isinstance(seed, np.random.Generator):
            cost_rng: np.random.Generator | np.random.SeedSequence = seed
            # Generator.spawn derives an independent child stream without
            # advancing the parent, so callers sharing `seed` are unaffected.
            label_rng_or_seed: np.random.Generator | np.random.SeedSequence = seed.spawn(1)[0]
        else:
            cost_rng, label_rng_or_seed = np.random.SeedSequence(seed).spawn(2)
        super().__init__(
            oracle, cost_model=cost_model, time_noise_sigma=time_noise_sigma, seed=cost_rng
        )
        self.label_error_rate = label_error_rate
        self._label_rng = np.random.default_rng(label_rng_or_seed)
        # The session's labels per graph object: id(graph) -> label array.
        self._labels: dict[int, np.ndarray] = {}

    def reset(self) -> None:
        """Start a new session: forget the cost, the identifications and the flips."""
        super().reset()
        self._labels = {}

    def annotate_positions(self, graph: KnowledgeGraph, batch: PositionBatch) -> np.ndarray:
        """Annotate one round, flipping each newly labelled position with the error rate."""
        truth = self.oracle.position_labels(graph)
        positions = batch.positions
        fresh = positions[~self._ledger(graph).annotated[positions]]
        fresh = fresh[first_occurrences(fresh)]
        super().annotate_positions(graph, batch)
        labels = self._labels.get(id(graph), truth)
        if labels.shape[0] != truth.shape[0]:
            # The graph grew: its new positions carry the oracle's labels.
            labels = np.concatenate((labels, truth[labels.shape[0] :]))
        if self.label_error_rate and fresh.shape[0]:
            if not labels.flags.writeable:
                labels = labels.copy()
            flips = self._label_rng.random(fresh.shape[0]) < self.label_error_rate
            labels[fresh] = truth[fresh] != flips
        self._labels[id(graph)] = labels
        return labels


@dataclass(frozen=True)
class TaskRecord:
    """One dispatched evaluation task: a unit's positions, its annotators and the votes."""

    positions: np.ndarray
    annotator_indices: tuple[int, ...]
    labels: np.ndarray
    cost_seconds: float

    @property
    def size(self) -> int:
        """Number of triples in the task."""
        return int(self.positions.shape[0])


class AnnotationTaskPool:
    """Dispatches each sampled unit, as one evaluation task, to a crew.

    Parameters
    ----------
    annotators:
        The available annotators.  A single annotator reproduces the default
        single-evaluation setting of the paper exactly.
    annotations_per_task:
        How many distinct annotators label each evaluation task; disagreements
        are resolved by majority vote (ties resolve to the first assigned
        annotator's label).
    """

    def __init__(
        self,
        annotators: Sequence[SimulatedAnnotator],
        annotations_per_task: int = 1,
    ) -> None:
        if not annotators:
            raise ValueError("at least one annotator is required")
        if not 1 <= annotations_per_task <= len(annotators):
            raise ValueError("annotations_per_task must be between 1 and the number of annotators")
        self.annotators = list(annotators)
        self.annotations_per_task = annotations_per_task
        self._next_annotator = 0
        self.records: list[TaskRecord] = []

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _assign(self) -> tuple[int, ...]:
        indices = tuple(
            (self._next_annotator + offset) % len(self.annotators)
            for offset in range(self.annotations_per_task)
        )
        self._next_annotator = (self._next_annotator + 1) % len(self.annotators)
        return indices

    def annotate_positions(self, graph: KnowledgeGraph, batch: PositionBatch) -> np.ndarray:
        """Annotate one round through the crew and return its voted label array.

        Each unit is one task: ``annotations_per_task`` members, taken
        round-robin, label it through their own ``annotate_positions`` and
        the majority wins.  A position named by two units of the round keeps
        the first unit's vote.
        """
        votes = np.zeros(batch.positions.shape[0], dtype=bool)
        starts, counts = batch.starts.tolist(), batch.counts.tolist()
        for unit, (start, count) in enumerate(zip(starts, counts)):
            task = PositionBatch(
                batch.positions[start : start + count],
                batch.counts[unit : unit + 1],
                batch.entity_rows[unit : unit + 1],
                batch.cluster_sizes[unit : unit + 1],
            )
            indices = self._assign()
            cost_before = self.total_cost_seconds
            ballots = np.array(
                [
                    self.annotators[index].annotate_positions(graph, task)[task.positions]
                    for index in indices
                ]
            )
            ayes = 2 * np.count_nonzero(ballots, axis=0)
            voted = (ayes > len(indices)) | ((ayes == len(indices)) & ballots[0])
            votes[start : start + count] = voted
            self.records.append(
                TaskRecord(task.positions, indices, voted, self.total_cost_seconds - cost_before)
            )
        labels = np.zeros(graph.num_triples, dtype=bool)
        first = first_occurrences(batch.positions)
        labels[batch.positions[first]] = votes[first]
        return labels

    def reset(self) -> None:
        """Start a fresh session on every annotator and clear task records."""
        for annotator in self.annotators:
            annotator.reset()
        self.records.clear()
        self._next_annotator = 0

    # ------------------------------------------------------------------ #
    # Aggregated accounting (SimulatedAnnotator-compatible surface)
    # ------------------------------------------------------------------ #
    @property
    def total_cost_seconds(self) -> float:
        """Total annotation time charged across the whole crew."""
        return sum(a.total_cost_seconds for a in self.annotators)

    @property
    def total_cost_hours(self) -> float:
        """Total crew annotation time in hours."""
        return self.total_cost_seconds / 3600.0

    @property
    def total_triples_annotated(self) -> int:
        """Distinct (annotator, triple) labelling acts performed so far."""
        return sum(a.total_triples_annotated for a in self.annotators)

    @property
    def entities_identified(self) -> int:
        """Entity identifications performed across the crew (re-identification
        by a second annotator counts, as it costs real time)."""
        return sum(a.entities_identified for a in self.annotators)
