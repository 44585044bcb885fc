"""The Sample Pool: turning sampled triples into evaluation tasks for annotators.

Figure 2 of the paper places a *Sample Pool* between the sample collector and
the estimator: it accumulates sampled triples, groups them by subject into
Evaluation Tasks (Section 3.1), and hands the tasks to human annotators.  The
framework is "independent of the manual annotation process — users can specify
either single evaluation or multiple evaluations (assigned to different
annotators) per Evaluation Task" (Section 4).

This module implements that component for the simulated setting:

* :class:`NoisyAnnotator` — a simulated annotator whose labels are wrong with
  a configurable probability, standing in for imperfect human workers;
* :class:`AnnotationTaskPool` — groups triples into per-entity tasks, assigns
  each task to one or more annotators (round-robin), resolves disagreements by
  majority vote and accounts for the total annotation cost across the crew.

The pool exposes the same ``annotate_triples`` / cost-accounting interface as
:class:`~repro.cost.annotator.SimulatedAnnotator`, so it can be dropped into
:class:`~repro.core.framework.StaticEvaluator` unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cost.annotator import AnnotationResult, EvaluationTask, SimulatedAnnotator
from repro.cost.model import CostModel
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle

__all__ = ["NoisyAnnotator", "TaskRecord", "AnnotationTaskPool"]


class NoisyAnnotator(SimulatedAnnotator):
    """A simulated annotator that makes mistakes.

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

    def annotate_triples(self, triples: Iterable[Triple]) -> AnnotationResult:
        """Annotate triples, flipping each fresh label with the error rate."""
        triples = list(triples)
        labelled = self._session.labelled
        fresh = [t for t in triples if t not in labelled]
        result = super().annotate_triples(triples)
        if self.label_error_rate == 0.0 or not fresh:
            return result
        flips = self._label_rng.random(len(fresh)) < self.label_error_rate
        labels = dict(result.labels)
        for triple, flip in zip(fresh, flips):
            if flip:
                labels[triple] = not labels[triple]
                self._session.labelled[triple] = labels[triple]
        return AnnotationResult(
            labels=labels,
            cost_seconds=result.cost_seconds,
            newly_identified_entities=result.newly_identified_entities,
            num_triples=result.num_triples,
        )

    def annotate_positions(self, graph, batch) -> np.ndarray:
        """Refused: position labels come from the oracle and would skip the flips."""
        raise TypeError(
            f"{type(self).__name__} flips labels per Triple; label each unit's "
            "graph.triples_at(positions) with annotate_triples instead"
        )


@dataclass(frozen=True)
class TaskRecord:
    """Bookkeeping for one dispatched evaluation task."""

    task: EvaluationTask
    annotator_indices: tuple[int, ...]
    labels: dict[Triple, bool]
    cost_seconds: float


class AnnotationTaskPool:
    """Groups sampled triples into per-entity tasks and dispatches them to a crew.

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
    # Task construction and dispatch
    # ------------------------------------------------------------------ #
    @staticmethod
    def build_tasks(triples: Iterable[Triple]) -> list[EvaluationTask]:
        """Group triples by subject id into evaluation tasks (Section 3.1)."""
        grouped: dict[str, list[Triple]] = {}
        for triple in triples:
            grouped.setdefault(triple.subject, []).append(triple)
        return [
            EvaluationTask(entity_id, tuple(entity_triples))
            for entity_id, entity_triples in grouped.items()
        ]

    def _assign(self) -> tuple[int, ...]:
        indices = tuple(
            (self._next_annotator + offset) % len(self.annotators)
            for offset in range(self.annotations_per_task)
        )
        self._next_annotator = (self._next_annotator + 1) % len(self.annotators)
        return indices

    def annotate_task(self, task: EvaluationTask) -> TaskRecord:
        """Dispatch one task to ``annotations_per_task`` annotators and vote."""
        indices = self._assign()
        cost_before = self.total_cost_seconds
        votes: dict[Triple, list[bool]] = {triple: [] for triple in task.triples}
        for index in indices:
            result = self.annotators[index].annotate_task(task)
            for triple in task.triples:
                votes[triple].append(result.labels[triple])
        labels = {
            triple: (sum(ballots) * 2 > len(ballots))
            or (sum(ballots) * 2 == len(ballots) and ballots[0])
            for triple, ballots in votes.items()
        }
        record = TaskRecord(
            task=task,
            annotator_indices=indices,
            labels=labels,
            cost_seconds=self.total_cost_seconds - cost_before,
        )
        self.records.append(record)
        return record

    def annotate_triples(self, triples: Iterable[Triple]) -> AnnotationResult:
        """Annotate a batch of triples through the pool (drop-in annotator API)."""
        tasks = self.build_tasks(triples)
        cost_before = self.total_cost_seconds
        triples_before = self.total_triples_annotated
        entities_before = self.entities_identified
        labels: dict[Triple, bool] = {}
        for task in tasks:
            labels.update(self.annotate_task(task).labels)
        return AnnotationResult(
            labels=labels,
            cost_seconds=self.total_cost_seconds - cost_before,
            newly_identified_entities=self.entities_identified - entities_before,
            num_triples=self.total_triples_annotated - triples_before,
        )

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

    @property
    def labelled_triples(self) -> dict[Triple, bool]:
        """The majority-vote labels produced so far."""
        combined: dict[Triple, bool] = {}
        for record in self.records:
            combined.update(record.labels)
        return combined
