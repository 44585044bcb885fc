"""A simulated human annotator.

The paper's framework is "generic and independent of the manual annotation
process" (Section 4): the sampling designs only need correctness labels for
the triples they draw, plus an account of how much annotator time those labels
cost.  :class:`SimulatedAnnotator` substitutes for the human annotators used
in the paper:

* labels come from a ground-truth :class:`~repro.labels.oracle.LabelOracle`
  (real annotated files or synthetic label models);
* time is charged with the cost model of Eq. (4) — ``c1`` the first time a
  subject entity is identified within an annotation session and ``c2`` per
  validated triple — optionally with per-step lognormal noise so that
  individual runs resemble the jagged cumulative-time curves of Figure 1.

The substitution preserves the quantities every experiment in the paper
reports: which triples get labelled, what they cost under Eq. (4), and the
resulting estimates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cost.model import CostModel
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle

__all__ = [
    "EvaluationTask",
    "AnnotationResult",
    "SimulatedAnnotator",
    "PositionAnnotationAccount",
]


@dataclass(frozen=True)
class EvaluationTask:
    """A group of triples sharing a subject id, handed to an annotator at once.

    Section 3.1: sampled triples are prepared (grouped) by their subjects for
    manual evaluation, so the entity only needs to be identified once.
    """

    entity_id: str
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        if not self.triples:
            raise ValueError("an evaluation task must contain at least one triple")
        mismatched = [t for t in self.triples if t.subject != self.entity_id]
        if mismatched:
            raise ValueError(
                f"task for entity {self.entity_id!r} contains triples of other subjects"
            )

    @property
    def size(self) -> int:
        """Number of triples in the task."""
        return len(self.triples)


@dataclass(frozen=True)
class AnnotationResult:
    """Labels and cost for one batch of annotation work."""

    labels: dict[Triple, bool]
    cost_seconds: float
    newly_identified_entities: int
    num_triples: int

    @property
    def cost_hours(self) -> float:
        """Cost in hours (the unit used by the paper's tables)."""
        return self.cost_seconds / 3600.0


@dataclass
class _SessionState:
    """Mutable per-session bookkeeping for a simulated annotator."""

    identified_entities: set[str] = field(default_factory=set)
    total_seconds: float = 0.0
    total_triples: int = 0
    labelled: dict[Triple, bool] = field(default_factory=dict)
    #: Positions labelled through :meth:`SimulatedAnnotator.annotate_positions`,
    #: per graph object: ``id(graph) -> (graph, label array, positions)``.
    positions: dict[int, tuple[KnowledgeGraph, np.ndarray, set[int]]] = field(default_factory=dict)


class SimulatedAnnotator:
    """Annotates triples against a ground-truth oracle, charging Eq. (4) time.

    Parameters
    ----------
    oracle:
        Ground-truth labels.
    cost_model:
        The ``(c1, c2)`` cost parameters; defaults to the paper's fit.
    time_noise_sigma:
        When positive, each charged cost component is multiplied by an
        independent lognormal factor with this log-scale sigma, so that single
        runs show realistic variation (used for Figure 1 / Figure 4).  The
        noise has mean 1, so expected costs still follow Eq. (4) exactly.
    seed:
        Seed or generator for the timing noise.

    Notes
    -----
    Entity identification is charged once per distinct subject id *per
    session*.  Call :meth:`reset` to start a new session (a new evaluation
    run); the experiment harness does this between independent trials.
    """

    def __init__(
        self,
        oracle: LabelOracle,
        cost_model: CostModel | None = None,
        time_noise_sigma: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if time_noise_sigma < 0:
            raise ValueError("time_noise_sigma must be non-negative")
        self.oracle = oracle
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.time_noise_sigma = time_noise_sigma
        self._rng = np.random.default_rng(seed)
        self._session = _SessionState()

    # ------------------------------------------------------------------ #
    # Session accounting
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget identified entities and accumulated cost (new session)."""
        self._session = _SessionState()

    @property
    def total_cost_seconds(self) -> float:
        """Total annotation time charged in the current session."""
        return self._session.total_seconds

    @property
    def total_cost_hours(self) -> float:
        """Total annotation time in hours for the current session."""
        return self._session.total_seconds / 3600.0

    @property
    def total_triples_annotated(self) -> int:
        """Number of (distinct) triples labelled in the current session."""
        return self._session.total_triples

    @property
    def entities_identified(self) -> int:
        """Number of distinct entities identified in the current session."""
        return len(self._session.identified_entities)

    @property
    def labelled_triples(self) -> dict[Triple, bool]:
        """All labels produced in the current session."""
        labelled = dict(self._session.labelled)
        labelled.update(self._position_triple_labels())
        return labelled

    def _position_triple_labels(self) -> Iterator[tuple[Triple, bool]]:
        """``(triple, label)`` of every position labelled by :meth:`annotate_positions`."""
        for graph, labels, annotated in self._session.positions.values():
            positions = sorted(annotated)
            yield from zip(graph.triples_at(positions), labels[positions].tolist())

    def _record_position_labels(self) -> None:
        """Move the session's position labels into its Triple-keyed record.

        Run before labelling Triples, so a triple already labelled through
        :meth:`annotate_positions` is found there and not charged again;
        :meth:`annotate_positions` still finds it, through that record.
        """
        session = self._session
        if session.positions:
            session.labelled.update(self._position_triple_labels())
            session.positions.clear()

    # ------------------------------------------------------------------ #
    # Annotation
    # ------------------------------------------------------------------ #
    def _noise_factor(self) -> float:
        if self.time_noise_sigma == 0.0:
            return 1.0
        sigma = self.time_noise_sigma
        # Lognormal with mean exactly 1: exp(N(-sigma^2/2, sigma^2)).
        return float(np.exp(self._rng.normal(-0.5 * sigma * sigma, sigma)))

    def annotate_task(self, task: EvaluationTask) -> AnnotationResult:
        """Annotate one evaluation task (triples sharing a subject)."""
        return self.annotate_triples(task.triples)

    def annotate_triples(self, triples: Iterable[Triple]) -> AnnotationResult:
        """Annotate an arbitrary batch of triples.

        Triples are implicitly grouped by subject: identification cost is only
        charged for subjects not yet identified in this session, and a triple
        already labelled in this session is neither re-labelled nor re-charged.
        """
        self._record_position_labels()
        labels: dict[Triple, bool] = {}
        cost = 0.0
        new_entities = 0
        new_triples = 0
        for triple in triples:
            if triple in self._session.labelled:
                labels[triple] = self._session.labelled[triple]
                continue
            if triple.subject not in self._session.identified_entities:
                self._session.identified_entities.add(triple.subject)
                cost += self.cost_model.identification_cost * self._noise_factor()
                new_entities += 1
            label = self.oracle.label(triple)
            cost += self.cost_model.validation_cost * self._noise_factor()
            labels[triple] = label
            self._session.labelled[triple] = label
            new_triples += 1
        self._session.total_seconds += cost
        self._session.total_triples += new_triples
        return AnnotationResult(
            labels=labels,
            cost_seconds=cost,
            newly_identified_entities=new_entities,
            num_triples=new_triples,
        )

    def annotate_positions(self, graph: KnowledgeGraph, units: Sequence) -> np.ndarray:
        """Annotate position units of ``graph`` and return its label array.

        The position-surface twin of calling :meth:`annotate_triples` once
        per unit (a :class:`~repro.sampling.base.PositionUnit`), without
        building a Triple: labels come from the oracle's read-only array for
        ``graph``, which the caller indexes by position, and Eq. (4) is
        charged per unit exactly as :meth:`annotate_triples` would charge it:
        ``c1`` once per subject id per session, so sessions shared across
        graph objects stay exact, and ``c2`` once per position of this graph
        object.  A triple already labelled through :meth:`annotate_triples`
        is free here too.
        """
        labels = self.oracle.position_labels(graph)
        session = self._session
        entry = session.positions.get(id(graph))
        annotated = entry[2] if entry is not None else set()
        session.positions[id(graph)] = (graph, labels, annotated)
        identified = session.identified_entities
        identification_cost = self.cost_model.identification_cost
        validation_cost = self.cost_model.validation_cost
        noise = self._noise_factor
        for unit in units:
            fresh = [p for p in unit.positions.tolist() if p not in annotated]
            if session.labelled and fresh:
                triples = graph.triples_at(fresh)
                fresh = [p for p, t in zip(fresh, triples) if t not in session.labelled]
            if not fresh:
                continue
            annotated.update(fresh)
            # (subject row, fresh triples): a cluster unit has one subject,
            # each triple of a triple-level unit finds its own.
            if unit.entity_row >= 0:
                runs = [(unit.entity_row, len(fresh))]
            else:
                runs = [(row, 1) for row in graph.rows_of_positions(fresh).tolist()]
            cost = 0.0
            for row, count in runs:
                subject = graph.entity_id_of_row(row)
                if subject not in identified:
                    identified.add(subject)
                    cost += identification_cost * noise()
                for _ in range(count):
                    cost += validation_cost * noise()
            session.total_seconds += cost
            session.total_triples += len(fresh)
        return labels

    def annotate_with_timeline(
        self, triples: Sequence[Triple]
    ) -> tuple[AnnotationResult, list[float]]:
        """Annotate triples one by one and return the cumulative-time curve.

        Used to reproduce Figure 1 (cumulative evaluation time after each
        triple for triple-level vs entity-level tasks).
        """
        timeline: list[float] = []
        combined_labels: dict[Triple, bool] = {}
        cost_before = self.total_cost_seconds
        entities_before = self.entities_identified
        triples_before = self.total_triples_annotated
        for triple in triples:
            result = self.annotate_triples([triple])
            combined_labels.update(result.labels)
            timeline.append(self.total_cost_seconds - cost_before)
        aggregate = AnnotationResult(
            labels=combined_labels,
            cost_seconds=self.total_cost_seconds - cost_before,
            newly_identified_entities=self.entities_identified - entities_before,
            num_triples=self.total_triples_annotated - triples_before,
        )
        return aggregate, timeline


class PositionAnnotationAccount:
    """Eq. (4) cost accounting for position-surface annotation flows.

    The position surface never materialises Triple objects, so sampled work
    arrives as ``(entity_key, positions)`` pairs of plain integers: the
    cluster's global entity row and the global triple positions selected for
    annotation.  The account mirrors :class:`SimulatedAnnotator`'s session
    semantics exactly — ``c1`` is charged once per distinct entity, ``c2``
    once per distinct triple position, and re-annotating already-labelled
    positions is free — which keeps the evolving evaluators' cost reports
    comparable to (and as deterministic as) the static loop's.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._identified: set[int] = set()
        self._annotated: set[int] = set()
        self._total_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge(self, entity_key: int, positions: np.ndarray | Sequence[int]) -> int:
        """Charge for annotating ``positions`` of cluster ``entity_key``.

        Returns the number of newly annotated positions (0 when every
        position was already labelled in this session, in which case no
        identification cost is charged either).
        """
        annotated = self._annotated
        new_positions = [int(p) for p in positions if int(p) not in annotated]
        if not new_positions:
            return 0
        cost = self.cost_model.validation_cost * len(new_positions)
        if entity_key not in self._identified:
            self._identified.add(entity_key)
            cost += self.cost_model.identification_cost
        annotated.update(new_positions)
        self._total_seconds += cost
        return len(new_positions)

    # ------------------------------------------------------------------ #
    # Read-outs
    # ------------------------------------------------------------------ #
    @property
    def total_cost_seconds(self) -> float:
        """Total annotation time charged so far."""
        return self._total_seconds

    @property
    def total_triples_annotated(self) -> int:
        """Number of distinct triple positions annotated so far."""
        return len(self._annotated)

    @property
    def entities_identified(self) -> int:
        """Number of distinct entities identified so far."""
        return len(self._identified)

    def annotated_mask(self, num_triples: int) -> np.ndarray:
        """Annotated positions as a boolean array of length ``num_triples``."""
        mask = np.zeros(num_triples, dtype=bool)
        if self._annotated:
            mask[np.fromiter(self._annotated, dtype=np.int64, count=len(self._annotated))] = True
        return mask
