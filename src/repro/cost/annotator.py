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

The evaluation loop labels a whole sampling round at once
(:meth:`SimulatedAnnotator.annotate_positions` on a
:class:`~repro.sampling.base.PositionBatch`): the session keeps, per graph
object, one boolean mask of annotated positions and one of identified cluster
rows, so a round is charged with a few array operations and no subject string
is looked up.  The charge still adds unit after unit, in the order and with
the floating-point operations that labelling each unit's Triples through
:meth:`SimulatedAnnotator.annotate_triples` would run.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.cost.model import CostModel
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.storage.columnar import first_occurrences

if TYPE_CHECKING:
    from repro.sampling.base import PositionBatch

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


@dataclass(eq=False)
class _PositionLedger:
    """What a session annotated through one graph object, as boolean masks."""

    graph: KnowledgeGraph
    #: The oracle's label array of ``graph`` (read-only).
    labels: np.ndarray
    #: Positions of ``graph`` labelled in this session.
    annotated: np.ndarray
    #: Cluster rows of ``graph`` whose subject this session has identified.
    identified: np.ndarray
    #: Rows identified here that the session's subject set does not hold yet.
    pending: int = 0


@dataclass
class _SessionState:
    """Mutable per-session bookkeeping for a simulated annotator."""

    identified_entities: set[str] = field(default_factory=set)
    total_seconds: float = 0.0
    total_triples: int = 0
    labelled: dict[Triple, bool] = field(default_factory=dict)
    #: Position labelling per graph object: ``id(graph) -> ledger``.
    positions: dict[int, _PositionLedger] = field(default_factory=dict)
    #: The ledger last annotated through; ``identified_entities`` may not
    #: hold its identifications yet.
    active: _PositionLedger | None = None


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
        # (cost model, with c1, without c1): the Eq. (4) charge of a unit by
        # its fresh triple count, summed as the per-component loop sums it.
        self._unit_costs: tuple[CostModel, np.ndarray, np.ndarray] | None = None

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
        session = self._session
        pending = session.active.pending if session.active is not None else 0
        return len(session.identified_entities) + pending

    @property
    def labelled_triples(self) -> dict[Triple, bool]:
        """All labels produced in the current session."""
        labelled = dict(self._session.labelled)
        labelled.update(self._position_triple_labels())
        return labelled

    def _position_triple_labels(self) -> Iterator[tuple[Triple, bool]]:
        """``(triple, label)`` of every position labelled by :meth:`annotate_positions`."""
        for ledger in self._session.positions.values():
            positions = np.flatnonzero(ledger.annotated)
            yield from zip(ledger.graph.triples_at(positions), ledger.labels[positions].tolist())

    def _record_position_labels(self) -> None:
        """Move the session's position labels into its Triple-keyed record.

        Run before labelling Triples, so a triple already labelled through
        :meth:`annotate_positions` is found there and not charged again;
        :meth:`annotate_positions` still finds it, through that record.
        """
        session = self._session
        if session.positions:
            self._absorb_identified()
            session.labelled.update(self._position_triple_labels())
            session.positions.clear()

    def _absorb_identified(self) -> None:
        """Name the active ledger's identified subjects in the session's subject set."""
        session = self._session
        ledger = session.active
        if ledger is not None and ledger.pending:
            entity_ids = ledger.graph.entity_ids
            session.identified_entities.update(
                entity_ids[row] for row in np.flatnonzero(ledger.identified).tolist()
            )
            ledger.pending = 0
        session.active = None

    def _ledger(self, graph: KnowledgeGraph, labels: np.ndarray) -> _PositionLedger:
        """The session's ledger for ``graph``, made the active one.

        Its identified rows agree with every subject the session identified
        through Triples or through other graph objects: a subject is charged
        ``c1`` once per session, whichever graph object names it.
        """
        session = self._session
        ledger = session.positions.get(id(graph))
        if ledger is None:
            ledger = session.positions[id(graph)] = _PositionLedger(
                graph,
                labels,
                np.zeros(labels.shape[0], dtype=bool),
                np.zeros(graph.num_entities, dtype=bool),
            )
        elif ledger.annotated.shape[0] != labels.shape[0]:
            # The graph grew: extend the masks, then look its new rows up below.
            self._absorb_identified()
            ledger.labels = labels
            ledger.annotated = np.pad(ledger.annotated, (0, labels.shape[0] - len(ledger.annotated)))
            grown = graph.num_entities - len(ledger.identified)
            ledger.identified = np.pad(ledger.identified, (0, grown))
        if session.active is not ledger:
            self._absorb_identified()
            subjects = session.identified_entities
            if subjects:
                entity_ids = graph.entity_ids
                ledger.identified |= np.fromiter(
                    (entity_id in subjects for entity_id in entity_ids),
                    dtype=bool,
                    count=len(entity_ids),
                )
            session.active = ledger
        return ledger

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

    def annotate_positions(self, graph: KnowledgeGraph, batch: PositionBatch) -> np.ndarray:
        """Annotate one sampling round of ``graph`` and return its label array.

        The position-surface twin of calling :meth:`annotate_triples` once
        per unit of ``batch``, in order, without building a Triple: labels
        come from the oracle's read-only array for ``graph``, which the
        caller indexes by position, and Eq. (4) is charged per unit exactly
        as :meth:`annotate_triples` would charge it: ``c1`` once per subject
        id per session, so sessions shared across graph objects stay exact,
        and ``c2`` once per position of this graph object.  A triple already
        labelled through :meth:`annotate_triples` is free here too.
        """
        labels = self.oracle.position_labels(graph)
        ledger = self._ledger(graph, labels)
        if not len(batch):
            return labels
        positions = batch.positions
        rows = batch.entity_rows
        row_list = rows.tolist()
        if -1 in row_list:
            # A triple-level unit's subject is the row owning its one position.
            rows = np.where(rows < 0, graph.rows_of_positions(positions[batch.starts]), rows)
            row_list = rows.tolist()
        repeated = len(set(row_list)) != len(row_list)
        if self._session.labelled or (repeated and not first_occurrences(positions).all()):
            fresh_counts, new_flags = self._claim_in_order(ledger, batch, row_list)
        else:
            # No position twice in the round: it claims its fresh positions
            # and subjects in one pass.  A unit whose positions were all
            # labelled before names a subject identified before, and of the
            # units naming one subject only the first can identify it.
            annotated, identified = ledger.annotated, ledger.identified
            seen = annotated[positions]
            annotated[positions] = True
            fresh_counts = batch.counts
            if np.count_nonzero(seen):
                fresh_counts = fresh_counts - np.add.reduceat(seen, batch.starts)
            new_flags = ~identified[rows]
            if repeated:
                new_flags &= first_occurrences(rows)
            identified[rows] = True
        self._charge(ledger, fresh_counts, new_flags)
        return labels

    def _claim_in_order(
        self, ledger: _PositionLedger, batch: PositionBatch, rows: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh triple count and new-subject flag of each unit, unit after unit.

        For the rounds that name a position twice (a cluster drawn twice
        with replacement) or meet Triple labels of this session.
        """
        annotated, identified = ledger.annotated, ledger.identified
        labelled = self._session.labelled
        fresh_counts: list[int] = []
        new_flags: list[bool] = []
        for (positions, _, _), row in zip(batch, rows):
            fresh = positions[~annotated[positions]]
            if labelled and fresh.shape[0]:
                unseen = [t not in labelled for t in ledger.graph.triples_at(fresh)]
                fresh = fresh[np.array(unseen, dtype=bool)]
            annotated[fresh] = True
            count = int(fresh.shape[0])
            is_new = count > 0 and not identified[row]
            if is_new:
                identified[row] = True
            fresh_counts.append(count)
            new_flags.append(is_new)
        return np.array(fresh_counts, dtype=np.intp), np.array(new_flags, dtype=bool)

    def _charge(
        self, ledger: _PositionLedger, fresh_counts: np.ndarray, new_flags: np.ndarray
    ) -> None:
        """Charge Eq. (4) unit by unit: ``c1`` for a new subject, ``c2`` per fresh triple."""
        session = self._session
        if self.time_noise_sigma == 0.0 and type(self)._noise_factor is _DEFAULT_NOISE_FACTOR:
            # Every factor is 1.0: a unit costs what the per-component loop
            # below sums for it, read from a table, and np.add.accumulate adds
            # the units to the running total left to right, as that loop does.
            with_c1, without_c1 = self._unit_cost_tables(int(fresh_counts.max()))
            costs = np.where(new_flags, with_c1[fresh_counts], without_c1[fresh_counts])
            running = np.add.accumulate(np.concatenate(([session.total_seconds], costs)))
            session.total_seconds = float(running[-1])
            session.total_triples += int(fresh_counts.sum())
            ledger.pending += int(np.count_nonzero(new_flags))
            return
        identification_cost = self.cost_model.identification_cost
        validation_cost = self.cost_model.validation_cost
        noise = self._noise_factor
        for count, is_new in zip(fresh_counts.tolist(), new_flags.tolist()):
            if not count:
                continue
            cost = 0.0
            if is_new:
                ledger.pending += 1
                cost += identification_cost * noise()
            for _ in range(count):
                cost += validation_cost * noise()
            session.total_seconds += cost
            session.total_triples += count

    def _unit_cost_tables(self, longest: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit costs by fresh triple count, with and without ``c1``, up to ``longest``.

        Entry ``k`` adds ``k`` validation costs one at a time to ``0.0`` (plus
        ``c1``), each times a noise factor of ``1.0``, as :meth:`_charge` does.
        """
        model = self.cost_model
        cached = self._unit_costs
        if cached is not None and cached[0] is model and len(cached[1]) > longest:
            return cached[1], cached[2]
        validation = [model.validation_cost * 1.0] * max(2 * longest, 64)
        with_c1 = np.fromiter(
            accumulate(validation, initial=0.0 + model.identification_cost * 1.0), dtype=float
        )
        without_c1 = np.fromiter(accumulate(validation, initial=0.0), dtype=float)
        self._unit_costs = (model, with_c1, without_c1)
        return with_c1, without_c1

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


#: The lognormal noise factor: a subclass that overrides it is charged per component.
_DEFAULT_NOISE_FACTOR = SimulatedAnnotator._noise_factor


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
