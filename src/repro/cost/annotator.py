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

Every caller labels a whole sampling round at once
(:meth:`SimulatedAnnotator.annotate_positions` on a
:class:`~repro.sampling.base.PositionBatch`): the static loop, the pilot, the
granular census, KGEval, the figures and the evolving evaluators alike.  The
session keeps, per graph object, one boolean mask of annotated positions and
one of identified cluster rows; that is the one Eq. (4) ledger.  A round is
charged with a few array operations, unit after unit in draw order, and no
subject string is looked up unless the session spans graph objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.cost.model import CostModel
from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle
from repro.storage.columnar import first_occurrences

if TYPE_CHECKING:
    from repro.sampling.base import PositionBatch

__all__ = ["SimulatedAnnotator"]


@dataclass(eq=False)
class _PositionLedger:
    """What a session annotated through one graph object, as boolean masks."""

    graph: KnowledgeGraph
    #: Positions of ``graph`` labelled in this session.
    annotated: np.ndarray
    #: Cluster rows of ``graph`` whose subject this session has identified.
    identified: np.ndarray
    #: Rows identified here that the session's subject set does not hold yet.
    pending: int = 0


@dataclass
class _SessionState:
    """Mutable per-session bookkeeping for a simulated annotator."""

    #: Subjects named when the session left a graph object for another.
    identified_entities: set[str] = field(default_factory=set)
    total_seconds: float = 0.0
    total_triples: int = 0
    #: Position labelling per graph object: ``id(graph) -> ledger``.
    positions: dict[int, _PositionLedger] = field(default_factory=dict)
    #: The ledger last annotated through; ``identified_entities`` may not
    #: hold its identifications yet.
    active: _PositionLedger | None = None


class SimulatedAnnotator:
    """Labels sampled positions from a ground-truth oracle, charging Eq. (4) time.

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

    def _ledger(self, graph: KnowledgeGraph) -> _PositionLedger:
        """The session's ledger for ``graph``, made the active one.

        Its identified rows agree with every subject the session identified
        through other graph objects: a subject is charged ``c1`` once per
        session, whichever graph object names it.  A graph that grew since
        the last round gets its masks padded; only its new rows are looked
        up, and only if the session has named subjects of another graph.
        """
        session = self._session
        ledger = session.positions.get(id(graph))
        if ledger is None:
            ledger = session.positions[id(graph)] = _PositionLedger(
                graph,
                np.zeros(graph.num_triples, dtype=bool),
                np.zeros(graph.num_entities, dtype=bool),
            )
            known_rows = 0
        else:
            known_rows = ledger.identified.shape[0]
            if ledger.annotated.shape[0] != graph.num_triples:
                ledger.annotated = _padded(ledger.annotated, graph.num_triples)
                ledger.identified = _padded(ledger.identified, graph.num_entities)
        if session.active is not ledger:
            self._absorb_identified()
            session.active = ledger
            known_rows = 0
        subjects = session.identified_entities
        if subjects and known_rows < ledger.identified.shape[0]:
            entity_ids = graph.entity_ids[known_rows:]
            ledger.identified[known_rows:] |= np.fromiter(
                (entity_id in subjects for entity_id in entity_ids),
                dtype=bool,
                count=len(entity_ids),
            )
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

    def annotate_positions(self, graph: KnowledgeGraph, batch: PositionBatch) -> np.ndarray:
        """Annotate one sampling round of ``graph`` and return its label array.

        Labels come from the oracle's read-only array for ``graph``, which
        the caller indexes by position.  Eq. (4) is charged unit after unit,
        in draw order: ``c1`` for the first unit naming a subject id this
        session has not identified, so sessions shared across graph objects
        stay exact, and ``c2`` once per position of this graph object; a
        unit whose positions were all labelled before costs nothing.
        """
        labels = self.oracle.position_labels(graph)
        ledger = self._ledger(graph)
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
        if repeated and not first_occurrences(positions).all():
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
        with replacement).
        """
        annotated, identified = ledger.annotated, ledger.identified
        fresh_counts: list[int] = []
        new_flags: list[bool] = []
        for (positions, _, _), row in zip(batch, rows):
            fresh = positions[~annotated[positions]]
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


#: The lognormal noise factor: a subclass that overrides it is charged per component.
_DEFAULT_NOISE_FACTOR = SimulatedAnnotator._noise_factor


def _padded(mask: np.ndarray, length: int) -> np.ndarray:
    """``mask`` followed by ``False`` up to ``length`` (a grown graph's new positions or rows)."""
    return np.concatenate((mask, np.zeros(length - mask.shape[0], dtype=bool)))
