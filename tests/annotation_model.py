"""Eq. (4) charging as a pure-Python model (not a test module).

:class:`SessionModel` is one annotation session kept the plain way: a Python
set of identified subject ids and a Python set of annotated positions per
graph object, walked one unit at a time — the loop
``SimulatedAnnotator.annotate_positions`` ran before a sampling round became
one array batch.  It shares no code with :mod:`repro.cost`, so a slip in the
batch annotator's masks or unit-cost tables cannot also be in the reference.

A unit is a ``(positions, entity_row, cluster_size)`` tuple, what iterating a
:class:`~repro.sampling.base.PositionBatch` yields; ``entity_row`` is ``-1``
for a triple-level unit.  :func:`batch_of` packs such units into the batch
the real annotator takes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.sampling.base import PositionBatch

#: One drawn unit: its positions, cluster row (``-1`` for a triple) and cluster size.
Unit = tuple[Sequence[int], int, int]


def batch_of(units: Sequence[Unit]) -> PositionBatch:
    """The :class:`PositionBatch` whose iteration yields ``units``."""
    counts = np.array([len(positions) for positions, _, _ in units], dtype=np.int64)
    flat = [int(p) for positions, _, _ in units for p in positions]
    return PositionBatch(
        np.array(flat, dtype=np.int64),
        counts,
        np.array([row for _, row, _ in units], dtype=np.int64),
        np.array([size for _, _, size in units], dtype=np.int64),
    )


class SessionModel:
    """One annotation session, charged unit by unit with Python sets.

    ``noise`` returns the factor each charged component is multiplied by; it
    receives the model, so a factor may read the session's running totals
    (as ``DriftingAnnotator``'s does).
    """

    def __init__(
        self,
        identification_cost: float,
        validation_cost: float,
        noise: Callable[[SessionModel], float] = lambda model: 1.0,
    ) -> None:
        self.identification_cost = identification_cost
        self.validation_cost = validation_cost
        self.noise = noise
        self.identified: set[str] = set()
        self.total_seconds = 0.0
        self.total_triples = 0
        # id(graph) -> (graph, annotated positions)
        self.positions: dict[int, tuple[object, set[int]]] = {}

    @property
    def entities_identified(self) -> int:
        return len(self.identified)

    def annotate_positions(self, graph, units: Iterable[Unit]) -> None:
        """Charge one round of ``graph``."""
        annotated = self.positions.setdefault(id(graph), (graph, set()))[1]
        for positions, entity_row, _ in units:
            fresh = [int(p) for p in positions if int(p) not in annotated]
            if not fresh:
                continue
            annotated.update(fresh)
            # (subject row, fresh triples): a cluster unit has one subject,
            # each triple of a triple-level unit finds its own.
            if entity_row >= 0:
                runs = [(entity_row, len(fresh))]
            else:
                runs = [(int(row), 1) for row in graph.rows_of_positions(fresh)]
            cost = 0.0
            for row, count in runs:
                subject = graph.entity_id_of_row(row)
                if subject not in self.identified:
                    self.identified.add(subject)
                    cost += self.identification_cost * self.noise(self)
                for _ in range(count):
                    cost += self.validation_cost * self.noise(self)
            self.total_seconds += cost
            self.total_triples += len(fresh)
