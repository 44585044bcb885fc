"""Building strata over entity clusters (Section 5.3).

Two strategies from the paper:

* **size stratification** — cut cluster sizes into strata with the
  Dalenius–Hodges cumulative-√F rule; practical because cluster size is always
  observable and (per Figure 3) correlates with entity accuracy;
* **oracle stratification** — stratify directly on the true entity accuracy;
  impossible in practice but gives a lower bound on the achievable cost, used
  as such in Table 7.

Both return a list of :class:`Stratum` objects carrying their cluster rows and
the stratum weight ``W_h = M_[h] / M``, ready to be consumed by
:class:`~repro.sampling.stratified.StratifiedTWCSDesign`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.stats.allocation import cumulative_sqrt_frequency_boundaries

__all__ = ["Stratum", "stratify_by_size", "stratify_by_oracle_accuracy", "stratify_by_key"]


@dataclass(frozen=True, eq=False)
class Stratum:
    """One stratum of entity clusters.

    Attributes
    ----------
    label:
        Human-readable description of the stratum (e.g. ``"size<=3"``).
    rows:
        ``int64`` cluster rows (``graph.entity_ids`` order) assigned to this
        stratum, ascending; ``graph.entity_id_of_row`` names them.
    num_triples:
        Total triples across the stratum's clusters (``M_[h]``).
    weight:
        Stratum weight ``W_h = M_[h] / M``.
    """

    label: str
    rows: np.ndarray
    num_triples: int
    weight: float

    @property
    def num_entities(self) -> int:
        """Number of entity clusters in this stratum."""
        return int(self.rows.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stratum):
            return NotImplemented
        return (
            self.label == other.label
            and self.num_triples == other.num_triples
            and self.weight == other.weight
            and np.array_equal(self.rows, other.rows)
        )

    __hash__ = None  # type: ignore[assignment]


def _build_strata(
    graph: KnowledgeGraph, assignment: np.ndarray, labels: Mapping[int, str]
) -> list[Stratum]:
    """Assemble :class:`Stratum` objects from a row -> stratum-index array."""
    sizes = graph.cluster_size_array()
    strata = []
    # The return_counts form sorts instead of taking the hashing path, which
    # imports numpy.ma (~10 ms and 1.6 MB in a fresh process): same values.
    for index in np.unique(assignment, return_counts=True)[0].tolist():
        rows = np.flatnonzero(assignment == index)
        num_triples = int(sizes[rows].sum())
        strata.append(
            Stratum(
                label=labels[index],
                rows=rows,
                num_triples=num_triples,
                weight=num_triples / graph.num_triples,
            )
        )
    return strata


def _stratum_labels(boundaries: Sequence[float], label_prefix: str) -> dict[int, str]:
    """Labels of the strata cut by ``boundaries`` (inclusive upper bounds)."""
    labels = {}
    for index in range(len(boundaries) + 1):
        lower = boundaries[index - 1] if index > 0 else None
        upper = boundaries[index] if index < len(boundaries) else None
        if lower is None and upper is not None:
            labels[index] = f"{label_prefix}<= {upper:g}"
        elif upper is None and lower is not None:
            labels[index] = f"{label_prefix}> {lower:g}"
        elif lower is not None and upper is not None:
            labels[index] = f"{label_prefix}({lower:g}, {upper:g}]"
        else:
            labels[index] = f"{label_prefix}-all"
    return labels


def stratify_by_key(
    graph: KnowledgeGraph,
    key: Callable[[str], float],
    boundaries: Sequence[float],
    label_prefix: str = "stratum",
) -> list[Stratum]:
    """Stratify clusters by an arbitrary numeric key and fixed boundaries.

    A cluster with key ``v`` is assigned to stratum ``h`` where ``h`` is the
    number of boundaries strictly below ``v`` (i.e. boundaries are upper
    bounds, inclusive).
    """
    sorted_boundaries = list(boundaries)
    values = np.fromiter(
        (key(entity_id) for entity_id in graph.entity_ids),
        dtype=np.float64,
        count=graph.num_entities,
    )
    assignment = np.searchsorted(sorted_boundaries, values, side="left")
    return _build_strata(graph, assignment, _stratum_labels(sorted_boundaries, label_prefix))


def stratify_by_size(graph: KnowledgeGraph, num_strata: int = 4) -> list[Stratum]:
    """Size stratification with the cumulative-√F rule (Table 7's setting).

    The paper uses two strata for NELL and four for MOVIE / MOVIE-SYN; the
    number of strata is a parameter here.  Equal to
    ``stratify_by_key(graph, graph.cluster_size, boundaries, "size")``, with
    every cluster assigned in one vectorised pass.
    """
    if num_strata < 1:
        raise ValueError("num_strata must be at least 1")
    sizes = graph.cluster_size_array()
    boundaries = cumulative_sqrt_frequency_boundaries(sizes, num_strata)
    assignment = np.searchsorted(boundaries, sizes, side="left")
    return _build_strata(graph, assignment, _stratum_labels(boundaries, "size"))


def stratify_by_oracle_accuracy(
    graph: KnowledgeGraph,
    cluster_accuracies: Mapping[str, float],
    num_strata: int = 4,
) -> list[Stratum]:
    """Oracle stratification: group clusters by their *true* accuracy.

    Only possible when ground-truth labels exist for the full KG; serves as
    the lower bound on annotation cost in Table 7.
    """
    if num_strata < 1:
        raise ValueError("num_strata must be at least 1")
    boundaries = np.linspace(0.0, 1.0, num_strata + 1)[1:-1]
    return stratify_by_key(
        graph,
        lambda entity_id: cluster_accuracies[entity_id],
        [float(b) for b in boundaries],
        label_prefix="accuracy",
    )
