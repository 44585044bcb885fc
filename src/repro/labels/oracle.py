"""The ground-truth label store consulted by the simulated annotator.

In the paper the correctness of a triple is a value function
``f : t -> {0, 1}`` obtained by manual annotation.  In this reproduction human
annotators are replaced by a :class:`LabelOracle` holding the ground truth
(either loaded from an annotated file or generated synthetically); the
annotation *cost* is charged separately by :mod:`repro.cost`.
"""

from __future__ import annotations

import functools
import weakref
from collections.abc import Iterable, Mapping

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

__all__ = ["LabelOracle"]


class LabelOracle:
    """Maps each triple to its true correctness label.

    Parameters
    ----------
    labels:
        Mapping of triple to boolean correctness.
    strict:
        When ``True`` (default), asking for an unknown triple raises
        ``KeyError``.  When ``False``, unknown triples are reported as correct,
        which is occasionally convenient for ad-hoc exploration but never used
        by the experiment harness.
    """

    # Set by from_positions only.
    _graph: KnowledgeGraph | None = None
    _positions: np.ndarray | None = None
    # The last array position_labels built: (weak graph reference, read-only
    # array).  It never replaces a from_positions array.
    _built: tuple[weakref.ref, np.ndarray] | None = None

    def __init__(self, labels: Mapping[Triple, bool], strict: bool = True) -> None:
        self._labels = dict(labels)
        self._strict = strict

    @classmethod
    def from_positions(cls, graph: KnowledgeGraph, labels: np.ndarray) -> "LabelOracle":
        """A strict oracle over ``graph`` backed by a position-aligned label array.

        ``labels[i]`` is the label of the triple at position ``i`` of
        ``graph``, as a labelled snapshot stores it.  For this same ``graph``
        object :meth:`as_position_array` returns the array (read-only) and
        :meth:`true_accuracy` counts it, so a position-surface run never
        materialises a Triple.  The Triple-keyed mapping behind :meth:`label`
        and the other object-surface calls is built on first use.

        Raises
        ------
        ValueError
            Unless there is exactly one label per triple of ``graph``.
        """
        positions = np.asarray(labels, dtype=bool)
        if positions.shape != (graph.num_triples,):
            raise ValueError(
                f"label array of shape {positions.shape} for {graph.num_triples} triples"
            )
        positions = positions.view()
        positions.flags.writeable = False
        oracle = cls.__new__(cls)
        oracle._strict = True
        oracle._graph = graph
        oracle._positions = positions
        return oracle

    @functools.cached_property
    def _labels(self) -> dict[Triple, bool]:
        # Reached only by a from_positions oracle, on its first object-surface
        # call: __init__ stores the mapping in the instance dict, which shadows
        # this descriptor, so dict-built oracles pay nothing per label() call.
        return dict(zip(self._graph.triples, self._positions.tolist()))

    def _positions_for(self, graph: KnowledgeGraph) -> np.ndarray | None:
        """The stored label array if it describes ``graph`` as it is now."""
        if graph is self._graph and self._positions.shape[0] == graph.num_triples:
            return self._positions
        return None

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def label(self, triple: Triple) -> bool:
        """Return the correctness label of ``triple``."""
        if triple in self._labels:
            return self._labels[triple]
        if self._strict:
            raise KeyError(f"no ground-truth label for {triple}")
        return True

    def labels_for(self, triples: Iterable[Triple]) -> list[bool]:
        """Return labels for a sequence of triples, preserving order."""
        return [self.label(triple) for triple in triples]

    @property
    def mapping(self) -> Mapping[Triple, bool]:
        """Read-only view of the underlying triple -> label mapping."""
        return self._labels

    def as_position_array(self, graph: KnowledgeGraph):
        """Labels as a boolean array aligned with ``graph`` triple positions.

        A writable copy of :meth:`position_labels`, except that a
        :meth:`from_positions` oracle hands its own read-only array back for
        its own graph.
        """
        positions = self._positions_for(graph)
        if positions is not None:
            return positions
        return self.position_labels(graph).copy()

    def position_labels(self, graph: KnowledgeGraph) -> np.ndarray:
        """The read-only label array of ``graph``, built at most once per graph.

        One O(M) conversion, kept for this ``graph`` object until the graph
        grows; afterwards the position surface resolves labels with pure
        array indexing, no Triple hashing.
        Unknown triples follow the oracle's ``strict`` setting: ``KeyError``
        when strict, ``True`` otherwise.
        """
        positions = self._positions_for(graph)
        if positions is not None:
            return positions
        if self._built is not None:
            built_for, array = self._built
            if built_for() is graph and array.shape[0] == graph.num_triples:
                return array
        if self._strict:
            # self.label raises the oracle's KeyError on the first missing
            # triple, so strictness costs no extra pass over the graph.
            array = np.fromiter(
                (self.label(triple) for triple in graph), dtype=bool, count=graph.num_triples
            )
        else:
            array = graph.position_label_array(self._labels, default=True)
        array.flags.writeable = False
        self._built = (weakref.ref(graph), array)
        return array

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    # ------------------------------------------------------------------ #
    # Population-level quantities (used by tests and oracle stratification)
    # ------------------------------------------------------------------ #
    def true_accuracy(self, graph: KnowledgeGraph) -> float:
        """The exact population accuracy ``µ(G)`` under this oracle."""
        if graph.num_triples == 0:
            return 0.0
        positions = self._positions_for(graph)
        if positions is not None:
            return int(np.count_nonzero(positions)) / graph.num_triples
        correct = sum(1 for triple in graph if self.label(triple))
        return correct / graph.num_triples

    def cluster_accuracy(self, graph: KnowledgeGraph, entity_id: str) -> float:
        """The exact accuracy ``µ_i`` of one entity cluster."""
        cluster = graph.cluster(entity_id)
        correct = sum(1 for triple in cluster if self.label(triple))
        return correct / cluster.size

    def cluster_accuracies(self, graph: KnowledgeGraph) -> dict[str, float]:
        """Exact per-cluster accuracies for every entity in ``graph``."""
        return {
            cluster.entity_id: sum(1 for t in cluster if self.label(t)) / cluster.size
            for cluster in graph.clusters()
        }

    def as_dict(self) -> dict[Triple, bool]:
        """Return a copy of the underlying triple-to-label mapping."""
        return dict(self._labels)
