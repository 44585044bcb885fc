"""Adversarial worst-case cluster labels.

Cluster-sampling designs lean on the assumption that per-cluster accuracies
vary smoothly with size (Figure 3 of the paper).  The adversary below breaks
that assumption as hard as possible: it concentrates all the error mass in
the *largest* clusters — the clusters that size-weighted designs visit most
often and that dominate the Hansen–Hurwitz estimator — while labelling the
rest of the graph (nearly) perfect.  The resulting per-cluster accuracy
profile is a step function, which maximises the between-cluster variance
component of Eq. (10) for a fixed overall accuracy and makes this the
stress-test label model of the scenario registry.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle

__all__ = ["AdversarialClusterModel"]


class AdversarialClusterModel:
    """Poison the largest clusters, keep the rest (nearly) perfect.

    Parameters
    ----------
    poisoned_mass:
        Fraction of the graph's triples (by mass, not by cluster count) that
        falls into poisoned clusters.  Clusters are taken largest-first until
        the cumulative size reaches this fraction.
    poisoned_accuracy:
        Per-triple accuracy inside poisoned clusters (default 0: every triple
        wrong).
    base_accuracy:
        Per-triple accuracy everywhere else (default 1: every triple right).
    seed:
        Seed or generator for the Bernoulli draws.  A uniform draw is consumed
        for every triple regardless of whether its cluster is poisoned, so the
        labelling stream does not depend on the threshold parameters.
    """

    def __init__(
        self,
        poisoned_mass: float = 0.1,
        poisoned_accuracy: float = 0.0,
        base_accuracy: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= poisoned_mass <= 1.0:
            raise ValueError(f"poisoned_mass must be in [0, 1], got {poisoned_mass}")
        if not 0.0 <= poisoned_accuracy <= 1.0:
            raise ValueError(f"poisoned_accuracy must be in [0, 1], got {poisoned_accuracy}")
        if not 0.0 <= base_accuracy <= 1.0:
            raise ValueError(f"base_accuracy must be in [0, 1], got {base_accuracy}")
        self.poisoned_mass = poisoned_mass
        self.poisoned_accuracy = poisoned_accuracy
        self.base_accuracy = base_accuracy
        self._rng = np.random.default_rng(seed)

    def poisoned_rows(self, graph: KnowledgeGraph) -> set[int]:
        """Cluster rows (indices into ``entity_ids``) chosen for poisoning.

        Largest clusters first (ties broken by row order) until the poisoned
        triple mass reaches ``poisoned_mass`` of the graph.
        """
        sizes = graph.cluster_size_array()
        budget = self.poisoned_mass * float(sizes.sum())
        rows: set[int] = set()
        covered = 0
        for row in np.argsort(-sizes, kind="stable"):
            if covered >= budget:
                break
            rows.add(int(row))
            covered += int(sizes[row])
        return rows

    def _poisoned_mask(self, graph: KnowledgeGraph) -> np.ndarray:
        """:meth:`poisoned_rows` as a boolean array over cluster rows."""
        poisoned = self.poisoned_rows(graph)
        mask = np.zeros(graph.num_entities, dtype=bool)
        mask[np.fromiter(poisoned, dtype=np.int64, count=len(poisoned))] = True
        return mask

    def generate(self, graph: KnowledgeGraph) -> LabelOracle:
        """Draw labels for every triple of ``graph`` and return an oracle.

        One uniform per triple in cluster order (row by row), scattered to
        the triples' positions.
        """
        accuracy = np.where(self._poisoned_mask(graph), self.poisoned_accuracy, self.base_accuracy)
        offsets, positions = graph.backend.csr_arrays()
        labels = np.empty(graph.num_triples, dtype=bool)
        draws = self._rng.random(positions.shape[0])
        labels[positions] = draws < np.repeat(accuracy, np.diff(offsets))
        return LabelOracle.from_positions(graph, labels)

    def expected_accuracy(self, graph: KnowledgeGraph) -> float:
        """Expected overall accuracy of the labels this model draws for ``graph``."""
        sizes = graph.cluster_size_array()
        mask = self._poisoned_mask(graph)
        total = float(sizes.sum())
        if total == 0:
            return 0.0
        poisoned_triples = float(sizes[mask].sum())
        return (
            poisoned_triples * self.poisoned_accuracy
            + (total - poisoned_triples) * self.base_accuracy
        ) / total
