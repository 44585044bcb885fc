"""The population of one appended update batch, as a CSR cluster index.

The evolving evaluators (Algorithms 1 and 2) never sample the merged evolved
graph: the reservoir scheme treats every per-entity insertion set ``Δ_e`` as
a brand-new cluster, and the stratified scheme samples only inside the newest
batch's stratum.  Both therefore need a cluster-sampling surface over *just
the triples of one update batch*, addressed by their global graph positions.

:class:`PositionSegment` is that population: a small CSR index (offsets +
global positions) over the batch's per-subject clusters, with each cluster's
entity row in the evolved graph, built with array operations from the rows
the delta tail gave the appended triples — no Triple and no standalone
:class:`~repro.kg.graph.KnowledgeGraph`.  It answers what TWCS reads from a
graph (``num_triples``, :meth:`PositionSegment.cluster_size_array` and
:meth:`PositionSegment.sample_cluster_positions_batch`), so the stratified
evaluator samples it with
:class:`~repro.sampling.twcs.TwoStageWeightedClusterDesign` itself, and
identically on every storage backend, because a segment is pure integer
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import sample_csr_positions_batch

__all__ = ["PositionSegment"]


@dataclass(frozen=True)
class PositionSegment:
    """CSR view of one update batch's per-subject clusters.

    Attributes
    ----------
    rows:
        Entity row of each cluster's subject in the evolved graph, in
        first-seen batch order.
    offsets:
        CSR offsets of length ``K + 1`` (``K`` clusters).
    positions:
        Global triple positions, grouped by cluster; cluster ``k`` owns
        ``positions[offsets[k]:offsets[k + 1]]``.
    """

    rows: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_rows(cls, rows: np.ndarray, first_position: int) -> "PositionSegment":
        """Build the segment for triples just appended to a graph.

        ``rows`` holds the entity row of each appended triple's subject
        (:meth:`~repro.storage.delta.DeltaStore.appended_rows`), and the
        i-th appended triple sits at global position ``first_position + i``.
        Clusters come in the order their subjects first appear, each with its
        positions ascending.
        """
        unique, first, inverse = np.unique(
            np.asarray(rows, dtype=np.int64), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        cluster_of_rank = np.empty_like(order)
        cluster_of_rank[order] = np.arange(order.shape[0])
        clusters = cluster_of_rank[inverse]
        sizes = np.bincount(clusters, minlength=order.shape[0])
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        positions = first_position + np.argsort(clusters, kind="stable").astype(np.int64)
        return cls(rows=unique[order], offsets=offsets, positions=positions)

    @property
    def num_clusters(self) -> int:
        """Number of per-subject insertion clusters ``Δ_e``."""
        return int(self.rows.shape[0])

    @property
    def num_triples(self) -> int:
        """Number of inserted triples covered by the segment."""
        return int(self.positions.shape[0])

    def cluster_size_array(self) -> np.ndarray:
        """Cluster sizes ``|Δ_e|`` in cluster order."""
        return np.diff(self.offsets)

    def cluster_positions(self, cluster: int) -> np.ndarray:
        """Global positions of cluster ``cluster`` (zero-copy slice)."""
        return self.positions[int(self.offsets[cluster]) : int(self.offsets[cluster + 1])]

    def sample_cluster_positions_batch(
        self, rows: np.ndarray, cap: int | None, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second-stage sample of up to ``cap`` positions from each cluster in ``rows``.

        The same batched draw as
        :meth:`~repro.kg.graph.KnowledgeGraph.sample_cluster_positions_batch`,
        run on the segment's own CSR arrays; returns ``(flat, counts, starts)``.
        """
        return sample_csr_positions_batch(self.offsets, self.positions, rows, cap, rng)
