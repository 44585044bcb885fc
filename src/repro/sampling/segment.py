"""The population of one appended update batch, as a CSR cluster index.

The evolving evaluators (Algorithms 1 and 2) never sample the merged evolved
graph: the reservoir scheme treats every per-entity insertion set ``Δ_e`` as
a brand-new cluster, and the stratified scheme samples only inside the newest
batch's stratum.  Both therefore need a cluster-sampling surface over *just
the triples of one update batch*, addressed by their global graph positions.

:class:`PositionSegment` is that population: a small CSR index (offsets +
global positions) over the batch's per-subject clusters, built in one pass
from the batch without materialising a standalone
:class:`~repro.kg.graph.KnowledgeGraph`.  It answers what TWCS reads from a
graph (``num_triples``, :meth:`PositionSegment.cluster_size_array` and
:meth:`PositionSegment.sample_cluster_positions_batch`), so the stratified
evaluator samples it with
:class:`~repro.sampling.twcs.TwoStageWeightedClusterDesign` itself, and
identically on every storage backend, because a segment is pure integer
arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import sample_csr_positions_batch
from repro.kg.triple import Triple

__all__ = ["PositionSegment"]


@dataclass(frozen=True)
class PositionSegment:
    """CSR view of one update batch's per-subject clusters.

    Attributes
    ----------
    subjects:
        Subject id of each cluster, in first-seen batch order.
    offsets:
        CSR offsets of length ``K + 1`` (``K`` clusters).
    positions:
        Global triple positions, grouped by cluster; cluster ``k`` owns
        ``positions[offsets[k]:offsets[k + 1]]``.
    """

    subjects: tuple[str, ...]
    offsets: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_batch(
        cls,
        triples: Sequence[Triple],
        added: Sequence[bool],
        first_position: int,
    ) -> "PositionSegment":
        """Build the segment for a batch just appended to a graph.

        ``added`` are the per-triple flags returned by the graph's bulk
        insert (duplicates are skipped by every backend identically);
        ``first_position`` is the graph's triple count before the append, so
        the i-th added triple sits at global position ``first_position + i``.
        """
        grouped: dict[str, list[int]] = {}
        position = first_position
        for triple, was_added in zip(triples, added):
            if not was_added:
                continue
            grouped.setdefault(triple.subject, []).append(position)
            position += 1
        subjects = tuple(grouped)
        sizes = np.fromiter(
            (len(grouped[s]) for s in subjects), dtype=np.int64, count=len(subjects)
        )
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        if subjects:
            positions = np.concatenate([np.asarray(grouped[s], dtype=np.int64) for s in subjects])
        else:
            positions = np.empty(0, dtype=np.int64)
        return cls(subjects=subjects, offsets=offsets, positions=positions)

    @property
    def num_clusters(self) -> int:
        """Number of per-subject insertion clusters ``Δ_e``."""
        return len(self.subjects)

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
