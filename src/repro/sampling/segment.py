"""Position-surface sampling over appended update segments.

The evolving evaluators (Algorithms 1 and 2) never sample the merged evolved
graph: the reservoir scheme treats every per-entity insertion set ``Δ_e`` as
a brand-new cluster, and the stratified scheme samples only inside the newest
batch's stratum.  Both therefore need a cluster-sampling surface over *just
the triples of one update batch*, addressed by their global graph positions.

:class:`PositionSegment` is that surface's population: a small CSR index
(offsets + global positions) over the batch's per-subject clusters, built in
one pass from the batch without materialising a standalone
:class:`~repro.kg.graph.KnowledgeGraph`.  :class:`SegmentTWCSDesign` runs the
TWCS draw/estimate loop on it — size-weighted first stage, capped Floyd
second stage, running mean of within-cluster accuracies — identically on
every storage backend, because a segment is pure integer arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import sample_csr_positions_batch
from repro.kg.triple import Triple
from repro.sampling.base import Estimate, PositionUnit, segment_label_sums
from repro.stats.running import RunningMean

__all__ = ["PositionSegment", "SegmentTWCSDesign"]


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

    def sizes(self) -> np.ndarray:
        """Cluster sizes ``|Δ_e|`` in cluster order."""
        return np.diff(self.offsets)

    def cluster_positions(self, cluster: int) -> np.ndarray:
        """Global positions of cluster ``cluster`` (zero-copy slice)."""
        return self.positions[int(self.offsets[cluster]) : int(self.offsets[cluster + 1])]


class SegmentTWCSDesign:
    """TWCS draw/estimate loop over one :class:`PositionSegment`.

    Position-only: draws are :class:`~repro.sampling.base.PositionUnit` views
    whose ``entity_row`` is the *segment-local* cluster index, and labels
    arrive as a graph-position-aligned boolean array.
    """

    def __init__(
        self,
        segment: PositionSegment,
        second_stage_size: int = 5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if second_stage_size < 1:
            raise ValueError("second_stage_size must be at least 1")
        if segment.num_triples == 0:
            raise ValueError("cannot sample from an empty segment")
        self.segment = segment
        self.second_stage_size = second_stage_size
        self._rng = np.random.default_rng(seed)
        self._sizes = segment.sizes()
        sizes = self._sizes.astype(float)
        self._weights = sizes / sizes.sum()
        self._cluster_means = RunningMean()
        self._num_triples = 0

    def reset(self) -> None:
        """Clear the accumulated within-cluster sample accuracies."""
        self._cluster_means = RunningMean()
        self._num_triples = 0

    def draw_positions(self, count: int) -> list[PositionUnit]:
        """Draw ``count`` cluster units as position-only views."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = self._rng.choice(self._sizes.shape[0], size=count, replace=True, p=self._weights)
        batches = sample_csr_positions_batch(
            self.segment.offsets, self.segment.positions, rows, self.second_stage_size, self._rng
        )
        sizes = self._sizes
        return [
            PositionUnit(positions=positions, entity_row=int(row), cluster_size=int(sizes[row]))
            for row, positions in zip(rows, batches)
        ]

    def update_positions(self, unit: PositionUnit, labels: np.ndarray) -> None:
        """Fold one cluster's within-sample accuracy into the running mean."""
        self._cluster_means.add(float(labels.mean()))
        self._num_triples += int(labels.shape[0])

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Vectorised batch update: one gather + segment reduction."""
        if not units:
            return
        counts, sums = segment_label_sums(units, label_array)
        self._cluster_means.add_many(sums / counts)
        self._num_triples += int(counts.sum())

    def estimate(self) -> Estimate:
        """Eq. (9) inside the segment: mean of within-cluster accuracies."""
        return Estimate(
            value=self._cluster_means.mean,
            std_error=self._cluster_means.std_error,
            num_units=self._cluster_means.count,
            num_triples=self._num_triples,
        )
