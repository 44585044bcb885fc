"""Two-stage weighted cluster sampling — TWCS (Section 5.2.3).

The paper's best design:

1. **First stage** — draw entity clusters with replacement, with probability
   proportional to cluster size (as in WCS).  The draw is
   :class:`~repro.sampling.base.SizeWeightedSampler`, whose rows and
   generator state equal ``rng.choice(N, count, replace=True, p=M_i / M)``.
2. **Second stage** — within each sampled cluster, draw ``min(M_i, m)``
   triples by simple random sampling *without* replacement and annotate only
   those.

The estimator is the mean of the within-cluster sample accuracies,

    µ̂_{w,m} = (1/n) Σ_k µ̂_{I_k}                              (Eq. 9)

which is unbiased for any ``m`` (Proposition 1) and reduces to SRS when
``m = 1`` (Proposition 2).  The second stage caps the annotation cost per
sampled cluster at ``c1 + m·c2``, which is where the overall cost saving over
SRS comes from.

The design reads its population through ``num_triples``,
``cluster_size_array()`` and ``sample_cluster_positions_batch()`` only, so it
samples a :class:`~repro.kg.graph.KnowledgeGraph` or, for the stratified
incremental evaluator, one update batch's
:class:`~repro.sampling.segment.PositionSegment`, whose drawn
``entity_rows`` are then segment-local cluster indices.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign, SizeWeightedSampler
from repro.sampling.segment import PositionSegment
from repro.stats.running import RunningMean

__all__ = ["TwoStageWeightedClusterDesign"]


class TwoStageWeightedClusterDesign(SamplingDesign):
    """TWCS: size-weighted first stage, capped SRS second stage.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate, or a
        :class:`~repro.sampling.segment.PositionSegment`.
    second_stage_size:
        The cap ``m`` on triples annotated per sampled cluster.  Values around
        3–5 are near-optimal on all KGs studied in the paper (Section 7.2.2);
        use :func:`repro.sampling.optimal.optimal_second_stage_size` to pick it
        from pilot information.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "cluster"

    def __init__(
        self,
        graph: KnowledgeGraph | PositionSegment,
        second_stage_size: int = 5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if second_stage_size < 1:
            raise ValueError("second_stage_size must be at least 1")
        if graph.num_triples == 0:
            raise ValueError("cannot sample from an empty knowledge graph")
        self.graph = graph
        self.second_stage_size = second_stage_size
        self._rng = np.random.default_rng(seed)
        self._sizes = graph.cluster_size_array()
        self._first_stage = SizeWeightedSampler(self._sizes)
        self._cluster_means = RunningMean()
        self._num_triples = 0

    def reset(self) -> None:
        """Clear the accumulated within-cluster sample accuracies."""
        self._cluster_means = RunningMean()
        self._num_triples = 0

    def draw_positions(self, count: int) -> PositionBatch:
        """Draw ``count`` cluster units, each carrying at most ``m`` positions."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = self._first_stage.draw(self._rng, count)
        positions, counts, starts = self.graph.sample_cluster_positions_batch(
            rows, self.second_stage_size, self._rng
        )
        return PositionBatch(positions, counts, rows, self._sizes[rows], starts)

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one segment sum for the whole batch."""
        if not len(batch):
            return
        sums = np.add.reduceat(label_array[batch.positions], batch.starts)
        self._cluster_means.add_many(sums / batch.counts)
        self._num_triples += batch.positions.shape[0]

    def estimate(self) -> Estimate:
        """Eq. (9): mean of within-cluster accuracies with its standard error."""
        return Estimate(
            value=self._cluster_means.mean,
            std_error=self._cluster_means.std_error,
            num_units=self._cluster_means.count,
            num_triples=self._num_triples,
        )
