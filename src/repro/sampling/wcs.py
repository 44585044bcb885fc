"""Weighted cluster sampling (Section 5.2.2).

Clusters are drawn *with replacement* with probability proportional to their
size, ``π_i = M_i / M``; all triples of a sampled cluster are annotated.  The
draw is :class:`~repro.sampling.base.SizeWeightedSampler`, whose rows and
generator state equal ``rng.choice(N, count, replace=True, p=π)``.  The
Hansen–Hurwitz estimator is the plain mean of the sampled cluster accuracies:

    µ̂_w = (1/n) Σ_k µ_{I_k}                                  (Eq. 8)

Because it averages *accuracies* rather than correct-triple *counts*, its
variance does not blow up with the spread of cluster sizes, fixing the main
weakness of random cluster sampling.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign, SizeWeightedSampler
from repro.stats.running import RunningMean

__all__ = ["WeightedClusterDesign"]


class WeightedClusterDesign(SamplingDesign):
    """Size-weighted cluster sampling with the Hansen–Hurwitz estimator.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "cluster"

    def __init__(
        self, graph: KnowledgeGraph, seed: int | np.random.Generator | None = None
    ) -> None:
        if graph.num_triples == 0:
            raise ValueError("cannot sample from an empty knowledge graph")
        self.graph = graph
        self._rng = np.random.default_rng(seed)
        self._sizes = graph.cluster_size_array()
        self._first_stage = SizeWeightedSampler(self._sizes)
        self._values = RunningMean()
        self._num_triples = 0

    def reset(self) -> None:
        """Clear the accumulated cluster accuracies."""
        self._values = RunningMean()
        self._num_triples = 0

    def draw_positions(self, count: int) -> PositionBatch:
        """Draw ``count`` whole clusters with probability proportional to size."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = self._first_stage.draw(self._rng, count)
        positions, counts, starts = self.graph.sample_cluster_positions_batch(rows, None)
        return PositionBatch(positions, counts, rows, self._sizes[rows], starts)

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one segment sum for the whole batch."""
        if not len(batch):
            return
        sums = np.add.reduceat(label_array[batch.positions], batch.starts)
        self._values.add_many(sums / batch.counts)
        self._num_triples += batch.positions.shape[0]

    def estimate(self) -> Estimate:
        """Mean of sampled cluster accuracies with its standard error."""
        return Estimate(
            value=self._values.mean,
            std_error=self._values.std_error,
            num_units=self._values.count,
            num_triples=self._num_triples,
        )
