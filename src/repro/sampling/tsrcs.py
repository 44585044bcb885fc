"""Two-stage *random* cluster sampling (TSRCS) — the ablation the paper omits.

Section 5.2.3 notes that "a similar approach can be applied to two-stage
random cluster sampling; however, due to its inferior performance, we omit the
discussion."  This module implements that omitted variant so the claim can be
checked empirically (see ``benchmarks/bench_ablation_tsrcs.py``):

1. **First stage** — draw entity clusters *uniformly at random* with
   replacement (not size-weighted).
2. **Second stage** — within each sampled cluster, draw ``min(M_i, m)``
   triples by SRS without replacement.

Because the first stage ignores cluster sizes, the estimator must re-weight
each sampled cluster by its size to stay unbiased (a Hansen–Hurwitz estimator
with uniform inclusion probabilities):

    µ̂ = (N / (M n)) Σ_k M_{I_k} µ̂_{I_k}

which inherits exactly the weakness of RCS: its variance scales with the
spread of cluster sizes, so it loses to TWCS whenever sizes are skewed — which
is why the paper drops it.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign
from repro.stats.running import RunningMean

__all__ = ["TwoStageRandomClusterDesign"]


class TwoStageRandomClusterDesign(SamplingDesign):
    """Uniform first-stage cluster draws with a capped SRS second stage.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    second_stage_size:
        The cap ``m`` on triples annotated per sampled cluster.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "cluster"

    def __init__(
        self,
        graph: KnowledgeGraph,
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
        self._values = RunningMean()
        self._num_triples = 0

    def reset(self) -> None:
        """Clear the accumulated per-cluster values."""
        self._values = RunningMean()
        self._num_triples = 0

    def draw_positions(self, count: int) -> PositionBatch:
        """Draw ``count`` clusters uniformly (with replacement), ``m``-capped."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = self._rng.integers(0, self._sizes.shape[0], size=count)
        positions, counts, starts = self.graph.sample_cluster_positions_batch(
            rows, self.second_stage_size, self._rng
        )
        return PositionBatch(positions, counts, rows, self._sizes[rows], starts)

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one segment sum for the whole batch."""
        if not len(batch):
            return
        sums = np.add.reduceat(label_array[batch.positions], batch.starts)
        scale = self.graph.num_entities / self.graph.num_triples
        sizes = batch.cluster_sizes.astype(np.float64)
        self._values.add_many(scale * sizes * (sums / batch.counts))
        self._num_triples += batch.positions.shape[0]

    def estimate(self) -> Estimate:
        """Mean of the re-weighted per-cluster values with its standard error."""
        return Estimate(
            value=self._values.mean,
            std_error=self._values.std_error,
            num_units=self._values.count,
            num_triples=self._num_triples,
        )
