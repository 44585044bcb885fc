"""Random cluster sampling (Section 5.2.1).

Entity clusters are drawn uniformly at random (without replacement) and every
triple of a sampled cluster is annotated.  The unbiased estimator is

    µ̂_r = (N / (M n)) * Σ_k τ_{I_k}                         (Eq. 7)

i.e. the mean of the per-cluster values ``(N / M) * τ_{I_k}`` where ``τ`` is
the number of correct triples in the cluster.  Because those values scale with
cluster size, the estimator's variance is large whenever cluster sizes are
widely spread — which is exactly what Table 5 shows (RCS is by far the worst
design on MOVIE and YAGO).  Once every cluster has been drawn and folded the
sample is a census: the estimate is the true accuracy and its standard error
is 0 (no finite-population correction is applied before that).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign
from repro.stats.running import RunningMean, row_moments

__all__ = ["RandomClusterDesign"]


class RandomClusterDesign(SamplingDesign):
    """Uniform cluster sampling with the expansion estimator of Eq. (7).

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
        self.graph = graph
        self._rng = np.random.default_rng(seed)
        self._num_entities = graph.num_entities
        self._permutation: np.ndarray | None = None
        self._cursor = 0
        self._values = RunningMean()
        self._num_triples = 0

    def reset(self) -> None:
        """Forget the draw order and all accumulated labels."""
        self._permutation = None
        self._cursor = 0
        self._values = RunningMean()
        self._num_triples = 0

    def _ensure_permutation(self) -> None:
        if self._permutation is None:
            self._permutation = self._rng.permutation(self._num_entities)
            self._cursor = 0

    @property
    def exhausted(self) -> bool:
        """Whether every cluster has already been drawn."""
        self._ensure_permutation()
        assert self._permutation is not None
        return self._cursor >= self._permutation.size

    def _is_census(self) -> bool:
        # Read the cursor directly: ``exhausted`` would draw the permutation.
        # An empty graph has no census to report: its estimate stays undefined.
        permutation = self._permutation
        return (
            permutation is not None
            and permutation.size > 0
            and self._cursor >= permutation.size
            and self._values.count == permutation.size
        )

    def _next_rows(self, count: int) -> np.ndarray:
        self._ensure_permutation()
        assert self._permutation is not None
        end = min(self._cursor + count, self._permutation.size)
        rows = self._permutation[self._cursor : end]
        self._cursor = end
        return rows

    def draw_positions(self, count: int) -> PositionBatch:
        """Draw up to ``count`` previously undrawn clusters uniformly, each taken whole."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = self._next_rows(count)
        positions, counts, starts = self.graph.sample_cluster_positions_batch(rows, None)
        return PositionBatch(positions, counts, rows, counts, starts)

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one segment sum for the whole batch."""
        self.fold_rounds(batch, label_array, len(batch) or 1)

    def fold_rounds(
        self,
        batch: PositionBatch,
        label_array: np.ndarray,
        round_size: int,
        stop: Callable[[Estimate], bool] | None = None,
    ) -> int:
        """Fold ``batch`` in rounds of ``round_size`` clusters, one round at a time.

        Each round's moments come from one row-wise reduce over the whole
        batch and are merged as ``RunningMean.add_many`` merges that round
        alone, so after each round the design holds the state that drawing
        and folding that round alone leaves, and ``stop`` sees its estimate.
        At the first round where it holds, the rest of ``batch``, which must
        then be this design's latest draw, goes back to the cursor, to be
        drawn again.  Returns the number of clusters folded.
        """
        units = len(batch)
        if not units:
            return 0
        sums = np.add.reduceat(label_array[batch.positions], batch.starts)
        values = (self.graph.num_entities / self.graph.num_triples) * sums
        full = units - units % round_size
        means, m2s = row_moments(values[:full].reshape(-1, round_size))
        sizes = [round_size] * (full // round_size)
        if full < units:
            # The draw ran out of clusters: its last round is shorter.
            last_mean, last_m2 = row_moments(values[None, full:])
            means, m2s = np.append(means, last_mean), np.append(m2s, last_m2)
            sizes.append(units - full)
        triples = np.add.reduceat(batch.counts, np.arange(0, units, round_size)).tolist()
        values_acc = self._values
        start, folded = self._cursor - units, 0
        for size, mean, m2, count in zip(sizes, means.tolist(), m2s.tolist(), triples):
            values_acc.add_moments(size, mean, m2)
            self._num_triples += count
            folded += size
            self._cursor = start + folded
            if stop is not None and stop(self.estimate()):
                break
        return folded

    def estimate(self) -> Estimate:
        """Mean of the per-cluster expansion values with its standard error."""
        return Estimate(
            value=self._values.mean,
            std_error=0.0 if self._is_census() else self._values.std_error,
            num_units=self._values.count,
            num_triples=self._num_triples,
        )
