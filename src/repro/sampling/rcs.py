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
from repro.stats.running import RunningMean, merge_each, row_moments, std_errors

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

    def _is_census(self, cursor, count):
        """Whether ``count`` clusters folded with the cursor at ``cursor`` are a census.

        Works on one state's ints or on per-round arrays.  Reads the cursor
        given, not ``exhausted``, which would draw the permutation.  An empty
        graph has no census to report: its estimate stays undefined.
        """
        size = 0 if self._permutation is None else self._permutation.size
        return (size > 0) & (cursor >= size) & (count == size)

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
        stop: Callable[[Estimate], np.ndarray] | None = None,
    ) -> int:
        """Fold ``batch`` in rounds of ``round_size`` clusters, up to the first that meets ``stop``.

        Each round's moments come from one row-wise reduce over the whole
        batch and are merged as ``RunningMean.add_moments`` merges that round
        alone (:func:`~repro.stats.running.merge_each`), so the state after
        each round is the one drawing and folding that round alone leaves.
        ``stop`` is called once, on an :class:`Estimate` whose fields are
        per-round arrays, and returns one flag per round.  The design keeps
        the state of the first flagged round (of the last round if none is)
        and the rest of ``batch``, which must then be this design's latest
        draw, goes back to the cursor, to be drawn again.  Returns the number
        of clusters folded.
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
        before = self._values.count
        counts, means, m2s = merge_each(self._values.moments, sizes, means.tolist(), m2s.tolist())
        last = len(sizes) - 1
        if stop is not None:
            count = np.array(counts)
            std_error = std_errors(count, np.array(m2s))
            cursor = count + (self._cursor - units - before)
            std_error[self._is_census(cursor, count)] = 0.0
            num_triples = np.cumsum(triples) + self._num_triples
            met = np.flatnonzero(stop(Estimate(np.array(means), std_error, count, num_triples)))
            if met.size:
                last = int(met[0])
        folded = counts[last] - before
        self._values = RunningMean.from_moments(counts[last], means[last], m2s[last])
        self._num_triples += sum(triples[: last + 1])
        self._cursor += folded - units
        return folded

    def estimate(self) -> Estimate:
        """Mean of the per-cluster expansion values with its standard error."""
        values = self._values
        census = self._is_census(self._cursor, values.count)
        return Estimate(
            value=values.mean,
            std_error=0.0 if census else values.std_error,
            num_units=values.count,
            num_triples=self._num_triples,
        )
