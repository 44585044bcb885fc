"""Simple random sampling of triples (Section 5.1).

Triples are drawn uniformly without replacement; the estimator is the sample
mean ``µ̂_s`` (Eq. 5) with the Normal-approximation interval
``µ̂_s ± z * sqrt(µ̂_s (1 - µ̂_s) / n_s)``.  Once every triple has been drawn
and folded the sample is a census: the mean is the true accuracy and its
standard error is 0 (no finite-population correction is applied before that).

Although each triple is drawn independently, annotators still group sampled
triples by subject id when carrying out the task, so the *cost* of an SRS
sample is governed by the number of distinct entities hit — which is why SRS
loses to cluster sampling on large KGs despite needing slightly fewer triples.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign

__all__ = ["SimpleRandomDesign"]


class SimpleRandomDesign(SamplingDesign):
    """Triple-level simple random sampling without replacement.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "triple"

    def __init__(
        self, graph: KnowledgeGraph, seed: int | np.random.Generator | None = None
    ) -> None:
        self.graph = graph
        self._rng = np.random.default_rng(seed)
        self._remaining: np.ndarray | None = None
        self._cursor = 0
        self._num_correct = 0
        self._num_annotated = 0

    # ------------------------------------------------------------------ #
    # SamplingDesign interface
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget the draw order and all accumulated labels."""
        self._remaining = None
        self._cursor = 0
        self._num_correct = 0
        self._num_annotated = 0

    def _ensure_permutation(self) -> None:
        if self._remaining is None:
            self._remaining = self._rng.permutation(self.graph.num_triples)
            self._cursor = 0

    @property
    def exhausted(self) -> bool:
        """Whether every triple of the graph has already been drawn."""
        self._ensure_permutation()
        assert self._remaining is not None
        return self._cursor >= self._remaining.size

    def _is_census(self, cursor, annotated):
        """Whether ``annotated`` triples folded with the cursor at ``cursor`` are a census.

        Works on one state's ints or on per-round arrays.  Reads the cursor
        given, not ``exhausted``, which would draw the permutation.
        """
        if self._remaining is None:
            return False
        size = self._remaining.size
        return (cursor >= size) & (annotated == size)

    def _next_positions(self, count: int) -> np.ndarray:
        self._ensure_permutation()
        assert self._remaining is not None
        end = min(self._cursor + count, self._remaining.size)
        positions = self._remaining[self._cursor : end]
        self._cursor = end
        return positions

    def draw_positions(self, count: int) -> PositionBatch:
        """Draw up to ``count`` previously undrawn triples uniformly at random."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return PositionBatch.of_triples(self._next_positions(count))

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one count for the whole batch."""
        self.fold_rounds(batch, label_array, len(batch) or 1)

    def fold_rounds(
        self,
        batch: PositionBatch,
        label_array: np.ndarray,
        round_size: int,
        stop: Callable[[Estimate], np.ndarray] | None = None,
    ) -> int:
        """Fold ``batch`` in rounds of ``round_size`` triples, up to the first that meets ``stop``.

        The state after each round, the one drawing and folding that round
        alone leaves, is read from cumulative correct counts.  ``stop`` is
        called once, on an :class:`Estimate` whose fields are per-round
        arrays, and returns one flag per round.  The design keeps the state
        of the first flagged round (of the last round if none is) and the
        rest of ``batch``, which must then be this design's latest draw,
        goes back to the cursor, to be drawn again.  Returns the number of
        triples folded.
        """
        units = len(batch)
        if not units:
            return 0
        ends = [*range(round_size, units, round_size), units]
        correct = np.cumsum(label_array[batch.positions])[np.array(ends) - 1].tolist()
        last = len(ends) - 1
        if stop is not None:
            annotated = np.array(ends) + self._num_annotated
            p_hat = (np.array(correct) + self._num_correct) / annotated
            # Eq. (5)'s standard error, round by round, as estimate() reads it.
            std_error = np.sqrt(p_hat * (1.0 - p_hat) / annotated)
            std_error[annotated < 2] = math.inf
            cursor = annotated + (self._cursor - units - self._num_annotated)
            std_error[self._is_census(cursor, annotated)] = 0.0
            met = np.flatnonzero(stop(Estimate(p_hat, std_error, annotated, annotated)))
            if met.size:
                last = int(met[0])
        self._cursor += ends[last] - units
        self._num_annotated += ends[last]
        self._num_correct += correct[last]
        return ends[last]

    def estimate(self) -> Estimate:
        """Sample mean with the binomial-proportion standard error (Eq. 5)."""
        n = self._num_annotated
        if n == 0:
            return Estimate(value=0.0, std_error=math.inf, num_units=0, num_triples=0)
        p_hat = self._num_correct / n
        if self._is_census(self._cursor, n):
            std_error = 0.0
        elif n < 2:
            std_error = math.inf
        else:
            std_error = math.sqrt(p_hat * (1.0 - p_hat) / n)
        return Estimate(value=p_hat, std_error=std_error, num_units=n, num_triples=n)
