"""Reservoir Incremental Evaluation — Algorithm 1 of the paper (Section 6.1).

The evaluator maintains a size-weighted sample of entity clusters using the
Efraimidis–Spirakis A-Res keys ``u^{1/weight}``:

* every cluster of the base KG receives a key; the clusters with the largest
  keys form the *reservoir* and are the only ones annotated (at most ``m``
  triples each, as in TWCS);
* when an insertion batch ``Δ`` arrives, each per-entity insertion set ``Δ_e``
  is treated as a brand-new cluster (so weights stay constant), receives a key
  ``u^{1/|Δ_e|}`` and replaces the minimum-key reservoir item whenever its key
  is larger — the replacement step of Algorithm 1;
* the accuracy estimate is the mean of the per-cluster sample accuracies of
  the clusters currently in the reservoir, tracked with a running
  (Welford-style) accumulator that supports removal, so the margin-of-error
  check after each refresh/growth step is O(1) instead of a fresh O(n) pass
  over the reservoir;
* if, after the stochastic refresh, the margin of error exceeds the threshold,
  the reservoir is grown: the not-yet-annotated cluster with the next-largest
  key is pulled in and annotated, exactly as if the static evaluation had
  asked for one more first-stage draw.

Keeping the keys of *all* clusters (annotated or not) makes the reservoir
nested in its capacity, so growing it later never contradicts an earlier
sampling decision.

Clusters are addressed as CSR rows of the frozen base graph or as clusters
of an appended update segment; annotation resolves boolean label arrays by
integer position, and the clusters a write (or a growth step) annotates are
charged to the evaluator's annotator session as one round, in the order they
were drawn, so the whole update loop runs without materialising a single
Triple.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.evolving.base import IncrementalEvaluator, UpdateEvaluation
from repro.kg.updates import UpdateBatch
from repro.obs import metrics as obs_metrics
from repro.sampling.base import Estimate, PositionBatch
from repro.sampling.segment import PositionSegment
from repro.stats.running import RunningMean

__all__ = ["ReservoirIncrementalEvaluator"]


@dataclass
class _PositionEntry:
    """One annotated cluster currently in the reservoir.

    ``source`` addresses the cluster's population: ``(None, row)`` for a base
    graph CSR row, ``(segment, cluster)`` for a cluster of an appended update
    segment.
    """

    source: tuple[PositionSegment | None, int]
    key: float
    weight: float
    positions: np.ndarray
    accuracy: float

    @property
    def num_triples(self) -> int:
        return int(self.positions.shape[0])


class ReservoirIncrementalEvaluator(IncrementalEvaluator):
    """Incremental evaluation via weighted reservoir sampling (Algorithm 1)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = np.random.default_rng(self.seed)
        # Annotated clusters, as a min-heap on the A-Res key.
        self._reservoir: list[tuple[float, int, _PositionEntry]] = []
        # Clusters that received a key but were never annotated, as a max-heap
        # (negated keys); used when the reservoir needs to grow.
        self._candidates: list[tuple] = []
        self._tiebreak = 0
        self._replacements_total = 0
        # Running per-cluster accuracy stats of the current reservoir, so the
        # margin-of-error check never recomputes over all entries.
        self._stats = RunningMean()
        self._stats_triples = 0

    # ------------------------------------------------------------------ #
    # Key handling
    # ------------------------------------------------------------------ #
    def _draw_keys(self, weights: np.ndarray) -> np.ndarray:
        """One A-Res key ``u^{1/weight}`` per weight."""
        uniforms = np.maximum(self._rng.random(weights.shape[0]), np.finfo(float).tiny)
        return uniforms ** (1.0 / weights)

    def _next_tiebreak(self) -> int:
        self._tiebreak += 1
        return self._tiebreak

    # ------------------------------------------------------------------ #
    # Reservoir bookkeeping
    # ------------------------------------------------------------------ #
    def _push_reservoir(self, entry: _PositionEntry) -> None:
        heapq.heappush(self._reservoir, (entry.key, self._next_tiebreak(), entry))
        self._stats.add(entry.accuracy)
        self._stats_triples += entry.num_triples

    def _pop_reservoir_min(self) -> _PositionEntry:
        key, tiebreak, entry = heapq.heappop(self._reservoir)
        self._stats.remove(entry.accuracy)
        self._stats_triples -= entry.num_triples
        obs_metrics.counter("reservoir_evictions_total").inc()
        return entry

    # ------------------------------------------------------------------ #
    # Annotation of one cluster (second stage of TWCS)
    # ------------------------------------------------------------------ #
    def _cluster_population(self, source: tuple[PositionSegment | None, int]) -> np.ndarray:
        segment, index = source
        if segment is None:
            return self.evolving.base.cluster_positions_by_row(index)
        return segment.cluster_positions(index)

    def _insert_annotated_positions(
        self,
        source: tuple[PositionSegment | None, int],
        key: float,
        weight: float,
        positions: np.ndarray | None = None,
    ) -> _PositionEntry:
        """Annotate one cluster and place it in the reservoir; the caller charges it.

        ``positions`` carries a previously annotated second-stage sample (an
        evicted entry re-entering through the candidate heap): it is reused
        verbatim, so the session's dedup makes re-annotation free and the
        accuracy unchanged.
        """
        if positions is None:
            population = np.asarray(self._cluster_population(source))
            if population.shape[0] > self.second_stage_size:
                chosen = self._rng.choice(
                    population.shape[0], size=self.second_stage_size, replace=False
                )
                positions = population[chosen]
            else:
                positions = population
        accuracy = float(self._labels[positions].mean())
        entry = _PositionEntry(
            source=source, key=key, weight=weight, positions=positions, accuracy=accuracy
        )
        self._push_reservoir(entry)
        return entry

    def _charge(self, entries: list[_PositionEntry]) -> None:
        """Charge the clusters just annotated to the session, as one round in that order."""
        if not entries:
            return
        counts = np.array([entry.num_triples for entry in entries], dtype=np.int64)
        rows = [
            cluster if segment is None else int(segment.rows[cluster])
            for segment, cluster in (entry.source for entry in entries)
        ]
        batch = PositionBatch(
            np.concatenate([entry.positions for entry in entries]),
            counts,
            np.array(rows, dtype=np.int64),
            np.array([entry.weight for entry in entries], dtype=np.int64),
        )
        self._annotate(batch)

    def _push_position_candidate(
        self,
        source: tuple[PositionSegment | None, int],
        key: float,
        weight: float,
        positions: np.ndarray | None = None,
    ) -> None:
        heapq.heappush(
            self._candidates, (-key, self._next_tiebreak(), weight, source, positions)
        )

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def _grow_reservoir(self, count: int) -> int:
        """Annotate the ``count`` highest-key candidates; return how many were added."""
        added = []
        while len(added) < count and self._candidates:
            negated_key, _, weight, source, positions = heapq.heappop(self._candidates)
            added.append(self._insert_annotated_positions(source, -negated_key, weight, positions))
        self._charge(added)
        return len(added)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def _current_estimate(self) -> Estimate:
        n = self._stats.count
        if n == 0:
            return Estimate(value=0.0, std_error=math.inf, num_units=0, num_triples=0)
        return Estimate(
            value=self._stats.mean,
            std_error=self._stats.std_error,
            num_units=n,
            num_triples=self._stats_triples,
        )

    def _satisfy_quality(self) -> tuple[Estimate, int]:
        """Grow the reservoir until the MoE target is met; return (estimate, iterations)."""
        config = self.config
        iterations = 0
        while True:
            estimate = self._current_estimate()
            if config.target_met(estimate):
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                break
            if not self._candidates:
                break
            self._grow_reservoir(config.batch_size)
            iterations += 1
        return self._current_estimate(), iterations

    # ------------------------------------------------------------------ #
    # IncrementalEvaluator interface
    # ------------------------------------------------------------------ #
    def _finish(self, batch_id: str, totals_before: tuple[float, int, int]) -> UpdateEvaluation:
        estimate, iterations = self._satisfy_quality()
        report = self._report(estimate, iterations, self.config.target_met(estimate), totals_before)
        return self._record(batch_id, report)

    def evaluate_base(self) -> UpdateEvaluation:
        """Key every base cluster, annotate the top-key ones until the MoE target holds."""
        totals_before = self._cost_totals()
        sizes = self.evolving.base.cluster_size_array().astype(float)
        keys = self._draw_keys(sizes)
        # Bulk-build the candidate heap: O(N) heapify instead of N pushes.
        assert not self._candidates
        self._candidates = [
            (-key, row + 1, weight, (None, row), None)
            for row, (key, weight) in enumerate(zip(keys.tolist(), sizes.tolist()))
        ]
        heapq.heapify(self._candidates)
        self._tiebreak = sizes.shape[0]
        return self._finish("base", totals_before)

    def apply_update(self, batch: UpdateBatch) -> UpdateEvaluation:
        """Algorithm 1: stochastically refresh the reservoir, then re-check quality."""
        if not self._reservoir:
            raise RuntimeError("evaluate_base() must be called before apply_update()")
        totals_before = self._cost_totals()

        # Every per-entity insertion set Δ_e is a fresh cluster of the
        # appended segment, keyed u^{1/|Δ_e|}; a key above the reservoir's
        # minimum replaces that cluster (its annotations stay paid for but
        # leave the estimator), as in Algorithm 1.
        segment = self._append_update(batch)
        sizes = segment.cluster_size_array().astype(float)
        if sizes.shape[0]:
            keys = self._draw_keys(sizes)
            reservoir = self._reservoir
            candidates = self._candidates
            heappush = heapq.heappush
            inserted = []
            for index, (key, weight) in enumerate(zip(keys.tolist(), sizes.tolist())):
                if key > reservoir[0][0]:
                    evicted = self._pop_reservoir_min()
                    self._push_position_candidate(
                        evicted.source, evicted.key, evicted.weight, evicted.positions
                    )
                    inserted.append(self._insert_annotated_positions((segment, index), key, weight))
                    self._replacements_total += 1
                else:
                    self._tiebreak += 1
                    heappush(candidates, (-key, self._tiebreak, weight, (segment, index), None))
            self._charge(inserted)
        return self._finish(batch.batch_id, totals_before)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def reservoir_size(self) -> int:
        """Number of annotated clusters currently in the reservoir."""
        return len(self._reservoir)

    @property
    def total_replacements(self) -> int:
        """Total reservoir replacements performed across all update batches."""
        return self._replacements_total
