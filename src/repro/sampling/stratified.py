"""Stratified two-stage weighted cluster sampling (Section 5.3).

Entity clusters are partitioned into strata (by size, by oracle accuracy, or
by any user-provided signal); TWCS runs independently inside each stratum and
the stratum estimates are combined with the usual stratified estimator:

    µ̂_ss = Σ_h W_h µ̂_{w,m,h}                                 (Eq. 13)
    Var(µ̂_ss) = Σ_h W_h² Var(µ̂_{w,m,h})

When strata are internally homogeneous (clusters of similar accuracy grouped
together) the combined variance is smaller than un-stratified TWCS at the same
sample size, which is what buys the additional cost reduction in Table 7.

The design never materialises sub-graphs: each stratum keeps an array of
parent-graph cluster rows, first-stage draws are allocated over the strata
(proportionally to the stratum position/triple counts, or by Neyman
allocation over the observed stratum spreads) and sampled straight from the
parent graph's CSR index — each stratum's first stage is a
:class:`~repro.sampling.base.SizeWeightedSampler` over its rows' sizes, equal
in rows and generator state to ``rng.choice`` with size-proportional ``p`` —
so a snapshot-loaded columnar graph is stratified and sampled without a
single Triple allocation.  Every unit is routed to its stratum by its cluster
row, since the strata partition the rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate, PositionBatch, SamplingDesign, SizeWeightedSampler
from repro.sampling.stratification import Stratum
from repro.stats.allocation import deficit_allocation, proportional_allocation
from repro.stats.running import RunningMean

__all__ = ["StratifiedTWCSDesign"]

#: Row -> stratum entry read by a unit without a cluster row (row ``-1``).
_NO_ROW = -2


class StratifiedTWCSDesign(SamplingDesign):
    """TWCS within strata, combined with the stratified estimator Eq. (13).

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    strata:
        A partition of the graph's entity clusters (see
        :mod:`repro.sampling.stratification`).  Strata with no entities are
        ignored.
    second_stage_size:
        The TWCS cap ``m`` used inside every stratum.
    seed:
        Seed or generator for reproducible draws.
    allocation:
        How each requested batch is split across strata: ``"proportional"``
        (the default — draws proportional to the stratum weights ``W_h``, the
        allocation the paper uses for its iterative stratified evaluation) or
        ``"neyman"`` (draws proportional to ``W_h · S_h`` where ``S_h`` is the
        stratum's currently observed standard deviation of cluster accuracies;
        it falls back to proportional allocation until every stratum has at
        least two annotated cluster draws and while any stratum's observed
        spread is zero).

    Notes
    -----
    Whatever the allocation rule, every stratum is guaranteed at least one
    draw over time so its variance eventually becomes estimable: a round
    with a draw per stratum gives each stratum at least one, and a smaller
    round gives its draws to the strata furthest below their share.
    """

    unit_name = "cluster"

    def __init__(
        self,
        graph: KnowledgeGraph,
        strata: Sequence[Stratum],
        second_stage_size: int = 5,
        seed: int | np.random.Generator | None = None,
        allocation: str = "proportional",
    ) -> None:
        if allocation not in ("proportional", "neyman"):
            raise ValueError(f"allocation must be 'proportional' or 'neyman', got {allocation!r}")
        populated = [stratum for stratum in strata if stratum.num_entities > 0]
        if not populated:
            raise ValueError("at least one non-empty stratum is required")
        self.graph = graph
        self.second_stage_size = second_stage_size
        self.allocation = allocation
        self._rng = np.random.default_rng(seed)
        self._strata = populated
        self._weights = [stratum.weight for stratum in populated]
        total_weight = sum(self._weights)
        if not math.isclose(total_weight, 1.0, rel_tol=1e-6):
            # Re-normalise: strata may describe a subset of the graph (e.g. the
            # update stratum of an evolving evaluation).
            self._weights = [weight / total_weight for weight in self._weights]
        # Per-stratum estimator state.
        self._means = [RunningMean() for _ in populated]
        self._triples = [0] * len(populated)
        # Proportional split of each round size seen: it depends on nothing else.
        self._splits: dict[int, list[int]] = {}
        # Per-stratum first stages and the row -> stratum map, built lazily.
        self._first_stages: list[SizeWeightedSampler] | None = None
        self._row_stratum_cache: np.ndarray | None = None
        self._sizes_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Lazy per-stratum state
    # ------------------------------------------------------------------ #
    def _ensure_position_state(self) -> None:
        if self._first_stages is not None:
            return
        graph = self.graph
        self._sizes_cache = graph.cluster_size_array()
        # One slot past the last row: a unit without a cluster row (``-1``)
        # reads it and is refused with its own error.
        row_stratum = np.full(graph.num_entities + 1, -1, dtype=np.int64)
        row_stratum[-1] = _NO_ROW
        first_stages: list[SizeWeightedSampler] = []
        for index, stratum in enumerate(self._strata):
            row_stratum[stratum.rows] = index
            first_stages.append(SizeWeightedSampler(self._sizes_cache[stratum.rows]))
        self._row_stratum_cache = row_stratum
        self._first_stages = first_stages

    # ------------------------------------------------------------------ #
    # SamplingDesign interface
    # ------------------------------------------------------------------ #
    @property
    def strata(self) -> Sequence[Stratum]:
        """The non-empty strata this design samples from."""
        return tuple(self._strata)

    def reset(self) -> None:
        """Clear the per-stratum estimators."""
        self._means = [RunningMean() for _ in self._strata]
        self._triples = [0] * len(self._strata)

    def _stratum_estimate(self, index: int) -> Estimate:
        mean = self._means[index]
        return Estimate(
            value=mean.mean,
            std_error=mean.std_error,
            num_units=mean.count,
            num_triples=self._triples[index],
        )

    def _shares(self) -> list[float]:
        """Each stratum's share of the draws under the allocation rule.

        The weights ``W_h``; under Neyman allocation ``W_h · S_h`` instead,
        where ``S_h`` is the stratum's observed standard deviation of cluster
        accuracies, once every stratum has one and none of them is zero.  A
        share of ``W_h · 0`` would never draw that stratum again, so its
        spread, observed on a few units, could never move.
        """
        if self.allocation == "neyman":
            products = []
            for weight, mean in zip(self._weights, self._means):
                std_error = mean.std_error
                if math.isinf(std_error):
                    return self._weights
                # Recover the spread from the standard error of the mean.
                products.append(weight * (std_error * math.sqrt(mean.count)))
            if all(products):
                return products
        return self._weights

    def _allocate(self, count: int) -> list[int]:
        """Split a batch of ``count`` draws across strata per the allocation rule.

        A round with at least one draw per stratum is split in proportion to
        the shares, at least one draw each (a proportional split depends on
        the round size alone, so it is computed once per size).  A smaller
        round gives its draws to the strata whose folded units so far fall
        furthest below their share, so no stratum is starved.
        """
        shares = self._shares()
        if count < len(shares):
            return deficit_allocation(shares, [mean.count for mean in self._means], count)
        if shares is not self._weights:
            return proportional_allocation(shares, count)
        split = self._splits.get(count)
        if split is None:
            split = self._splits[count] = proportional_allocation(shares, count)
        return split

    # ------------------------------------------------------------------ #
    # Draw and update
    # ------------------------------------------------------------------ #
    def draw_positions(self, count: int) -> PositionBatch:
        """Draw ``count`` cluster units, allocated across strata per the allocation rule.

        Strata are drawn in order, each first stage followed by its second
        stage, and the round lists their units stratum after stratum.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._ensure_position_state()
        assert self._first_stages is not None and self._sizes_cache is not None
        allocation = self._allocate(count)
        empty = np.empty(0, dtype=np.int64)
        rows_parts, position_parts, count_parts = [empty], [empty], [empty]
        for stratum_index, stratum_count in enumerate(allocation):
            if stratum_count == 0:
                continue
            chosen = self._first_stages[stratum_index].draw(self._rng, stratum_count)
            rows = self._strata[stratum_index].rows[chosen]
            positions, counts, _ = self.graph.sample_cluster_positions_batch(
                rows, self.second_stage_size, self._rng
            )
            rows_parts.append(rows)
            position_parts.append(positions)
            count_parts.append(counts)
        rows = np.concatenate(rows_parts)
        return PositionBatch(
            np.concatenate(position_parts),
            np.concatenate(count_parts),
            rows,
            self._sizes_cache[rows],
        )

    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round: one gather and one segment sum, then one fold per stratum."""
        if not len(batch):
            return
        self._ensure_position_state()
        assert self._row_stratum_cache is not None
        strata = self._row_stratum_cache[batch.entity_rows]
        refused = np.flatnonzero(strata < 0)
        if refused.size:
            unit = int(refused[0])
            if strata[unit] == _NO_ROW:
                raise ValueError("stratified design received a unit without a cluster row")
            row = int(batch.entity_rows[unit])
            raise KeyError(f"cluster row {row} does not belong to any stratum")
        sums = np.add.reduceat(label_array[batch.positions], batch.starts)
        accuracies = sums / batch.counts
        for stratum_index, mean in enumerate(self._means):
            members = strata == stratum_index
            if not np.count_nonzero(members):
                continue
            # Each stratum folds its units in draw order.
            mean.add_many(accuracies[members])
            self._triples[stratum_index] += int(batch.counts[members].sum())

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate(self) -> Estimate:
        """Eq. (13): weighted combination of the per-stratum TWCS estimates."""
        value = 0.0
        variance = 0.0
        num_units = 0
        num_triples = 0
        undetermined = False
        for index, weight in enumerate(self._weights):
            stratum_estimate = self._stratum_estimate(index)
            num_units += stratum_estimate.num_units
            num_triples += stratum_estimate.num_triples
            value += weight * stratum_estimate.value
            if math.isinf(stratum_estimate.std_error):
                undetermined = True
            else:
                variance += weight * weight * stratum_estimate.std_error**2
        std_error = math.inf if undetermined else math.sqrt(variance)
        return Estimate(
            value=value,
            std_error=std_error,
            num_units=num_units,
            num_triples=num_triples,
        )

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by reports and tests)
    # ------------------------------------------------------------------ #
    def stratum_estimates(self) -> list[tuple[Stratum, Estimate]]:
        """Return the current per-stratum estimates."""
        return [
            (stratum, self._stratum_estimate(index))
            for index, stratum in enumerate(self._strata)
        ]
