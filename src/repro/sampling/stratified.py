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
from repro.sampling.base import (
    Estimate,
    PositionUnit,
    SamplingDesign,
    SizeWeightedSampler,
    segment_label_sums,
)
from repro.sampling.stratification import Stratum
from repro.stats.allocation import neyman_allocation, proportional_allocation
from repro.stats.running import RunningMean

__all__ = ["StratifiedTWCSDesign"]


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
        least two annotated cluster draws).

    Notes
    -----
    Whatever the allocation rule, every stratum is guaranteed at least one
    draw over time so its variance eventually becomes estimable.
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
        # Parent-graph rows/sizes per stratum, built lazily.
        self._rows_cache: list[np.ndarray] | None = None
        self._first_stages: list[SizeWeightedSampler] | None = None
        self._row_stratum_cache: np.ndarray | None = None
        self._sizes_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Lazy per-stratum rows
    # ------------------------------------------------------------------ #
    def _ensure_position_state(self) -> None:
        if self._rows_cache is not None:
            return
        graph = self.graph
        self._sizes_cache = graph.cluster_size_array()
        self._row_stratum_cache = np.full(graph.num_entities, -1, dtype=np.int64)
        row_of = {entity_id: row for row, entity_id in enumerate(graph.entity_ids)}
        rows_per_stratum: list[np.ndarray] = []
        first_stages: list[SizeWeightedSampler] = []
        for index, stratum in enumerate(self._strata):
            rows = np.fromiter(
                (row_of[entity_id] for entity_id in stratum.entity_ids),
                dtype=np.int64,
                count=stratum.num_entities,
            )
            self._row_stratum_cache[rows] = index
            rows_per_stratum.append(rows)
            first_stages.append(SizeWeightedSampler(self._sizes_cache[rows]))
        self._rows_cache = rows_per_stratum
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

    def _allocate(self, count: int) -> list[int]:
        """Split a batch of ``count`` draws across strata per the allocation rule."""
        if self.allocation == "neyman":
            stds = []
            for index in range(len(self._strata)):
                estimate = self._stratum_estimate(index)
                if estimate.num_units >= 2 and not math.isinf(estimate.std_error):
                    # Recover the stratum's cluster-accuracy standard deviation
                    # from its standard error of the mean.
                    stds.append(estimate.std_error * math.sqrt(estimate.num_units))
                else:
                    stds.append(-1.0)
            if all(std >= 0 for std in stds):
                return neyman_allocation(self._weights, stds, count)
        return proportional_allocation(self._weights, count)

    # ------------------------------------------------------------------ #
    # Draw and update
    # ------------------------------------------------------------------ #
    def draw_positions(self, count: int) -> list[PositionUnit]:
        """Draw ``count`` cluster units, allocated across strata per the allocation rule."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._ensure_position_state()
        assert self._rows_cache is not None and self._first_stages is not None
        assert self._sizes_cache is not None
        allocation = self._allocate(count)
        units: list[PositionUnit] = []
        for stratum_index, stratum_count in enumerate(allocation):
            if stratum_count == 0:
                continue
            chosen = self._first_stages[stratum_index].draw(self._rng, stratum_count)
            rows = self._rows_cache[stratum_index][chosen]
            batches = self.graph.sample_cluster_positions_batch(
                rows, self.second_stage_size, self._rng
            )
            units.extend(
                PositionUnit(
                    positions=positions,
                    entity_row=int(row),
                    cluster_size=int(self._sizes_cache[row]),
                )
                for row, positions in zip(rows, batches)
            )
        return units

    def _stratum_of(self, unit: PositionUnit) -> int:
        if unit.entity_row < 0:
            raise ValueError("stratified design received a unit without a cluster row")
        self._ensure_position_state()
        assert self._row_stratum_cache is not None
        stratum_index = int(self._row_stratum_cache[unit.entity_row])
        if stratum_index < 0:
            raise KeyError(f"cluster row {unit.entity_row} does not belong to any stratum")
        return stratum_index

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Vectorised batch update: one gather + segment reduction per stratum."""
        if not units:
            return
        grouped: dict[int, list[PositionUnit]] = {}
        for unit in units:
            grouped.setdefault(self._stratum_of(unit), []).append(unit)
        for stratum_index, stratum_units in grouped.items():
            counts, sums = segment_label_sums(stratum_units, label_array)
            self._means[stratum_index].add_many(sums / counts)
            self._triples[stratum_index] += int(counts.sum())

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
