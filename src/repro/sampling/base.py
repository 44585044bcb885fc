"""Common types shared by every sampling design.

Every design draws and estimates on the *position surface*
(:meth:`SamplingDesign.draw_positions` /
:meth:`SamplingDesign.update_all_positions`): one sampling round is one
:class:`PositionBatch`, flat triple positions with per-unit counts, cluster
rows and cluster sizes, and labels arrive as one boolean array, so a round
costs a few array operations and the evaluation loop never allocates a
:class:`~repro.kg.triple.Triple`.  Draws are fully deterministic under a
fixed seed on any storage backend.  This is the only surface: every
annotator labels a round through ``annotate_positions(graph, batch)``, and a
flow that shows a person the triples reads each unit's with
``graph.triples_at(positions)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.stats.ci import ConfidenceInterval, normal_critical_value, normal_interval

__all__ = [
    "PositionBatch",
    "Estimate",
    "SamplingDesign",
    "SizeWeightedSampler",
]


@dataclass(slots=True, eq=False)
class PositionBatch:
    """One sampling round as flat arrays: every drawn unit's triple positions.

    Unit ``i`` owns ``positions[starts[i] : starts[i] + counts[i]]``, so the
    whole round is one gather away from its labels and one segment sum away
    from its per-unit correct counts, with no per-unit Python object.
    Iterating a batch yields one ``(positions, entity_row, cluster_size)``
    view per unit, in draw order, for the flows that work unit by unit.

    Attributes
    ----------
    positions:
        Graph positions of every unit's triples, unit after unit.  A unit's
        positions are distinct; the same position may recur in another unit
        (a cluster drawn twice with replacement).
    counts:
        ``int64`` number of positions of each unit; every unit has at least one.
    entity_rows:
        ``int64`` row of each unit's cluster in ``graph.entity_ids`` order, or
        ``-1`` for a triple-level unit, which carries exactly one position.
    cluster_sizes:
        ``int64`` size ``M_i`` of each unit's cluster (1 for triple-level units).
    starts:
        ``int64`` offset of each unit's first position in :attr:`positions`;
        derived from :attr:`counts` when not given.
    """

    positions: np.ndarray
    counts: np.ndarray
    entity_rows: np.ndarray
    cluster_sizes: np.ndarray
    starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.starts is None:
            self.starts = self.counts.cumsum() - self.counts

    @classmethod
    def of_triples(cls, positions: np.ndarray) -> "PositionBatch":
        """A round of triple-level units, one per position, in the given order."""
        units = positions.shape[0]
        ones = np.ones(units, dtype=np.int64)
        return cls(positions, ones, np.full(units, -1, dtype=np.int64), ones, np.arange(units))

    def __len__(self) -> int:
        """Number of units in the round."""
        return self.counts.shape[0]

    def head(self, units: int) -> "PositionBatch":
        """The round's first ``units`` units, sharing this batch's arrays."""
        if units >= self.counts.shape[0]:
            return self
        return PositionBatch(
            self.positions[: self.starts[units]],
            self.counts[:units],
            self.entity_rows[:units],
            self.cluster_sizes[:units],
            self.starts[:units],
        )

    def __iter__(self) -> Iterator[tuple[np.ndarray, int, int]]:
        """Yield ``(positions, entity_row, cluster_size)`` per unit, in draw order."""
        positions = self.positions
        for start, count, row, size in zip(
            self.starts.tolist(),
            self.counts.tolist(),
            self.entity_rows.tolist(),
            self.cluster_sizes.tolist(),
        ):
            yield positions[start : start + count], row, size


class SizeWeightedSampler:
    """With-replacement draws of indices with probability proportional to size.

    The first stage of WCS, TWCS and stratified TWCS.  ``draw(rng, count)``
    returns the same ``int64`` indices as
    ``rng.choice(len(sizes), size=count, replace=True, p=sizes / sizes.sum())``
    and leaves ``rng`` in the same state: it runs the operations
    ``Generator.choice`` runs once ``p`` is validated, but builds the CDF once
    instead of re-checking and re-summing every weight on each call.  Sizes
    must be positive, as cluster sizes are.
    """

    __slots__ = ("cdf",)

    def __init__(self, sizes: np.ndarray) -> None:
        sizes = np.asarray(sizes, dtype=np.float64)
        cdf = (sizes / sizes.sum()).cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` indices, consuming ``count`` uniforms from ``rng``."""
        return self.cdf.searchsorted(rng.random(count), side="right")


@dataclass(frozen=True)
class Estimate:
    """A point estimate of KG accuracy with its sampling uncertainty.

    Attributes
    ----------
    value:
        The unbiased point estimate ``µ̂``.
    std_error:
        Estimated standard error of ``µ̂`` (``inf`` until enough units have
        been observed for a variance estimate).
    num_units:
        Number of sample units the estimate is based on (triples for SRS,
        cluster draws for cluster designs).
    num_triples:
        Total number of triples annotated to produce the estimate.
    """

    value: float
    std_error: float
    num_units: int
    num_triples: int

    def margin_of_error(self, confidence_level: float) -> float:
        """Margin of error at the given confidence level (Eq. 1).

        The half-width of :func:`~repro.stats.ci.normal_interval`'s ``[value
        - moe, value + moe]``, rounded as that interval rounds it, without
        building the interval; ``inf`` while the standard error is.  The same
        IEEE operations, in the same order, run on plain floats and
        elementwise on an estimate of per-round arrays (a folded stretch).
        """
        moe = normal_critical_value(confidence_level) * self.std_error
        return ((self.value + moe) - (self.value - moe)) / 2.0

    def confidence_interval(self, confidence_level: float) -> ConfidenceInterval:
        """Normal-approximation confidence interval, clipped to [0, 1]."""
        if math.isinf(self.std_error):
            return ConfidenceInterval(self.value, 0.0, 1.0, confidence_level)
        return normal_interval(self.value, self.std_error, confidence_level).clipped()

    def satisfies(self, moe_target: float, confidence_level: float) -> bool:
        """Whether the estimate meets the user-required MoE threshold (per round on arrays)."""
        return self.margin_of_error(confidence_level) <= moe_target


class SamplingDesign(ABC):
    """Abstract interface implemented by every sampling design.

    A design owns both the *sampling* state (what may still be drawn) and the
    *estimation* state (the accumulator over annotated units) so that the
    iterative framework can interleave drawing, annotation and estimation
    without re-reading earlier samples.  Every design samples
    :attr:`graph`.
    """

    #: Human-readable name of the sampling unit ("triple" or "cluster").
    unit_name: str = "unit"

    graph: KnowledgeGraph

    @abstractmethod
    def draw_positions(self, count: int) -> PositionBatch:
        """Draw up to ``count`` new units as one :class:`PositionBatch`.

        May return fewer units than requested when the population is exhausted
        (e.g. SRS without replacement on a small KG); returns an empty batch
        when nothing is left to draw.
        """

    @abstractmethod
    def update_all_positions(self, batch: PositionBatch, label_array: np.ndarray) -> None:
        """Fold a round of drawn units into the estimator.

        ``label_array`` is a position-aligned boolean array that
        ``batch.positions`` indexes (the oracle's array over the whole graph,
        see ``LabelOracle.position_labels``, or any vector the round was
        re-addressed onto).
        """

    @abstractmethod
    def estimate(self) -> Estimate:
        """Return the current estimate of KG accuracy."""

    @abstractmethod
    def reset(self) -> None:
        """Clear all sampling and estimation state (start a fresh run)."""

    @property
    def exhausted(self) -> bool:
        """Whether the design can no longer produce new sample units."""
        return False
