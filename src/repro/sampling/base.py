"""Common types shared by every sampling design.

Every design draws and estimates on the *position surface*
(:meth:`SamplingDesign.draw_positions` /
:meth:`SamplingDesign.update_all_positions`): units carry integer triple
positions only and labels arrive as boolean arrays, so the evaluation loop
never allocates a :class:`~repro.kg.triple.Triple`.  Draws are fully
deterministic under a fixed seed on any storage backend.  This is the only
surface: a flow that labels Triples (a human-style annotator) reads them with
``graph.triples_at(unit.positions)`` and folds its labels back through the
same :meth:`SamplingDesign.update_all_positions`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.stats.ci import ConfidenceInterval, normal_interval

__all__ = [
    "PositionUnit",
    "Estimate",
    "SamplingDesign",
    "SizeWeightedSampler",
    "segment_label_sums",
]


@dataclass(slots=True)
class PositionUnit:
    """One draw expressed purely as triple positions (no Triple objects).

    Attributes
    ----------
    positions:
        Graph positions of the triples selected for this unit — often a
        zero-copy view into the backend's CSR index.
    entity_row:
        Row of the sampled cluster in ``graph.entity_ids`` order, or ``-1``
        for triple-level units.
    cluster_size:
        Size ``M_i`` of the sampled cluster (1 for triple-level units).
    """

    positions: np.ndarray
    entity_row: int = -1
    cluster_size: int = 1

    @property
    def num_triples(self) -> int:
        """Number of triples selected for this unit."""
        return int(self.positions.shape[0])


def segment_label_sums(
    units: list[PositionUnit], label_array: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit sizes and correct-label sums for a batch of position units.

    One flat gather over ``label_array`` plus a cumulative-sum segment
    reduction instead of one fancy-index + reduction per unit; the backbone
    of the designs' vectorised ``update_all_positions`` overrides.  Returns
    ``(counts, sums)`` as ``int64`` / ``float64`` arrays aligned with
    ``units``; a zero-length unit contributes a sum of 0.
    """
    if not units:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    counts = np.fromiter(
        (unit.positions.shape[0] for unit in units), dtype=np.int64, count=len(units)
    )
    flat = np.concatenate([unit.positions for unit in units])
    correct = label_array[flat].astype(np.float64)
    # Segment sums via prefix-sum differences (unlike np.add.reduceat, this
    # stays correct when a segment is empty or ends the batch).
    prefix = np.concatenate(([0.0], np.cumsum(correct)))
    ends = np.cumsum(counts)
    return counts, prefix[ends] - prefix[ends - counts]


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
        """Margin of error at the given confidence level (Eq. 1)."""
        if math.isinf(self.std_error):
            return math.inf
        return normal_interval(self.value, self.std_error, confidence_level).margin_of_error

    def confidence_interval(self, confidence_level: float) -> ConfidenceInterval:
        """Normal-approximation confidence interval, clipped to [0, 1]."""
        if math.isinf(self.std_error):
            return ConfidenceInterval(self.value, 0.0, 1.0, confidence_level)
        return normal_interval(self.value, self.std_error, confidence_level).clipped()

    def satisfies(self, moe_target: float, confidence_level: float) -> bool:
        """Whether the estimate meets the user-required MoE threshold."""
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
    def draw_positions(self, count: int) -> list[PositionUnit]:
        """Draw up to ``count`` new units as position-only views.

        May return fewer units than requested when the population is exhausted
        (e.g. SRS without replacement on a small KG); returns an empty list
        when nothing is left to draw.
        """

    @abstractmethod
    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Fold a batch of drawn units into the estimator.

        ``label_array`` is a position-aligned boolean array that every
        ``unit.positions`` indexes (the oracle's array over the whole graph,
        see ``LabelOracle.position_labels``, or any vector the units were
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
