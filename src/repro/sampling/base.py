"""Common types shared by every sampling design.

Every design draws and estimates on the *position surface*
(:meth:`SamplingDesign.draw_positions` /
:meth:`SamplingDesign.update_all_positions`): units carry integer triple
positions only and labels arrive as boolean arrays, so the evaluation loop
never allocates a :class:`~repro.kg.triple.Triple`.  Draws are fully
deterministic under a fixed seed on any storage backend.

The *object surface* (:meth:`SamplingDesign.draw` /
:meth:`SamplingDesign.update`) is one adapter over it, shared by every
design, for flows that hand Triples to an annotator: it materialises each
drawn unit's triples and folds a Triple-keyed label mapping back in.  Both
surfaces consume the random stream identically.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.stats.ci import ConfidenceInterval, normal_interval

__all__ = ["SampleUnit", "PositionUnit", "Estimate", "SamplingDesign", "segment_label_sums"]


@dataclass(frozen=True)
class SampleUnit:
    """One draw made by a sampling design.

    For triple-level designs a unit is a single triple; for cluster designs it
    is the set of triples selected from one sampled entity cluster (all of them
    for RCS/WCS, at most ``m`` of them for TWCS).

    Attributes
    ----------
    triples:
        The triples that must be annotated for this unit.
    entity_id:
        Subject id of the sampled cluster, or ``None`` for triple-level units.
    cluster_size:
        Size ``M_i`` of the sampled cluster (1 for triple-level units).
    positions:
        Graph positions of :attr:`triples`, set by every design's
        :meth:`~SamplingDesign.draw`; excluded from equality.  Lets estimate
        code resolve labels through ``KnowledgeGraph.labels_for_positions``
        without hashing Triples.
    """

    triples: tuple[Triple, ...]
    entity_id: str | None = None
    cluster_size: int = 1
    positions: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def num_triples(self) -> int:
        """Number of triples that need annotation for this unit."""
        return len(self.triples)


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
    def update_positions(self, unit: PositionUnit, labels: np.ndarray) -> None:
        """Fold one position unit into the estimator.

        ``labels`` is a boolean array aligned with ``unit.positions``
        (typically ``label_array[unit.positions]``).
        """

    @abstractmethod
    def estimate(self) -> Estimate:
        """Return the current estimate of KG accuracy."""

    @abstractmethod
    def reset(self) -> None:
        """Clear all sampling and estimation state (start a fresh run)."""

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Update the estimator with several position units at once.

        ``label_array`` is a position-aligned boolean array over the whole
        graph (see ``LabelOracle.position_labels``).
        """
        for unit in units:
            self.update_positions(unit, label_array[unit.positions])

    # ------------------------------------------------------------------ #
    # Object surface: an adapter for flows that annotate Triples
    # ------------------------------------------------------------------ #
    def draw(self, count: int) -> list[SampleUnit]:
        """Draw up to ``count`` units carrying their materialised triples."""
        graph = self.graph
        return [
            SampleUnit(
                triples=tuple(graph.triples_at(unit.positions)),
                entity_id=None if unit.entity_row < 0 else graph.entity_id_of_row(unit.entity_row),
                cluster_size=unit.cluster_size,
                positions=unit.positions,
            )
            for unit in self.draw_positions(count)
        ]

    def update(self, unit: SampleUnit, labels: Mapping[Triple, bool]) -> None:
        """Fold the annotation results for one object unit into the estimator.

        A cluster unit is routed by the row of its ``entity_id``, so a unit
        rebuilt without positions is still accepted.
        """
        position_unit = PositionUnit(
            positions=np.asarray(() if unit.positions is None else unit.positions, dtype=np.int64),
            entity_row=-1 if unit.entity_id is None else self.graph.entity_row(unit.entity_id),
            cluster_size=unit.cluster_size,
        )
        values = np.fromiter(
            (labels[triple] for triple in unit.triples), dtype=bool, count=unit.num_triples
        )
        self.update_positions(position_unit, values)

    def update_all(self, units: list[SampleUnit], labels: Mapping[Triple, bool]) -> None:
        """Update the estimator with several object units at once."""
        for unit in units:
            self.update(unit, labels)

    @property
    def exhausted(self) -> bool:
        """Whether the design can no longer produce new sample units."""
        return False
