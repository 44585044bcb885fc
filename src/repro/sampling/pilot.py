"""Pilot studies: turning a small annotated sample into design decisions.

The optimal-m objective (Eq. 12) and the stratified designs need information
that is unknown before any annotation happens: the distribution of cluster
accuracies and how spread out they are.  Section 7.2.2 of the paper gives the
practical guideline ("keep m small, roughly 3–5"); this module codifies the
fuller workflow a practitioner would use:

1. :func:`run_pilot` — spend a small, fixed annotation budget on a TWCS sample
   to observe per-cluster accuracies;
2. :func:`recommend_design` — plug the pilot observations into Eq. (12) to
   pick the second-stage size ``m`` and predict the cluster draws / cost the
   full evaluation will need.

The pilot's own annotations are not wasted: its positions are labelled in the
annotator's session, so a full evaluation of the same graph in that session
re-uses them for free when it happens to sample the same triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.kg.graph import KnowledgeGraph
from repro.sampling.optimal import OptimalSecondStage, optimal_second_stage_size
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["PilotResult", "run_pilot", "recommend_design"]


@dataclass(frozen=True)
class PilotResult:
    """Observations collected by a pilot annotation round.

    Attributes
    ----------
    cluster_sizes:
        Size ``M_i`` of each pilot-sampled cluster (with multiplicity — the
        first stage samples with replacement).
    cluster_accuracies:
        Observed within-cluster sample accuracy of each pilot-sampled cluster.
    accuracy_estimate:
        The pilot's own (coarse) estimate of overall KG accuracy.
    num_triples_annotated:
        Triples labelled during the pilot.
    cost_hours:
        Annotation cost of the pilot in hours.
    """

    cluster_sizes: tuple[int, ...]
    cluster_accuracies: tuple[float, ...]
    accuracy_estimate: float
    num_triples_annotated: int
    cost_hours: float

    @property
    def num_clusters(self) -> int:
        """Number of pilot cluster draws."""
        return len(self.cluster_sizes)

    @property
    def between_cluster_std(self) -> float:
        """Standard deviation of the observed cluster accuracies."""
        if len(self.cluster_accuracies) < 2:
            return 0.0
        return float(np.std(self.cluster_accuracies, ddof=1))


def run_pilot(
    graph: KnowledgeGraph,
    annotator: SimulatedAnnotator,
    num_clusters: int = 30,
    second_stage_size: int = 3,
    seed: int | np.random.Generator | None = None,
) -> PilotResult:
    """Annotate a small TWCS sample and summarise what it reveals.

    Parameters
    ----------
    graph:
        The knowledge graph under evaluation.
    annotator:
        The annotator to charge (its session keeps the pilot labels so the
        main evaluation can reuse them).
    num_clusters:
        Pilot budget in first-stage cluster draws.
    second_stage_size:
        Pilot cap on triples per cluster; small values keep the pilot cheap.
    seed:
        Seed or generator for the pilot draws.
    """
    if num_clusters < 2:
        raise ValueError("a pilot needs at least 2 cluster draws")
    design = TwoStageWeightedClusterDesign(graph, second_stage_size, seed=seed)
    cost_before = annotator.total_cost_seconds
    triples_before = annotator.total_triples_annotated
    batch = design.draw_positions(num_clusters)
    labels = annotator.annotate_positions(graph, batch)
    correct = np.add.reduceat(labels[batch.positions], batch.starts, dtype=np.int64)
    accuracies = (correct / batch.counts).tolist()
    return PilotResult(
        cluster_sizes=tuple(batch.cluster_sizes.tolist()),
        cluster_accuracies=tuple(accuracies),
        # Eq. (9): the mean of the within-cluster sample accuracies.
        accuracy_estimate=float(np.mean(accuracies)),
        num_triples_annotated=annotator.total_triples_annotated - triples_before,
        cost_hours=(annotator.total_cost_seconds - cost_before) / 3600.0,
    )


def recommend_design(
    pilot: PilotResult,
    cost_model: CostModel | None = None,
    moe_target: float = 0.05,
    confidence_level: float = 0.95,
    max_second_stage_size: int = 20,
) -> OptimalSecondStage:
    """Pick the second-stage size ``m`` for the full evaluation from pilot data.

    The pilot's observed (size, accuracy) pairs stand in for the population in
    the Eq. (12) search.  Because pilots are small, the recommendation is
    clamped towards the paper's practical guideline: the search space is
    limited to ``max_second_stage_size`` and degenerates gracefully to ``m=1``
    when every pilot cluster was a singleton.
    """
    if pilot.num_clusters < 2:
        raise ValueError("cannot recommend a design from fewer than 2 pilot clusters")
    return optimal_second_stage_size(
        pilot.cluster_sizes,
        pilot.cluster_accuracies,
        cost_model if cost_model is not None else CostModel(),
        moe_target=moe_target,
        confidence_level=confidence_level,
        max_second_stage_size=max_second_stage_size,
    )
