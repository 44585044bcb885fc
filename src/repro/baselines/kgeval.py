"""A reimplementation of the KGEval baseline (Ojha & Talukdar, EMNLP 2017).

KGEval estimates KG accuracy by annotating a small set of carefully chosen
triples and *inferring* labels for the rest through coupling constraints.  The
original system runs Probabilistic Soft Logic over mined constraints; this
reimplementation keeps the same control loop on a structural coupling graph
(:mod:`repro.baselines.coupling`):

1. **Select** the unlabelled triple whose annotation would propagate to the
   largest amount of still-unlabelled coupling weight (recomputed after every
   annotation — this per-selection machine cost is exactly the scalability
   problem Table 6 exposes).
2. **Annotate** the selected triple (paying the usual c1/c2 cost).
3. **Propagate**: coupled neighbours accumulate signed evidence; once a
   triple's absolute evidence crosses a threshold it receives an inferred
   label, which is itself propagated onward with decayed confidence.
4. Stop when the labelled (annotated + inferred) fraction of the KG reaches a
   coverage target or the annotation budget is exhausted; the accuracy
   estimate is the mean label over all labelled triples.

Unlike the sampling designs, the resulting estimate carries no unbiasedness or
confidence-interval guarantee — propagation mistakes translate directly into
estimation bias — which is the qualitative comparison point of Table 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.coupling import CouplingGraphBuilder
from repro.cost.annotator import SimulatedAnnotator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.sampling.base import PositionBatch

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["KGEvalResult", "KGEvalBaseline"]


@dataclass(frozen=True)
class KGEvalResult:
    """Outcome of a KGEval run (the quantities compared in Table 6)."""

    estimated_accuracy: float
    num_annotated: int
    num_inferred: int
    coverage: float
    machine_time_seconds: float
    annotation_cost_seconds: float

    @property
    def annotation_cost_hours(self) -> float:
        """Annotation cost in hours."""
        return self.annotation_cost_seconds / 3600.0


class KGEvalBaseline:
    """Coupling-constraint label propagation for KG accuracy estimation.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    annotator:
        Annotator used for the manually labelled seed triples.
    builder:
        Coupling-graph builder; a default structural builder is used when
        omitted.
    inference_threshold:
        Minimum absolute accumulated evidence before an unlabelled triple
        receives an inferred label.
    propagation_decay:
        Confidence multiplier applied when an *inferred* (rather than
        annotated) label propagates onward.
    coverage_target:
        Fraction of the KG that must be labelled (annotated or inferred)
        before the loop stops.
    max_annotations:
        Hard budget on manual annotations (``None`` = unbounded).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        annotator: SimulatedAnnotator,
        builder: CouplingGraphBuilder | None = None,
        inference_threshold: float = 0.45,
        propagation_decay: float = 0.5,
        coverage_target: float = 0.9,
        max_annotations: int | None = None,
    ) -> None:
        if not 0.0 < coverage_target <= 1.0:
            raise ValueError("coverage_target must be in (0, 1]")
        if inference_threshold <= 0:
            raise ValueError("inference_threshold must be positive")
        if not 0.0 < propagation_decay <= 1.0:
            raise ValueError("propagation_decay must be in (0, 1]")
        self.graph = graph
        self.annotator = annotator
        self.builder = builder if builder is not None else CouplingGraphBuilder(seed=0)
        self.inference_threshold = inference_threshold
        self.propagation_decay = propagation_decay
        self.coverage_target = coverage_target
        self.max_annotations = max_annotations
        self._coupling: nx.Graph | None = None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _coupling_graph(self) -> nx.Graph:
        if self._coupling is None:
            self._coupling = self.builder.build(self.graph)
        return self._coupling

    def _select_next(self, coupling: nx.Graph, labelled: dict[Triple, bool]) -> int | None:
        """Position of the unlabelled triple with the most unlabelled coupling weight.

        This full scan per selection mirrors KGEval's expensive inference-driven
        selection step; it is intentionally not incrementalised.
        """
        best_position: int | None = None
        best_benefit = -1.0
        # The cached view: the coupling graph's node objects, built once.
        for position, triple in enumerate(self.graph.triples):
            if triple in labelled:
                continue
            benefit = 0.0
            for neighbour, data in coupling[triple].items():
                if neighbour not in labelled:
                    benefit += float(data.get("weight", 1.0))
            if benefit > best_benefit:
                best_benefit = benefit
                best_position = position
        return best_position

    def _propagate(
        self,
        coupling: nx.Graph,
        source: Triple,
        label: bool,
        confidence: float,
        labelled: dict[Triple, bool],
        evidence: dict[Triple, float],
    ) -> None:
        """Push signed evidence from ``source`` and cascade newly inferred labels."""
        frontier = [(source, label, confidence)]
        while frontier:
            triple, triple_label, triple_confidence = frontier.pop()
            sign = 1.0 if triple_label else -1.0
            for neighbour, data in coupling[triple].items():
                if neighbour in labelled:
                    continue
                weight = float(data.get("weight", 1.0))
                contribution = sign * weight * triple_confidence
                evidence[neighbour] = evidence.get(neighbour, 0.0) + contribution
                if abs(evidence[neighbour]) >= self.inference_threshold:
                    inferred_label = evidence[neighbour] > 0
                    labelled[neighbour] = inferred_label
                    frontier.append(
                        (neighbour, inferred_label, triple_confidence * self.propagation_decay)
                    )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> KGEvalResult:
        """Execute the select → annotate → propagate loop and estimate accuracy."""
        machine_time = 0.0
        start = time.perf_counter()
        coupling = self._coupling_graph()
        machine_time += time.perf_counter() - start

        labelled: dict[Triple, bool] = {}
        annotated: set[Triple] = set()
        evidence: dict[Triple, float] = {}
        total = self.graph.num_triples
        cost_before = self.annotator.total_cost_seconds

        while True:
            coverage = len(labelled) / total if total else 1.0
            if coverage >= self.coverage_target:
                break
            if self.max_annotations is not None and len(annotated) >= self.max_annotations:
                break

            start = time.perf_counter()
            position = self._select_next(coupling, labelled)
            machine_time += time.perf_counter() - start
            if position is None:
                break

            batch = PositionBatch.of_triples(np.array([position], dtype=np.int64))
            label = bool(self.annotator.annotate_positions(self.graph, batch)[position])
            selected = self.graph.triples[position]
            labelled[selected] = label
            annotated.add(selected)

            start = time.perf_counter()
            self._propagate(coupling, selected, label, 1.0, labelled, evidence)
            machine_time += time.perf_counter() - start

        if labelled:
            estimated_accuracy = sum(1 for value in labelled.values() if value) / len(labelled)
        else:
            estimated_accuracy = 0.0
        return KGEvalResult(
            estimated_accuracy=estimated_accuracy,
            num_annotated=len(annotated),
            num_inferred=len(labelled) - len(annotated),
            coverage=len(labelled) / total if total else 1.0,
            machine_time_seconds=machine_time,
            annotation_cost_seconds=self.annotator.total_cost_seconds - cost_before,
        )
