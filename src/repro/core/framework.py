"""The iterative static-evaluation loop (Figure 2 of the paper).

``StaticEvaluator`` repeats four steps until the quality requirement is met:

1. **Sample Collector** — ask the sampling design for a small batch of units;
2. **Sample Pool** — send the units to the annotator for labels;
3. **Estimation** — fold the labels into the design's estimator;
4. **Quality Control** — stop as soon as the margin of error is no larger
   than the user threshold (and the CLT minimum sample size is reached).

The evaluator never over-samples: it stops at the end of the first batch whose
estimate satisfies the requirement, which is the "avoid oversampling and
unnecessary manual evaluations" property claimed in Section 4.

The loop runs on the position surface: units are integer triple positions,
and a :class:`~repro.cost.annotator.SimulatedAnnotator` labels them from its
oracle's position array while charging Eq. (4), so a run builds no Triple.
Annotators whose labels are not the oracle's (label flips, majority votes,
or any object with only ``annotate_triples``) get each unit's Triples.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.result import EvaluationReport
from repro.cost.annotator import SimulatedAnnotator
from repro.obs import metrics as obs_metrics
from repro.sampling.base import SamplingDesign

__all__ = ["StaticEvaluator", "evaluate_accuracy"]


def _labels_from_oracle(annotator) -> bool:
    """Whether ``annotator`` labels exactly as its oracle does.

    Subclasses that only re-price cost components (lognormal noise, drift)
    keep ``SimulatedAnnotator.annotate_triples``; one that overrides it
    (``NoisyAnnotator`` flips labels) must see the Triples.
    """
    return (
        isinstance(annotator, SimulatedAnnotator)
        and type(annotator).annotate_triples is SimulatedAnnotator.annotate_triples
    )


class StaticEvaluator:
    """Runs the iterative evaluation loop for one sampling design.

    Parameters
    ----------
    design:
        Any :class:`~repro.sampling.base.SamplingDesign`.
    annotator:
        The annotator charged with labelling sampled triples (normally a
        :class:`~repro.cost.annotator.SimulatedAnnotator`; any object with the
        same ``annotate_triples`` / cost-accounting interface works).
    config:
        Quality/budget requirements; defaults to the paper's standard task
        (5 % MoE at 95 % confidence).
    """

    def __init__(
        self,
        design: SamplingDesign,
        annotator: SimulatedAnnotator,
        config: EvaluationConfig | None = None,
    ) -> None:
        self.design = design
        self.annotator = annotator
        self.config = config if config is not None else EvaluationConfig()
        self._rounds_total = obs_metrics.counter("sampling_rounds_total")
        self._units_total = obs_metrics.counter("sampling_units_total")

    def step(self, batch_size: int) -> int:
        """One round: draw ``batch_size`` units, annotate them, update the design.

        Returns the number of units drawn; ``0`` means the population is
        exhausted and nothing was annotated.
        """
        units = self.design.draw_positions(batch_size)
        if units:
            self._rounds_total.inc()
            self._units_total.inc(len(units))
            self._annotate(units)
        return len(units)

    def _annotate(self, units) -> None:
        """Label one batch of position units and fold it into the design."""
        design, annotator = self.design, self.annotator
        graph = design.graph
        if _labels_from_oracle(annotator):
            design.update_all_positions(units, annotator.annotate_positions(graph, units))
            return
        for unit in units:
            triples = graph.triples_at(unit.positions)
            labels = annotator.annotate_triples(triples).labels
            design.update_positions(
                unit, np.fromiter((labels[t] for t in triples), dtype=bool, count=len(triples))
            )

    def run(self, reset: bool = True) -> EvaluationReport:
        """Execute the loop until the MoE target is met or samples run out.

        Parameters
        ----------
        reset:
            When ``True`` (default) the design's estimator and the annotator's
            session are cleared first.  Incremental evaluators pass ``False``
            to continue on top of previously annotated samples.
        """
        config = self.config
        if reset:
            self.design.reset()
            self.annotator.reset()

        cost_before = self.annotator.total_cost_seconds
        triples_before = self.annotator.total_triples_annotated
        entities_before = self.annotator.entities_identified

        iterations = 0
        satisfied = False
        while True:
            estimate = self.design.estimate()
            enough_units = estimate.num_units >= config.min_units
            if enough_units and estimate.satisfies(config.moe_target, config.confidence_level):
                satisfied = True
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                break

            if not self.step(config.batch_size):
                # Population exhausted (e.g. SRS drew every triple): the
                # estimate is now a census and cannot be improved further.
                satisfied = estimate.satisfies(config.moe_target, config.confidence_level)
                break
            iterations += 1

        final_estimate = self.design.estimate()
        if not satisfied:
            satisfied = final_estimate.num_units >= config.min_units and final_estimate.satisfies(
                config.moe_target, config.confidence_level
            )
        return EvaluationReport(
            estimate=final_estimate,
            confidence_level=config.confidence_level,
            moe_target=config.moe_target,
            satisfied=satisfied,
            iterations=iterations,
            num_units=final_estimate.num_units,
            num_triples_annotated=self.annotator.total_triples_annotated - triples_before,
            num_entities_identified=self.annotator.entities_identified - entities_before,
            annotation_cost_seconds=self.annotator.total_cost_seconds - cost_before,
        )


def evaluate_accuracy(
    design: SamplingDesign,
    annotator: SimulatedAnnotator,
    moe_target: float = 0.05,
    confidence_level: float = 0.95,
    batch_size: int = 10,
    min_units: int = 30,
    max_units: int | None = None,
) -> EvaluationReport:
    """One-call convenience wrapper around :class:`StaticEvaluator`.

    Examples
    --------
    >>> from repro.generators import make_nell_like
    >>> from repro.sampling import TwoStageWeightedClusterDesign
    >>> from repro.cost import SimulatedAnnotator
    >>> data = make_nell_like(seed=0)
    >>> design = TwoStageWeightedClusterDesign(data.graph, second_stage_size=5, seed=0)
    >>> annotator = SimulatedAnnotator(data.oracle)
    >>> report = evaluate_accuracy(design, annotator, moe_target=0.05)
    >>> abs(report.accuracy - data.true_accuracy) < 0.1
    True
    """
    config = EvaluationConfig(
        moe_target=moe_target,
        confidence_level=confidence_level,
        batch_size=batch_size,
        min_units=min_units,
        max_units=max_units,
    )
    return StaticEvaluator(design, annotator, config).run()
