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

The loop runs on the position surface: each round is one
:class:`~repro.sampling.base.PositionBatch` of integer triple positions, which
the annotator labels in one ``annotate_positions`` call while charging
Eq. (4), and the label array it returns is folded by position through
``update_all_positions``.  Every annotator takes this one path, whatever its
labels are: a :class:`~repro.cost.annotator.SimulatedAnnotator` reads them
from its oracle's array, a :class:`~repro.cost.pool.NoisyAnnotator` flips
some and an :class:`~repro.cost.pool.AnnotationTaskPool` votes.  A run builds
no Triple and a round costs a few array operations.

SRS and RCS read a cursor over an order fixed at their first draw, and when
the annotator's labels are its oracle's array (a ``SimulatedAnnotator`` that
keeps its ``annotate_positions``), the loop draws a *stretch* of rounds in one
call (as many as the current estimate says the target needs, under a fixed
ceiling) and the design folds it (``fold_rounds``): it computes the state
after every round of the stretch and runs the stop rule
(:meth:`~repro.core.config.EvaluationConfig.target_met`) once, over per-round
arrays, with the same operations a single round's check runs.  It keeps the
state of the first round that meets the rule, the rest of the stretch goes
back to the cursor, and the annotator is charged for the folded rounds only,
in one call.
The loop therefore still stops at the end of the first round that meets the
target and never annotates a unit past it: reports, costs, random streams
and design state are bit for bit those of one round per draw.  Every other
design draws with replacement or a fresh random call per round, and every
other annotator decides its labels as it annotates, so they keep one round
per draw in the same loop; :meth:`StaticEvaluator.step` is that one-round
case.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.core.config import EvaluationConfig
from repro.core.result import EvaluationReport
from repro.cost.annotator import SimulatedAnnotator
from repro.obs import metrics as obs_metrics
from repro.sampling.base import Estimate, SamplingDesign
from repro.stats.ci import required_sample_size

__all__ = ["StaticEvaluator", "evaluate_accuracy"]

#: Most units drawn ahead in one stretch: keeps its arrays small.
_STRETCH_UNITS = 1024


def _labels_from_oracle(annotator) -> bool:
    """Whether ``annotator``'s labels are its oracle's array, known before it annotates.

    Subclasses that only re-price cost components (lognormal noise, drift)
    keep ``SimulatedAnnotator.annotate_positions``; one that overrides it
    (``NoisyAnnotator`` flips labels) or a crew (``AnnotationTaskPool``)
    decides labels while annotating.
    """
    return type(annotator).annotate_positions is SimulatedAnnotator.annotate_positions


class StaticEvaluator:
    """Runs the iterative evaluation loop for one sampling design.

    Parameters
    ----------
    design:
        Any :class:`~repro.sampling.base.SamplingDesign`.
    annotator:
        The annotator charged with labelling sampled triples: a
        :class:`~repro.cost.annotator.SimulatedAnnotator`, one of its
        subclasses, an :class:`~repro.cost.pool.AnnotationTaskPool`, or any
        object with ``annotate_positions(graph, batch)`` (returning a label
        array by position), ``reset()`` and the three session totals
        ``total_cost_seconds``, ``total_triples_annotated`` and
        ``entities_identified``.
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
        return self._advance(batch_size, 1)[0]

    def _advance(
        self, round_size: int, rounds: int, stop: Callable[[Estimate], bool] | None = None
    ) -> tuple[int, int]:
        """Draw up to ``rounds`` rounds in one call, fold and charge them.

        A design that draws from an order fixed at its first draw (SRS, RCS)
        folds the stretch through ``fold_rounds`` when the annotator labels
        from its oracle: ``stop`` runs once, over every round's estimate as
        arrays, the design keeps the state of the first round where it holds
        and gives the rest back to its cursor, and the annotator is charged
        for the folded units only.  Every other design,
        or annotator, gets one round per call.  Returns the units and rounds
        folded; ``(0, 0)`` means the population is exhausted.
        """
        design, annotator = self.design, self.annotator
        stretches = hasattr(design, "fold_rounds") and _labels_from_oracle(annotator)
        batch = design.draw_positions(round_size * (rounds if stretches else 1))
        units = len(batch)
        if not units:
            return 0, 0
        if stretches:
            graph = design.graph
            labels = annotator.oracle.position_labels(graph)
            units = design.fold_rounds(batch, labels, round_size, stop)
            annotator.annotate_positions(graph, batch.head(units))
        else:
            design.update_all_positions(batch, annotator.annotate_positions(design.graph, batch))
        rounds = -(-units // round_size)
        self._rounds_total.inc(rounds)
        self._units_total.inc(units)
        return units, rounds

    def _stretch_rounds(self, estimate: Estimate) -> int:
        """Rounds to draw at once: enough to reach the sample size ``estimate`` asks for.

        That is ``min_units`` until the estimate has a standard error, then
        the size at which its variance would meet the MoE target, at most
        :data:`_STRETCH_UNITS` units.  It changes only how much is drawn
        ahead, never where the loop stops.
        """
        config = self.config
        units = estimate.num_units
        target = config.min_units
        if units and math.isfinite(estimate.std_error):
            variance = estimate.std_error * estimate.std_error * units
            target = max(
                target,
                required_sample_size(variance, config.moe_target, config.confidence_level),
            )
        rounds = -(-(target - units) // config.batch_size)
        return max(1, min(rounds, _STRETCH_UNITS // config.batch_size))

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
        while True:
            estimate = self.design.estimate()
            if config.target_met(estimate):
                satisfied = True
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                satisfied = False
                break
            rounds = self._stretch_rounds(estimate)
            if config.max_units is not None:
                # No round of the stretch may start at or past the budget.
                budget = config.max_units - estimate.num_units
                rounds = min(rounds, -(-budget // config.batch_size))
            units, rounds = self._advance(config.batch_size, rounds, config.target_met)
            if not units:
                # Population exhausted (e.g. SRS drew every triple): the
                # estimate is now a census and cannot be improved further.
                satisfied = estimate.satisfies(config.moe_target, config.confidence_level)
                break
            iterations += rounds

        return EvaluationReport(
            estimate=estimate,
            confidence_level=config.confidence_level,
            moe_target=config.moe_target,
            satisfied=satisfied,
            iterations=iterations,
            num_units=estimate.num_units,
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
