"""The paper's evolving-KG baseline: re-evaluate every snapshot from scratch.

After each update batch the evaluator runs a fresh static TWCS evaluation on
the full current graph ``G + Δ``, discarding all annotations collected for
earlier snapshots (each snapshot resets the annotator's session, so
previously identified entities and labelled triples are charged again).
This is the "Baseline" bar in Figure 8.
"""

from __future__ import annotations

from repro.evolving.base import IncrementalEvaluator, UpdateEvaluation
from repro.kg.updates import UpdateBatch
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["BaselineEvolvingEvaluator"]


class BaselineEvolvingEvaluator(IncrementalEvaluator):
    """Independent static TWCS evaluation of every snapshot."""

    def _evaluate_snapshot(self, batch_id: str) -> UpdateEvaluation:
        # The baseline deliberately does not reuse labels or entity
        # identifications from earlier snapshots: bank the cost charged so far
        # and start a fresh session for this snapshot.
        self._discarded_cost_seconds += self._annotator.total_cost_seconds
        self._annotator.reset()
        totals_before = self._cost_totals()
        design = TwoStageWeightedClusterDesign(
            self.evolving.current,
            second_stage_size=self.second_stage_size,
            seed=self.seed,
        )
        iterations = self._run_static(design)
        estimate = design.estimate()
        report = self._report(estimate, iterations, self.config.target_met(estimate), totals_before)
        return self._record(batch_id, report)

    def evaluate_base(self) -> UpdateEvaluation:
        """Run a static evaluation of the base graph."""
        return self._evaluate_snapshot("base")

    def apply_update(self, batch: UpdateBatch) -> UpdateEvaluation:
        """Apply the batch, then re-evaluate the whole graph from scratch."""
        self._append_update(batch)
        return self._evaluate_snapshot(batch.batch_id)
