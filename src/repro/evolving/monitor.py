"""Continuous accuracy monitoring over a sequence of update batches.

Section 7.3.2 of the paper monitors the overall accuracy of an evolving KG as
30 update batches arrive, comparing how the reservoir-based and stratified
incremental evaluators track the (changing) ground truth and how they recover
from a deliberately bad initial estimate.  :class:`EvolvingAccuracyMonitor`
drives any :class:`~repro.evolving.base.IncrementalEvaluator` over such a
sequence and records the trajectory.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.evolving.base import IncrementalEvaluator
from repro.kg.updates import UpdateBatch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger

__all__ = ["MonitorRecord", "EvolvingAccuracyMonitor"]

_log = get_logger("evolving.monitor")


@dataclass(frozen=True)
class MonitorRecord:
    """One point of the monitored accuracy trajectory."""

    batch_index: int
    batch_id: str
    estimated_accuracy: float
    margin_of_error: float
    true_accuracy: float
    incremental_cost_hours: float
    cumulative_cost_hours: float

    @property
    def estimation_error(self) -> float:
        """Absolute difference between estimate and ground truth."""
        return abs(self.estimated_accuracy - self.true_accuracy)


class EvolvingAccuracyMonitor:
    """Runs an incremental evaluator over a stream of update batches.

    Parameters
    ----------
    evaluator:
        Any incremental evaluator (baseline, reservoir or stratified).  The
        monitor calls ``evaluate_base()`` lazily on the first use if the
        caller has not already done so.
    """

    def __init__(self, evaluator: IncrementalEvaluator) -> None:
        self.evaluator = evaluator
        self.records: list[MonitorRecord] = []

    def evaluate_base(self) -> MonitorRecord:
        """Evaluate the base graph and record the starting point."""
        evaluation = self.evaluator.evaluate_base()
        record = MonitorRecord(
            batch_index=0,
            batch_id="base",
            estimated_accuracy=evaluation.accuracy,
            margin_of_error=evaluation.report.margin_of_error,
            true_accuracy=self.evaluator.current_true_accuracy(),
            incremental_cost_hours=evaluation.incremental_cost_hours,
            cumulative_cost_hours=evaluation.cumulative_cost_hours,
        )
        self.records.append(record)
        return record

    def apply_update(self, batch: UpdateBatch) -> MonitorRecord:
        """Apply one update batch, re-evaluate and record the new point."""
        if not self.records:
            self.evaluate_base()
        started = time.perf_counter()
        with obs_trace.span("evolving.apply_update", batch=batch.batch_id):
            evaluation = self.evaluator.apply_update(batch)
        elapsed = time.perf_counter() - started
        obs_metrics.histogram("evolving_batch_update_seconds").observe(elapsed)
        _log.debug(
            "batch_applied",
            batch=batch.batch_id,
            elapsed=round(elapsed, 6),
            accuracy=evaluation.accuracy,
            cost_hours=evaluation.incremental_cost_hours,
        )
        record = MonitorRecord(
            batch_index=len(self.records),
            batch_id=batch.batch_id,
            estimated_accuracy=evaluation.accuracy,
            margin_of_error=evaluation.report.margin_of_error,
            true_accuracy=self.evaluator.current_true_accuracy(),
            incremental_cost_hours=evaluation.incremental_cost_hours,
            cumulative_cost_hours=evaluation.cumulative_cost_hours,
        )
        self.records.append(record)
        return record

    def run(self, batches: Iterable[UpdateBatch]) -> list[MonitorRecord]:
        """Process a whole stream of labelled batches and return the trajectory."""
        if not self.records:
            self.evaluate_base()
        for batch in batches:
            self.apply_update(batch)
        return list(self.records)

    @property
    def total_cost_hours(self) -> float:
        """Total annotation hours spent across the whole monitored sequence."""
        return self.evaluator.total_cost_hours
