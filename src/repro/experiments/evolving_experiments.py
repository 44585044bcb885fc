"""Evolving-KG experiments: Figure 8 (single update batch) and Figure 9 (sequence).

The setup mirrors Section 7.3: the base KG is a 50 % random subset of a
MOVIE-like graph relabelled with the Random Error Model at 90 % accuracy;
update batches mix brand-new entities with enrichment of existing entities at
a controlled size and accuracy.  Three evaluators are compared: the Baseline
(fresh static TWCS per snapshot), RS (reservoir incremental evaluation,
Algorithm 1) and SS (stratified incremental evaluation, Algorithm 2).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.config import EvaluationConfig
from repro.evolving.base import IncrementalEvaluator
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.monitor import EvolvingAccuracyMonitor
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.experiments.harness import run_trials
from repro.generators.datasets import LabelledKG, make_movie_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.labels.random_error import RandomErrorModel

__all__ = ["figure8_single_update", "figure9_update_sequence", "SequenceTrajectory"]

_EVALUATORS: dict[str, type[IncrementalEvaluator]] = {
    "Baseline": BaselineEvolvingEvaluator,
    "RS": ReservoirIncrementalEvaluator,
    "SS": StratifiedIncrementalEvaluator,
}


def _make_base(
    seed: int, movie_scale: float, base_fraction: float, base_accuracy: float
) -> LabelledKG:
    """Build the evolving-KG base: a subset of MOVIE relabelled with REM labels.

    The base is columnar, so update batches append to a zero-copy delta view.
    """
    movie = make_movie_like(seed=seed, scale=movie_scale)
    rng = np.random.default_rng(seed)
    base_graph = movie.graph.random_triple_subset(base_fraction, rng, name="MOVIE-base")
    oracle = RandomErrorModel.with_accuracy(base_accuracy, seed=seed).generate(base_graph)
    return LabelledKG(base_graph, oracle).to_columnar()


def _make_evaluator(
    method: str, base: LabelledKG, config: EvaluationConfig, seed: int
) -> IncrementalEvaluator:
    evaluator_cls = _EVALUATORS.get(method)
    if evaluator_cls is None:
        raise ValueError(f"unknown evolving evaluation method {method!r}")
    return evaluator_cls(base, config=config, seed=seed)


# --------------------------------------------------------------------------- #
# Figure 8 — single batch of update
# --------------------------------------------------------------------------- #
def figure8_single_update(
    num_trials: int = 10,
    seed: int = 0,
    movie_scale: float = 0.01,
    base_fraction: float = 0.5,
    base_accuracy: float = 0.9,
    update_size_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.5),
    update_accuracies: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8),
    fixed_update_accuracy: float = 0.9,
    fixed_update_fraction: float = 0.5,
    methods: tuple[str, ...] = ("Baseline", "RS", "SS"),
) -> dict[str, list[dict[str, object]]]:
    """Figure 8: evaluation cost after one update batch.

    Two sweeps are produced, as in the paper: the update *size* varies at fixed
    90 % update accuracy (Figure 8-1), and the update *accuracy* varies at a
    fixed size of 50 % of the base (Figure 8-2).  The reported cost of each
    method is the incremental annotation time spent to re-certify the evolved
    KG (the base evaluation is excluded, identically for every method).
    """

    def run_one(
        method: str, update_fraction: float, update_accuracy: float, trial_seed: int
    ) -> dict[str, float]:
        base = _make_base(trial_seed, movie_scale, base_fraction, base_accuracy)
        config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
        evaluator = _make_evaluator(method, base, config, trial_seed)
        evaluator.evaluate_base()
        workload = UpdateWorkloadGenerator(base, seed=trial_seed)
        update_size = max(1, int(round(update_fraction * base.graph.num_triples)))
        batch, batch_oracle = workload.generate_batch(update_size, update_accuracy)
        evaluation = evaluator.apply_update(batch, batch_oracle)
        true_accuracy = evaluator.current_true_accuracy()
        return {
            "update_cost_hours": evaluation.incremental_cost_hours,
            "accuracy_estimate": evaluation.accuracy,
            "true_accuracy": true_accuracy,
            "estimation_error": abs(evaluation.accuracy - true_accuracy),
            "moe": evaluation.report.margin_of_error,
        }

    varying_size: list[dict[str, object]] = []
    for update_fraction in update_size_fractions:
        for method in methods:

            def trial(
                trial_seed: int, method=method, update_fraction=update_fraction
            ) -> dict[str, float]:
                return run_one(method, update_fraction, fixed_update_accuracy, trial_seed)

            stats = run_trials(trial, num_trials, base_seed=seed)
            row: dict[str, object] = {
                "update_fraction": update_fraction,
                "update_accuracy": fixed_update_accuracy,
                "method": method,
            }
            row.update({name: value.mean for name, value in stats.items()})
            row.update({f"{name}_std": value.std for name, value in stats.items()})
            varying_size.append(row)

    varying_accuracy: list[dict[str, object]] = []
    for update_accuracy in update_accuracies:
        for method in methods:

            def trial(
                trial_seed: int, method=method, update_accuracy=update_accuracy
            ) -> dict[str, float]:
                return run_one(method, fixed_update_fraction, update_accuracy, trial_seed)

            stats = run_trials(trial, num_trials, base_seed=seed)
            row = {
                "update_fraction": fixed_update_fraction,
                "update_accuracy": update_accuracy,
                "method": method,
            }
            row.update({name: value.mean for name, value in stats.items()})
            row.update({f"{name}_std": value.std for name, value in stats.items()})
            varying_accuracy.append(row)

    return {"varying_size": varying_size, "varying_accuracy": varying_accuracy}


# --------------------------------------------------------------------------- #
# Figure 9 — sequence of updates
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SequenceTrajectory:
    """The accuracy trajectory of one evaluator over a sequence of updates."""

    method: str
    batch_index: tuple[int, ...]
    estimated_accuracy: tuple[float, ...]
    true_accuracy: tuple[float, ...]
    cumulative_cost_hours: tuple[float, ...]

    @property
    def final_error(self) -> float:
        """Absolute estimation error after the last update batch."""
        return abs(self.estimated_accuracy[-1] - self.true_accuracy[-1])

    @property
    def mean_error(self) -> float:
        """Mean absolute estimation error across the sequence."""
        errors = [
            abs(estimate - truth)
            for estimate, truth in zip(self.estimated_accuracy, self.true_accuracy)
        ]
        return float(np.mean(errors))


def _run_trajectory(
    method: str,
    base: LabelledKG,
    config: EvaluationConfig,
    num_batches: int,
    batch_fraction: float,
    update_accuracy: float,
    seed: int,
) -> SequenceTrajectory:
    evaluator = _make_evaluator(method, base, config, seed)
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.evaluate_base()
    workload = UpdateWorkloadGenerator(base, seed=seed)
    batch_size = max(1, int(round(batch_fraction * base.graph.num_triples)))
    for batch, batch_oracle in workload.generate_sequence(num_batches, batch_size, update_accuracy):
        monitor.apply_update(batch, batch_oracle)
    records = monitor.records
    return SequenceTrajectory(
        method=method,
        batch_index=tuple(record.batch_index for record in records),
        estimated_accuracy=tuple(record.estimated_accuracy for record in records),
        true_accuracy=tuple(record.true_accuracy for record in records),
        cumulative_cost_hours=tuple(record.cumulative_cost_hours for record in records),
    )


def figure9_update_sequence(
    num_trials: int = 5,
    seed: int = 0,
    movie_scale: float = 0.005,
    base_fraction: float = 0.5,
    base_accuracy: float = 0.9,
    num_batches: int = 30,
    batch_fraction: float = 0.1,
    update_accuracy: float = 0.9,
    methods: tuple[str, ...] = ("RS", "SS"),
    progress: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Figure 9: accuracy tracking over a sequence of update batches.

    Returns the per-method mean trajectory across trials (Figure 9-1) plus the
    single trial with the largest initial over-estimation and the single trial
    with the largest initial under-estimation (Figures 9-2 and 9-3), which is
    how the paper illustrates the fault-tolerance difference between RS and SS.
    """
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    trajectories: dict[str, list[SequenceTrajectory]] = {method: [] for method in methods}
    for trial_index in range(num_trials):
        trial_seed = seed + trial_index
        base = _make_base(trial_seed, movie_scale, base_fraction, base_accuracy)
        for method in methods:
            if progress is not None:
                progress(f"trial {trial_index} method {method}")
            trajectories[method].append(
                _run_trajectory(
                    method,
                    base,
                    config,
                    num_batches,
                    batch_fraction,
                    update_accuracy,
                    trial_seed,
                )
            )

    def mean_trajectory(items: list[SequenceTrajectory]) -> dict[str, object]:
        estimates = np.array([item.estimated_accuracy for item in items])
        truths = np.array([item.true_accuracy for item in items])
        costs = np.array([item.cumulative_cost_hours for item in items])
        return {
            "batch_index": list(items[0].batch_index),
            "estimated_accuracy_mean": estimates.mean(axis=0).tolist(),
            "estimated_accuracy_std": estimates.std(axis=0, ddof=0).tolist(),
            "true_accuracy_mean": truths.mean(axis=0).tolist(),
            "cumulative_cost_hours_mean": costs.mean(axis=0).tolist(),
        }

    result: dict[str, object] = {"mean": {}, "overestimation_run": {}, "underestimation_run": {}}
    for method, items in trajectories.items():
        result["mean"][method] = mean_trajectory(items)
        initial_errors = [item.estimated_accuracy[0] - item.true_accuracy[0] for item in items]
        over_index = int(np.argmax(initial_errors))
        under_index = int(np.argmin(initial_errors))
        result["overestimation_run"][method] = trajectories[method][over_index]
        result["underestimation_run"][method] = trajectories[method][under_index]
    return result
