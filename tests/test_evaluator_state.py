"""Evaluator-state capture and restore: interrupt/resume parity.

The regression contract: interrupting a monitoring run after *any* batch,
capturing the evaluator state, restoring it over a reload of the base graph
and replaying the remaining batches must yield exactly the trajectory of an
uninterrupted run — estimates, margins of error and cost accounting alike.
Serve checkpoints persist this state; ``tests/test_serve.py`` drives the same
resume through a drained and restarted daemon.
"""

from __future__ import annotations

import pytest

from repro.core.config import EvaluationConfig
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.state import capture_evaluator_state, restore_evaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator

_CONFIG = EvaluationConfig(moe_target=0.06)
_CLASSES = {"rs": ReservoirIncrementalEvaluator, "ss": StratifiedIncrementalEvaluator}


def _base_and_updates(num_batches: int = 4):
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    workload = UpdateWorkloadGenerator(base, seed=5)
    updates = list(workload.generate_sequence(num_batches, 120, 0.75))
    return base, updates


def _fresh_evaluator(kind: str, base: LabelledKG):
    return _CLASSES[kind](base, config=_CONFIG, seed=13)


def _trajectory(evaluator) -> list[tuple]:
    return [
        (
            evaluation.batch_id,
            evaluation.accuracy,
            evaluation.report.margin_of_error,
            evaluation.report.num_triples_annotated,
            evaluation.cumulative_cost_seconds,
        )
        for evaluation in evaluator.history
    ]


@pytest.mark.parametrize("kind", ["rs", "ss"])
def test_resume_at_every_batch_boundary(kind):
    base, updates = _base_and_updates(num_batches=4)
    reference = _fresh_evaluator(kind, base)
    reference.evaluate_base()
    for batch, batch_oracle in updates:
        reference.apply_update(batch, batch_oracle)
    expected = _trajectory(reference)

    for boundary in range(len(updates) + 1):
        data = make_nell_like(seed=0)
        base_run = LabelledKG(data.graph.to_columnar(), data.oracle)
        evaluator = _fresh_evaluator(kind, base_run)
        evaluator.evaluate_base()
        for batch, batch_oracle in updates[:boundary]:
            evaluator.apply_update(batch, batch_oracle)

        state = capture_evaluator_state(evaluator)
        data_reload = make_nell_like(seed=0)
        base_reload = LabelledKG(data_reload.graph.to_columnar(), data_reload.oracle)
        resumed = restore_evaluator(state, base_reload)
        for batch, batch_oracle in updates[boundary:]:
            resumed.apply_update(batch, batch_oracle)

        assert _trajectory(resumed) == expected, f"{kind} diverged after boundary {boundary}"
        assert resumed.current_true_accuracy() == reference.current_true_accuracy()
        assert resumed.total_cost_hours == reference.total_cost_hours
