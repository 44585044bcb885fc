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
    for batch in updates:
        reference.apply_update(batch)
    expected = _trajectory(reference)

    for boundary in range(len(updates) + 1):
        data = make_nell_like(seed=0)
        base_run = LabelledKG(data.graph.to_columnar(), data.oracle)
        evaluator = _fresh_evaluator(kind, base_run)
        evaluator.evaluate_base()
        for batch in updates[:boundary]:
            evaluator.apply_update(batch)

        state = capture_evaluator_state(evaluator)
        data_reload = make_nell_like(seed=0)
        base_reload = LabelledKG(data_reload.graph.to_columnar(), data_reload.oracle)
        resumed = restore_evaluator(state, base_reload)
        for batch in updates[boundary:]:
            resumed.apply_update(batch)

        assert _trajectory(resumed) == expected, f"{kind} diverged after boundary {boundary}"
        assert resumed.current_true_accuracy() == reference.current_true_accuracy()
        assert resumed.total_cost_hours == reference.total_cost_hours


def _updates(base: LabelledKG, seed: int, num_batches: int = 2):
    return list(UpdateWorkloadGenerator(base, seed=seed).generate_sequence(num_batches, 50, 0.75))


def test_sessions_sharing_a_base_restore_in_either_order():
    """Two sessions over one served base both resume, in either order.

    Each session's tail names strings of its own view's vocabulary, with ids
    from the base's length up in both; restoring interns them by value, so
    each checkpoint restores over a fresh base whichever is restored first,
    and the shared base vocabulary never grows.
    """
    shared = make_nell_like(seed=0).to_columnar()
    vocab_size = len(shared.graph.backend.vocab)
    streams = {"a": _updates(shared, seed=5), "b": _updates(shared, seed=9)}
    evaluators = {name: _fresh_evaluator("ss", shared) for name in streams}
    for evaluator in evaluators.values():
        evaluator.evaluate_base()
    for name, evaluator in evaluators.items():
        evaluator.apply_update(streams[name][0])
    states = {name: capture_evaluator_state(evaluator) for name, evaluator in evaluators.items()}
    for name, evaluator in evaluators.items():
        evaluator.apply_update(streams[name][1])

    assert len(shared.graph.backend.vocab) == vocab_size
    for order in (("a", "b"), ("b", "a")):
        fresh = make_nell_like(seed=0).to_columnar()
        resumed = {name: restore_evaluator(states[name], fresh) for name in order}
        assert len(fresh.graph.backend.vocab) == vocab_size
        for name in order:
            resumed[name].apply_update(streams[name][1])
            assert _trajectory(resumed[name]) == _trajectory(evaluators[name]), (order, name)
            assert resumed[name].total_cost_hours == evaluators[name].total_cost_hours


def _as_v3(state: dict, base_vocab_size: int, vocab) -> dict:
    """``state`` laid out as format v3 wrote it: the strings added after the base's."""
    v3 = dict(state, format=3, base_vocab_size=base_vocab_size)
    v3["vocab_ext"] = [vocab[i] for i in range(base_vocab_size, len(vocab))]
    v3["tail"] = {key: state["tail"][key] for key in ("subjects", "predicates", "objects", "flags")}
    return v3


def test_a_v3_state_of_one_session_still_restores():
    base, updates = _base_and_updates(num_batches=2)
    vocab_size = len(base.graph.backend.vocab)
    evaluator = _fresh_evaluator("ss", base)
    evaluator.evaluate_base()
    evaluator.apply_update(updates[0])
    vocab = evaluator.evolving.current.backend.vocab
    state = _as_v3(capture_evaluator_state(evaluator), vocab_size, vocab)
    evaluator.apply_update(updates[1])

    reloaded = make_nell_like(seed=0).to_columnar()
    resumed = restore_evaluator(state, reloaded)
    resumed.apply_update(updates[1])
    assert _trajectory(resumed) == _trajectory(evaluator)
