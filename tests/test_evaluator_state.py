"""Evaluator-state persistence (snapshot format v3): interrupt/resume parity.

The regression contract: interrupting a monitoring run after *any* batch,
persisting the evaluator state, restoring it over a reload of the base graph
and replaying the remaining batches must yield exactly the trajectory of an
uninterrupted run — estimates, margins of error and cost accounting alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EvaluationConfig
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.state import capture_evaluator_state, restore_evaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle
from repro.storage.snapshot import SnapshotStore

_CONFIG = EvaluationConfig(moe_target=0.06)
_CLASSES = {"rs": ReservoirIncrementalEvaluator, "ss": StratifiedIncrementalEvaluator}


def _base_and_updates(num_batches: int = 4):
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    workload = UpdateWorkloadGenerator(base, seed=5)
    updates = list(workload.generate_sequence(num_batches, 120, 0.75))
    return base, updates


def _fresh_evaluator(kind: str, base: LabelledKG):
    return _CLASSES[kind](
        base, config=_CONFIG, seed=13, surface="position"
    )


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


@pytest.mark.parametrize("kind", ["rs", "ss"])
def test_snapshot_store_round_trip(tmp_path, kind):
    """The v3 sidecar round-trips through SnapshotStore on both layouts."""
    base, updates = _base_and_updates(num_batches=3)
    labels = base.oracle.as_position_array(base.graph)
    store = SnapshotStore(tmp_path / "kg-snap")
    store.save(base.graph, labels=labels)

    evaluator = _fresh_evaluator(kind, base)
    evaluator.evaluate_base()
    evaluator.apply_update(*updates[0])
    assert not store.has_evaluator_state()
    sidecar = store.save_evaluator_state(evaluator)
    assert sidecar == store.evaluator_state_path
    assert store.has_evaluator_state()

    reopened = store.load_graph()
    base_reload = LabelledKG(
        reopened, LabelOracle({}, strict=False)
    )  # position surface never reads the oracle
    resumed = store.load_evaluator_state(base_reload)
    for batch, batch_oracle in updates[1:]:
        evaluator.apply_update(batch, batch_oracle)
        resumed.apply_update(batch, batch_oracle)
    assert _trajectory(resumed) == _trajectory(evaluator)


def test_capture_requires_position_surface_and_delta_backend():
    nell = make_nell_like(seed=0)
    data = LabelledKG(
        KnowledgeGraph(nell.graph.triples, backend="memory"), LabelOracle(nell.oracle.as_dict())
    )
    object_mode = StratifiedIncrementalEvaluator(data, config=_CONFIG, seed=0)
    with pytest.raises(ValueError, match="position"):
        capture_evaluator_state(object_mode)
    memory_mode = StratifiedIncrementalEvaluator(
        data, config=_CONFIG, seed=0, surface="position"
    )
    with pytest.raises(ValueError, match="columnar"):
        capture_evaluator_state(memory_mode)
