"""The batch annotator charges Eq. (4) as the per-unit loop of ``annotation_model`` does.

``SimulatedAnnotator.annotate_positions`` charges a whole round from boolean
masks; :class:`annotation_model.SessionModel` charges it one unit at a time
with Python sets.  After every step of a random session both must report the
same cost (to the bit), triples and entities: rounds that repeat clusters
within and across rounds (overlapping second stages), triple-level units,
graph objects that share subjects but not rows, graphs that grow between
rounds, lognormal noise and a noise factor that reads the session (drift).
The evolving evaluators charge through the same annotator, so every round
they charge over an update stream is replayed through the model too.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from annotation_model import SessionModel, batch_of
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluationConfig
from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.sampling import make_design
from repro.scenarios.runner import DriftingAnnotator


def _session() -> tuple[list[KnowledgeGraph], LabelOracle, list[Triple]]:
    """Three graph objects over overlapping data, one Triple-keyed oracle and
    the triples a graph may grow by.

    ``base`` and ``twin`` hold the same triples in the same rows (two graph
    objects over one dataset); ``group`` holds one predicate's triples, so
    its rows name the same subjects at other row numbers (a granular group).
    """
    rng = np.random.default_rng(11)
    triples = [
        Triple(f"e{entity}", f"p{index % 3}", f"o{entity}_{index}")
        for entity in range(14)
        for index in range(1 + (entity * 5) % 9)
    ]
    # e0 and e9 are not in ``group``: added there, they are new rows whose
    # subject another graph object may have identified already.
    growth = [Triple(f"e{entity}", "p1", "late") for entity in (20, 3, 9, 0)]
    labels = (rng.random(len(triples) + len(growth)) < 0.8).tolist()
    oracle = LabelOracle(dict(zip(triples + growth, labels)))
    base = KnowledgeGraph(triples, name="base")
    twin = KnowledgeGraph(triples, name="twin")
    group = KnowledgeGraph([t for t in triples if t.predicate == "p1"], name="group")
    return [base, twin, group], oracle, growth


@st.composite
def unit(draw, graph: KnowledgeGraph):
    """A cluster unit (a non-empty subset of one cluster) or a triple-level unit."""
    if draw(st.booleans()):
        position = draw(st.integers(0, graph.num_triples - 1))
        return ([position], -1, 1)
    row = draw(st.integers(0, graph.num_entities - 1))
    cluster = graph.cluster_positions_by_row(row).tolist()
    positions = draw(st.lists(st.sampled_from(cluster), min_size=1, unique=True))
    return (positions, row, len(cluster))


def _annotators(kind: str, oracle: LabelOracle) -> tuple[SimulatedAnnotator, SessionModel]:
    if kind == "plain":
        # Costs with inexact binary fractions: sums in another order differ.
        annotator = SimulatedAnnotator(oracle, cost_model=CostModel(45.1, 24.7))
        noise = lambda model: 1.0  # noqa: E731
    elif kind == "lognormal":
        annotator = SimulatedAnnotator(oracle, time_noise_sigma=0.5, seed=7)
        rng = np.random.default_rng(7)
        noise = lambda model: float(np.exp(rng.normal(-0.125, 0.5)))  # noqa: E731
    else:
        annotator = DriftingAnnotator(oracle, drift=0.5)
        noise = lambda model: 1.0 + 0.5 * (model.total_triples / 100.0)  # noqa: E731
    model = SessionModel(
        annotator.cost_model.identification_cost, annotator.cost_model.validation_cost, noise
    )
    return annotator, model


@pytest.mark.parametrize("kind", ["plain", "lognormal", "drift"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batch_charges_what_the_unit_loop_charges(kind, data):
    graphs, oracle, growth = _session()
    annotator, model = _annotators(kind, oracle)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        graph = data.draw(st.sampled_from(graphs), label="graph")
        op = data.draw(st.sampled_from(["round"] * 4 + ["grow"]), label="op")
        if op == "grow":
            if growth:
                graph.add(growth.pop())
        else:
            # A few clusters per round, so the same one often recurs in a round.
            units = data.draw(st.lists(unit(graph), min_size=1, max_size=8), label="round")
            labels = annotator.annotate_positions(graph, batch_of(units))
            np.testing.assert_array_equal(labels, oracle.position_labels(graph))
            model.annotate_positions(graph, units)
        assert annotator.total_cost_seconds == model.total_seconds
        assert annotator.total_triples_annotated == model.total_triples
        assert annotator.entities_identified == model.entities_identified


@pytest.mark.parametrize("design", ["rcs", "wcs"])
def test_long_rounds_charge_what_the_unit_loop_charges(movie_small, design):
    # A folded RCS stretch charges up to ~1,500 units in one call; their
    # table costs must still reach the total one unit after another.  WCS draws
    # with replacement, so its rounds repeat clusters and take the in-order path.
    graph = movie_small.graph
    labels = movie_small.oracle.position_labels(graph)
    annotator = SimulatedAnnotator(movie_small.oracle, cost_model=CostModel(45.1, 24.7))
    model = SessionModel(45.1, 24.7)
    sampler = make_design(design, graph, second_stage_size=5, seed=3)
    for count in (800, 200, 400):
        batch = sampler.draw_positions(count)
        np.testing.assert_array_equal(annotator.annotate_positions(graph, batch), labels)
        model.annotate_positions(graph, batch)
        assert annotator.total_cost_seconds == model.total_seconds
        assert annotator.total_triples_annotated == model.total_triples
        assert annotator.entities_identified == model.entities_identified


def test_a_grown_graph_knows_subjects_named_through_another():
    (base, _, group), oracle, growth = _session()
    annotator, model = _annotators("plain", oracle)
    cluster = group.cluster_positions_by_row(0).tolist()
    steps = [
        (base, [([0], 0, 1)]),  # identifies e0, which ``group`` lacks
        (group, [(cluster, 0, len(cluster))]),
    ]
    for graph, units in steps:
        annotator.annotate_positions(graph, batch_of(units))
        model.annotate_positions(graph, units)
    group.add(growth[-1])  # e0 joins ``group`` as a new row
    row = group.num_entities - 1
    units = [([group.num_triples - 1], row, 1)]
    annotator.annotate_positions(group, batch_of(units))
    model.annotate_positions(group, units)
    assert annotator.entities_identified == model.entities_identified == 2
    assert annotator.total_cost_seconds == model.total_seconds


@pytest.mark.parametrize(
    "cls",
    [ReservoirIncrementalEvaluator, StratifiedIncrementalEvaluator, BaselineEvolvingEvaluator],
    ids=["rs", "ss", "baseline"],
)
def test_evolving_rounds_charge_what_the_unit_loop_charges(cls):
    """Every round an evolving evaluator charges, over a stream of batches that
    grow the graph, replays through the model: the totals agree after every
    batch, and each unit's row owns its positions in the evolved graph."""
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    evaluator = cls(
        base, EvaluationConfig(moe_target=0.05), cost_model=CostModel(45.1, 24.7), seed=5
    )
    annotator = evaluator.account
    model = SessionModel(45.1, 24.7)
    charge, reset = annotator.annotate_positions, annotator.reset

    def replay(graph, batch):
        assert graph is evaluator.evolving.current
        for positions, row, _ in batch:
            assert (graph.rows_of_positions(positions) == row).all()
        model.annotate_positions(graph, batch)
        return charge(graph, batch)

    def reset_both():
        reset()
        model.__init__(45.1, 24.7)

    annotator.annotate_positions, annotator.reset = replay, reset_both
    stream = UpdateWorkloadGenerator(base, seed=5).generate_sequence(4, 300, 0.7)
    for step in [evaluator.evaluate_base, *(partial(evaluator.apply_update, b) for b in stream)]:
        step()
        assert annotator.total_cost_seconds == model.total_seconds
        assert annotator.total_triples_annotated == model.total_triples
        assert annotator.entities_identified == model.entities_identified
    assert model.total_triples > 0


def test_batch_iterates_as_its_units():
    units = [([4, 2], 1, 3), ([7], -1, 1), ([2, 4], 1, 3)]
    batch = batch_of(units)
    assert len(batch) == 3 and batch.positions.shape[0] == 5
    assert [(p.tolist(), row, size) for p, row, size in batch] == units
    assert batch.starts.tolist() == [0, 2, 3]
