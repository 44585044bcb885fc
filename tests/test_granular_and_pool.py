"""Tests for per-predicate granular evaluation and the multi-annotator task pool."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.core.granular import GranularEvaluator, evaluate_by_predicate
from repro.cost.annotator import SimulatedAnnotator
from repro.cost.pool import AnnotationTaskPool, NoisyAnnotator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.sampling.base import PositionBatch
from repro.sampling.twcs import TwoStageWeightedClusterDesign


def triples_at(*positions) -> PositionBatch:
    """Triple-level units over ``range(*positions)``, in order."""
    return PositionBatch.of_triples(np.arange(*positions))


def build_predicate_kg() -> tuple[KnowledgeGraph, LabelOracle, dict[str, float]]:
    """A KG with two predicates of very different (known) accuracy."""
    rng = np.random.default_rng(0)
    graph = KnowledgeGraph(name="predicate-kg")
    labels: dict[Triple, bool] = {}
    accuracy_by_predicate = {"goodPredicate": 0.95, "badPredicate": 0.40}
    for entity_index in range(400):
        subject = f"e{entity_index}"
        for predicate, accuracy in accuracy_by_predicate.items():
            for fact_index in range(int(rng.integers(1, 4))):
                triple = Triple(subject, predicate, f"o_{predicate}_{entity_index}_{fact_index}")
                graph.add(triple)
                labels[triple] = bool(rng.random() < accuracy)
    return graph, LabelOracle(labels), accuracy_by_predicate


class TestGranularEvaluator:
    def test_per_predicate_estimates_separate_good_from_bad(self):
        graph, oracle, targets = build_predicate_kg()
        annotator = SimulatedAnnotator(oracle, seed=0)
        reports = evaluate_by_predicate(graph, annotator, moe_target=0.06, seed=0)
        assert set(reports) == set(targets)
        assert reports["goodPredicate"].accuracy > reports["badPredicate"].accuracy + 0.3
        for predicate, target in targets.items():
            assert reports[predicate].accuracy == pytest.approx(target, abs=0.12)

    def test_group_sizes_partition_the_graph(self):
        graph, oracle, _ = build_predicate_kg()
        annotator = SimulatedAnnotator(oracle, seed=1)
        reports = evaluate_by_predicate(graph, annotator, moe_target=0.08, seed=1)
        assert sum(r.num_triples_in_group for r in reports.values()) == graph.num_triples

    def test_small_groups_are_evaluated_exhaustively(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle, seed=0)
        evaluator = GranularEvaluator(graph, annotator, EvaluationConfig(moe_target=0.05))
        reports = evaluator.evaluate(lambda triple: triple.predicate)
        # Every toy predicate group is tiny, so all must be exhaustive and exact.
        assert all(report.exhaustive for report in reports.values())
        for label, report in reports.items():
            group_triples = [t for t in graph if t.predicate == label]
            exact = sum(oracle.label(t) for t in group_triples) / len(group_triples)
            assert report.accuracy == pytest.approx(exact)
            assert report.margin_of_error == 0.0

    def test_shared_session_saves_entity_identifications(self):
        graph, oracle, _ = build_predicate_kg()
        shared = SimulatedAnnotator(oracle, seed=2)
        GranularEvaluator(graph, shared, EvaluationConfig(moe_target=0.08), seed=2).evaluate(
            lambda t: t.predicate
        )
        # With a shared session the number of identified entities cannot exceed
        # the number of distinct subjects in the graph.
        assert shared.entities_identified <= graph.num_entities

    def test_combined_estimate_matches_overall_accuracy(self):
        graph, oracle, _ = build_predicate_kg()
        annotator = SimulatedAnnotator(oracle, seed=3)
        evaluator = GranularEvaluator(graph, annotator, EvaluationConfig(moe_target=0.06), seed=3)
        reports = evaluator.evaluate(lambda t: t.predicate)
        combined = GranularEvaluator.combine(reports)
        assert combined.value == pytest.approx(oracle.true_accuracy(graph), abs=0.08)
        assert combined.std_error >= 0.0

    def test_combine_empty(self):
        estimate = GranularEvaluator.combine({})
        assert estimate.num_units == 0


class TestNoisyAnnotator:
    def test_error_rate_validation(self, toy_oracle):
        with pytest.raises(ValueError):
            NoisyAnnotator(toy_oracle, label_error_rate=1.5)

    def test_zero_error_rate_matches_oracle(self, toy_kg):
        graph, oracle = toy_kg
        annotator = NoisyAnnotator(oracle, label_error_rate=0.0, seed=0)
        labels = annotator.annotate_positions(graph, triples_at(graph.num_triples))
        assert labels.tolist() == [oracle.label(t) for t in graph]

    def test_error_rate_produces_flips(self, nell):
        annotator = NoisyAnnotator(nell.oracle, label_error_rate=0.3, seed=0)
        labels = annotator.annotate_positions(nell.graph, triples_at(500))
        flips = np.count_nonzero(labels[:500] != nell.oracle.position_labels(nell.graph)[:500])
        assert flips / 500 == pytest.approx(0.3, abs=0.08)

    def test_relabelling_is_consistent_within_session(self, toy_kg):
        graph, oracle = toy_kg
        annotator = NoisyAnnotator(oracle, label_error_rate=0.5, seed=0)
        first = annotator.annotate_positions(graph, triples_at(graph.num_triples)).copy()
        second = annotator.annotate_positions(graph, triples_at(graph.num_triples))
        np.testing.assert_array_equal(first, second)

    def test_cost_unaffected_by_label_noise(self, toy_kg):
        graph, oracle = toy_kg
        noisy = NoisyAnnotator(oracle, label_error_rate=0.4, seed=0)
        clean = SimulatedAnnotator(oracle, seed=0)
        noisy.annotate_positions(graph, triples_at(graph.num_triples))
        clean.annotate_positions(graph, triples_at(graph.num_triples))
        assert noisy.total_cost_seconds == pytest.approx(clean.total_cost_seconds)

    def test_label_and_cost_streams_are_independent(self, toy_oracle):
        """The same seed must spawn distinct child streams for label flips and
        timing noise (regression: both RNGs used to be seeded identically,
        silently correlating label errors with annotation cost)."""
        annotator = NoisyAnnotator(toy_oracle, label_error_rate=0.3, seed=123)
        assert not np.allclose(annotator._rng.random(8), annotator._label_rng.random(8))

    def test_label_flips_reproducible_under_fixed_seed(self, nell):
        first = NoisyAnnotator(nell.oracle, label_error_rate=0.3, seed=7)
        second = NoisyAnnotator(nell.oracle, label_error_rate=0.3, seed=7)
        np.testing.assert_array_equal(
            first.annotate_positions(nell.graph, triples_at(200)),
            second.annotate_positions(nell.graph, triples_at(200)),
        )

    def test_fixed_seed_label_and_cost_trajectory(self, nell):
        # Each 5-triple round is charged unit by unit: every triple's noisy
        # component costs reach the running total as one sum.
        order = np.concatenate([np.arange(300), np.arange(50, 150)])
        annotator = NoisyAnnotator(nell.oracle, label_error_rate=0.3, time_noise_sigma=0.4, seed=11)
        bits, costs = [], []
        for start in range(0, len(order), 5):
            unit = order[start : start + 5]
            labels = annotator.annotate_positions(nell.graph, PositionBatch.of_triples(unit))
            bits.append("".join(str(int(label)) for label in labels[unit]))
            costs.append(repr(annotator.total_cost_seconds))
        digest = hashlib.sha256("".join(bits).encode()).hexdigest()[:16]
        assert digest == "f56af20500800438"
        assert hashlib.sha256(",".join(costs).encode()).hexdigest()[:16] == "ac69cbe33f547730"
        assert costs[-1] == "13264.72330080865"
        assert annotator.total_triples_annotated == 300
        assert annotator.entities_identified == 136

    def test_a_grown_graph_keeps_its_flips(self, toy_kg):
        graph, oracle = toy_kg
        annotator = NoisyAnnotator(oracle, label_error_rate=1.0, seed=0)
        first = annotator.annotate_positions(graph, triples_at(4)).copy()
        added = Triple("city_1", "predicate_1", "object_city_1_1")
        graph.add(added)
        oracle = annotator.oracle = LabelOracle({**oracle.as_dict(), added: True})
        grown = annotator.annotate_positions(graph, triples_at(4, graph.num_triples))
        truth = oracle.position_labels(graph)
        np.testing.assert_array_equal(grown[:4], first[:4])
        np.testing.assert_array_equal(grown, ~truth)

    def test_generator_seed_still_supported(self, toy_oracle):
        rng = np.random.default_rng(0)
        annotator = NoisyAnnotator(toy_oracle, label_error_rate=0.2, seed=rng)
        assert annotator._rng is rng
        assert annotator._label_rng is not rng


class TestAnnotationTaskPool:
    def test_validation(self, toy_oracle):
        with pytest.raises(ValueError):
            AnnotationTaskPool([])
        annotator = SimulatedAnnotator(toy_oracle)
        with pytest.raises(ValueError):
            AnnotationTaskPool([annotator], annotations_per_task=2)

    def test_each_unit_is_one_task(self, nell):
        pool = AnnotationTaskPool([SimulatedAnnotator(nell.oracle, seed=i) for i in range(2)])
        batch = TwoStageWeightedClusterDesign(nell.graph, 5, seed=3).draw_positions(12)
        pool.annotate_positions(nell.graph, batch)
        assert [record.positions.tolist() for record in pool.records] == [
            positions.tolist() for positions, _, _ in batch
        ]
        assert [record.annotator_indices for record in pool.records] == [(0,), (1,)] * 6

    def test_single_annotator_pool_matches_direct_annotation(self, toy_kg):
        graph, oracle = toy_kg
        direct = SimulatedAnnotator(oracle, seed=0)
        direct_labels = direct.annotate_positions(graph, triples_at(graph.num_triples))
        pool = AnnotationTaskPool([SimulatedAnnotator(oracle, seed=0)])
        pool_labels = pool.annotate_positions(graph, triples_at(graph.num_triples))
        np.testing.assert_array_equal(pool_labels, direct_labels)
        assert pool.total_cost_seconds == pytest.approx(direct.total_cost_seconds)

    def test_majority_vote_corrects_noisy_annotators(self, nell):
        """Three annotators with 20% error and majority vote recover most labels."""
        truth = nell.oracle.position_labels(nell.graph)[:300]
        crew = [NoisyAnnotator(nell.oracle, label_error_rate=0.2, seed=i) for i in range(3)]
        pool = AnnotationTaskPool(crew, annotations_per_task=3)
        voted = pool.annotate_positions(nell.graph, triples_at(300))[:300]
        voted_errors = np.count_nonzero(voted != truth) / 300
        single = NoisyAnnotator(nell.oracle, label_error_rate=0.2, seed=99)
        single_labels = single.annotate_positions(nell.graph, triples_at(300))[:300]
        single_errors = np.count_nonzero(single_labels != truth) / 300
        assert voted_errors < single_errors
        assert voted_errors < 0.15

    def test_multi_annotation_costs_more(self, toy_kg):
        graph, oracle = toy_kg
        single_pool = AnnotationTaskPool([SimulatedAnnotator(oracle, seed=0)])
        single_pool.annotate_positions(graph, triples_at(graph.num_triples))
        triple_pool = AnnotationTaskPool(
            [SimulatedAnnotator(oracle, seed=i) for i in range(3)], annotations_per_task=3
        )
        triple_pool.annotate_positions(graph, triples_at(graph.num_triples))
        assert triple_pool.total_cost_seconds == pytest.approx(3 * single_pool.total_cost_seconds)

    def test_round_robin_spreads_tasks(self, nell):
        crew = [SimulatedAnnotator(nell.oracle, seed=i) for i in range(3)]
        pool = AnnotationTaskPool(crew, annotations_per_task=1)
        pool.annotate_positions(nell.graph, triples_at(90))
        workloads = [annotator.total_triples_annotated for annotator in crew]
        assert workloads == [30, 30, 30]

    def test_pool_plugs_into_static_evaluator(self, nell):
        crew = [NoisyAnnotator(nell.oracle, label_error_rate=0.05, seed=i) for i in range(2)]
        pool = AnnotationTaskPool(crew, annotations_per_task=1)
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        report = StaticEvaluator(design, pool, EvaluationConfig(moe_target=0.06)).run()
        assert report.satisfied
        assert abs(report.accuracy - nell.true_accuracy) < 0.15

    def test_a_position_named_twice_in_a_round_keeps_its_first_vote(self, toy_kg):
        graph, oracle = toy_kg
        crew = [NoisyAnnotator(oracle, label_error_rate=rate, seed=0) for rate in (0.0, 1.0)]
        pool = AnnotationTaskPool(crew)
        labels = pool.annotate_positions(graph, PositionBatch.of_triples(np.array([4, 4])))
        assert [record.labels.tolist() for record in pool.records] == [[True], [False]]
        assert labels[4] == oracle.label(graph.triple_at(4))

    def test_reset_clears_everything(self, toy_kg):
        graph, oracle = toy_kg
        pool = AnnotationTaskPool([SimulatedAnnotator(oracle, seed=0)])
        pool.annotate_positions(graph, triples_at(graph.num_triples))
        pool.reset()
        assert pool.total_cost_seconds == 0.0
        assert pool.records == []
        assert pool.total_triples_annotated == 0
