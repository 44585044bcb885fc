"""Unit tests for Estimate and the SRS, RCS and WCS designs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from annotation_model import batch_of

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.sampling.base import Estimate
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.wcs import WeightedClusterDesign


def annotate_and_update(design, units, oracle):
    """Label the units from the oracle's position array and fold them into the design."""
    design.update_all_positions(units, oracle.as_position_array(design.graph))


def entity_of(graph, unit) -> str:
    _, row, _ = unit
    return graph.entity_id_of_row(row)


class TestEstimate:
    def test_margin_of_error_and_interval(self):
        estimate = Estimate(value=0.9, std_error=0.02, num_units=50, num_triples=50)
        assert estimate.margin_of_error(0.95) == pytest.approx(1.96 * 0.02, abs=1e-3)
        interval = estimate.confidence_interval(0.95)
        assert interval.lower < 0.9 < interval.upper
        assert estimate.satisfies(0.05, 0.95)
        assert not estimate.satisfies(0.01, 0.95)

    def test_infinite_std_error_never_satisfies(self):
        estimate = Estimate(value=0.5, std_error=math.inf, num_units=1, num_triples=1)
        assert math.isinf(estimate.margin_of_error(0.95))
        assert not estimate.satisfies(0.5, 0.95)
        interval = estimate.confidence_interval(0.95)
        assert (interval.lower, interval.upper) == (0.0, 1.0)


class TestSimpleRandomDesign:
    def test_draw_without_replacement(self, toy_kg):
        graph, _ = toy_kg
        design = SimpleRandomDesign(graph, seed=0)
        units = design.draw_positions(13)
        positions = [int(unit_positions[0]) for unit_positions, _, _ in units]
        assert len(set(positions)) == 13
        assert all(len(p) == 1 and row == -1 and size == 1 for p, row, size in units)
        assert design.exhausted
        assert len(design.draw_positions(5)) == 0

    def test_draw_across_batches_never_repeats(self, toy_kg):
        graph, _ = toy_kg
        design = SimpleRandomDesign(graph, seed=1)
        seen = set()
        for _ in range(7):
            for positions, _, _ in design.draw_positions(2):
                assert int(positions[0]) not in seen
                seen.add(int(positions[0]))
        assert len(seen) == 13

    def test_census_estimate_is_exact(self, toy_kg):
        graph, oracle = toy_kg
        design = SimpleRandomDesign(graph, seed=0)
        units = list(design.draw_positions(graph.num_triples))
        # Every triple is drawn, but until all are folded it is no census.
        annotate_and_update(design, batch_of(units[:-1]), oracle)
        assert design.estimate().std_error > 0.0
        annotate_and_update(design, batch_of(units[-1:]), oracle)
        estimate = design.estimate()
        assert estimate.value == pytest.approx(oracle.true_accuracy(graph))
        assert estimate.num_units == graph.num_triples
        assert estimate.std_error == 0.0
        assert estimate.margin_of_error(0.95) == 0.0

    def test_census_meets_any_target(self, toy_kg):
        graph, oracle = toy_kg
        config = EvaluationConfig(moe_target=0.001, batch_size=5, min_units=2)
        report = StaticEvaluator(
            SimpleRandomDesign(graph, seed=0), SimulatedAnnotator(oracle), config
        ).run()
        assert report.num_units == graph.num_triples
        assert report.satisfied
        assert report.margin_of_error == 0.0

    def test_estimate_before_sampling(self, toy_graph):
        design = SimpleRandomDesign(toy_graph, seed=0)
        estimate = design.estimate()
        assert estimate.num_units == 0
        assert math.isinf(estimate.std_error)

    def test_std_error_formula(self, toy_kg):
        graph, oracle = toy_kg
        design = SimpleRandomDesign(graph, seed=3)
        annotate_and_update(design, design.draw_positions(10), oracle)
        estimate = design.estimate()
        p_hat = estimate.value
        assert estimate.std_error == pytest.approx(math.sqrt(p_hat * (1 - p_hat) / 10))

    def test_reset_clears_state(self, toy_kg):
        graph, oracle = toy_kg
        design = SimpleRandomDesign(graph, seed=0)
        annotate_and_update(design, design.draw_positions(5), oracle)
        design.reset()
        assert design.estimate().num_units == 0
        assert not design.exhausted

    def test_negative_count_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            SimpleRandomDesign(toy_graph, seed=0).draw_positions(-1)


class TestRandomClusterDesign:
    def test_units_are_whole_clusters(self, toy_kg):
        graph, _ = toy_kg
        design = RandomClusterDesign(graph, seed=0)
        units = design.draw_positions(4)
        assert {entity_of(graph, unit) for unit in units} == set(graph.entity_ids)
        for unit in units:
            positions, _, cluster_size = unit
            assert len(positions) == cluster_size == graph.cluster_size(entity_of(graph, unit))
            assert set(graph.triples_at(positions)) == set(
                graph.cluster(entity_of(graph, unit)).triples
            )

    def test_draw_without_replacement_and_exhaustion(self, toy_kg):
        graph, _ = toy_kg
        design = RandomClusterDesign(graph, seed=0)
        assert len(design.draw_positions(3)) == 3
        assert len(design.draw_positions(3)) == 1
        assert design.exhausted

    def test_census_estimate_is_exact(self, toy_kg):
        graph, oracle = toy_kg
        design = RandomClusterDesign(graph, seed=5)
        annotate_and_update(design, design.draw_positions(4), oracle)
        assert design.estimate().value == pytest.approx(oracle.true_accuracy(graph))
        assert design.estimate().std_error == 0.0

    def test_expansion_value_scaling(self, toy_kg):
        graph, oracle = toy_kg
        design = RandomClusterDesign(graph, seed=5)
        unit = next(u for u in design.draw_positions(4) if entity_of(graph, u) == "athlete_2")
        annotate_and_update(design, batch_of([unit]), oracle)
        # athlete_2 has 2 correct triples; expansion value = (N/M)*tau = (4/13)*2.
        assert design.estimate().value == pytest.approx(4 / 13 * 2)

    def test_unbiased_over_many_trials(self, nell):
        estimates = []
        for seed in range(200):
            design = RandomClusterDesign(nell.graph, seed=seed)
            units = design.draw_positions(40)
            annotate_and_update(design, units, nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.03)

    def test_reset(self, toy_kg):
        graph, oracle = toy_kg
        design = RandomClusterDesign(graph, seed=0)
        annotate_and_update(design, design.draw_positions(2), oracle)
        design.reset()
        assert design.estimate().num_units == 0
        assert not design.exhausted


class TestWeightedClusterDesign:
    def test_rejects_empty_graph(self):
        from repro.kg.graph import KnowledgeGraph

        with pytest.raises(ValueError):
            WeightedClusterDesign(KnowledgeGraph(), seed=0)

    def test_units_are_whole_clusters_with_replacement(self, toy_kg):
        graph, _ = toy_kg
        design = WeightedClusterDesign(graph, seed=0)
        units = design.draw_positions(50)
        assert len(units) == 50
        for unit in units:
            assert len(unit[0]) == graph.cluster_size(entity_of(graph, unit))

    def test_sampling_probabilities_proportional_to_size(self, toy_kg):
        graph, _ = toy_kg
        design = WeightedClusterDesign(graph, seed=1)
        draws = [entity_of(graph, unit) for unit in design.draw_positions(4000)]
        frequency = {e: draws.count(e) / len(draws) for e in graph.entity_ids}
        for entity_id in graph.entity_ids:
            expected = graph.cluster_size(entity_id) / graph.num_triples
            assert frequency[entity_id] == pytest.approx(expected, abs=0.03)

    def test_estimator_is_mean_of_cluster_accuracies(self, toy_kg):
        graph, oracle = toy_kg
        design = WeightedClusterDesign(graph, seed=2)
        units = design.draw_positions(10)
        annotate_and_update(design, units, oracle)
        expected = np.mean(
            [oracle.cluster_accuracy(graph, entity_of(graph, unit)) for unit in units]
        )
        assert design.estimate().value == pytest.approx(float(expected))

    def test_unbiased_over_many_trials(self, nell):
        estimates = []
        for seed in range(200):
            design = WeightedClusterDesign(nell.graph, seed=seed)
            annotate_and_update(design, design.draw_positions(30), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.02)

    def test_update_counts_triples(self, toy_kg):
        graph, oracle = toy_kg
        design = WeightedClusterDesign(graph, seed=0)
        units = design.draw_positions(5)
        annotate_and_update(design, units, oracle)
        assert design.estimate().num_triples == sum(len(p) for p, _, _ in units)


class TestDesignsWithAnnotator:
    def test_srs_with_simulated_annotator(self, toy_kg):
        graph, oracle = toy_kg
        design = SimpleRandomDesign(graph, seed=0)
        annotator = SimulatedAnnotator(oracle)
        units = design.draw_positions(6)
        design.update_all_positions(units, annotator.annotate_positions(graph, units))
        assert design.estimate().num_units == 6
        assert annotator.total_triples_annotated == 6
