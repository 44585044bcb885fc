"""Unit tests for TWCS, its theoretical variance (Eq. 10) and the optimal-m search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.model import CostModel
from repro.sampling.optimal import (
    OptimalSecondStage,
    expected_srs_cost_seconds,
    expected_twcs_cost_seconds,
    optimal_second_stage_size,
    required_srs_sample_size,
    required_twcs_cluster_draws,
)
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.variance import srs_variance, twcs_theoretical_variance, twcs_v_of_m


def annotate_and_update(design, units, oracle):
    design.update_all_positions(units, oracle.as_position_array(design.graph))


class TestTwoStageWeightedClusterDesign:
    def test_second_stage_cap_respected(self, toy_kg):
        graph, _ = toy_kg
        design = TwoStageWeightedClusterDesign(graph, second_stage_size=2, seed=0)
        for positions, row, cluster_size in design.draw_positions(40):
            entity_id = graph.entity_id_of_row(row)
            assert len(positions) <= 2
            assert len(positions) == min(2, graph.cluster_size(entity_id))
            assert cluster_size == graph.cluster_size(entity_id)
            assert all(t.subject == entity_id for t in graph.triples_at(positions))

    def test_second_stage_without_replacement(self, toy_kg):
        graph, _ = toy_kg
        design = TwoStageWeightedClusterDesign(graph, second_stage_size=6, seed=0)
        for positions, _, _ in design.draw_positions(30):
            assert len(set(positions.tolist())) == len(positions)

    def test_invalid_parameters(self, toy_graph):
        from repro.kg.graph import KnowledgeGraph

        with pytest.raises(ValueError):
            TwoStageWeightedClusterDesign(toy_graph, second_stage_size=0)
        with pytest.raises(ValueError):
            TwoStageWeightedClusterDesign(KnowledgeGraph(), second_stage_size=2)

    def test_estimator_is_mean_of_within_cluster_accuracies(self, toy_kg):
        graph, oracle = toy_kg
        design = TwoStageWeightedClusterDesign(graph, second_stage_size=3, seed=4)
        units = design.draw_positions(12)
        annotate_and_update(design, units, oracle)
        expected = np.mean(
            [
                sum(oracle.label(t) for t in graph.triples_at(positions)) / len(positions)
                for positions, _, _ in units
            ]
        )
        assert design.estimate().value == pytest.approx(float(expected))

    def test_unbiasedness_proposition_1(self, nell):
        """Averaged over many runs, the TWCS estimate matches the true accuracy."""
        estimates = []
        for seed in range(300):
            design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=4, seed=seed)
            annotate_and_update(design, design.draw_positions(25), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.015)

    def test_m_equal_one_matches_srs_distribution(self, nell):
        """Proposition 2: with m=1 each cluster draw contributes a single
        Bernoulli triple whose success probability is the KG accuracy."""
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=1, seed=0)
        units = design.draw_positions(4000)
        labels = nell.oracle.as_position_array(nell.graph)
        values = [bool(labels[positions[0]]) for positions, _, _ in units]
        assert all(len(positions) == 1 for positions, _, _ in units)
        assert np.mean(values) == pytest.approx(nell.true_accuracy, abs=0.02)

    def test_reset(self, toy_kg):
        graph, oracle = toy_kg
        design = TwoStageWeightedClusterDesign(graph, second_stage_size=2, seed=0)
        annotate_and_update(design, design.draw_positions(4), oracle)
        design.reset()
        assert design.estimate().num_units == 0


class TestTheoreticalVariance:
    def test_srs_variance(self):
        assert srs_variance(0.5) == pytest.approx(0.25)
        assert srs_variance(1.0) == 0.0
        with pytest.raises(ValueError):
            srs_variance(1.2)

    def test_v_of_m_validation(self):
        with pytest.raises(ValueError):
            twcs_v_of_m([1, 2], [0.5], 1)
        with pytest.raises(ValueError):
            twcs_v_of_m([], [], 1)
        with pytest.raises(ValueError):
            twcs_v_of_m([0], [0.5], 1)
        with pytest.raises(ValueError):
            twcs_v_of_m([2], [1.5], 1)
        with pytest.raises(ValueError):
            twcs_v_of_m([2], [0.5], 0)

    def test_homogeneous_population_has_only_within_cluster_term(self):
        # All clusters identical accuracy 0.5 and size 10, m=1:
        # V(m) = (1/M) * (1/m) * sum fpc * M_i * 0.25 with fpc = 9/9 = 1.
        sizes = [10] * 5
        accuracies = [0.5] * 5
        v = twcs_v_of_m(sizes, accuracies, 1)
        assert v == pytest.approx(0.25)

    def test_within_term_vanishes_when_m_exceeds_all_clusters(self):
        sizes = [3, 4, 5]
        accuracies = [0.2, 0.6, 1.0]
        v_large_m = twcs_v_of_m(sizes, accuracies, 10)
        total = sum(sizes)
        mu = sum(s * a for s, a in zip(sizes, accuracies)) / total
        between = sum(s * (a - mu) ** 2 for s, a in zip(sizes, accuracies)) / total
        assert v_large_m == pytest.approx(between)

    def test_variance_decreases_with_m(self):
        sizes = [20] * 10
        accuracies = [0.9, 0.8, 0.85, 0.7, 0.95, 0.9, 0.6, 0.88, 0.92, 0.75]
        values = [twcs_v_of_m(sizes, accuracies, m) for m in (1, 2, 5, 10, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_variance_eq10_scales_inversely_with_draws(self):
        sizes = [5, 10, 15]
        accuracies = [0.5, 0.8, 0.9]
        single = twcs_theoretical_variance(sizes, accuracies, 3, 1)
        many = twcs_theoretical_variance(sizes, accuracies, 3, 10)
        assert many == pytest.approx(single / 10)
        with pytest.raises(ValueError):
            twcs_theoretical_variance(sizes, accuracies, 3, 0)

    def test_theoretical_variance_matches_simulation(self, nell):
        """Eq. (10) agrees with the empirical variance of the TWCS estimator."""
        sizes = [c.size for c in nell.graph.clusters()]
        accuracies = [nell.oracle.cluster_accuracy(nell.graph, e) for e in nell.graph.entity_ids]
        m, draws = 3, 20
        theoretical = twcs_theoretical_variance(sizes, accuracies, m, draws)
        estimates = []
        for seed in range(400):
            design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=m, seed=seed)
            units = design.draw_positions(draws)
            annotate_and_update(design, units, nell.oracle)
            estimates.append(design.estimate().value)
        empirical = float(np.var(estimates, ddof=1))
        assert empirical == pytest.approx(theoretical, rel=0.25)


class TestCostObjectivesAndOptimalM:
    def test_expected_srs_cost_monotone_in_sample_size(self):
        sizes = [5] * 100
        model = CostModel()
        costs = [expected_srs_cost_seconds(sizes, n, model) for n in (10, 50, 100, 200)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_expected_srs_cost_bounds(self):
        sizes = [5] * 100
        model = CostModel()
        cost = expected_srs_cost_seconds(sizes, 50, model)
        # At most one entity per sampled triple; at least one entity in total.
        assert cost <= 50 * model.identification_cost + 50 * model.validation_cost
        assert cost >= model.identification_cost + 50 * model.validation_cost
        with pytest.raises(ValueError):
            expected_srs_cost_seconds(sizes, -1, model)
        with pytest.raises(ValueError):
            expected_srs_cost_seconds([], 10, model)

    def test_expected_twcs_cost_formula(self):
        model = CostModel()
        assert expected_twcs_cost_seconds(10, 5, model) == pytest.approx(10 * (45 + 5 * 25))
        with pytest.raises(ValueError):
            expected_twcs_cost_seconds(-1, 5, model)

    def test_required_srs_sample_size(self):
        assert required_srs_sample_size(0.9, 0.05, 0.95) == 139
        assert required_srs_sample_size(0.5, 0.05, 0.95) == 385

    def test_required_twcs_draws_decreases_with_m(self):
        sizes = [20] * 50
        accuracies = list(np.linspace(0.5, 1.0, 50))
        draws = [required_twcs_cluster_draws(sizes, accuracies, m, 0.05, 0.95) for m in (1, 3, 10)]
        assert draws[0] >= draws[1] >= draws[2]
        with pytest.raises(ValueError):
            required_twcs_cluster_draws(sizes, accuracies, 1, 0.0, 0.95)

    def test_optimal_m_in_paper_range_for_nell_like_population(self, nell):
        sizes = [c.size for c in nell.graph.clusters()]
        accuracies = [nell.oracle.cluster_accuracy(nell.graph, e) for e in nell.graph.entity_ids]
        optimum = optimal_second_stage_size(sizes, accuracies, CostModel())
        assert isinstance(optimum, OptimalSecondStage)
        # Section 7.2.2: the optimum falls in a small range (roughly 2-8).
        assert 2 <= optimum.second_stage_size <= 8
        assert optimum.expected_cost_seconds == min(optimum.cost_by_m.values())
        assert optimum.expected_cost_hours == pytest.approx(optimum.expected_cost_seconds / 3600)

    def test_optimal_m_is_one_for_homogeneous_singleton_clusters(self):
        # All clusters of size 1: the second stage cannot help, m=1 is optimal.
        optimum = optimal_second_stage_size([1] * 100, [0.8] * 100, CostModel())
        assert optimum.second_stage_size == 1

    def test_optimal_m_validation(self):
        with pytest.raises(ValueError):
            optimal_second_stage_size([1], [0.5], CostModel(), max_second_stage_size=0)

    def test_cost_by_m_has_all_candidates(self):
        optimum = optimal_second_stage_size(
            [5, 10, 20], [0.5, 0.9, 0.8], CostModel(), max_second_stage_size=7
        )
        assert set(optimum.cost_by_m) == set(range(1, 8))
