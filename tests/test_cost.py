"""Unit tests for the cost model, the simulated annotator and (c1, c2) fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.annotator import SimulatedAnnotator
from repro.cost.fitting import CostObservation, fit_cost_model
from repro.cost.model import CostModel
from repro.kg.triple import Triple
from repro.sampling.base import PositionBatch


def every_triple(graph) -> PositionBatch:
    """Every triple of ``graph`` as a triple-level unit, in position order."""
    return PositionBatch.of_triples(np.arange(graph.num_triples))


def one_cluster(graph, entity_id: str, take: slice = slice(None)) -> PositionBatch:
    """One cluster unit: ``take`` of ``entity_id``'s positions."""
    positions = graph.cluster_positions(entity_id)
    chosen = np.asarray(positions[take], dtype=np.int64)
    row, size = graph.entity_row(entity_id), len(positions)
    return PositionBatch(chosen, np.array([chosen.shape[0]]), np.array([row]), np.array([size]))


class TestCostModel:
    def test_defaults_match_paper_fit(self):
        model = CostModel()
        assert model.identification_cost == pytest.approx(45.0)
        assert model.validation_cost == pytest.approx(25.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(identification_cost=-1.0)

    def test_cost_seconds_equation_4(self):
        model = CostModel(identification_cost=45.0, validation_cost=25.0)
        # Table 4: 24 entities / 178 triples ≈ 1.54 hours.
        assert model.cost_seconds(24, 178) == pytest.approx(24 * 45 + 178 * 25)
        assert model.cost_hours(24, 178) == pytest.approx(1.54, abs=0.01)

    def test_cost_seconds_srs_task(self):
        # Table 4's SRS task: 174 entities / 174 triples = 174 * (45 + 25) s.
        assert CostModel().cost_hours(174, 174) == pytest.approx(174 * 70 / 3600)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CostModel().cost_seconds(-1, 3)

    def test_sample_cost_counts_distinct_subjects(self):
        model = CostModel()
        triples = [
            Triple("e1", "p", "o1"),
            Triple("e1", "p", "o2"),
            Triple("e2", "p", "o3"),
        ]
        assert model.sample_cost_seconds(triples) == pytest.approx(2 * 45 + 3 * 25)
        assert model.sample_cost_hours(triples) == pytest.approx((2 * 45 + 3 * 25) / 3600)

    def test_per_cluster_upper_bound(self):
        model = CostModel()
        assert model.per_cluster_cost_upper_bound(5) == pytest.approx(45 + 5 * 25)
        with pytest.raises(ValueError):
            model.per_cluster_cost_upper_bound(0)


class TestSimulatedAnnotator:
    def test_labels_come_from_oracle(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle)
        labels = annotator.annotate_positions(graph, every_triple(graph))
        assert labels.tolist() == [oracle.label(t) for t in graph]

    def test_cost_matches_equation_4_without_noise(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle, cost_model=CostModel())
        annotator.annotate_positions(graph, every_triple(graph))
        expected = graph.num_entities * 45 + graph.num_triples * 25
        assert annotator.total_cost_seconds == pytest.approx(expected)
        assert annotator.total_cost_hours == pytest.approx(expected / 3600)

    def test_entity_identified_once_per_session(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle)
        annotator.annotate_positions(graph, one_cluster(graph, "movie_1", slice(None, 2)))
        assert annotator.entities_identified == 1
        annotator.annotate_positions(graph, one_cluster(graph, "movie_1", slice(2, None)))
        assert annotator.entities_identified == 1
        assert annotator.total_triples_annotated == 6

    def test_already_labelled_triple_not_recharged(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle)
        first = PositionBatch.of_triples(np.array([0]))
        annotator.annotate_positions(graph, first)
        cost_after_first = annotator.total_cost_seconds
        labels = annotator.annotate_positions(graph, first)
        assert annotator.total_cost_seconds == cost_after_first
        assert annotator.total_triples_annotated == 1
        assert labels[0] == oracle.label(graph.triple_at(0))

    def test_reset_clears_session(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle)
        three = PositionBatch.of_triples(np.arange(3))
        annotator.annotate_positions(graph, three)
        cost = annotator.total_cost_seconds
        annotator.reset()
        assert annotator.total_cost_seconds == 0.0
        assert annotator.total_triples_annotated == 0
        assert annotator.entities_identified == 0
        # The same triples are charged again in the new session.
        annotator.annotate_positions(graph, three)
        assert annotator.total_cost_seconds == cost

    def test_a_cluster_unit_identifies_its_subject_once(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle)
        annotator.annotate_positions(graph, one_cluster(graph, "athlete_1"))
        assert annotator.total_triples_annotated == 4
        assert annotator.entities_identified == 1
        assert annotator.total_cost_seconds == 45 + 4 * 25

    def test_timeline_is_monotone_and_matches_total(self, toy_kg):
        graph, oracle = toy_kg
        annotator = SimulatedAnnotator(oracle, time_noise_sigma=0.3, seed=0)
        timeline = []
        for position in range(graph.num_triples):
            annotator.annotate_positions(graph, PositionBatch.of_triples(np.array([position])))
            timeline.append(annotator.total_cost_seconds)
        assert all(b > a for a, b in zip(timeline, timeline[1:]))
        assert timeline[-1] == annotator.total_cost_seconds

    def test_noise_preserves_expected_cost(self, toy_kg):
        graph, oracle = toy_kg
        noiseless = SimulatedAnnotator(oracle)
        noiseless.annotate_positions(graph, every_triple(graph))
        total = 0.0
        runs = 200
        for seed in range(runs):
            annotator = SimulatedAnnotator(oracle, time_noise_sigma=0.4, seed=seed)
            annotator.annotate_positions(graph, every_triple(graph))
            total += annotator.total_cost_seconds
        assert total / runs == pytest.approx(noiseless.total_cost_seconds, rel=0.05)

    def test_negative_noise_sigma_rejected(self, toy_oracle):
        with pytest.raises(ValueError):
            SimulatedAnnotator(toy_oracle, time_noise_sigma=-0.1)


class TestCostFitting:
    def test_recovers_exact_parameters_from_noiseless_data(self):
        model = CostModel(identification_cost=45.0, validation_cost=25.0)
        observations = [
            CostObservation(e, t, model.cost_seconds(e, t))
            for e, t in [(10, 10), (5, 40), (20, 25), (3, 60)]
        ]
        fit = fit_cost_model(observations)
        assert fit.identification_cost == pytest.approx(45.0, abs=1e-6)
        assert fit.validation_cost == pytest.approx(25.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_is_non_negative(self):
        observations = [
            CostObservation(10, 10, 10.0),
            CostObservation(50, 2, 20.0),
            CostObservation(2, 50, 5000.0),
        ]
        fit = fit_cost_model(observations)
        assert fit.identification_cost >= 0.0
        assert fit.validation_cost >= 0.0

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            fit_cost_model([CostObservation(1, 1, 70.0)])

    def test_residuals_length_matches(self):
        model = CostModel()
        observations = [
            CostObservation(e, t, model.cost_seconds(e, t) + noise)
            for (e, t), noise in zip([(10, 10), (5, 40), (20, 25)], [3.0, -2.0, 1.0])
        ]
        fit = fit_cost_model(observations)
        assert len(fit.residual_seconds) == 3
        assert 0.9 < fit.r_squared <= 1.0
