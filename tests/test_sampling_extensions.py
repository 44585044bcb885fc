"""Tests for the sampling extensions: TSRCS ablation, pilot studies, Neyman allocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.sampling.base import PositionBatch
from repro.sampling.pilot import PilotResult, recommend_design, run_pilot
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign


def annotate_and_update(design, units, oracle):
    design.update_all_positions(units, oracle.as_position_array(design.graph))


class TestTwoStageRandomClusterDesign:
    def test_parameter_validation(self, toy_graph):
        from repro.kg.graph import KnowledgeGraph

        with pytest.raises(ValueError):
            TwoStageRandomClusterDesign(toy_graph, second_stage_size=0)
        with pytest.raises(ValueError):
            TwoStageRandomClusterDesign(KnowledgeGraph())
        with pytest.raises(ValueError):
            TwoStageRandomClusterDesign(toy_graph).draw_positions(-1)

    def test_second_stage_cap(self, toy_kg):
        graph, _ = toy_kg
        design = TwoStageRandomClusterDesign(graph, second_stage_size=2, seed=0)
        for positions, row, _ in design.draw_positions(30):
            entity_id = graph.entity_id_of_row(row)
            assert len(positions) <= 2
            assert all(t.subject == entity_id for t in graph.triples_at(positions))

    def test_first_stage_is_uniform(self, toy_kg):
        graph, _ = toy_kg
        design = TwoStageRandomClusterDesign(graph, second_stage_size=1, seed=1)
        draws = [graph.entity_id_of_row(row) for _, row, _ in design.draw_positions(4000)]
        for entity_id in graph.entity_ids:
            frequency = draws.count(entity_id) / len(draws)
            assert frequency == pytest.approx(1 / graph.num_entities, abs=0.03)

    def test_unbiased_over_many_trials(self, nell):
        estimates = []
        for seed in range(300):
            design = TwoStageRandomClusterDesign(nell.graph, second_stage_size=3, seed=seed)
            annotate_and_update(design, design.draw_positions(40), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.03)

    def test_higher_variance_than_twcs(self, nell):
        """The reason the paper omits TSRCS: its estimator is noisier than TWCS
        at the same number of cluster draws."""
        tsrcs_estimates, twcs_estimates = [], []
        for seed in range(150):
            tsrcs = TwoStageRandomClusterDesign(nell.graph, second_stage_size=3, seed=seed)
            annotate_and_update(tsrcs, tsrcs.draw_positions(30), nell.oracle)
            tsrcs_estimates.append(tsrcs.estimate().value)
            twcs = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=3, seed=seed)
            annotate_and_update(twcs, twcs.draw_positions(30), nell.oracle)
            twcs_estimates.append(twcs.estimate().value)
        assert np.std(tsrcs_estimates) > np.std(twcs_estimates)

    def test_reset(self, toy_kg):
        graph, oracle = toy_kg
        design = TwoStageRandomClusterDesign(graph, second_stage_size=2, seed=0)
        annotate_and_update(design, design.draw_positions(5), oracle)
        design.reset()
        assert design.estimate().num_units == 0


class TestPilot:
    def test_run_pilot_shapes(self, nell):
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        pilot = run_pilot(nell.graph, annotator, num_clusters=25, second_stage_size=3, seed=0)
        assert isinstance(pilot, PilotResult)
        assert pilot.num_clusters == 25
        assert len(pilot.cluster_accuracies) == 25
        assert all(0.0 <= a <= 1.0 for a in pilot.cluster_accuracies)
        assert pilot.num_triples_annotated <= 25 * 3
        assert pilot.cost_hours > 0
        assert abs(pilot.accuracy_estimate - nell.true_accuracy) < 0.2
        # Eq. (9): the pilot's estimate is the mean of its cluster accuracies.
        assert pilot.accuracy_estimate == pytest.approx(np.mean(pilot.cluster_accuracies))

    def test_pilot_budget_validation(self, nell):
        with pytest.raises(ValueError):
            run_pilot(nell.graph, SimulatedAnnotator(nell.oracle), num_clusters=1)

    def test_pilot_labels_reusable(self, nell):
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        run_pilot(nell.graph, annotator, num_clusters=20, seed=0)
        cost_after_pilot = annotator.total_cost_seconds
        # Re-annotating the pilot triples is free within the same session.
        pilot = np.flatnonzero(annotator._session.positions[id(nell.graph)].annotated)
        assert pilot.shape[0] == annotator.total_triples_annotated
        annotator.annotate_positions(nell.graph, PositionBatch.of_triples(pilot))
        assert annotator.total_cost_seconds == cost_after_pilot

    def test_recommend_design_in_small_m_range(self, nell):
        annotator = SimulatedAnnotator(nell.oracle, seed=1)
        pilot = run_pilot(nell.graph, annotator, num_clusters=40, seed=1)
        recommendation = recommend_design(pilot, CostModel(), moe_target=0.05)
        assert 1 <= recommendation.second_stage_size <= 20
        assert recommendation.expected_cost_seconds > 0

    def test_recommend_design_requires_pilot_data(self):
        pilot = PilotResult((5,), (0.8,), 0.8, 3, 0.1)
        with pytest.raises(ValueError):
            recommend_design(pilot)

    def test_between_cluster_std(self):
        pilot = PilotResult((3, 3, 3), (0.0, 0.5, 1.0), 0.5, 9, 0.2)
        assert pilot.between_cluster_std == pytest.approx(0.5)
        singleton = PilotResult((3,), (1.0,), 1.0, 3, 0.1)
        assert singleton.between_cluster_std == 0.0


class TestNeymanAllocation:
    def test_invalid_allocation_name(self, nell):
        strata = stratify_by_size(nell.graph, 2)
        with pytest.raises(ValueError):
            StratifiedTWCSDesign(nell.graph, strata, allocation="optimal")

    def test_neyman_falls_back_before_variances_known(self, nell):
        strata = stratify_by_size(nell.graph, 2)
        design = StratifiedTWCSDesign(nell.graph, strata, 3, seed=0, allocation="neyman")
        units = design.draw_positions(10)
        assert len(units) == 10

    def test_neyman_shifts_draws_toward_noisy_stratum(self, movie_small):
        """Once variances are observed, Neyman allocation sends more draws to
        the stratum whose cluster accuracies vary more."""
        graph, oracle = movie_small.graph, movie_small.oracle
        # Two strata by size; the small-cluster stratum has noisier
        # per-cluster accuracies on this dataset.
        strata = stratify_by_size(graph, 2)
        design = StratifiedTWCSDesign(graph, strata, 5, seed=0, allocation="neyman")
        # Warm-up: get at least 2 units per stratum so variances are estimable.
        warmup = design.draw_positions(10)
        annotate_and_update(design, warmup, oracle)
        per_stratum_std = [
            estimate.std_error * np.sqrt(estimate.num_units)
            for _, estimate in design.stratum_estimates()
        ]
        allocation = design._allocate(40)
        noisier = int(np.argmax(per_stratum_std))
        weights = [stratum.weight for stratum in design.strata]
        # The noisier stratum receives at least its proportional share.
        assert allocation[noisier] >= int(40 * weights[noisier]) - 1

    def test_neyman_estimates_remain_unbiased(self, nell):
        strata = stratify_by_size(nell.graph, 2)
        estimates = []
        for seed in range(100):
            design = StratifiedTWCSDesign(nell.graph, strata, 4, seed=seed, allocation="neyman")
            annotate_and_update(design, design.draw_positions(10), nell.oracle)
            annotate_and_update(design, design.draw_positions(20), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.03)
