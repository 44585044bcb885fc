"""Unit tests for stratum construction and the stratified TWCS design."""

from __future__ import annotations

import math

import numpy as np
import pytest
from annotation_model import batch_of

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.generators.datasets import make_movie_like
from repro.sampling.stratification import (
    Stratum,
    stratify_by_key,
    stratify_by_oracle_accuracy,
    stratify_by_size,
)
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.stats.allocation import cumulative_sqrt_frequency_boundaries


def annotate_and_update(design, units, oracle):
    design.update_all_positions(units, oracle.as_position_array(design.graph))


def members(graph, stratum) -> list[str]:
    """The entity ids of a stratum's cluster rows."""
    return [graph.entity_id_of_row(row) for row in stratum.rows.tolist()]


class TestStratification:
    def test_strata_partition_all_entities(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=3)
        all_entities = [e for stratum in strata for e in members(nell.graph, stratum)]
        assert sorted(all_entities) == sorted(nell.graph.entity_ids)
        assert len(all_entities) == len(set(all_entities))

    def test_stratum_weights_sum_to_one(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=4)
        assert sum(s.weight for s in strata) == pytest.approx(1.0)
        for stratum in strata:
            assert stratum.num_triples == sum(
                nell.graph.cluster_size(e) for e in members(nell.graph, stratum)
            )

    def test_size_strata_order_clusters_by_size(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        assert len(strata) == 2
        max_small = max(nell.graph.cluster_size(e) for e in members(nell.graph, strata[0]))
        min_large = min(nell.graph.cluster_size(e) for e in members(nell.graph, strata[1]))
        assert max_small <= min_large

    def test_single_stratum(self, toy_graph):
        strata = stratify_by_size(toy_graph, num_strata=1)
        assert len(strata) == 1
        assert strata[0].weight == pytest.approx(1.0)

    def test_invalid_num_strata(self, toy_graph):
        with pytest.raises(ValueError):
            stratify_by_size(toy_graph, num_strata=0)

    def test_oracle_stratification_groups_by_accuracy(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_oracle_accuracy(graph, oracle.cluster_accuracies(graph), num_strata=4)
        # city_1 (accuracy 0) and athlete_2 (accuracy 1) must be in different strata.
        stratum_of = {}
        for index, stratum in enumerate(strata):
            for entity in members(graph, stratum):
                stratum_of[entity] = index
        assert stratum_of["city_1"] != stratum_of["athlete_2"]

    def test_stratify_by_key_custom_boundaries(self, toy_graph):
        strata = stratify_by_key(
            toy_graph, toy_graph.cluster_size, boundaries=[1.5, 4.5], label_prefix="size"
        )
        by_label = {s.label: set(members(toy_graph, s)) for s in strata}
        assert by_label["size<= 1.5"] == {"city_1"}
        assert by_label["size(1.5, 4.5]"] == {"athlete_1", "athlete_2"}
        assert by_label["size> 4.5"] == {"movie_1"}

    def test_stratum_dataclass_properties(self):
        stratum = Stratum(label="s", rows=np.array([0, 1]), num_triples=7, weight=0.5)
        assert stratum.num_entities == 2


@pytest.mark.parametrize("backend", ["columnar", "sqlite"])
@pytest.mark.parametrize("num_strata", [1, 2, 3, 4])
def test_size_strata_equal_the_key_rule(nell, backend, num_strata):
    graph = nell.graph if backend == "columnar" else nell.graph.to_sqlite()
    boundaries = cumulative_sqrt_frequency_boundaries(graph.cluster_size_array(), num_strata)
    expected = stratify_by_key(graph, graph.cluster_size, boundaries, "size")
    strata = stratify_by_size(graph, num_strata=num_strata)
    assert strata == expected
    assert [repr(stratum.weight) for stratum in strata] == [
        repr(stratum.weight) for stratum in expected
    ]
    assert all(type(stratum.num_triples) is int for stratum in strata)


class TestStratifiedTWCSDesign:
    def test_requires_non_empty_strata(self, toy_graph):
        empty = Stratum(label="empty", rows=np.empty(0, np.int64), num_triples=0, weight=0.0)
        with pytest.raises(ValueError):
            StratifiedTWCSDesign(toy_graph, [empty], second_stage_size=2, seed=0)

    def test_draw_respects_strata_membership(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        stratum_entities = [set(members(nell.graph, s)) for s in design.strata]
        units = design.draw_positions(20)
        assert len(units) == 20
        for _, row, _ in units:
            entity_id = nell.graph.entity_id_of_row(row)
            assert any(entity_id in entities for entities in stratum_entities)

    def test_draw_allocates_to_every_stratum(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        units = design.draw_positions(30)
        hit = set()
        for _, row, _ in units:
            entity_id = nell.graph.entity_id_of_row(row)
            for index, stratum in enumerate(design.strata):
                if entity_id in set(members(nell.graph, stratum)):
                    hit.add(index)
        assert hit == {0, 1}

    def test_estimate_is_weighted_combination(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_size(graph, num_strata=2)
        design = StratifiedTWCSDesign(graph, strata, second_stage_size=10, seed=1)
        units = design.draw_positions(40)
        annotate_and_update(design, units, oracle)
        combined = design.estimate()
        expected = sum(
            stratum.weight * estimate.value
            for (stratum, estimate) in design.stratum_estimates()
        )
        assert combined.value == pytest.approx(expected)

    def test_estimate_undetermined_until_every_stratum_has_two_units(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        units = design.draw_positions(2)
        annotate_and_update(design, units, nell.oracle)
        assert math.isinf(design.estimate().std_error)

    def test_unbiasedness_over_trials(self, nell):
        estimates = []
        strata = stratify_by_size(nell.graph, num_strata=2)
        for seed in range(200):
            design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=4, seed=seed)
            annotate_and_update(design, design.draw_positions(30), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.02)

    def test_oracle_stratification_reduces_variance(self, movie_small):
        """With perfectly homogeneous strata the stratified estimator has lower
        spread than plain TWCS at the same number of cluster draws."""
        from repro.sampling.twcs import TwoStageWeightedClusterDesign

        graph, oracle = movie_small.graph, movie_small.oracle
        strata = stratify_by_oracle_accuracy(graph, oracle.cluster_accuracies(graph), 4)
        plain_estimates, stratified_estimates = [], []
        for seed in range(120):
            plain = TwoStageWeightedClusterDesign(graph, second_stage_size=5, seed=seed)
            annotate_and_update(plain, plain.draw_positions(24), oracle)
            plain_estimates.append(plain.estimate().value)
            stratified = StratifiedTWCSDesign(graph, strata, second_stage_size=5, seed=seed)
            annotate_and_update(stratified, stratified.draw_positions(24), oracle)
            stratified_estimates.append(stratified.estimate().value)
        assert np.std(stratified_estimates) < np.std(plain_estimates)

    def test_update_unknown_entity_raises(self, toy_kg):
        graph, oracle = toy_kg
        labels = oracle.as_position_array(graph)
        strata = stratify_by_size(graph, num_strata=2)
        # The design holds the first stratum only, so the second's rows are foreign.
        design = StratifiedTWCSDesign(graph, strata[:1], second_stage_size=2, seed=0)
        foreign_entity = members(graph, strata[1])[0]
        foreign = (
            graph.cluster_positions(foreign_entity),
            graph.entity_row(foreign_entity),
            graph.cluster_size(foreign_entity),
        )
        with pytest.raises(KeyError):
            design.update_all_positions(batch_of([foreign]), labels)
        triple_level = ([0], -1, 1)
        with pytest.raises(ValueError):
            design.update_all_positions(batch_of([triple_level]), labels)
        assert design.estimate().num_units == 0

    def test_routes_a_unit_by_its_entity_row(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=3)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        entity_id = members(nell.graph, strata[2])[0]
        positions = nell.graph.cluster_positions(entity_id)[:3]
        unit = (positions, nell.graph.entity_row(entity_id), nell.graph.cluster_size(entity_id))
        labels = np.ones(nell.graph.num_triples, dtype=bool)
        design.update_all_positions(batch_of([unit]), labels)
        units = [estimate.num_units for _, estimate in design.stratum_estimates()]
        assert units == [0, 0, 1]

    def test_reset(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        annotate_and_update(design, design.draw_positions(10), nell.oracle)
        design.reset()
        assert design.estimate().num_units == 0

    @pytest.mark.parametrize("allocation", ["proportional", "neyman"])
    def test_rounds_smaller_than_the_strata_starve_no_stratum(self, allocation):
        """Two draws a round over four size strata still reach every stratum.

        A fixed split of two draws handed both to the same two strata every
        round: the other two were never drawn and the MoE stayed ``inf``.
        """
        data = make_movie_like(seed=0, scale=0.01)
        strata = stratify_by_size(data.graph, num_strata=4)
        design = StratifiedTWCSDesign(
            data.graph, strata, second_stage_size=5, seed=0, allocation=allocation
        )
        config = EvaluationConfig(batch_size=2, max_units=1000)
        report = StaticEvaluator(design, SimulatedAnnotator(data.oracle, seed=0), config).run()
        assert report.satisfied
        assert all(estimate.num_units >= 2 for _, estimate in design.stratum_estimates())

    @pytest.mark.parametrize("seed", [0, 4])
    def test_neyman_keeps_drawing_strata_whose_spread_is_zero(self, seed):
        """A stratum whose first few clusters all read the same accuracy has
        an observed spread of 0; a Neyman share of ``W_h · 0`` never drew it
        again, and these seeds stopped with strata at [2, 23, 3, 2] units."""
        data = make_movie_like(seed=0, scale=0.01)
        strata = stratify_by_size(data.graph, num_strata=4)
        design = StratifiedTWCSDesign(data.graph, strata, seed=seed, allocation="neyman")
        annotator = SimulatedAnnotator(data.oracle, seed=seed)
        report = StaticEvaluator(design, annotator, EvaluationConfig()).run()
        assert report.satisfied
        assert all(estimate.num_units >= 5 for _, estimate in design.stratum_estimates())
