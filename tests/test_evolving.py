"""Unit tests for evolving-KG evaluation: baseline, reservoir (Alg. 1), stratified (Alg. 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import EvaluationConfig
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.monitor import EvolvingAccuracyMonitor
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_movie_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.labels.random_error import RandomErrorModel

ALL_EVALUATORS = [
    BaselineEvolvingEvaluator,
    ReservoirIncrementalEvaluator,
    StratifiedIncrementalEvaluator,
]


@pytest.fixture(scope="module")
def evolving_base() -> LabelledKG:
    """A small MOVIE-like base KG with REM labels at 90 % accuracy."""
    movie = make_movie_like(seed=4, scale=0.004)
    rng = np.random.default_rng(4)
    graph = movie.graph.random_triple_subset(0.6, rng, name="base")
    oracle = RandomErrorModel.with_accuracy(0.9, seed=4).generate(graph)
    return LabelledKG(graph, oracle)


def make_update(base: LabelledKG, size: int, accuracy: float, seed: int):
    generator = UpdateWorkloadGenerator(base, seed=seed)
    return generator.generate_batch(size, accuracy)[0]


class TestCommonBehaviour:
    @pytest.mark.parametrize("evaluator_cls", ALL_EVALUATORS)
    def test_base_evaluation_meets_quality(self, evolving_base, evaluator_cls):
        evaluator = evaluator_cls(evolving_base, seed=0)
        evaluation = evaluator.evaluate_base()
        assert evaluation.batch_id == "base"
        assert evaluation.report.satisfied
        assert evaluation.report.margin_of_error <= 0.05
        assert abs(evaluation.accuracy - evolving_base.true_accuracy) < 0.12
        assert evaluation.cumulative_cost_seconds > 0

    @pytest.mark.parametrize("evaluator_cls", ALL_EVALUATORS)
    def test_update_keeps_quality_and_tracks_truth(self, evolving_base, evaluator_cls):
        evaluator = evaluator_cls(evolving_base, seed=1)
        evaluator.evaluate_base()
        batch = make_update(
            evolving_base, size=evolving_base.graph.num_triples // 3, accuracy=0.5, seed=1
        )
        evaluation = evaluator.apply_update(batch)
        truth = evaluator.current_true_accuracy()
        assert evaluation.report.margin_of_error <= 0.06
        assert abs(evaluation.accuracy - truth) < 0.12
        assert evaluation.cumulative_cost_seconds >= evaluator.history[0].cumulative_cost_seconds

    @pytest.mark.parametrize(
        "evaluator_cls", [ReservoirIncrementalEvaluator, StratifiedIncrementalEvaluator]
    )
    def test_update_before_base_raises(self, evolving_base, evaluator_cls):
        evaluator = evaluator_cls(evolving_base, seed=0)
        batch = make_update(evolving_base, 100, 0.9, seed=0)
        with pytest.raises(RuntimeError):
            evaluator.apply_update(batch)

    @pytest.mark.parametrize("evaluator_cls", ALL_EVALUATORS)
    def test_history_accumulates(self, evolving_base, evaluator_cls):
        evaluator = evaluator_cls(evolving_base, seed=2)
        evaluator.evaluate_base()
        for index in range(2):
            batch = make_update(evolving_base, 200, 0.8, seed=10 + index)
            evaluator.apply_update(batch)
        assert len(evaluator.history) == 3
        assert evaluator.latest.batch_id == evaluator.history[-1].batch_id
        costs = [h.cumulative_cost_seconds for h in evaluator.history]
        assert costs == sorted(costs)
        assert evaluator.total_cost_hours == pytest.approx(costs[-1] / 3600)


class TestIncrementalCostAdvantage:
    def test_incremental_methods_cheaper_than_baseline(self, evolving_base):
        """The central claim of Section 6: RS and SS beat re-evaluation from scratch."""
        update_size = evolving_base.graph.num_triples // 3
        costs = {}
        for evaluator_cls in ALL_EVALUATORS:
            per_trial = []
            for seed in range(3):
                evaluator = evaluator_cls(evolving_base, seed=seed)
                evaluator.evaluate_base()
                batch = make_update(evolving_base, update_size, 0.9, seed=seed)
                evaluation = evaluator.apply_update(batch)
                per_trial.append(evaluation.incremental_cost_hours)
            costs[evaluator_cls.__name__] = float(np.mean(per_trial))
        assert costs["ReservoirIncrementalEvaluator"] < costs["BaselineEvolvingEvaluator"]
        assert costs["StratifiedIncrementalEvaluator"] < costs["BaselineEvolvingEvaluator"]

    def test_stratified_reuses_all_base_annotations(self, evolving_base):
        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=5)
        evaluator.evaluate_base()
        graph = evaluator.evolving.current
        num_base = graph.num_triples
        annotated_after_base = evaluator.account._session.positions[id(graph)].annotated.copy()
        batch = make_update(evolving_base, 300, 0.9, seed=5)
        evaluator.apply_update(batch)
        num_now = graph.num_triples
        annotated_now = evaluator.account._session.positions[id(graph)].annotated
        # Only positions of the new stratum (the appended segment) are
        # annotated after the update; every base annotation is kept.
        np.testing.assert_array_equal(annotated_now[:num_base], annotated_after_base)
        new_triples = int(annotated_now[num_base:].sum())
        assert new_triples == evaluator.latest.report.num_triples_annotated
        assert 0 < new_triples <= num_now - num_base <= batch.size


class TestReservoirEvaluator:
    def test_reservoir_size_matches_units(self, evolving_base):
        evaluator = ReservoirIncrementalEvaluator(evolving_base, seed=0)
        evaluation = evaluator.evaluate_base()
        assert evaluator.reservoir_size == evaluation.report.num_units

    def test_replacements_bounded_by_insertions(self, evolving_base):
        evaluator = ReservoirIncrementalEvaluator(evolving_base, seed=1)
        evaluator.evaluate_base()
        batch = make_update(evolving_base, 400, 0.9, seed=1)
        evaluator.apply_update(batch)
        # Each per-entity insertion set is one candidate cluster.
        num_inserted_clusters = len({triple.subject for triple in batch.triples})
        assert 0 <= evaluator.total_replacements <= num_inserted_clusters

    def test_larger_updates_cause_more_replacements(self, evolving_base):
        small_totals, large_totals = [], []
        for seed in range(3):
            small = ReservoirIncrementalEvaluator(evolving_base, seed=seed)
            small.evaluate_base()
            batch = make_update(evolving_base, 100, 0.9, seed=seed)
            small.apply_update(batch)
            small_totals.append(small.total_replacements)

            large = ReservoirIncrementalEvaluator(evolving_base, seed=seed)
            large.evaluate_base()
            batch = make_update(evolving_base, 1500, 0.9, seed=seed)
            large.apply_update(batch)
            large_totals.append(large.total_replacements)
        assert sum(large_totals) > sum(small_totals)

    def test_second_stage_cap_respected_in_reservoir(self, evolving_base):
        evaluator = ReservoirIncrementalEvaluator(evolving_base, second_stage_size=3, seed=2)
        evaluator.evaluate_base()
        assert all(entry.num_triples <= 3 for _, _, entry in evaluator._reservoir)


def weighted_kg(sizes: list[int]) -> LabelledKG:
    """Clusters ``c0, c1, …`` of the given sizes, in that row order, every label correct."""
    graph = KnowledgeGraph(
        Triple(f"c{index}", "p", f"o{index}_{offset}")
        for index, size in enumerate(sizes)
        for offset in range(size)
    )
    return LabelledKG(graph, LabelOracle.from_positions(graph, np.ones(sum(sizes), dtype=bool)))


def reservoir_clusters(data: LabelledKG, capacity: int, seed: int) -> set[str]:
    """The clusters Algorithm 1 keeps after keying the base and growing to ``capacity``."""
    config = EvaluationConfig(batch_size=capacity, min_units=capacity, max_units=capacity)
    evaluator = ReservoirIncrementalEvaluator(data, config=config, seed=seed)
    evaluator.evaluate_base()
    assert evaluator.reservoir_size == capacity
    return {data.graph.entity_id_of_row(entry.source[1]) for *_, entry in evaluator._reservoir}


class TestReservoirKeyDistribution:
    """A-Res keys ``u^{1/w}`` and the largest-key reservoir select with PPS behaviour."""

    def test_keys_lie_in_unit_interval(self, evolving_base):
        evaluator = ReservoirIncrementalEvaluator(evolving_base, seed=3)
        # Weights are cluster sizes, so at least 1.
        keys = evaluator._draw_keys(np.concatenate([np.arange(1.0, 1001.0), [1e6]]))
        assert np.all((keys > 0.0) & (keys <= 1.0))

    def test_inclusion_probability_increases_with_weight(self):
        """Clusters with larger weights must be retained more often."""
        data = weighted_kg([20] + [1] * 30)
        counts = {"c0": 0, "c1": 0}
        for seed in range(600):
            retained = reservoir_clusters(data, capacity=5, seed=seed)
            for name in counts:
                counts[name] += name in retained
        assert counts["c0"] > 3 * counts["c1"]

    def test_uniform_weights_give_uniform_inclusion(self):
        data = weighted_kg([1] * 20)
        inclusion = np.zeros(20)
        trials = 800
        for seed in range(trials):
            for name in reservoir_clusters(data, capacity=5, seed=seed):
                inclusion[int(name.removeprefix("c"))] += 1
        probabilities = inclusion / trials
        # Every cluster should be retained with probability ≈ 5/20 = 0.25.
        assert probabilities.mean() == pytest.approx(0.25, abs=0.01)
        assert probabilities.max() - probabilities.min() < 0.12

    def test_order_of_clusters_does_not_matter_on_average(self):
        """A-Res inclusion probabilities are invariant to the order keys are drawn in."""
        forward = weighted_kg(list(range(1, 11)))
        reverse = weighted_kg(list(range(10, 0, -1)))
        heaviest = {"forward": 0, "reverse": 0}
        for seed in range(500):
            heaviest["forward"] += "c9" in reservoir_clusters(forward, capacity=3, seed=seed)
            heaviest["reverse"] += "c0" in reservoir_clusters(reverse, capacity=3, seed=seed)
        assert heaviest["forward"] / 500 == pytest.approx(heaviest["reverse"] / 500, abs=0.08)


class TestStratifiedEvaluator:
    def test_one_stratum_per_batch(self, evolving_base):
        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=3)
        evaluator.evaluate_base()
        for index in range(3):
            batch = make_update(evolving_base, 150, 0.8, seed=20 + index)
            evaluator.apply_update(batch)
        assert evaluator.num_strata == 4
        stratum_ids = [stratum_id for stratum_id, _ in evaluator.stratum_estimates()]
        assert stratum_ids[0] == "base"

    def test_min_units_per_stratum_enforced(self, evolving_base):
        evaluator = StratifiedIncrementalEvaluator(evolving_base, min_units_per_stratum=8, seed=4)
        evaluator.evaluate_base()
        batch = make_update(evolving_base, 400, 0.9, seed=4)
        evaluator.apply_update(batch)
        _, new_stratum_estimate = evaluator.stratum_estimates()[-1]
        assert new_stratum_estimate.num_units >= 8

    def test_invalid_min_units(self, evolving_base):
        with pytest.raises(ValueError):
            StratifiedIncrementalEvaluator(evolving_base, min_units_per_stratum=1)

    def test_combined_estimate_is_one_loop_over_the_strata_bit_for_bit(self, evolving_base):
        """The frozen strata's Eq. (13) sums, kept once per batch, plus the
        newest stratum's terms equal one loop over every stratum in order."""

        def one_loop(strata) -> tuple:
            total = sum(stratum.num_triples for stratum in strata)
            value, variance, units, triples, undetermined = 0.0, 0.0, 0, 0, False
            for stratum in strata:
                weight = stratum.num_triples / total
                estimate = stratum.estimate
                units += estimate.num_units
                triples += estimate.num_triples
                value += weight * estimate.value
                if math.isinf(estimate.std_error):
                    undetermined = True
                else:
                    variance += weight * weight * estimate.std_error**2
            return (value, math.inf if undetermined else math.sqrt(variance), units, triples)

        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=9)
        evaluator.evaluate_base()
        generator = UpdateWorkloadGenerator(evolving_base, seed=9)
        for batch in generator.generate_sequence(6, 60, 0.7):
            evaluator.apply_update(batch)
            combined = evaluator._combined_estimate()
            assert (
                combined.value,
                combined.std_error,
                combined.num_units,
                combined.num_triples,
            ) == one_loop(evaluator._strata)
        assert evaluator.num_strata == 7

    def test_combined_estimate_reflects_bad_update(self, evolving_base):
        """A very inaccurate, large update must pull the combined estimate down."""
        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=6)
        base_estimate = evaluator.evaluate_base().accuracy
        batch = make_update(evolving_base, evolving_base.graph.num_triples, 0.1, seed=6)
        updated = evaluator.apply_update(batch)
        assert updated.accuracy < base_estimate - 0.2


class TestMonitor:
    def test_run_produces_one_record_per_state(self, evolving_base):
        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=7)
        monitor = EvolvingAccuracyMonitor(evaluator)
        generator = UpdateWorkloadGenerator(evolving_base, seed=7)
        records = monitor.run(generator.generate_sequence(3, 150, 0.9))
        assert len(records) == 4
        assert records[0].batch_id == "base"
        assert [r.batch_index for r in records] == [0, 1, 2, 3]
        assert monitor.total_cost_hours == pytest.approx(
            records[-1].cumulative_cost_hours, rel=1e-6
        )

    def test_apply_update_lazily_evaluates_base(self, evolving_base):
        evaluator = ReservoirIncrementalEvaluator(evolving_base, seed=8)
        monitor = EvolvingAccuracyMonitor(evaluator)
        batch = make_update(evolving_base, 100, 0.9, seed=8)
        record = monitor.apply_update(batch)
        assert len(monitor.records) == 2
        assert record.batch_index == 1

    def test_records_track_truth_reasonably(self, evolving_base):
        evaluator = StratifiedIncrementalEvaluator(evolving_base, seed=9)
        monitor = EvolvingAccuracyMonitor(evaluator)
        generator = UpdateWorkloadGenerator(evolving_base, seed=9)
        records = monitor.run(generator.generate_sequence(3, 400, 0.5))
        final = records[-1]
        assert final.estimation_error < 0.12
        # The low-accuracy updates must drag the true accuracy down and the
        # estimate must follow.
        assert final.true_accuracy < records[0].true_accuracy
        assert final.estimated_accuracy < records[0].estimated_accuracy + 0.05
