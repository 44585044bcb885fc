"""Property-based tests (hypothesis) for the core data structures and estimators.

These tests check invariants that must hold for *any* knowledge graph, label
assignment or parameter setting — not just the synthetic datasets used
elsewhere in the suite:

* graph bookkeeping (cluster index vs. triple store) is always consistent;
* every estimator's census estimate equals the true population accuracy;
* Eq. (10) is non-negative, decreasing in m, and equals the pure
  between-cluster variance for large m;
* the cost model is additive and monotone;
* allocation routines conserve the total sample size;
* the RS evaluator's reservoir never exceeds its capacity and keeps keys in (0, 1].
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluationConfig
from repro.cost.model import CostModel
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.generators.datasets import LabelledKG
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.variance import twcs_v_of_m
from repro.sampling.wcs import WeightedClusterDesign
from repro.stats.allocation import (
    cumulative_sqrt_frequency_boundaries,
    neyman_allocation,
    proportional_allocation,
)
from repro.stats.ci import wilson_interval
from repro.stats.running import RunningMean

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

cluster_spec = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=25,
)


def build_kg(spec: list[tuple[int, float]]) -> tuple[KnowledgeGraph, LabelOracle]:
    """Build a KG from (cluster_size, accuracy) pairs with deterministic labels."""
    graph = KnowledgeGraph(name="prop")
    labels: dict[Triple, bool] = {}
    for entity_index, (size, accuracy) in enumerate(spec):
        num_correct = int(round(size * accuracy))
        for triple_index in range(size):
            triple = Triple(f"e{entity_index}", "p", f"o{entity_index}_{triple_index}")
            graph.add(triple)
            labels[triple] = triple_index < num_correct
    return graph, LabelOracle(labels)


def census(design, graph, oracle, draws):
    design.update_all_positions(design.draw_positions(draws), oracle.as_position_array(graph))
    return design.estimate()


# ---------------------------------------------------------------------------
# Knowledge graph invariants
# ---------------------------------------------------------------------------


class TestGraphInvariants:
    @given(cluster_spec)
    @settings(max_examples=60, deadline=None)
    def test_cluster_index_consistent_with_triples(self, spec):
        graph, _ = build_kg(spec)
        assert graph.num_triples == sum(graph.cluster_sizes().values())
        assert graph.num_entities == len(graph.cluster_sizes())
        for cluster in graph.clusters():
            assert cluster.size == graph.cluster_size(cluster.entity_id)
            assert all(t.subject == cluster.entity_id for t in cluster)

    @given(cluster_spec, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_subset_and_sampling_preserve_membership(self, spec, seed):
        graph, _ = build_kg(spec)
        rng = np.random.default_rng(seed)
        count = rng.integers(1, graph.num_triples + 1)
        sample = graph.sample_triples(int(count), rng)
        assert len(set(sample)) == len(sample)
        assert all(t in graph for t in sample)


# ---------------------------------------------------------------------------
# Estimator invariants
# ---------------------------------------------------------------------------


class TestEstimatorInvariants:
    @given(cluster_spec, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_census_estimates_equal_truth_for_srs_and_rcs(self, spec, seed):
        graph, oracle = build_kg(spec)
        truth = oracle.true_accuracy(graph)
        srs = census(SimpleRandomDesign(graph, seed=seed), graph, oracle, graph.num_triples)
        np.testing.assert_allclose(srs.value, truth, atol=1e-12)
        rcs = census(RandomClusterDesign(graph, seed=seed), graph, oracle, graph.num_entities)
        np.testing.assert_allclose(rcs.value, truth, atol=1e-12)

    @given(cluster_spec, st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_cluster_estimators_stay_in_unit_interval(self, spec, seed, m):
        graph, oracle = build_kg(spec)
        wcs = census(WeightedClusterDesign(graph, seed=seed), graph, oracle, 15)
        twcs = census(
            TwoStageWeightedClusterDesign(graph, second_stage_size=m, seed=seed),
            graph,
            oracle,
            15,
        )
        for estimate in (wcs, twcs):
            assert 0.0 <= estimate.value <= 1.0
            assert estimate.num_units == 15
            assert estimate.std_error >= 0.0

    @given(cluster_spec, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_twcs_with_huge_m_equals_wcs_value_distributionally(self, spec, seed):
        """When m exceeds every cluster size the two designs annotate the same
        triples per sampled cluster, so their estimates agree for equal seeds."""
        graph, oracle = build_kg(spec)
        wcs = WeightedClusterDesign(graph, seed=seed)
        twcs = TwoStageWeightedClusterDesign(graph, second_stage_size=1000, seed=seed)
        labels = oracle.as_position_array(graph)
        wcs_values = sorted(float(labels[p].mean()) for p, _, _ in wcs.draw_positions(10))
        twcs_values = sorted(float(labels[p].mean()) for p, _, _ in twcs.draw_positions(10))
        # Same sampling probabilities and full-cluster annotation: the multiset
        # of cluster accuracies drawn must be identically distributed; for the
        # same seed the first-stage draws are identical, so values match.
        np.testing.assert_allclose(wcs_values, twcs_values, atol=1e-12)


# ---------------------------------------------------------------------------
# Theoretical variance (Eq. 10)
# ---------------------------------------------------------------------------


class TestVarianceProperties:
    @given(cluster_spec, st.integers(min_value=1, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_v_of_m_non_negative_and_bounded(self, spec, m):
        sizes = [size for size, _ in spec]
        accuracies = [acc for _, acc in spec]
        v = twcs_v_of_m(sizes, accuracies, m)
        assert v >= 0.0
        # A [0,1]-valued estimator's single-draw variance cannot exceed 1.25
        # (between-cluster <= 0.25 ... actually <= 1; keep a loose bound).
        assert v <= 1.0 + 0.25 / m + 1e-9

    @given(cluster_spec)
    @settings(max_examples=60, deadline=None)
    def test_v_of_m_monotone_non_increasing_in_m(self, spec):
        sizes = [size for size, _ in spec]
        accuracies = [acc for _, acc in spec]
        values = [twcs_v_of_m(sizes, accuracies, m) for m in range(1, 15)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(cluster_spec)
    @settings(max_examples=60, deadline=None)
    def test_v_of_m_limits(self, spec):
        sizes = [size for size, _ in spec]
        accuracies = [acc for _, acc in spec]
        total = sum(sizes)
        mu = sum(s * a for s, a in zip(sizes, accuracies)) / total
        between = sum(s * (a - mu) ** 2 for s, a in zip(sizes, accuracies)) / total
        v_large = twcs_v_of_m(sizes, accuracies, max(sizes))
        assert v_large >= between - 1e-12
        v_huge = twcs_v_of_m(sizes, accuracies, max(sizes) + 100)
        np.testing.assert_allclose(v_huge, between, atol=1e-12)


# ---------------------------------------------------------------------------
# Cost model, allocation, CI, running mean, reservoir
# ---------------------------------------------------------------------------


class TestCostModelProperties:
    @given(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_additive_and_monotone(self, e1, t1, e2, t2):
        model = CostModel()
        combined = model.cost_seconds(e1 + e2, t1 + t2)
        assert combined == model.cost_seconds(e1, t1) + model.cost_seconds(e2, t2)
        assert model.cost_seconds(e1 + 1, t1) >= model.cost_seconds(e1, t1)
        assert model.cost_seconds(e1, t1 + 1) >= model.cost_seconds(e1, t1)


class TestAllocationProperties:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_proportional_allocation_conserves_total(self, weights, total):
        allocation = proportional_allocation(weights, total)
        assert sum(allocation) == total
        assert all(a >= 0 for a in allocation)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_neyman_allocation_conserves_total(self, strata, total):
        weights = [w for w, _ in strata]
        stds = [s for _, s in strata]
        allocation = neyman_allocation(weights, stds, total)
        assert sum(allocation) == total

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_cum_sqrt_f_boundaries_sorted_and_bounded(self, values, num_strata):
        boundaries = cumulative_sqrt_frequency_boundaries(values, num_strata)
        assert len(boundaries) <= num_strata - 1
        assert boundaries == sorted(boundaries)
        assert len(set(boundaries)) == len(boundaries)


class TestStatsProperties:
    @given(
        st.integers(min_value=1, max_value=10_000).flatmap(
            lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))
        ),
        st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=100, deadline=None)
    def test_wilson_interval_contains_point_estimate(self, counts, confidence):
        successes, trials = counts
        interval = wilson_interval(successes, trials, confidence)
        assert 0.0 <= interval.lower <= interval.estimate <= interval.upper <= 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_running_mean_matches_numpy(self, values):
        running = RunningMean()
        running.add_all(values)
        np.testing.assert_allclose(running.mean, np.mean(values), rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(
            running.sample_variance, np.var(values, ddof=1), rtol=1e-7, atol=1e-5
        )


class TestReservoirProperties:
    @given(
        # EvaluationConfig needs at least two units.
        st.integers(min_value=2, max_value=20),
        cluster_spec,
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_reservoir_size_and_keys(self, capacity, spec, seed):
        graph, oracle = build_kg(spec)
        config = EvaluationConfig(batch_size=capacity, min_units=capacity, max_units=capacity)
        evaluator = ReservoirIncrementalEvaluator(
            LabelledKG(graph, oracle), config=config, seed=seed
        )
        evaluator.evaluate_base()
        assert evaluator.reservoir_size == min(capacity, len(spec))
        kept = [entry for *_, entry in evaluator._reservoir]
        waiting = [-candidate[0] for candidate in evaluator._candidates]
        # Every cluster is keyed once: it is either kept or waits as a candidate.
        assert len(kept) + len(waiting) == len(spec)
        rows = [entry.source[1] for entry in kept]
        assert len(set(rows)) == len(rows)
        kept_keys = [entry.key for entry in kept]
        assert all(0.0 < key <= 1.0 for key in kept_keys + waiting)
        if kept:
            assert math.isfinite(min(kept_keys))
        if kept and waiting:
            # A-Res keeps the largest keys.
            assert min(kept_keys) >= max(waiting)
