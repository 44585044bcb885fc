"""Evolving evaluation on positions: delta store, segments, backend parity.

The core contract under test: an incremental evaluator consumes the random
stream identically on every storage backend, so a fixed seed must produce
bit-identical estimate trajectories on a columnar base, evolved zero-copy
through a :class:`DeltaStore` view, and on a SQLite base, which evolves
through a columnar copy — for *any* update sequence (hypothesis-generated),
including duplicate insertions.  Both legs append through the same delta
code, so the evolved graph and its ground truth are also checked against
:class:`store_model.StoreModel`, which shares no code with any store.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from store_model import StoreModel, assert_matches_model

from repro.core.config import EvaluationConfig
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple, triple_columns
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch
from repro.labels.oracle import LabelOracle
from repro.sampling.segment import PositionSegment
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.stats.running import RunningMean
from repro.storage.columnar import ColumnarStore
from repro.storage.delta import DeltaStore

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

cluster_spec = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=15,
)

# Each batch: a list of (subject selector, cluster size, accuracy, duplicate?).
batch_spec = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def build_base(spec: list[tuple[int, float]]) -> tuple[list[Triple], dict[Triple, bool]]:
    triples: list[Triple] = []
    labels: dict[Triple, bool] = {}
    for entity_index, (size, accuracy) in enumerate(spec):
        num_correct = int(round(size * accuracy))
        for triple_index in range(size):
            triple = Triple(f"e{entity_index}", "p", f"o{entity_index}_{triple_index}")
            triples.append(triple)
            labels[triple] = triple_index < num_correct
    return triples, labels


def build_updates(
    spec: list[tuple[int, float]],
    batch_specs: list[list[tuple[int, int, float, bool]]],
    base_triples: list[Triple],
) -> list[UpdateBatch]:
    updates = []
    counter = 0
    for batch_index, entries in enumerate(batch_specs):
        triples: list[Triple] = []
        labels: list[bool] = []
        for selector, size, accuracy, duplicate in entries:
            if duplicate and base_triples:
                # Re-insert an existing triple: both backends must skip it
                # identically (it keeps its original label, not this one).
                triples.append(base_triples[selector % len(base_triples)])
                labels.append(False)
                continue
            subject = f"e{selector % (len(spec) + 8)}"
            num_correct = int(round(size * accuracy))
            for j in range(size):
                triples.append(Triple(subject, "ins", f"new_{counter}"))
                labels.append(j < num_correct)
                counter += 1
        updates.append(UpdateBatch.from_triples(f"delta-{batch_index}", triples, labels))
    return updates


def assert_evolved_like_model(evaluator, base_triples, base_labels, updates) -> None:
    """The evolved graph and its true accuracy, against the pure-Python model."""
    model = StoreModel(base_triples)
    labels = dict(base_labels)
    for batch in updates:
        added = model.add_all(batch.triples)
        labels.update(
            (triple, label)
            for triple, label, new in zip(batch.triples, batch.label_array.tolist(), added)
            if new
        )
    assert_matches_model(evaluator.evolving.current, model)
    expected = np.asarray([labels[t] for t in model.triples], dtype=bool).mean()
    assert evaluator.current_true_accuracy() == float(expected)


def run_position_evaluator(evaluator_cls, base: LabelledKG, updates, seed: int):
    config = EvaluationConfig(moe_target=0.15, batch_size=5, min_units=5, max_units=40)
    evaluator = evaluator_cls(base, config=config, seed=seed)
    states = [evaluator.evaluate_base()]
    for batch in updates:
        states.append(evaluator.apply_update(batch))
    trail = [
        (
            state.accuracy,
            state.report.margin_of_error,
            state.report.num_triples_annotated,
            state.cumulative_cost_seconds,
        )
        for state in states
    ]
    return evaluator, trail


# ---------------------------------------------------------------------------
# Cross-backend parity
# ---------------------------------------------------------------------------


class TestBackendParity:
    @given(
        spec=cluster_spec,
        batch_specs=st.lists(batch_spec, min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_stratified_estimates_bit_identical(self, spec, batch_specs, seed):
        base_triples, base_labels = build_base(spec)
        updates = build_updates(spec, batch_specs, base_triples)
        oracle = LabelOracle(base_labels)

        columnar_base = LabelledKG(KnowledgeGraph(base_triples, name="p"), oracle)
        sqlite_base = LabelledKG(columnar_base.graph.to_sqlite(), oracle)

        col_eval, columnar_trail = run_position_evaluator(
            StratifiedIncrementalEvaluator, columnar_base, updates, seed
        )
        sq_eval, sqlite_trail = run_position_evaluator(
            StratifiedIncrementalEvaluator, sqlite_base, updates, seed
        )
        sqlite_base.graph.backend.close()
        assert isinstance(col_eval.evolving.current.backend, DeltaStore)
        assert sqlite_trail == columnar_trail
        for evaluator in (col_eval, sq_eval):
            assert_evolved_like_model(evaluator, base_triples, base_labels, updates)

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_reservoir_estimates_bit_identical(self, seed):
        spec = [(6, 0.9), (3, 0.5), (9, 1.0), (1, 0.0), (4, 0.75)] * 4
        base_triples, base_labels = build_base(spec)
        batch_specs = [[(i, 3, 0.6, False), (i + 1, 2, 0.9, False)] for i in range(3)]
        updates = build_updates(spec, batch_specs, base_triples)
        oracle = LabelOracle(base_labels)

        columnar_base = LabelledKG(KnowledgeGraph(base_triples, name="p"), oracle)
        sqlite_base = LabelledKG(columnar_base.graph.to_sqlite(), oracle)
        col_eval, columnar_trail = run_position_evaluator(
            ReservoirIncrementalEvaluator, columnar_base, updates, seed
        )
        sq_eval, sqlite_trail = run_position_evaluator(
            ReservoirIncrementalEvaluator, sqlite_base, updates, seed
        )
        sqlite_base.graph.backend.close()
        assert sqlite_trail == columnar_trail
        for evaluator in (col_eval, sq_eval):
            assert_evolved_like_model(evaluator, base_triples, base_labels, updates)

    def test_position_labels_short_circuits_oracle(self):
        spec = [(5, 0.8), (4, 1.0), (6, 0.5)]
        base_triples, base_labels = build_base(spec)
        graph = KnowledgeGraph(base_triples, name="p").to_columnar()
        label_array = np.asarray([base_labels[t] for t in graph.triples], dtype=bool)
        # A stored label array is the whole oracle: no Triple-keyed mapping.
        base = LabelledKG(graph, LabelOracle.from_positions(graph, label_array))
        updates = build_updates(spec, [[(0, 2, 1.0, False)]], base_triples)
        evaluator, trail = run_position_evaluator(StratifiedIncrementalEvaluator, base, updates, 3)
        assert "_labels" not in vars(base.oracle)
        assert evaluator.current_true_accuracy() == pytest.approx(
            (label_array.sum() + 2) / (label_array.shape[0] + 2)
        )
        assert all(0.0 <= accuracy <= 1.0 for accuracy, *_ in trail)


# ---------------------------------------------------------------------------
# DeltaStore contract
# ---------------------------------------------------------------------------


def add_columns(delta: DeltaStore, triples) -> list[bool]:
    """``DeltaStore.add_batch`` of ``triples``, given as columns."""
    return delta.add_batch(*triple_columns(list(triples))).tolist()


class TestDeltaStore:
    def make_pair(self, base_triples: list[Triple]):
        base = ColumnarStore.from_graph(base_triples)
        return DeltaStore(base), base

    def test_zero_copy_view_of_base(self):
        base_triples, _ = build_base([(3, 1.0), (2, 0.5)])
        delta, base = self.make_pair(base_triples)
        assert delta.num_triples == base.num_triples
        assert delta.num_entities == base.num_entities
        assert list(delta.iter_triples()) == base_triples
        assert delta.num_tail_triples == 0

    def test_duplicate_inserts_rejected(self):
        base_triples, _ = build_base([(3, 1.0), (2, 0.5)])
        delta, _ = self.make_pair(base_triples)
        assert add_columns(delta, base_triples) == [False] * len(base_triples)
        fresh = Triple("e0", "ins", "x0")
        assert delta.add(fresh) is True
        assert delta.add(fresh) is False
        # Cross-batch duplicate: the same triple arriving in a later batch.
        assert add_columns(delta, [fresh, Triple("e9", "ins", "x1")]) == [False, True]
        # Within-batch duplicate keeps the first occurrence only.
        twin = Triple("e9", "ins", "x2")
        assert add_columns(delta, [twin, twin]) == [True, False]

    def test_matches_reference_backend_after_updates(self):
        base_triples, _ = build_base([(4, 1.0), (1, 0.0), (6, 0.5)])
        delta, _ = self.make_pair(base_triples)
        inserts = [
            Triple("e1", "ins", "n0"),  # enrich existing entity
            Triple("zz", "ins", "n1"),  # brand-new entity
            Triple("e0", "ins", "n2"),
            Triple("zz", "ins", "n3"),
        ]
        add_columns(delta, inserts[:2])
        add_columns(delta, inserts[2:])
        assert_matches_model(KnowledgeGraph(backend=delta), StoreModel(base_triples + inserts))

    def test_merged_csr_matches_fresh_columnar_build(self):
        base_triples, _ = build_base([(4, 1.0), (2, 0.0)])
        delta, _ = self.make_pair(base_triples)
        inserts = [Triple("e0", "ins", "a"), Triple("q", "ins", "b"), Triple("e1", "ins", "c")]
        add_columns(delta, inserts)
        rebuilt = ColumnarStore.from_graph(base_triples + inserts)
        offsets, positions = delta.csr_arrays()
        expected_offsets, expected_positions = rebuilt.csr_arrays()
        np.testing.assert_array_equal(np.asarray(offsets), np.asarray(expected_offsets))
        np.testing.assert_array_equal(np.asarray(positions), np.asarray(expected_positions))

    def test_triple_positions_stable_across_appends(self):
        base_triples, _ = build_base([(2, 1.0)])
        delta, _ = self.make_pair(base_triples)
        delta.add(Triple("e0", "ins", "t0"))
        assert delta.triple_at(2) == Triple("e0", "ins", "t0")
        assert delta.triple_at(0) == base_triples[0]
        with pytest.raises(IndexError):
            delta.triple_at(3)

    def test_restore_tail_reproduces_the_original(self):
        """A captured tail replayed on a fresh view over the same base reads
        back like the view that wrote it, and both skip the same triples of
        a following batch."""
        base_triples, _ = build_base([(3, 1.0), (2, 0.5), (1, 0.0)])
        original, base = self.make_pair(base_triples)
        inserts = [
            Triple("e1", "ins", "n0"),  # enrich existing entity
            Triple("zz", "ins", "n1", is_entity_object=True),  # brand-new entity
            Triple("o0_1", "ins", "n2"),  # new subject first seen as an object
            base_triples[0],  # base duplicate
            Triple("zz", "ins", "n3"),
            Triple("e1", "ins", "n0"),  # tail duplicate
        ]
        add_columns(original, inserts[:3])
        add_columns(original, inserts[3:])
        restored = DeltaStore(base)
        # Each view interns its own strings: give the new one the original's,
        # in order, so the captured ids name the same strings.
        assert len(base.vocab) == original.vocab.offset
        vocab = original.vocab
        restored.vocab.intern_many([vocab[i] for i in range(vocab.offset, len(vocab))])
        restored.restore_tail(*original.tail_arrays())
        for left, right in zip(original.csr_arrays(), restored.csr_arrays()):
            np.testing.assert_array_equal(np.asarray(left), np.asarray(right))
        np.testing.assert_array_equal(original.cluster_size_array(), restored.cluster_size_array())
        assert restored.entity_ids() == original.entity_ids()
        assert list(restored.iter_triples()) == list(original.iter_triples())
        for triple in [*base_triples, *inserts, Triple("zz", "ins", "absent")]:
            assert restored.contains(triple) == original.contains(triple)
        follow = [inserts[2], base_triples[1], Triple("o0_1", "ins", "n4"), Triple("yy", "p", "q")]
        expected = [False, False, True, True]
        assert add_columns(restored, follow) == add_columns(original, follow) == expected

    def test_evolving_graph_uses_delta_store_on_columnar_base(self):
        base_triples, _ = build_base([(3, 1.0)])
        columnar = KnowledgeGraph(base_triples, name="b").to_columnar()
        evolving = EvolvingKnowledgeGraph(columnar)
        assert isinstance(evolving.current.backend, DeltaStore)
        batch = UpdateBatch.from_triples(
            "d", (Triple("e0", "ins", "x"), base_triples[0]), [True, True]
        )
        assert evolving.apply(batch).tolist() == [True, False]
        assert evolving.current.num_triples == columnar.num_triples + 1
        # The frozen base graph is untouched.
        assert columnar.num_triples == len(base_triples)

    def test_adding_to_a_shared_base_leaves_the_evolved_graph_unchanged(self):
        """A base graph that grows after an evolving graph was laid over its
        columns grows a view of its own; the evolved graph reads as before."""
        base_triples = [Triple("e0", "p", "a"), Triple("e1", "p", "b"), Triple("e0", "q", "c")]
        batch = (Triple("e2", "p", "d"), Triple("e0", "r", "e"))
        grown = [Triple("e1", "q", "f"), Triple("e3", "p", "g"), Triple("e0", "s", "h")]
        base = KnowledgeGraph(base_triples, name="b")
        evolving = EvolvingKnowledgeGraph(base)
        evolving.apply(UpdateBatch.from_triples("d", batch, [True] * len(batch)))
        base.add(grown[0])
        base.add_batch(grown[1:])
        evolved, twin = evolving.current, KnowledgeGraph(base_triples + list(batch))
        for left, right in zip(evolved.backend.csr_arrays(), twin.backend.csr_arrays()):
            np.testing.assert_array_equal(np.asarray(left), np.asarray(right))
        assert (evolved.num_triples, evolved.num_entities) == (5, 3)
        assert evolved.cluster_size_array().tolist() == twin.cluster_size_array().tolist()
        assert tuple(evolved.entity_ids) == tuple(twin.entity_ids)
        assert [evolved.entity_row(e) for e in twin.entity_ids] == [0, 1, 2]
        assert evolved.triples_at(range(5)) == twin.triples_at(range(5))
        assert_matches_model(base, StoreModel(base_triples + grown))

    @pytest.mark.parametrize("kind", ["delta", "sqlite"])
    def test_any_base_evolves_like_its_columnar_twin(self, nell, kind):
        """An evolved graph or a SQLite graph evolves, as a delta view over a
        columnar copy, exactly like the same triples evolved from columns —
        and both match the pure-Python model of the same inserts."""
        workload = UpdateWorkloadGenerator(nell, seed=4)
        first, _ = workload.generate_batch(40, 0.8)
        second, _ = workload.generate_batch(40, 0.8)
        model = StoreModel(nell.graph.triples)
        if kind == "delta":
            columnar = KnowledgeGraph(nell.graph.triples, name="nell")
            grown = EvolvingKnowledgeGraph(columnar)
            grown.apply(first)
            model.add_all(first)
            base = grown.current
        else:
            base = nell.graph.to_sqlite()
        twin = EvolvingKnowledgeGraph(KnowledgeGraph(base.triples, name="nell"))
        evolved = EvolvingKnowledgeGraph(base)
        flags = evolved.apply(second).tolist()
        assert flags == twin.apply(second).tolist() == model.add_all(second)
        assert isinstance(evolved.current.backend, DeltaStore)
        assert evolved.current.num_triples == base.num_triples + sum(flags)
        for graph in (evolved.current, twin.current):
            assert_matches_model(graph, model)


# ---------------------------------------------------------------------------
# Position segments
# ---------------------------------------------------------------------------


class TestPositionSegment:
    def test_from_rows_groups_by_subject_in_first_seen_order(self):
        """A batch appended to a graph, its repeat of a stored triple skipped:
        the segment groups the appended positions by subject, clusters in
        first-seen order, each with its subject's row in the evolved graph."""
        base_triples = [Triple("z", "p", "0"), Triple("c", "p", "4")]
        evolving = EvolvingKnowledgeGraph(KnowledgeGraph(base_triples, name="b"))
        triples = (
            Triple("a", "p", "1"),
            Triple("c", "p", "2"),
            Triple("a", "p", "3"),
            Triple("c", "p", "4"),
        )
        first = evolving.current.num_triples
        added = evolving.apply(UpdateBatch.from_triples("d", triples, [True] * 4))
        assert added.tolist() == [True, True, True, False]
        rows = evolving.current.backend.appended_rows(first)
        segment = PositionSegment.from_rows(rows, first)
        current = evolving.current
        assert segment.rows.tolist() == [current.entity_row("a"), current.entity_row("c")]
        assert segment.rows.tolist() == [2, 1]
        assert segment.num_clusters == 2
        np.testing.assert_array_equal(segment.cluster_positions(0), [2, 4])
        np.testing.assert_array_equal(segment.cluster_positions(1), [3])
        assert segment.num_triples == 3
        np.testing.assert_array_equal(segment.cluster_size_array(), [2, 1])

    def test_segment_design_estimates_population(self):
        segment = PositionSegment.from_rows(np.arange(40) // 4, 0)
        label_array = np.zeros(40, dtype=bool)
        label_array[:30] = True  # 75 % accurate
        design = TwoStageWeightedClusterDesign(segment, second_stage_size=3, seed=0)
        design.update_all_positions(design.draw_positions(300), label_array)
        estimate = design.estimate()
        assert estimate.value == pytest.approx(0.75, abs=0.1)
        assert estimate.num_units == 300

    def test_twcs_draws_capped_clusters_of_the_segment(self):
        sizes = [1, 7, 3, 12, 2]
        segment = PositionSegment.from_rows(np.repeat(np.arange(len(sizes)), sizes), 500)
        np.testing.assert_array_equal(segment.cluster_size_array(), sizes)
        design = TwoStageWeightedClusterDesign(segment, second_stage_size=3, seed=4)
        for positions, cluster, cluster_size in design.draw_positions(200):
            population = segment.cluster_positions(cluster)
            assert cluster_size == sizes[cluster]
            assert len(positions) == min(3, cluster_size)
            assert len(set(positions.tolist())) == len(positions)
            assert set(positions.tolist()) <= set(population.tolist())

    def test_empty_segment_rejected(self):
        segment = PositionSegment.from_rows(np.empty(0, dtype=np.int64), 0)
        with pytest.raises(ValueError):
            TwoStageWeightedClusterDesign(segment)


# ---------------------------------------------------------------------------
# Running stats / account
# ---------------------------------------------------------------------------


class TestRunningMeanRemove:
    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=60),
        st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=80, deadline=None)
    def test_remove_matches_recompute(self, values, remove_index):
        remove_index %= len(values)
        running = RunningMean()
        running.add_all(values)
        running.remove(values[remove_index])
        remaining = values[:remove_index] + values[remove_index + 1 :]
        np.testing.assert_allclose(running.mean, np.mean(remaining), rtol=1e-7, atol=1e-7)
        if len(remaining) >= 2:
            np.testing.assert_allclose(
                running.sample_variance, np.var(remaining, ddof=1), rtol=1e-5, atol=1e-5
            )

    def test_remove_to_empty_and_underflow(self):
        running = RunningMean()
        running.add(3.0)
        running.remove(3.0)
        assert running.count == 0
        assert running.mean == 0.0
        with pytest.raises(ValueError):
            running.remove(1.0)


# ---------------------------------------------------------------------------
# Reservoir running-stats consistency (the O(1) margin-check fix)
# ---------------------------------------------------------------------------


class TestReservoirRunningStats:
    def test_stats_match_recomputation_after_updates(self):
        spec = [(5, 0.9), (2, 0.5), (7, 1.0), (3, 0.0)] * 5
        base_triples, base_labels = build_base(spec)
        base = LabelledKG(KnowledgeGraph(base_triples, name="p"), LabelOracle(base_labels))
        evaluator = ReservoirIncrementalEvaluator(
            base,
            config=EvaluationConfig(moe_target=0.1, batch_size=5, min_units=5, max_units=30),
            seed=11,
        )
        evaluator.evaluate_base()
        updates = build_updates(spec, [[(0, 3, 0.5, False), (50, 2, 1.0, False)]], base_triples)
        for batch in updates:
            evaluator.apply_update(batch)
        accuracies = [entry.accuracy for _, _, entry in evaluator._reservoir]
        estimate = evaluator._current_estimate()
        np.testing.assert_allclose(estimate.value, np.mean(accuracies), rtol=1e-12)
        expected_std_error = (
            np.std(accuracies, ddof=1) / math.sqrt(len(accuracies))
            if len(accuracies) >= 2
            else math.inf
        )
        np.testing.assert_allclose(estimate.std_error, expected_std_error, rtol=1e-9)
        assert estimate.num_units == evaluator.reservoir_size


class TestReviewRegressions:
    def test_duplicate_only_batch_adds_no_stratum_on_either_surface(self):
        spec = [(5, 0.8), (4, 1.0), (6, 0.5)] * 3
        base_triples, base_labels = build_base(spec)
        oracle = LabelOracle(base_labels)
        duplicate_batch = UpdateBatch.from_triples("dup", base_triples[:6], [False] * 6)
        for make_graph in (
            lambda: KnowledgeGraph(base_triples, name="p"),
            lambda: KnowledgeGraph(base_triples, name="p").to_columnar(),
        ):
            evaluator = StratifiedIncrementalEvaluator(
                LabelledKG(make_graph(), oracle),
                config=EvaluationConfig(moe_target=0.2, batch_size=5, min_units=5),
                seed=3,
            )
            evaluator.evaluate_base()
            state = evaluator.apply_update(duplicate_batch)
            assert evaluator.num_strata == 1  # no stratum for an all-duplicate batch
            assert state.report.num_triples_annotated == 0

    def test_object_stratum_weight_excludes_duplicates(self):
        spec = [(5, 0.8), (4, 1.0), (6, 0.5)] * 3
        base_triples, base_labels = build_base(spec)
        evaluator = StratifiedIncrementalEvaluator(
            LabelledKG(KnowledgeGraph(base_triples, name="p"), LabelOracle(base_labels)),
            config=EvaluationConfig(moe_target=0.2, batch_size=5, min_units=5),
            seed=3,
        )
        evaluator.evaluate_base()
        fresh = tuple(Triple("e0", "ins", f"w{i}") for i in range(4))
        mixed = UpdateBatch.from_triples("mixed", tuple(base_triples[:5]) + fresh, [True] * 9)
        evaluator.apply_update(mixed)
        # The new stratum covers only the 4 actually-added triples, so the
        # combined weights sum to the evolved graph's triple count.
        assert evaluator._strata[-1].num_triples == len(fresh)
        total = sum(stratum.num_triples for stratum in evaluator._strata)
        assert total == evaluator.evolving.current.num_triples

    def test_reservoir_regrow_reuses_evicted_annotations_for_free(self):
        spec = [(6, 0.9), (3, 0.5), (9, 1.0), (4, 0.75)] * 5
        base_triples, base_labels = build_base(spec)
        base = LabelledKG(KnowledgeGraph(base_triples, name="p"), LabelOracle(base_labels))
        evaluator = ReservoirIncrementalEvaluator(
            base,
            config=EvaluationConfig(moe_target=0.2, batch_size=5, min_units=5, max_units=10),
            seed=4,
        )
        evaluator.evaluate_base()
        # Evict the current minimum entry by hand and push it back as a
        # candidate, as apply_update does on replacement.
        evicted = evaluator._pop_reservoir_min()
        evaluator._push_position_candidate(
            evicted.source, evicted.key, evicted.weight, evicted.positions
        )
        cost_before = evaluator.account.total_cost_seconds
        evaluator._grow_reservoir(1)
        regrown = next(
            entry for _, _, entry in evaluator._reservoir if entry.key == evicted.key
        )
        # Identical sample, identical accuracy, zero re-annotation cost.
        assert evaluator.account.total_cost_seconds == cost_before
        np.testing.assert_array_equal(regrown.positions, evicted.positions)
        assert regrown.accuracy == evicted.accuracy
