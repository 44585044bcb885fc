"""DeltaStore periodic re-freeze (compaction) keeps reads and draws identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.storage.columnar import ColumnarStore
from repro.storage.delta import DeltaStore


def _base_store(num_entities: int = 40, seed: int = 0) -> ColumnarStore:
    rng = np.random.default_rng(seed)
    store = ColumnarStore()
    graph = KnowledgeGraph(name="base", backend=store)
    for entity in range(num_entities):
        for index in range(int(rng.integers(1, 8))):
            graph.add(Triple(f"e{entity}", f"p{index % 3}", f"o{entity}_{index}"))
    store.finalize()
    return store


def _random_batch(rng: np.random.Generator, batch_id: int, existing: list[Triple]) -> UpdateBatch:
    """A batch mixing fresh triples with duplicates of already-present ones."""
    triples: list[Triple] = []
    for index in range(int(rng.integers(3, 10))):
        entity = int(rng.integers(0, 60))
        triples.append(Triple(f"e{entity}", "p-new", f"n{batch_id}_{index}"))
    duplicates = min(len(existing), int(rng.integers(0, 4)))
    if duplicates:
        chosen = rng.choice(len(existing), size=duplicates, replace=False)
        triples.extend(existing[int(i)] for i in chosen)
    rng.shuffle(triples)
    return UpdateBatch(f"delta-{batch_id}", tuple(triples))


def _apply_stream(store: ColumnarStore, num_batches: int, seed: int = 7) -> DeltaStore:
    delta = DeltaStore(store)
    rng = np.random.default_rng(seed)
    existing = list(store.iter_triples())
    for batch_id in range(num_batches):
        batch = _random_batch(rng, batch_id, existing)
        flags = delta.add_batch(list(batch.triples))
        existing.extend(t for t, added in zip(batch.triples, flags) if added)
    return delta


def _twcs_estimate(backend, seed: int, labels: np.ndarray):
    graph = KnowledgeGraph(name="g", backend=backend)
    design = TwoStageWeightedClusterDesign(graph, second_stage_size=3, seed=seed)
    for _ in range(12):
        units = design.draw_positions(25)
        design.update_all_positions(units, labels)
    return design.estimate()


class TestCompactStructure:
    def test_compact_preserves_positions_rows_and_csr(self):
        delta = _apply_stream(_base_store(), num_batches=12)
        entity_ids = list(delta.entity_ids())
        positions_before = {e: delta.cluster_positions(e).tolist() for e in entity_ids}
        offsets_before, csr_positions_before = delta.csr_arrays()
        triples_before = list(delta.iter_triples())
        num_triples, num_entities = delta.num_triples, delta.num_entities

        delta.compact()

        assert delta.num_tail_triples == 0
        assert delta.num_triples == num_triples
        assert delta.num_entities == num_entities
        assert list(delta.entity_ids()) == entity_ids
        for entity_id in entity_ids:
            assert delta.cluster_positions(entity_id).tolist() == positions_before[entity_id]
        offsets_after, csr_positions_after = delta.csr_arrays()
        np.testing.assert_array_equal(offsets_before, offsets_after)
        np.testing.assert_array_equal(
            np.asarray(csr_positions_before), np.asarray(csr_positions_after)
        )
        assert list(delta.iter_triples()) == triples_before
        for triple in triples_before[:20]:
            assert delta.contains(triple)

    def test_append_and_dedup_after_compact(self):
        delta = _apply_stream(_base_store(), num_batches=5)
        known = next(iter(delta.iter_triples()))
        delta.compact()
        assert delta.add(known) is False  # dedup against the re-frozen base
        fresh = Triple("e0", "p-new", "post-compact")
        before = delta.num_triples
        assert delta.add(fresh) is True
        assert delta.num_triples == before + 1
        assert delta.cluster_positions("e0")[-1] == before
        # A second compaction folds the new tail in as well.
        delta.compact()
        assert delta.contains(fresh)
        assert delta.num_tail_triples == 0

    def test_maybe_compact_threshold(self):
        delta = DeltaStore(_base_store())
        assert delta.maybe_compact(threshold=0.5, min_tail=4) is False  # empty tail
        for index in range(6):
            delta.add(Triple("e0", "p", f"t{index}"))
        assert delta.maybe_compact(threshold=0.5, min_tail=100) is False  # below min_tail
        assert delta.maybe_compact(threshold=10.0, min_tail=4) is False  # below ratio
        assert delta.maybe_compact(threshold=0.01, min_tail=4) is True
        assert delta.num_tail_triples == 0
        with pytest.raises(ValueError):
            delta.maybe_compact(threshold=0.0)

    def test_invalid_compact_threshold_fails_fast(self):
        base = KnowledgeGraph(name="base", backend=_base_store())
        with pytest.raises(ValueError, match="compact_threshold"):
            EvolvingKnowledgeGraph(base, compact_threshold=0.0)
        with pytest.raises(ValueError, match="compact_threshold"):
            EvolvingKnowledgeGraph(base, compact_threshold=-1.0)


class TestCompactEstimates:
    def test_estimates_bit_identical_pre_post_compaction(self):
        """Same seed, same labels: compacted and layered stores draw identically."""
        layered = _apply_stream(_base_store(), num_batches=15)
        compacted = _apply_stream(_base_store(), num_batches=15)
        assert layered.num_triples == compacted.num_triples
        compacted.compact()
        labels = np.random.default_rng(11).random(layered.num_triples) < 0.85
        for seed in (0, 1, 2):
            assert _twcs_estimate(layered, seed, labels) == _twcs_estimate(
                compacted, seed, labels
            )
        srs_a = SimpleRandomDesign(KnowledgeGraph(name="a", backend=layered), seed=5)
        srs_b = SimpleRandomDesign(KnowledgeGraph(name="b", backend=compacted), seed=5)
        units_a = srs_a.draw_positions(50)
        units_b = srs_b.draw_positions(50)
        assert [u.positions.tolist() for u in units_a] == [
            u.positions.tolist() for u in units_b
        ]

    def test_long_duplicate_stream_with_periodic_compaction(self):
        """100+ batches with duplicates: periodic re-freeze changes nothing."""
        plain = _apply_stream(_base_store(), num_batches=110, seed=23)
        periodic_base = _base_store()
        periodic = DeltaStore(periodic_base)
        rng = np.random.default_rng(23)
        existing = list(periodic_base.iter_triples())
        for batch_id in range(110):
            batch = _random_batch(rng, batch_id, existing)
            flags = periodic.add_batch(list(batch.triples))
            existing.extend(t for t, added in zip(batch.triples, flags) if added)
            periodic.maybe_compact(threshold=0.1, min_tail=64)
        assert periodic.num_triples == plain.num_triples
        assert periodic.num_entities == plain.num_entities
        assert list(periodic.entity_ids()) == list(plain.entity_ids())
        labels = np.random.default_rng(3).random(plain.num_triples) < 0.9
        assert _twcs_estimate(plain, 9, labels) == _twcs_estimate(periodic, 9, labels)


class TestEvolvingAutoCompaction:
    def test_evolving_graph_auto_compacts(self):
        base = KnowledgeGraph(name="base", backend=_base_store())
        evolving = EvolvingKnowledgeGraph(base, compact_threshold=0.05, compact_min_tail=8)
        rng = np.random.default_rng(1)
        existing = list(base)
        for batch_id in range(30):
            batch = _random_batch(rng, batch_id, existing)
            flags = evolving.apply(batch)
            existing.extend(t for t, added in zip(batch.triples, flags) if added)
        assert evolving.compactions > 0
        backend = evolving.current.backend
        assert isinstance(backend, DeltaStore)
        # The evolved view matches an un-compacted replay triple for triple.
        reference = EvolvingKnowledgeGraph(
            KnowledgeGraph(name="ref", backend=_base_store())
        )
        rng = np.random.default_rng(1)
        existing = list(reference.base)
        for batch_id in range(30):
            batch = _random_batch(rng, batch_id, existing)
            flags = reference.apply(batch)
            existing.extend(t for t, added in zip(batch.triples, flags) if added)
        assert reference.current.num_triples == evolving.current.num_triples
        assert list(reference.current) == list(evolving.current)

    def test_evaluator_compact_threshold_keeps_trajectory_bit_identical(self):
        from repro.core.config import EvaluationConfig
        from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
        from repro.generators.datasets import LabelledKG, make_nell_like
        from repro.generators.workload import UpdateWorkloadGenerator

        config = EvaluationConfig(moe_target=0.06)
        trajectories = []
        compactions = []
        for threshold in (None, 0.01):
            data = make_nell_like(seed=0)
            base = LabelledKG(data.graph.to_columnar(), data.oracle)
            workload = UpdateWorkloadGenerator(base, seed=5)
            evaluator = StratifiedIncrementalEvaluator(
                base, config=config, seed=13, compact_threshold=threshold
            )
            evaluator.evolving.compact_min_tail = 16
            evaluator.evaluate_base()
            for batch, batch_oracle in workload.generate_sequence(4, 150, 0.8):
                evaluator.apply_update(batch, batch_oracle)
            trajectories.append(
                [(e.batch_id, e.accuracy, e.cumulative_cost_seconds) for e in evaluator.history]
            )
            compactions.append(evaluator.evolving.compactions)
        assert compactions[0] == 0 and compactions[1] > 0
        assert trajectories[0] == trajectories[1]

    def test_state_capture_refuses_compacted_runs(self):
        from repro.evolving.state import capture_evaluator_state
        from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
        from repro.generators.datasets import LabelledKG, make_nell_like
        from repro.generators.workload import UpdateWorkloadGenerator

        data = make_nell_like(seed=0)
        base = LabelledKG(data.graph.to_columnar(), data.oracle)
        workload = UpdateWorkloadGenerator(base, seed=5)
        evaluator = StratifiedIncrementalEvaluator(base, seed=13)
        evaluator.evaluate_base()
        for batch, batch_oracle in workload.generate_sequence(1, 100, 0.8):
            evaluator.apply_update(batch, batch_oracle)
        evaluator.evolving.current.backend.compact()
        with pytest.raises(ValueError, match="compact"):
            capture_evaluator_state(evaluator)
