"""Unit tests for KG evolution, I/O and cluster statistics."""

from __future__ import annotations

import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.io import read_labelled_tsv, read_triples_tsv, write_labelled_tsv, write_triples_tsv
from repro.kg.statistics import (
    cluster_size_summary,
    entity_accuracy_by_size,
    size_accuracy_correlation,
)
from repro.kg.triple import Triple
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch


class TestUpdateBatch:
    def test_size_and_iteration(self):
        triples = tuple(Triple("e1", "p", f"o{i}") for i in range(3))
        batch = UpdateBatch("delta-1", triples)
        assert batch.size == 3
        assert len(batch) == 3
        assert list(batch) == list(triples)


class TestEvolvingKnowledgeGraph:
    def test_apply_updates_current_only(self):
        base = KnowledgeGraph([Triple("e1", "p", "o")], name="base")
        evolving = EvolvingKnowledgeGraph(base)
        evolving.apply(UpdateBatch("d1", (Triple("e2", "p", "o"),)))
        assert base.num_triples == 1
        assert evolving.current.num_triples == 2
        assert evolving.base.num_triples == 1

    def test_batches_are_counted(self):
        base = KnowledgeGraph([Triple("e1", "p", "o")])
        evolving = EvolvingKnowledgeGraph(base)
        batches = [UpdateBatch(f"d{i}", (Triple(f"x{i}", "p", "o"),)) for i in range(3)]
        evolving.apply_all(batches)
        assert evolving.num_batches == 3
        assert evolving.current.num_triples == 4

    def test_enrichment_of_existing_entity_grows_cluster(self):
        base = KnowledgeGraph([Triple("e1", "p", "o1")])
        evolving = EvolvingKnowledgeGraph(base)
        evolving.apply(UpdateBatch("d1", (Triple("e1", "p", "o2"),)))
        assert evolving.current.cluster_size("e1") == 2


class TestIO:
    def test_triples_round_trip(self, tmp_path, toy_graph):
        path = tmp_path / "kg.tsv"
        written = write_triples_tsv(toy_graph, path)
        assert written == toy_graph.num_triples
        loaded = read_triples_tsv(path)
        assert loaded.num_triples == toy_graph.num_triples
        assert set(loaded.cluster_sizes()) == set(toy_graph.cluster_sizes())

    def test_labelled_round_trip(self, tmp_path, toy_kg):
        graph, oracle = toy_kg
        path = tmp_path / "kg_labels.tsv"
        labels = {t: oracle.label(t) for t in graph}
        write_labelled_tsv(labels, path)
        loaded_graph, loaded_labels = read_labelled_tsv(path)
        assert loaded_graph.num_triples == graph.num_triples
        assert sum(loaded_labels.values()) == sum(labels.values())

    def test_read_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# comment\n\ne1\tp\to1\n", encoding="utf-8")
        graph = read_triples_tsv(path)
        assert graph.num_triples == 1

    def test_read_triples_rejects_short_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("e1\tp\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected >= 3 columns"):
            read_triples_tsv(path)

    def test_read_labelled_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad_label.tsv"
        path.write_text("e1\tp\to\tmaybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unrecognised label"):
            read_labelled_tsv(path)

    def test_read_labelled_refuses_a_triple_labelled_both_ways(self, tmp_path):
        path = tmp_path / "contradiction.tsv"
        path.write_text("e1\tp\to\t1\ne2\tp\to\t0\n# note\ne1\tp\to\tno\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 4: .*\('e1', 'p', 'o'\).* line 1 "):
            read_labelled_tsv(path)

    def test_label_token_variants(self, tmp_path):
        # The last line repeats the first with another token for the same
        # label: it loads once, at its first position.
        path = tmp_path / "labels.tsv"
        path.write_text(
            "e1\tp\to1\ttrue\ne2\tp\to2\t0\ne3\tp\to3\tYES\ne1\tp\to1\t1\n", encoding="utf-8"
        )
        graph, labels = read_labelled_tsv(path)
        values = {t.subject: v for t, v in labels.items()}
        assert values == {"e1": True, "e2": False, "e3": True}
        assert [t.subject for t in graph] == ["e1", "e2", "e3"]


class TestStatistics:
    def test_cluster_size_summary_on_toy(self, toy_graph):
        summary = cluster_size_summary(toy_graph)
        assert summary.num_entities == 4
        assert summary.num_triples == 13
        assert summary.max_size == 6
        assert summary.min_size == 1
        assert summary.mean_size == pytest.approx(13 / 4)
        assert summary.as_row()["num_triples"] == 13

    def test_cluster_size_summary_empty(self):
        summary = cluster_size_summary(KnowledgeGraph())
        assert summary.num_entities == 0
        assert summary.mean_size == 0.0

    def test_entity_accuracy_by_size(self, toy_kg):
        graph, oracle = toy_kg
        rows = entity_accuracy_by_size(graph, oracle.as_dict())
        by_entity = {entity: (size, acc) for entity, size, acc in rows}
        assert by_entity["athlete_1"] == (4, pytest.approx(0.75))
        assert by_entity["city_1"] == (1, 0.0)

    def test_entity_accuracy_missing_label_raises(self, toy_graph):
        with pytest.raises(KeyError):
            entity_accuracy_by_size(toy_graph, {})

    def test_correlation_positive_when_big_clusters_accurate(self):
        graph = KnowledgeGraph()
        labels = {}
        # Small clusters all wrong, large clusters all right.
        for entity_index, size in enumerate([1, 1, 2, 6, 7, 8]):
            for i in range(size):
                triple = Triple(f"e{entity_index}", "p", f"o{i}")
                graph.add(triple)
                labels[triple] = size >= 6
        assert size_accuracy_correlation(graph, labels) > 0.9

    def test_correlation_zero_for_constant_accuracy(self, nell):
        labels = {t: True for t in nell.graph}
        assert size_accuracy_correlation(nell.graph, labels) == 0.0
