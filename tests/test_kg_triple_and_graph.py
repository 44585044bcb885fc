"""Unit tests for the KG data model: Triple and KnowledgeGraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.graph import EntityCluster, KnowledgeGraph
from repro.kg.triple import Triple


class TestTriple:
    def test_fields_and_tuple(self):
        triple = Triple("e1", "bornIn", "NYC")
        assert triple.subject == "e1"
        assert triple.predicate == "bornIn"
        assert triple.obj == "NYC"
        assert triple.as_tuple() == ("e1", "bornIn", "NYC")

    def test_equality_ignores_entity_object_flag(self):
        plain = Triple("e1", "knows", "e2")
        flagged = Triple("e1", "knows", "e2", is_entity_object=True)
        assert plain == flagged
        assert hash(plain) == hash(flagged)

    def test_with_subject_returns_new_triple(self):
        triple = Triple("e1", "bornIn", "NYC", is_entity_object=False)
        moved = triple.with_subject("e2")
        assert moved.subject == "e2"
        assert moved.predicate == triple.predicate
        assert moved.obj == triple.obj
        assert triple.subject == "e1"

    def test_is_immutable(self):
        triple = Triple("e1", "bornIn", "NYC")
        with pytest.raises(AttributeError):
            triple.subject = "e2"  # type: ignore[misc]

    def test_usable_as_dict_key(self):
        labels = {Triple("e1", "p", "o"): True}
        assert labels[Triple("e1", "p", "o")] is True


class TestKnowledgeGraphBasics:
    def test_empty_graph(self):
        graph = KnowledgeGraph()
        assert graph.num_triples == 0
        assert graph.num_entities == 0
        assert graph.average_cluster_size == 0.0
        assert list(graph) == []

    def test_add_and_membership(self):
        graph = KnowledgeGraph()
        triple = Triple("e1", "p", "o")
        assert graph.add(triple) is True
        assert triple in graph
        assert Triple("e2", "p", "o") not in graph

    def test_duplicate_insertion_ignored(self):
        graph = KnowledgeGraph()
        triple = Triple("e1", "p", "o")
        assert graph.add(triple) is True
        assert graph.add(triple) is False
        assert graph.num_triples == 1

    def test_add_all_counts_new_only(self):
        graph = KnowledgeGraph([Triple("e1", "p", "o1")])
        added = graph.add_all([Triple("e1", "p", "o1"), Triple("e1", "p", "o2")])
        assert added == 1
        assert graph.num_triples == 2

    def test_len_and_iteration_order(self):
        triples = [Triple("e1", "p", f"o{i}") for i in range(5)]
        graph = KnowledgeGraph(triples)
        assert len(graph) == 5
        assert list(graph) == triples

    def test_triple_at(self):
        triples = [Triple("e1", "p", f"o{i}") for i in range(3)]
        graph = KnowledgeGraph(triples)
        assert graph.triple_at(1) == triples[1]

    @pytest.mark.parametrize("backend", ["sqlite", "columnar", object()])
    def test_backend_must_be_a_store(self, backend):
        # A backend name used to build a graph that failed on first use.
        with pytest.raises(TypeError) as error:
            KnowledgeGraph([Triple("e1", "p", "o")], backend=backend)
        assert "ColumnarStore" in str(error.value)
        assert "KnowledgeGraph.to_sqlite" in str(error.value)


class TestEntityClusters:
    def test_cluster_contents(self, toy_graph):
        cluster = toy_graph.cluster("athlete_1")
        assert isinstance(cluster, EntityCluster)
        assert cluster.entity_id == "athlete_1"
        assert cluster.size == 4
        assert all(t.subject == "athlete_1" for t in cluster)

    def test_cluster_unknown_entity_raises(self, toy_graph):
        with pytest.raises(KeyError):
            toy_graph.cluster("unknown")

    def test_cluster_sizes_match_graph(self, toy_graph):
        sizes = toy_graph.cluster_sizes()
        assert sizes == {"athlete_1": 4, "athlete_2": 2, "movie_1": 6, "city_1": 1}
        assert sum(sizes.values()) == toy_graph.num_triples

    def test_cluster_size_array_alignment(self, toy_graph):
        array = toy_graph.cluster_size_array()
        expected = [toy_graph.cluster_size(e) for e in toy_graph.entity_ids]
        assert array.tolist() == expected

    def test_clusters_iterates_all_entities(self, toy_graph):
        entity_ids = {cluster.entity_id for cluster in toy_graph.clusters()}
        assert entity_ids == set(toy_graph.entity_ids)

    def test_average_cluster_size(self, toy_graph):
        assert toy_graph.average_cluster_size == pytest.approx(13 / 4)

    def test_has_entity(self, toy_graph):
        assert toy_graph.has_entity("movie_1")
        assert not toy_graph.has_entity("nope")


class TestSamplingHelpers:
    def test_sample_triples_without_replacement(self, toy_graph, rng):
        sample = toy_graph.sample_triples(13, rng)
        assert len(sample) == 13
        assert len(set(sample)) == 13

    def test_sample_triples_too_many_raises(self, toy_graph, rng):
        with pytest.raises(ValueError):
            toy_graph.sample_triples(14, rng)

    def test_sample_cluster_triples_capped_at_cluster_size(self, toy_graph, rng):
        sample = toy_graph.sample_cluster_triples("athlete_2", 10, rng)
        assert len(sample) == 2
        assert {t.subject for t in sample} == {"athlete_2"}

    def test_sample_cluster_triples_no_duplicates(self, toy_graph, rng):
        sample = toy_graph.sample_cluster_triples("movie_1", 6, rng)
        assert len(set(sample)) == 6

    def test_sampling_is_deterministic_under_seed(self, toy_graph):
        first = toy_graph.sample_triples(5, np.random.default_rng(7))
        second = toy_graph.sample_triples(5, np.random.default_rng(7))
        assert first == second


class TestDerivation:
    def test_subset_keeps_selected_clusters(self, toy_graph):
        subset = toy_graph.subset(["athlete_1", "city_1"])
        assert subset.num_entities == 2
        assert subset.num_triples == 5
        assert set(subset.entity_ids) == {"athlete_1", "city_1"}

    def test_subset_of_unknown_entities_is_empty(self, toy_graph):
        subset = toy_graph.subset(["nope"])
        assert subset.num_triples == 0

    def test_random_triple_subset_size(self, toy_graph, rng):
        subset = toy_graph.random_triple_subset(0.5, rng)
        assert subset.num_triples == round(0.5 * toy_graph.num_triples)
        assert all(t in toy_graph for t in subset)

    def test_random_triple_subset_invalid_fraction(self, toy_graph, rng):
        with pytest.raises(ValueError):
            toy_graph.random_triple_subset(0.0, rng)
        with pytest.raises(ValueError):
            toy_graph.random_triple_subset(1.5, rng)
