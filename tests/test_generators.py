"""Unit tests for synthetic KG generation, dataset stand-ins and update workloads."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.generators.datasets import (
    LabelledKG,
    generate_calibrated_labels,
    make_movie_full_like,
    make_movie_like,
    make_movie_syn,
    make_nell_like,
    make_yago_like,
)
from repro.generators.synthetic_kg import SyntheticKGConfig, generate_kg, sample_cluster_sizes
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.kg.statistics import size_accuracy_correlation
from repro.kg.triple import Triple
from repro.labels import AdversarialClusterModel, BinomialMixtureModel, RandomErrorModel
from repro.storage.columnar import ColumnarStore

# SHA-256 of each stand-in as the per-triple memory generator and the
# Triple-keyed label dicts produced it (see _dataset_digest).
DATASET_DIGESTS = {
    "nell-0": "05986264850e4a6336df02cc0ada0713bcd7f6a5235ad04897e0361c3c95fff5",
    "nell-1": "403b654c3585753aa304f5aedeadf01d4a15b5368b8df9bcf3c7d8d0ad64ea23",
    "yago-0": "a3253f9b561d51ccb92334d132c44ee05cf6d9aaddcf2c81ac46488637356ac2",
    "yago-1": "afb945929ddae9e833c84718dbb0b964dce58956d8e750eba8f56ff680495a01",
    "movie-x0.01-0": "6aff423fe088c9f979344fe034bdc89b400527c47c9c4b221d40546881dcf3b9",
    "movie-x0.01-8191": "7d9f1f6879852edff675dee74a4ba08180e23a1bf0f987cf49aacdbcc5d3a8ef",
    "movie-syn-x0.005": "8cf41c26a08fdb6bd931e585b37b709800ff1b9be111c5307787378ba40dc77b",
    "movie-full-20000": "7c248ffceb6fadf43cfefd1aa64ca9e237283c6203468682ecef4c71690a5569",
}
DATASET_BUILDERS = {
    "nell-0": lambda: make_nell_like(seed=0),
    "nell-1": lambda: make_nell_like(seed=1),
    "yago-0": lambda: make_yago_like(seed=0),
    "yago-1": lambda: make_yago_like(seed=1),
    "movie-x0.01-0": lambda: make_movie_like(seed=0, scale=0.01),
    "movie-x0.01-8191": lambda: make_movie_like(seed=8191, scale=0.01),
    "movie-syn-x0.005": lambda: make_movie_syn(scale=0.005),
    "movie-full-20000": lambda: make_movie_full_like(20_000),
}

# Each label model's labels on _interleaved_graph() in position order, as the
# per-cluster Triple-keyed dicts assigned them ("1" = correct).
LABEL_MODEL_BITS = {
    "calibrated": "011110111111110111111001111011101111111101111110111111101110",
    "random_error": "111001100110111111101010110110101101110111011110010111111011",
    "binomial_mixture": "001011100010111100011110111101110111101101010101001111010111",
    "binomial_mixture-rho0.3": "001110100001110101111110101111010001111100011001001010001100",
    "adversarial": "000110111101100011011111101001011111111110110011110110101111",
}
LABEL_MODELS = {
    "calibrated": lambda graph: generate_calibrated_labels(
        graph, 0.8, size_correlation=0.2, noise_sigma=0.1, seed=5
    ),
    "random_error": lambda graph: RandomErrorModel(0.3, seed=5).generate(graph),
    "binomial_mixture": lambda graph: BinomialMixtureModel(c=0.3, sigma=0.2, seed=5).generate(
        graph
    ),
    "binomial_mixture-rho0.3": lambda graph: BinomialMixtureModel(
        c=0.3, sigma=0.2, rho=0.3, seed=5
    ).generate(graph),
    "adversarial": lambda graph: AdversarialClusterModel(
        poisoned_mass=0.3, poisoned_accuracy=0.2, base_accuracy=0.9, seed=5
    ).generate(graph),
}


def _dataset_digest(data) -> str:
    """SHA-256 over the vocabulary, id columns, CSR index, labels and accuracy."""
    graph = data.graph.to_columnar()
    store = graph.backend
    digest = hashlib.sha256()
    for token_id in range(len(store.vocab)):
        digest.update(store.vocab[token_id].encode() + b"\0")
    for array in (*store.id_columns(), *store.csr_arrays()):
        digest.update(np.asarray(array, dtype=np.int64).tobytes())
    digest.update(np.asarray(data.oracle.as_position_array(graph), dtype=np.uint8).tobytes())
    digest.update(repr(data.true_accuracy).encode())
    return digest.hexdigest()


def _interleaved_graph() -> KnowledgeGraph:
    """60 hand-built triples whose 14 clusters interleave in position order."""
    triples = []
    for i in range(60):
        subject = "hub" if i % 5 == 0 else f"s{(i * 7) % 13}"
        triples.append(Triple(subject, f"p{i % 4}", f"o{i}", is_entity_object=i % 3 == 0))
    return KnowledgeGraph(triples, name="interleaved")


class TestSyntheticKGConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_entities": 0},
            {"num_entities": 10, "mean_cluster_size": 0.5},
            {"num_entities": 10, "size_skew": -1.0},
            {"num_entities": 10, "max_cluster_size": 0},
            {"num_entities": 10, "entity_object_fraction": 1.5},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticKGConfig(**kwargs)

    @pytest.mark.parametrize("name", ["mean_cluster_size", "size_skew"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_rejected_by_name(self, name, value):
        # NaN passes every `x < bound` check, so each bound must reject it.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SyntheticKGConfig(num_entities=10, **{name: value})


class TestClusterSizeSampling:
    def test_sizes_within_bounds(self, rng):
        sizes = sample_cluster_sizes(1000, 5.0, 1.0, 50, rng)
        assert sizes.min() >= 1
        assert sizes.max() <= 50
        assert sizes.shape == (1000,)

    def test_mean_close_to_target(self, rng):
        sizes = sample_cluster_sizes(5000, 9.0, 1.0, 500, rng)
        assert sizes.mean() == pytest.approx(9.0, rel=0.15)

    def test_no_skew_gives_constant_sizes(self, rng):
        sizes = sample_cluster_sizes(100, 3.0, 0.0, 50, rng)
        assert set(sizes.tolist()) == {3}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            sample_cluster_sizes(0, 3.0, 1.0, 50, rng)
        with pytest.raises(ValueError):
            sample_cluster_sizes(10, 0.5, 1.0, 50, rng)


class TestGenerateKG:
    def test_entity_count_matches_config(self):
        config = SyntheticKGConfig(num_entities=200, mean_cluster_size=3.0, name="test")
        graph = generate_kg(config, seed=0)
        assert graph.num_entities == 200
        assert graph.name == "test"
        assert graph.num_triples >= 200

    def test_deterministic_under_seed(self):
        config = SyntheticKGConfig(num_entities=50, mean_cluster_size=2.0)
        first = generate_kg(config, seed=3)
        second = generate_kg(config, seed=3)
        assert list(first) == list(second)

    def test_ids_match_a_repack_of_the_same_triples(self):
        # Small entity pool, large clusters: many (predicate, object) repeats,
        # so the disambiguated "#" objects are part of the vocabulary check.
        config = SyntheticKGConfig(
            num_entities=40, mean_cluster_size=12.0, max_cluster_size=60, entity_object_fraction=0.9
        )
        graph = generate_kg(config, seed=2)
        assert any("#" in triple.obj for triple in graph)
        repacked = KnowledgeGraph(graph.triples)
        expected = repacked.backend.columns()
        for name, column in graph.backend.columns().items():
            np.testing.assert_array_equal(column, expected[name], err_msg=name)

    def test_entity_object_fraction_zero_and_one(self):
        all_data = generate_kg(
            SyntheticKGConfig(num_entities=50, entity_object_fraction=0.0), seed=0
        )
        assert all(not t.is_entity_object for t in all_data)
        all_entity = generate_kg(
            SyntheticKGConfig(num_entities=50, entity_object_fraction=1.0), seed=0
        )
        assert all(t.is_entity_object for t in all_entity)


class TestCalibratedLabels:
    def test_overall_accuracy_close_to_target(self, movie_small):
        oracle = generate_calibrated_labels(movie_small.graph, 0.8, seed=0)
        assert oracle.true_accuracy(movie_small.graph) == pytest.approx(0.8, abs=0.03)

    def test_labels_cover_all_triples(self, movie_small):
        oracle = generate_calibrated_labels(movie_small.graph, 0.7, seed=1)
        assert len(oracle) == movie_small.graph.num_triples

    def test_size_correlation_present_when_requested(self, movie_small):
        oracle = generate_calibrated_labels(
            movie_small.graph, 0.75, size_correlation=0.4, noise_sigma=0.02, seed=2
        )
        assert size_accuracy_correlation(movie_small.graph, oracle.as_dict()) > 0.1

    def test_invalid_target(self, movie_small):
        with pytest.raises(ValueError):
            generate_calibrated_labels(movie_small.graph, 1.2)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("size_correlation", float("nan")),
            ("size_correlation", float("inf")),
            ("size_correlation", float("-inf")),
            ("noise_sigma", float("nan")),
            ("noise_sigma", float("inf")),
            ("noise_sigma", -0.1),
        ],
    )
    def test_out_of_range_parameters_are_rejected_by_name(self, movie_small, name, value):
        # A NaN made every probability NaN (all labels False); inf saturated
        # them; a NaN or negative noise_sigma silently switched noise off.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            generate_calibrated_labels(movie_small.graph, 0.8, **{name: value})


class TestDatasetStandIns:
    def test_nell_characteristics(self):
        data = make_nell_like(seed=0)
        assert data.graph.num_entities == 817
        assert 1_300 <= data.graph.num_triples <= 2_400
        assert data.true_accuracy == pytest.approx(0.91, abs=0.03)

    def test_yago_characteristics(self):
        data = make_yago_like(seed=0)
        assert data.graph.num_entities == 822
        assert 1_000 <= data.graph.num_triples <= 1_900
        assert data.true_accuracy == pytest.approx(0.99, abs=0.015)

    def test_movie_characteristics(self):
        data = make_movie_like(seed=0, scale=0.01)
        assert data.graph.num_entities == pytest.approx(2888, abs=2)
        assert data.graph.average_cluster_size == pytest.approx(9.2, rel=0.2)
        assert data.true_accuracy == pytest.approx(0.90, abs=0.03)

    def test_movie_scale_controls_size(self):
        small = make_movie_like(seed=0, scale=0.005)
        large = make_movie_like(seed=0, scale=0.01)
        assert large.graph.num_entities > small.graph.num_entities
        with pytest.raises(ValueError):
            make_movie_like(scale=0.0)

    def test_movie_syn_uses_bmm_labels(self):
        data = make_movie_syn(c=0.01, sigma=0.1, seed=0, scale=0.005)
        assert 0.4 <= data.true_accuracy <= 0.8
        strong = make_movie_syn(c=0.5, sigma=0.05, seed=0, scale=0.005)
        assert strong.true_accuracy > data.true_accuracy

    def test_movie_full_like_size_and_accuracy(self):
        data = make_movie_full_like(num_triples=20_000, accuracy=0.7, seed=0)
        assert data.graph.num_triples == pytest.approx(20_000, rel=0.2)
        assert data.true_accuracy == pytest.approx(0.7, abs=0.02)
        with pytest.raises(ValueError):
            make_movie_full_like(num_triples=0)

    def test_datasets_reproducible_under_seed(self):
        assert make_nell_like(seed=7).true_accuracy == make_nell_like(seed=7).true_accuracy

    @pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
    def test_datasets_are_pinned(self, name):
        assert _dataset_digest(DATASET_BUILDERS[name]()) == DATASET_DIGESTS[name]

    def test_stand_ins_come_back_columnar_with_their_label_array(self):
        data = make_movie_like(seed=0, scale=0.005)
        assert isinstance(data.graph.backend, ColumnarStore)
        assert data.graph.to_columnar() is data.graph
        assert data.to_columnar() is data
        labels = data.oracle.as_position_array(data.graph)
        assert labels is data.oracle.as_position_array(data.graph)
        assert not labels.flags.writeable
        assert data.true_accuracy == np.count_nonzero(labels) / data.graph.num_triples

    @pytest.mark.parametrize("convert", ["to_columnar", "to_sqlite"])
    def test_conversions_carry_the_label_array(self, nell, convert):
        # Each conversion starts from a graph on the other backend.
        source = KnowledgeGraph(nell.graph.triples, name=nell.name)
        if convert == "to_columnar":
            source = source.to_sqlite()
        converted = getattr(LabelledKG(source, nell.oracle), convert)()
        assert converted.graph is not source
        labels = converted.oracle.as_position_array(converted.graph)
        assert labels is converted.oracle.as_position_array(converted.graph)
        np.testing.assert_array_equal(labels, nell.oracle.as_position_array(nell.graph))
        assert converted.true_accuracy == nell.true_accuracy


class TestLabelModelsOnInterleavedClusters:
    def test_cluster_order_differs_from_position_order(self):
        _, positions = _interleaved_graph().backend.csr_arrays()
        assert not np.array_equal(positions, np.arange(positions.shape[0]))

    @pytest.mark.parametrize("name", sorted(LABEL_MODEL_BITS))
    def test_labels_match_the_per_cluster_dict_labels(self, name):
        graph = _interleaved_graph()
        oracle = LABEL_MODELS[name](graph)
        labels = oracle.as_position_array(graph)
        assert labels is oracle.as_position_array(graph)
        assert "".join("1" if label else "0" for label in labels.tolist()) == (
            LABEL_MODEL_BITS[name]
        )
        assert [oracle.label(triple) for triple in graph.triples] == labels.tolist()


class TestUpdateWorkloadGenerator:
    def test_batch_size_and_labels(self, movie_small):
        generator = UpdateWorkloadGenerator(movie_small, seed=0)
        batch, oracle = generator.generate_batch(500, accuracy=0.8)
        assert batch.size == pytest.approx(500, abs=5)
        assert all(t in oracle for t in batch)
        realised = sum(oracle.label(t) for t in batch) / batch.size
        assert realised == pytest.approx(0.8, abs=0.06)

    def test_new_entity_fraction_respected(self, movie_small):
        generator = UpdateWorkloadGenerator(movie_small, new_entity_fraction=1.0, seed=1)
        batch, _ = generator.generate_batch(300, accuracy=0.9)
        existing = set(movie_small.graph.entity_ids)
        assert all(t.subject not in existing for t in batch)

        generator = UpdateWorkloadGenerator(movie_small, new_entity_fraction=0.0, seed=1)
        batch, _ = generator.generate_batch(300, accuracy=0.9)
        assert all(t.subject in existing for t in batch)

    def test_batch_ids_unique_and_sequential(self, movie_small):
        generator = UpdateWorkloadGenerator(movie_small, seed=2)
        ids = [generator.generate_batch(50, 0.9)[0].batch_id for _ in range(3)]
        assert len(set(ids)) == 3

    def test_generate_sequence(self, movie_small):
        generator = UpdateWorkloadGenerator(movie_small, seed=3)
        batches = list(generator.generate_sequence(4, 100, 0.7))
        assert len(batches) == 4
        assert all(batch.size == pytest.approx(100, abs=3) for batch in batches)

    def test_validation(self, movie_small):
        generator = UpdateWorkloadGenerator(movie_small, seed=0)
        with pytest.raises(ValueError):
            generator.generate_batch(0, 0.9)
        with pytest.raises(ValueError):
            generator.generate_batch(10, 1.5)
        with pytest.raises(ValueError):
            UpdateWorkloadGenerator(movie_small, new_entity_fraction=1.5)

    def test_split_base_keeps_labels_valid(self, movie_small):
        base = UpdateWorkloadGenerator.split_base(movie_small, 0.5, seed=0)
        assert base.graph.num_triples == pytest.approx(
            0.5 * movie_small.graph.num_triples, rel=0.05
        )
        # Every triple of the base subset is still covered by the oracle.
        assert all(t in base.oracle for t in base.graph)
