"""Unit tests for the label oracle and the synthetic label models (REM, BMM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.adversarial import AdversarialClusterModel
from repro.labels.binomial_mixture import BinomialMixtureModel
from repro.labels.oracle import LabelOracle
from repro.labels.random_error import RandomErrorModel


class TestLabelOracle:
    def test_label_lookup(self, toy_kg):
        graph, oracle = toy_kg
        first = graph.triple_at(0)
        assert oracle.label(first) in (True, False)
        assert first in oracle
        assert len(oracle) == graph.num_triples

    def test_strict_mode_raises_for_unknown(self, toy_oracle):
        with pytest.raises(KeyError):
            toy_oracle.label(Triple("ghost", "p", "o"))

    def test_non_strict_mode_defaults_to_true(self):
        oracle = LabelOracle({}, strict=False)
        assert oracle.label(Triple("ghost", "p", "o")) is True

    def test_labels_for_preserves_order(self, toy_kg):
        graph, oracle = toy_kg
        triples = list(graph)[:3]
        assert oracle.labels_for(triples) == [oracle.label(t) for t in triples]

    def test_true_accuracy_on_toy(self, toy_kg):
        graph, oracle = toy_kg
        assert oracle.true_accuracy(graph) == pytest.approx(8 / 13)

    def test_true_accuracy_empty_graph(self, toy_oracle):
        assert toy_oracle.true_accuracy(KnowledgeGraph()) == 0.0

    def test_cluster_accuracy(self, toy_kg):
        graph, oracle = toy_kg
        assert oracle.cluster_accuracy(graph, "movie_1") == pytest.approx(0.5)
        assert oracle.cluster_accuracy(graph, "athlete_2") == pytest.approx(1.0)

    def test_cluster_accuracies_covers_all_entities(self, toy_kg):
        graph, oracle = toy_kg
        accuracies = oracle.cluster_accuracies(graph)
        assert set(accuracies) == set(graph.entity_ids)

    def test_as_dict_returns_copy(self, toy_oracle):
        copy = toy_oracle.as_dict()
        copy.clear()
        assert len(toy_oracle) > 0


class TestLabelOracleFromPositions:
    @pytest.fixture()
    def stored(self, nell):
        """A columnar graph, its position-aligned labels and the dict oracle behind them."""
        graph = KnowledgeGraph(nell.graph.triples, name=nell.name)
        dict_oracle = LabelOracle(nell.oracle.as_dict())
        return graph, dict_oracle.as_position_array(graph), dict_oracle

    def test_hands_its_array_back_read_only(self, stored):
        graph, labels, _ = stored
        array = LabelOracle.from_positions(graph, labels).as_position_array(graph)
        assert np.shares_memory(array, labels)
        assert not array.flags.writeable
        assert labels.flags.writeable

    def test_rejects_a_misaligned_array(self, stored):
        graph, labels, _ = stored
        for bad in (labels[:-1], np.append(labels, True), labels.reshape(1, -1)):
            with pytest.raises(ValueError, match="label array"):
                LabelOracle.from_positions(graph, bad)

    def test_true_accuracy_is_the_dict_oracles_float(self, stored):
        graph, labels, dict_oracle = stored
        oracle = LabelOracle.from_positions(graph, labels)
        assert oracle.true_accuracy(graph) == dict_oracle.true_accuracy(graph)

    def test_another_graph_object_falls_back_to_the_mapping(self, nell, stored):
        graph, labels, dict_oracle = stored
        oracle = LabelOracle.from_positions(graph, labels)
        other = nell.graph  # the same triples, in the same order, in another graph object
        array = oracle.as_position_array(other)
        assert not np.shares_memory(array, labels)
        np.testing.assert_array_equal(array, labels)
        assert oracle.true_accuracy(other) == dict_oracle.true_accuracy(other)
        assert oracle.as_dict() == dict_oracle.as_dict()


class TestPositionLabels:
    """The oracle keeps the array it built for one graph object."""

    @pytest.fixture()
    def built(self, nell):
        graph = nell.graph.to_columnar()
        return graph, LabelOracle(nell.oracle.as_dict())

    def test_the_same_array_comes_back(self, built, monkeypatch):
        graph, oracle = built
        first = oracle.position_labels(graph)
        assert not first.flags.writeable
        monkeypatch.setattr(LabelOracle, "label", lambda *args: pytest.fail("rebuilt"))
        assert oracle.position_labels(graph) is first
        copy = oracle.as_position_array(graph)
        assert copy.flags.writeable and not np.shares_memory(copy, first)
        np.testing.assert_array_equal(copy, first)

    def test_rebuilt_after_the_graph_grows(self, toy_kg):
        graph, oracle = toy_kg
        lenient = LabelOracle(oracle.as_dict(), strict=False)
        first = lenient.position_labels(graph)
        graph.add(Triple("athlete_9", "p", "o"))
        second = lenient.position_labels(graph)
        assert second.shape == (first.shape[0] + 1,)
        np.testing.assert_array_equal(second[:-1], first)
        assert second[-1]

    def test_a_stored_array_survives_another_graph(self, nell, nell_rebuilt):
        graph = nell.graph.to_columnar()
        stored = nell.oracle.as_position_array(graph)
        oracle = LabelOracle.from_positions(graph, stored)
        other = oracle.as_position_array(nell_rebuilt.graph)
        np.testing.assert_array_equal(other, stored)
        assert np.shares_memory(oracle.as_position_array(graph), stored)
        assert np.shares_memory(oracle.position_labels(graph), stored)


class TestRandomErrorModel:
    def test_invalid_error_rate(self):
        with pytest.raises(ValueError):
            RandomErrorModel(error_rate=1.5)

    def test_accuracy_property(self):
        assert RandomErrorModel(error_rate=0.25).accuracy == pytest.approx(0.75)
        assert RandomErrorModel.with_accuracy(0.8).error_rate == pytest.approx(0.2)

    def test_extreme_rates(self, toy_graph):
        all_correct = RandomErrorModel(error_rate=0.0, seed=0).generate(toy_graph)
        all_wrong = RandomErrorModel(error_rate=1.0, seed=0).generate(toy_graph)
        assert all_correct.true_accuracy(toy_graph) == 1.0
        assert all_wrong.true_accuracy(toy_graph) == 0.0

    def test_realised_accuracy_close_to_target(self, movie_small):
        oracle = RandomErrorModel.with_accuracy(0.7, seed=3).generate(movie_small.graph)
        realised = oracle.true_accuracy(movie_small.graph)
        assert realised == pytest.approx(0.7, abs=0.02)

    def test_covers_every_triple(self, toy_graph):
        oracle = RandomErrorModel(error_rate=0.5, seed=1).generate(toy_graph)
        assert len(oracle) == toy_graph.num_triples

    def test_deterministic_under_seed(self, toy_graph):
        first = RandomErrorModel(0.5, seed=9).generate(toy_graph).as_dict()
        second = RandomErrorModel(0.5, seed=9).generate(toy_graph).as_dict()
        assert first == second

    def test_with_accuracy_rejects_out_of_range(self):
        # Regression: these used to surface as a confusing error_rate-phrased
        # message (1 - accuracy); the guard must name the accuracy argument.
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="accuracy"):
                RandomErrorModel.with_accuracy(bad)

    def test_with_accuracy_accepts_boundaries(self):
        assert RandomErrorModel.with_accuracy(0.0).error_rate == pytest.approx(1.0)
        assert RandomErrorModel.with_accuracy(1.0).error_rate == pytest.approx(0.0)


class TestBinomialMixtureModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BinomialMixtureModel(c=-0.1)
        with pytest.raises(ValueError):
            BinomialMixtureModel(sigma=-1.0)
        with pytest.raises(ValueError):
            BinomialMixtureModel(k=0)

    @pytest.mark.parametrize("name", ["c", "sigma", "k"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_rejected_by_name(self, name, value):
        # NaN passes every `x < bound` check, so each bound must reject it.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BinomialMixtureModel(**{name: value})

    def test_cluster_probability_below_threshold(self):
        model = BinomialMixtureModel(c=0.5, sigma=0.0, k=3)
        assert model.cluster_probability(1) == pytest.approx(0.5)
        assert model.cluster_probability(2) == pytest.approx(0.5)

    def test_cluster_probability_sigmoid_above_threshold(self):
        model = BinomialMixtureModel(c=0.5, sigma=0.0, k=3)
        assert model.cluster_probability(3) == pytest.approx(0.5)
        assert model.cluster_probability(20) > model.cluster_probability(5)
        assert model.cluster_probability(200) == pytest.approx(1.0, abs=1e-6)

    def test_probability_clipped_to_unit_interval(self):
        model = BinomialMixtureModel(c=0.5, sigma=0.0, k=3)
        assert model.cluster_probability(10, noise=5.0) == 1.0
        assert model.cluster_probability(10, noise=-5.0) == 0.0

    def test_expected_cluster_accuracy_matches_noise_free(self):
        model = BinomialMixtureModel(c=0.1, sigma=0.3, k=3)
        assert model.expected_cluster_accuracy(8) == model.cluster_probability(8, 0.0)

    def test_generate_covers_every_triple(self, nell):
        oracle = BinomialMixtureModel(seed=0).generate(nell.graph)
        assert len(oracle) == nell.graph.num_triples

    def test_strong_coupling_creates_size_accuracy_correlation(self, movie_small):
        from repro.kg.statistics import size_accuracy_correlation

        strong = BinomialMixtureModel(c=0.5, sigma=0.05, seed=1).generate(movie_small.graph)
        correlation = size_accuracy_correlation(movie_small.graph, strong.as_dict())
        assert correlation > 0.1

    def test_default_parameters_give_moderate_accuracy(self, movie_small):
        oracle = BinomialMixtureModel(seed=2).generate(movie_small.graph)
        accuracy = oracle.true_accuracy(movie_small.graph)
        # Paper reports ≈62% for the default parameters on MOVIE-SYN.
        assert 0.45 <= accuracy <= 0.75

    def test_deterministic_under_seed(self, toy_graph):
        first = BinomialMixtureModel(seed=5).generate(toy_graph).as_dict()
        second = BinomialMixtureModel(seed=5).generate(toy_graph).as_dict()
        assert first == second

    def test_noise_free_large_clusters_all_correct(self):
        graph = KnowledgeGraph([Triple("big", "p", f"o{i}") for i in range(500)])
        oracle = BinomialMixtureModel(c=1.0, sigma=0.0, k=3, seed=0).generate(graph)
        assert oracle.true_accuracy(graph) == pytest.approx(1.0, abs=0.01)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            BinomialMixtureModel(rho=-0.1)
        with pytest.raises(ValueError):
            BinomialMixtureModel(rho=1.01)

    def test_rho_zero_matches_original_stream(self, movie_small):
        # rho=0 must take the exact pre-rho code path: byte-identical labels
        # to a default model under the same seed.
        baseline = BinomialMixtureModel(seed=11).generate(movie_small.graph).as_dict()
        with_rho = BinomialMixtureModel(rho=0.0, seed=11).generate(movie_small.graph).as_dict()
        assert baseline == with_rho

    def test_rho_one_makes_clusters_unanimous(self):
        graph = KnowledgeGraph(
            [Triple(f"e{c}", "p", f"o{i}") for c in range(40) for i in range(10)]
        )
        oracle = BinomialMixtureModel(c=0.05, sigma=0.2, rho=1.0, seed=3).generate(graph)
        labels = oracle.as_dict()
        for cluster in graph.clusters():
            cluster_labels = {labels[triple] for triple in cluster}
            assert len(cluster_labels) == 1

    def test_rho_preserves_marginal_accuracy(self):
        # Copying a shared Bernoulli(p) with probability rho leaves each
        # triple's marginal at p, so overall accuracy should match rho=0.
        graph = KnowledgeGraph(
            [Triple(f"e{c}", "p", f"o{i}") for c in range(300) for i in range(8)]
        )
        independent = BinomialMixtureModel(c=0.5, sigma=0.0, seed=7).generate(graph)
        correlated = BinomialMixtureModel(c=0.5, sigma=0.0, rho=0.7, seed=7).generate(graph)
        assert correlated.true_accuracy(graph) == pytest.approx(
            independent.true_accuracy(graph), abs=0.05
        )

    def test_rho_inflates_between_cluster_variance(self):
        graph = KnowledgeGraph(
            [Triple(f"e{c}", "p", f"o{i}") for c in range(200) for i in range(10)]
        )

        def cluster_accuracy_variance(oracle):
            import numpy as np

            accuracies = list(oracle.cluster_accuracies(graph).values())
            return float(np.var(accuracies))

        independent = BinomialMixtureModel(c=0.0, sigma=0.0, seed=5).generate(graph)
        correlated = BinomialMixtureModel(c=0.0, sigma=0.0, rho=0.9, seed=5).generate(graph)
        assert cluster_accuracy_variance(correlated) > 2 * cluster_accuracy_variance(independent)


class TestAdversarialClusterModel:
    def _graph(self):
        # Cluster sizes 40, 30, 20, 10, 10: total 110 triples.
        sizes = {"a": 40, "b": 30, "c": 20, "d": 10, "e": 10}
        return KnowledgeGraph(
            [Triple(entity, "p", f"o{i}") for entity, size in sizes.items() for i in range(size)]
        )

    def test_parameter_validation(self):
        for kwargs in (
            {"poisoned_mass": -0.1},
            {"poisoned_mass": 1.5},
            {"poisoned_accuracy": 2.0},
            {"base_accuracy": -1.0},
        ):
            with pytest.raises(ValueError):
                AdversarialClusterModel(**kwargs)

    def test_poisons_largest_clusters_first(self):
        graph = self._graph()
        model = AdversarialClusterModel(poisoned_mass=0.3, seed=0)
        rows = model.poisoned_rows(graph)
        entities = {graph.entity_ids[row] for row in rows}
        # 30% of 110 = 33 triples: the 40-triple cluster alone covers it.
        assert entities == {"a"}

    def test_step_function_accuracy_profile(self):
        graph = self._graph()
        model = AdversarialClusterModel(poisoned_mass=0.3, seed=1)
        oracle = model.generate(graph)
        assert oracle.cluster_accuracy(graph, "a") == 0.0
        for entity in ("b", "c", "d", "e"):
            assert oracle.cluster_accuracy(graph, entity) == 1.0

    def test_expected_accuracy_matches_realised_for_deterministic_rates(self):
        graph = self._graph()
        model = AdversarialClusterModel(poisoned_mass=0.3, seed=2)
        expected = model.expected_accuracy(graph)
        assert expected == pytest.approx(70 / 110)
        assert model.generate(graph).true_accuracy(graph) == pytest.approx(expected)

    def test_zero_mass_poisons_nothing(self):
        graph = self._graph()
        model = AdversarialClusterModel(poisoned_mass=0.0, seed=3)
        assert model.poisoned_rows(graph) == set()
        assert model.generate(graph).true_accuracy(graph) == 1.0

    def test_full_mass_poisons_everything(self):
        graph = self._graph()
        model = AdversarialClusterModel(poisoned_mass=1.0, seed=4)
        assert len(model.poisoned_rows(graph)) == graph.num_entities
        assert model.generate(graph).true_accuracy(graph) == 0.0

    def test_stream_independent_of_thresholds(self):
        # The same seed consumes one uniform per triple regardless of the
        # poisoning split, so non-extreme accuracies stay comparable.
        graph = self._graph()
        lenient = AdversarialClusterModel(
            poisoned_mass=0.0, base_accuracy=0.5, seed=9
        ).generate(graph)
        harsh = AdversarialClusterModel(
            poisoned_mass=1.0, poisoned_accuracy=0.5, seed=9
        ).generate(graph)
        assert lenient.as_dict() == harsh.as_dict()
