"""The size-weighted first stage draws what ``Generator.choice`` draws.

WCS, TWCS and stratified TWCS draw clusters from a CDF built once per design
(:class:`~repro.sampling.base.SizeWeightedSampler`) instead of calling
``rng.choice(n, size=count, replace=True, p=weights)`` every round.  These
tests pin that both give the same rows with the same dtype and leave the
generator in the same state, on NELL, YAGO and MOVIE cluster sizes, so a
numpy release that changes ``choice`` fails here rather than as a golden
trajectory mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.base import SizeWeightedSampler
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign

COUNTS = (0, 1, 10, 1000)


class ChoiceFirstStage:
    """The first stage as ``Generator.choice`` draws it, validation included."""

    def __init__(self, sizes: np.ndarray) -> None:
        sizes = np.asarray(sizes, dtype=float)
        self.weights = sizes / sizes.sum()

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(self.weights.shape[0], size=count, replace=True, p=self.weights)


@pytest.fixture(params=["nell", "yago", "movie_small"])
def graph(request):
    return request.getfixturevalue(request.param).graph


def _stratum_sizes(graph) -> list[np.ndarray]:
    sizes = graph.cluster_size_array()
    return [sizes[stratum.rows] for stratum in stratify_by_size(graph, num_strata=4)]


def test_sampler_equals_choice(graph):
    for sizes in [graph.cluster_size_array(), *_stratum_sizes(graph)]:
        cached_draw, choice_draw = SizeWeightedSampler(sizes), ChoiceFirstStage(sizes)
        for seed in range(40):
            cached, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in COUNTS:
                rows, expected = cached_draw.draw(cached, count), choice_draw.draw(reference, count)
                assert rows.dtype == expected.dtype == np.int64
                np.testing.assert_array_equal(rows, expected)
                assert cached.bit_generator.state == reference.bit_generator.state


def _design(name: str, graph, rng: np.random.Generator, *, choice: bool):
    """One of the three size-weighted designs, its first stage swapped for
    ``Generator.choice`` when ``choice`` is set."""
    if name == "twcs-strat":
        design = StratifiedTWCSDesign(graph, stratify_by_size(graph, num_strata=4), 5, seed=rng)
        if choice:
            design._ensure_position_state()
            design._first_stages = [ChoiceFirstStage(sizes) for sizes in _stratum_sizes(graph)]
        return design
    if name == "twcs":
        design = TwoStageWeightedClusterDesign(graph, 5, seed=rng)
    else:
        design = WeightedClusterDesign(graph, seed=rng)
    if choice:
        design._first_stage = ChoiceFirstStage(graph.cluster_size_array())
    return design


def _drawn(design, count: int) -> list[tuple[int, list[int]]]:
    return [(row, positions.tolist()) for positions, row, _ in design.draw_positions(count)]


@pytest.mark.parametrize("name", ["wcs", "twcs", "twcs-strat"])
def test_design_draws_equal_choice_draws(graph, name):
    for seed in range(12):
        cached_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cached = _design(name, graph, cached_rng, choice=False)
        reference = _design(name, graph, choice_rng, choice=True)
        for count in COUNTS:
            assert _drawn(cached, count) == _drawn(reference, count)
            assert cached_rng.bit_generator.state == choice_rng.bit_generator.state
