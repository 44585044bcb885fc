"""Determinism, accuracy and backend parity of the single-stream sampling loop.

Every evaluation runs one random stream: :class:`StaticEvaluator` steps one
design (draw → annotate → update) in rounds.  For a fixed ``(graph, labels,
design, seed, round plan)`` the estimates and the Eq. (4) cost are
bit-identical run after run and on either storage backend; a different seed
or a different round plan is a different stream.  The goldens in
``tests/golden/static_*.json`` pin the stream itself; these tests pin the
properties around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.segment import PositionSegment
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import Stratum, stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign
from repro.stats.allocation import (
    deficit_allocation,
    neyman_allocation,
    proportional_allocation,
)

DESIGNS = {
    "srs": SimpleRandomDesign,
    "rcs": RandomClusterDesign,
    "wcs": WeightedClusterDesign,
    "twcs": TwoStageWeightedClusterDesign,
    "tsrcs": TwoStageRandomClusterDesign,
}


@pytest.fixture(scope="module")
def labelled(nell):
    return nell, nell.oracle.as_position_array(nell.graph)


def _run_result(data, design, *, units=250, round_size=50):
    """Step ``design`` in rounds of ``round_size`` until ``units`` are drawn."""
    annotator = SimulatedAnnotator(data.oracle, seed=0)
    evaluator = StaticEvaluator(design, annotator)
    drawn = 0
    while drawn < units:
        step = evaluator.step(min(round_size, units - drawn))
        if not step:
            break
        drawn += step
    cost = (
        annotator.entities_identified,
        annotator.total_triples_annotated,
        annotator.total_cost_seconds,
    )
    return design.estimate(), cost


class TestSerialEngine:
    """The single-stream loop, one design at a time."""

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_deterministic_and_tracks_truth(self, labelled, design):
        data, labels = labelled
        first = _run_result(data, DESIGNS[design](data.graph, seed=9))
        second = _run_result(data, DESIGNS[design](data.graph, seed=9))
        assert first == second
        assert abs(first[0].value - labels.mean()) < 0.12

    def test_seed_and_plan_are_part_of_the_stream(self, labelled):
        data, _ = labelled
        base = _run_result(data, TwoStageWeightedClusterDesign(data.graph, seed=9))
        other_seed = _run_result(data, TwoStageWeightedClusterDesign(data.graph, seed=10))
        other_plan = _run_result(
            data, TwoStageWeightedClusterDesign(data.graph, seed=9), round_size=25
        )
        assert base[0] != other_seed[0]
        assert base[0] != other_plan[0]

    def test_empty_graph_plan_yields_empty_run(self):
        graph = KnowledgeGraph([]).to_columnar()
        oracle = LabelOracle({}, strict=False)
        for cls in (SimpleRandomDesign, RandomClusterDesign):
            design = cls(graph, seed=0)
            annotator = SimulatedAnnotator(oracle, seed=0)
            evaluator = StaticEvaluator(design, annotator)
            assert evaluator.step(10) == 0
            assert design.exhausted
            estimate = design.estimate()
            assert estimate.num_units == 0 and estimate.std_error == float("inf")
            assert annotator.total_cost_seconds == 0.0
            report = evaluator.run()
            assert report.num_units == 0 and not report.satisfied
        # The size-weighted designs have no distribution to draw from.
        for cls in (
            WeightedClusterDesign,
            TwoStageWeightedClusterDesign,
            TwoStageRandomClusterDesign,
        ):
            with pytest.raises(ValueError, match="empty"):
                cls(graph, seed=0).draw_positions(10)

    def test_wor_designs_exhaust_cleanly(self, labelled):
        data, labels = labelled
        graph = data.graph
        rcs = StaticEvaluator(RandomClusterDesign(graph, seed=1), SimulatedAnnotator(data.oracle))
        total = 0
        while drawn := rcs.step(200):
            total += drawn
        assert total == graph.num_entities
        assert rcs.step(10) == 0
        srs_design = SimpleRandomDesign(graph, seed=1)
        srs = StaticEvaluator(srs_design, SimulatedAnnotator(data.oracle))
        while srs.step(1000):
            pass
        assert srs_design.estimate().num_triples == graph.num_triples
        assert srs_design.estimate().value == pytest.approx(labels.mean())

    def test_segment_run_covers_only_the_segment(self, labelled):
        data, labels = labelled
        first_position = data.graph.num_triples
        triples = list(data.graph)[:40]
        segment = PositionSegment.from_batch(triples, [True] * len(triples), first_position)
        seg_labels = np.concatenate([labels, np.ones(len(triples), dtype=bool)])
        design = TwoStageWeightedClusterDesign(segment, seed=2)
        units = design.draw_positions(30)
        design.update_all_positions(units, seg_labels)
        drawn = units.positions
        assert drawn.min() >= first_position
        assert design.estimate().value == 1.0  # segment labels are all True

    def test_strata_over_row_subset_costs_use_global_rows(self, labelled):
        """Strata over a tail row subset draw only there and charge by global row."""
        data, _ = labelled
        graph = data.graph
        num_entities = graph.num_entities
        sizes = graph.cluster_size_array()
        row_sets = [
            np.arange(num_entities - 60, num_entities - 30, dtype=np.int64),
            np.arange(num_entities - 30, num_entities, dtype=np.int64),
        ]
        total = int(sum(sizes[rows].sum() for rows in row_sets))
        strata = [
            Stratum(
                label=f"tail-{index}",
                rows=rows,
                num_triples=int(sizes[rows].sum()),
                weight=float(sizes[rows].sum()) / total,
            )
            for index, rows in enumerate(row_sets)
        ]
        design = StratifiedTWCSDesign(graph, strata, seed=6)
        annotator = SimulatedAnnotator(data.oracle, seed=6)
        drawn_rows: set[int] = set()
        for _ in range(8):
            units = design.draw_positions(40)
            design.update_all_positions(units, annotator.annotate_positions(graph, units))
            drawn_rows.update(units.entity_rows.tolist())
        assert min(drawn_rows) >= num_entities - 60
        assert annotator.entities_identified == len(drawn_rows)


class TestNeymanAllocation:
    """``allocation="neyman"`` on stratified TWCS."""

    def test_requires_strata(self, labelled):
        data, _ = labelled
        with pytest.raises(ValueError, match="stratum"):
            StratifiedTWCSDesign(data.graph, [], allocation="neyman")
        strata = stratify_by_size(data.graph, num_strata=3)
        with pytest.raises(ValueError, match="allocation"):
            StratifiedTWCSDesign(data.graph, strata, allocation="optimal")

    def test_allocation_decisions_match_design_rule(self, labelled):
        """The design splits each round by the Neyman rule over observed spreads.

        Until every stratum has two observations it falls back to the
        proportional split; afterwards it allocates ``W_h · S_h`` with
        ``S_h`` the sample standard deviation of the stratum's cluster
        accuracies, which here differs from proportional.
        """
        data, _ = labelled
        strata = stratify_by_size(data.graph, num_strata=3)
        design = StratifiedTWCSDesign(
            data.graph, strata, second_stage_size=5, seed=0, allocation="neyman"
        )
        weights = [stratum.weight for stratum in design.strata]
        assert len(weights) == 3
        observations = {
            0: [0.2, 0.9, 0.5, 0.7],
            1: [1.0, 0.0, 0.65],
            2: [0.45, 0.55, 0.8, 0.3, 0.9],
        }
        design._means[0].add(0.2)
        assert design._allocate(30) == proportional_allocation(weights, 30)
        for stratum, values in observations.items():
            for index, value in enumerate(values):
                if index or stratum != 0:  # 0.2 already added above
                    design._means[stratum].add(value)
        stds = [float(np.std(observations[h], ddof=1)) for h in range(3)]
        for count in (7, 30, 100):
            assert design._allocate(count) == neyman_allocation(weights, stds, count)
        assert design._allocate(100) != proportional_allocation(weights, 100)
        # A round with fewer draws than strata goes to the strata furthest
        # below their Neyman share: stratum 1 has 3 of the 12 draws against
        # a share of about 5.6 of 13, where a Neyman split of one draw would
        # give it to stratum 0 every round.
        shares = [weight * std for weight, std in zip(weights, stds)]
        assert design._allocate(1) == deficit_allocation(shares, [4, 3, 5], 1) == [0, 1, 0]

    def test_neyman_run_is_deterministic_and_tracks_truth(self, labelled):
        data, labels = labelled
        strata = stratify_by_size(data.graph, num_strata=3)
        results = [
            _run_result(
                data, StratifiedTWCSDesign(data.graph, strata, seed=41, allocation="neyman")
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]
        assert abs(results[0][0].value - labels.mean()) < 0.12
