"""Unit tests for the iterative evaluation framework (config, report, evaluator)."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator, evaluate_accuracy
from repro.core.granular import GranularEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.cost.pool import AnnotationTaskPool, NoisyAnnotator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import make_movie_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.graph import KnowledgeGraph
from repro.sampling.base import Estimate
from repro.sampling.pilot import run_pilot
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign
from repro.scenarios import DriftingAnnotator
from repro.stats.ci import normal_critical_value
from repro.storage.columnar import ColumnarStore

DESIGNS = {
    "srs": lambda graph, seed: SimpleRandomDesign(graph, seed=seed),
    "rcs": lambda graph, seed: RandomClusterDesign(graph, seed=seed),
    "wcs": lambda graph, seed: WeightedClusterDesign(graph, seed=seed),
    "twcs": lambda graph, seed: TwoStageWeightedClusterDesign(graph, 5, seed=seed),
    "tsrcs": lambda graph, seed: TwoStageRandomClusterDesign(graph, 5, seed=seed),
    "twcs-strat": lambda graph, seed: StratifiedTWCSDesign(
        graph, stratify_by_size(graph, num_strata=4), 5, seed=seed
    ),
}


def _labelled_positions(annotator: SimulatedAnnotator, graph: KnowledgeGraph) -> np.ndarray:
    """Positions of ``graph`` that the annotator's session has labelled."""
    return np.flatnonzero(annotator._session.positions[id(graph)].annotated)


def _charged_once_per_subject(annotator: SimulatedAnnotator) -> None:
    """Eq. (4) with c1 once per distinct subject and c2 once per labelled triple,
    over every graph object the session labelled."""
    triples, subjects = 0, set()
    for ledger in annotator._session.positions.values():
        labelled = ledger.graph.triples_at(_labelled_positions(annotator, ledger.graph))
        triples += len(labelled)
        subjects.update(triple.subject for triple in labelled)
    assert annotator.total_triples_annotated == triples
    assert annotator.entities_identified == len(subjects)
    assert annotator.total_cost_seconds == annotator.cost_model.cost_seconds(
        annotator.entities_identified, annotator.total_triples_annotated
    )


class TestEvaluationConfig:
    def test_defaults_match_paper_task(self):
        config = EvaluationConfig()
        assert config.moe_target == 0.05
        assert config.confidence_level == 0.95
        assert config.min_units == 30

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"moe_target": 0.0},
            {"moe_target": 1.0},
            {"confidence_level": 1.0},
            {"batch_size": 0},
            {"min_units": 1},
            {"min_units": 50, "max_units": 10},
        ],
    )
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ValueError):
            EvaluationConfig(**kwargs)


def _numpy_calls(call) -> list[str]:
    """The NumPy functions a profiler sees ``call()`` run.

    That is every Python-level NumPy function and compiled ones such as
    ``np.array``; a ufunc call shows no event, so callers also check that
    results are plain ``float`` and ``bool``.
    """
    seen = []

    def profile(frame, event, arg):
        if event == "call" and "numpy" in frame.f_code.co_filename:
            seen.append(frame.f_code.co_name)
        elif event == "c_call" and (getattr(arg, "__module__", None) or "").startswith("numpy"):
            seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


#: A round's standard error: undetermined, a census, at the MoE target or any spread.
_STD_ERRORS = st.one_of(
    st.just(math.inf),
    st.just(0.0),
    st.just("at-target"),
    st.floats(0.0, 0.2),
)


@settings(max_examples=200, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(st.floats(0.0, 1.0), _STD_ERRORS, st.integers(0, 90)), min_size=1, max_size=30
    ),
    min_units=st.integers(2, 60),
    moe_target=st.floats(0.001, 0.2),
    confidence_level=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
def test_stop_rule_reads_arrays_round_for_round_as_scalars(
    rounds, min_units, moe_target, confidence_level
):
    """A folded stretch's one array pass flags exactly the rounds a scalar check accepts."""
    config = EvaluationConfig(
        moe_target=moe_target, confidence_level=confidence_level, min_units=min_units
    )
    at_target = moe_target / normal_critical_value(confidence_level)
    estimates = [
        Estimate(value, at_target if error == "at-target" else error, units, units * 3)
        for value, error, units in rounds
    ]
    scalar = [config.target_met(estimate) for estimate in estimates]
    assert all(type(flag) is bool for flag in scalar)
    assert all(type(e.margin_of_error(confidence_level)) is float for e in estimates)
    stacked = Estimate(
        *(np.array([getattr(e, field) for e in estimates]) for field in Estimate.__annotations__)
    )
    flags = config.target_met(stacked)
    assert flags.dtype == bool and flags.tolist() == scalar
    assert _numpy_calls(lambda: [config.target_met(estimate) for estimate in estimates]) == []


class TestStaticEvaluator:
    def test_stops_once_moe_satisfied(self, nell):
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        config = EvaluationConfig(moe_target=0.05, confidence_level=0.95, batch_size=10)
        report = StaticEvaluator(design, annotator, config).run()
        assert report.satisfied
        assert report.margin_of_error <= 0.05
        assert report.num_units >= config.min_units
        # No over-sampling: removing the last batch must violate the MoE
        # requirement or the minimum-units requirement.
        assert report.num_units <= config.min_units or report.iterations >= 1

    @pytest.mark.parametrize("name", ["srs", "rcs"])
    @pytest.mark.parametrize("moe_target", [0.03, 0.001])
    def test_a_folded_stretch_leaves_python_numbers(self, nell, name, moe_target):
        """Reports reach ``json.dumps`` (the Table-5 sweep): no NumPy scalar may leak.

        At 0.1 % MoE both designs run to a census.
        """
        design = DESIGNS[name](nell.graph, 3)
        annotator = SimulatedAnnotator(nell.oracle, seed=3)
        report = StaticEvaluator(design, annotator, EvaluationConfig(moe_target=moe_target)).run()
        estimate = design.estimate()
        numbers = [
            estimate.value,
            estimate.std_error,
            estimate.num_units,
            estimate.num_triples,
            report.iterations,
            report.num_units,
            report.num_triples_annotated,
            design._cursor,
        ]
        if name == "rcs":
            numbers += [*design._values.moments, design._num_triples]
        else:
            numbers += [design._num_annotated, design._num_correct]
        assert all(type(number) in (int, float) for number in numbers)
        assert report.satisfied is True

    def test_min_units_enforced_even_if_moe_tiny(self, yago):
        """On a highly accurate KG the MoE is tiny immediately, but the CLT
        minimum still applies."""
        design = SimpleRandomDesign(yago.graph, seed=0)
        annotator = SimulatedAnnotator(yago.oracle, seed=0)
        config = EvaluationConfig(moe_target=0.05, min_units=30, batch_size=10)
        report = StaticEvaluator(design, annotator, config).run()
        assert report.num_units >= 30

    def test_max_units_budget_respected(self, nell):
        # Cluster accuracies on NELL vary between 0 and 1, so a 0.1% MoE is far
        # out of reach within a 50-cluster budget.
        design = WeightedClusterDesign(nell.graph, seed=0)
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        config = EvaluationConfig(
            moe_target=0.001, confidence_level=0.95, batch_size=10, max_units=50
        )
        report = StaticEvaluator(design, annotator, config).run()
        assert report.num_units <= 50 + config.batch_size
        assert not report.satisfied

    def test_population_exhaustion_terminates(self, toy_kg):
        graph, oracle = toy_kg
        design = SimpleRandomDesign(graph, seed=0)
        annotator = SimulatedAnnotator(oracle, seed=0)
        config = EvaluationConfig(moe_target=0.01, batch_size=5, min_units=5)
        report = StaticEvaluator(design, annotator, config).run()
        assert report.num_triples_annotated == graph.num_triples
        assert report.accuracy == pytest.approx(oracle.true_accuracy(graph))

    def test_cost_accounting_matches_annotator(self, nell):
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=1)
        annotator = SimulatedAnnotator(nell.oracle, seed=1)
        report = StaticEvaluator(design, annotator).run()
        assert report.annotation_cost_seconds == pytest.approx(annotator.total_cost_seconds)
        assert report.num_triples_annotated == annotator.total_triples_annotated
        assert report.num_entities_identified == annotator.entities_identified
        assert report.annotation_cost_hours == pytest.approx(report.annotation_cost_seconds / 3600)

    def test_run_with_reset_false_continues_previous_state(self, nell):
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=2)
        annotator = SimulatedAnnotator(nell.oracle, seed=2)
        config = EvaluationConfig(moe_target=0.08)
        evaluator = StaticEvaluator(design, annotator, config)
        first = evaluator.run()
        # Tighten the requirement and continue without resetting: the design
        # must keep its earlier units.
        evaluator.config = EvaluationConfig(moe_target=0.04)
        second = evaluator.run(reset=False)
        assert second.num_units >= first.num_units
        assert second.margin_of_error <= 0.04

    def test_run_with_reset_true_clears_annotator(self, nell):
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=3)
        annotator = SimulatedAnnotator(nell.oracle, seed=3)
        evaluator = StaticEvaluator(design, annotator)
        evaluator.run()
        first_cost = annotator.total_cost_seconds
        evaluator.run(reset=True)
        # A fresh run re-charges from zero, so the session total is not the sum.
        assert annotator.total_cost_seconds < 2 * first_cost

    def test_estimates_are_probabilities(self, movie_small):
        for seed in range(5):
            design = WeightedClusterDesign(movie_small.graph, seed=seed)
            annotator = SimulatedAnnotator(movie_small.oracle, seed=seed)
            report = StaticEvaluator(design, annotator).run()
            assert 0.0 <= report.accuracy <= 1.0
            interval = report.confidence_interval
            assert 0.0 <= interval.lower <= interval.upper <= 1.0


class TestEvaluateAccuracyHelper:
    def test_convenience_wrapper(self, nell):
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        report = evaluate_accuracy(design, annotator, moe_target=0.05)
        assert report.satisfied
        assert abs(report.accuracy - nell.true_accuracy) < 0.1

    def test_summary_mentions_key_quantities(self, nell):
        design = SimpleRandomDesign(nell.graph, seed=0)
        annotator = SimulatedAnnotator(nell.oracle, seed=0)
        report = evaluate_accuracy(design, annotator)
        summary = report.summary()
        assert "accuracy=" in summary
        assert "cost=" in summary

    def test_estimation_quality_across_designs(self, nell):
        """All designs land within a few points of the true accuracy on average."""
        designs = {
            "srs": lambda seed: SimpleRandomDesign(nell.graph, seed=seed),
            "wcs": lambda seed: WeightedClusterDesign(nell.graph, seed=seed),
            "twcs": lambda seed: TwoStageWeightedClusterDesign(nell.graph, 5, seed=seed),
        }
        for factory in designs.values():
            errors = []
            for seed in range(10):
                annotator = SimulatedAnnotator(nell.oracle, seed=seed)
                report = evaluate_accuracy(factory(seed), annotator)
                errors.append(abs(report.accuracy - nell.true_accuracy))
            assert sum(errors) / len(errors) < 0.06

    def test_moe_threshold_controls_sample_size(self, movie_small):
        loose_units, tight_units = [], []
        for seed in range(3):
            annotator = SimulatedAnnotator(movie_small.oracle, seed=seed)
            loose = evaluate_accuracy(
                TwoStageWeightedClusterDesign(movie_small.graph, 5, seed=seed),
                annotator,
                moe_target=0.10,
            )
            annotator = SimulatedAnnotator(movie_small.oracle, seed=seed)
            tight = evaluate_accuracy(
                TwoStageWeightedClusterDesign(movie_small.graph, 5, seed=seed),
                annotator,
                moe_target=0.03,
            )
            loose_units.append(loose.num_units)
            tight_units.append(tight.num_units)
        assert sum(tight_units) > sum(loose_units)

    def test_report_margin_of_error_infinite_when_no_samples(self):
        from repro.core.result import EvaluationReport
        from repro.sampling.base import Estimate

        report = EvaluationReport(
            estimate=Estimate(0.0, math.inf, 0, 0),
            confidence_level=0.95,
            moe_target=0.05,
            satisfied=False,
            iterations=0,
            num_units=0,
            num_triples_annotated=0,
            num_entities_identified=0,
            annotation_cost_seconds=0.0,
        )
        assert math.isinf(report.margin_of_error)
        assert not report.satisfied


class TestPositionLoop:
    """The loop labels positions and charges Eq. (4) without building Triples."""

    def test_builds_no_triple_with_the_oracle_array(self, nell, monkeypatch):
        graph = nell.graph.to_columnar()
        nell.oracle.position_labels(graph)

        def refuse(*args, **kwargs):
            raise AssertionError("the position loop materialised a triple")

        monkeypatch.setattr(KnowledgeGraph, "triples_at", refuse)
        monkeypatch.setattr(ColumnarStore, "triples_at", refuse)
        monkeypatch.setattr(ColumnarStore, "iter_triples", refuse)
        config = EvaluationConfig(moe_target=0.05)
        for name, factory in DESIGNS.items():
            annotator = SimulatedAnnotator(nell.oracle, seed=1)
            report = StaticEvaluator(factory(graph, 1), annotator, config).run()
            assert report.satisfied, name
            assert report.num_triples_annotated > 0, name

    def test_classic_loop_exports_round_and_unit_counters(self, nell):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset()
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        report = StaticEvaluator(design, SimulatedAnnotator(nell.oracle)).run()
        assert obs_metrics.counter("sampling_rounds_total").value == report.iterations
        assert obs_metrics.counter("sampling_units_total").value == report.num_units


@pytest.fixture(scope="module")
def movie_tenth():
    """MOVIE x0.1, the graph of the Table-5 rows (draws match on every backend)."""
    data = make_movie_like(seed=0, scale=0.1)
    data.oracle.position_labels(data.graph)
    return data


class TestStreamParity:
    """srs, rcs and wcs kept their streams when the loop moved onto positions."""

    # (units, rounds, triples, entities, cost seconds) at 2 % MoE, as the
    # object-surface loop produced them.
    PINNED = {
        ("srs", 1): (840, 84, 840, 812, 57540.0),
        ("rcs", 1): (15660, 1566, 146066, 15660, 4356350.0),
        ("wcs", 1): (160, 16, 4224, 159, 112755.0),
        ("srs", 2): (840, 84, 840, 810, 57450.0),
        ("rcs", 2): (14530, 1453, 133283, 14530, 3985925.0),
        ("wcs", 2): (90, 9, 2844, 90, 75150.0),
    }

    @pytest.mark.parametrize("design, seed", sorted(PINNED))
    def test_table5_rows_stop_where_they_did(self, movie_tenth, design, seed):
        config = EvaluationConfig(moe_target=0.02, confidence_level=0.95)
        annotator = SimulatedAnnotator(movie_tenth.oracle, seed=seed)
        report = StaticEvaluator(DESIGNS[design](movie_tenth.graph, seed), annotator, config).run()
        assert report.satisfied
        observed = (
            report.num_units,
            report.iterations,
            report.num_triples_annotated,
            report.num_entities_identified,
            report.annotation_cost_seconds,
        )
        assert observed == self.PINNED[(design, seed)]


class TestEdgeAnnotators:
    CONFIG = EvaluationConfig(moe_target=0.03, confidence_level=0.95)

    def test_noisy_flips_reach_the_estimate(self, nell):
        config = EvaluationConfig(moe_target=0.001, max_units=200)
        clean = StaticEvaluator(
            SimpleRandomDesign(nell.graph, seed=4), SimulatedAnnotator(nell.oracle), config
        ).run()
        flipped = StaticEvaluator(
            SimpleRandomDesign(nell.graph, seed=4),
            NoisyAnnotator(nell.oracle, label_error_rate=1.0, seed=4),
            config,
        ).run()
        assert flipped.num_units == clean.num_units == 200
        assert flipped.accuracy == pytest.approx(1.0 - clean.accuracy)
        assert flipped.annotation_cost_seconds == clean.annotation_cost_seconds

    def test_task_pool_builds_task_records(self, nell):
        pool = AnnotationTaskPool([SimulatedAnnotator(nell.oracle)])
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=6)
        pooled = StaticEvaluator(design, pool, self.CONFIG).run()
        direct = StaticEvaluator(
            TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=6),
            SimulatedAnnotator(nell.oracle),
            self.CONFIG,
        ).run()
        assert len(pool.records) == pooled.num_units
        assert sum(record.size for record in pool.records) == pooled.estimate.num_triples
        assert pooled.num_units == direct.num_units
        assert pooled.accuracy == pytest.approx(direct.accuracy)
        assert pooled.annotation_cost_seconds == direct.annotation_cost_seconds

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_a_pool_folds_like_its_one_annotator(self, nell, design):
        """A pool of one oracle annotator votes one ballot per task: its rounds fold
        as that annotator's do, one round per draw."""
        pool = AnnotationTaskPool([SimulatedAnnotator(nell.oracle)])
        pooled = StaticEvaluator(DESIGNS[design](nell.graph, 6), pool, self.CONFIG).run()
        direct = StaticEvaluator(
            DESIGNS[design](nell.graph, 6), SimulatedAnnotator(nell.oracle), self.CONFIG
        ).run()
        assert pooled.num_units == direct.num_units
        assert pooled.estimate.num_triples == direct.estimate.num_triples
        assert pooled.accuracy == pytest.approx(direct.accuracy, rel=1e-12)
        assert pooled.estimate.std_error == pytest.approx(direct.estimate.std_error, rel=1e-9)
        assert pooled.annotation_cost_seconds == direct.annotation_cost_seconds

    @pytest.mark.parametrize(
        "seed, expected",
        [(3, (370, 370, 297, 42470.8)), (4, (330, 330, 279, 37210.50000000001))],
    )
    def test_drifting_srs_charges_the_pinned_cost(self, nell, seed, expected):
        report = StaticEvaluator(
            SimpleRandomDesign(nell.graph, seed=seed),
            DriftingAnnotator(nell.oracle, drift=0.5),
            self.CONFIG,
        ).run()
        observed = (
            report.num_units,
            report.num_triples_annotated,
            report.num_entities_identified,
            report.annotation_cost_seconds,
        )
        assert observed == expected

    @pytest.mark.parametrize(
        "factory, expected",
        [
            (SimpleRandomDesign, (280, 280, 239, 17813.922408545022)),
            (RandomClusterDesign, (817, 1798, 817, 82554.91797427247)),
            (WeightedClusterDesign, (160, 424, 143, 17260.867584140844)),
        ],
        ids=["srs", "rcs", "wcs"],
    )
    def test_lognormal_noise_charges_the_pinned_cost(self, nell, factory, expected):
        annotator = SimulatedAnnotator(nell.oracle, time_noise_sigma=0.5, seed=9)
        report = StaticEvaluator(factory(nell.graph, seed=5), annotator, self.CONFIG).run()
        observed = (
            report.num_units,
            report.num_triples_annotated,
            report.num_entities_identified,
            report.annotation_cost_seconds,
        )
        assert observed == expected


def _crew_annotator(nell, kind: str, seed: int):
    """One NoisyAnnotator (5 % flips), or a pool of three voting with three or one ballot."""
    if kind == "noisy":
        return NoisyAnnotator(nell.oracle, label_error_rate=0.05, seed=seed)
    crew = [
        NoisyAnnotator(nell.oracle, label_error_rate=0.05, seed=10 * seed + index)
        for index in range(3)
    ]
    return AnnotationTaskPool(crew, annotations_per_task=3 if kind == "pool3" else 1)


class TestNoisyAndPooledReports:
    """Every design's report under annotators whose labels are not the oracle's.

    (units, triples, entities, cost seconds, accuracy, standard error) on
    NELL at 3 % MoE for seeds 0, 1 and 2.  In five ``pool1`` runs (tsrcs 1
    and 2, twcs 0, wcs 0 and 1) a round names a position twice and the two
    one-member tasks vote it differently; the position keeps the first vote.
    """

    PINNED = {
        ("noisy", "rcs"): [
            (817, 1798, 817, 81715.0, 0.8748609566184653, 0.0),
            (817, 1798, 817, 81715.0, 0.8754171301446051, 0.0),
            (817, 1798, 817, 81715.0, 0.8731924360400448, 0.0),
        ],
        ("noisy", "srs"): [
            (490, 490, 371, 28945.0, 0.8693877551020408, 0.015223014691154025),
            (460, 460, 355, 27475.0, 0.8804347826086957, 0.015127672324575486),
            (500, 500, 381, 29645.0, 0.866, 0.015234434679370286),
        ],
        ("noisy", "tsrcs"): [
            (2180, 1648, 765, 75625.0, 0.8849839781204396, 0.015254485278699395),
            (2230, 1672, 767, 76315.0, 0.8870255440773746, 0.015277418613876739),
            (2150, 1622, 752, 74390.0, 0.8677441601779751, 0.015275456050363961),
        ],
        ("noisy", "twcs"): [
            (250, 539, 205, 22700.0, 0.8786, 0.015153363835131039),
            (280, 621, 229, 25830.0, 0.8673214285714288, 0.015279647497323192),
            (240, 556, 206, 23170.0, 0.8804166666666667, 0.01496105441840241),
        ],
        ("noisy", "twcs-strat"): [
            (230, 537, 194, 22155.0, 0.8864245296706486, 0.014890896742322184),
            (250, 567, 208, 23535.0, 0.8761101223581758, 0.015045675601459474),
            (210, 483, 177, 20040.0, 0.9011812066317072, 0.015200891251065798),
        ],
        ("noisy", "wcs"): [
            (200, 481, 165, 19450.0, 0.8996241258741258, 0.01511731088034382),
            (250, 636, 216, 25620.0, 0.8806593184593184, 0.014957743781661283),
            (270, 656, 228, 26660.0, 0.8637262942818497, 0.015102087738610062),
        ],
        ("pool3", "rcs"): [
            (817, 5394, 2451, 245145.0, 0.908231368186874, 0.0),
            (817, 5394, 2451, 245145.0, 0.9087875417130148, 0.0),
            (817, 5394, 2451, 245145.0, 0.9076751946607338, 0.0),
        ],
        ("pool3", "srs"): [
            (30, 90, 90, 6300.0, 1.0, 0.0),
            (320, 960, 804, 60180.0, 0.91875, 0.015273387547872283),
            (340, 1020, 858, 64110.0, 0.9147058823529411, 0.015148192586990518),
        ],
        ("pool3", "tsrcs"): [
            (2040, 4884, 2271, 224295.0, 0.916628061680734, 0.015264729967250718),
            (2300, 5046, 2316, 230370.0, 0.921273492286114, 0.015295050748504851),
            (2210, 4875, 2262, 223665.0, 0.9061146371785643, 0.015246930479315675),
        ],
        ("pool3", "twcs"): [
            (120, 882, 321, 36495.0, 0.9388888888888889, 0.015186788722998125),
            (160, 1119, 438, 47685.0, 0.9388541666666667, 0.014670651940776196),
            (220, 1557, 582, 65115.0, 0.9053030303030304, 0.014845445339143884),
        ],
        ("pool3", "twcs-strat"): [
            (60, 498, 177, 20415.0, 0.9691926214312199, 0.014265676564679494),
            (190, 1383, 507, 57390.0, 0.9221869328493647, 0.014752654267217573),
            (140, 1002, 363, 41385.0, 0.945512871444462, 0.014556216785616994),
        ],
        ("pool3", "wcs"): [
            (130, 1086, 339, 42405.0, 0.937758950451258, 0.015202025816803081),
            (190, 1452, 513, 59385.0, 0.9263771316402896, 0.014994033423653644),
            (180, 1464, 492, 58740.0, 0.9097541039207704, 0.015221477635523072),
        ],
        ("pool1", "rcs"): [
            (817, 1798, 817, 81715.0, 0.8759733036707456, 0.0),
            (817, 1798, 817, 81715.0, 0.8681868743047834, 0.0),
            (817, 1798, 817, 81715.0, 0.8659621802002225, 0.0),
        ],
        ("pool1", "srs"): [
            (30, 30, 30, 2100.0, 1.0, 0.0),
            (470, 470, 417, 30515.0, 0.8765957446808511, 0.015171056225468622),
            (540, 540, 484, 35280.0, 0.8537037037037037, 0.01520804428865554),
        ],
        ("pool1", "tsrcs"): [
            (2020, 2895, 1365, 133800.0, 0.8786445885967904, 0.01529238561622766),
            (2250, 3129, 1473, 144510.0, 0.8865727351378072, 0.015276664332322805),
            (2100, 2957, 1399, 136880.0, 0.8688874410720909, 0.015273804102502212),
        ],
        ("pool1", "twcs"): [
            (250, 632, 235, 26375.0, 0.8839333333333332, 0.014990801284764729),
            (210, 544, 202, 22690.0, 0.891111111111111, 0.015277461902186895),
            (240, 618, 225, 25575.0, 0.8718749999999998, 0.015236074664938077),
        ],
        ("pool1", "twcs-strat"): [
            (200, 530, 191, 21845.0, 0.8982244160177976, 0.014778050456252754),
            (230, 614, 221, 25295.0, 0.8840124292692364, 0.015049912073245448),
            (220, 570, 205, 23475.0, 0.8954886742845587, 0.015028707780820768),
        ],
        ("pool1", "wcs"): [
            (220, 676, 212, 26440.0, 0.8773170264079355, 0.015139837965451914),
            (220, 591, 210, 24225.0, 0.8938046171000716, 0.014822717589720518),
            (300, 857, 283, 34160.0, 0.8468999611499612, 0.015183521818299052),
        ],
    }

    @pytest.mark.parametrize("kind, design", sorted(PINNED))
    def test_reports_are_pinned(self, nell, kind, design):
        config = EvaluationConfig(moe_target=0.03)
        observed = []
        for seed in range(3):
            annotator = _crew_annotator(nell, kind, seed)
            report = StaticEvaluator(DESIGNS[design](nell.graph, seed), annotator, config).run()
            observed.append(
                (
                    report.num_units,
                    report.num_triples_annotated,
                    report.num_entities_identified,
                    report.annotation_cost_seconds,
                    report.accuracy,
                    report.estimate.std_error,
                )
            )
        assert observed == self.PINNED[(kind, design)]


class TestSharedSessions:
    """A session shared across graph objects charges c1 once per subject."""

    def test_object_mode_stratified_evaluator(self):
        # The evolving account charges c1 once per entity row across the base
        # stratum and every update stratum.
        base = make_movie_like(seed=3, scale=0.004)
        evaluator = StratifiedIncrementalEvaluator(base, seed=3)
        evaluator.evaluate_base()
        generator = UpdateWorkloadGenerator(base, seed=3)
        for _ in range(2):
            batch, _ = generator.generate_batch(base.graph.num_triples // 2, 0.6)
            evaluator.apply_update(batch)
        graph, account = evaluator.evolving.current, evaluator.account
        annotated = _labelled_positions(account, graph)
        in_base = annotated < base.graph.num_triples
        base_rows = set(graph.rows_of_positions(annotated[in_base]).tolist())
        update_rows = set(graph.rows_of_positions(annotated[~in_base]).tolist())
        assert base_rows & update_rows
        assert account.total_triples_annotated == annotated.shape[0]
        assert account.entities_identified == len(base_rows | update_rows)
        assert account.total_cost_seconds == account.cost_model.cost_seconds(
            account.entities_identified, account.total_triples_annotated
        )

    def test_pilot_labels_are_free_in_the_main_run(self, nell):
        annotator = SimulatedAnnotator(nell.oracle)
        run_pilot(nell.graph, annotator, num_clusters=40, seed=2)
        pilot = set(_labelled_positions(annotator, nell.graph).tolist())
        design = RandomClusterDesign(nell.graph, seed=2)
        StaticEvaluator(design, annotator, EvaluationConfig(moe_target=0.02)).run(reset=False)
        assert pilot < set(_labelled_positions(annotator, nell.graph).tolist())
        _charged_once_per_subject(annotator)

    def test_a_second_run_over_labelled_positions_is_free(self, nell):
        annotator = SimulatedAnnotator(nell.oracle)
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        StaticEvaluator(design, annotator).run()
        cost, triples = annotator.total_cost_seconds, annotator.total_triples_annotated
        _charged_once_per_subject(annotator)
        again = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        StaticEvaluator(again, annotator).run(reset=False)
        assert (annotator.total_cost_seconds, annotator.total_triples_annotated) == (cost, triples)

    def test_noisy_annotator_flips_each_position_once_per_session(self, nell):
        annotator = NoisyAnnotator(nell.oracle, label_error_rate=1.0, seed=1)
        truth = nell.oracle.position_labels(nell.graph)
        units = TwoStageWeightedClusterDesign(nell.graph, 5, seed=1).draw_positions(20)
        labels = annotator.annotate_positions(nell.graph, units)
        np.testing.assert_array_equal(labels[units.positions], ~truth[units.positions])
        # Labelled again, the positions keep their labels and draw no flip.
        state = annotator._label_rng.bit_generator.state
        again = annotator.annotate_positions(nell.graph, units)
        np.testing.assert_array_equal(again[units.positions], ~truth[units.positions])
        assert annotator._label_rng.bit_generator.state == state
        assert annotator.total_triples_annotated == np.unique(units.positions).shape[0]

    def test_granular_evaluator(self, nell):
        annotator = SimulatedAnnotator(nell.oracle)
        # Predicate groups hold 74-108 triples: the five smallest are censused.
        config = EvaluationConfig(moe_target=0.1, min_units=80)
        reports = GranularEvaluator(nell.graph, annotator, config, seed=0).evaluate_by_predicate()
        assert len(reports) > 1
        assert any(report.exhaustive for report in reports.values())
        subjects_per_group = sum(
            report.report.num_entities_identified for report in reports.values()
        )
        assert subjects_per_group == annotator.entities_identified
        _charged_once_per_subject(annotator)
