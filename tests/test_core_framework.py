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


def _charged_once_per_subject(annotator: SimulatedAnnotator) -> None:
    """Eq. (4) with c1 once per distinct subject and c2 once per labelled triple."""
    labelled = annotator.labelled_triples
    assert annotator.total_triples_annotated == len(labelled)
    assert annotator.entities_identified == len({triple.subject for triple in labelled})
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
        assert sum(record.task.size for record in pool.records) == pooled.estimate.num_triples
        assert pooled.num_units == direct.num_units
        assert pooled.accuracy == pytest.approx(direct.accuracy)
        assert pooled.annotation_cost_seconds == direct.annotation_cost_seconds

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_triple_branch_folds_like_the_position_branch(self, nell, design):
        """A pool of one oracle annotator labels Triples; the round folds as positions do."""
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
        annotated = np.flatnonzero(account.annotated_mask(graph.num_triples))
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
        pilot = set(annotator.labelled_triples)
        design = RandomClusterDesign(nell.graph, seed=2)
        StaticEvaluator(design, annotator, EvaluationConfig(moe_target=0.02)).run(reset=False)
        assert pilot < set(annotator.labelled_triples)
        _charged_once_per_subject(annotator)

    def test_position_labels_are_free_to_annotate_triples(self, nell):
        annotator = SimulatedAnnotator(nell.oracle)
        design = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        StaticEvaluator(design, annotator).run()
        cost, triples = annotator.total_cost_seconds, annotator.total_triples_annotated
        result = annotator.annotate_triples(list(annotator.labelled_triples))
        assert (result.cost_seconds, result.num_triples) == (0.0, 0)
        assert (annotator.total_cost_seconds, annotator.total_triples_annotated) == (cost, triples)
        _charged_once_per_subject(annotator)
        # The moved labels still make a second position run over them free.
        again = TwoStageWeightedClusterDesign(nell.graph, second_stage_size=5, seed=0)
        StaticEvaluator(again, annotator).run(reset=False)
        assert (annotator.total_cost_seconds, annotator.total_triples_annotated) == (cost, triples)

    def test_position_labels_carry_into_annotate_triples(self, nell):
        annotator = SimulatedAnnotator(nell.oracle)
        units = TwoStageWeightedClusterDesign(nell.graph, 5, seed=1).draw_positions(20)
        labels = annotator.annotate_positions(nell.graph, units)
        positions = units.positions
        triples = nell.graph.triples_at(positions)
        result = annotator.annotate_triples(triples)
        assert (result.cost_seconds, result.num_triples) == (0.0, 0)
        assert [result.labels[t] for t in triples] == labels[positions].tolist()

    def test_noisy_annotator_refuses_position_labels(self, nell):
        # Oracle-array labels would skip the flips, so the annotator refuses
        # them; StaticEvaluator sends it down annotate_triples instead.
        annotator = NoisyAnnotator(nell.oracle, label_error_rate=1.0, seed=1)
        units = TwoStageWeightedClusterDesign(nell.graph, 5, seed=1).draw_positions(20)
        with pytest.raises(TypeError, match="annotate_triples"):
            annotator.annotate_positions(nell.graph, units)
        assert annotator.total_triples_annotated == 0

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
