"""Golden-trajectory regression suite.

Every fixed-seed trajectory here is pinned bit-for-bit in
``tests/golden/*.json``: the evaluation engine's per-round estimate/cost
series — the single-stream loop's own
:meth:`~repro.core.framework.StaticEvaluator.step`, 4 rounds of 40 units —
for the five designs plus stratified TWCS under both allocation rules, and
the full evaluation histories of the three evolving evaluators (the Baseline,
RS and SS).  Whole :meth:`~repro.core.framework.StaticEvaluator.run` reports
pin where each Table-5 design stops: NELL at 2 % MoE, where RCS ends in a
census, and MOVIE-like x0.01 at 5 %, where RCS stops part way, so a stop
point that moved by one round fails here.  A refactor can no longer silently shift numbers: any
divergence fails here with a pointer to ``--update-golden``, which rewrites
the files for an *intentional* trajectory change (review that diff!).

Each static golden also replays on the out-of-core sqlite backend: a
disk-resident backend may change where the bytes live, never what the loop
draws.

Floats survive the JSON round-trip exactly (``repr``-based shortest
serialisation), so ``==`` on the loaded payload is a bit-identity check.
"""

from __future__ import annotations

import pytest

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_movie_like, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign

_SEED = 2026
_ROUNDS = 4
_ROUND_SIZE = 40

#: The designs of a Table-5 row, as the warm sweep builds them.
RUN_DESIGNS = ("srs", "rcs", "wcs", "twcs", "twcs-strat")
#: Each whole-run graph's MoE target.
RUN_TARGETS = {"nell": 0.02, "movie": 0.05}

STATIC_DESIGNS = {
    "srs": SimpleRandomDesign,
    "rcs": RandomClusterDesign,
    "wcs": WeightedClusterDesign,
    "twcs": TwoStageWeightedClusterDesign,
    "tsrcs": TwoStageRandomClusterDesign,
}


@pytest.fixture(scope="module")
def labelled():
    return make_nell_like(seed=0).to_columnar()


@pytest.fixture(scope="module")
def labelled_sqlite():
    """The same labelled graph re-packed onto the out-of-core sqlite backend."""
    return make_nell_like(seed=0).to_sqlite()


def static_design(graph, design: str, allocation: str | None = None):
    """One golden case's design: ``design`` seeded with the golden seed, or
    stratified TWCS over three size strata when ``allocation`` is given."""
    if allocation is None:
        return STATIC_DESIGNS[design](graph, seed=_SEED)
    strata = stratify_by_size(graph, num_strata=3)
    return StratifiedTWCSDesign(graph, strata, seed=_SEED, allocation=allocation)


def static_trajectory(data: LabelledKG, design) -> list[dict]:
    """Per-round (estimate, cost) series of the classic loop's own step."""
    annotator = SimulatedAnnotator(data.oracle, seed=_SEED)
    evaluator = StaticEvaluator(design, annotator)
    trajectory = []
    for _ in range(_ROUNDS):
        evaluator.step(_ROUND_SIZE)
        estimate = design.estimate()
        trajectory.append(
            {
                "value": float(estimate.value),
                "std_error": float(estimate.std_error),
                "num_units": int(estimate.num_units),
                "num_triples": int(estimate.num_triples),
                "entities_identified": int(annotator.entities_identified),
                "triples_annotated": int(annotator.total_triples_annotated),
                "cost_seconds": float(annotator.total_cost_seconds),
            }
        )
    return trajectory


@pytest.mark.parametrize("design", sorted(STATIC_DESIGNS))
def test_engine_design_trajectory_is_pinned(labelled, golden, design):
    golden.check(
        f"static_{design}", static_trajectory(labelled, static_design(labelled.graph, design))
    )


@pytest.mark.parametrize("allocation", ["proportional", "neyman"])
def test_engine_stratified_trajectory_is_pinned(labelled, golden, allocation):
    design = static_design(labelled.graph, "twcs", allocation)
    golden.check(f"static_twcs_strat_{allocation}", static_trajectory(labelled, design))


@pytest.mark.parametrize("design", sorted(STATIC_DESIGNS))
def test_engine_design_trajectory_replays_on_sqlite(labelled_sqlite, golden, design):
    """The sqlite backend replays the columnar-pinned goldens bit-for-bit."""
    data = labelled_sqlite
    golden.check(f"static_{design}", static_trajectory(data, static_design(data.graph, design)))


@pytest.mark.parametrize("allocation", ["proportional", "neyman"])
def test_engine_stratified_trajectory_replays_on_sqlite(labelled_sqlite, golden, allocation):
    design = static_design(labelled_sqlite.graph, "twcs", allocation)
    golden.check(f"static_twcs_strat_{allocation}", static_trajectory(labelled_sqlite, design))


@pytest.fixture(scope="module")
def run_graphs(labelled, labelled_sqlite) -> dict[str, LabelledKG]:
    """The whole-run graphs, each columnar and in SQLite."""
    movie = make_movie_like(seed=0, scale=0.01)
    return {
        "nell/columnar": labelled,
        "nell/sqlite": labelled_sqlite,
        "movie/columnar": movie.to_columnar(),
        "movie/sqlite": movie.to_sqlite(),
    }


def run_design(graph, design: str):
    """A Table-5 design: TWCS with m = 5, stratified over four size strata."""
    if design == "twcs-strat":
        strata = stratify_by_size(graph, num_strata=4)
        return StratifiedTWCSDesign(graph, strata, second_stage_size=5, seed=_SEED)
    if design == "twcs":
        return TwoStageWeightedClusterDesign(graph, second_stage_size=5, seed=_SEED)
    return STATIC_DESIGNS[design](graph, seed=_SEED)


def whole_runs(data: LabelledKG, moe_target: float) -> dict[str, dict]:
    """Each design's ``run()`` report, to the round where it stops."""
    config = EvaluationConfig(moe_target=moe_target)
    reports = {}
    for design in RUN_DESIGNS:
        annotator = SimulatedAnnotator(data.oracle, seed=_SEED)
        report = StaticEvaluator(run_design(data.graph, design), annotator, config).run()
        reports[design] = {
            "accuracy": report.accuracy,
            "margin_of_error": report.margin_of_error,
            "satisfied": report.satisfied,
            "rounds": report.iterations,
            "num_units": report.num_units,
            "triples_annotated": report.num_triples_annotated,
            "entities_identified": report.num_entities_identified,
            "cost_seconds": report.annotation_cost_seconds,
        }
    return reports


@pytest.mark.parametrize("backend", ["columnar", "sqlite"])
@pytest.mark.parametrize("graph", sorted(RUN_TARGETS))
def test_whole_run_reports_are_pinned(run_graphs, golden, graph, backend):
    """Every design stops at the pinned round, on columns and on SQLite."""
    data = run_graphs[f"{graph}/{backend}"]
    golden.check(f"run_{graph}", whole_runs(data, RUN_TARGETS[graph]))


def _evolving_trajectory(base, cls):
    evaluator = cls(base, config=EvaluationConfig(moe_target=0.06), seed=_SEED)
    evaluator.evaluate_base()
    workload = UpdateWorkloadGenerator(base, seed=_SEED)
    for batch in workload.generate_sequence(2, 120, 0.8):
        evaluator.apply_update(batch)
    trajectory = [
        {
            "batch_id": entry.batch_id,
            "accuracy": float(entry.accuracy),
            "margin_of_error": float(entry.report.margin_of_error),
            "num_units": int(entry.report.num_units),
            "triples_annotated": int(entry.report.num_triples_annotated),
            "entities_identified": int(entry.report.num_entities_identified),
            "cumulative_cost_seconds": float(entry.cumulative_cost_seconds),
        }
        for entry in evaluator.history
    ]
    trajectory.append({"true_accuracy": float(evaluator.current_true_accuracy())})
    return trajectory


@pytest.mark.parametrize(
    "kind, cls",
    [
        ("rs", ReservoirIncrementalEvaluator),
        ("ss", StratifiedIncrementalEvaluator),
        ("baseline", BaselineEvolvingEvaluator),
    ],
)
def test_evolving_trajectory_is_pinned(golden, kind, cls):
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar(), data.oracle)
    golden.check(f"evolving_{kind}", _evolving_trajectory(base, cls))


@pytest.mark.parametrize(
    "kind, cls",
    [
        ("rs", ReservoirIncrementalEvaluator),
        ("ss", StratifiedIncrementalEvaluator),
        ("baseline", BaselineEvolvingEvaluator),
    ],
)
def test_evolving_trajectory_replays_via_sqlite_base(golden, kind, cls):
    """A base graph persisted to sqlite and re-derived as columns (the path
    ``monitor --snapshot`` and a served ``snapshot`` session take on a SQLite
    file) carries the identical pinned trajectory: the delta machinery sees
    bit-identical base columns."""
    data = make_nell_like(seed=0)
    base = LabelledKG(data.graph.to_columnar().to_sqlite().to_columnar(), data.oracle)
    golden.check(f"evolving_{kind}", _evolving_trajectory(base, cls))
