"""A folded stretch stops where a loop of single rounds stops, bit for bit.

``StaticEvaluator.run`` draws a stretch of rounds at once for SRS and RCS
when the annotator labels from its oracle, folds it round by round and stops
at the first round that meets the stop rule.  The reference here is the loop
the paper describes: ``step(batch_size)`` with the stop rule between rounds.
Both must agree on every report field, the design's cursor and accumulators,
every random stream, the annotator's totals and the round and unit counters,
for a first ``run()`` and for a ``run(reset=False)`` that continues it.  WCS,
TWCS and stratified TWCS draw one round at a time and are the controls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.generators.datasets import LabelledKG
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle
from repro.obs import metrics as obs_metrics
from repro.sampling import (
    RandomClusterDesign,
    SimpleRandomDesign,
    StratifiedTWCSDesign,
    TwoStageWeightedClusterDesign,
    WeightedClusterDesign,
)
from repro.sampling.stratification import stratify_by_size
from repro.scenarios.runner import DriftingAnnotator
from repro.stats.running import RunningMean, row_moments

DESIGNS = {
    "srs": lambda graph, seed: SimpleRandomDesign(graph, seed=seed),
    "rcs": lambda graph, seed: RandomClusterDesign(graph, seed=seed),
    "wcs": lambda graph, seed: WeightedClusterDesign(graph, seed=seed),
    "twcs": lambda graph, seed: TwoStageWeightedClusterDesign(
        graph, second_stage_size=3, seed=seed
    ),
    "twcs-strat": lambda graph, seed: StratifiedTWCSDesign(
        graph, stratify_by_size(graph, num_strata=2), second_stage_size=3, seed=seed
    ),
}


GRAPHS = [
    f"{name}/{backend}"
    for name in ("nell", "tiny-a", "tiny-b", "tiny-c")
    for backend in ("columnar", "sqlite")
]


def _tiny(sizes: list[int], seed: int) -> LabelledKG:
    """A graph of a few clusters of the given sizes, small enough to run to a census."""
    rng = np.random.default_rng(seed)
    triples = [
        Triple(f"s{entity}", f"p{index % 2}", f"o{entity}_{index}")
        for entity, size in enumerate(sizes)
        for index in range(size)
    ]
    labels = (rng.random(len(triples)) < 0.7).tolist()
    return LabelledKG(KnowledgeGraph(triples, name="tiny"), LabelOracle(dict(zip(triples, labels))))


@pytest.fixture(scope="module")
def graphs(nell, tmp_path_factory) -> dict[str, LabelledKG]:
    """NELL and three tiny graphs, each columnar and in SQLite."""
    columnar = {
        "nell": nell.to_columnar(),
        "tiny-a": _tiny([4, 2, 6, 1, 3], 1).to_columnar(),
        "tiny-b": _tiny([1, 1, 1, 9, 2, 2, 5, 1], 2).to_columnar(),
        "tiny-c": _tiny([3] * 12, 3).to_columnar(),
    }
    out = {}
    for name, data in columnar.items():
        out[f"{name}/columnar"] = data
        out[f"{name}/sqlite"] = data.to_sqlite(tmp_path_factory.mktemp("stretch") / "kg.db")
    for data in out.values():
        data.oracle.position_labels(data.graph)
    return out


def _annotator(kind: str, oracle: LabelOracle, seed: int) -> SimulatedAnnotator:
    if kind == "lognormal":
        return SimulatedAnnotator(oracle, time_noise_sigma=0.4, seed=seed)
    if kind == "drift":
        return DriftingAnnotator(oracle, drift=0.5)
    return SimulatedAnnotator(oracle, seed=seed)


def _counters() -> tuple[float, float]:
    return (
        obs_metrics.counter("sampling_rounds_total").value,
        obs_metrics.counter("sampling_units_total").value,
    )


def _reference_run(evaluator: StaticEvaluator, reset: bool) -> tuple:
    """The Figure-2 loop as single rounds: ``step`` with the stop rule between them."""
    config, design, annotator = evaluator.config, evaluator.design, evaluator.annotator
    if reset:
        design.reset()
        annotator.reset()
    before = (
        annotator.total_cost_seconds,
        annotator.total_triples_annotated,
        annotator.entities_identified,
    )
    rounds = 0
    while True:
        estimate = design.estimate()
        if config.target_met(estimate):
            satisfied = True
            break
        if config.max_units is not None and estimate.num_units >= config.max_units:
            satisfied = False
            break
        if not evaluator.step(config.batch_size):
            satisfied = estimate.satisfies(config.moe_target, config.confidence_level)
            break
        rounds += 1
    return (
        estimate,
        satisfied,
        rounds,
        estimate.num_units,
        annotator.total_triples_annotated - before[1],
        annotator.entities_identified - before[2],
        annotator.total_cost_seconds - before[0],
    )


def _report_fields(evaluator: StaticEvaluator, reset: bool) -> tuple:
    report = evaluator.run(reset=reset)
    return (
        report.estimate,
        report.satisfied,
        report.iterations,
        report.num_units,
        report.num_triples_annotated,
        report.num_entities_identified,
        report.annotation_cost_seconds,
    )


def _state(evaluator: StaticEvaluator) -> dict:
    """Everything a run leaves behind that a later run can read."""
    design, annotator = evaluator.design, evaluator.annotator
    state = {
        "estimate": design.estimate(),
        "annotator": (
            annotator.total_cost_seconds,
            annotator.total_triples_annotated,
            annotator.entities_identified,
        ),
    }
    if type(annotator) is SimulatedAnnotator:
        state["noise"] = annotator._rng.bit_generator.state
    if hasattr(design, "_rng"):
        state["rng"] = design._rng.bit_generator.state
    if isinstance(design, SimpleRandomDesign):
        state["design"] = (design._cursor, design._num_correct, design._num_annotated)
    elif isinstance(design, RandomClusterDesign):
        values = design._values
        state["design"] = (
            design._cursor,
            values._count,
            values._mean,
            values._m2,
            design._num_triples,
        )
    return state


def _run_both(pair: tuple, config: EvaluationConfig, reset: bool, stretch: int | None) -> None:
    """``run`` on the first (design, annotator), the single-round loop on the second.

    ``stretch`` replaces the loop's choice of how many rounds to draw at once.
    """
    stretched, stepped = (StaticEvaluator(design, annotator, config) for design, annotator in pair)
    if stretch is not None:
        stretched._stretch_rounds = lambda estimate: stretch
    units_before = 0 if reset else stretched.design.estimate().num_units
    start = _counters()
    observed = _report_fields(stretched, reset)
    middle = _counters()
    expected = _reference_run(stepped, reset)
    end = _counters()
    assert observed == expected
    increment = (middle[0] - start[0], middle[1] - start[1])
    assert increment == (end[0] - middle[0], end[1] - middle[1])
    assert increment == (observed[2], observed[3] - units_before)
    assert _state(stretched) == _state(stepped)


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
@settings(max_examples=40, deadline=None)
@given(
    graph_name=st.sampled_from(GRAPHS),
    annotator_kind=st.sampled_from(["plain", "lognormal", "drift"]),
    batch_size=st.integers(1, 40),
    min_units=st.integers(2, 60),
    extra_units=st.one_of(st.none(), st.just(0), st.integers(1, 400)),
    moe_target=st.floats(0.005, 0.2),
    tighter=st.floats(0.3, 1.0),
    stretch=st.one_of(st.none(), st.integers(1, 200)),
    seed=st.integers(0, 2**31 - 1),
)
def test_run_stops_where_single_rounds_stop(
    graphs,
    design_name,
    graph_name,
    annotator_kind,
    batch_size,
    min_units,
    extra_units,
    moe_target,
    tighter,
    stretch,
    seed,
):
    data = graphs[graph_name]
    if extra_units is None and design_name in ("wcs", "twcs", "twcs-strat"):
        # Draws with replacement never run out: bound them.
        extra_units = 400
    max_units = None if extra_units is None else min_units + extra_units
    config = EvaluationConfig(
        moe_target=moe_target, batch_size=batch_size, min_units=min_units, max_units=max_units
    )
    pair = tuple(
        (DESIGNS[design_name](data.graph, seed), _annotator(annotator_kind, data.oracle, seed))
        for _ in range(2)
    )
    _run_both(pair, config, True, stretch)
    # Continue both on their own state towards a tighter target.
    again = EvaluationConfig(
        moe_target=max(moe_target * tighter, 0.001),
        batch_size=batch_size,
        min_units=min_units,
        max_units=None if max_units is None else max_units + batch_size * 7,
    )
    _run_both(pair, again, False, stretch)


@pytest.mark.parametrize("columns", [1, 2, 7, 8, 9, 16, 127, 128, 129, 300])
def test_row_moments_match_one_round_at_a_time(columns):
    """Row-wise reduces equal 1-D reduces, so a folded stretch merges each round's own moments."""
    rng = np.random.default_rng(columns)
    rows = rng.integers(0, 40, size=(5, columns)) * (1.0 / 3.7)
    means, m2s = row_moments(rows)
    for row, mean, m2 in zip(rows, means.tolist(), m2s.tolist()):
        single = RunningMean()
        single.add_many(row)
        assert (single.count, single.mean, single._m2) == (columns, mean, m2)


def test_row_reduce_equals_one_dimensional_reduce_up_to_300():
    """The NumPy behaviour the RCS stretch fold relies on, for every round size 1-300."""
    rng = np.random.default_rng(0)
    for columns in range(1, 301):
        rows = rng.random((4, columns)) * rng.integers(1, 50, size=(4, columns))
        reduced = np.add.reduce(rows, axis=1)
        for row, total in zip(rows, reduced):
            assert np.add.reduce(row) == total, columns
