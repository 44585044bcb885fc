"""Executes scenario packs through the real engine and gates the statistics.

Every scenario runs ``replications`` independent seeded replications.  A
replication builds its graph and labels from scratch on the requested storage
backend, evaluates through the same code paths the CLI uses
(:class:`~repro.core.framework.StaticEvaluator`, the incremental evaluators
behind ``repro monitor``, or a live ``repro serve`` daemon for fleet
scenarios) and records, per confidence-interval claim, whether the interval
contained the true accuracy.

Determinism contract: the per-replication seed is a stable hash of
``(scenario name, root seed, replication index)`` — independent of the
process, platform and of which other scenarios run — and every replication
folds its trajectory into a SHA-256 digest.  The digest must be bit-identical
across the columnar and sqlite backends for a given (scenario, seed);
`repro scenario compare` holds result files to that standard.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.cost.model import CostModel
from repro.generators.datasets import LabelledKG, generate_calibrated_labels, make_dataset
from repro.generators.synthetic_kg import SyntheticKGConfig, generate_kg
from repro.generators.workload import UpdateWorkloadGenerator, batch_schedule
from repro.kg.graph import KnowledgeGraph
from repro.labels.adversarial import AdversarialClusterModel
from repro.labels.binomial_mixture import BinomialMixtureModel
from repro.labels.oracle import LabelOracle
from repro.labels.random_error import RandomErrorModel
from repro.sampling import make_design
from repro.scenarios.spec import CostSpec, GraphSpec, LabelSpec, ScenarioPack, ScenarioSpec
from repro.stats.ci import wilson_interval

__all__ = ["DriftingAnnotator", "ScenarioResult", "run_scenario", "run_pack", "BACKENDS"]

BACKENDS = ("columnar", "sqlite")

_FLEET_SECRET = b"scenario-fleet"


class DriftingAnnotator(SimulatedAnnotator):
    """An annotator whose per-component cost grows linearly with fatigue.

    Each charged cost component (identification or validation) is multiplied
    by ``1 + drift * n / 100`` where ``n`` is the number of triples already
    annotated in the session.  The factor is deterministic — no RNG draw —
    so drift perturbs costs without ever perturbing a sampling trajectory.
    """

    def __init__(
        self, oracle: LabelOracle, cost_model: CostModel | None = None, drift: float = 0.0
    ) -> None:
        if drift < 0:
            raise ValueError(f"drift must be non-negative, got {drift}")
        super().__init__(oracle, cost_model=cost_model)
        self.drift = drift

    def _noise_factor(self) -> float:
        return 1.0 + self.drift * (self.total_triples_annotated / 100.0)


# --------------------------------------------------------------------------- #
# Seeding and digests
# --------------------------------------------------------------------------- #
def _replication_seed(scenario_name: str, root_seed: int, replication: int) -> int:
    """A stable 64-bit seed for one replication, independent of the platform."""
    token = f"{scenario_name}:{root_seed}:{replication}".encode()
    return int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big")


def _child_seeds(replication_seed: int, count: int) -> list[int]:
    """Derive ``count`` independent 32-bit integer seeds from one replication seed."""
    return [int(s) for s in np.random.SeedSequence(replication_seed).generate_state(count)]


def _fold(hasher, *values) -> None:
    """Fold values into a digest with a canonical, round-trip-exact encoding."""
    for value in values:
        if isinstance(value, float):
            hasher.update(repr(value).encode())
        else:
            hasher.update(str(value).encode())
        hasher.update(b"|")
    hasher.update(b";")


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def _pop_params(params: dict, context: str):
    """Return a popper that raises on leftover (unknown) parameters at the end."""

    def finish() -> None:
        if params:
            raise ValueError(f"{context}: unknown label params {sorted(params)}")

    return finish


def _build_labels(label_spec: LabelSpec, graph: KnowledgeGraph, seed: int) -> LabelOracle:
    params = dict(label_spec.params)
    context = f"label model {label_spec.model!r}"
    finish = _pop_params(params, context)
    if label_spec.model == "random_error":
        accuracy = params.pop("accuracy", None)
        error_rate = params.pop("error_rate", None)
        finish()
        if accuracy is not None and error_rate is not None:
            raise ValueError(f"{context}: give either accuracy or error_rate, not both")
        if accuracy is not None:
            return RandomErrorModel.with_accuracy(accuracy, seed=seed).generate(graph)
        return RandomErrorModel(error_rate if error_rate is not None else 0.1, seed=seed).generate(
            graph
        )
    if label_spec.model == "binomial_mixture":
        model = BinomialMixtureModel(
            c=params.pop("c", 0.01),
            sigma=params.pop("sigma", 0.1),
            k=params.pop("k", 3),
            rho=params.pop("rho", 0.0),
            seed=seed,
        )
        finish()
        return model.generate(graph)
    if label_spec.model == "calibrated":
        oracle = generate_calibrated_labels(
            graph,
            target_accuracy=params.pop("accuracy", 0.9),
            size_correlation=params.pop("size_correlation", 0.15),
            noise_sigma=params.pop("noise_sigma", 0.05),
            seed=seed,
        )
        finish()
        return oracle
    if label_spec.model == "adversarial":
        model = AdversarialClusterModel(
            poisoned_mass=params.pop("poisoned_mass", 0.1),
            poisoned_accuracy=params.pop("poisoned_accuracy", 0.0),
            base_accuracy=params.pop("base_accuracy", 1.0),
            seed=seed,
        )
        finish()
        return model.generate(graph)
    raise ValueError(f"label model {label_spec.model!r} needs a dataset-sourced graph")


def _to_backend(data: LabelledKG, backend: str) -> LabelledKG:
    if backend == "columnar":
        return data.to_columnar()
    if backend == "sqlite":
        return data.to_sqlite()
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _close_backend(graph: KnowledgeGraph) -> None:
    """Release disk resources of a per-replication sqlite graph."""
    close = getattr(graph.backend, "close", None)
    if close is not None:
        close()


def _build_dataset(
    graph_spec: GraphSpec,
    label_spec: LabelSpec,
    graph_seed: int,
    label_seed: int,
    backend: str,
    scenario_name: str,
) -> LabelledKG:
    if graph_spec.source == "synthetic":
        config = SyntheticKGConfig(
            num_entities=graph_spec.num_entities,
            mean_cluster_size=graph_spec.mean_cluster_size,
            size_skew=graph_spec.size_skew,
            max_cluster_size=graph_spec.max_cluster_size,
            name=scenario_name,
        )
        graph = generate_kg(config, graph_seed)
    else:
        data = make_dataset(graph_spec.dataset, graph_seed, graph_spec.scale)
        if label_spec.model == "dataset":
            return _to_backend(data, backend)
        graph = data.graph
    # Labels are drawn on the generated graph, then the graph is re-packed:
    # conversion preserves triple positions and cluster order, so the label
    # array and every seeded draw transfer bit-identically.
    return _to_backend(LabelledKG(graph, _build_labels(label_spec, graph, label_seed)), backend)


def _build_annotator(cost_spec: CostSpec, oracle: LabelOracle) -> SimulatedAnnotator:
    cost_model = CostModel(
        identification_cost=cost_spec.identification_cost,
        validation_cost=cost_spec.validation_cost,
    )
    if cost_spec.drift > 0:
        return DriftingAnnotator(oracle, cost_model=cost_model, drift=cost_spec.drift)
    return SimulatedAnnotator(oracle, cost_model=cost_model)


def _config(spec: ScenarioSpec) -> EvaluationConfig:
    return EvaluationConfig(
        moe_target=spec.moe_target,
        confidence_level=spec.confidence,
        batch_size=spec.batch_size,
        min_units=spec.min_units,
        max_units=spec.max_units,
    )


# --------------------------------------------------------------------------- #
# Per-replication outcomes
# --------------------------------------------------------------------------- #
@dataclass
class _RepOutcome:
    """Coverage observations and cost checks from one replication."""

    observations: list[tuple[bool, float]] = field(default_factory=list)
    cost_checks: list[tuple[float, float, float]] = field(default_factory=list)

    def observe_interval(self, estimate: float, moe: float, truth: float) -> None:
        lower = max(0.0, estimate - moe)
        upper = min(1.0, estimate + moe)
        self.observations.append((lower <= truth <= upper, float(moe)))

    def check_cost(self, measured: float, predicted: float, allowance: float) -> None:
        self.cost_checks.append((float(measured), float(predicted), float(allowance)))


def _static_state_eval(
    spec: ScenarioSpec,
    graph: KnowledgeGraph,
    oracle: LabelOracle,
    design_seed: int,
    outcome: _RepOutcome,
    hasher,
    tag,
) -> None:
    """One full static evaluation of a graph state: coverage, cost, digest."""
    truth = oracle.true_accuracy(graph)
    design = make_design(spec.design, graph, spec.second_stage_size, design_seed)
    annotator = _build_annotator(spec.cost, oracle)
    report = StaticEvaluator(design, annotator, _config(spec)).run()
    interval = report.confidence_interval
    outcome.observations.append((interval.contains(truth), float(report.margin_of_error)))
    predicted = annotator.cost_model.cost_seconds(
        report.num_entities_identified, report.num_triples_annotated
    )
    allowance = 1.0 + spec.cost.drift * report.num_triples_annotated / 100.0
    outcome.check_cost(report.annotation_cost_seconds, predicted, allowance)
    _fold(
        hasher,
        tag,
        float(truth),
        float(report.accuracy),
        float(report.margin_of_error),
        int(report.num_units),
        int(report.num_triples_annotated),
        int(report.num_entities_identified),
        float(report.annotation_cost_seconds),
    )


def _run_static_rep(
    spec: ScenarioSpec, backend: str, replication: int, rep_seed: int, hasher
) -> _RepOutcome:
    seeds = _child_seeds(rep_seed, 3)
    data = _build_dataset(spec.graph, spec.labels, seeds[0], seeds[1], backend, spec.name)
    outcome = _RepOutcome()
    try:
        _static_state_eval(spec, data.graph, data.oracle, seeds[2], outcome, hasher, replication)
    finally:
        _close_backend(data.graph)
    return outcome


def _run_evolving_rep(
    spec: ScenarioSpec, backend: str, replication: int, rep_seed: int, hasher
) -> _RepOutcome:
    from repro.evolving.baseline import BaselineEvolvingEvaluator
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator

    # The evolving layer grows a columnar delta store, so every run uses a
    # columnar base (the draws are bit-identical by construction — sqlite
    # positions mirror columnar positions).
    seeds = _child_seeds(rep_seed, 4)
    base = _build_dataset(spec.graph, spec.labels, seeds[0], seeds[1], "columnar", spec.name)
    evaluator_cls = {
        "rs": ReservoirIncrementalEvaluator,
        "ss": StratifiedIncrementalEvaluator,
        "baseline": BaselineEvolvingEvaluator,
    }[spec.evaluator]
    cost_model = CostModel(
        identification_cost=spec.cost.identification_cost,
        validation_cost=spec.cost.validation_cost,
    )
    evaluator = evaluator_cls(
        base,
        config=_config(spec),
        cost_model=cost_model,
        second_stage_size=spec.second_stage_size,
        seed=seeds[2],
    )
    outcome = _RepOutcome()
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.evaluate_base()
    workload = spec.workload
    generator = UpdateWorkloadGenerator(
        base, new_entity_fraction=workload.new_entity_fraction, seed=seeds[3]
    )
    for batch, batch_oracle in generator.generate_scheduled_sequence(
        workload.total_updates, workload.num_batches, workload.update_accuracy, workload.schedule
    ):
        monitor.apply_update(batch, batch_oracle)
    for record in monitor.records:
        outcome.observe_interval(
            record.estimated_accuracy, record.margin_of_error, record.true_accuracy
        )
        _fold(
            hasher,
            replication,
            record.batch_id,
            float(record.estimated_accuracy),
            float(record.margin_of_error),
            float(record.true_accuracy),
            float(record.cumulative_cost_hours),
        )
    account = evaluator.account
    predicted = cost_model.cost_seconds(
        account.entities_identified, account.total_triples_annotated
    )
    outcome.check_cost(account.total_cost_seconds, predicted, 1.0)
    return outcome


def _run_deletion_rep(
    spec: ScenarioSpec, backend: str, replication: int, rep_seed: int, hasher
) -> _RepOutcome:
    workload = spec.workload
    num_states = workload.num_batches + 1  # the base state plus one per batch
    seeds = _child_seeds(rep_seed, 3 + num_states)
    # State bookkeeping happens on a Triple -> label dict; each evaluated state
    # is built as a columnar graph, then converted to the backend (order-preserving).
    base = _build_dataset(spec.graph, spec.labels, seeds[0], seeds[1], "columnar", spec.name)
    live: dict = base.oracle.as_dict()
    generator = UpdateWorkloadGenerator(
        base,
        new_entity_fraction=workload.new_entity_fraction,
        seed=seeds[2],
    )
    outcome = _RepOutcome()

    def evaluate_state(state_index: int) -> None:
        state_graph = KnowledgeGraph(live.keys(), name=f"{spec.name}-state{state_index}")
        converted = _to_backend(LabelledKG(state_graph, LabelOracle(dict(live))), backend)
        try:
            _static_state_eval(
                spec,
                converted.graph,
                converted.oracle,
                seeds[3 + state_index],
                outcome,
                hasher,
                f"{replication}/{state_index}",
            )
        finally:
            _close_backend(converted.graph)

    evaluate_state(0)
    sizes = batch_schedule(workload.total_updates, workload.num_batches, workload.schedule)
    for index, size in enumerate(sizes, start=1):
        if size > 0:
            batch, batch_oracle = generator.generate_batch(size, workload.update_accuracy)
            for triple in batch:
                live[triple] = batch_oracle.label(triple)
            deletions = generator.generate_deletion_batch(
                list(live.keys()), int(round(size * workload.deletion_fraction))
            )
            for triple in deletions:
                live.pop(triple, None)
        evaluate_state(index)
    return outcome


def _run_fleet_rep(
    spec: ScenarioSpec, backend: str, replication: int, rep_seed: int, hasher
) -> _RepOutcome:
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.server import EvalServer

    # Fleet scenarios exercise the serve daemon, which owns its storage
    # internally — the requested backend does not (and must not) perturb the
    # trajectory, so the digest is identical across backends by construction.
    workload = spec.workload
    seeds = _child_seeds(rep_seed, 3 + 2 * len(spec.fleet))
    dataset_seed = int(seeds[2] % 10_000)
    outcome = _RepOutcome()
    server = EvalServer(port=0, secret=_FLEET_SECRET, queue_limit=64)
    server.start()
    try:
        session_names = []
        errors: list[BaseException] = []

        def drive(index: int, session_spec, session_name: str) -> None:
            try:
                with ServeClient(
                    server.address, secret=_FLEET_SECRET, connect_retries=1
                ) as client:
                    client.attach(
                        {
                            "dataset": session_spec.dataset,
                            "dataset_seed": dataset_seed,
                            "movie_scale": float(spec.graph.scale),
                            "seed": int(seeds[3 + 2 * index] % 2**31),
                            "evaluator": session_spec.evaluator,
                            "moe": spec.moe_target,
                            "confidence": spec.confidence,
                        },
                        session=session_name,
                    )
                    data = make_dataset(session_spec.dataset, dataset_seed, spec.graph.scale)
                    base = data.to_columnar()
                    generator = UpdateWorkloadGenerator(
                        base,
                        new_entity_fraction=workload.new_entity_fraction,
                        seed=int(seeds[4 + 2 * index]),
                    )
                    for batch, batch_oracle in generator.generate_scheduled_sequence(
                        workload.total_updates,
                        workload.num_batches,
                        workload.update_accuracy,
                        workload.schedule,
                    ):
                        client.submit_batch(session_name, batch, batch_oracle)
            except BaseException as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)

        threads = []
        for index, session_spec in enumerate(spec.fleet):
            session_name = f"{session_spec.dataset}-{session_spec.evaluator}-{index}"
            session_names.append(session_name)
            thread = threading.Thread(
                target=drive, args=(index, session_spec, session_name), daemon=True
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        default_cost = CostModel()
        with ServeClient(server.address, secret=_FLEET_SECRET, connect_retries=1) as client:
            for session_name in session_names:
                entries = client.trajectory(session_name)["entries"]
                total_triples = 0
                total_entities = 0
                measured = 0.0
                for entry in entries:
                    record = entry["record"]
                    report = entry["report"]
                    outcome.observe_interval(
                        record.estimated_accuracy, record.margin_of_error, record.true_accuracy
                    )
                    total_triples += int(report.num_triples_annotated)
                    total_entities += int(report.num_entities_identified)
                    measured = float(entry["cumulative_cost_seconds"])
                    _fold(
                        hasher,
                        replication,
                        session_name,
                        entry["batch_id"],
                        float(record.estimated_accuracy),
                        float(record.margin_of_error),
                        float(record.true_accuracy),
                        float(entry["cumulative_cost_seconds"]),
                    )
                predicted = default_cost.cost_seconds(total_entities, total_triples)
                outcome.check_cost(measured, predicted, 1.0)
    finally:
        server.shutdown(drain=True)
    return outcome


_KIND_RUNNERS = {
    "static": _run_static_rep,
    "evolving": _run_evolving_rep,
    "deletion": _run_deletion_rep,
    "fleet": _run_fleet_rep,
}


# --------------------------------------------------------------------------- #
# Scenario results and gates
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated outcome of one scenario's replications, with gate verdicts."""

    name: str
    kind: str
    backend: str
    replications: int
    root_seed: int
    coverage_hits: int
    coverage_trials: int
    empirical_coverage: float
    wilson_lower: float
    wilson_upper: float
    nominal_coverage: float
    coverage_slack: float
    coverage_passed: bool
    mean_moe: float
    max_moe_observed: float
    max_moe_allowed: float
    moe_passed: bool
    mean_cost_ratio: float
    max_cost_ratio: float
    cost_tolerance: float
    cost_passed: bool
    digest: str

    @property
    def passed(self) -> bool:
        """Whether every gate passed."""
        return self.coverage_passed and self.moe_passed and self.cost_passed

    def failures(self) -> list[str]:
        """Human-readable descriptions of the failed gates."""
        failures = []
        if not self.coverage_passed:
            failures.append(
                f"coverage: Wilson upper bound {self.wilson_upper:.4f} "
                f"< nominal {self.nominal_coverage:.4f} - slack {self.coverage_slack:.4f} "
                f"({self.coverage_hits}/{self.coverage_trials} intervals contained the truth)"
            )
        if not self.moe_passed:
            failures.append(
                f"moe: max observed {self.max_moe_observed:.4f} "
                f"> allowed {self.max_moe_allowed:.4f}"
            )
        if not self.cost_passed:
            failures.append(
                f"cost: ratio measured/predicted reached {self.max_cost_ratio:.4f} "
                f"outside tolerance {self.cost_tolerance:.4f}"
            )
        return failures


def run_scenario(
    spec: ScenarioSpec,
    backend: str = "columnar",
    replications: int | None = None,
    root_seed: int = 0,
) -> ScenarioResult:
    """Run one scenario's replications on one backend and gate the statistics."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    runner = _KIND_RUNNERS[spec.kind]
    count = replications if replications is not None else spec.replications
    if count < 1:
        raise ValueError(f"replications must be positive, got {count}")

    hasher = hashlib.sha256()
    observations: list[tuple[bool, float]] = []
    cost_checks: list[tuple[float, float, float]] = []
    for replication in range(count):
        rep_seed = _replication_seed(spec.name, root_seed, replication)
        outcome = runner(spec, backend, replication, rep_seed, hasher)
        observations.extend(outcome.observations)
        cost_checks.extend(outcome.cost_checks)

    hits = sum(1 for covered, _ in observations if covered)
    trials = len(observations)
    wilson = wilson_interval(hits, trials, spec.gates.gate_confidence)
    nominal = spec.nominal_coverage
    coverage_passed = wilson.upper >= nominal - spec.gates.coverage_slack

    moes = [moe for _, moe in observations]
    mean_moe = float(np.mean(moes))
    max_moe_observed = float(np.max(moes))
    moe_passed = max_moe_observed <= spec.max_moe

    tolerance = spec.gates.cost_tolerance
    ratios = [
        measured / predicted if predicted > 0 else 1.0
        for measured, predicted, _ in cost_checks
    ]
    cost_passed = all(
        predicted / tolerance <= measured <= predicted * allowance * tolerance
        for measured, predicted, allowance in cost_checks
    )
    return ScenarioResult(
        name=spec.name,
        kind=spec.kind,
        backend=backend,
        replications=count,
        root_seed=root_seed,
        coverage_hits=hits,
        coverage_trials=trials,
        empirical_coverage=hits / trials,
        wilson_lower=float(wilson.lower),
        wilson_upper=float(wilson.upper),
        nominal_coverage=float(nominal),
        coverage_slack=float(spec.gates.coverage_slack),
        coverage_passed=bool(coverage_passed),
        mean_moe=mean_moe,
        max_moe_observed=max_moe_observed,
        max_moe_allowed=float(spec.max_moe),
        moe_passed=bool(moe_passed),
        mean_cost_ratio=float(np.mean(ratios)),
        max_cost_ratio=float(np.max(ratios)),
        cost_tolerance=float(tolerance),
        cost_passed=bool(cost_passed),
        digest=hasher.hexdigest(),
    )


def run_pack(
    pack: ScenarioPack,
    backend: str = "columnar",
    replications: int | None = None,
    root_seed: int = 0,
    only: str | Sequence[str] | None = None,
    progress=None,
) -> list[ScenarioResult]:
    """Run every scenario of a pack (or a subset, via ``only``) on one backend.

    ``only`` names one scenario or a sequence of scenario names;
    ``replications`` overrides every scenario's own count when given (the
    smoke-in-CI escape hatch); ``progress`` is an optional callable receiving
    each :class:`ScenarioResult` as it lands.
    """
    specs = list(pack)
    if only is not None:
        names = (only,) if isinstance(only, str) else tuple(only)
        specs = [pack.scenario(name) for name in names]
    results = []
    for spec in specs:
        result = run_scenario(spec, backend=backend, replications=replications, root_seed=root_seed)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
