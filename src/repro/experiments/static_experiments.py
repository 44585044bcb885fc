"""Static-KG experiments: Figures 1, 3, 4, 5, 6, 7 and Tables 4, 5, 6, 7.

Every function is self-contained: it builds (synthetic stand-ins for) the
paper's datasets, runs the relevant evaluation procedures over a configurable
number of randomised trials and returns rows shaped like the corresponding
table or figure series in the paper.  Trial counts and dataset scales default
to laptop-friendly values; pass larger ones to tighten the aggregates (the
paper uses 1000 trials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.kgeval import KGEvalBaseline
from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.cost.fitting import CostFit, CostObservation, fit_cost_model
from repro.cost.model import CostModel
from repro.experiments.harness import TrialStatistics, run_trials
from repro.generators.datasets import (
    LabelledKG,
    make_dataset,
    make_movie_full_like,
    make_movie_like,
    make_movie_syn,
    make_nell_like,
)
from repro.kg.statistics import entity_accuracy_by_size, size_accuracy_correlation
from repro.sampling.base import PositionBatch, SamplingDesign
from repro.sampling.optimal import (
    expected_twcs_cost_seconds,
    optimal_second_stage_size,
    required_twcs_cluster_draws,
)
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import stratify_by_oracle_accuracy, stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign
from repro.storage.columnar import first_occurrences

__all__ = [
    "table3_dataset_characteristics",
    "figure1_cost_curves",
    "figure3_accuracy_vs_size",
    "figure4_cost_fit",
    "table4_movie_cost",
    "table5_static_comparison",
    "table6_kgeval_comparison",
    "figure5_confidence_sweep",
    "figure6_optimal_m",
    "table7_stratification",
    "figure7_scalability",
]

#: Default second-stage cap used when an experiment does not search for the
#: optimal m; Section 7.2.2 finds the optimum in the 3–5 range for every KG.
DEFAULT_SECOND_STAGE_SIZE = 5


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _dataset(name: str, seed: int, movie_scale: float = 0.02) -> LabelledKG:
    """Build one of the paper's datasets (synthetic stand-in) by its paper name."""
    return make_dataset(name.lower(), seed, movie_scale)


def _run_static(
    design: SamplingDesign,
    data: LabelledKG,
    config: EvaluationConfig,
    seed: int,
) -> dict[str, float]:
    """Run one static evaluation and return the metrics every table reports."""
    annotator = SimulatedAnnotator(data.oracle, seed=seed)
    report = StaticEvaluator(design, annotator, config).run()
    return {
        "accuracy_estimate": report.accuracy,
        "annotation_hours": report.annotation_cost_hours,
        "num_triples": float(report.num_triples_annotated),
        "num_entities": float(report.num_entities_identified),
        "num_units": float(report.num_units),
        "moe": report.margin_of_error,
        "estimation_error": abs(report.accuracy - data.true_accuracy),
    }


def _make_design(
    method: str,
    data: LabelledKG,
    seed: int,
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
    num_strata: int = 4,
) -> SamplingDesign:
    """Instantiate a sampling design by its name as used in the paper's tables."""
    graph = data.graph
    normalised = method.upper()
    if normalised == "SRS":
        return SimpleRandomDesign(graph, seed=seed)
    if normalised == "RCS":
        return RandomClusterDesign(graph, seed=seed)
    if normalised == "WCS":
        return WeightedClusterDesign(graph, seed=seed)
    if normalised == "TWCS":
        return TwoStageWeightedClusterDesign(graph, second_stage_size, seed=seed)
    if normalised == "TWCS+SIZE":
        strata = stratify_by_size(graph, num_strata)
        return StratifiedTWCSDesign(graph, strata, second_stage_size, seed=seed)
    if normalised == "TWCS+ORACLE":
        strata = stratify_by_oracle_accuracy(
            graph, data.oracle.cluster_accuracies(graph), num_strata
        )
        return StratifiedTWCSDesign(graph, strata, second_stage_size, seed=seed)
    raise ValueError(f"unknown sampling method {method!r}")


def _stats_row(stats: dict[str, TrialStatistics]) -> dict[str, float]:
    """Flatten a metric→statistics mapping into a mean/std row."""
    row: dict[str, float] = {}
    for name, value in stats.items():
        row[name] = value.mean
        row[f"{name}_std"] = value.std
    return row


# --------------------------------------------------------------------------- #
# Table 3 — data characteristics of the evaluation datasets
# --------------------------------------------------------------------------- #
def table3_dataset_characteristics(
    seed: int = 0, movie_scale: float = 0.02
) -> list[dict[str, object]]:
    """Table 3: entities, triples, average cluster size and gold accuracy per dataset.

    The published values are included in each row (``paper_*`` columns) so the
    synthetic stand-ins can be compared against the real datasets at a glance.
    MOVIE-FULL is summarised at the same scaled size used by the Figure 7
    harness rather than the 130 M-triple original.
    """
    published = {
        "NELL": {"paper_entities": 817, "paper_triples": 1_860, "paper_accuracy": 0.91},
        "YAGO": {"paper_entities": 822, "paper_triples": 1_386, "paper_accuracy": 0.99},
        "MOVIE": {"paper_entities": 288_770, "paper_triples": 2_653_870, "paper_accuracy": 0.90},
    }
    rows: list[dict[str, object]] = []
    for name, reference in published.items():
        data = _dataset(name, seed, movie_scale)
        from repro.kg.statistics import cluster_size_summary

        summary = cluster_size_summary(data.graph)
        row: dict[str, object] = {
            "dataset": data.graph.name,
            "num_entities": summary.num_entities,
            "num_triples": summary.num_triples,
            "avg_cluster_size": summary.mean_size,
            "gold_accuracy": data.true_accuracy,
        }
        row.update(reference)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 1 — annotation cost of triple-level vs entity-level tasks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Figure1Result:
    """Cumulative annotation-time curves for the two task types of Figure 1."""

    triple_level_seconds: tuple[float, ...]
    entity_level_seconds: tuple[float, ...]
    num_triples: int
    entity_level_num_entities: int

    @property
    def triple_level_total_hours(self) -> float:
        """Total time of the triple-level task in hours."""
        return self.triple_level_seconds[-1] / 3600.0 if self.triple_level_seconds else 0.0

    @property
    def entity_level_total_hours(self) -> float:
        """Total time of the entity-level task in hours."""
        return self.entity_level_seconds[-1] / 3600.0 if self.entity_level_seconds else 0.0


def figure1_cost_curves(
    seed: int = 0,
    num_triples: int = 50,
    triples_per_cluster: int = 5,
    movie_scale: float = 0.01,
    time_noise_sigma: float = 0.25,
) -> Figure1Result:
    """Figure 1: cumulative evaluation time, triple-level vs entity-level task.

    The triple-level task draws ``num_triples`` triples with distinct subjects;
    the entity-level task draws random clusters and up to
    ``triples_per_cluster`` triples from each until the same number of triples
    is reached (the paper uses 50 triples from 11 clusters).
    """
    data = make_movie_like(seed=seed, scale=movie_scale)
    graph = data.graph
    rng = np.random.default_rng(seed)

    # Triple-level task: 50 random triples with all-distinct subjects.
    count = min(10 * num_triples, graph.num_triples)
    drawn = rng.choice(graph.num_triples, size=count, replace=False)
    triple_level = drawn[first_occurrences(graph.rows_of_positions(drawn))][:num_triples]

    # Entity-level task: random clusters, at most `triples_per_cluster` each.
    entity_level: list[np.ndarray] = []
    taken = 0
    entity_ids = list(graph.entity_ids)
    rng.shuffle(entity_ids)
    for entity_id in entity_ids:
        if taken >= num_triples:
            break
        chosen = graph.sample_cluster_positions(entity_id, triples_per_cluster, rng)
        chosen = chosen[: num_triples - taken]
        if chosen.shape[0]:
            entity_level.append(chosen)
            taken += chosen.shape[0]

    annotator = SimulatedAnnotator(data.oracle, time_noise_sigma=time_noise_sigma, seed=seed)

    def timeline(positions: np.ndarray) -> tuple[float, ...]:
        """Cumulative time after each triple, annotated one at a time."""
        annotator.reset()
        seconds = []
        for index in range(positions.shape[0]):
            one = PositionBatch.of_triples(positions[index : index + 1])
            annotator.annotate_positions(graph, one)
            seconds.append(annotator.total_cost_seconds)
        return tuple(seconds)

    return Figure1Result(
        triple_level_seconds=timeline(triple_level),
        entity_level_seconds=timeline(np.concatenate(entity_level)),
        num_triples=num_triples,
        entity_level_num_entities=len(entity_level),
    )


# --------------------------------------------------------------------------- #
# Figure 3 — entity accuracy vs cluster size
# --------------------------------------------------------------------------- #
def figure3_accuracy_vs_size(seed: int = 0) -> dict[str, dict[str, object]]:
    """Figure 3: per-entity (cluster size, accuracy) scatter for NELL and YAGO.

    Returns, per dataset, the scatter points and the Pearson correlation — the
    paper's qualitative claim is that the correlation is positive (larger
    clusters are more accurate).
    """
    results: dict[str, dict[str, object]] = {}
    for name in ("NELL", "YAGO"):
        data = _dataset(name, seed)
        labels = data.oracle.as_dict()
        points = entity_accuracy_by_size(data.graph, labels)
        results[name] = {
            "points": [(size, accuracy) for _, size, accuracy in points],
            "correlation": size_accuracy_correlation(data.graph, labels),
            "true_accuracy": data.true_accuracy,
        }
    return results


# --------------------------------------------------------------------------- #
# Figure 4 — cost-function fitting
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Figure4Result:
    """Observed vs fitted annotation times for a set of evaluation tasks."""

    observations: tuple[CostObservation, ...]
    fit: CostFit
    predicted_seconds: tuple[float, ...]


def figure4_cost_fit(
    seed: int = 0,
    num_tasks: int = 12,
    movie_scale: float = 0.01,
    time_noise_sigma: float = 0.2,
) -> Figure4Result:
    """Figure 4: fit Eq. (4) to observed task times and report the fit quality.

    Tasks of varying composition (from all-distinct subjects to heavily
    clustered) are annotated with per-step timing noise; the (c1, c2) fit
    should land near the true cost-model parameters and the fitted curve near
    the observed times.
    """
    data = make_movie_like(seed=seed, scale=movie_scale)
    rng = np.random.default_rng(seed)
    true_model = CostModel()
    observations: list[CostObservation] = []
    for task_index in range(num_tasks):
        annotator = SimulatedAnnotator(
            data.oracle,
            cost_model=true_model,
            time_noise_sigma=time_noise_sigma,
            seed=seed + task_index,
        )
        # Alternate between scattered and clustered task compositions.
        per_cluster = 1 + (task_index % 6)
        total = 20 + 5 * (task_index % 5)
        task: list[np.ndarray] = []
        taken = 0
        entity_ids = list(data.graph.entity_ids)
        rng.shuffle(entity_ids)
        for entity_id in entity_ids:
            if taken >= total:
                break
            chosen = data.graph.sample_cluster_positions(entity_id, per_cluster, rng)
            task.append(chosen[: total - taken])
            taken += task[-1].shape[0]
        annotator.annotate_positions(data.graph, PositionBatch.of_triples(np.concatenate(task)))
        observations.append(
            CostObservation(
                num_entities=annotator.entities_identified,
                num_triples=annotator.total_triples_annotated,
                observed_seconds=annotator.total_cost_seconds,
            )
        )
    fit = fit_cost_model(observations)
    predicted = tuple(
        fit.model.cost_seconds(obs.num_entities, obs.num_triples) for obs in observations
    )
    return Figure4Result(observations=tuple(observations), fit=fit, predicted_seconds=predicted)


# --------------------------------------------------------------------------- #
# Table 4 — manual evaluation cost on MOVIE (SRS vs TWCS)
# --------------------------------------------------------------------------- #
def table4_movie_cost(
    num_trials: int = 20,
    seed: int = 0,
    movie_scale: float = 0.02,
    twcs_second_stage_size: int = 10,
) -> list[dict[str, object]]:
    """Table 4: annotation cost of the MOVIE accuracy evaluation, SRS vs TWCS (m=10)."""
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    rows: list[dict[str, object]] = []
    for method, m in (("SRS", 1), ("TWCS", twcs_second_stage_size)):

        def trial(trial_seed: int, method=method, m=m) -> dict[str, float]:
            data = _dataset("MOVIE", seed, movie_scale)
            design = _make_design(method, data, trial_seed, second_stage_size=m)
            return _run_static(design, data, config, trial_seed)

        stats = run_trials(trial, num_trials, base_seed=seed)
        row: dict[str, object] = {"method": method if method == "SRS" else f"TWCS (m={m})"}
        row.update(_stats_row(stats))
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 5 — SRS / RCS / WCS / TWCS on MOVIE, NELL, YAGO
# --------------------------------------------------------------------------- #
def table5_static_comparison(
    num_trials: int = 20,
    seed: int = 0,
    movie_scale: float = 0.02,
    datasets: tuple[str, ...] = ("MOVIE", "NELL", "YAGO"),
    methods: tuple[str, ...] = ("SRS", "RCS", "WCS", "TWCS"),
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
) -> list[dict[str, object]]:
    """Table 5: annotation hours and estimates of the four designs on each KG."""
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:
        reference = _dataset(dataset_name, seed, movie_scale)
        for method in methods:

            def trial(
                trial_seed: int, dataset_name=dataset_name, method=method
            ) -> dict[str, float]:
                data = _dataset(dataset_name, seed, movie_scale)
                design = _make_design(method, data, trial_seed, second_stage_size)
                return _run_static(design, data, config, trial_seed)

            stats = run_trials(trial, num_trials, base_seed=seed)
            row: dict[str, object] = {
                "dataset": dataset_name,
                "method": method,
                "gold_accuracy": reference.true_accuracy,
            }
            row.update(_stats_row(stats))
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 6 — TWCS vs KGEval on NELL and YAGO
# --------------------------------------------------------------------------- #
def table6_kgeval_comparison(
    num_trials: int = 5,
    seed: int = 0,
    datasets: tuple[str, ...] = ("NELL", "YAGO"),
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
) -> list[dict[str, object]]:
    """Table 6: machine time, triples annotated, hours and estimates for both systems."""
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:
        reference = _dataset(dataset_name, seed)

        def kgeval_trial(trial_seed: int, dataset_name=dataset_name) -> dict[str, float]:
            data = _dataset(dataset_name, seed)
            annotator = SimulatedAnnotator(data.oracle, seed=trial_seed)
            baseline = KGEvalBaseline(data.graph, annotator)
            result = baseline.run()
            return {
                "accuracy_estimate": result.estimated_accuracy,
                "annotation_hours": result.annotation_cost_hours,
                "num_triples": float(result.num_annotated),
                "machine_time_seconds": result.machine_time_seconds,
                "estimation_error": abs(result.estimated_accuracy - data.true_accuracy),
            }

        def twcs_trial(trial_seed: int, dataset_name=dataset_name) -> dict[str, float]:
            data = _dataset(dataset_name, seed)
            design = _make_design("TWCS", data, trial_seed, second_stage_size)
            metrics = _run_static(design, data, config, trial_seed)
            metrics["machine_time_seconds"] = 0.0
            return metrics

        for method, trial in (("KGEval", kgeval_trial), ("TWCS", twcs_trial)):
            stats = run_trials(trial, num_trials, base_seed=seed)
            row: dict[str, object] = {
                "dataset": dataset_name,
                "method": method,
                "gold_accuracy": reference.true_accuracy,
            }
            row.update(_stats_row(stats))
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 5 — sample size and evaluation time vs confidence level
# --------------------------------------------------------------------------- #
def figure5_confidence_sweep(
    num_trials: int = 20,
    seed: int = 0,
    movie_scale: float = 0.02,
    datasets: tuple[str, ...] = ("MOVIE", "NELL", "YAGO"),
    confidence_levels: tuple[float, ...] = (0.90, 0.95, 0.99),
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
) -> list[dict[str, object]]:
    """Figure 5: SRS vs TWCS sample sizes and times as the confidence level varies.

    Each row carries the per-method aggregates plus the cost-reduction ratio of
    TWCS over SRS (the number printed on top of the bars in Figure 5-2).
    """
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:
        for confidence in confidence_levels:
            config = EvaluationConfig(moe_target=0.05, confidence_level=confidence)
            per_method: dict[str, dict[str, TrialStatistics]] = {}
            for method in ("SRS", "TWCS"):

                def trial(
                    trial_seed: int,
                    dataset_name=dataset_name,
                    method=method,
                    config=config,
                ) -> dict[str, float]:
                    data = _dataset(dataset_name, seed, movie_scale)
                    design = _make_design(method, data, trial_seed, second_stage_size)
                    return _run_static(design, data, config, trial_seed)

                per_method[method] = run_trials(trial, num_trials, base_seed=seed)
            srs_hours = per_method["SRS"]["annotation_hours"].mean
            twcs_hours = per_method["TWCS"]["annotation_hours"].mean
            reduction = 0.0 if srs_hours == 0 else 1.0 - twcs_hours / srs_hours
            for method, stats in per_method.items():
                row: dict[str, object] = {
                    "dataset": dataset_name,
                    "confidence_level": confidence,
                    "method": method,
                    "cost_reduction_vs_srs": reduction if method == "TWCS" else 0.0,
                }
                row.update(_stats_row(stats))
                rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 6 — optimal second-stage size m
# --------------------------------------------------------------------------- #
def figure6_optimal_m(
    num_trials: int = 10,
    seed: int = 0,
    movie_scale: float = 0.01,
    m_values: tuple[int, ...] = (1, 2, 3, 5, 8, 10, 15, 20),
    datasets: tuple[str, ...] = ("NELL", "MOVIE-SYN-weak", "MOVIE-SYN-strong"),
) -> list[dict[str, object]]:
    """Figure 6: TWCS sample size and cost as the second-stage size m varies.

    ``MOVIE-SYN-weak`` uses the paper's default BMM parameters
    (c=0.01, σ=0.1 — weak size/accuracy coupling); ``MOVIE-SYN-strong`` uses a
    larger c (0.5) so cluster accuracies are strongly size-determined.  Each
    row also carries the SRS reference and the theoretical cost band (upper
    bound: all clusters larger than m; lower bound: all clusters of size 1).
    """
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    cost_model = CostModel()
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:

        def build(trial_seed: int, dataset_name=dataset_name) -> LabelledKG:
            if dataset_name == "NELL":
                return make_nell_like(seed=seed)
            if dataset_name == "MOVIE-SYN-weak":
                return make_movie_syn(c=0.01, sigma=0.1, seed=seed, scale=movie_scale)
            if dataset_name == "MOVIE-SYN-strong":
                return make_movie_syn(c=0.5, sigma=0.1, seed=seed, scale=movie_scale)
            raise ValueError(f"unknown dataset {dataset_name!r}")

        reference = build(seed)
        sizes = [cluster.size for cluster in reference.graph.clusters()]
        accuracies = [
            reference.oracle.cluster_accuracy(reference.graph, entity_id)
            for entity_id in reference.graph.entity_ids
        ]

        def srs_trial(trial_seed: int, dataset_name=dataset_name) -> dict[str, float]:
            data = build(trial_seed)
            design = _make_design("SRS", data, trial_seed)
            return _run_static(design, data, config, trial_seed)

        srs_stats = run_trials(srs_trial, num_trials, base_seed=seed)

        for m in m_values:

            def twcs_trial(trial_seed: int, dataset_name=dataset_name, m=m) -> dict[str, float]:
                data = build(trial_seed)
                design = _make_design("TWCS", data, trial_seed, second_stage_size=m)
                return _run_static(design, data, config, trial_seed)

            stats = run_trials(twcs_trial, num_trials, base_seed=seed)
            theoretical_draws = required_twcs_cluster_draws(
                sizes, accuracies, m, config.moe_target, config.confidence_level
            )
            upper_cost = expected_twcs_cost_seconds(theoretical_draws, m, cost_model) / 3600.0
            lower_cost = expected_twcs_cost_seconds(theoretical_draws, 1, cost_model) / 3600.0
            row: dict[str, object] = {
                "dataset": dataset_name,
                "m": m,
                "srs_annotation_hours": srs_stats["annotation_hours"].mean,
                "srs_num_triples": srs_stats["num_triples"].mean,
                "theoretical_cluster_draws": float(theoretical_draws),
                "theoretical_cost_upper_hours": upper_cost,
                "theoretical_cost_lower_hours": lower_cost,
            }
            row.update(_stats_row(stats))
            rows.append(row)

        optimum = optimal_second_stage_size(
            sizes, accuracies, cost_model, config.moe_target, config.confidence_level
        )
        rows.append(
            {
                "dataset": dataset_name,
                "m": optimum.second_stage_size,
                "optimal": True,
                "theoretical_cluster_draws": float(optimum.num_cluster_draws),
                "theoretical_cost_upper_hours": optimum.expected_cost_hours,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Table 7 — TWCS with stratification
# --------------------------------------------------------------------------- #
def table7_stratification(
    num_trials: int = 20,
    seed: int = 0,
    movie_scale: float = 0.02,
    datasets: tuple[str, ...] = ("NELL", "MOVIE-SYN", "MOVIE"),
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
) -> list[dict[str, object]]:
    """Table 7: SRS, TWCS, TWCS + size stratification and TWCS + oracle stratification."""
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:
        reference = _dataset(dataset_name, seed, movie_scale)
        num_strata = 2 if dataset_name == "NELL" else 4
        for method in ("SRS", "TWCS", "TWCS+SIZE", "TWCS+ORACLE"):

            def trial(
                trial_seed: int,
                dataset_name=dataset_name,
                method=method,
                num_strata=num_strata,
            ) -> dict[str, float]:
                data = _dataset(dataset_name, seed, movie_scale)
                design = _make_design(
                    method, data, trial_seed, second_stage_size, num_strata=num_strata
                )
                return _run_static(design, data, config, trial_seed)

            stats = run_trials(trial, num_trials, base_seed=seed)
            row: dict[str, object] = {
                "dataset": dataset_name,
                "method": method,
                "gold_accuracy": reference.true_accuracy,
                "num_strata": num_strata if "+" in method else 1,
            }
            row.update(_stats_row(stats))
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 7 — scalability of TWCS
# --------------------------------------------------------------------------- #
def figure7_scalability(
    num_trials: int = 5,
    seed: int = 0,
    triple_counts: tuple[int, ...] = (26_000, 52_000, 104_000, 208_000),
    accuracies: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    accuracy_sweep_triples: int = 52_000,
    second_stage_size: int = DEFAULT_SECOND_STAGE_SIZE,
) -> dict[str, list[dict[str, object]]]:
    """Figure 7: TWCS cost vs KG size (left) and vs overall accuracy (right).

    The paper sweeps 26 M–130 M triples on MOVIE-FULL; the default here keeps
    the same 1×/2×/4×/8× progression at 1/1000 scale (pass the paper's sizes
    to regenerate the full sweep — the code path is identical).  The expected
    shapes: cost flat in KG size, peaked at 50 % accuracy.
    """
    config = EvaluationConfig(moe_target=0.05, confidence_level=0.95)
    size_rows: list[dict[str, object]] = []
    for num_triples in triple_counts:

        def size_trial(trial_seed: int, num_triples=num_triples) -> dict[str, float]:
            data = make_movie_full_like(num_triples=num_triples, accuracy=0.9, seed=seed)
            design = _make_design("TWCS", data, trial_seed, second_stage_size)
            return _run_static(design, data, config, trial_seed)

        stats = run_trials(size_trial, num_trials, base_seed=seed)
        row: dict[str, object] = {"num_triples_in_kg": num_triples, "accuracy": 0.9}
        row.update(_stats_row(stats))
        size_rows.append(row)

    accuracy_rows: list[dict[str, object]] = []
    for accuracy in accuracies:

        def accuracy_trial(trial_seed: int, accuracy=accuracy) -> dict[str, float]:
            data = make_movie_full_like(
                num_triples=accuracy_sweep_triples, accuracy=accuracy, seed=seed
            )
            design = _make_design("TWCS", data, trial_seed, second_stage_size)
            return _run_static(design, data, config, trial_seed)

        stats = run_trials(accuracy_trial, num_trials, base_seed=seed)
        row = {"num_triples_in_kg": accuracy_sweep_triples, "accuracy": accuracy}
        row.update(_stats_row(stats))
        accuracy_rows.append(row)

    return {"varying_size": size_rows, "varying_accuracy": accuracy_rows}
