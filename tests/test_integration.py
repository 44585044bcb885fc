"""Integration tests: full evaluation pipelines across modules, and the public API."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    BaselineEvolvingEvaluator,
    EvaluationConfig,
    EvolvingAccuracyMonitor,
    KGEvalBaseline,
    ReservoirIncrementalEvaluator,
    SimpleRandomDesign,
    SimulatedAnnotator,
    StaticEvaluator,
    StratifiedIncrementalEvaluator,
    StratifiedTWCSDesign,
    TwoStageWeightedClusterDesign,
    UpdateWorkloadGenerator,
    evaluate_accuracy,
    make_movie_like,
    make_nell_like,
    stratify_by_size,
)


_SRC = Path(__file__).resolve().parent.parent / "src"

#: ``repro`` and every subpackage: each re-exports its names lazily.
_PACKAGES = sorted(
    ["repro"] + [f"repro.{p.parent.name}" for p in (_SRC / "repro").glob("*/__init__.py")]
)


class TestPublicAPI:
    @pytest.mark.parametrize("package", _PACKAGES)
    def test_all_exports_resolvable(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"
            assert name in listed, f"dir({package}) misses {name}"
        assert not hasattr(module, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export

    def test_every_module_imports_alone(self):
        # Lazy package exports change the order modules load in; an import
        # cycle that order exposes shows only in a fresh interpreter, so each
        # module is imported there with every repro module forgotten first.
        names = sorted(
            ".".join(path.relative_to(_SRC).with_suffix("").parts).removesuffix(".__init__")
            for path in (_SRC / "repro").rglob("*.py")
        )
        code = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
            "        del sys.modules[loaded]\n"
            "    importlib.import_module(name)\n"
            "    print(name)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code, *names],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == names
        assert len(names) > 80

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_flow(self):
        data = make_nell_like(seed=0)
        design = TwoStageWeightedClusterDesign(data.graph, second_stage_size=5, seed=0)
        report = evaluate_accuracy(design, SimulatedAnnotator(data.oracle), moe_target=0.05)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.margin_of_error <= 0.05


class TestStaticPipeline:
    def test_coverage_of_confidence_intervals(self):
        """The 95% interval produced by the framework covers the true accuracy
        in roughly 95% of runs (allowing slack for the small trial count and
        the sequential stopping rule)."""
        data = make_nell_like(seed=1)
        covered = 0
        trials = 40
        for seed in range(trials):
            design = TwoStageWeightedClusterDesign(data.graph, second_stage_size=4, seed=seed)
            annotator = SimulatedAnnotator(data.oracle, seed=seed)
            report = evaluate_accuracy(design, annotator, moe_target=0.05)
            if report.confidence_interval.contains(data.true_accuracy):
                covered += 1
        assert covered / trials >= 0.8

    def test_twcs_cheaper_than_srs_on_clustered_kg(self):
        """The headline claim of the paper on a MOVIE-shaped KG (averaged)."""
        data = make_movie_like(seed=2, scale=0.01)
        srs_costs, twcs_costs = [], []
        for seed in range(5):
            srs_report = evaluate_accuracy(
                SimpleRandomDesign(data.graph, seed=seed),
                SimulatedAnnotator(data.oracle, seed=seed),
            )
            twcs_report = evaluate_accuracy(
                TwoStageWeightedClusterDesign(data.graph, second_stage_size=5, seed=seed),
                SimulatedAnnotator(data.oracle, seed=seed),
            )
            srs_costs.append(srs_report.annotation_cost_hours)
            twcs_costs.append(twcs_report.annotation_cost_hours)
        assert np.mean(twcs_costs) < np.mean(srs_costs)

    def test_stratified_design_in_full_pipeline(self):
        data = make_movie_like(seed=3, scale=0.005)
        strata = stratify_by_size(data.graph, num_strata=3)
        design = StratifiedTWCSDesign(data.graph, strata, second_stage_size=5, seed=0)
        annotator = SimulatedAnnotator(data.oracle, seed=0)
        report = StaticEvaluator(design, annotator, EvaluationConfig(moe_target=0.05)).run()
        assert report.satisfied
        assert abs(report.accuracy - data.true_accuracy) < 0.1

    def test_kgeval_and_twcs_comparable_estimates(self):
        data = make_nell_like(seed=4)
        kgeval = KGEvalBaseline(data.graph, SimulatedAnnotator(data.oracle), coverage_target=0.85)
        kgeval_result = kgeval.run()
        twcs_report = evaluate_accuracy(
            TwoStageWeightedClusterDesign(data.graph, 5, seed=0),
            SimulatedAnnotator(data.oracle, seed=0),
        )
        assert abs(kgeval_result.estimated_accuracy - twcs_report.accuracy) < 0.2


class TestEvolvingPipeline:
    def test_full_monitoring_run_all_methods(self):
        movie = make_movie_like(seed=5, scale=0.004)
        base = UpdateWorkloadGenerator.split_base(movie, 0.6, seed=5)
        results = {}
        for name, evaluator in (
            ("baseline", BaselineEvolvingEvaluator(base, seed=0)),
            ("rs", ReservoirIncrementalEvaluator(base, seed=0)),
            ("ss", StratifiedIncrementalEvaluator(base, seed=0)),
        ):
            monitor = EvolvingAccuracyMonitor(evaluator)
            workload = UpdateWorkloadGenerator(base, seed=17)
            records = monitor.run(workload.generate_sequence(3, base.graph.num_triples // 5, 0.7))
            results[name] = records
        for records in results.values():
            assert len(records) == 4
            assert all(record.estimation_error < 0.15 for record in records)
        # Total cost ordering: incremental methods cheaper than the baseline.
        total = {name: records[-1].cumulative_cost_hours for name, records in results.items()}
        assert total["ss"] < total["baseline"]
        assert total["rs"] < total["baseline"]

    def test_update_stream_with_mixed_quality(self):
        movie = make_movie_like(seed=6, scale=0.004)
        base = UpdateWorkloadGenerator.split_base(movie, 0.6, seed=6)
        evaluator = StratifiedIncrementalEvaluator(base, seed=1)
        monitor = EvolvingAccuracyMonitor(evaluator)
        monitor.evaluate_base()
        workload = UpdateWorkloadGenerator(base, seed=23)
        for accuracy in (0.9, 0.3, 0.9):
            batch, _ = workload.generate_batch(base.graph.num_triples // 4, accuracy)
            monitor.apply_update(batch)
        truths = [record.true_accuracy for record in monitor.records]
        estimates = [record.estimated_accuracy for record in monitor.records]
        # The bad batch (30% accurate) must show up both in the truth and in
        # the tracked estimate.
        assert truths[2] < truths[1]
        assert estimates[2] < estimates[1]
