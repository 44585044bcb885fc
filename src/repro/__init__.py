"""kgeval-repro: efficient knowledge-graph accuracy evaluation.

A from-scratch reproduction of *"Efficient Knowledge Graph Accuracy
Evaluation"* (Gao, Li, Xu, Sisman, Dong, Yang — VLDB 2019): sampling-based,
cost-aware estimation of the accuracy of large (and evolving) knowledge
graphs, with human annotation replaced by a simulated annotator driven by the
paper's own cost model.

Quickstart
----------
>>> from repro import (
...     make_nell_like, TwoStageWeightedClusterDesign, SimulatedAnnotator, evaluate_accuracy,
... )
>>> data = make_nell_like(seed=0)
>>> design = TwoStageWeightedClusterDesign(data.graph, second_stage_size=5, seed=0)
>>> report = evaluate_accuracy(design, SimulatedAnnotator(data.oracle), moe_target=0.05)
>>> 0.0 <= report.accuracy <= 1.0 and report.margin_of_error <= 0.05
True

The public API re-exports the most commonly used classes; the full machinery
lives in the subpackages (``repro.kg``, ``repro.labels``, ``repro.cost``,
``repro.sampling``, ``repro.core``, ``repro.evolving``, ``repro.baselines``,
``repro.generators``, ``repro.experiments``).  The re-exports here and in
every subpackage are lazy (PEP 562, :mod:`repro._lazy`): ``import repro``
loads no subsystem, and a name imports its defining module on first access,
so a command loads only the modules it runs.
"""

from repro._lazy import lazy_exports

__version__ = "0.2.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".kg": ("Triple", "KnowledgeGraph", "UpdateBatch", "EvolvingKnowledgeGraph"),
        ".storage": (
            "StorageBackend",
            "ColumnarStore",
            "DeltaStore",
            "SnapshotStore",
            "ingest_tsv",
            "ingest_nt",
        ),
        ".labels": ("LabelOracle", "RandomErrorModel", "BinomialMixtureModel"),
        ".cost": ("CostModel", "SimulatedAnnotator", "NoisyAnnotator", "AnnotationTaskPool"),
        ".sampling": (
            "SimpleRandomDesign",
            "RandomClusterDesign",
            "WeightedClusterDesign",
            "TwoStageWeightedClusterDesign",
            "TwoStageRandomClusterDesign",
            "StratifiedTWCSDesign",
            "stratify_by_size",
            "stratify_by_oracle_accuracy",
            "optimal_second_stage_size",
            "run_pilot",
            "recommend_design",
        ),
        ".core": (
            "EvaluationConfig",
            "EvaluationReport",
            "StaticEvaluator",
            "evaluate_accuracy",
            "GranularEvaluator",
            "evaluate_by_predicate",
        ),
        ".evolving": (
            "BaselineEvolvingEvaluator",
            "ReservoirIncrementalEvaluator",
            "StratifiedIncrementalEvaluator",
            "EvolvingAccuracyMonitor",
        ),
        ".baselines": ("KGEvalBaseline",),
        ".generators": (
            "LabelledKG",
            "make_nell_like",
            "make_yago_like",
            "make_movie_like",
            "make_movie_syn",
            "make_movie_full_like",
            "UpdateWorkloadGenerator",
        ),
    },
)
__all__.append("__version__")
