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
``repro.generators``, ``repro.experiments``).
"""

from repro.baselines import KGEvalBaseline
from repro.core import (
    EvaluationConfig,
    EvaluationReport,
    GranularEvaluator,
    StaticEvaluator,
    evaluate_accuracy,
    evaluate_by_predicate,
)
from repro.cost import AnnotationTaskPool, CostModel, NoisyAnnotator, SimulatedAnnotator
from repro.evolving import (
    BaselineEvolvingEvaluator,
    EvolvingAccuracyMonitor,
    ReservoirIncrementalEvaluator,
    StratifiedIncrementalEvaluator,
)
from repro.generators import (
    LabelledKG,
    UpdateWorkloadGenerator,
    make_movie_full_like,
    make_movie_like,
    make_movie_syn,
    make_nell_like,
    make_yago_like,
)
from repro.kg import EvolvingKnowledgeGraph, KnowledgeGraph, Triple, UpdateBatch
from repro.labels import BinomialMixtureModel, LabelOracle, RandomErrorModel
from repro.storage import (
    ColumnarStore,
    DeltaStore,
    SnapshotStore,
    StorageBackend,
    ingest_nt,
    ingest_tsv,
)
from repro.sampling import (
    RandomClusterDesign,
    SimpleRandomDesign,
    StratifiedTWCSDesign,
    TwoStageRandomClusterDesign,
    TwoStageWeightedClusterDesign,
    WeightedClusterDesign,
    optimal_second_stage_size,
    recommend_design,
    run_pilot,
    stratify_by_oracle_accuracy,
    stratify_by_size,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # KG data model
    "Triple",
    "KnowledgeGraph",
    "UpdateBatch",
    "EvolvingKnowledgeGraph",
    # Storage backends
    "StorageBackend",
    "ColumnarStore",
    "DeltaStore",
    "SnapshotStore",
    "ingest_tsv",
    "ingest_nt",
    # Labels
    "LabelOracle",
    "RandomErrorModel",
    "BinomialMixtureModel",
    # Cost / annotation
    "CostModel",
    "SimulatedAnnotator",
    "NoisyAnnotator",
    "AnnotationTaskPool",
    # Sampling designs
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
    # Evaluation framework
    "EvaluationConfig",
    "EvaluationReport",
    "StaticEvaluator",
    "evaluate_accuracy",
    "GranularEvaluator",
    "evaluate_by_predicate",
    # Evolving KG evaluation
    "BaselineEvolvingEvaluator",
    "ReservoirIncrementalEvaluator",
    "StratifiedIncrementalEvaluator",
    "EvolvingAccuracyMonitor",
    # Baseline
    "KGEvalBaseline",
    # Datasets
    "LabelledKG",
    "make_nell_like",
    "make_yago_like",
    "make_movie_like",
    "make_movie_syn",
    "make_movie_full_like",
    "UpdateWorkloadGenerator",
]
