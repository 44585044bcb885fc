"""Synthetic dataset and workload generators.

The paper evaluates on four KGs (NELL, YAGO, MOVIE, MOVIE-FULL; Table 3) whose
raw annotated files are not redistributable here.  This subpackage generates
synthetic equivalents that match the *published statistics* — entity counts,
cluster-size skew and gold accuracy — which is what every estimator in the
paper actually interacts with.  It also generates the evolving-KG update
workloads of Section 7.3 (batches mixing brand-new entities with enrichment of
existing entities, at a controlled accuracy).
"""

from repro.generators.datasets import (
    DATASETS,
    LabelledKG,
    make_dataset,
    make_movie_full_like,
    make_movie_like,
    make_movie_syn,
    make_nell_like,
    make_yago_like,
)
from repro.generators.synthetic_kg import SyntheticKGConfig, generate_kg, sample_cluster_sizes
from repro.generators.workload import UpdateWorkloadGenerator

__all__ = [
    "SyntheticKGConfig",
    "generate_kg",
    "sample_cluster_sizes",
    "DATASETS",
    "LabelledKG",
    "make_dataset",
    "make_nell_like",
    "make_yago_like",
    "make_movie_like",
    "make_movie_syn",
    "make_movie_full_like",
    "UpdateWorkloadGenerator",
]
