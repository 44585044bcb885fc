"""Synthetic dataset and workload generators.

The paper evaluates on four KGs (NELL, YAGO, MOVIE, MOVIE-FULL; Table 3) whose
raw annotated files are not redistributable here.  This subpackage generates
synthetic equivalents that match the *published statistics* — entity counts,
cluster-size skew and gold accuracy — which is what every estimator in the
paper actually interacts with.  It also generates the evolving-KG update
workloads of Section 7.3 (batches mixing brand-new entities with enrichment of
existing entities, at a controlled accuracy).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".synthetic_kg": ("SyntheticKGConfig", "generate_kg", "sample_cluster_sizes"),
        ".datasets": (
            "DATASETS",
            "LabelledKG",
            "make_dataset",
            "make_nell_like",
            "make_yago_like",
            "make_movie_like",
            "make_movie_syn",
            "make_movie_full_like",
        ),
        ".workload": ("UpdateWorkloadGenerator",),
    },
)
