"""Reproduction harness: one entry point per table and figure of the paper.

Every function returns plain data (lists of dictionaries / small dataclasses)
so it can be consumed programmatically by the benchmarks and tests, and every
result can be rendered as a text table with
:func:`repro.experiments.report.format_table`.

Static-KG experiments (Section 7.2):

* :func:`~repro.experiments.static_experiments.figure1_cost_curves`
* :func:`~repro.experiments.static_experiments.figure3_accuracy_vs_size`
* :func:`~repro.experiments.static_experiments.figure4_cost_fit`
* :func:`~repro.experiments.static_experiments.table4_movie_cost`
* :func:`~repro.experiments.static_experiments.table5_static_comparison`
* :func:`~repro.experiments.static_experiments.table6_kgeval_comparison`
* :func:`~repro.experiments.static_experiments.figure5_confidence_sweep`
* :func:`~repro.experiments.static_experiments.figure6_optimal_m`
* :func:`~repro.experiments.static_experiments.table7_stratification`
* :func:`~repro.experiments.static_experiments.figure7_scalability`

Evolving-KG experiments (Section 7.3):

* :func:`~repro.experiments.evolving_experiments.figure8_single_update`
* :func:`~repro.experiments.evolving_experiments.figure9_update_sequence`
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".harness": ("run_trials", "TrialStatistics"),
        ".report": ("format_table",),
        ".static_experiments": (
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
        ),
        ".evolving_experiments": ("figure8_single_update", "figure9_update_sequence"),
    },
)
