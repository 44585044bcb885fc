"""Declarative stress-scenario packs with statistical coverage gates.

A scenario pack (ROADMAP direction 4) turns "the estimator seemed fine on
the paper's grid" into a regression suite: each scenario declares a graph
source, an error model, a cost model and the design or evaluator under test;
the runner executes N seeded replications through the real engine on any
storage backend and gates the empirical CI coverage inside a Wilson
tolerance band around nominal, the margins of error, and the measured
annotation cost against the Eq. (4) prediction.  ``repro scenario
run|compare|list`` exposes the registry on the CLI; see ``docs/scenarios.md``
for the pack format.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".runner": ("BACKENDS", "DriftingAnnotator", "ScenarioResult", "run_pack", "run_scenario"),
        ".packs": ("BUILTIN_PACKS", "builtin_pack", "load_pack"),
        ".spec": (
            "CostSpec",
            "FleetSessionSpec",
            "GateSpec",
            "GraphSpec",
            "LabelSpec",
            "ScenarioPack",
            "ScenarioSpec",
            "WorkloadSpec",
            "load_pack_file",
            "pack_from_dict",
            "scenario_from_dict",
        ),
        ".report": (
            "compare_documents",
            "format_results_table",
            "load_results",
            "results_to_document",
            "write_results",
        ),
    },
)
