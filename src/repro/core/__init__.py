"""The iterative evaluation framework (Section 4, Figure 2).

The framework glues together a sampling design (Sample Collector), a simulated
or human annotator (the Sample Pool's manual annotation step), the design's
estimator (Estimation), and a margin-of-error stopping rule (Quality Control):
it keeps drawing small batches of sample units, collecting labels and
re-estimating until the estimate's margin of error drops below the requested
threshold, then reports the estimate together with the annotation cost spent.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("EvaluationConfig",),
        ".result": ("EvaluationReport",),
        ".framework": ("StaticEvaluator", "evaluate_accuracy"),
        ".granular": ("GranularEvaluator", "GroupReport", "evaluate_by_predicate"),
    },
)
