"""Annotation-cost modelling.

The central observation of the paper (Section 3) is that the human cost of
annotating a sample is not proportional to the number of triples: annotators
first *identify* the subject entity of an evaluation task (cost ``c1`` per
distinct entity) and then *validate* each relationship (cost ``c2`` per
triple).  This subpackage implements:

* the approximate cost function Eq. (4), :class:`~repro.cost.model.CostModel`;
* a :class:`~repro.cost.annotator.SimulatedAnnotator` that replays the
  annotation process against a ground-truth oracle while charging time with
  that cost model (and optional per-task noise, used to reproduce Figure 1);
* least-squares fitting of ``(c1, c2)`` from timing observations
  (:mod:`repro.cost.fitting`, Figure 4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".model": ("CostModel",),
        ".annotator": (
            "EvaluationTask",
            "AnnotationResult",
            "SimulatedAnnotator",
            "PositionAnnotationAccount",
        ),
        ".pool": ("NoisyAnnotator", "AnnotationTaskPool", "TaskRecord"),
        ".fitting": ("CostObservation", "CostFit", "fit_cost_model"),
    },
)
