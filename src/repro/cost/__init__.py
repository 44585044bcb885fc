"""Annotation-cost modelling.

The central observation of the paper (Section 3) is that the human cost of
annotating a sample is not proportional to the number of triples: annotators
first *identify* the subject entity of an evaluation task (cost ``c1`` per
distinct entity) and then *validate* each relationship (cost ``c2`` per
triple).  This subpackage implements:

* the approximate cost function Eq. (4), :class:`~repro.cost.model.CostModel`;
* a :class:`~repro.cost.annotator.SimulatedAnnotator` that labels sampled
  positions from a ground-truth oracle while charging time with that cost
  model (and optional per-task noise, used to reproduce Figure 1).  Its
  session is the one Eq. (4) ledger: the static loop, the pilot, the
  granular census, KGEval, the figures and the evolving evaluators all
  charge through :meth:`~repro.cost.annotator.SimulatedAnnotator.annotate_positions`;
* the Sample Pool (:mod:`repro.cost.pool`): a
  :class:`~repro.cost.pool.NoisyAnnotator` that flips labels and an
  :class:`~repro.cost.pool.AnnotationTaskPool` that votes over a crew, both
  on the same position surface;
* least-squares fitting of ``(c1, c2)`` from timing observations
  (:mod:`repro.cost.fitting`, Figure 4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".model": ("CostModel",),
        ".annotator": ("SimulatedAnnotator",),
        ".pool": ("NoisyAnnotator", "AnnotationTaskPool", "TaskRecord"),
        ".fitting": ("CostObservation", "CostFit", "fit_cost_model"),
    },
)
