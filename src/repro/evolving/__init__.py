"""Incremental accuracy evaluation on evolving knowledge graphs (Section 6).

Three evaluators share the interface of
:class:`~repro.evolving.base.IncrementalEvaluator`:

* :class:`~repro.evolving.baseline.BaselineEvolvingEvaluator` — re-runs a
  fresh static TWCS evaluation on every snapshot, discarding earlier
  annotations (the paper's Baseline);
* :class:`~repro.evolving.reservoir_eval.ReservoirIncrementalEvaluator` —
  Algorithm 1: keeps a size-weighted reservoir of annotated clusters,
  stochastically refreshing it as insertion batches arrive;
* :class:`~repro.evolving.stratified_eval.StratifiedIncrementalEvaluator` —
  Algorithm 2: treats the base KG and every update batch as independent
  strata, fully reusing earlier estimates and only annotating inside the new
  stratum.

Each charges Eq. (4) to one
:class:`~repro.cost.annotator.SimulatedAnnotator` session of its own
(``evaluator.account``), round by round through ``annotate_positions`` on the
evolved graph, as the static loop does.

:class:`~repro.evolving.monitor.EvolvingAccuracyMonitor` drives any of them
over a sequence of update batches and records the estimate trajectory
(Section 7.3.2 / Figure 9).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("IncrementalEvaluator", "UpdateEvaluation"),
        ".baseline": ("BaselineEvolvingEvaluator",),
        ".reservoir_eval": ("ReservoirIncrementalEvaluator",),
        ".stratified_eval": ("StratifiedIncrementalEvaluator",),
        ".monitor": ("EvolvingAccuracyMonitor", "MonitorRecord"),
    },
)
