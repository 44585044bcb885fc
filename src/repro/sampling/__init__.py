"""Sampling designs and estimators (Section 5 of the paper).

Every design follows the same life cycle used by the iterative evaluation
framework (Section 4):

1. :meth:`~repro.sampling.base.SamplingDesign.draw_positions` one round of
   *sample units* (individual triples for SRS, cluster draws for the cluster
   designs) as a :class:`~repro.sampling.base.PositionBatch`;
2. hand the batch to an annotator for labels
   (``annotate_positions(graph, batch)``, a label array by position);
3. :meth:`~repro.sampling.base.SamplingDesign.update_all_positions` the
   design's internal estimator with those labels;
4. read the current :meth:`~repro.sampling.base.SamplingDesign.estimate` and
   its margin of error.

These are the only draw and fold steps.

Available designs:

* :class:`~repro.sampling.srs.SimpleRandomDesign` — triple-level simple random
  sampling (Section 5.1);
* :class:`~repro.sampling.rcs.RandomClusterDesign` — uniform cluster sampling
  (Section 5.2.1);
* :class:`~repro.sampling.wcs.WeightedClusterDesign` — size-weighted cluster
  sampling with the Hansen–Hurwitz estimator (Section 5.2.2);
* :class:`~repro.sampling.twcs.TwoStageWeightedClusterDesign` — the paper's
  best design, TWCS (Section 5.2.3);
* :class:`~repro.sampling.stratified.StratifiedTWCSDesign` — TWCS inside
  size/oracle strata (Section 5.3).

Supporting modules: theoretical variance Eq. (10)
(:mod:`repro.sampling.variance`), optimal second-stage size Eq. (12)
(:mod:`repro.sampling.optimal`), stratum construction
(:mod:`repro.sampling.stratification`) and the update-batch population that
TWCS samples in the evolving setting (:mod:`repro.sampling.segment`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.kg.graph import KnowledgeGraph
    from repro.sampling.base import SamplingDesign

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("Estimate", "PositionBatch", "SamplingDesign"),
        ".srs": ("SimpleRandomDesign",),
        ".rcs": ("RandomClusterDesign",),
        ".wcs": ("WeightedClusterDesign",),
        ".twcs": ("TwoStageWeightedClusterDesign",),
        ".tsrcs": ("TwoStageRandomClusterDesign",),
        ".stratified": ("StratifiedTWCSDesign",),
        ".segment": ("PositionSegment",),
        ".pilot": ("PilotResult", "run_pilot", "recommend_design"),
        ".stratification": ("Stratum", "stratify_by_size", "stratify_by_oracle_accuracy"),
        ".variance": ("srs_variance", "twcs_theoretical_variance"),
        ".optimal": (
            "optimal_second_stage_size",
            "expected_srs_cost_seconds",
            "expected_twcs_cost_seconds",
        ),
    },
)
__all__ += ["DESIGNS", "make_design"]

#: The designs :func:`make_design` builds by name.
DESIGNS = ("srs", "rcs", "wcs", "twcs", "twcs-strat")


def make_design(
    name: str,
    graph: KnowledgeGraph,
    second_stage_size: int,
    seed: int | None,
    allocation: str = "proportional",
) -> SamplingDesign:
    """Build the design called ``name`` (one of :data:`DESIGNS`) over ``graph``.

    ``twcs-strat`` is TWCS inside four cluster-size strata;
    ``second_stage_size`` and ``allocation`` apply only where the design has them.
    Only the chosen design's module is imported.
    """
    if name == "srs":
        from repro.sampling.srs import SimpleRandomDesign

        return SimpleRandomDesign(graph, seed=seed)
    if name == "rcs":
        from repro.sampling.rcs import RandomClusterDesign

        return RandomClusterDesign(graph, seed=seed)
    if name == "wcs":
        from repro.sampling.wcs import WeightedClusterDesign

        return WeightedClusterDesign(graph, seed=seed)
    if name == "twcs":
        from repro.sampling.twcs import TwoStageWeightedClusterDesign

        return TwoStageWeightedClusterDesign(graph, second_stage_size=second_stage_size, seed=seed)
    if name == "twcs-strat":
        from repro.sampling.stratification import stratify_by_size
        from repro.sampling.stratified import StratifiedTWCSDesign

        strata = stratify_by_size(graph, num_strata=4)
        return StratifiedTWCSDesign(
            graph, strata, second_stage_size=second_stage_size, seed=seed, allocation=allocation
        )
    raise ValueError(f"unknown design {name!r}")
