"""Stratified Incremental Evaluation — Algorithm 2 of the paper (Section 6.2).

Every state of the evolving KG is viewed as a union of non-overlapping strata:
the base graph ``G`` plus one stratum per applied update batch
``Δ_1, …, Δ_k``.  Evaluation results (estimate and variance) of earlier strata
are reused verbatim; when a new batch arrives only that batch's stratum is
sampled (with TWCS) until the *combined* stratified estimate

    µ̂(G + Δ) = Σ_h W_h µ̂_h ,   Var = Σ_h W_h² Var(µ̂_h)

meets the margin-of-error requirement.  Because nothing annotated is ever
discarded, SS is cheaper than the reservoir approach — but a bad initial
estimate of a large stratum persists, which is the fault-tolerance trade-off
shown in Figure 9.

Every stratum is sampled by
:class:`~repro.sampling.twcs.TwoStageWeightedClusterDesign`: the base stratum
runs the static TWCS loop over the (frozen) base graph's CSR index, and each
update batch becomes an appended
:class:`~repro.sampling.segment.PositionSegment` that the same design samples.
Labels resolve by integer position and every round is charged to the
evaluator's annotator session in one call, so no Triple objects are
materialised anywhere in the update loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.result import EvaluationReport
from repro.evolving.base import IncrementalEvaluator, UpdateEvaluation
from repro.kg.updates import UpdateBatch
from repro.sampling.base import Estimate
from repro.sampling.segment import PositionSegment
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["StratifiedIncrementalEvaluator"]


@dataclass
class _StratumState:
    """Evaluation state of one stratum (the base KG or one update batch)."""

    stratum_id: str
    num_triples: int
    design: TwoStageWeightedClusterDesign
    segment: PositionSegment | None = None

    @property
    def estimate(self) -> Estimate:
        return self.design.estimate()


def _add_stratum(sums: tuple, stratum: _StratumState, total_triples: int) -> tuple:
    """``(value, variance, units, triples, undetermined)`` of Eq. (13) after
    adding one stratum's terms, weighted by its share of ``total_triples``."""
    value, variance, num_units, num_triples, undetermined = sums
    weight = stratum.num_triples / total_triples
    estimate = stratum.estimate
    num_units += estimate.num_units
    num_triples += estimate.num_triples
    value += weight * estimate.value
    if math.isinf(estimate.std_error):
        undetermined = True
    else:
        variance += weight * weight * estimate.std_error**2
    return value, variance, num_units, num_triples, undetermined


class StratifiedIncrementalEvaluator(IncrementalEvaluator):
    """Incremental evaluation with one stratum per update batch (Algorithm 2).

    Parameters
    ----------
    min_units_per_stratum:
        Minimum number of cluster draws annotated inside every new stratum
        before its variance estimate is trusted; keeps the combined MoE from
        being declared "satisfied" off a one-cluster stratum sample.
    """

    def __init__(self, *args, min_units_per_stratum: int = 5, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if min_units_per_stratum < 2:
            raise ValueError("min_units_per_stratum must be at least 2")
        self.min_units_per_stratum = min_units_per_stratum
        self._strata: list[_StratumState] = []
        # Eq. (13) sums over every stratum but the newest, keyed by the
        # number of strata they were summed for (see _frozen_sums).
        self._frozen_terms: tuple[int, tuple] | None = None
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # Combined estimator (Eq. 13 over base + update strata)
    # ------------------------------------------------------------------ #
    def _combined_estimate(self) -> Estimate:
        """Eq. (13) over every stratum, summed in stratum order.

        Only the newest stratum is sampled while a batch is evaluated, so the
        other strata's terms are summed once per set of strata
        (:meth:`_frozen_sums`) and each call adds the newest stratum's terms
        to them: the same operations, in the same order, as one loop.
        """
        if not self._strata:
            return Estimate(value=0.0, std_error=math.inf, num_units=0, num_triples=0)
        total_triples, frozen = self._frozen_sums()
        if total_triples == 0:
            return Estimate(value=0.0, std_error=math.inf, num_units=0, num_triples=0)
        value, variance, num_units, num_triples, undetermined = _add_stratum(
            frozen, self._strata[-1], total_triples
        )
        std_error = math.inf if undetermined else math.sqrt(variance)
        return Estimate(
            value=value, std_error=std_error, num_units=num_units, num_triples=num_triples
        )

    def _frozen_sums(self) -> tuple[int, tuple[float, float, int, int, bool]]:
        """The strata's triple count and the Eq. (13) sums over every stratum
        but the newest, computed once per set of strata."""
        strata = self._strata
        if self._frozen_terms is None or self._frozen_terms[0] != len(strata):
            total_triples = sum(stratum.num_triples for stratum in strata)
            sums = (0.0, 0.0, 0, 0, False)
            for stratum in strata[:-1] if total_triples else ():
                sums = _add_stratum(sums, stratum, total_triples)
            self._frozen_terms = (len(strata), (total_triples, sums))
        return self._frozen_terms[1]

    def _build_report(
        self, iterations: int, totals_before: tuple[float, int, int]
    ) -> EvaluationReport:
        estimate = self._combined_estimate()
        return self._report(estimate, iterations, self.config.target_met(estimate), totals_before)

    # ------------------------------------------------------------------ #
    # IncrementalEvaluator interface
    # ------------------------------------------------------------------ #
    def evaluate_base(self) -> UpdateEvaluation:
        """Evaluate the base graph with static TWCS; it becomes the first stratum."""
        totals_before = self._cost_totals()
        design = TwoStageWeightedClusterDesign(
            self.evolving.base, second_stage_size=self.second_stage_size, seed=self._rng
        )
        iterations = self._run_static(design)
        self._strata.append(
            _StratumState(
                stratum_id="base",
                num_triples=self.evolving.base.num_triples,
                design=design,
            )
        )
        report = self._build_report(iterations, totals_before)
        return self._record("base", report)

    def apply_update(self, batch: UpdateBatch) -> UpdateEvaluation:
        """Algorithm 2: sample only inside the new batch's stratum until the MoE holds."""
        if not self._strata:
            raise RuntimeError("evaluate_base() must be called before apply_update()")
        totals_before = self._cost_totals()

        # The segment covers only the triples actually added to G + Δ:
        # re-inserted duplicates already belong to an earlier stratum's
        # weight, and counting them twice would bias the Eq. (13) combination.
        segment = self._append_update(batch)
        if segment.num_triples == 0:
            # Every batch triple was a duplicate: nothing new to sample.
            report = self._build_report(0, totals_before)
            return self._record(batch.batch_id, report)
        design = TwoStageWeightedClusterDesign(
            segment, second_stage_size=self.second_stage_size, seed=self._rng
        )
        stratum = _StratumState(
            stratum_id=batch.batch_id,
            num_triples=segment.num_triples,
            design=design,
            segment=segment,
        )
        self._strata.append(stratum)

        config = self.config
        iterations = 0
        while True:
            combined = self._combined_estimate()
            stratum_ready = stratum.estimate.num_units >= self.min_units_per_stratum
            if stratum_ready and config.target_met(combined):
                break
            if config.max_units is not None and combined.num_units >= config.max_units:
                break
            drawn = design.draw_positions(config.batch_size)
            if not len(drawn):
                break
            iterations += 1
            self._annotate(drawn, segment)
            design.update_all_positions(drawn, self._labels)

        report = self._build_report(iterations, totals_before)
        return self._record(batch.batch_id, report)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_strata(self) -> int:
        """Number of strata tracked so far (base plus applied batches)."""
        return len(self._strata)

    def stratum_estimates(self) -> list[tuple[str, Estimate]]:
        """Return the current per-stratum estimates."""
        return [(stratum.stratum_id, stratum.estimate) for stratum in self._strata]
