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

On the position surface (``surface="position"``) the base stratum runs the
TWCS position loop over the (frozen) base graph's CSR index and each update
batch becomes an appended CSR segment sampled with
:class:`~repro.sampling.segment.SegmentTWCSDesign`; labels resolve by integer
position and cost is charged through the position account, so no Triple
objects are materialised anywhere in the update loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.framework import StaticEvaluator
from repro.core.result import EvaluationReport
from repro.evolving.base import IncrementalEvaluator, UpdateEvaluation
from repro.kg.graph import KnowledgeGraph
from repro.kg.updates import UpdateBatch
from repro.labels.oracle import LabelOracle
from repro.sampling.base import Estimate, PositionUnit
from repro.sampling.segment import PositionSegment, SegmentTWCSDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign

__all__ = ["StratifiedIncrementalEvaluator"]


@dataclass
class _StratumState:
    """Evaluation state of one stratum (the base KG or one update batch)."""

    stratum_id: str
    num_triples: int
    design: TwoStageWeightedClusterDesign | SegmentTWCSDesign
    segment: PositionSegment | None = None

    @property
    def estimate(self) -> Estimate:
        return self.design.estimate()


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
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # Combined estimator (Eq. 13 over base + update strata)
    # ------------------------------------------------------------------ #
    def _combined_estimate(self) -> Estimate:
        total_triples = sum(stratum.num_triples for stratum in self._strata)
        if total_triples == 0 or not self._strata:
            return Estimate(value=0.0, std_error=math.inf, num_units=0, num_triples=0)
        value = 0.0
        variance = 0.0
        num_units = 0
        num_triples = 0
        undetermined = False
        for stratum in self._strata:
            weight = stratum.num_triples / total_triples
            estimate = stratum.estimate
            num_units += estimate.num_units
            num_triples += estimate.num_triples
            value += weight * estimate.value
            if math.isinf(estimate.std_error):
                undetermined = True
            else:
                variance += weight * weight * estimate.std_error**2
        std_error = math.inf if undetermined else math.sqrt(variance)
        return Estimate(
            value=value, std_error=std_error, num_units=num_units, num_triples=num_triples
        )

    def _build_report(
        self, iterations: int, totals_before: tuple[float, int, int]
    ) -> EvaluationReport:
        estimate = self._combined_estimate()
        satisfied = not math.isinf(estimate.std_error) and estimate.satisfies(
            self.config.moe_target, self.config.confidence_level
        )
        triples, entities, cost_seconds = self._report_fields(totals_before)
        return EvaluationReport(
            estimate=estimate,
            confidence_level=self.config.confidence_level,
            moe_target=self.config.moe_target,
            satisfied=satisfied,
            iterations=iterations,
            num_units=estimate.num_units,
            num_triples_annotated=triples,
            num_entities_identified=entities,
            annotation_cost_seconds=cost_seconds,
        )

    # ------------------------------------------------------------------ #
    # Position-surface annotation
    # ------------------------------------------------------------------ #
    def _charge_units(self, units: list[PositionUnit], segment: PositionSegment | None) -> None:
        """Charge the position account for a batch of drawn cluster units."""
        assert self._account is not None
        current = self.evolving.current
        for unit in units:
            if segment is None:
                entity_key = unit.entity_row
            else:
                entity_key = current.entity_row(segment.subjects[unit.entity_row])
            self._account.charge(entity_key, unit.positions)

    def _drive_position_base(self, design: TwoStageWeightedClusterDesign) -> int:
        """Position-surface twin of the StaticEvaluator loop for the base stratum."""
        assert self._labels is not None
        config = self.config
        iterations = 0
        while True:
            estimate = design.estimate()
            enough = estimate.num_units >= config.min_units
            if enough and estimate.satisfies(config.moe_target, config.confidence_level):
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                break
            units = design.draw_positions(config.batch_size)
            if not units:
                break
            self._charge_units(units, None)
            design.update_all_positions(units, self._labels)
            iterations += 1
        return iterations

    # ------------------------------------------------------------------ #
    # IncrementalEvaluator interface
    # ------------------------------------------------------------------ #
    def evaluate_base(self) -> UpdateEvaluation:
        """Evaluate the base graph with static TWCS; it becomes the first stratum."""
        totals_before = self._cost_totals()
        design = TwoStageWeightedClusterDesign(
            self.evolving.base, second_stage_size=self.second_stage_size, seed=self._rng
        )
        if self.position_mode:
            iterations = self._drive_position_base(design)
        else:
            evaluator = StaticEvaluator(design, self.annotator, self.config)
            iterations = evaluator.run(reset=False).iterations
        self._strata.append(
            _StratumState(
                stratum_id="base",
                num_triples=self.evolving.base.num_triples,
                design=design,
            )
        )
        report = self._build_report(iterations, totals_before)
        return self._record("base", report)

    def apply_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> UpdateEvaluation:
        """Algorithm 2: sample only inside the new batch's stratum until the MoE holds."""
        if not self._strata:
            raise RuntimeError("evaluate_base() must be called before apply_update()")
        totals_before = self._cost_totals()

        segment: PositionSegment | None = None
        if self.position_mode:
            segment = self._append_update(batch, batch_oracle)
            if segment.num_triples == 0:
                # Every batch triple was a duplicate: nothing new to sample.
                report = self._build_report(0, totals_before)
                return self._record(batch.batch_id, report)
            design: TwoStageWeightedClusterDesign | SegmentTWCSDesign = SegmentTWCSDesign(
                segment, second_stage_size=self.second_stage_size, seed=self._rng
            )
            stratum = _StratumState(
                stratum_id=batch.batch_id,
                num_triples=segment.num_triples,
                design=design,
                segment=segment,
            )
        else:
            flags = self._register_update(batch, batch_oracle)
            # The stratum covers only the triples actually added to G + Δ:
            # re-inserted duplicates already belong to an earlier stratum's
            # weight, and counting them twice would bias the Eq. (13)
            # combination (the position surface dedups identically).
            added = [triple for triple, was_added in zip(batch.triples, flags) if was_added]
            if not added:
                report = self._build_report(0, totals_before)
                return self._record(batch.batch_id, report)
            batch_graph = KnowledgeGraph(added, name=batch.batch_id)
            design = TwoStageWeightedClusterDesign(
                batch_graph, second_stage_size=self.second_stage_size, seed=self._rng
            )
            stratum = _StratumState(
                stratum_id=batch.batch_id, num_triples=len(added), design=design
            )
        self._strata.append(stratum)

        config = self.config
        iterations = 0
        while True:
            stratum_estimate = stratum.estimate
            combined = self._combined_estimate()
            stratum_ready = stratum_estimate.num_units >= self.min_units_per_stratum
            if (
                stratum_ready
                and not math.isinf(combined.std_error)
                and combined.satisfies(config.moe_target, config.confidence_level)
            ):
                break
            if config.max_units is not None and combined.num_units >= config.max_units:
                break
            if self.position_mode:
                assert self._labels is not None
                units = design.draw_positions(config.batch_size)
                if not units:
                    break
                iterations += 1
                self._charge_units(units, segment)
                design.update_all_positions(units, self._labels)
            else:
                object_units = design.draw(config.batch_size)
                if not object_units:
                    break
                iterations += 1
                for unit in object_units:
                    result = self.annotator.annotate_triples(unit.triples)
                    design.update(unit, result.labels)

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
