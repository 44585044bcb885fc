"""Configuration of an evaluation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sampling.base import Estimate

__all__ = ["EvaluationConfig"]


@dataclass(frozen=True)
class EvaluationConfig:
    """User-facing quality and budget knobs for an evaluation run.

    Parameters
    ----------
    moe_target:
        Required margin of error ``ε`` of the final estimate.  The paper's
        default evaluation task is ``ε = 5 %``.
    confidence_level:
        Confidence level ``1 - α`` of the margin of error (default 95 %).
    batch_size:
        Number of sample units drawn per iteration of the framework.  Smaller
        batches track the stopping point more precisely at the price of more
        estimator updates; the default of 10 mirrors the "small batch"
        behaviour of Online Aggregation referenced by the paper.
    min_units:
        Minimum number of sample units before the stopping rule may fire.  The
        Central Limit Theorem approximation behind Eq. (1) needs roughly 30
        i.i.d. observations (the rule of thumb cited in the paper), so the
        default is 30.
    max_units:
        Hard budget on sample units, as a safety net against non-terminating
        runs on degenerate inputs; ``None`` means unbounded.
    """

    moe_target: float = 0.05
    confidence_level: float = 0.95
    batch_size: int = 10
    min_units: int = 30
    max_units: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.moe_target < 1.0:
            raise ValueError("moe_target must be in (0, 1)")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.min_units < 2:
            raise ValueError("min_units must be at least 2")
        if self.max_units is not None and self.max_units < self.min_units:
            raise ValueError("max_units must be at least min_units")

    def target_met(self, estimate: Estimate) -> bool:
        """The loop's stop rule: ``min_units`` units and a MoE within the target.

        Every evaluation loop stops on this one rule after a round: the
        static loop (:class:`~repro.core.framework.StaticEvaluator`) and the
        evolving evaluators.  On an estimate of plain numbers it returns a
        ``bool``; a folded stretch hands it one estimate of per-round arrays
        and gets one flag per round, from the same operations elementwise.
        """
        return (estimate.num_units >= self.min_units) & estimate.satisfies(
            self.moe_target, self.confidence_level
        )
