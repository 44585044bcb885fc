"""Running (incremental) moment computation.

The iterative evaluation framework of the paper draws samples in small batches
and re-estimates after each batch.  :class:`RunningMean` keeps Welford-style
running moments so the estimate, sample variance and standard error of the
mean are available at any time without revisiting earlier observations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = ["RunningMean", "row_moments"]


def row_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sum of squared deviations of each row of a 2-D array.

    Row ``i`` gets what :meth:`RunningMean.add_many` computes for ``rows[i]``
    alone: NumPy reduces each row of a C-contiguous array with the pairwise
    sum it runs on a 1-D array, so the moments agree bit for bit (pinned by
    the test suite for row lengths 1 to 300).
    """
    means = np.add.reduce(rows, axis=1) / rows.shape[1]
    deviations = rows - means[:, None]
    return means, np.add.reduce(deviations * deviations, axis=1)


class RunningMean:
    """Numerically stable running mean / variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def add_all(self, values: Iterable[float]) -> None:
        """Add many observations."""
        for value in values:
            self.add(value)

    def add_many(self, values) -> None:
        """Add a batch of observations in one vectorised step.

        Computes the batch moments with NumPy and folds them in with
        :meth:`add_moments`, so cost is one pass over the array instead of
        one Python-level :meth:`add` per value.  (Floating-point rounding may
        differ from sequential adds at the last few ulps.)  The batch mean is
        ``np.add.reduce(x) / n``, bit for bit what ``x.mean()`` returns,
        without its per-call dispatch.
        """
        array = np.asarray(values, dtype=np.float64)
        count = array.shape[0]
        if count == 0:
            return
        mean = float(np.add.reduce(array)) / count
        deviations = array - mean
        self.add_moments(count, mean, float(np.add.reduce(deviations * deviations)))

    def add_moments(self, count: int, mean: float, m2: float) -> None:
        """Fold in a batch given by its size, mean and sum of squared deviations.

        The parallel Welford merge behind :meth:`add_many` and :meth:`merge`;
        with the moments of :func:`row_moments` it folds a stretch of
        batches one row at a time, bit for bit as :meth:`add_many` per batch.
        """
        if count == 0:
            return
        if self._count == 0:
            self._count = count
            self._mean = mean
            self._m2 = m2
            return
        total = self._count + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self._count * count / total
        self._mean = (self._count * self._mean + count * mean) / total
        self._count = total

    def remove(self, value: float) -> None:
        """Remove one previously added observation (inverse Welford update).

        Lets a bounded accumulator (e.g. the reservoir evaluator's per-cluster
        accuracy stats) stay O(1) per estimate read even when items are
        evicted.  The caller must only remove values that were actually added;
        numerical drift after many add/remove cycles is bounded by clamping
        the second moment at zero.
        """
        if self._count == 0:
            raise ValueError("cannot remove from an empty accumulator")
        if self._count == 1:
            self._count = 0
            self._mean = 0.0
            self._m2 = 0.0
            return
        mean_excl = (self._count * self._mean - value) / (self._count - 1)
        self._m2 -= (value - mean_excl) * (value - self._mean)
        if self._m2 < 0.0:
            self._m2 = 0.0
        self._mean = mean_excl
        self._count -= 1

    def merge(self, other: "RunningMean") -> None:
        """Merge another accumulator into this one (parallel Welford merge)."""
        self.add_moments(other._count, other._mean, other._m2)

    # ------------------------------------------------------------------ #
    # Read-outs
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of observations seen so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance (``ddof=1``); 0.0 with fewer than 2 points."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def population_variance(self) -> float:
        """Population variance (``ddof=0``); 0.0 when empty."""
        if self._count == 0:
            return 0.0
        return self._m2 / self._count

    @property
    def std_error(self) -> float:
        """Standard error of the mean ``sqrt(s^2 / n)``.

        Returns ``inf`` with fewer than 2 observations so that any
        margin-of-error stopping rule keeps sampling.
        """
        if self._count < 2:
            return math.inf
        return math.sqrt(self.sample_variance / self._count)

    def copy(self) -> "RunningMean":
        """Return an independent copy of this accumulator."""
        clone = RunningMean()
        clone._count = self._count
        clone._mean = self._mean
        clone._m2 = self._m2
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningMean(count={self._count}, mean={self.mean:.4f})"
