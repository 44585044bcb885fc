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

__all__ = ["RunningMean", "merge_each", "merge_moments", "row_moments", "std_errors"]


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


def merge_moments(
    count: int, mean: float, m2: float, other_count: int, other_mean: float, other_m2: float
) -> tuple[int, float, float]:
    """Parallel Welford merge: ``(count, mean, m2)`` of two batches taken together.

    ``m2`` is a batch's sum of squared deviations from its mean.  The one
    merge formula: :meth:`RunningMean.add_moments` and :func:`merge_each`
    both run it.
    """
    if other_count == 0:
        return count, mean, m2
    if count == 0:
        return other_count, other_mean, other_m2
    total = count + other_count
    delta = other_mean - mean
    m2 += other_m2 + delta * delta * count * other_count / total
    return total, (count * mean + other_count * other_mean) / total, m2


def merge_each(
    moments: tuple[int, float, float],
    counts: list[int],
    means: list[float],
    m2s: list[float],
) -> tuple[list[int], list[float], list[float]]:
    """The moments after merging each batch of a stretch in turn into ``moments``.

    Entry ``i`` of each returned list is what :meth:`RunningMean.add_moments`
    leaves after batches ``0..i``, bit for bit: the same merge, run as a
    plain float loop.
    """
    count, mean, m2 = moments
    out_counts, out_means, out_m2s = [], [], []
    for batch in zip(counts, means, m2s):
        count, mean, m2 = merge_moments(count, mean, m2, *batch)
        out_counts.append(count)
        out_means.append(mean)
        out_m2s.append(m2)
    return out_counts, out_means, out_m2s


def std_errors(counts: np.ndarray, m2s: np.ndarray) -> np.ndarray:
    """:attr:`RunningMean.std_error` of each ``(count, m2)`` pair, elementwise.

    The same operations in the same order, so each entry equals what an
    accumulator holding that state reads: ``inf`` below two observations.
    """
    errors = np.full(counts.shape[0], math.inf)
    two = counts >= 2
    errors[two] = np.sqrt(m2s[two] / (counts[two] - 1) / counts[two])
    return errors


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

        The parallel Welford merge (:func:`merge_moments`) behind
        :meth:`add_many` and :meth:`merge`; with the moments of
        :func:`row_moments` it folds a stretch of batches one row at a time,
        bit for bit as :meth:`add_many` per batch.
        """
        self._count, self._mean, self._m2 = merge_moments(
            self._count, self._mean, self._m2, count, mean, m2
        )

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
    @classmethod
    def from_moments(cls, count: int, mean: float, m2: float) -> "RunningMean":
        """An accumulator holding ``count`` observations with this mean and ``m2``."""
        accumulator = cls()
        accumulator._count = count
        accumulator._mean = mean
        accumulator._m2 = m2
        return accumulator

    @property
    def moments(self) -> tuple[int, float, float]:
        """``(count, mean, m2)``, the state :meth:`from_moments` rebuilds."""
        return self._count, self._mean, self._m2

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
        return RunningMean.from_moments(*self.moments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningMean(count={self._count}, mean={self.mean:.4f})"
