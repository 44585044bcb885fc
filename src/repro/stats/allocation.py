"""Stratum construction and sample allocation.

Two pieces back the paper's stratified designs (Section 5.3):

* :func:`cumulative_sqrt_frequency_boundaries` — the Dalenius–Hodges
  cumulative-square-root-of-frequency rule used by "size stratification" to
  cut cluster sizes into strata;
* :func:`proportional_allocation` / :func:`neyman_allocation` — how many
  cluster draws to spend in each stratum, and :func:`deficit_allocation` for
  a round with fewer draws than strata.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "cumulative_sqrt_frequency_boundaries",
    "deficit_allocation",
    "largest_remainder",
    "proportional_allocation",
    "neyman_allocation",
]


def largest_remainder(weights: Sequence[float] | np.ndarray, total_samples: int) -> np.ndarray:
    """Split ``total_samples`` by weight with the largest-remainder method.

    The deterministic core of :func:`proportional_allocation`: floor the
    proportional shares, then hand the leftover draws to the largest fractional parts
    (stable tie-break).  No minimum-per-entry guarantee — zero-share entries
    stay at zero; returns an ``int64`` array.  A non-positive total or weight
    sum yields all zeros.
    """
    weights = np.asarray(weights, dtype=float)
    allocation = np.zeros(weights.shape[0], dtype=np.int64)
    weight_sum = weights.sum()
    if total_samples <= 0 or weight_sum <= 0:
        return allocation
    raw = total_samples * weights / weight_sum
    allocation = np.floor(raw).astype(np.int64)
    remainder = total_samples - int(allocation.sum())
    if remainder > 0:
        order = np.argsort(-(raw - allocation), kind="stable")
        allocation[order[:remainder]] += 1
    return allocation


def cumulative_sqrt_frequency_boundaries(
    values: Sequence[int] | np.ndarray, num_strata: int
) -> list[float]:
    """Compute stratum boundaries with the cumulative-√F rule.

    The values (here: cluster sizes) are binned; the square roots of the bin
    frequencies are accumulated and the cumulative curve is cut into
    ``num_strata`` equal slices.  Returns the ``num_strata - 1`` interior
    boundaries; a value ``v`` belongs to stratum ``h`` when
    ``boundaries[h-1] < v <= boundaries[h]`` (with implicit -inf / +inf ends).

    Raises
    ------
    ValueError
        If ``num_strata < 1`` or ``values`` is empty.
    """
    if num_strata < 1:
        raise ValueError("num_strata must be at least 1")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    if num_strata == 1:
        return []
    unique_values, counts = np.unique(array, return_counts=True)
    if unique_values.size <= num_strata:
        # Degenerate case: fewer distinct values than strata; put each distinct
        # value in its own stratum by cutting between consecutive values.
        midpoints = (unique_values[:-1] + unique_values[1:]) / 2.0
        return [float(b) for b in midpoints[: num_strata - 1]]
    cumulative = np.cumsum(np.sqrt(counts))
    total = cumulative[-1]
    boundaries: list[float] = []
    for h in range(1, num_strata):
        target = total * h / num_strata
        index = int(np.searchsorted(cumulative, target))
        index = min(index, unique_values.size - 2)
        boundaries.append(float(unique_values[index]))
    # Ensure boundaries are strictly increasing (duplicates can appear when the
    # distribution is extremely skewed); collapse duplicates by nudging upward.
    deduplicated: list[float] = []
    for boundary in boundaries:
        if deduplicated and boundary <= deduplicated[-1]:
            boundary = deduplicated[-1] + 1.0
        deduplicated.append(boundary)
    return deduplicated


def proportional_allocation(stratum_weights: Sequence[float], total_samples: int) -> list[int]:
    """Allocate ``total_samples`` draws proportionally to stratum weights.

    Remainders are assigned to the strata with the largest fractional parts
    (largest-remainder method).  Every positive-weight stratum receives at
    least one draw when there are at least as many draws as such strata;
    below that, the split is the same on every call, so a loop of small
    rounds should use :func:`deficit_allocation` instead.
    """
    if total_samples < 0:
        raise ValueError("total_samples must be non-negative")
    weights = np.asarray(stratum_weights, dtype=float)
    if weights.size == 0:
        return []
    if np.any(weights < 0):
        raise ValueError("stratum weights must be non-negative")
    total_weight = weights.sum()
    if total_weight == 0:
        raise ValueError("at least one stratum weight must be positive")
    allocation = largest_remainder(weights, total_samples)
    # Guarantee a minimum of one sample in every positive-weight stratum.
    for index, weight in enumerate(weights):
        if weight > 0 and allocation[index] == 0 and total_samples >= 1:
            donor = int(np.argmax(allocation))
            if allocation[donor] > 1:
                allocation[donor] -= 1
                allocation[index] += 1
    return [int(a) for a in allocation]


def deficit_allocation(
    shares: Sequence[float], drawn: Sequence[int], total_samples: int
) -> list[int]:
    """Give ``total_samples`` draws, one each, to the entries furthest below their share.

    Entry ``h`` falls ``shares[h] / sum(shares) * (sum(drawn) +
    total_samples) - drawn[h]`` draws below its share of all draws made once
    these are; the ``total_samples`` entries that fall furthest get one draw
    each, ties going to the lower index.  For rounds with fewer draws than
    strata: every positive-share entry falls further behind each round it is
    passed over, so each is drawn again and again, where a fixed split would
    hand every round's draws to the same entries.  ``total_samples`` must not
    exceed the number of entries, and ``shares`` must have a positive sum.
    """
    total = sum(shares)
    after = sum(drawn) + total_samples
    behind = [share / total * after - count for share, count in zip(shares, drawn)]
    allocation = [0] * len(behind)
    for index in sorted(range(len(behind)), key=lambda h: -behind[h])[:total_samples]:
        allocation[index] = 1
    return allocation


def neyman_allocation(
    stratum_weights: Sequence[float],
    stratum_stds: Sequence[float],
    total_samples: int,
) -> list[int]:
    """Neyman (optimal) allocation: draws proportional to ``W_h * S_h``.

    Falls back to proportional allocation when every stratum standard
    deviation is zero (e.g. a perfectly accurate KG).
    """
    weights = np.asarray(stratum_weights, dtype=float)
    stds = np.asarray(stratum_stds, dtype=float)
    if weights.shape != stds.shape:
        raise ValueError("stratum_weights and stratum_stds must have the same length")
    if np.any(stds < 0):
        raise ValueError("stratum standard deviations must be non-negative")
    products = weights * stds
    if np.all(products == 0):
        return proportional_allocation(list(weights), total_samples)
    return proportional_allocation(list(products), total_samples)
