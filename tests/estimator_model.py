"""The paper's estimators as a pure-Python model (not a test module).

Each function folds one drawn round, given as plain ``(row, cluster_size,
labels)`` tuples, into the ``(value, std_error, units, triples)`` reading an
estimator reports.  The model follows the equations of Section 5 with
:func:`statistics.fmean` / :func:`statistics.stdev` and shares no code with
:mod:`repro.sampling`, so a slip in a design's ``update_all_positions`` cannot
also be in the reference.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from statistics import fmean, stdev

#: One drawn unit: cluster row (``-1`` for a triple), cluster size ``M_i`` and its labels.
Unit = tuple[int, int, Sequence[bool]]
#: What an estimator reports: ``(value, std_error, units, triples)``.
Reading = tuple[float, float, int, int]


def _triples(units: Sequence[Unit]) -> int:
    return sum(len(labels) for _, _, labels in units)


def _mean_reading(values: list[float], triples: int) -> Reading:
    """Mean of per-unit values and its standard error (``inf`` below two units)."""
    if not values:
        return 0.0, math.inf, 0, triples
    error = stdev(values) / math.sqrt(len(values)) if len(values) >= 2 else math.inf
    return fmean(values), error, len(values), triples


def srs(units: Sequence[Unit]) -> Reading:
    """Eq. (5): the sample proportion with the binomial standard error."""
    labels = [label for _, _, unit_labels in units for label in unit_labels]
    n = len(labels)
    if n == 0:
        return 0.0, math.inf, 0, 0
    p = sum(labels) / n
    return p, math.sqrt(p * (1 - p) / n) if n >= 2 else math.inf, n, n


def rcs(units: Sequence[Unit], num_entities: int, num_triples: int) -> Reading:
    """Eq. (7): the mean of ``(N / M) * τ_k``, ``τ_k`` the correct triples of cluster ``k``."""
    scale = num_entities / num_triples
    return _mean_reading([scale * sum(labels) for _, _, labels in units], _triples(units))


def cluster_accuracy_mean(units: Sequence[Unit]) -> Reading:
    """Eq. (8) for WCS, Eq. (9) for TWCS: the mean of the units' sample accuracies."""
    return _mean_reading([fmean(labels) for _, _, labels in units], _triples(units))


def tsrcs(units: Sequence[Unit], num_entities: int, num_triples: int) -> Reading:
    """TSRCS: the mean of the size-re-weighted values ``(N / M) * M_k * µ̂_k``."""
    scale = num_entities / num_triples
    values = [scale * size * fmean(labels) for _, size, labels in units]
    return _mean_reading(values, _triples(units))


def stratified_twcs(
    units: Sequence[Unit], stratum_of_row: Mapping[int, int], weights: Sequence[float]
) -> Reading:
    """Eq. (13): ``Σ_h W_h µ̂_h`` with ``Var = Σ_h W_h² Var(µ̂_h)``, each ``µ̂_h`` by Eq. (9).

    Every unit belongs to the stratum that holds its cluster row.
    """
    groups: list[list[Unit]] = [[] for _ in weights]
    for unit in units:
        groups[stratum_of_row[unit[0]]].append(unit)
    readings = [cluster_accuracy_mean(group) for group in groups]
    total = sum(weights)
    shares = [weight / total for weight in weights]
    value = sum(share * reading[0] for share, reading in zip(shares, readings))
    variance = sum((share * reading[1]) ** 2 for share, reading in zip(shares, readings))
    error = math.inf if math.isinf(variance) else math.sqrt(variance)
    return value, error, sum(r[2] for r in readings), sum(r[3] for r in readings)
