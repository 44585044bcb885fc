"""Deterministic shard planning: one parallelism rule, no learned state.

The shard count is part of a run's random-stream identity, so
:func:`plan_shards` derives it purely from the graph's measured stats
(:meth:`repro.storage.backend.StorageBackend.stats`) and an expected draw
volume, under four hard-coded policy constants.  No CPU count, no cache file
and no earlier run enters the rule: the same seeded command shards
identically on every host, on every repetition.

``--transport auto`` (the CLI default) applies the rule once per run: a
one-shard plan runs the classic single-stream loop, a larger plan runs on
the in-process :class:`~repro.sampling.parallel.SerialTransport`.  Worker
pools and RPC nodes are explicit opt-ins (``--transport pool|rpc``), and
every transport is bit-identical for a fixed plan.
"""

from __future__ import annotations

import math

from repro.stats.ci import normal_critical_value
from repro.storage.backend import StorageStats

__all__ = ["draws_for_target", "plan_shards"]

#: Planned parallel width when draws are plentiful (identical on every host;
#: a narrower machine simply executes more shards per worker).
PLAN_WIDTH = 8

#: Below this many expected draws per shard the fan-out stops amortising;
#: plans coarsen, all the way down to one shard (= the classic loop).
MIN_DRAWS_PER_SHARD = 2_000

#: ``stats.skew`` (max/mean cluster size) beyond which plans shard finer so
#: one giant cluster's range splits away from the bulk.
SKEW_THRESHOLD = 20.0

#: Absolute shard-count ceiling.
MAX_PLANNED_SHARDS = 64


def draws_for_target(moe: float, confidence: float = 0.95) -> int:
    """Pessimistic draw-volume hint for a margin-of-error target.

    Worst-case unit variance (0.25) times a design-effect factor of 2 for
    cluster sampling; the plan only needs the order of magnitude, not the
    exact stopping point.
    """
    z = normal_critical_value(confidence)
    base = (z / (2.0 * max(moe, 1e-6))) ** 2
    return max(100, int(math.ceil(2.0 * base)))


def plan_shards(stats: StorageStats, draws_hint: int) -> int:
    """Deterministic shard count for a run over ``stats``-shaped data.

    Starts at :data:`PLAN_WIDTH`, doubles for skewed cluster-size
    distributions, coarsens (down to one shard) when per-shard draws would
    fall below :data:`MIN_DRAWS_PER_SHARD`, and never exceeds
    :data:`MAX_PLANNED_SHARDS` or the entity count.
    """
    draws_hint = max(1, min(int(draws_hint), max(stats.num_triples, 1)))
    shards = PLAN_WIDTH
    if stats.skew > SKEW_THRESHOLD:
        shards *= 2
    if draws_hint < shards * MIN_DRAWS_PER_SHARD:
        shards = max(1, draws_hint // MIN_DRAWS_PER_SHARD)
    return int(max(1, min(shards, MAX_PLANNED_SHARDS, stats.num_entities or 1)))
