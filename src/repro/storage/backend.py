"""The storage contract :class:`~repro.kg.graph.KnowledgeGraph` delegates to.

A *storage backend* owns the physical representation of a set of triples plus
the entity-cluster index over it.  Two views are exposed:

* a flat, positional view — every triple has a stable integer *position*
  (its insertion rank), and
* a cluster view — entities are numbered by *row* in first-seen order, and
  each row maps to the positions of its triples.

Backends must preserve three invariants the sampling designs rely on:

1. positions are assigned in insertion order and never change;
2. entity rows are assigned in first-seen order of the subject id;
3. ``cluster_positions*`` return positions in insertion order.

Two implementations ship with the package:

* :class:`~repro.storage.memory.InMemoryStore` — Python objects, cheap
  incremental mutation, the behaviour-compatible default;
* :class:`~repro.storage.columnar.ColumnarStore` — interned ``int32`` NumPy
  columns with a CSR cluster index, built for bulk loads, million-triple
  graphs, zero-copy cluster slices and persistent snapshots
  (:class:`~repro.storage.snapshot.SnapshotStore`).

Choose the in-memory store when the workload interleaves many small ``add``
calls with reads; choose the columnar store when the graph is built once (or
loaded from a snapshot) and then sampled heavily.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.triple import Triple

__all__ = ["StorageBackend", "StorageStats", "make_backend", "stats_from_moments"]


@dataclass(frozen=True)
class StorageStats:
    """Size and cluster-shape summary of one stored graph.

    :func:`repro.sampling.planner.plan_shards` reads this to size a run: ``num_triples``
    bounds the total draw work, ``num_entities`` bounds first-stage
    population, and the cluster-size distribution (mean, max, coefficient of
    variation) measures how *skewed* the entity clusters are — heavily
    skewed graphs need finer shard plans so one giant cluster cannot
    serialise a whole round.
    """

    num_triples: int
    num_entities: int
    mean_cluster_size: float
    max_cluster_size: int
    size_cv: float

    @property
    def skew(self) -> float:
        """Max-over-mean cluster size; ``1.0`` for perfectly uniform clusters."""
        if self.mean_cluster_size <= 0.0:
            return 1.0
        return self.max_cluster_size / self.mean_cluster_size


def stats_from_moments(
    num_triples: int, num_entities: int, max_size: int, sum_squares: int
) -> StorageStats:
    """Fold exact integer cluster-size moments into a :class:`StorageStats`.

    Every backend reduces its cluster sizes to the same four integers —
    triple count (the sizes' sum), entity count, max size, and sum of
    squared sizes — and this one function does the float math.  Whether the
    moments came from a NumPy pass or a SQL aggregate, the resulting floats
    are bit-identical, which keeps the planner's shard decisions (part of a
    run's random-stream identity) independent of the storage backend.
    """
    if num_entities == 0:
        return StorageStats(0, 0, 0.0, 0, 0.0)
    mean = num_triples / num_entities
    variance = max(sum_squares / num_entities - mean * mean, 0.0)
    std = float(np.sqrt(variance))
    return StorageStats(
        num_triples=int(num_triples),
        num_entities=int(num_entities),
        mean_cluster_size=mean,
        max_cluster_size=int(max_size),
        size_cv=std / mean if mean > 0 else 0.0,
    )


class StorageBackend(ABC):
    """Abstract physical storage for a deduplicated, cluster-indexed triple set."""

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    @abstractmethod
    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return ``True`` if it was not already present."""

    def add_batch(self, triples: Iterable[Triple]) -> list[bool]:
        """Insert many triples; return one added-flag per input triple.

        The default loops over :meth:`add`; backends with a cheaper bulk path
        (vectorised dedup, segment append) override it.
        """
        return [self.add(triple) for triple in triples]

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def num_triples(self) -> int:
        """Total number of stored triples (``M``)."""

    @property
    @abstractmethod
    def num_entities(self) -> int:
        """Number of distinct subject entities (``N``)."""

    @abstractmethod
    def contains(self, triple: Triple) -> bool:
        """Whether an equal ``(s, p, o)`` triple is stored."""

    # ------------------------------------------------------------------ #
    # Positional triple access
    # ------------------------------------------------------------------ #
    @abstractmethod
    def triple_at(self, position: int) -> Triple:
        """Materialise the triple stored at ``position``."""

    @abstractmethod
    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        """Materialise the triples at the given positions, in the given order."""

    @abstractmethod
    def iter_triples(self) -> Iterator[Triple]:
        """Iterate over all triples in insertion order."""

    # ------------------------------------------------------------------ #
    # Cluster access — entity-id keyed (compatibility path)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def entity_ids(self) -> Sequence[str]:
        """All subject entity ids in first-seen (row) order."""

    @abstractmethod
    def has_entity(self, entity_id: str) -> bool:
        """Whether any stored triple has ``entity_id`` as its subject."""

    @abstractmethod
    def cluster_positions(self, entity_id: str) -> np.ndarray:
        """Positions of the entity's triples, insertion-ordered.

        Raises
        ------
        KeyError
            If the entity id has no triples.
        """

    @abstractmethod
    def cluster_size(self, entity_id: str) -> int:
        """``M_i`` for the given entity id (``KeyError`` if absent)."""

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed (fast path)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def entity_row(self, entity_id: str) -> int:
        """Row index of the entity in first-seen order (``KeyError`` if absent)."""

    @abstractmethod
    def entity_id_of_row(self, row: int) -> str:
        """Subject id of cluster ``row``."""

    @abstractmethod
    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        """Positions of cluster ``row``'s triples (zero-copy where possible)."""

    @abstractmethod
    def cluster_size_array(self) -> np.ndarray:
        """``int64`` cluster sizes aligned with row order."""

    def stats(self) -> StorageStats:
        """Measured size/skew statistics over the stored clusters.

        Computed from :meth:`cluster_size_array` in one vectorised pass;
        backends holding the sizes in another form may override with a
        cheaper path.  This is the planner-facing summary — see
        :class:`StorageStats`.
        """
        sizes = np.asarray(self.cluster_size_array(), dtype=np.int64)
        num_entities = int(sizes.shape[0])
        if num_entities == 0:
            return StorageStats(0, 0, 0.0, 0, 0.0)
        return stats_from_moments(
            num_triples=int(sizes.sum()),
            num_entities=num_entities,
            max_size=int(sizes.max()),
            sum_squares=int(np.dot(sizes, sizes)),
        )

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Return the raw ``(offsets, positions)`` CSR arrays, if the backend
        has them.

        ``offsets`` has length ``N + 1``; cluster ``row`` owns
        ``positions[offsets[row]:offsets[row + 1]]``.  Backends without a
        physical CSR index return ``None`` and callers fall back to
        :meth:`cluster_positions_by_row`.
        """
        return None


def make_backend(kind: str) -> StorageBackend:
    """Instantiate a storage backend by name (``"memory"``, ``"columnar"``, or ``"sqlite"``)."""
    if kind == "memory":
        from repro.storage.memory import InMemoryStore

        return InMemoryStore()
    if kind == "columnar":
        from repro.storage.columnar import ColumnarStore

        return ColumnarStore()
    if kind == "sqlite":
        from repro.storage.sqlite import SqliteStore

        return SqliteStore()
    raise ValueError(
        f"unknown storage backend {kind!r}; choose 'memory', 'columnar', or 'sqlite'"
    )
