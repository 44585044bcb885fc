"""The storage contract :class:`~repro.kg.graph.KnowledgeGraph` delegates to.

A *storage backend* owns the physical representation of a set of triples plus
the entity-cluster index over it.  The contract is read-only: a store is
written once, when it is built, and a graph that grows does so in a
:class:`~repro.storage.delta.DeltaStore` laid over its columns by
:meth:`~repro.kg.graph.KnowledgeGraph.add_batch`.  Two views are exposed:

* a flat, positional view — every triple has a stable integer *position*
  (its insertion rank), and
* a cluster view — entities are numbered by *row* in first-seen order, and
  each row maps to the positions of its triples.

Backends must preserve three invariants the sampling designs rely on:

1. positions are assigned in insertion order and never change;
2. entity rows are assigned in first-seen order of the subject id;
3. ``cluster_positions*`` return positions in insertion order.

Three implementations ship with the package:

* :class:`~repro.storage.columnar.ColumnarStore` — interned ``int32`` NumPy
  columns with a CSR cluster index, the in-RAM default, written once from
  rows or adopted arrays: bulk loads, million-triple graphs, zero-copy
  cluster slices and snapshot directories
  (:class:`~repro.storage.snapshot.SnapshotStore`);
* :class:`~repro.storage.delta.DeltaStore` — append-only tail segments over a
  columnar base, the store every graph grows in (the only one with
  ``add_batch``);
* :class:`~repro.storage.sqlite.SqliteStore` — a disk-resident WAL database
  for graphs larger than RAM, written once from columns
  (:meth:`~repro.kg.graph.KnowledgeGraph.to_sqlite`) and read-only after.

Every backend exposes its cluster index as CSR arrays (:meth:`csr_arrays`),
which is what the vectorised position draws sample.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence

import numpy as np

from repro.kg.triple import Triple

__all__ = ["StorageBackend"]


class StorageBackend(ABC):
    """Abstract physical storage for a deduplicated, cluster-indexed triple set."""

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

    @abstractmethod
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the raw ``(offsets, positions)`` CSR arrays of the cluster index.

        ``offsets`` has length ``N + 1``; cluster ``row`` owns
        ``positions[offsets[row]:offsets[row + 1]]``.
        """

