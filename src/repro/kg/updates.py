"""Append-only evolution of a knowledge graph.

Section 2.1 of the paper models KG evolution as a sequence of triple-level
insertions that arrive in batches.  A batch ``Δ`` is clustered by subject id
into per-entity insertion sets ``Δ_e``; the evolved graph is ``G + Δ``.

Section 6.1 additionally treats every ``Δ_e`` as a *new, independent cluster*
even when the entity already exists in the base graph, so that cluster weights
stay constant for weighted reservoir sampling; the evaluators sample each
applied batch as an appended segment of such clusters
(:class:`~repro.sampling.segment.PositionSegment`).

A batch travels as columns — one list of strings per triple field and one
0/1 byte per triple for the entity-object flag and the ground-truth label —
from the update producer, over the serve wire, into the graph's delta tail
and the evaluators' label array, without a :class:`~repro.kg.triple.Triple`
on the way.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple, triple_columns

__all__ = ["UpdateBatch", "EvolvingKnowledgeGraph"]


@dataclass(frozen=True)
class UpdateBatch:
    """A batch ``Δ`` of labelled triple insertions, held as columns.

    Parameters
    ----------
    batch_id:
        Identifier of the batch (e.g. ``"delta-3"``).
    subjects, predicates, objects:
        One string per inserted triple.
    entity_objects:
        One 0/1 byte per triple: whether its object is an entity id.
    labels:
        One 0/1 byte per triple: its ground-truth correctness.

    Raises
    ------
    ValueError
        Unless every column has one entry per triple and both byte columns
        hold only 0 and 1.
    """

    batch_id: str
    subjects: Sequence[str]
    predicates: Sequence[str]
    objects: Sequence[str]
    entity_objects: bytes
    labels: bytes

    def __post_init__(self) -> None:
        count = len(self.subjects)
        for name in ("predicates", "objects", "entity_objects", "labels"):
            length = len(getattr(self, name))
            if length != count:
                raise ValueError(f"{name} has {length} entries but subjects has {count}")
        for name in ("entity_objects", "labels"):
            if getattr(self, name).translate(None, b"\x00\x01"):
                raise ValueError(f"{name} must hold only 0 and 1 bytes")

    @classmethod
    def from_triples(
        cls, batch_id: str, triples: Iterable[Triple], labels: Iterable[bool]
    ) -> "UpdateBatch":
        """The batch of ``triples`` with one ground-truth label each."""
        subjects, predicates, objects, entity_objects = triple_columns(tuple(triples))
        labels = bytes(map(bool, labels))
        return cls(batch_id, subjects, predicates, objects, entity_objects, labels)

    @functools.cached_property
    def triples(self) -> tuple[Triple, ...]:
        """The inserted triples, built on first access and kept."""
        flags = map(bool, self.entity_objects)
        return tuple(map(Triple, self.subjects, self.predicates, self.objects, flags))

    @property
    def label_array(self) -> np.ndarray:
        """The labels as a read-only boolean array (a view of the bytes)."""
        return np.frombuffer(self.labels, dtype=bool)

    @property
    def size(self) -> int:
        """Number of inserted triples ``|Δ|``."""
        return len(self.subjects)

    def __len__(self) -> int:
        return len(self.subjects)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)


class EvolvingKnowledgeGraph:
    """A knowledge graph plus the update batches applied to it.

    The class keeps the *current* graph (base plus all applied batches) and
    counts the applied batches; the incremental evaluators keep whatever
    per-batch state they need themselves.  The current graph is a
    :class:`~repro.storage.delta.DeltaStore` view over the base's columns: a
    columnar base is shared zero-copy (its columns never change, and a later
    ``add`` to the base graph grows a view of its own); any other base
    (SQLite, or an already evolved graph) is first copied into columns by
    :meth:`KnowledgeGraph.to_columnar`.

    Examples
    --------
    >>> base = KnowledgeGraph([Triple("e1", "p", "o")], name="base")
    >>> ekg = EvolvingKnowledgeGraph(base)
    >>> ekg.apply(UpdateBatch.from_triples("delta-1", [Triple("e2", "p", "o")], [True]))
    array([ True])
    >>> ekg.current.num_triples
    2
    >>> ekg.num_batches
    1
    """

    def __init__(self, base: KnowledgeGraph) -> None:
        from repro.storage.delta import DeltaStore

        self._base = base
        self._current = KnowledgeGraph(
            name=f"{base.name}+updates", backend=DeltaStore(base.to_columnar().backend)
        )
        self._num_batches = 0

    @property
    def base(self) -> KnowledgeGraph:
        """The graph before any update batch was applied."""
        return self._base

    @property
    def current(self) -> KnowledgeGraph:
        """The graph after all applied batches (``G + Δ_1 + ... + Δ_k``)."""
        return self._current

    @property
    def num_batches(self) -> int:
        """Number of update batches applied so far."""
        return self._num_batches

    def apply(self, batch: UpdateBatch) -> np.ndarray:
        """Apply one insertion batch to the current graph.

        Returns the batch's boolean added-mask (``False`` for duplicates
        that were already present), which is what the evaluators need to
        map the batch onto its appended graph positions.  The batch lands in
        the delta tail; the frozen base is never rebuilt.
        """
        added = self._current.add_columns(
            batch.subjects, batch.predicates, batch.objects, batch.entity_objects
        )
        self._num_batches += 1
        return added

    def apply_all(self, batches: Iterable[UpdateBatch]) -> None:
        """Apply a sequence of insertion batches in order."""
        for batch in batches:
            self.apply(batch)
