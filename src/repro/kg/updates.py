"""Append-only evolution of a knowledge graph.

Section 2.1 of the paper models KG evolution as a sequence of triple-level
insertions that arrive in batches.  A batch ``Δ`` is clustered by subject id
into per-entity insertion sets ``Δ_e``; the evolved graph is ``G + Δ``.

Section 6.1 additionally treats every ``Δ_e`` as a *new, independent cluster*
even when the entity already exists in the base graph, so that cluster weights
stay constant for weighted reservoir sampling; the evaluators sample each
applied batch as an appended segment of such clusters
(:class:`~repro.sampling.segment.PositionSegment`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

__all__ = ["UpdateBatch", "EvolvingKnowledgeGraph"]


@dataclass(frozen=True)
class UpdateBatch:
    """A batch ``Δ`` of triple insertions.

    Parameters
    ----------
    batch_id:
        Identifier of the batch (e.g. ``"delta-3"``).
    triples:
        The inserted triples.
    """

    batch_id: str
    triples: tuple[Triple, ...]

    @property
    def size(self) -> int:
        """Number of inserted triples ``|Δ|``."""
        return len(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

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
    >>> ekg.apply(UpdateBatch("delta-1", (Triple("e2", "p", "o"),)))
    [True]
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

    def apply(self, batch: UpdateBatch) -> list[bool]:
        """Apply one insertion batch to the current graph.

        Returns one added-flag per batch triple (``False`` for duplicates
        that were already present), which is what the evaluators need to
        map the batch onto its appended graph positions.  The batch lands in
        the delta tail; the frozen base is never rebuilt.
        """
        flags = self._current.add_batch(batch.triples)
        self._num_batches += 1
        return flags

    def apply_all(self, batches: Iterable[UpdateBatch]) -> None:
        """Apply a sequence of insertion batches in order."""
        for batch in batches:
            self.apply(batch)
