"""The storage backend contract as a pure-Python model (not a test module).

:class:`StoreModel` is the reference every store is checked against —
``ColumnarStore`` (built from Triples or from ingested rows), ``SqliteStore``,
snapshot reloads and the ``DeltaStore`` a graph grows in.  It shares no code
with any backend in :mod:`repro.storage`, so a bug in a store's dedup,
positions or row bookkeeping cannot also be in the reference.
:func:`assert_matches_model` checks every read a graph answers against it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple


class StoreModel:
    """The backend contract in plain Python.

    A set of ``(s, p, o)`` keys keeping first occurrences; positions in
    insertion order; rows in first-seen subject order; each row's positions
    in insertion order.
    """

    def __init__(self, triples=()) -> None:
        self.triples: list[Triple] = []
        self.keys: set[tuple[str, str, str]] = set()
        self.rows: dict[str, list[int]] = {}
        self.add_all(triples)

    def add_all(self, triples) -> list[bool]:
        """Add ``triples`` in order; return which of them were new."""
        added = []
        for triple in triples:
            is_new = triple.as_tuple() not in self.keys
            if is_new:
                self.keys.add(triple.as_tuple())
                self.rows.setdefault(triple.subject, []).append(len(self.triples))
                self.triples.append(triple)
            added.append(is_new)
        return added


def assert_matches_model(graph: KnowledgeGraph, model: StoreModel) -> None:
    assert graph.num_triples == len(model.triples)
    assert graph.num_entities == len(model.rows)
    assert tuple(graph.entity_ids) == tuple(model.rows)
    assert graph.cluster_size_array().tolist() == [len(p) for p in model.rows.values()]
    for entity_id, positions in model.rows.items():
        assert graph.cluster_size(entity_id) == len(positions)
    assert [(t.as_tuple(), t.is_entity_object) for t in graph] == [
        (t.as_tuple(), t.is_entity_object) for t in model.triples
    ]
    assert graph.triples == tuple(model.triples)
    for row, (entity_id, positions) in enumerate(model.rows.items()):
        assert graph.entity_row(entity_id) == row
        assert graph.entity_id_of_row(row) == entity_id
        assert np.asarray(graph.cluster_positions(entity_id)).tolist() == positions
        assert np.asarray(graph.cluster_positions_by_row(row)).tolist() == positions
        assert graph.cluster(entity_id).triples == tuple(model.triples[p] for p in positions)
    assert all(triple in graph for triple in model.triples)
    assert Triple("never", "seen", "this") not in graph
    # The CSR index every sampler draws from: rows in order, each row's
    # positions in insertion order.
    offsets, positions = graph.backend.csr_arrays()
    sizes = [len(p) for p in model.rows.values()]
    assert np.asarray(offsets).tolist() == [0, *accumulate(sizes)]
    assert np.asarray(positions).tolist() == [p for row in model.rows.values() for p in row]
