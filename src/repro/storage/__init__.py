"""Pluggable physical storage for knowledge graphs.

:class:`~repro.kg.graph.KnowledgeGraph` delegates all triple/cluster storage
to a :class:`~repro.storage.backend.StorageBackend`:

* :class:`ColumnarStore` (default) — interned ``int32`` NumPy columns with a
  CSR cluster index: O(1) cluster sizes, zero-copy per-cluster position
  slices, vectorised deduplication, and million-triple scale.  The only
  in-RAM store: a ``KnowledgeGraph`` built without a backend uses it.  It is
  written once (``from_rows`` / ``from_arrays``) and never changes.
* :class:`DeltaStore` — an append-only view layering growable tail segments
  over a columnar base, zero-copy: the one store a graph grows in (its first
  ``add``, and every evolving-KG update batch), so the base index is never
  rebuilt.
* :class:`SnapshotStore` — persists a columnar graph as a memory-mappable
  snapshot directory, optionally with its position-aligned label array, so
  big KGs are built once and reopened instantly;
  :meth:`~repro.generators.datasets.LabelledKG.save` and ``open`` write and
  reopen a labelled one (or a SQLite database).
* :class:`SqliteStore` — disk-resident WAL-mode SQLite backend for graphs
  larger than memory: the cluster index is an indexed table.  A file is
  written once from columns (:meth:`SqliteStore.from_columnar`, behind
  ``KnowledgeGraph.to_sqlite``); ``SqliteStore(path)`` opens it read-only.
* :mod:`repro.storage.ingest` — streaming TSV / N-Triples ingest that
  interns ids on the fly without materialising intermediate Triple lists.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".backend": ("StorageBackend",),
        ".columnar": ("ColumnarStore", "Vocabulary"),
        ".delta": ("DeltaStore",),
        ".sqlite": ("SqliteStore", "SqliteGraphError", "ReadOnlyStoreError"),
        ".snapshot": ("SnapshotStore",),
        ".ingest": ("ingest_tsv", "ingest_nt", "ingest_rows"),
    },
)
