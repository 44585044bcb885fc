"""Pluggable physical storage for knowledge graphs.

:class:`~repro.kg.graph.KnowledgeGraph` delegates all triple/cluster storage
to a :class:`~repro.storage.backend.StorageBackend`:

* :class:`InMemoryStore` (default) — Python objects, O(1) incremental adds;
  behaviour-identical to the original seed representation.
* :class:`ColumnarStore` — interned ``int32`` NumPy columns with a CSR
  cluster index: O(1) cluster sizes, zero-copy per-cluster position slices,
  vectorised deduplication, and million-triple scale.
* :class:`DeltaStore` — an append-only view layering growable tail segments
  over a frozen columnar base, so applying evolving-KG update batches never
  thaws or rebuilds the frozen index.
* :class:`SnapshotStore` — persists columnar graphs to ``.npz`` archives or
  memory-mappable snapshot directories (format v2 optionally carries
  label/annotation arrays), so big KGs are built once and reopened instantly.
* :class:`SqliteStore` — disk-resident WAL-mode SQLite backend for graphs
  larger than memory: the cluster index is an indexed table, and streaming
  ingest is resumable from a per-batch checkpoint.
* :mod:`repro.storage.ingest` — streaming TSV / N-Triples ingest that
  interns ids on the fly without materialising intermediate Triple lists.
"""

from repro.storage.backend import StorageBackend, make_backend
from repro.storage.columnar import ColumnarStore, Vocabulary
from repro.storage.delta import DeltaStore
from repro.storage.ingest import ingest_nt, ingest_rows, ingest_tsv
from repro.storage.memory import InMemoryStore
from repro.storage.snapshot import SnapshotStore
from repro.storage.sqlite import SqliteStore

__all__ = [
    "StorageBackend",
    "make_backend",
    "InMemoryStore",
    "ColumnarStore",
    "DeltaStore",
    "SqliteStore",
    "Vocabulary",
    "SnapshotStore",
    "ingest_tsv",
    "ingest_nt",
    "ingest_rows",
]
