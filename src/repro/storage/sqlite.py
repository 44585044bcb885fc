"""Out-of-core SQLite storage backend.

The columnar and delta backends assume the graph fits in RAM; the paper's
own motivation is web-scale KGs.  :class:`SqliteStore` keeps the triple set
and the vocabulary in a WAL-mode SQLite file and answers the
:class:`~repro.storage.backend.StorageBackend` contract with indexed queries,
so graphs much larger than memory evaluate on one node:

* the ``triples`` table is indexed on ``(entity_row, position)``, so
  :meth:`~SqliteStore.cluster_positions_by_row` is one range query;
* the batch draw surface stays bit-identical to the other backends: the
  sampling designs need raw ``(offsets, positions)`` arrays, so
  :meth:`~SqliteStore.csr_arrays` holds *only the position index* (8 bytes
  per triple and per entity).  :meth:`~SqliteStore.from_columnar` stores
  that index in the file, and a reopened store reads it back as views of
  the stored bytes instead of scanning; only a file without it (written
  before the index was stored, or with an index too large for SQLite's blob
  limit) or with a damaged one pays one index-ordered scan, read in chunks
  so its peak is the index itself.
  :meth:`~SqliteStore.cluster_size_array` is the differences of its offsets.
  The heavy string columns and the vocabulary never leave the database
  file, which is what keeps resident memory flat (see
  ``benchmarks/bench_storage_backend.py``).

A graph file is written once: :meth:`~SqliteStore.from_columnar` (behind
:meth:`~repro.kg.graph.KnowledgeGraph.to_sqlite`) creates it, copies the
rows and the index in one transaction, and is the only code that sets
``journal_mode=WAL`` + ``synchronous=NORMAL``;
:meth:`~SqliteStore.save_labels` may add the label array afterwards.
``SqliteStore(path)`` only opens: it refuses a missing file or one without
the graph tables and runs no statement that writes, so pointing it at a
foreign database leaves that file as it was.  ``busy_timeout`` retries
briefly instead of failing on a locked file; ``mmap_size`` lets reads come
straight from the page cache mapping.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sqlite3
import tempfile
import weakref
from collections.abc import Iterator, Sequence
from itertools import chain, islice
from pathlib import Path

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend

__all__ = ["ReadOnlyStoreError", "SqliteGraphError", "SqliteStore"]

_SQLITE_MAGIC = b"SQLite format 3\x00"

#: The tables every graph file has; the opener refuses a file without them.
_GRAPH_TABLES = ("meta", "vocab", "entities", "triples")

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value
);
CREATE TABLE vocab (
    id    INTEGER PRIMARY KEY,
    token TEXT NOT NULL UNIQUE
);
CREATE TABLE entities (
    row        INTEGER PRIMARY KEY,
    subject_id INTEGER NOT NULL UNIQUE
);
CREATE TABLE triples (
    position         INTEGER PRIMARY KEY,
    entity_row       INTEGER NOT NULL,
    s                INTEGER NOT NULL,
    p                INTEGER NOT NULL,
    o                INTEGER NOT NULL,
    is_entity_object INTEGER NOT NULL DEFAULT 0,
    UNIQUE (s, p, o)
);
CREATE INDEX triples_cluster_idx ON triples (entity_row, position);
"""

#: Byte layout of the stored CSR cluster index (``meta`` rows ``csr_offsets``
#: and ``csr_positions``): little-endian ``int64``, whatever the host order.
_CSR_DTYPE = np.dtype("<i8")

#: Rows per chunk of the copy into a new file and of the ordered scan that
#: rebuilds a missing index.
_SCAN_CHUNK = 1 << 14

#: Bytes a ``meta`` row needs besides its value: the key and record header.
_META_ROW_OVERHEAD = 64

_TRIPLE_QUERY = (
    "SELECT vs.token, vp.token, vo.token, t.is_entity_object "
    "FROM triples t "
    "JOIN vocab vs ON vs.id = t.s "
    "JOIN vocab vp ON vp.id = t.p "
    "JOIN vocab vo ON vo.id = t.o "
)


class SqliteGraphError(ValueError):
    """A path :class:`SqliteStore` cannot open: no file, or not a graph file."""


class ReadOnlyStoreError(TypeError):
    """An ``add`` to a graph on a :class:`SqliteStore`, which is written once,
    on creation."""


def _blob_fits(conn: sqlite3.Connection, nbytes: int) -> bool:
    """Whether a ``meta`` row holding ``nbytes`` of blob is within ``conn``'s
    SQLite length limit (1e9 bytes by default), which bounds a whole row on
    write and a blob on read."""
    return nbytes + _META_ROW_OVERHEAD <= conn.getlimit(sqlite3.SQLITE_LIMIT_LENGTH)


def _numbered_rows(*columns: np.ndarray) -> Iterator[tuple[int, ...]]:
    """``(i, columns[0][i], …)`` as Python ints, converted one chunk of rows
    at a time so no whole column is ever held as Python objects."""
    for start in range(0, columns[0].shape[0], _SCAN_CHUNK):
        chunk = [
            np.asarray(column[start : start + _SCAN_CHUNK], dtype=np.int64).tolist()
            for column in columns
        ]
        yield from zip(range(start, start + len(chunk[0])), *chunk)


def is_sqlite_file(path: str | Path) -> bool:
    """Whether ``path`` is an existing SQLite database file (header magic)."""
    path = Path(path)
    if not path.is_file():
        return False
    with path.open("rb") as handle:
        return handle.read(16) == _SQLITE_MAGIC


class SqliteStore(StorageBackend):
    """Disk-resident, read-only storage backend over one SQLite graph file.

    Parameters
    ----------
    path:
        A graph file written by :meth:`from_columnar`.  Opening it runs no
        statement that writes, and adding to a graph on it raises
        :class:`ReadOnlyStoreError`.
    mmap_size:
        Value for ``PRAGMA mmap_size`` (bytes; ``0`` disables memory-mapped
        reads).  Default 256 MiB.

    Raises
    ------
    SqliteGraphError
        If ``path`` is not a file, not a SQLite database, or lacks one of
        the ``meta``, ``vocab``, ``entities`` and ``triples`` tables.
    """

    def __init__(self, path: str | Path, *, mmap_size: int = 256 * 1024 * 1024):
        self.path = Path(path)
        if not self.path.is_file():
            raise SqliteGraphError(f"{self.path} is not a SQLite graph file: no such file")
        self.mmap_size = int(mmap_size)
        # mode=rw: a file removed since the check is not created again.
        self._conn = sqlite3.connect(
            f"{self.path.resolve().as_uri()}?mode=rw", uri=True, isolation_level=None
        )
        self._finalizer = weakref.finalize(self, _cleanup, self._conn, None)
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute(f"PRAGMA mmap_size={self.mmap_size}")
        try:
            found = self._conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            missing = sorted(set(_GRAPH_TABLES).difference(name for (name,) in found))
            reason = f"tables missing: {', '.join(missing)}" if missing else None
        except sqlite3.DatabaseError as exc:
            reason = str(exc)
        if reason is not None:
            self.close()
            raise SqliteGraphError(f"{self.path} is not a SQLite graph file: {reason}")
        (self._num_triples,) = self._conn.execute("SELECT COUNT(*) FROM triples").fetchone()
        (self._num_entities,) = self._conn.execute("SELECT COUNT(*) FROM entities").fetchone()
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Connection / lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection (and delete the file if it was a temporary)."""
        self._finalizer()

    def __getstate__(self):
        raise TypeError(
            "SqliteStore is not picklable: it wraps a live sqlite3 connection. "
            "Share the database path and reopen with SqliteStore(path) instead."
        )

    # ------------------------------------------------------------------ #
    # Bulk construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_columnar(cls, store, path: str | Path | None = None, name: str | None = None):
        """Write a :class:`~repro.storage.columnar.ColumnarStore` to a
        new graph file and open it.

        Vocabulary ids, triple positions and entity rows are copied verbatim,
        so every draw taken from the resulting store is bit-identical to one
        taken from ``store``.  The columnar CSR cluster index is stored too
        (``meta`` rows ``csr_offsets`` / ``csr_positions``, little-endian
        ``int64``), in the same transaction as the rows, so a reopened store
        reads it back instead of scanning (:meth:`csr_arrays`) — unless a
        blob would exceed the connection's SQLite length limit, in which case
        the index is left out.  Rows are copied in chunks
        (:func:`_numbered_rows`).  An existing file at ``path`` is replaced;
        ``path=None`` writes a private temporary file that is removed when
        the store is garbage-collected or :meth:`close`\\ d.  A copy that
        fails leaves no file behind.
        """
        temporary = path is None
        if temporary:
            handle, created = tempfile.mkstemp(prefix="repro-kg-", suffix=".sqlite")
            os.close(handle)
            path = Path(created)
        else:
            path = Path(path)
            _remove_database(path)
        subjects, predicates, objects, flags = store.id_columns()
        row_subjects = np.asarray(store.row_subject_ids(), dtype=np.int64)
        # Subject id -> row, as a dense LUT (subject ids are vocab-dense).
        lut = np.zeros(int(row_subjects.max()) + 1 if row_subjects.size else 1, dtype=np.int64)
        lut[row_subjects] = np.arange(row_subjects.size)
        rows = lut[np.asarray(subjects, dtype=np.int64)]
        offsets, positions = store.csr_arrays()
        try:
            with contextlib.closing(sqlite3.connect(path, isolation_level=None)) as conn:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
                conn.execute("BEGIN")
                conn.executemany(
                    "INSERT INTO vocab (id, token) VALUES (?, ?)",
                    ((i, store.vocab[i]) for i in range(len(store.vocab))),
                )
                conn.executemany(
                    "INSERT INTO entities (row, subject_id) VALUES (?, ?)",
                    _numbered_rows(row_subjects),
                )
                conn.executemany(
                    "INSERT INTO triples (position, entity_row, s, p, o, is_entity_object) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    _numbered_rows(rows, subjects, predicates, objects, flags),
                )
                # A blob over SQLite's length limit would roll the whole copy
                # back: a graph above about 125 M triples is stored without
                # the index and reopens through the scan.
                index = {"csr_offsets": offsets, "csr_positions": positions}
                if all(
                    _blob_fits(conn, array.size * _CSR_DTYPE.itemsize) for array in index.values()
                ):
                    conn.executemany(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        [
                            (key, np.asarray(array, dtype=_CSR_DTYPE).tobytes())
                            for key, array in index.items()
                        ],
                    )
                if name is not None:
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES ('name', ?)", (name,)
                    )
                conn.execute("COMMIT")
            out = cls(path)
        except BaseException:
            _remove_database(path)
            raise
        if temporary:
            out._finalizer.detach()
            out._finalizer = weakref.finalize(out, _cleanup, out._conn, path)
        return out

    def content_digest(self) -> str:
        """SHA-256 over the logical graph content, independent of WAL state.

        Hashes the ``vocab``, ``entities`` and ``triples`` tables in key
        order; ``meta`` (the stored index, name and labels) is left out, and
        so is any other table a file may carry: two files hold the same graph
        exactly when their digests are equal.
        """
        digest = hashlib.sha256()
        for query in (
            "SELECT id, token FROM vocab ORDER BY id",
            "SELECT row, subject_id FROM entities ORDER BY row",
            "SELECT position, entity_row, s, p, o, is_entity_object "
            "FROM triples ORDER BY position",
        ):
            for record in self._conn.execute(query):
                digest.update(repr(record).encode("utf-8"))
            digest.update(b"|")
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Metadata / labels (snapshot support)
    # ------------------------------------------------------------------ #
    def graph_name(self) -> str | None:
        """The stored graph name, if one was recorded."""
        found = self._conn.execute("SELECT value FROM meta WHERE key = 'name'").fetchone()
        return None if found is None else str(found[0])

    def save_labels(self, labels: np.ndarray) -> None:
        """Persist a position-aligned boolean label array (bit-packed)."""
        labels = np.asarray(labels, dtype=bool)
        if labels.shape[0] != self.num_triples:
            raise ValueError(
                f"labels length {labels.shape[0]} != num_triples {self.num_triples}"
            )
        self._conn.execute("BEGIN")
        try:
            self._conn.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("labels", np.packbits(labels.astype(np.uint8)).tobytes()),
                    ("labels_len", int(labels.shape[0])),
                ],
            )
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def load_labels(self) -> np.ndarray | None:
        """The stored label array, or ``None`` if labels were never saved."""
        blob = self._conn.execute("SELECT value FROM meta WHERE key = 'labels'").fetchone()
        length = self._conn.execute("SELECT value FROM meta WHERE key = 'labels_len'").fetchone()
        if blob is None or length is None:
            return None
        packed = np.frombuffer(blob[0], dtype=np.uint8)
        return np.unpackbits(packed, count=int(length[0])).astype(bool)

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def num_entities(self) -> int:
        return self._num_entities

    def contains(self, triple: Triple) -> bool:
        found = self._conn.execute(
            "SELECT 1 FROM triples t JOIN vocab vs ON vs.id = t.s JOIN vocab vp ON vp.id = t.p "
            "JOIN vocab vo ON vo.id = t.o WHERE vs.token = ? AND vp.token = ? AND vo.token = ?",
            (triple.subject, triple.predicate, triple.obj),
        ).fetchone()
        return found is not None

    # ------------------------------------------------------------------ #
    # Positional triple access
    # ------------------------------------------------------------------ #
    def triple_at(self, position: int) -> Triple:
        if position < 0 or position >= self._num_triples:
            raise IndexError(f"triple position {position} out of range")
        record = self._conn.execute(
            _TRIPLE_QUERY + "WHERE t.position = ?", (int(position),)
        ).fetchone()
        return Triple(record[0], record[1], record[2], is_entity_object=bool(record[3]))

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        return [self.triple_at(int(position)) for position in positions]

    def iter_triples(self) -> Iterator[Triple]:
        for record in self._conn.execute(_TRIPLE_QUERY + "ORDER BY t.position"):
            yield Triple(record[0], record[1], record[2], is_entity_object=bool(record[3]))

    # ------------------------------------------------------------------ #
    # Cluster access — entity-id keyed
    # ------------------------------------------------------------------ #
    def entity_ids(self) -> Sequence[str]:
        return tuple(
            record[0]
            for record in self._conn.execute(
                "SELECT v.token FROM entities e JOIN vocab v ON v.id = e.subject_id "
                "ORDER BY e.row"
            )
        )

    def _row_of(self, entity_id: str) -> int | None:
        found = self._conn.execute(
            "SELECT e.row FROM entities e JOIN vocab v ON v.id = e.subject_id WHERE v.token = ?",
            (entity_id,),
        ).fetchone()
        return None if found is None else int(found[0])

    def has_entity(self, entity_id: str) -> bool:
        return self._row_of(entity_id) is not None

    def entity_row(self, entity_id: str) -> int:
        row = self._row_of(entity_id)
        if row is None:
            raise KeyError(entity_id)
        return row

    def cluster_positions(self, entity_id: str) -> np.ndarray:
        return self.cluster_positions_by_row(self.entity_row(entity_id))

    def cluster_size(self, entity_id: str) -> int:
        row = self.entity_row(entity_id)
        count = self._conn.execute(
            "SELECT COUNT(*) FROM triples WHERE entity_row = ?", (row,)
        ).fetchone()
        return int(count[0])

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed
    # ------------------------------------------------------------------ #
    def entity_id_of_row(self, row: int) -> str:
        found = self._conn.execute(
            "SELECT v.token FROM entities e JOIN vocab v ON v.id = e.subject_id "
            "WHERE e.row = ?",
            (int(row),),
        ).fetchone()
        if found is None:
            raise IndexError(f"entity row {row} out of range")
        return str(found[0])

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        """One index range scan over ``(entity_row, position)``."""
        row = int(row)
        if row < 0 or row >= self._num_entities:
            raise IndexError(f"entity row {row} out of range")
        cursor = self._conn.execute(
            "SELECT position FROM triples WHERE entity_row = ? ORDER BY position", (row,)
        )
        return np.asarray([record[0] for record in cursor], dtype=np.int64)

    def cluster_size_array(self) -> np.ndarray:
        """Cluster sizes, the differences of the CSR offsets."""
        return np.diff(self.csr_arrays()[0])

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The position index the designs need (lazily, cached).

        A file written by :meth:`from_columnar` carries the index in two
        ``meta`` rows; they are read back as read-only ``np.frombuffer``
        views of the stored bytes, with no scan, whenever they describe the
        table (see :meth:`_stored_csr`).  Otherwise — a file written before
        the index was stored, one whose index passed SQLite's blob limit, or
        one whose index is damaged — the index comes from one index-ordered
        scan (``ORDER BY entity_row, position``, see :meth:`_scan_csr`).  This is
        the only part of the graph the sampling designs ever hold in memory
        (8 bytes per triple and per entity) — the string columns and
        vocabulary stay on disk.  Sharing the array layout with the columnar
        backend is what makes batch draws bit-identical across backends.
        """
        if self._csr is None:
            self._csr = self._stored_csr() or self._scan_csr()
        return self._csr

    def _stored_csr(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The stored index, or ``None`` when absent or not this table's.

        The file is written once, rows and index in one transaction, so an
        index that disagrees with the table has been damaged (or edited by
        another program): one of the wrong length fails the checks made in
        SQL, before any blob is read, and one of the right length fails the
        order or permutation checks.  Either way it is never used.
        """
        width = _CSR_DTYPE.itemsize
        expected = {
            "csr_offsets": (self._num_entities + 1) * width,
            "csr_positions": self._num_triples * width,
        }
        lengths = dict(
            self._conn.execute(
                "SELECT key, length(value) FROM meta "
                "WHERE key IN ('csr_offsets', 'csr_positions') AND typeof(value) = 'blob'"
            )
        )
        if lengths != expected or not all(_blob_fits(self._conn, n) for n in lengths.values()):
            return None
        offsets, positions = (
            np.frombuffer(
                self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()[0],
                dtype=_CSR_DTYPE,
            )
            for key in expected
        )
        if offsets[0] != 0 or offsets[-1] != self._num_triples or np.any(np.diff(offsets) < 0):
            return None
        if positions.size and (positions.min() < 0 or positions.max() >= self._num_triples):
            return None
        seen = np.zeros(self._num_triples, dtype=bool)
        seen[positions] = True
        if not seen.all():
            return None
        return offsets, positions

    def _scan_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Build the index from one ordered scan of ``(entity_row, position)``.

        Rows are read in chunks of :data:`_SCAN_CHUNK` straight into the
        final arrays, so the peak is the index itself plus one chunk.
        """
        offsets = np.zeros(self._num_entities + 1, dtype=np.int64)
        positions = np.empty(self._num_triples, dtype=np.int64)
        cursor = self._conn.execute(
            "SELECT entity_row, position FROM triples ORDER BY entity_row, position"
        )
        for start in range(0, self._num_triples, _SCAN_CHUNK):
            count = min(_SCAN_CHUNK, self._num_triples - start)
            pairs = np.fromiter(
                chain.from_iterable(islice(cursor, count)), dtype=np.int64, count=2 * count
            ).reshape(-1, 2)
            positions[start : start + count] = pairs[:, 1]
            # Rows arrive sorted, so the chunk's counts cover one row range.
            first = pairs[0, 0]
            counts = np.bincount(pairs[:, 0] - first)
            offsets[first + 1 : first + 1 + counts.size] += counts
        np.cumsum(offsets, out=offsets)
        return offsets, positions

    # ------------------------------------------------------------------ #
    # Column export (loader-parity digests, conversion back to columnar)
    # ------------------------------------------------------------------ #
    def id_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``(subjects, predicates, objects, flags)`` id columns.

        Materialised from one positional scan; matches
        :meth:`ColumnarStore.id_columns` element for element when both stores
        loaded the same data.
        """
        subjects = np.empty(self._num_triples, dtype=np.int32)
        predicates = np.empty(self._num_triples, dtype=np.int32)
        objects = np.empty(self._num_triples, dtype=np.int32)
        flags = np.empty(self._num_triples, dtype=bool)
        cursor = self._conn.execute(
            "SELECT position, s, p, o, is_entity_object FROM triples ORDER BY position"
        )
        for position, s, p, o, flag in cursor:
            subjects[position] = s
            predicates[position] = p
            objects[position] = o
            flags[position] = bool(flag)
        return subjects, predicates, objects, flags

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SqliteStore(path={str(self.path)!r}, entities={self.num_entities}, "
            f"triples={self.num_triples})"
        )


def _remove_database(path: Path) -> None:
    for candidate in (path, path.with_name(path.name + "-wal"), path.with_name(path.name + "-shm")):
        try:
            candidate.unlink()
        except FileNotFoundError:
            pass


def _cleanup(conn: sqlite3.Connection, temp_path: Path | None) -> None:
    try:
        conn.close()
    except Exception:  # pragma: no cover - interpreter shutdown
        pass
    if temp_path is not None:
        _remove_database(temp_path)
