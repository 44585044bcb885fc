"""Out-of-core SQLite storage backend.

The in-memory and columnar backends assume the graph fits in RAM; the paper's
own motivation is web-scale KGs.  :class:`SqliteStore` keeps the triple set
and the vocabulary in a WAL-mode SQLite file and answers the
:class:`~repro.storage.backend.StorageBackend` contract with indexed queries,
so graphs much larger than memory evaluate on one node:

* the CSR cluster index becomes *indexed range scans* — the ``triples`` table
  is indexed on ``(entity_row, position)``, so
  :meth:`~SqliteStore.cluster_positions_by_row` is one range query;
* :meth:`~SqliteStore.cluster_size_array` pushes down into one SQL aggregate
  over the same index;
* the batch draw surface stays bit-identical to the other backends: the
  sampling designs need raw ``(offsets, positions)`` arrays, so
  :meth:`~SqliteStore.csr_arrays` materialises *only the position index*
  (about 12 bytes per triple) lazily from one index-ordered scan.  The heavy
  string columns and the vocabulary never leave the database file, which is
  what keeps resident memory flat (see ``benchmarks/bench_storage_backend.py``).

Durability pragmas follow the usual WAL recipe: ``journal_mode=WAL`` +
``synchronous=NORMAL`` makes per-batch commits cheap while keeping the
database consistent across a hard kill (the WAL is replayed on the next
open); ``busy_timeout`` retries briefly instead of failing on a locked file;
``mmap_size`` lets reads come straight from the page cache mapping.

Ingest is *resumable*: :meth:`~SqliteStore.ingest_file` streams a TSV or
N-Triples file in bounded-memory batches and commits a checkpoint row
(``ingest_state``) in the same transaction as each batch.  A load killed
mid-batch rolls back to the last committed batch on reopen, and re-running
the ingest skips exactly the committed rows — the finished database has
byte-identical logical content (:meth:`~SqliteStore.content_digest`) to an
uninterrupted load.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import tempfile
import weakref
from collections.abc import Iterable, Iterator, Sequence
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend

__all__ = ["SqliteStore"]

_SQLITE_MAGIC = b"SQLite format 3\x00"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value
);
CREATE TABLE IF NOT EXISTS vocab (
    id    INTEGER PRIMARY KEY,
    token TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS entities (
    row        INTEGER PRIMARY KEY,
    subject_id INTEGER NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS triples (
    position         INTEGER PRIMARY KEY,
    entity_row       INTEGER NOT NULL,
    s                INTEGER NOT NULL,
    p                INTEGER NOT NULL,
    o                INTEGER NOT NULL,
    is_entity_object INTEGER NOT NULL DEFAULT 0,
    UNIQUE (s, p, o)
);
CREATE INDEX IF NOT EXISTS triples_cluster_idx ON triples (entity_row, position);
CREATE TABLE IF NOT EXISTS ingest_state (
    source     TEXT PRIMARY KEY,
    batches    INTEGER NOT NULL,
    rows       INTEGER NOT NULL,
    status     TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
"""

#: Upper bound on the in-memory token/row lookup caches used during ingest.
#: The caches are pure accelerators over the ``vocab`` / ``entities`` tables;
#: clearing them bounds ingest memory on arbitrarily large inputs.
_CACHE_LIMIT = 1 << 20

_TRIPLE_QUERY = (
    "SELECT vs.token, vp.token, vo.token, t.is_entity_object "
    "FROM triples t "
    "JOIN vocab vs ON vs.id = t.s "
    "JOIN vocab vp ON vp.id = t.p "
    "JOIN vocab vo ON vo.id = t.o "
)


def is_sqlite_file(path: str | Path) -> bool:
    """Whether ``path`` is an existing SQLite database file (header magic)."""
    path = Path(path)
    if not path.is_file():
        return False
    with path.open("rb") as handle:
        return handle.read(16) == _SQLITE_MAGIC


class SqliteStore(StorageBackend):
    """Disk-resident storage backend over one WAL-mode SQLite file.

    Parameters
    ----------
    path:
        Database file.  An existing repro database is reopened in place;
        ``None`` creates a private temporary file that is removed when the
        store is garbage-collected or :meth:`close`\\ d.
    mmap_size:
        Value for ``PRAGMA mmap_size`` (bytes; ``0`` disables memory-mapped
        reads).  Default 256 MiB.
    """

    def __init__(self, path: str | Path | None = None, *, mmap_size: int = 256 * 1024 * 1024):
        if path is None:
            handle, tmp = tempfile.mkstemp(prefix="repro-kg-", suffix=".sqlite")
            os.close(handle)
            self.path = Path(tmp)
            self._owns_file = True
        else:
            self.path = Path(path)
            self._owns_file = False
        self.mmap_size = int(mmap_size)
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        for pragma in (
            "PRAGMA journal_mode=WAL",
            "PRAGMA synchronous=NORMAL",
            "PRAGMA busy_timeout=30000",
            f"PRAGMA mmap_size={self.mmap_size}",
        ):
            self._conn.execute(pragma)
        self._conn.executescript(_SCHEMA)
        self._token_cache: dict[str, int] = {}
        self._row_cache: dict[int, int] = {}
        self._load_counters()
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None
        self._finalizer = weakref.finalize(
            self, _cleanup, self._conn, self.path if self._owns_file else None
        )

    # ------------------------------------------------------------------ #
    # Connection / lifecycle
    # ------------------------------------------------------------------ #
    def _load_counters(self) -> None:
        cur = self._conn.execute("SELECT COUNT(*) FROM triples")
        self._num_triples = int(cur.fetchone()[0])
        cur = self._conn.execute("SELECT COUNT(*) FROM entities")
        self._num_entities = int(cur.fetchone()[0])
        cur = self._conn.execute("SELECT COALESCE(MAX(id) + 1, 0) FROM vocab")
        self._next_token_id = int(cur.fetchone()[0])

    def close(self) -> None:
        """Close the connection (and delete the file if it was a temporary)."""
        self._finalizer()

    def __getstate__(self):
        raise TypeError(
            "SqliteStore is not picklable: it wraps a live sqlite3 connection. "
            "Share the database path and reopen with SqliteStore(path) instead."
        )

    def _begin(self) -> bool:
        """Open a transaction unless one is already active; return whether we did."""
        if self._conn.in_transaction:
            return False
        self._conn.execute("BEGIN")
        return True

    def _invalidate(self) -> None:
        self._csr = None
        self._sizes = None

    def _reset_after_rollback(self) -> None:
        """Drop every cache that may now disagree with the database."""
        self._token_cache.clear()
        self._row_cache.clear()
        self._load_counters()
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Interning / row assignment
    # ------------------------------------------------------------------ #
    def _intern(self, token: str) -> int:
        token_id = self._token_cache.get(token)
        if token_id is not None:
            return token_id
        found = self._conn.execute("SELECT id FROM vocab WHERE token = ?", (token,)).fetchone()
        if found is None:
            token_id = self._next_token_id
            self._conn.execute("INSERT INTO vocab (id, token) VALUES (?, ?)", (token_id, token))
            self._next_token_id += 1
        else:
            token_id = int(found[0])
        if len(self._token_cache) >= _CACHE_LIMIT:
            self._token_cache.clear()
        self._token_cache[token] = token_id
        return token_id

    def _token_id(self, token: str) -> int | None:
        token_id = self._token_cache.get(token)
        if token_id is not None:
            return token_id
        found = self._conn.execute("SELECT id FROM vocab WHERE token = ?", (token,)).fetchone()
        return None if found is None else int(found[0])

    def _existing_row(self, subject_id: int) -> int | None:
        row = self._row_cache.get(subject_id)
        if row is not None:
            return row
        found = self._conn.execute(
            "SELECT row FROM entities WHERE subject_id = ?", (subject_id,)
        ).fetchone()
        return None if found is None else int(found[0])

    def _cache_row(self, subject_id: int, row: int) -> None:
        if len(self._row_cache) >= _CACHE_LIMIT:
            self._row_cache.clear()
        self._row_cache[subject_id] = row

    def _insert_interned(
        self, subject_id: int, predicate_id: int, object_id: int, flag: bool
    ) -> bool:
        """Insert one already-interned statement; return whether it was new.

        Positions are dense insertion ranks over *kept* (non-duplicate)
        statements and entity rows follow first-seen subject order — the
        same invariants the other backends guarantee.
        """
        row = self._existing_row(subject_id)
        if row is None:
            # A brand-new subject cannot carry a duplicate (s, p, o).
            row = self._num_entities
            self._conn.execute(
                "INSERT INTO entities (row, subject_id) VALUES (?, ?)", (row, subject_id)
            )
            self._num_entities += 1
            self._cache_row(subject_id, row)
        else:
            self._cache_row(subject_id, row)
            dup = self._conn.execute(
                "SELECT 1 FROM triples WHERE s = ? AND p = ? AND o = ?",
                (subject_id, predicate_id, object_id),
            ).fetchone()
            if dup is not None:
                return False
        self._conn.execute(
            "INSERT INTO triples (position, entity_row, s, p, o, is_entity_object) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (self._num_triples, row, subject_id, predicate_id, object_id, 1 if flag else 0),
        )
        self._num_triples += 1
        return True

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        own_txn = self._begin()
        try:
            added = self._insert_interned(
                self._intern(triple.subject),
                self._intern(triple.predicate),
                self._intern(triple.obj),
                triple.is_entity_object,
            )
        except BaseException:
            if own_txn:
                self._conn.execute("ROLLBACK")
                self._reset_after_rollback()
            raise
        if own_txn:
            self._conn.execute("COMMIT")
        if added:
            self._invalidate()
        return added

    def add_batch(self, triples: Iterable[Triple]) -> list[bool]:
        own_txn = self._begin()
        try:
            flags = [
                self._insert_interned(
                    self._intern(t.subject),
                    self._intern(t.predicate),
                    self._intern(t.obj),
                    t.is_entity_object,
                )
                for t in triples
            ]
        except BaseException:
            if own_txn:
                self._conn.execute("ROLLBACK")
                self._reset_after_rollback()
            raise
        if own_txn:
            self._conn.execute("COMMIT")
        if any(flags):
            self._invalidate()
        return flags

    # ------------------------------------------------------------------ #
    # Bulk construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_columnar(cls, store, path: str | Path | None = None, name: str | None = None):
        """Bulk-copy a frozen :class:`~repro.storage.columnar.ColumnarStore`.

        Vocabulary ids, triple positions and entity rows are copied verbatim,
        so every draw taken from the resulting store is bit-identical to one
        taken from ``store``.  An existing file at ``path`` is replaced.
        """
        if path is not None:
            _remove_database(Path(path))
        out = cls(path)
        subjects, predicates, objects, flags = store.id_columns()
        row_subjects = store.row_subject_ids()
        # Subject id -> row, as a dense LUT (subject ids are vocab-dense).
        lut = np.zeros(int(row_subjects.max()) + 1 if row_subjects.size else 1, dtype=np.int64)
        lut[np.asarray(row_subjects, dtype=np.int64)] = np.arange(row_subjects.size)
        rows = lut[np.asarray(subjects, dtype=np.int64)]
        conn = out._conn
        conn.execute("BEGIN")
        try:
            conn.executemany(
                "INSERT INTO vocab (id, token) VALUES (?, ?)",
                ((i, store.vocab[i]) for i in range(len(store.vocab))),
            )
            conn.executemany(
                "INSERT INTO entities (row, subject_id) VALUES (?, ?)",
                enumerate(np.asarray(row_subjects, dtype=np.int64).tolist()),
            )
            conn.executemany(
                "INSERT INTO triples (position, entity_row, s, p, o, is_entity_object) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                zip(
                    range(subjects.shape[0]),
                    rows.tolist(),
                    np.asarray(subjects, dtype=np.int64).tolist(),
                    np.asarray(predicates, dtype=np.int64).tolist(),
                    np.asarray(objects, dtype=np.int64).tolist(),
                    np.asarray(flags, dtype=np.int64).tolist(),
                ),
            )
            if name is not None:
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('name', ?)", (name,)
                )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        out._load_counters()
        return out

    # ------------------------------------------------------------------ #
    # Resumable streaming ingest
    # ------------------------------------------------------------------ #
    def ingest_file(
        self,
        path: str | Path,
        fmt: str = "tsv",
        *,
        batch_size: int = 50_000,
        max_batches: int | None = None,
        source: str | None = None,
    ) -> dict:
        """Stream a TSV / N-Triples file into the database, resumably.

        Rows are parsed and inserted in batches of ``batch_size``; each batch
        commits together with a checkpoint row in ``ingest_state`` (keyed by
        ``source``, default the resolved file path), so a load killed at any
        point resumes from the last committed batch: the committed prefix of
        parsed rows is skipped and the finished database is logically
        byte-identical (:meth:`content_digest`) to an uninterrupted load of
        the same file.  ``max_batches`` stops early after that many committed
        batches (checkpoint left ``in_progress``) — useful for incremental
        loading and for testing resume.

        Returns a report dict: rows/batches consumed by this call, the resume
        offset, and the final checkpoint status.
        """
        from repro.storage.ingest import iter_nt_rows, iter_tsv_rows

        if fmt not in ("tsv", "nt"):
            raise ValueError(f"unknown ingest format {fmt!r}; choose 'tsv' or 'nt'")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        path = Path(path)
        key = source if source is not None else f"{fmt}:{path.resolve()}"
        state = self._conn.execute(
            "SELECT batches, rows, status FROM ingest_state WHERE source = ?", (key,)
        ).fetchone()
        batches_done, rows_done, status = (
            (int(state[0]), int(state[1]), state[2]) if state else (0, 0, "new")
        )
        report = {
            "source": key,
            "resumed_from_rows": rows_done,
            "resumed_from_batches": batches_done,
            "rows_this_call": 0,
            "batches_this_call": 0,
        }
        if status == "done":
            report["status"] = "done"
            return report
        rows_iter = iter_tsv_rows(path) if fmt == "tsv" else iter_nt_rows(path)
        if rows_done:
            # Skip the committed prefix of *parsed* rows (duplicates count:
            # they were consumed, just not inserted).
            next(islice(rows_iter, rows_done, rows_done), None)
        while True:
            batch = list(islice(rows_iter, batch_size))
            if not batch:
                status = "done"
                self._checkpoint(key, batches_done, rows_done, status)
                break
            self._conn.execute("BEGIN")
            try:
                for subject, predicate, obj, flag in batch:
                    self._insert_interned(
                        self._intern(subject), self._intern(predicate), self._intern(obj), flag
                    )
                batches_done += 1
                rows_done += len(batch)
                status = "in_progress"
                self._checkpoint(key, batches_done, rows_done, status, commit=False)
            except BaseException:
                self._conn.execute("ROLLBACK")
                self._reset_after_rollback()
                raise
            self._conn.execute("COMMIT")
            report["rows_this_call"] += len(batch)
            report["batches_this_call"] += 1
            if max_batches is not None and report["batches_this_call"] >= max_batches:
                break
        self._invalidate()
        report["status"] = status
        return report

    def _checkpoint(self, key: str, batches: int, rows: int, status: str, commit: bool = True):
        own_txn = self._begin() if commit else False
        self._conn.execute(
            "INSERT INTO ingest_state (source, batches, rows, status, updated_at) "
            "VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT (source) DO UPDATE SET "
            "batches = excluded.batches, rows = excluded.rows, "
            "status = excluded.status, updated_at = excluded.updated_at",
            (key, batches, rows, status, datetime.now(timezone.utc).isoformat()),
        )
        if own_txn:
            self._conn.execute("COMMIT")

    def ingest_state(self, source: str) -> dict | None:
        """The checkpoint row for ``source`` (``None`` if never ingested)."""
        found = self._conn.execute(
            "SELECT batches, rows, status, updated_at FROM ingest_state WHERE source = ?",
            (source,),
        ).fetchone()
        if found is None:
            return None
        return {
            "batches": int(found[0]),
            "rows": int(found[1]),
            "status": found[2],
            "updated_at": found[3],
        }

    def content_digest(self) -> str:
        """SHA-256 over the logical graph content, independent of WAL state.

        Hashes the ``vocab``, ``entities`` and ``triples`` tables in key
        order.  ``ingest_state`` (which carries wall-clock timestamps) and
        ``meta`` are deliberately excluded: two loads of the same data are
        equal exactly when their digests are.
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
        own_txn = self._begin()
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('labels', ?)",
            (np.packbits(labels.astype(np.uint8)).tobytes(),),
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES ('labels_len', ?)",
            (int(labels.shape[0]),),
        )
        if own_txn:
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
        subject_id = self._token_id(triple.subject)
        predicate_id = self._token_id(triple.predicate)
        object_id = self._token_id(triple.obj)
        if subject_id is None or predicate_id is None or object_id is None:
            return False
        found = self._conn.execute(
            "SELECT 1 FROM triples WHERE s = ? AND p = ? AND o = ?",
            (subject_id, predicate_id, object_id),
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

    def has_entity(self, entity_id: str) -> bool:
        subject_id = self._token_id(entity_id)
        return subject_id is not None and self._existing_row(subject_id) is not None

    def entity_row(self, entity_id: str) -> int:
        subject_id = self._token_id(entity_id)
        if subject_id is None:
            raise KeyError(entity_id)
        row = self._existing_row(subject_id)
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
        if self._sizes is None:
            sizes = np.zeros(self._num_entities, dtype=np.int64)
            for row, count in self._conn.execute(
                "SELECT entity_row, COUNT(*) FROM triples GROUP BY entity_row"
            ):
                sizes[row] = count
            self._sizes = sizes
        return self._sizes

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Materialise (lazily, cached) the position index the designs need.

        ``offsets`` comes from the SQL size aggregate; ``positions`` streams
        out of one index-ordered scan (``ORDER BY entity_row, position``).
        This is the only part of the graph the sampling designs ever hold in
        memory (~12 bytes per triple) — the string columns and vocabulary
        stay on disk.  Sharing the array layout with the columnar backend is
        what makes batch draws bit-identical across backends.
        """
        if self._csr is None:
            sizes = self.cluster_size_array()
            offsets = np.concatenate(
                ([0], np.cumsum(sizes, dtype=np.int64))
            ).astype(np.int64)
            cursor = self._conn.execute(
                "SELECT position FROM triples ORDER BY entity_row, position"
            )
            positions = np.fromiter(
                (record[0] for record in cursor), dtype=np.int64, count=self._num_triples
            )
            self._csr = (offsets, positions)
        return self._csr

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
