"""Columnar storage backend: interned ``int32`` columns + CSR cluster index.

Strings are interned once into a :class:`Vocabulary`; triples live in three
parallel ``int32`` NumPy columns (subject / predicate / object ids) plus a
boolean entity-object flag column.  The cluster view is a CSR-style index —
an ``offsets`` array of length ``N + 1`` and a ``positions`` array of length
``M`` — so cluster-size lookup is O(1) and per-cluster position slices are
zero-copy NumPy views.

The store has two internal modes:

* **building** — appends go to compact growable buffers (``array('i')``);
  O(1) per triple, no NumPy arrays are reallocated;
* **frozen** — the columns are consolidated NumPy (possibly memory-mapped)
  arrays and the CSR index exists.

Any positional/cluster read finalises the store (building → frozen, one O(M)
pass); any ``add`` after that thaws it back (another O(M) pass).  Workloads
that add first and read afterwards — the loaders, ``subset``, the dataset
generators — therefore pay one consolidation total.  One that alternates
single adds with reads pays the thaw on every add: 200 such ``add`` +
``cluster_positions`` pairs on a 20k-triple graph take 0.2–0.4 s on a
2-vCPU Xeon host.  Evolving graphs never do this: they append through
:class:`~repro.storage.delta.DeltaStore`, which leaves this store frozen.

Deduplication follows graph-as-set semantics.  ``add`` dedups eagerly through
a key set (built lazily on first use); the bulk ingest paths
(:mod:`repro.storage.ingest`) skip the key set and dedup vectorised at
:meth:`ColumnarStore.finalize` time, keeping first occurrences in insertion
order.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend

__all__ = ["Vocabulary", "ColumnarStore"]


class Vocabulary:
    """Bidirectional string <-> ``int32`` id interning table.

    Ids are assigned densely in first-intern order.  The table has two
    representations: a Python ``list`` (mutable, used while building) and a
    fixed-width NumPy unicode array (frozen, used after a snapshot load so the
    strings can stay memory-mapped).  The reverse index (string -> id) is a
    dict built lazily — a snapshot-loaded vocabulary that is only ever read
    by id never pays for it.
    """

    __slots__ = ("_list", "_array", "_index")

    def __init__(self, strings: Iterable[str] | np.ndarray | None = None) -> None:
        if isinstance(strings, np.ndarray):
            self._list: list[str] | None = None
            self._array: np.ndarray | None = strings
        else:
            self._list = list(strings) if strings is not None else []
            self._array = None
        self._index: dict[str, int] | None = None

    def __len__(self) -> int:
        if self._list is not None:
            return len(self._list)
        assert self._array is not None
        return int(self._array.shape[0])

    def __getitem__(self, token_id: int) -> str:
        if self._list is not None:
            return self._list[token_id]
        assert self._array is not None
        return str(self._array[token_id])

    def _ensure_index(self) -> dict[str, int]:
        if self._index is None:
            if self._list is not None:
                self._index = {token: i for i, token in enumerate(self._list)}
            else:
                assert self._array is not None
                self._index = {str(token): i for i, token in enumerate(self._array)}
        return self._index

    def _ensure_list(self) -> list[str]:
        if self._list is None:
            assert self._array is not None
            self._list = [str(token) for token in self._array]
            self._array = None
        return self._list

    def intern(self, token: str) -> int:
        """Return the id of ``token``, assigning a fresh one if unseen."""
        index = self._ensure_index()
        token_id = index.get(token)
        if token_id is None:
            tokens = self._ensure_list()
            token_id = len(tokens)
            tokens.append(token)
            index[token] = token_id
        return token_id

    def intern_many(self, items: Iterable[str]) -> list[int]:
        """Bulk :meth:`intern` with the table lookups hoisted out of the loop."""
        index = self._ensure_index()
        tokens = self._ensure_list()
        index_get = index.get
        append = tokens.append
        ids = []
        ids_append = ids.append
        for token in items:
            token_id = index_get(token)
            if token_id is None:
                token_id = len(tokens)
                append(token)
                index[token] = token_id
            ids_append(token_id)
        return ids

    def id_of(self, token: str) -> int:
        """Return the id of ``token`` (``KeyError`` if never interned)."""
        return self._ensure_index()[token]

    def get(self, token: str) -> int | None:
        """Return the id of ``token`` or ``None`` if never interned."""
        return self._ensure_index().get(token)

    def to_array(self) -> np.ndarray:
        """The vocabulary as a fixed-width unicode array (for snapshots)."""
        if self._array is not None and self._list is None:
            return self._array
        assert self._list is not None
        return np.asarray(self._list, dtype=np.str_)


class ColumnarStore(StorageBackend):
    """Interned columnar triple storage with a CSR cluster index."""

    def __init__(self) -> None:
        self.vocab = Vocabulary()
        # Building-mode growable buffers ('i' = C int, 32 bits on all
        # supported platforms; 'B' = unsigned char for the flag column).
        self._buf_s: array = array("i")
        self._buf_p: array = array("i")
        self._buf_o: array = array("i")
        self._buf_f: array = array("B")
        # Building-mode cluster bookkeeping.
        self._row_subjects_list: list[int] = []
        self._row_counts: array = array("q")
        self._subject_row: dict[int, int] | None = {}
        # Frozen-mode consolidated columns + CSR index.
        self._col_s: np.ndarray | None = None
        self._col_p: np.ndarray | None = None
        self._col_o: np.ndarray | None = None
        self._col_f: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._positions: np.ndarray | None = None
        self._row_subjects_arr: np.ndarray | None = None
        # Lazy dedup/membership key set of (s, p, o) id tuples.
        self._keys: set[tuple[int, int, int]] | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, triples: Iterable[Triple]) -> "ColumnarStore":
        """Bulk-convert an iterable of (already deduplicated) triples."""
        store = cls()
        append = store.append_interned
        intern = store.vocab.intern
        for triple in triples:
            append(
                intern(triple.subject),
                intern(triple.predicate),
                intern(triple.obj),
                triple.is_entity_object,
            )
        return store

    @classmethod
    def from_arrays(
        cls,
        vocab: Vocabulary | np.ndarray | Sequence[str],
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        flags: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        row_subjects: np.ndarray | None = None,
    ) -> "ColumnarStore":
        """Adopt pre-built (possibly memory-mapped) columns without copying.

        ``subjects``/``predicates``/``objects`` must already be deduplicated
        and id-consistent with ``vocab``.  The CSR index and row table are
        rebuilt from the subject column when not supplied.
        """
        store = cls()
        store.vocab = vocab if isinstance(vocab, Vocabulary) else Vocabulary(np.asarray(vocab))
        store._col_s = np.asarray(subjects)
        store._col_p = np.asarray(predicates)
        store._col_o = np.asarray(objects)
        if flags is None:
            store._col_f = np.zeros(store._col_s.shape[0], dtype=bool)
        else:
            store._col_f = np.asarray(flags).astype(bool, copy=False)
        store._row_subjects_list = []
        store._row_counts = array("q")
        store._subject_row = None
        if offsets is not None and positions is not None and row_subjects is not None:
            store._offsets = np.asarray(offsets)
            store._positions = np.asarray(positions)
            store._row_subjects_arr = np.asarray(row_subjects)
        else:
            store._build_csr()
        return store

    # ------------------------------------------------------------------ #
    # Mode management
    # ------------------------------------------------------------------ #
    @property
    def _building(self) -> bool:
        return self._col_s is None

    def append_interned(
        self, subject_id: int, predicate_id: int, object_id: int, is_entity_object: bool = False
    ) -> None:
        """Append one triple given already-interned ids (no dedup check).

        This is the raw bulk-load primitive used by the ingest paths and
        :meth:`from_graph`; call :meth:`finalize` with ``dedupe=True``
        afterwards if the source may contain duplicates.
        """
        if not self._building:
            self._thaw()
        self._buf_s.append(subject_id)
        self._buf_p.append(predicate_id)
        self._buf_o.append(object_id)
        self._buf_f.append(1 if is_entity_object else 0)
        if self._subject_row is None:
            self._subject_row = {sid: row for row, sid in enumerate(self._row_subjects_list)}
        row = self._subject_row.get(subject_id)
        if row is None:
            self._subject_row[subject_id] = len(self._row_subjects_list)
            self._row_subjects_list.append(subject_id)
            self._row_counts.append(1)
        else:
            self._row_counts[row] += 1
        if self._keys is not None:
            self._keys.add((subject_id, predicate_id, object_id))

    def _thaw(self) -> None:
        """Frozen -> building: move the consolidated columns back to buffers."""
        assert self._col_s is not None

        def to_buffer(column: np.ndarray, typecode: str, dtype) -> array:
            # frombytes is a single memcpy; .tolist() would churn one Python
            # object per element, which dominates thaw time at millions of
            # triples.
            buffer = array(typecode)
            buffer.frombytes(np.ascontiguousarray(column, dtype=dtype).tobytes())
            return buffer

        self._buf_s = to_buffer(self._col_s, "i", np.int32)
        self._buf_p = to_buffer(self._col_p, "i", np.int32)
        self._buf_o = to_buffer(self._col_o, "i", np.int32)
        self._buf_f = to_buffer(self._col_f, "B", np.uint8)
        self._ensure_row_table()
        assert self._row_subjects_arr is not None
        sizes = self.cluster_size_array()
        self._row_subjects_list = [int(s) for s in self._row_subjects_arr]
        self._row_counts = to_buffer(sizes, "q", np.int64)
        self._subject_row = None  # rebuilt lazily on next append
        self._col_s = self._col_p = self._col_o = self._col_f = None
        self._offsets = self._positions = self._row_subjects_arr = None

    def finalize(self, dedupe: bool = False) -> "ColumnarStore":
        """Building -> frozen: consolidate buffers and build the CSR index.

        With ``dedupe=True``, exact ``(s, p, o)`` repeats are dropped keeping
        the first occurrence, preserving insertion order — the vectorised
        equivalent of the per-``add`` set check.  Returns ``self``.
        """
        if not self._building and not dedupe:
            return self
        if self._building:

            def consolidate(buffer, dtype):
                if not buffer:
                    return np.empty(0, dtype)
                return np.frombuffer(buffer, dtype=dtype).copy()

            self._col_s = consolidate(self._buf_s, np.int32)
            self._col_p = consolidate(self._buf_p, np.int32)
            self._col_o = consolidate(self._buf_o, np.int32)
            self._col_f = consolidate(self._buf_f, np.uint8).astype(bool)
            self._buf_s = array("i")
            self._buf_p = array("i")
            self._buf_o = array("i")
            self._buf_f = array("B")
        if dedupe and self._col_s.size:
            keep = self._first_occurrence_mask()
            if not bool(keep.all()):
                self._col_s = self._col_s[keep]
                self._col_p = self._col_p[keep]
                self._col_o = self._col_o[keep]
                self._col_f = self._col_f[keep]
                self._keys = None
        self._row_subjects_list = []
        self._row_counts = array("q")
        self._subject_row = None
        self._build_csr()
        return self

    def _first_occurrence_mask(self) -> np.ndarray:
        """Boolean mask keeping the first occurrence of each (s, p, o) key."""
        stacked = np.column_stack(
            (
                self._col_s.astype(np.int32),
                self._col_p.astype(np.int32),
                self._col_o.astype(np.int32),
            )
        )
        stacked = np.ascontiguousarray(stacked)
        keys = stacked.view([("", np.int32)] * 3).ravel()
        _, first = np.unique(keys, return_index=True)
        keep = np.zeros(keys.shape[0], dtype=bool)
        keep[first] = True
        return keep

    def _build_csr(self) -> None:
        assert self._col_s is not None
        subjects = np.asarray(self._col_s, dtype=np.int64)
        if subjects.size == 0:
            self._row_subjects_arr = np.empty(0, dtype=np.int32)
            self._offsets = np.zeros(1, dtype=np.int64)
            self._positions = np.empty(0, dtype=np.int32)
            return
        unique_ids, first_index = np.unique(subjects, return_index=True)
        row_order = np.argsort(first_index, kind="stable")
        self._row_subjects_arr = unique_ids[row_order].astype(np.int32)
        # Map each triple's subject id to its row via a dense lookup table.
        lut = np.empty(int(unique_ids[-1]) + 1, dtype=np.int64)
        lut[self._row_subjects_arr] = np.arange(row_order.size)
        rows = lut[subjects]
        counts = np.bincount(rows, minlength=row_order.size)
        self._offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self._positions = np.argsort(rows, kind="stable").astype(np.int32)

    def _ensure_frozen(self) -> None:
        if self._building:
            self.finalize()

    def _ensure_row_table(self) -> None:
        self._ensure_frozen()

    def _ensure_subject_row(self) -> dict[int, int]:
        if self._subject_row is None:
            if self._building:
                source: Iterable[int] = self._row_subjects_list
            else:
                assert self._row_subjects_arr is not None
                source = (int(s) for s in self._row_subjects_arr)
            self._subject_row = {sid: row for row, sid in enumerate(source)}
        return self._subject_row

    def _ensure_keys(self) -> set[tuple[int, int, int]]:
        if self._keys is None:
            if self._building:
                self._keys = set(zip(self._buf_s, self._buf_p, self._buf_o))
            else:
                self._keys = set(
                    zip(self._col_s.tolist(), self._col_p.tolist(), self._col_o.tolist())
                )
        return self._keys

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        subject_id = self.vocab.intern(triple.subject)
        predicate_id = self.vocab.intern(triple.predicate)
        object_id = self.vocab.intern(triple.obj)
        keys = self._ensure_keys()
        key = (subject_id, predicate_id, object_id)
        if key in keys:
            return False
        self.append_interned(subject_id, predicate_id, object_id, triple.is_entity_object)
        keys.add(key)
        return True

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        if self._building:
            return len(self._buf_s)
        assert self._col_s is not None
        return int(self._col_s.shape[0])

    @property
    def num_entities(self) -> int:
        if self._building:
            return len(self._row_subjects_list)
        assert self._row_subjects_arr is not None
        return int(self._row_subjects_arr.shape[0])

    def contains(self, triple: Triple) -> bool:
        subject_id = self.vocab.get(triple.subject)
        predicate_id = self.vocab.get(triple.predicate)
        object_id = self.vocab.get(triple.obj)
        if subject_id is None or predicate_id is None or object_id is None:
            return False
        return (subject_id, predicate_id, object_id) in self._ensure_keys()

    # ------------------------------------------------------------------ #
    # Positional triple access
    # ------------------------------------------------------------------ #
    def _materialise(self, position: int) -> Triple:
        vocab = self.vocab
        return Triple(
            vocab[int(self._col_s[position])],
            vocab[int(self._col_p[position])],
            vocab[int(self._col_o[position])],
            is_entity_object=bool(self._col_f[position]),
        )

    def triple_at(self, position: int) -> Triple:
        self._ensure_frozen()
        if position < 0 or position >= self.num_triples:
            raise IndexError(f"triple position {position} out of range")
        return self._materialise(position)

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        self._ensure_frozen()
        return [self._materialise(int(position)) for position in positions]

    def iter_triples(self) -> Iterator[Triple]:
        self._ensure_frozen()
        for position in range(self.num_triples):
            yield self._materialise(position)

    # ------------------------------------------------------------------ #
    # Cluster access — entity-id keyed
    # ------------------------------------------------------------------ #
    def entity_ids(self) -> Sequence[str]:
        vocab = self.vocab
        if self._building:
            return tuple(vocab[sid] for sid in self._row_subjects_list)
        assert self._row_subjects_arr is not None
        return tuple(vocab[int(sid)] for sid in self._row_subjects_arr)

    def has_entity(self, entity_id: str) -> bool:
        subject_id = self.vocab.get(entity_id)
        if subject_id is None:
            return False
        return subject_id in self._ensure_subject_row()

    def entity_row(self, entity_id: str) -> int:
        subject_id = self.vocab.id_of(entity_id)
        return self._ensure_subject_row()[subject_id]

    def cluster_positions(self, entity_id: str) -> np.ndarray:
        return self.cluster_positions_by_row(self.entity_row(entity_id))

    def cluster_size(self, entity_id: str) -> int:
        row = self.entity_row(entity_id)
        if self._building:
            return int(self._row_counts[row])
        assert self._offsets is not None
        return int(self._offsets[row + 1] - self._offsets[row])

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed
    # ------------------------------------------------------------------ #
    def entity_id_of_row(self, row: int) -> str:
        if self._building:
            return self.vocab[self._row_subjects_list[row]]
        assert self._row_subjects_arr is not None
        return self.vocab[int(self._row_subjects_arr[row])]

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        self._ensure_frozen()
        assert self._offsets is not None and self._positions is not None
        return self._positions[int(self._offsets[row]) : int(self._offsets[row + 1])]

    def cluster_size_array(self) -> np.ndarray:
        if self._building:
            return np.frombuffer(self._row_counts, dtype=np.int64).copy()
        assert self._offsets is not None
        return np.diff(self._offsets).astype(np.int64, copy=False)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self._ensure_frozen()
        assert self._offsets is not None and self._positions is not None
        return self._offsets, self._positions

    def row_subject_ids(self) -> np.ndarray:
        """Row -> subject vocab id array (frozen mode)."""
        self._ensure_frozen()
        assert self._row_subjects_arr is not None
        return self._row_subjects_arr

    def subject_row_map(self) -> dict[int, int]:
        """Subject vocab id -> row mapping (built lazily, cached)."""
        self._ensure_frozen()
        return self._ensure_subject_row()

    def id_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frozen ``(subjects, predicates, objects, flags)`` id columns."""
        self._ensure_frozen()
        assert self._col_s is not None
        return self._col_s, self._col_p, self._col_o, self._col_f

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The frozen columns + index as a name -> array mapping."""
        self._ensure_frozen()
        assert self._col_s is not None
        return {
            "subjects": self._col_s,
            "predicates": self._col_p,
            "objects": self._col_o,
            "entity_flags": self._col_f,
            "vocab": self.vocab.to_array(),
            "cluster_offsets": self._offsets,
            "cluster_positions": self._positions,
            "row_subjects": self._row_subjects_arr,
        }
