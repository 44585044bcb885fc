"""Columnar storage backend: interned ``int32`` columns + CSR cluster index.

Strings are interned once into a :class:`Vocabulary`; triples live in three
parallel ``int32`` NumPy columns (subject / predicate / object ids) plus a
boolean entity-object flag column.  The cluster view is a CSR-style index —
an ``offsets`` array of length ``N + 1`` and a ``positions`` array of length
``M`` — so cluster-size lookup is O(1) and per-cluster position slices are
zero-copy NumPy views.

A store is written once and never changes after that: :meth:`ColumnarStore.
from_arrays` adopts pre-built (possibly memory-mapped) columns, and
:meth:`ColumnarStore.from_rows` — behind :meth:`~ColumnarStore.from_graph`,
``KnowledgeGraph(triples)`` and the streaming loaders in
:mod:`repro.storage.ingest` — interns parsed rows into columns and drops
repeated ``(s, p, o)`` keys keeping the first occurrence (graph-as-set
semantics).  A graph that grows does so in a
:class:`~repro.storage.delta.DeltaStore` laid over the columns zero-copy;
membership (:meth:`ColumnarStore.contains_keys`) is answered from one sorted
view of the packed id columns, built on first use and shared by every delta
view over the same store.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend

__all__ = ["Vocabulary", "ColumnarStore"]

#: One parsed statement: (subject, predicate, object, object-is-entity).
Row = tuple[str, str, str, bool]


def key_view(subjects: np.ndarray, predicates: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Pack (s, p, o) id columns into a single comparable structured array."""
    stacked = np.ascontiguousarray(
        np.column_stack(
            (
                subjects.astype(np.int32, copy=False),
                predicates.astype(np.int32, copy=False),
                objects.astype(np.int32, copy=False),
            )
        )
    )
    return stacked.view([("", np.int32)] * 3).ravel()


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Boolean mask keeping the first occurrence of each packed key, position or row."""
    _, first = np.unique(keys, return_index=True)
    keep = np.zeros(keys.shape[0], dtype=bool)
    keep[first] = True
    return keep


class Vocabulary:
    """Bidirectional string <-> ``int32`` id interning table.

    Ids are assigned densely in first-intern order.  The table has two
    representations: a Python ``list`` (mutable, used while interning) and a
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
    """Interned columnar triple storage with a CSR cluster index, written once.

    ``ColumnarStore()`` is the empty graph; :meth:`from_rows` and
    :meth:`from_arrays` build filled ones.
    """

    def __init__(self) -> None:
        empty = np.empty(0, dtype=np.int32)
        self.vocab = Vocabulary()
        self._col_s: np.ndarray = empty
        self._col_p: np.ndarray = empty
        self._col_o: np.ndarray = empty
        self._col_f: np.ndarray = np.empty(0, dtype=bool)
        self._offsets: np.ndarray = np.zeros(1, dtype=np.int64)
        self._positions: np.ndarray = empty
        self._row_subjects_arr: np.ndarray = empty
        # Built on first use: subject vocab id -> row, and the sorted packed
        # (s, p, o) keys that answer membership.
        self._subject_row: dict[int, int] | None = None
        self._sorted_keys: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "ColumnarStore":
        """Intern parsed ``(s, p, o, is_entity_object)`` rows into a new store.

        Strings get ids in first-intern order (subject, predicate, object of
        each row in turn); a repeated ``(s, p, o)`` keeps its first
        occurrence, so positions, rows and ids are what adding the rows one
        by one to a set would give.
        """
        vocab = Vocabulary()
        intern = vocab.intern
        # 'i' = C int, 32 bits on all supported platforms; 'B' = unsigned char.
        buffers = (array("i"), array("i"), array("i"), array("B"))
        append_s, append_p, append_o, append_f = (buffer.append for buffer in buffers)
        for subject, predicate, obj, is_entity_object in rows:
            append_s(intern(subject))
            append_p(intern(predicate))
            append_o(intern(obj))
            append_f(is_entity_object)
        subjects, predicates, objects, flags = (np.array(buffer) for buffer in buffers)
        if subjects.size:
            keep = first_occurrences(key_view(subjects, predicates, objects))
            if not bool(keep.all()):
                subjects, predicates, objects, flags = (
                    column[keep] for column in (subjects, predicates, objects, flags)
                )
        return cls.from_arrays(vocab, subjects, predicates, objects, flags=flags)

    @classmethod
    def from_graph(cls, triples: Iterable[Triple]) -> "ColumnarStore":
        """:meth:`from_rows` over ``Triple`` objects."""
        return cls.from_rows((t.subject, t.predicate, t.obj, t.is_entity_object) for t in triples)

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
        if offsets is not None and positions is not None and row_subjects is not None:
            store._offsets = np.asarray(offsets)
            store._positions = np.asarray(positions)
            store._row_subjects_arr = np.asarray(row_subjects)
        else:
            store._build_csr()
        return store

    def _build_csr(self) -> None:
        subjects = np.asarray(self._col_s, dtype=np.int64)
        if subjects.size == 0:
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

    def _ensure_subject_row(self) -> dict[int, int]:
        if self._subject_row is None:
            self._subject_row = {int(sid): row for row, sid in enumerate(self._row_subjects_arr)}
        return self._subject_row

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        return int(self._col_s.shape[0])

    @property
    def num_entities(self) -> int:
        return int(self._row_subjects_arr.shape[0])

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised membership of packed keys (:func:`key_view`) in the columns."""
        if self._sorted_keys is None:
            self._sorted_keys = np.sort(key_view(self._col_s, self._col_p, self._col_o))
        sorted_keys = self._sorted_keys
        if sorted_keys.size == 0:
            return np.zeros(keys.shape[0], dtype=bool)
        index = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        return sorted_keys[index] == keys

    def contains(self, triple: Triple) -> bool:
        get = self.vocab.get
        ids = (get(triple.subject), get(triple.predicate), get(triple.obj))
        if None in ids:
            return False
        return bool(self.contains_keys(key_view(*(np.asarray([i]) for i in ids)))[0])

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
        if position < 0 or position >= self.num_triples:
            raise IndexError(f"triple position {position} out of range")
        return self._materialise(position)

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        return [self._materialise(int(position)) for position in positions]

    def iter_triples(self) -> Iterator[Triple]:
        for position in range(self.num_triples):
            yield self._materialise(position)

    # ------------------------------------------------------------------ #
    # Cluster access — entity-id keyed
    # ------------------------------------------------------------------ #
    def entity_ids(self) -> Sequence[str]:
        vocab = self.vocab
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
        return int(self._offsets[row + 1] - self._offsets[row])

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed
    # ------------------------------------------------------------------ #
    def entity_id_of_row(self, row: int) -> str:
        return self.vocab[int(self._row_subjects_arr[row])]

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        return self._positions[int(self._offsets[row]) : int(self._offsets[row + 1])]

    def cluster_size_array(self) -> np.ndarray:
        return np.diff(self._offsets).astype(np.int64, copy=False)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._offsets, self._positions

    def row_subject_ids(self) -> np.ndarray:
        """Row -> subject vocab id array."""
        return self._row_subjects_arr

    def subject_row_map(self) -> dict[int, int]:
        """Subject vocab id -> row mapping (built lazily, cached)."""
        return self._ensure_subject_row()

    def id_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``(subjects, predicates, objects, flags)`` id columns."""
        return self._col_s, self._col_p, self._col_o, self._col_f

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The columns + index as a name -> array mapping."""
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
