"""Append-only delta view over a columnar store: the one way a graph grows.

A :class:`~repro.storage.columnar.ColumnarStore` is written once and never
changes.  A graph that grows — the paper's ``G + Δ_1 + … + Δ_k`` (Sections
2.1 and 6) — does so in a :class:`DeltaStore` laid over those columns: the
first ``KnowledgeGraph.add``/``add_batch`` on a columnar graph lays one, and
every evolving graph is one.

* the base columns, CSR index and vocabulary are shared zero-copy, so any
  number of views may share one base; a string the base's vocabulary lacks
  is interned into the view's own :class:`ViewVocabulary`, with ids from
  ``len(base.vocab)`` up, so the shared vocabulary never grows and a view's
  strings go with the view;
* inserted triples receive positions ``M_base, M_base + 1, …`` in a compact
  tail (``array`` buffers), each with the entity row of its subject;
* entity rows follow the standard backend contract: an insertion for an
  existing subject extends that subject's base row, a new subject gets the
  next row, so positions/rows match what a
  :class:`~repro.storage.columnar.ColumnarStore` built from the same triples
  would report — the evolving evaluators rely on this for cross-backend
  estimate parity;
* :meth:`DeltaStore.add_batch` is the one append path.  It takes a batch as
  string columns, interns each column once and dedups with array operations:
  batch keys are checked against the base's sorted key view
  (:meth:`~repro.storage.columnar.ColumnarStore.contains_keys`), the tail's
  (built when a batch first repeats strings the view already holds, then
  merged into by every append) and each other, and no Python code runs per
  triple.

The merged graph-wide CSR index is only materialised if somebody asks for it
(:meth:`csr_arrays`); the evolving evaluators never do — they sample the
base index and the per-batch segments directly.  The tail is never folded
back into the base, so a serve checkpoint captures an update stream as the
tail alone (:meth:`tail_arrays`, replayed by :meth:`restore_tail`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from itertools import repeat

import numpy as np

from repro.kg.graph import csr_position_rows
from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend
from repro.storage.columnar import (
    ColumnarStore,
    Vocabulary,
    first_key_occurrences,
    key_view,
    sorted_contains,
)

__all__ = ["DeltaStore", "ViewVocabulary"]


class ViewVocabulary:
    """A base :class:`~repro.storage.columnar.Vocabulary` plus the strings one view adds.

    Ids below ``len(base)`` are the base's; a string the base lacks gets the
    next id from ``len(base)`` up in the view's own table, so the base's
    vocabulary, shared by every view over it, is only read.
    """

    __slots__ = ("base", "offset", "_added", "_index")

    def __init__(self, base: Vocabulary) -> None:
        self.base = base
        self.offset = len(base)
        # The view's strings in id order, and string -> id (ids from offset).
        self._added: list[str] = []
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return self.offset + len(self._added)

    def __getitem__(self, token_id: int) -> str:
        if token_id < self.offset:
            return self.base[token_id]
        return self._added[token_id - self.offset]

    def get(self, token: str) -> int | None:
        """Return the id of ``token`` or ``None`` if neither table holds it."""
        token_id = self.base.get(token)
        return self._index.get(token) if token_id is None else token_id

    def intern_many(self, tokens: Sequence[str]) -> np.ndarray:
        """The ``int64`` id of every token, interning the ones neither table holds.

        One C-level lookup pass over the base's table, and one
        ``setdefault`` pass over the view's for the tokens the base lacks;
        new strings get the next ids in the order they first appear.
        """
        ids = np.array(self.base.ids_of(tokens), dtype=np.int64)
        missing = np.flatnonzero(ids < 0)
        if missing.size:
            others = np.asarray(tokens, dtype=object)[missing]
            # Offer every token the id its position would give it; a token
            # the view already holds (or an earlier copy in this batch got)
            # keeps its id, so the offers taken mark the new strings.
            first_id = len(self)
            offered = np.arange(first_id, first_id + others.size)
            got = np.array(
                list(map(self._index.setdefault, others.tolist(), offered.tolist())),
                dtype=np.int64,
            )
            new = np.flatnonzero(got == offered)
            if new.size < others.size and new.size:
                # Close the gaps the repeats left: consecutive ids instead.
                dense = np.full(others.size, -1, dtype=np.int64)
                dense[new] = first_id + np.arange(new.size)
                self._index.update(zip(others[new].tolist(), dense[new].tolist()))
                taken = got >= first_id
                got[taken] = dense[got[taken] - first_id]
            self._added += others[new].tolist()
            ids[missing] = got
        return ids


class DeltaStore(StorageBackend):
    """A :class:`ColumnarStore` plus append-only tail segments."""

    def __init__(self, base: ColumnarStore) -> None:
        self.base = base
        self.vocab = ViewVocabulary(base.vocab)
        self._base_triples = base.num_triples
        self._base_entities = base.num_entities
        # Ids larger than every id used by the base columns cannot occur in
        # the base, so a triple carrying one skips the base membership check
        # (and typically the whole sorted-key build) entirely.  Derived from
        # the columns, not the vocabulary, which may name strings no base
        # triple uses.
        if self._base_triples:
            subjects, predicates, objects, _ = base.id_columns()
            self._base_id_limit = 1 + max(
                int(np.max(subjects)), int(np.max(predicates)), int(np.max(objects))
            )
        else:
            self._base_id_limit = 0
        # Tail columns (positions >= _base_triples): view ids, the entity-object
        # flag and the entity row of each triple's subject.  Read them through
        # copies: a live NumPy view of an ``array`` would block its growth.
        self._tail_s: array = array("i")
        self._tail_p: array = array("i")
        self._tail_o: array = array("i")
        self._tail_f: array = array("B")
        self._tail_rows: array = array("i")
        # Subjects the base has no row for: subject id of each new row, and
        # the reverse map.
        self._new_subjects: array = array("i")
        self._new_row_of: dict[int, int] = {}
        # The tail's packed keys as two sorted runs, a long one and the
        # recent appends: built when a batch may first repeat a tail triple,
        # then kept current by every append (:meth:`_index_tail`).
        self._tail_keys: tuple[np.ndarray, np.ndarray] | None = None
        # Caches invalidated by appends: sizes and merged CSR.
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Insert one triple: :meth:`add_batch` of one."""
        added = self.add_batch(
            [triple.subject], [triple.predicate], [triple.obj], bytes([triple.is_entity_object])
        )
        return bool(added[0])

    def add_batch(
        self,
        subjects: Sequence[str],
        predicates: Sequence[str],
        objects: Sequence[str],
        entity_objects: bytes,
    ) -> np.ndarray:
        """Insert a batch given as columns; return its boolean added-mask.

        ``subjects``, ``predicates`` and ``objects`` hold one string per
        triple and ``entity_objects`` one 0/1 byte.  A repeat of a stored
        triple, or of an earlier triple of the same batch, is skipped; the
        rest land at the next tail positions in batch order.
        """
        count = len(subjects)
        if not count:
            return np.zeros(0, dtype=bool)
        vocab = self.vocab
        pre_batch_vocab = len(vocab)
        subject_ids = vocab.intern_many(subjects)
        predicate_ids = vocab.intern_many(predicates)
        object_ids = vocab.intern_many(objects)
        keep = first_key_occurrences(subject_ids, predicate_ids, object_ids)
        # Base membership needs all three ids below the base columns' id
        # ceiling; tail membership needs them interned before this batch.
        # A triple with a string new to the view skips both checks, so a
        # batch of fresh facts builds no sorted keys.
        for limit, contains_keys in (
            (self._base_id_limit, self.base.contains_keys),
            (pre_batch_vocab if self._tail_s else 0, self._tail_contains),
        ):
            candidates = np.flatnonzero(
                keep & (subject_ids < limit) & (predicate_ids < limit) & (object_ids < limit)
            )
            if candidates.size:
                keys = key_view(
                    subject_ids[candidates], predicate_ids[candidates], object_ids[candidates]
                )
                keep[candidates] = ~contains_keys(keys)
        flags = np.frombuffer(entity_objects, dtype=np.uint8)
        self._append(subject_ids[keep], predicate_ids[keep], object_ids[keep], flags[keep])
        return keep

    def _tail_contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised membership of packed keys in the tail.

        The tail's sorted keys are built by the first batch that repeats
        strings the view already holds, and kept from then on: every later
        append merges its own keys in (:meth:`_append`), so no write sorts
        the whole tail again.
        """
        if self._tail_keys is None:
            subjects, predicates, objects, _ = self.tail_arrays()
            built = np.sort(key_view(subjects, predicates, objects))
            self._tail_keys = (built, built[:0])
        settled, recent = self._tail_keys
        return sorted_contains(settled, keys) | sorted_contains(recent, keys)

    def _append(
        self,
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        """Append interned, deduplicated triples at the next tail positions.

        The step after dedup, shared by :meth:`add_batch` and
        :meth:`restore_tail`: it gives each triple its subject's row.
        """
        if not subjects.shape[0]:
            return
        rows = self._rows_of(subjects)
        for buffer, column in (
            (self._tail_s, subjects),
            (self._tail_p, predicates),
            (self._tail_o, objects),
            (self._tail_rows, rows),
        ):
            buffer.frombytes(column.astype(np.int32).tobytes())
        self._tail_f.frombytes(flags.astype(np.uint8).tobytes())
        if self._tail_keys is not None:
            self._index_tail(np.sort(key_view(subjects, predicates, objects)))
        self._csr = None
        self._sizes = None

    def _index_tail(self, added: np.ndarray) -> None:
        """Merge an append's sorted keys into the tail's sorted key runs.

        They go into the recent run, which goes into the long one once it
        holds more than ``sqrt(long × appended)`` keys, so an append copies
        about that many keys and none re-sorts the tail.
        """
        settled, recent = self._tail_keys
        recent = np.insert(recent, np.searchsorted(recent, added), added)
        if recent.size * recent.size > settled.size * added.size:
            settled = np.insert(settled, np.searchsorted(settled, recent), recent)
            recent = recent[:0]
        self._tail_keys = (settled, recent)

    def _rows_of(self, subjects: np.ndarray) -> np.ndarray:
        """The entity row of each subject id; subjects without one get the
        next rows in first-seen order, as a fresh build gives them (vocab-id
        order differs for a subject string interned earlier, e.g. as an
        object)."""
        unique, first, inverse = np.unique(subjects, return_index=True, return_inverse=True)
        keys = unique.tolist()
        rows = np.array(
            list(map(self.base.subject_row_map().get, keys, repeat(-1))), dtype=np.int64
        )
        pending = np.flatnonzero(rows < 0)
        if pending.size:
            new_row_of = self._new_row_of
            known = np.array(
                list(map(new_row_of.get, unique[pending].tolist(), repeat(-1))), dtype=np.int64
            )
            rows[pending] = known
            fresh = pending[known < 0]
            if fresh.size:
                fresh = fresh[np.argsort(first[fresh])]
                rows[fresh] = self.num_entities + np.arange(fresh.size)
                fresh_ids = unique[fresh]
                new_row_of.update(zip(fresh_ids.tolist(), rows[fresh].tolist()))
                self._new_subjects.frombytes(fresh_ids.astype(np.int32).tobytes())
        return rows[inverse]

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        return self._base_triples + len(self._tail_s)

    @property
    def num_entities(self) -> int:
        return self._base_entities + len(self._new_subjects)

    @property
    def num_tail_triples(self) -> int:
        """Triples appended on top of the frozen base."""
        return len(self._tail_s)

    def contains(self, triple: Triple) -> bool:
        get = self.vocab.get
        ids = (get(triple.subject), get(triple.predicate), get(triple.obj))
        if None in ids:
            return False
        if self.base.contains(triple):
            return True
        if not self._tail_s:
            return False
        return bool(self._tail_contains(key_view(*(np.asarray([i]) for i in ids)))[0])

    # ------------------------------------------------------------------ #
    # Positional triple access
    # ------------------------------------------------------------------ #
    def _materialise_tail(self, offset: int) -> Triple:
        vocab = self.vocab
        return Triple(
            vocab[self._tail_s[offset]],
            vocab[self._tail_p[offset]],
            vocab[self._tail_o[offset]],
            is_entity_object=bool(self._tail_f[offset]),
        )

    def triple_at(self, position: int) -> Triple:
        if position < 0 or position >= self.num_triples:
            raise IndexError(f"triple position {position} out of range")
        if position < self._base_triples:
            return self.base.triple_at(position)
        return self._materialise_tail(position - self._base_triples)

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        return [self.triple_at(int(position)) for position in positions]

    def iter_triples(self) -> Iterator[Triple]:
        yield from self.base.iter_triples()
        for offset in range(len(self._tail_s)):
            yield self._materialise_tail(offset)

    # ------------------------------------------------------------------ #
    # Cluster access — entity-id keyed
    # ------------------------------------------------------------------ #
    def entity_ids(self) -> Sequence[str]:
        vocab = self.vocab
        return tuple(self.base.entity_ids()) + tuple(vocab[sid] for sid in self._new_subjects)

    def has_entity(self, entity_id: str) -> bool:
        subject_id = self.vocab.get(entity_id)
        if subject_id is None:
            return False
        return subject_id in self.base.subject_row_map() or subject_id in self._new_row_of

    def cluster_positions(self, entity_id: str) -> np.ndarray:
        return self.cluster_positions_by_row(self.entity_row(entity_id))

    def cluster_size(self, entity_id: str) -> int:
        return int(self.cluster_size_array()[self.entity_row(entity_id)])

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed
    # ------------------------------------------------------------------ #
    def entity_row(self, entity_id: str) -> int:
        subject_id = self.vocab.get(entity_id)
        if subject_id is None:
            raise KeyError(entity_id)
        base_row = self.base.subject_row_map().get(subject_id)
        if base_row is not None:
            return base_row
        try:
            return self._new_row_of[subject_id]
        except KeyError:
            raise KeyError(entity_id) from None

    def entity_id_of_row(self, row: int) -> str:
        if row < self._base_entities:
            return self.base.entity_id_of_row(row)
        return self.vocab[self._new_subjects[row - self._base_entities]]

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        offsets, positions = self.csr_arrays()
        return positions[int(offsets[row]) : int(offsets[row + 1])]

    def cluster_size_array(self) -> np.ndarray:
        if self._sizes is None:
            sizes = np.zeros(self.num_entities, dtype=np.int64)
            sizes[: self._base_entities] = self.base.cluster_size_array()
            sizes += np.bincount(self.appended_rows(self._base_triples), minlength=sizes.size)
            self._sizes = sizes
        return self._sizes

    def appended_rows(self, first_position: int) -> np.ndarray:
        """Entity row of each tail triple from position ``first_position`` on."""
        rows = np.frombuffer(self._tail_rows, dtype=np.int32)
        return rows[first_position - self._base_triples :].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Tail capture and replay (serve checkpoints)
    # ------------------------------------------------------------------ #
    def tail_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tail's ``(subjects, predicates, objects, flags)`` id columns."""
        return (
            np.frombuffer(self._tail_s, dtype=np.int32).copy(),
            np.frombuffer(self._tail_p, dtype=np.int32).copy(),
            np.frombuffer(self._tail_o, dtype=np.int32).copy(),
            np.frombuffer(self._tail_f, dtype=np.uint8).astype(bool),
        )

    def restore_tail(
        self,
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        """Re-append a previously captured tail (already interned and deduped).

        Gives every triple the row the original appends gave it, through the
        same post-dedup step; used when an evaluator is restored from a serve
        checkpoint (:func:`repro.evolving.state.restore_evaluator`).
        """
        if self.num_tail_triples:
            raise ValueError("restore_tail requires an empty tail")
        self._append(
            np.asarray(subjects, dtype=np.int64),
            np.asarray(predicates, dtype=np.int64),
            np.asarray(objects, dtype=np.int64),
            np.asarray(flags, dtype=bool),
        )

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Merged base + tail CSR index, materialised lazily and cached.

        Costs one O(M) pass after the latest append; the evolving evaluators
        avoid it by sampling the frozen base index and their own per-batch
        segments, but whole-graph samplers (e.g. a static TWCS run over the
        evolved graph) still get the vectorised path.
        """
        if self._csr is None:
            rows_by_position = np.concatenate(
                [
                    csr_position_rows(*self.base.csr_arrays()),
                    self.appended_rows(self._base_triples),
                ]
            )
            sizes = self.cluster_size_array()
            offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
            positions = np.argsort(rows_by_position, kind="stable").astype(np.int64)
            self._csr = (offsets, positions)
        return self._csr
