"""Append-only delta view over a columnar store: the one way a graph grows.

A :class:`~repro.storage.columnar.ColumnarStore` is written once and never
changes.  A graph that grows — the paper's ``G + Δ_1 + … + Δ_k`` (Sections
2.1 and 6) — does so in a :class:`DeltaStore` laid over those columns: the
first ``KnowledgeGraph.add``/``add_batch`` on a columnar graph lays one, and
every evolving graph is one.

* the base columns, CSR index and vocabulary are shared zero-copy, so any
  number of views may share one base; new strings are interned into the
  shared vocabulary, which is append-only and keeps existing ids valid;
* inserted triples receive positions ``M_base, M_base + 1, …`` in a compact
  tail (``array`` buffers);
* entity rows follow the standard backend contract: an insertion for an
  existing subject extends that subject's base row, a new subject gets the
  next row, so positions/rows match what a
  :class:`~repro.storage.columnar.ColumnarStore` built from the same triples
  would report — the evolving evaluators rely on this for cross-backend
  estimate parity;
* :meth:`DeltaStore.add_batch` is the one append path, and its dedup is
  vectorised: batch keys are checked against the base's sorted key view
  (:meth:`~repro.storage.columnar.ColumnarStore.contains_keys`) with one
  ``searchsorted`` instead of a Python key-set over all M base triples.

The merged graph-wide CSR index is only materialised if somebody asks for it
(:meth:`csr_arrays`); the evolving evaluators never do — they sample the
base index and the per-batch segments directly.  The tail is never folded
back into the base, so a serve checkpoint captures an update stream as the
tail alone (:meth:`tail_arrays`, replayed by :meth:`restore_tail`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend
from repro.storage.columnar import ColumnarStore, first_occurrences, key_view

__all__ = ["DeltaStore"]


class DeltaStore(StorageBackend):
    """A :class:`ColumnarStore` plus append-only tail segments."""

    def __init__(self, base: ColumnarStore) -> None:
        self.base = base
        self._base_triples = base.num_triples
        self._base_entities = base.num_entities
        # Ids larger than every id used by the base columns cannot occur in
        # the base, so a triple carrying one skips the base membership check
        # (and typically the whole sorted-key build) entirely.  Derived from
        # the columns, not the vocabulary, because the shared vocabulary may
        # carry ids interned by other users of the base store.
        if self._base_triples:
            subjects, predicates, objects, _ = base.id_columns()
            self._base_id_limit = 1 + max(
                int(np.max(subjects)), int(np.max(predicates)), int(np.max(objects))
            )
        else:
            self._base_id_limit = 0
        # Tail columns (positions >= _base_triples), interned into base.vocab.
        self._tail_s: array = array("i")
        self._tail_p: array = array("i")
        self._tail_o: array = array("i")
        self._tail_f: array = array("B")
        # Tail cluster bookkeeping: subject vocab id -> global tail positions.
        self._tail_positions: dict[int, list[int]] = {}
        self._new_subjects: list[int] = []
        self._new_row_of: dict[int, int] = {}
        # Dedup keys of the (small) tail; the base answers for its own.
        self._tail_keys: set[tuple[int, int, int]] = set()
        # Caches invalidated by appends.
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Insert one triple: :meth:`add_batch` of one."""
        return self.add_batch((triple,))[0]

    def add_batch(self, triples: Iterable[Triple]) -> list[bool]:
        """Insert many triples; return one added-flag per input triple.

        One vectorised membership pass for the whole batch: repeats of a
        stored triple, and of an earlier triple of the same batch, are
        skipped.
        """
        batch = list(triples)
        if not batch:
            return []
        vocab = self.base.vocab
        pre_batch_vocab = len(vocab)
        subject_ids = vocab.intern_many(t.subject for t in batch)
        predicate_ids = vocab.intern_many(t.predicate for t in batch)
        object_ids = vocab.intern_many(t.obj for t in batch)
        subject_arr = np.asarray(subject_ids, dtype=np.int64)
        predicate_arr = np.asarray(predicate_ids, dtype=np.int64)
        object_arr = np.asarray(object_ids, dtype=np.int64)
        keys = key_view(subject_arr, predicate_arr, object_arr)
        # Base membership needs all three ids below the base columns' id
        # ceiling; tail membership needs them interned before this batch.
        # Typical insertion workloads carry fresh object strings and skip
        # both checks (and the sorted-key build) entirely.
        keep = np.ones(keys.shape[0], dtype=bool)
        limit = self._base_id_limit
        maybe_base = (subject_arr < limit) & (predicate_arr < limit) & (object_arr < limit)
        base_indices = np.flatnonzero(maybe_base)
        if base_indices.size:
            keep[base_indices] = ~self.base.contains_keys(keys[base_indices])
        if self._tail_keys:
            maybe_tail = (
                keep
                & (subject_arr < pre_batch_vocab)
                & (predicate_arr < pre_batch_vocab)
                & (object_arr < pre_batch_vocab)
            )
            tail_keys = self._tail_keys
            for i in np.flatnonzero(maybe_tail).tolist():
                if (subject_ids[i], predicate_ids[i], object_ids[i]) in tail_keys:
                    keep[i] = False
        keep &= first_occurrences(keys)
        kept = np.flatnonzero(keep).tolist()
        # Ids from the interned lists, not the arrays: the tail keys then
        # share the vocabulary's int objects instead of holding three new
        # ones per triple.
        self._append_ids(
            [subject_ids[i] for i in kept],
            [predicate_ids[i] for i in kept],
            [object_ids[i] for i in kept],
            [batch[i].is_entity_object for i in kept],
        )
        return keep.tolist()

    def _append_ids(
        self,
        subjects: list[int],
        predicates: list[int],
        objects: list[int],
        flags: list[bool],
    ) -> None:
        """Append interned, deduplicated triples at the next tail positions.

        The step after dedup, shared by :meth:`add_batch` and
        :meth:`restore_tail`: it records the dedup keys, groups the new
        positions by subject and gives new subjects their rows.
        """
        count = len(subjects)
        if not count:
            return
        start = self.num_triples
        self._tail_keys.update(zip(subjects, predicates, objects))
        self._tail_s.extend(subjects)
        self._tail_p.extend(predicates)
        self._tail_o.extend(objects)
        self._tail_f.extend(flags)
        # Group the appended positions by subject: one pass over the unique
        # subjects of the batch instead of one dict round-trip per triple.
        positions = start + np.arange(count, dtype=np.int64)
        subject_arr = np.asarray(subjects, dtype=np.int64)
        order = np.argsort(subject_arr, kind="stable")
        sorted_subjects = subject_arr[order]
        sorted_position_list = positions[order].tolist()
        boundaries = np.flatnonzero(np.diff(sorted_subjects)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [count]))
        tail_positions = self._tail_positions
        for subject_id, lo, hi in zip(
            sorted_subjects[starts].tolist(), starts.tolist(), ends.tolist()
        ):
            chunk = sorted_position_list[lo:hi]
            existing = tail_positions.get(subject_id)
            if existing is None:
                tail_positions[subject_id] = chunk
            else:
                existing.extend(chunk)
        # New subjects take rows in first-seen order, as a fresh build gives
        # them; vocab-id order differs for a subject string that was
        # interned earlier (e.g. as an object).
        base_rows = self.base.subject_row_map()
        new_row_of = self._new_row_of
        new_subjects = self._new_subjects
        for subject_id in dict.fromkeys(subjects):
            if subject_id not in base_rows and subject_id not in new_row_of:
                new_row_of[subject_id] = self._base_entities + len(new_subjects)
                new_subjects.append(subject_id)
        self._csr = None
        self._sizes = None

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
        get = self.base.vocab.get
        ids = (get(triple.subject), get(triple.predicate), get(triple.obj))
        return ids in self._tail_keys or self.base.contains(triple)

    # ------------------------------------------------------------------ #
    # Positional triple access
    # ------------------------------------------------------------------ #
    def _materialise_tail(self, offset: int) -> Triple:
        vocab = self.base.vocab
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
        vocab = self.base.vocab
        return tuple(self.base.entity_ids()) + tuple(vocab[sid] for sid in self._new_subjects)

    def has_entity(self, entity_id: str) -> bool:
        subject_id = self.base.vocab.get(entity_id)
        if subject_id is None:
            return False
        return subject_id in self.base.subject_row_map() or subject_id in self._new_row_of

    def _subject_id_of(self, entity_id: str) -> int:
        subject_id = self.base.vocab.get(entity_id)
        if subject_id is None:
            raise KeyError(entity_id)
        return subject_id

    def cluster_positions(self, entity_id: str) -> np.ndarray:
        subject_id = self._subject_id_of(entity_id)
        base_row = self.base.subject_row_map().get(subject_id)
        tail = self._tail_positions.get(subject_id)
        if base_row is not None:
            base_positions = self.base.cluster_positions_by_row(base_row)
            if tail is None:
                return base_positions
            return np.concatenate(
                [np.asarray(base_positions, dtype=np.int64), np.asarray(tail, dtype=np.int64)]
            )
        if tail is None:
            raise KeyError(entity_id)
        return np.asarray(tail, dtype=np.int64)

    def cluster_size(self, entity_id: str) -> int:
        subject_id = self._subject_id_of(entity_id)
        base_row = self.base.subject_row_map().get(subject_id)
        tail = self._tail_positions.get(subject_id)
        if base_row is None and tail is None:
            raise KeyError(entity_id)
        size = len(tail) if tail is not None else 0
        if base_row is not None:
            size += self.base.cluster_size(entity_id)
        return size

    # ------------------------------------------------------------------ #
    # Cluster access — row keyed
    # ------------------------------------------------------------------ #
    def entity_row(self, entity_id: str) -> int:
        subject_id = self._subject_id_of(entity_id)
        base_row = self.base.subject_row_map().get(subject_id)
        if base_row is not None:
            return base_row
        return self._new_row_of[subject_id]

    def entity_id_of_row(self, row: int) -> str:
        if row < self._base_entities:
            return self.base.entity_id_of_row(row)
        return self.base.vocab[self._new_subjects[row - self._base_entities]]

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        return self.cluster_positions(self.entity_id_of_row(row))

    def cluster_size_array(self) -> np.ndarray:
        if self._sizes is None:
            sizes = np.concatenate(
                [
                    self.base.cluster_size_array(),
                    np.zeros(len(self._new_subjects), dtype=np.int64),
                ]
            )
            subject_rows = self.base.subject_row_map()
            for subject_id, tail in self._tail_positions.items():
                base_row = subject_rows.get(subject_id)
                row = base_row if base_row is not None else self._new_row_of[subject_id]
                sizes[row] += len(tail)
            self._sizes = sizes
        return self._sizes

    # ------------------------------------------------------------------ #
    # Tail capture and replay (serve checkpoints)
    # ------------------------------------------------------------------ #
    def tail_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tail's ``(subjects, predicates, objects, flags)`` id columns."""
        return (
            np.frombuffer(self._tail_s, dtype=np.int32).copy()
            if self._tail_s
            else np.empty(0, np.int32),
            np.frombuffer(self._tail_p, dtype=np.int32).copy()
            if self._tail_p
            else np.empty(0, np.int32),
            np.frombuffer(self._tail_o, dtype=np.int32).copy()
            if self._tail_o
            else np.empty(0, np.int32),
            np.frombuffer(self._tail_f, dtype=np.uint8).astype(bool)
            if self._tail_f
            else np.empty(0, bool),
        )

    def restore_tail(
        self,
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        """Re-append a previously captured tail (already interned and deduped).

        Rebuilds the per-subject tail index and dedup keys exactly as the
        original appends did, through the same post-dedup step; used when an
        evaluator is restored from a serve checkpoint
        (:func:`repro.evolving.state.restore_evaluator`).
        """
        if self.num_tail_triples:
            raise ValueError("restore_tail requires an empty tail")
        self._append_ids(subjects.tolist(), predicates.tolist(), objects.tolist(), flags.tolist())

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Merged base + tail CSR index, materialised lazily and cached.

        Costs one O(M) pass after the latest append; the evolving evaluators
        avoid it by sampling the frozen base index and their own per-batch
        segments, but whole-graph samplers (e.g. a static TWCS run over the
        evolved graph) still get the vectorised path.
        """
        if self._csr is None:
            base_offsets, base_positions = self.base.csr_arrays()
            rows_by_position = np.empty(self.num_triples, dtype=np.int64)
            base_rows = np.repeat(
                np.arange(self._base_entities, dtype=np.int64), np.diff(base_offsets)
            )
            rows_by_position[np.asarray(base_positions, dtype=np.int64)] = base_rows
            subject_rows = self.base.subject_row_map()
            for subject_id, tail in self._tail_positions.items():
                base_row = subject_rows.get(subject_id)
                row = base_row if base_row is not None else self._new_row_of[subject_id]
                rows_by_position[tail] = row
            sizes = self.cluster_size_array()
            offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
            positions = np.argsort(rows_by_position, kind="stable").astype(np.int64)
            self._csr = (offsets, positions)
        return self._csr
