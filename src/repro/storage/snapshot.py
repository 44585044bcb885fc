"""Persistent snapshots of columnar knowledge graphs.

A snapshot is a directory holding one ``.npy`` file per array: the interned
columns, the vocabulary and the CSR cluster index, so a big (synthetic or
ingested) KG is built once and reopened in milliseconds thereafter.  Loading
with ``mmap=True`` memory-maps every column (``np.load(..., mmap_mode="r")``),
so the resident footprint of a loaded graph is only the pages the sampler
actually touches.

Arrays (``format_version`` 3):

==================  ======================================================
``subjects``        ``int32 (M,)`` interned subject ids
``predicates``      ``int32 (M,)`` interned predicate ids
``objects``         ``int32 (M,)`` interned object ids
``entity_flags``    ``bool  (M,)`` object-is-entity flags
``vocab``           ``str_  (V,)`` id -> string table
``cluster_offsets``   ``int64 (N+1,)`` CSR offsets in row order
``cluster_positions`` ``int32 (M,)`` CSR triple positions
``row_subjects``    ``int32 (N,)`` row -> subject vocab id
``meta``            ``str_ (2,)`` graph name, format version
``labels``          ``bool (M,)`` position-aligned ground-truth labels
                    *(optional, v2)*
==================  ======================================================

Format v2 added the optional ``labels`` array, which is what
:meth:`repro.generators.datasets.LabelledKG.open` reopens as the label
oracle; v1 snapshots (no ``labels``) still load, and :meth:`SnapshotStore.
load_labels` returns ``None`` for them.  Format v3 adds no array: readers
accept v1-v3 and ignore any file they do not name, so the ``annotated.npy``
and ``evaluator_state.pkl`` that earlier releases could write next to the
columns are never read.  A monitoring session resumes from a ``repro serve``
checkpoint (``--state-dir``) instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.storage.columnar import ColumnarStore, Vocabulary

__all__ = ["SnapshotStore"]

_FORMAT_VERSION = 3
_ARRAY_NAMES = (
    "subjects",
    "predicates",
    "objects",
    "entity_flags",
    "vocab",
    "cluster_offsets",
    "cluster_positions",
    "row_subjects",
)


class SnapshotStore:
    """Save/load a :class:`~repro.storage.columnar.ColumnarStore` as a
    snapshot directory at ``path`` (created on save)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether a snapshot is already present at the target path."""
        return (self.path / "subjects.npy").is_file()

    def save(self, source, name: str | None = None, labels: np.ndarray | None = None) -> Path:
        """Persist ``source`` (a ``ColumnarStore`` or ``KnowledgeGraph``).

        Graphs on a non-columnar backend are converted on the fly.  Returns
        the path written.  ``labels`` is an optional position-aligned boolean
        array stored next to the columns (format v2).
        """
        store, graph_name = _as_store(source)
        arrays = dict(store.columns())
        if labels is not None:
            labels = np.asarray(labels, dtype=bool)
            num_triples = int(arrays["subjects"].shape[0])
            if labels.shape[0] != num_triples:
                raise ValueError(
                    f"labels must have one entry per triple ({labels.shape[0]} != {num_triples})"
                )
            arrays["labels"] = labels
        arrays["meta"] = np.asarray(
            [name if name is not None else graph_name, str(_FORMAT_VERSION)], dtype=np.str_
        )
        self.path.mkdir(parents=True, exist_ok=True)
        for array_name, array in arrays.items():
            np.save(self.path / f"{array_name}.npy", array)
        return self.path

    def load(self, mmap: bool = False) -> tuple[ColumnarStore, str]:
        """Reopen the snapshot; return ``(store, graph_name)``.

        ``mmap=True`` memory-maps the columns; the vocabulary stays a
        fixed-width unicode array on disk, so no per-string Python objects
        are created until strings are actually requested.  A file that does
        not hold a 1-D array, or columns whose lengths disagree, raise
        ``ValueError`` naming the array.
        """
        if not self.exists():
            raise FileNotFoundError(f"no snapshot directory at {self.path}")
        mode = "r" if mmap else None
        arrays = {}
        for array_name in _ARRAY_NAMES:
            array = np.load(self.path / f"{array_name}.npy", mmap_mode=mode)
            if not isinstance(array, np.ndarray) or array.ndim != 1:
                if hasattr(array, "close"):  # an np.savez archive under a .npy name
                    array.close()
                raise ValueError(f"{array_name}.npy does not hold a 1-D array")
            arrays[array_name] = array
        num_triples = arrays["subjects"].shape[0]
        expected = dict.fromkeys(
            ("predicates", "objects", "entity_flags", "cluster_positions"), num_triples
        )
        expected["cluster_offsets"] = arrays["row_subjects"].shape[0] + 1
        for array_name, length in expected.items():
            got = arrays[array_name].shape[0]
            if got != length:
                raise ValueError(f"{array_name}.npy has {got} entries, expected {length}")
        if arrays["cluster_offsets"][-1] != num_triples:
            raise ValueError(f"cluster_offsets.npy does not end at {num_triples}")
        meta = np.load(self.path / "meta.npy")
        version = int(str(meta[1]))
        if version > _FORMAT_VERSION:
            raise ValueError(
                f"snapshot format v{version} is newer than supported v{_FORMAT_VERSION}"
            )
        store = ColumnarStore.from_arrays(
            Vocabulary(arrays["vocab"]),
            arrays["subjects"],
            arrays["predicates"],
            arrays["objects"],
            flags=arrays["entity_flags"],
            offsets=arrays["cluster_offsets"],
            positions=arrays["cluster_positions"],
            row_subjects=arrays["row_subjects"],
        )
        return store, str(meta[0])

    def load_labels(self, mmap: bool = False) -> np.ndarray | None:
        """The persisted position-aligned label array, or ``None`` (v1)."""
        if not self.exists():
            raise FileNotFoundError(f"no snapshot directory at {self.path}")
        target = self.path / "labels.npy"
        if not target.is_file():
            return None
        return np.load(target, mmap_mode="r" if mmap else None)

    def load_graph(self, mmap: bool = False, name: str | None = None):
        """Reopen the snapshot as a :class:`~repro.kg.graph.KnowledgeGraph`."""
        from repro.kg.graph import KnowledgeGraph

        store, graph_name = self.load(mmap=mmap)
        return KnowledgeGraph(name=name if name is not None else graph_name, backend=store)


def _as_store(source) -> tuple[ColumnarStore, str]:
    if isinstance(source, ColumnarStore):
        return source, "kg"
    backend = getattr(source, "backend", None)
    if isinstance(backend, ColumnarStore):
        return backend, source.name
    name = getattr(source, "name", "kg")
    return ColumnarStore.from_graph(iter(source)), name
