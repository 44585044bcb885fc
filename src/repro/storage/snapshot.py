"""Persistent snapshots of columnar knowledge graphs.

A snapshot stores the interned columns, the vocabulary and the CSR cluster
index, so a big (synthetic or ingested) KG is built once and reopened in
milliseconds thereafter.  Two on-disk layouts are supported, chosen by the
target path:

* ``*.npz`` — a single NumPy archive (``np.savez`` /
  ``np.savez_compressed``).  Compact and portable; arrays are read into
  memory on load.
* any other path — a *snapshot directory* holding one ``.npy`` file per
  column.  Loading with ``mmap=True`` memory-maps every column
  (``np.load(..., mmap_mode="r")``), so the resident footprint of a loaded
  graph is only the pages the sampler actually touches.

Array names (both layouts, ``format_version`` 3):

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
``annotated``       ``bool (M,)`` positions annotated so far *(optional,
                    v2)*
==================  ======================================================

Format v2 adds the two optional boolean arrays, so an evaluation or
monitoring run can persist its label oracle (and annotation progress) next to
the graph and resume later without re-annotating.  Format v1 snapshots (no
``labels`` / ``annotated`` arrays) still load; :meth:`SnapshotStore.
load_labels` simply returns ``None`` for them.

Format v3 adds an optional *evaluator-state sidecar* (``evaluator_state.pkl``
inside a snapshot directory, ``<path>.state.pkl`` next to an archive): the
full mid-sequence state of an incremental evaluator — reservoir keys and
candidate heaps or per-stratum accumulators, the annotation account, random
streams and the delta tail — captured by :mod:`repro.evolving.state`, so a
monitoring run resumes after any update batch with a bit-identical
trajectory.  v1/v2 snapshots still load; the sidecar is simply absent.
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
#: Optional v2 arrays; absent from v1 snapshots and legal to omit in v2.
_OPTIONAL_ARRAY_NAMES = ("labels", "annotated")


class SnapshotStore:
    """Save/load a :class:`~repro.storage.columnar.ColumnarStore` on disk.

    Parameters
    ----------
    path:
        Target location.  A ``.npz`` suffix selects the single-file archive
        layout; anything else is treated as a snapshot directory (created on
        save) whose columns can be memory-mapped on load.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @property
    def is_archive(self) -> bool:
        """Whether this snapshot uses the single-file ``.npz`` layout."""
        return self.path.suffix == ".npz"

    def exists(self) -> bool:
        """Whether a snapshot is already present at the target path."""
        if self.is_archive:
            return self.path.is_file()
        return (self.path / "subjects.npy").is_file()

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #
    def save(
        self,
        source,
        name: str | None = None,
        compress: bool = False,
        labels: np.ndarray | None = None,
        annotated: np.ndarray | None = None,
    ) -> Path:
        """Persist ``source`` (a ``ColumnarStore`` or ``KnowledgeGraph``).

        Graphs on a non-columnar backend are converted on the fly.  Returns
        the path written.  ``compress`` only applies to the ``.npz`` layout.
        ``labels`` / ``annotated`` are optional position-aligned boolean
        arrays stored next to the columns (format v2).
        """
        store, graph_name = _as_store(source)
        arrays = dict(store.columns())
        num_triples = int(arrays["subjects"].shape[0])
        for array_name, optional in zip(_OPTIONAL_ARRAY_NAMES, (labels, annotated)):
            if optional is None:
                continue
            optional = np.asarray(optional, dtype=bool)
            if optional.shape[0] != num_triples:
                raise ValueError(
                    f"{array_name} must have one entry per triple "
                    f"({optional.shape[0]} != {num_triples})"
                )
            arrays[array_name] = optional
        arrays["meta"] = np.asarray(
            [name if name is not None else graph_name, str(_FORMAT_VERSION)], dtype=np.str_
        )
        if self.is_archive:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            writer = np.savez_compressed if compress else np.savez
            writer(self.path, **arrays)
        else:
            self.path.mkdir(parents=True, exist_ok=True)
            for array_name, array in arrays.items():
                np.save(self.path / f"{array_name}.npy", array)
        return self.path

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #
    def load(self, mmap: bool = False) -> tuple[ColumnarStore, str]:
        """Reopen the snapshot; return ``(store, graph_name)``.

        ``mmap=True`` memory-maps the columns and is only available for the
        directory layout; the vocabulary stays a fixed-width unicode array on
        disk, so no per-string Python objects are created until strings are
        actually requested.
        """
        if not self.exists():
            raise FileNotFoundError(f"no snapshot at {self.path}")
        if self.is_archive:
            if mmap:
                raise ValueError(
                    ".npz archives cannot be memory-mapped; save the snapshot "
                    "to a directory path (no .npz suffix) to use mmap=True"
                )
            with np.load(self.path, allow_pickle=False) as archive:
                arrays = {array_name: archive[array_name] for array_name in _ARRAY_NAMES}
                meta = archive["meta"]
        else:
            mode = "r" if mmap else None
            arrays = {
                array_name: np.load(self.path / f"{array_name}.npy", mmap_mode=mode)
                for array_name in _ARRAY_NAMES
            }
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

    def _load_optional(self, array_name: str, mmap: bool = False) -> np.ndarray | None:
        if not self.exists():
            raise FileNotFoundError(f"no snapshot at {self.path}")
        if self.is_archive:
            with np.load(self.path, allow_pickle=False) as archive:
                if array_name not in archive.files:
                    return None
                return archive[array_name]
        target = self.path / f"{array_name}.npy"
        if not target.is_file():
            return None
        return np.load(target, mmap_mode="r" if mmap else None)

    def load_labels(self, mmap: bool = False) -> np.ndarray | None:
        """The persisted position-aligned label array, or ``None`` (v1)."""
        return self._load_optional("labels", mmap=mmap)

    def load_annotated(self, mmap: bool = False) -> np.ndarray | None:
        """The persisted annotated-positions mask, or ``None`` (v1)."""
        return self._load_optional("annotated", mmap=mmap)

    def load_graph(self, mmap: bool = False, name: str | None = None):
        """Reopen the snapshot as a :class:`~repro.kg.graph.KnowledgeGraph`."""
        from repro.kg.graph import KnowledgeGraph

        store, graph_name = self.load(mmap=mmap)
        return KnowledgeGraph(name=name if name is not None else graph_name, backend=store)

    # ------------------------------------------------------------------ #
    # Evaluator-state sidecar (format v3)
    # ------------------------------------------------------------------ #
    @property
    def evaluator_state_path(self) -> Path:
        """Where the v3 evaluator-state sidecar lives for this snapshot."""
        if self.is_archive:
            return self.path.with_suffix(".state.pkl")
        return self.path / "evaluator_state.pkl"

    def has_evaluator_state(self) -> bool:
        """Whether an evaluator-state sidecar has been saved."""
        return self.evaluator_state_path.is_file()

    def save_evaluator_state(self, evaluator) -> Path:
        """Persist an incremental evaluator's mid-sequence state (format v3).

        Capture at a batch boundary; see :mod:`repro.evolving.state` for the
        supported evaluators and the state contents.
        """
        import pickle

        from repro.evolving.state import capture_evaluator_state

        state = capture_evaluator_state(evaluator)
        target = self.evaluator_state_path
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return target

    def load_evaluator_state(self, base):
        """Rebuild the persisted evaluator over ``base`` (a reloaded LabelledKG).

        Returns an evaluator ready for the next ``apply_update`` call; its
        remaining trajectory is bit-identical to an uninterrupted run.
        """
        import pickle

        from repro.evolving.state import restore_evaluator

        target = self.evaluator_state_path
        if not target.is_file():
            raise FileNotFoundError(f"no evaluator state at {target}")
        with open(target, "rb") as handle:
            state = pickle.load(handle)
        return restore_evaluator(state, base)


def _as_store(source) -> tuple[ColumnarStore, str]:
    if isinstance(source, ColumnarStore):
        return source, "kg"
    backend = getattr(source, "backend", None)
    if isinstance(backend, ColumnarStore):
        return backend, source.name
    name = getattr(source, "name", "kg")
    return ColumnarStore.from_graph(iter(source)), name
