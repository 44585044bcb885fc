"""Knowledge graph with an entity-cluster index over a pluggable storage backend.

The sampling designs in the paper operate on two views of the same graph:

* a flat population of triples (used by simple random sampling), and
* a population of *entity clusters* ``G[e] = {t : t.subject == e}`` (used by
  all cluster-sampling designs and by the annotation cost model).

:class:`KnowledgeGraph` maintains both views but does not own the physical
representation: storage is delegated to a
:class:`~repro.storage.backend.StorageBackend`.  The default
:class:`~repro.storage.columnar.ColumnarStore` packs the graph into interned
``int32`` NumPy columns with a CSR cluster index, written once, which scales
to millions of triples and can be persisted/memory-mapped through
:class:`~repro.storage.snapshot.SnapshotStore`;
:class:`~repro.storage.sqlite.SqliteStore` keeps it on disk instead, written
once by :meth:`KnowledgeGraph.to_sqlite` and read-only afterwards.  A graph
grows in a :class:`~repro.storage.delta.DeltaStore`: its first
:meth:`KnowledgeGraph.add` / :meth:`~KnowledgeGraph.add_batch` lays one over
its columns, zero-copy, and :meth:`KnowledgeGraph.to_columnar` re-packs a
grown graph into new columns.

Two access styles coexist:

* the original object API (``cluster``, ``sample_cluster_triples``, …),
  which materialises :class:`~repro.kg.triple.Triple` objects and is what
  annotation flows need;
* a *position* API (``cluster_positions``, ``sample_cluster_positions``,
  ``sample_cluster_positions_batch``, ``cluster_size_array``), which works
  on integer triple positions only; it is the one surface the sampling
  designs draw on, so their draw/estimate loops allocate no Triple, and
  ``triples_at`` turns positions into Triples for the flows that need them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.kg.triple import Triple, triple_columns
from repro.storage.backend import StorageBackend

if TYPE_CHECKING:
    from repro.storage.delta import DeltaStore

__all__ = ["EntityCluster", "KnowledgeGraph", "csr_position_rows", "sample_csr_positions_batch"]


@dataclass(frozen=True)
class EntityCluster:
    """All triples of one subject entity, as a lightweight view.

    Attributes
    ----------
    entity_id:
        The shared subject id.
    triples:
        The triples belonging to the cluster, in insertion order.
    """

    entity_id: str
    triples: tuple[Triple, ...]

    @property
    def size(self) -> int:
        """Number of triples in the cluster (``M_i`` in the paper)."""
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)


def _floyd_sample_batch(sizes: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``cap`` distinct within-cluster offsets for each of many clusters.

    Vectorised Floyd's algorithm: slot ``j`` draws, for every cluster, a
    uniform offset in ``[0, size - cap + j]``; a draw that collides with an
    earlier pick for the same cluster is replaced by ``size - cap + j``
    itself, which cannot have been picked before.  Each row is a uniform
    without-replacement ``cap``-subset of ``range(size)`` (as a set; the
    within-row order is not uniform, which the estimators never observe).

    A slot's bounds do not depend on earlier picks, so every slot is drawn
    in one ``rng.integers`` call with the bounds laid out slot-major (slot 0
    of every cluster, then slot 1, ...): the same draws, in the same order,
    that one call per slot makes, leaving ``rng`` in the same state.
    Collisions are then resolved slot by slot.

    ``sizes`` must all be strictly greater than ``cap``.
    """
    base = np.asarray(sizes, dtype=np.int64) - cap
    draws = rng.integers(0, base + np.arange(1, cap + 1)[:, None])
    picks = np.empty((base.shape[0], cap), dtype=np.int64)
    for j, t in enumerate(draws):
        if j:
            collision = (picks[:, :j] == t[:, None]).any(axis=1)
            t = np.where(collision, base + j, t)
        picks[:, j] = t
    return picks


def csr_position_rows(offsets: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The cluster row that owns each position of a CSR cluster index.

    ``rows[p]`` is the row whose slice ``positions[offsets[row]:offsets[row
    + 1]]`` holds position ``p``: the subject of a triple drawn without its
    cluster (an SRS draw), which is what Eq. (4) charges ``c1`` for.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    rows = np.empty(int(offsets[-1]), dtype=np.int64)
    rows[np.asarray(positions, dtype=np.int64)] = np.repeat(
        np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets)
    )
    return rows


def sample_csr_positions_batch(
    offsets: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cap: int | None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-stage sample of up to ``cap`` positions from each CSR cluster, laid out flat.

    The vectorised core behind every position draw: cluster ``rows[i]`` owns
    ``positions[offsets[rows[i]]:offsets[rows[i] + 1]]``; clusters no larger
    than ``cap`` contribute their full slice, larger clusters are subsampled
    without replacement with one batched Floyd pass, and ``cap=None`` takes
    every cluster whole without touching ``rng``.  Returns ``(flat, counts,
    starts)``: the sample of ``rows[i]`` is ``flat[starts[i] : starts[i] +
    counts[i]]``, in row order.  Works on any CSR pair — a graph backend's
    index or an appended update segment — so the evolving evaluators consume
    the same random stream on every backend.
    """
    rows = np.asarray(rows, dtype=np.int64)
    first = offsets[rows]
    sizes = offsets[rows + 1] - first
    counts = sizes if cap is None else np.minimum(sizes, cap)
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1]) if ends.shape[0] else 0
    # Unit i reads positions[first[i] + j] for j < counts[i] ...
    index = np.arange(total) + np.repeat(first - starts, counts)
    if cap is not None:
        large = np.flatnonzero(sizes > cap)
        if large.size:
            # ... except that a cluster larger than ``cap`` reads its Floyd picks.
            picks = _floyd_sample_batch(sizes[large], cap, rng)
            slots = (starts[large][:, None] + np.arange(cap)).ravel()
            index[slots] = (first[large][:, None] + picks).ravel()
    return positions[index], counts, starts


class KnowledgeGraph:
    """A set of triples indexed by entity cluster.

    Parameters
    ----------
    triples:
        Initial triples, written once into a
        :class:`~repro.storage.columnar.ColumnarStore`.  Duplicates (exact
        ``(s, p, o)`` repeats) keep their first occurrence so the graph
        behaves as a set, matching the paper's model ``G = {t}``.
    name:
        Optional human-readable name used in reports.
    backend:
        Physical storage: a :class:`~repro.storage.backend.StorageBackend`
        instance (possibly pre-populated, e.g. from a snapshot), or ``None``
        for columns built from ``triples``.  A graph on SQLite comes from
        :meth:`to_sqlite` and takes no ``add``.  Any other value (a backend
        name such as ``"sqlite"``) raises ``TypeError``.

    Examples
    --------
    >>> kg = KnowledgeGraph([Triple("e1", "bornIn", "NYC")], name="toy")
    >>> kg.add(Triple("e1", "plays", "basketball"))
    True
    >>> kg.num_entities, kg.num_triples
    (1, 2)
    >>> kg.cluster("e1").size
    2
    """

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        name: str = "kg",
        backend: StorageBackend | None = None,
    ) -> None:
        self.name = name
        if backend is None:
            from repro.storage.columnar import ColumnarStore

            backend = ColumnarStore.from_graph(triples)
            triples = ()
        elif not isinstance(backend, StorageBackend):
            raise TypeError(
                f"backend must be a StorageBackend instance, got {backend!r}: build the "
                "graph in columns (backend=None or a ColumnarStore) and call "
                "KnowledgeGraph.to_sqlite(path) for a SQLite graph"
            )
        self._backend: StorageBackend = backend
        self._triples_view: tuple[Triple, ...] | None = None
        self._entity_ids_view: tuple[str, ...] | None = None
        self._position_rows_view: np.ndarray | None = None
        self.add_batch(triples)

    @property
    def backend(self) -> StorageBackend:
        """The storage backend this graph delegates to."""
        return self._backend

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return ``True`` if it was not already present."""
        return self.add_batch((triple,))[0]

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return the number of new triples added."""
        return sum(self.add_batch(triples))

    def add_batch(self, triples: Iterable[Triple]) -> list[bool]:
        """Insert many triples; return one added-flag per input triple.

        The graph grows in a :class:`~repro.storage.delta.DeltaStore`: the
        first insert into a columnar graph lays one over its columns,
        zero-copy, and the columns themselves never change, so a view that
        shares them (an :class:`~repro.kg.updates.EvolvingKnowledgeGraph`)
        is unaffected.  Dedup is vectorised over the batch, and the cached
        views are invalidated once instead of per triple.

        Raises
        ------
        ReadOnlyStoreError
            If the graph is on SQLite, which is written once.
        """
        batch = list(triples)
        if not batch:
            return []
        return self.add_columns(*triple_columns(batch)).tolist()

    def add_columns(
        self,
        subjects: Sequence[str],
        predicates: Sequence[str],
        objects: Sequence[str],
        entity_objects: bytes,
    ) -> np.ndarray:
        """:meth:`add_batch` of a batch given as columns; returns its added-mask.

        One string per triple in each of ``subjects``, ``predicates`` and
        ``objects``, one 0/1 byte per triple in ``entity_objects``: the form
        an :class:`~repro.kg.updates.UpdateBatch` holds, appended by
        :meth:`~repro.storage.delta.DeltaStore.add_batch` without a Triple.
        """
        added = self._delta().add_batch(subjects, predicates, objects, entity_objects)
        if added.any():
            self._triples_view = None
            self._entity_ids_view = None
        return added

    def _delta(self) -> DeltaStore:
        """The :class:`~repro.storage.delta.DeltaStore` this graph grows in."""
        from repro.storage.columnar import ColumnarStore
        from repro.storage.delta import DeltaStore
        from repro.storage.sqlite import ReadOnlyStoreError

        if isinstance(self._backend, ColumnarStore):
            self._backend = DeltaStore(self._backend)
        elif not isinstance(self._backend, DeltaStore):
            raise ReadOnlyStoreError(
                f"{self._backend.path} is read-only: a SQLite graph is written once, by "
                "KnowledgeGraph.to_sqlite; add to a columnar graph and convert it"
            )
        return self._backend

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        """Total number of triples (``M`` in the paper)."""
        return self._backend.num_triples

    @property
    def num_entities(self) -> int:
        """Number of distinct entity clusters (``N`` in the paper)."""
        return self._backend.num_entities

    @property
    def average_cluster_size(self) -> float:
        """``M / N``, the average cluster size reported in Table 3."""
        if self.num_entities == 0:
            return 0.0
        return self.num_triples / self.num_entities

    def __len__(self) -> int:
        return self.num_triples

    def __contains__(self, triple: Triple) -> bool:
        return self._backend.contains(triple)

    def __iter__(self) -> Iterator[Triple]:
        return self._backend.iter_triples()

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def triples(self) -> Sequence[Triple]:
        """All triples in insertion order (cached read-only view).

        The tuple is materialised on first access and reused until the next
        :meth:`add` invalidates it, so repeated reads are O(1) instead of the
        O(M) copy the seed implementation made on every access.
        """
        if self._triples_view is None:
            self._triples_view = tuple(self._backend.iter_triples())
        return self._triples_view

    def triple_at(self, position: int) -> Triple:
        """Return the triple stored at ``position`` (insertion order)."""
        return self._backend.triple_at(position)

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        """Materialise the triples at the given positions, in the given order."""
        return self._backend.triples_at(positions)

    @property
    def entity_ids(self) -> Sequence[str]:
        """All subject entity ids, in first-seen order (cached view)."""
        if self._entity_ids_view is None:
            self._entity_ids_view = tuple(self._backend.entity_ids())
        return self._entity_ids_view

    def cluster(self, entity_id: str) -> EntityCluster:
        """Return the entity cluster ``G[e]`` for ``entity_id``.

        Raises
        ------
        KeyError
            If the entity id has no triples in this graph.
        """
        positions = self._backend.cluster_positions(entity_id)
        return EntityCluster(entity_id, tuple(self._backend.triples_at(positions)))

    def clusters(self) -> Iterator[EntityCluster]:
        """Iterate over all entity clusters in first-seen order."""
        for entity_id in self.entity_ids:
            yield self.cluster(entity_id)

    def cluster_size(self, entity_id: str) -> int:
        """Return ``M_i`` for the given entity id."""
        return self._backend.cluster_size(entity_id)

    def cluster_sizes(self) -> Mapping[str, int]:
        """Return a mapping of entity id to cluster size."""
        sizes = self._backend.cluster_size_array()
        return {entity: int(size) for entity, size in zip(self.entity_ids, sizes)}

    def cluster_size_array(self) -> np.ndarray:
        """Return cluster sizes as an ``int64`` array aligned with :attr:`entity_ids`."""
        return self._backend.cluster_size_array()

    def has_entity(self, entity_id: str) -> bool:
        """Return whether any triple has ``entity_id`` as its subject."""
        return self._backend.has_entity(entity_id)

    # ------------------------------------------------------------------ #
    # Position API (allocation-free cluster views)
    # ------------------------------------------------------------------ #
    def cluster_positions(self, entity_id: str) -> np.ndarray:
        """Positions of the entity's triples (zero-copy on columnar backends)."""
        return self._backend.cluster_positions(entity_id)

    def entity_row(self, entity_id: str) -> int:
        """Row index of ``entity_id`` in :attr:`entity_ids` order."""
        return self._backend.entity_row(entity_id)

    def entity_id_of_row(self, row: int) -> str:
        """Subject id of cluster ``row`` (inverse of :meth:`entity_row`)."""
        return self._backend.entity_id_of_row(row)

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        """Positions of cluster ``row``'s triples (zero-copy on columnar backends)."""
        return self._backend.cluster_positions_by_row(row)

    def rows_of_positions(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Cluster row of the subject of each triple position.

        One position -> row array, built from the backend's CSR index on first
        use and rebuilt once the graph has grown.
        """
        rows = self._position_rows_view
        if rows is None or rows.shape[0] != self.num_triples:
            rows = self._position_rows_view = csr_position_rows(*self._backend.csr_arrays())
        return rows[np.asarray(positions, dtype=np.int64)]

    def position_label_array(
        self, labels: Mapping[Triple, bool], default: bool = False
    ) -> np.ndarray:
        """Convert a Triple-keyed label mapping into a position-aligned array.

        One O(M) pass; afterwards labels resolve by indexing the array with
        positions, without touching Triple objects at all.
        """
        return np.fromiter(
            (labels.get(t, default) for t in self._backend.iter_triples()),
            dtype=bool,
            count=self.num_triples,
        )

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #
    def sample_triples(self, count: int, rng: np.random.Generator) -> list[Triple]:
        """Draw ``count`` triples uniformly at random without replacement."""
        if count > self.num_triples:
            raise ValueError(f"cannot draw {count} triples from a graph with {self.num_triples}")
        positions = rng.choice(self.num_triples, size=count, replace=False)
        return self._backend.triples_at(positions)

    def sample_cluster_positions(
        self, entity_id: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``min(count, M_i)`` triple positions without replacement from one cluster.

        Consumes the random stream exactly like the seed implementation of
        :meth:`sample_cluster_triples` (one ``rng.choice`` call), so draws are
        bit-for-bit reproducible across storage backends.
        """
        positions = self._backend.cluster_positions(entity_id)
        take = min(count, len(positions))
        chosen = rng.choice(len(positions), size=take, replace=False)
        return np.asarray(positions)[chosen]

    def sample_cluster_triples(
        self, entity_id: str, count: int, rng: np.random.Generator
    ) -> list[Triple]:
        """Draw ``min(count, M_i)`` triples without replacement from one cluster."""
        return self._backend.triples_at(self.sample_cluster_positions(entity_id, count, rng))

    def sample_cluster_positions_batch(
        self,
        rows: np.ndarray,
        cap: int | None,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second-stage sample of up to ``cap`` positions from each cluster row, laid out flat.

        The vectorised core behind the designs' position draws, run on the
        backend's CSR index (see :func:`sample_csr_positions_batch`, which
        returns ``(flat, counts, starts)``): clusters no larger than ``cap``
        contribute their full position slice; larger clusters are subsampled
        without replacement with a batched Floyd pass (one RNG call for the
        whole batch instead of one ``rng.choice`` per cluster);
        ``cap=None`` takes every cluster whole.  The random stream therefore
        differs from :meth:`sample_cluster_positions`; under a fixed seed it
        is the same on every backend.
        """
        offsets, positions = self._backend.csr_arrays()
        return sample_csr_positions_batch(offsets, positions, rows, cap, rng)

    # ------------------------------------------------------------------ #
    # Storage conversion
    # ------------------------------------------------------------------ #
    def to_columnar(self, name: str | None = None) -> "KnowledgeGraph":
        """Return this graph re-packed onto a columnar backend.

        A graph that is already columnar is returned unchanged; a grown
        (delta-backed) or SQLite graph is written into new columns.
        """
        from repro.storage.columnar import ColumnarStore

        if isinstance(self._backend, ColumnarStore):
            return self
        store = ColumnarStore.from_graph(self._backend.iter_triples())
        return KnowledgeGraph(name=name if name is not None else self.name, backend=store)

    def to_sqlite(
        self, path: str | Path | None = None, name: str | None = None
    ) -> "KnowledgeGraph":
        """Return this graph re-packed onto a disk-resident SQLite backend.

        Routes through the columnar representation so vocabulary ids, triple
        positions and entity rows — and therefore every seeded draw — are
        bit-identical to the columnar backend's.  This is the one way to
        write a SQLite graph
        (:meth:`~repro.storage.sqlite.SqliteStore.from_columnar`); the
        result is read-only.  ``path=None`` uses a private temporary
        database file.
        """
        from repro.storage.sqlite import SqliteStore

        if isinstance(self._backend, SqliteStore):
            return self
        graph_name = name if name is not None else self.name
        columnar = self.to_columnar()
        store = SqliteStore.from_columnar(columnar.backend, path=path, name=graph_name)
        return KnowledgeGraph(name=graph_name, backend=store)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def subset(self, entity_ids: Iterable[str], name: str | None = None) -> "KnowledgeGraph":
        """Return a new graph containing only the clusters in ``entity_ids``."""
        subset_name = name if name is not None else f"{self.name}-subset"
        backend = self._backend
        triples = [
            triple
            for entity_id in entity_ids
            if backend.has_entity(entity_id)
            for triple in backend.triples_at(backend.cluster_positions(entity_id))
        ]
        return KnowledgeGraph(triples, name=subset_name)

    def random_triple_subset(
        self, fraction: float, rng: np.random.Generator, name: str | None = None
    ) -> "KnowledgeGraph":
        """Return a new graph with a uniformly random ``fraction`` of the triples."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(fraction * self.num_triples)))
        subset_name = name if name is not None else f"{self.name}-{fraction:.0%}"
        return KnowledgeGraph(self.sample_triples(count, rng), name=subset_name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"triples={self.num_triples})"
        )
