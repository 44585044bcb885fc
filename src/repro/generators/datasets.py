"""Synthetic stand-ins for the paper's evaluation datasets (Table 3).

| Paper dataset | Entities | Triples | Avg. cluster size | Gold accuracy |
|---------------|----------|---------|-------------------|---------------|
| NELL          | 817      | 1 860   | 2.3               | 91 %          |
| YAGO          | 822      | 1 386   | 1.7               | 99 %          |
| MOVIE         | 288 770  | 2.65 M  | 9.2               | 90 % (5 % MoE)|
| MOVIE-FULL    | 14.5 M   | 130 M   | 9.0               | n/a           |

``make_nell_like`` / ``make_yago_like`` generate KGs at the published sizes;
``make_movie_like`` / ``make_movie_full_like`` are scaled by default (the
sampling cost of every design in the paper is insensitive to population size —
that is the point of Figure 7 — so a scaled population with the same
cluster-size distribution and accuracy reproduces the same behaviour; pass
``scale=1.0`` to generate the full-size graphs).

Gold labels are drawn so that entity accuracy is positively correlated with
cluster size (the Figure 3 observation) and the triple-weighted mean accuracy
is calibrated to the published gold accuracy.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle
from repro.storage.sqlite import SqliteStore, is_sqlite_file

__all__ = [
    "DATASETS",
    "LabelledKG",
    "generate_calibrated_labels",
    "make_dataset",
    "make_nell_like",
    "make_yago_like",
    "make_movie_like",
    "make_movie_syn",
    "make_movie_full_like",
]


@dataclass(frozen=True)
class LabelledKG:
    """A knowledge graph together with its ground-truth label oracle."""

    graph: KnowledgeGraph
    oracle: LabelOracle

    @property
    def name(self) -> str:
        """Name of the underlying graph."""
        return self.graph.name

    @property
    def true_accuracy(self) -> float:
        """Exact population accuracy under the oracle."""
        return self.oracle.true_accuracy(self.graph)

    def to_columnar(self) -> "LabelledKG":
        """This dataset on a columnar backend, its label array carried over."""
        return self._rebind(self.graph.to_columnar())

    def to_sqlite(self, path: str | Path | None = None) -> "LabelledKG":
        """This dataset on a SQLite backend (see :meth:`KnowledgeGraph.to_sqlite`)."""
        return self._rebind(self.graph.to_sqlite(path))

    @classmethod
    def open(cls, path: str | Path) -> "LabelledKG":
        """Reopen a labelled snapshot written by :meth:`save`.

        A SQLite database (recognised by its file header) is opened in place,
        its columns staying on disk; any other path is read as a snapshot
        directory into RAM.  The stored label array becomes the oracle as is
        (:meth:`~repro.labels.oracle.LabelOracle.from_positions`), so
        reopening builds no Triple.

        Raises
        ------
        ValueError
            ``cannot open snapshot <path>: <reason>`` for a missing path, a
            foreign or damaged file or directory, or a missing or misaligned
            label array.
        """
        try:
            if is_sqlite_file(path):
                store = SqliteStore(path)
                graph = KnowledgeGraph(name=store.graph_name() or Path(path).stem, backend=store)
                labels = store.load_labels()
                relabel = "`repro snapshot --backend sqlite --with-labels`"
            else:
                from repro.storage.snapshot import SnapshotStore

                snapshot = SnapshotStore(path)
                graph = snapshot.load_graph()
                labels = snapshot.load_labels()
                relabel = "`repro snapshot --with-labels`"
            if labels is None:
                raise ValueError(f"it carries no label array; re-create it with {relabel}")
            return cls(graph, LabelOracle.from_positions(graph, labels))
        # OSError: a missing or unreadable path; EOFError: an empty array
        # file; LookupError: a damaged meta array; ValueError: a file numpy
        # would only read as a pickle, or a misaligned label array.
        except (OSError, EOFError, LookupError, ValueError, sqlite3.Error) as exc:
            raise ValueError(f"cannot open snapshot {path}: {exc}") from exc

    def save(self, path: str | Path, *, backend: str = "columnar", labels: bool = True) -> Path:
        """Persist this dataset where :meth:`open` reopens it; return ``path``.

        ``backend="columnar"`` writes a memory-mappable snapshot directory
        (:class:`~repro.storage.snapshot.SnapshotStore`); ``"sqlite"`` writes
        a disk-resident WAL database, replacing any file at ``path``.
        ``labels`` stores the position-aligned label array next to the graph;
        :meth:`open` refuses a snapshot without one.
        """
        graph = self.graph.to_columnar()
        label_array = self.oracle.as_position_array(graph) if labels else None
        if backend == "sqlite":
            store = graph.to_sqlite(path).backend
            if label_array is not None:
                store.save_labels(label_array)
            return Path(path)
        if backend != "columnar":
            raise ValueError(f"unknown snapshot backend {backend!r}")
        from repro.storage.snapshot import SnapshotStore

        return SnapshotStore(path).save(graph, labels=label_array)

    def _rebind(self, graph: KnowledgeGraph) -> "LabelledKG":
        # Conversion preserves triple positions, so the label array of the
        # old graph is the label array of the new one: no Triple is rebuilt.
        if graph is self.graph:
            return self
        labels = self.oracle.position_labels(self.graph)
        return LabelledKG(graph, LabelOracle.from_positions(graph, labels))


def generate_calibrated_labels(
    graph: KnowledgeGraph,
    target_accuracy: float,
    size_correlation: float = 0.15,
    noise_sigma: float = 0.05,
    seed: int | np.random.Generator | None = None,
) -> LabelOracle:
    """Draw labels whose overall accuracy is calibrated to ``target_accuracy``.

    Per-cluster accuracies increase with cluster size (controlled by
    ``size_correlation``, the accuracy gap between the smallest and largest
    clusters) plus Gaussian noise, then the whole profile is shifted so the
    triple-weighted mean matches the target.  Labels are Bernoulli draws from
    the per-cluster accuracy, so the realised accuracy fluctuates around the
    target by O(1/sqrt(M)).  The oracle holds them as a position-aligned
    array (:meth:`LabelOracle.from_positions`).

    Parameters
    ----------
    graph:
        The knowledge graph to label.
    target_accuracy:
        Desired overall (triple-weighted) accuracy in [0, 1].
    size_correlation:
        Strength of the cluster-size/accuracy coupling; 0 disables it.
    noise_sigma:
        Standard deviation of the per-cluster accuracy noise.
    seed:
        Seed or generator for reproducible draws.
    """
    if not 0.0 <= target_accuracy <= 1.0:
        raise ValueError("target_accuracy must be in [0, 1]")
    if not -math.inf < size_correlation < math.inf:
        raise ValueError(f"size_correlation must be finite, got {size_correlation}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    sizes = graph.cluster_size_array().astype(float)
    if sizes.size == 0:
        return LabelOracle({})
    # Rank-normalise sizes to [0, 1]; ranks are robust to heavy tails.
    order = sizes.argsort().argsort()
    normalised_rank = order / max(1, sizes.size - 1)
    noise = rng.normal(0.0, noise_sigma, size=sizes.size) if noise_sigma > 0 else 0.0
    probabilities = target_accuracy + size_correlation * (normalised_rank - 0.5) + noise
    probabilities = np.clip(probabilities, 0.01, 1.0)
    # Shift so the triple-weighted mean hits the target (a few fixed-point
    # passes are enough; clipping makes a closed form unavailable).
    weights = sizes / sizes.sum()
    for _ in range(8):
        gap = target_accuracy - float(np.dot(weights, probabilities))
        if abs(gap) < 1e-4:
            break
        probabilities = np.clip(probabilities + gap, 0.01, 1.0)
    # One uniform per triple in cluster order, the stream a per-cluster
    # ``rng.random(size)`` loop consumes, scattered to triple positions.
    offsets, positions = graph.backend.csr_arrays()
    labels = np.empty(graph.num_triples, dtype=bool)
    labels[positions] = rng.random(positions.shape[0]) < np.repeat(probabilities, np.diff(offsets))
    return LabelOracle.from_positions(graph, labels)


def _generate(rng: np.random.Generator, **config) -> KnowledgeGraph:
    """The synthetic graph of ``SyntheticKGConfig(**config)``, drawn from ``rng``."""
    from repro.generators.synthetic_kg import SyntheticKGConfig, generate_kg

    return generate_kg(SyntheticKGConfig(**config), rng)


def make_nell_like(seed: int | None = 0) -> LabelledKG:
    """NELL-like KG: 817 entities, ≈1 860 triples, long-tailed sizes, 91 % accuracy."""
    rng = np.random.default_rng(seed)
    graph = _generate(
        rng,
        num_entities=817,
        mean_cluster_size=2.3,
        size_skew=1.0,
        max_cluster_size=25,
        name="NELL-like",
    )
    oracle = generate_calibrated_labels(
        graph, target_accuracy=0.91, size_correlation=0.15, noise_sigma=0.08, seed=rng
    )
    return LabelledKG(graph, oracle)


def make_yago_like(seed: int | None = 0) -> LabelledKG:
    """YAGO-like KG: 822 entities, ≈1 386 triples, 99 % accuracy."""
    rng = np.random.default_rng(seed)
    graph = _generate(
        rng,
        num_entities=822,
        mean_cluster_size=1.7,
        size_skew=0.9,
        max_cluster_size=35,
        name="YAGO-like",
    )
    oracle = generate_calibrated_labels(
        graph, target_accuracy=0.99, size_correlation=0.02, noise_sigma=0.01, seed=rng
    )
    return LabelledKG(graph, oracle)


def make_movie_like(seed: int | None = 0, scale: float = 0.05) -> LabelledKG:
    """MOVIE-like KG (IMDb ⋈ WikiData): avg cluster size 9.2, 90 % accuracy.

    ``scale`` multiplies the published entity count (288 770); the default 5 %
    scale yields ≈14 000 entities / ≈130 000 triples, large enough that every
    sampling design operates far from census conditions yet small enough for
    repeated trials on a laptop.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    num_entities = max(100, int(round(288_770 * scale)))
    graph = _generate(
        rng,
        num_entities=num_entities,
        mean_cluster_size=9.2,
        size_skew=1.1,
        max_cluster_size=500,
        name="MOVIE-like",
    )
    oracle = generate_calibrated_labels(
        graph, target_accuracy=0.90, size_correlation=0.12, noise_sigma=0.06, seed=rng
    )
    return LabelledKG(graph, oracle)


def make_movie_syn(
    c: float = 0.01,
    sigma: float = 0.1,
    k: int = 3,
    seed: int | None = 0,
    scale: float = 0.02,
) -> LabelledKG:
    """MOVIE-SYN: the MOVIE-like graph with Binomial Mixture Model labels.

    This reproduces Section 7.1.2: labels are generated by
    :class:`~repro.labels.binomial_mixture.BinomialMixtureModel` with the given
    ``c`` / ``sigma`` / ``k`` (paper defaults c=0.01, sigma=0.1, k=3), which
    yields an overall accuracy around 62 % for the default parameters, as in
    Table 7.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    num_entities = max(100, int(round(288_770 * scale)))
    graph = _generate(
        rng,
        num_entities=num_entities,
        mean_cluster_size=9.2,
        size_skew=1.1,
        max_cluster_size=500,
        name=f"MOVIE-SYN(c={c},sigma={sigma})",
    )
    from repro.labels.binomial_mixture import BinomialMixtureModel

    model = BinomialMixtureModel(c=c, sigma=sigma, k=k, seed=rng)
    return LabelledKG(graph, model.generate(graph))


#: The stand-ins :func:`make_dataset` builds by name.
DATASETS = ("nell", "yago", "movie", "movie-syn")


def make_dataset(name: str, seed: int | None, scale: float) -> LabelledKG:
    """Build the stand-in called ``name`` (one of :data:`DATASETS`).

    ``scale`` sizes the MOVIE stand-ins and is ignored by NELL and YAGO.
    """
    if name == "nell":
        return make_nell_like(seed=seed)
    if name == "yago":
        return make_yago_like(seed=seed)
    if name == "movie":
        return make_movie_like(seed=seed, scale=scale)
    if name == "movie-syn":
        return make_movie_syn(seed=seed, scale=scale)
    raise ValueError(f"unknown dataset {name!r}")


def make_movie_full_like(
    num_triples: int = 1_000_000,
    accuracy: float = 0.9,
    seed: int | None = 0,
) -> LabelledKG:
    """MOVIE-FULL-like KG for the scalability sweep of Figure 7.

    The paper uses 26 M–130 M triples with Random Error Model labels at a
    fixed accuracy.  This constructor takes the desired triple count directly
    (the Figure 7 harness sweeps it) and uses REM labels, matching the paper's
    synthetic-label protocol for MOVIE-FULL.
    """
    if num_triples < 1:
        raise ValueError("num_triples must be positive")
    rng = np.random.default_rng(seed)
    mean_cluster_size = 9.0
    num_entities = max(10, int(round(num_triples / mean_cluster_size)))
    graph = _generate(
        rng,
        num_entities=num_entities,
        mean_cluster_size=mean_cluster_size,
        size_skew=1.1,
        max_cluster_size=500,
        name=f"MOVIE-FULL-like({num_triples} triples)",
    )
    from repro.labels.random_error import RandomErrorModel

    oracle = RandomErrorModel.with_accuracy(accuracy, seed=rng).generate(graph)
    return LabelledKG(graph, oracle)
