"""Low-level synthetic knowledge-graph generation.

A synthetic KG is fully described by its cluster-size distribution: for each
entity we draw a size from a skewed (discretised lognormal) distribution and
emit that many triples with distinct predicates/objects.  The estimators under
study only observe subject ids, cluster sizes and per-triple labels, so this
is the minimal substrate that reproduces their behaviour on the real datasets.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.storage.columnar import ColumnarStore, Vocabulary

__all__ = ["SyntheticKGConfig", "sample_cluster_sizes", "generate_kg"]

#: Predicate vocabulary used for generated triples.  Names are cosmetic; the
#: estimators never inspect predicates, but the KGEval baseline uses them to
#: build coupling constraints, so a realistic, reused vocabulary matters there.
_DEFAULT_PREDICATES = (
    "wasBornIn",
    "graduatedFrom",
    "performedIn",
    "directedBy",
    "hasChild",
    "releaseDate",
    "duration",
    "actedIn",
    "locatedIn",
    "playsFor",
    "coachOf",
    "memberOfTeam",
    "birthDate",
    "hasGenre",
    "producedBy",
    "marriedTo",
    "worksAt",
    "capitalOf",
    "hasPopulation",
    "foundedIn",
)


@dataclass(frozen=True)
class SyntheticKGConfig:
    """Parameters describing a synthetic knowledge graph.

    Parameters
    ----------
    num_entities:
        Number of entity clusters (``N``).
    mean_cluster_size:
        Target average cluster size (``M / N``).
    size_skew:
        Log-scale standard deviation of the lognormal size distribution; larger
        values produce a heavier tail (a few very large clusters, many
        singletons).
    max_cluster_size:
        Hard cap on cluster size.
    entity_object_fraction:
        Fraction of triples whose object is another entity id (entity property)
        rather than an atomic literal (data property).
    name:
        Name given to the generated graph.
    """

    num_entities: int
    mean_cluster_size: float = 2.5
    size_skew: float = 0.8
    max_cluster_size: int = 200
    entity_object_fraction: float = 0.4
    name: str = "synthetic-kg"

    def __post_init__(self) -> None:
        if self.num_entities < 1:
            raise ValueError("num_entities must be positive")
        # NaN fails every comparison, so each bound is checked as "not inside".
        if not 1.0 <= self.mean_cluster_size < math.inf:
            raise ValueError(
                f"mean_cluster_size must be finite and at least 1, got {self.mean_cluster_size}"
            )
        if not 0.0 <= self.size_skew < math.inf:
            raise ValueError(f"size_skew must be finite and non-negative, got {self.size_skew}")
        if self.max_cluster_size < 1:
            raise ValueError("max_cluster_size must be at least 1")
        if not 0.0 <= self.entity_object_fraction <= 1.0:
            raise ValueError("entity_object_fraction must be in [0, 1]")


def sample_cluster_sizes(
    num_entities: int,
    mean_cluster_size: float,
    size_skew: float,
    max_cluster_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw integer cluster sizes with the requested mean and skew.

    Sizes are ``1 + round(Lognormal)`` samples whose lognormal scale is solved
    analytically so the expected size matches ``mean_cluster_size``, then
    clipped to ``[1, max_cluster_size]``.
    """
    if num_entities < 1:
        raise ValueError("num_entities must be positive")
    if mean_cluster_size < 1.0:
        raise ValueError("mean_cluster_size must be at least 1")
    excess_mean = mean_cluster_size - 1.0
    if excess_mean <= 0 or size_skew == 0:
        sizes = np.full(num_entities, round(mean_cluster_size), dtype=np.int64)
        return np.clip(sizes, 1, max_cluster_size)
    # E[Lognormal(mu, s)] = exp(mu + s^2/2)  =>  mu = log(excess_mean) - s^2/2.
    mu = np.log(excess_mean) - 0.5 * size_skew * size_skew
    excess = rng.lognormal(mean=mu, sigma=size_skew, size=num_entities)
    sizes = 1 + np.round(excess).astype(np.int64)
    return np.clip(sizes, 1, max_cluster_size)


def generate_kg(
    config: SyntheticKGConfig,
    seed: int | np.random.Generator | None = None,
) -> KnowledgeGraph:
    """Generate a synthetic knowledge graph according to ``config``.

    The graph is built directly as a
    :class:`~repro.storage.columnar.ColumnarStore`: strings are interned on
    the fly, each triple's subject, then predicate, then object (the order
    :meth:`~repro.kg.graph.KnowledgeGraph.to_columnar` interns a graph's
    triples in), into ``int32`` id columns, so no
    :class:`~repro.kg.triple.Triple` is allocated.  Each cluster's triples
    are contiguous, so triple positions follow cluster order.
    """
    rng = np.random.default_rng(seed)
    sizes = sample_cluster_sizes(
        config.num_entities,
        config.mean_cluster_size,
        config.size_skew,
        config.max_cluster_size,
        rng,
    )
    vocab = Vocabulary()
    subjects, predicate_ids, object_ids = array("i"), array("i"), array("i")
    flags = array("B")
    predicates = _DEFAULT_PREDICATES
    entity_object_cutoff = config.entity_object_fraction
    num_entities = config.num_entities
    for entity_index, size in enumerate(sizes.tolist()):
        predicate_choices = rng.integers(0, len(predicates), size=size).tolist()
        object_draws = rng.random(size).tolist()
        # The cluster's strings in interning order: its subject, then each
        # triple's predicate and object.
        tokens = [f"e{entity_index}"]
        seen: set[tuple[str, str]] = set()
        for fact_index in range(size):
            predicate = predicates[predicate_choices[fact_index]]
            is_entity_object = object_draws[fact_index] < entity_object_cutoff
            if is_entity_object:
                obj = f"e{int(rng.integers(0, num_entities))}"
            else:
                obj = f"value_{entity_index}_{fact_index}"
            # Predicates may repeat within a cluster; disambiguate the object so
            # the triple stays unique (the graph is a set of triples).  The
            # check precedes interning, so a replaced object never gets an id.
            if (predicate, obj) in seen:
                obj = f"{obj}#{fact_index}"
            seen.add((predicate, obj))
            tokens += (predicate, obj)
            flags.append(is_entity_object)
        ids = vocab.intern_many(tokens)
        subjects.extend(ids[:1] * size)
        predicate_ids.extend(ids[1::2])
        object_ids.extend(ids[2::2])
    store = ColumnarStore.from_arrays(
        vocab,
        np.frombuffer(subjects, dtype=np.int32),
        np.frombuffer(predicate_ids, dtype=np.int32),
        np.frombuffer(object_ids, dtype=np.int32),
        np.frombuffer(flags, dtype=np.uint8),
    )
    return KnowledgeGraph(name=config.name, backend=store)
