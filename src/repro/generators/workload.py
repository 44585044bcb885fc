"""Evolving-KG update workload generation (Section 7.3).

The paper's evolving-KG experiments start from a base KG (50 % of MOVIE) and
apply batches of insertions drawn from MOVIE-FULL, so a batch mixes brand-new
entities with enrichment of entities that already exist in the base graph.
:class:`UpdateWorkloadGenerator` reproduces that recipe against any base
graph: each generated :class:`~repro.kg.updates.UpdateBatch` has a controlled
size, a controlled fraction of triples landing on new entities, and ground
truth labels at a controlled accuracy.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.generators.datasets import LabelledKG
from repro.generators.synthetic_kg import sample_cluster_sizes
from repro.kg.triple import Triple
from repro.kg.updates import UpdateBatch
from repro.labels.oracle import LabelOracle

__all__ = ["UpdateWorkloadGenerator", "DeletionBatch", "batch_schedule", "SCHEDULE_PATTERNS"]

SCHEDULE_PATTERNS = ("uniform", "trickle", "bursty", "frontloaded")


@dataclass(frozen=True)
class DeletionBatch:
    """A batch of triples to remove from an evolving knowledge graph.

    The evolving storage layer is append-only, so deletions are not applied
    through :class:`~repro.kg.updates.EvolvingKnowledgeGraph`; a deletion-aware
    harness (e.g. the scenario runner) subtracts these triples from its live
    triple set and rebuilds the graph for the post-deletion state.
    """

    batch_id: str
    triples: tuple[Triple, ...]

    @property
    def size(self) -> int:
        """Number of triples removed by this batch."""
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)


def batch_schedule(total_updates: int, num_batches: int, pattern: str = "uniform") -> list[int]:
    """Split ``total_updates`` into per-batch sizes following a named pattern.

    The sizes always sum to exactly ``total_updates`` (largest-remainder
    apportionment with stable tie-breaking by batch index), so every schedule
    of the same total applies the same amount of work regardless of shape:

    * ``uniform`` / ``trickle`` — as equal as possible.  A trickle stream is a
      uniform schedule with many batches, so the two names share weights; the
      semantic difference lives in how many batches the caller asks for.
    * ``bursty`` — every third batch is a spike carrying ~8x the weight of the
      quiet batches between spikes.
    * ``frontloaded`` — geometrically decaying weights ``2^-i``: one large
      initial burst that tapers into a trickle.
    """
    if total_updates < 1:
        raise ValueError(f"total_updates must be positive, got {total_updates}")
    if num_batches < 1:
        raise ValueError(f"num_batches must be positive, got {num_batches}")
    if pattern not in SCHEDULE_PATTERNS:
        raise ValueError(f"pattern must be one of {SCHEDULE_PATTERNS}, got {pattern!r}")
    if pattern in ("uniform", "trickle"):
        weights = np.ones(num_batches)
    elif pattern == "bursty":
        weights = np.where(np.arange(num_batches) % 3 == 0, 8.0, 1.0)
    else:  # frontloaded
        weights = 2.0 ** -np.arange(num_batches, dtype=np.float64)
    raw = weights / weights.sum() * total_updates
    sizes = np.floor(raw).astype(np.int64)
    shortfall = total_updates - int(sizes.sum())
    if shortfall > 0:
        # Stable sort: equal remainders are resolved by batch index, so the
        # schedule is a pure function of (total, batches, pattern).
        order = np.argsort(-(raw - sizes), kind="stable")
        sizes[order[:shortfall]] += 1
    return [int(size) for size in sizes]


class UpdateWorkloadGenerator:
    """Generates labelled insertion batches for an evolving knowledge graph.

    Parameters
    ----------
    base:
        The labelled base KG the updates will be applied to; used to pick
        existing entities for enrichment and to name new entities without
        collisions.
    new_entity_fraction:
        Fraction of inserted triples that belong to brand-new entities (the
        rest enrich entities already present in the base graph).
    mean_cluster_size:
        Average number of inserted triples per new entity.
    size_skew:
        Skew of the new-entity cluster-size distribution.
    seed:
        Seed or generator for reproducibility.
    """

    def __init__(
        self,
        base: LabelledKG,
        new_entity_fraction: float = 0.6,
        mean_cluster_size: float = 5.0,
        size_skew: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= new_entity_fraction <= 1.0:
            raise ValueError("new_entity_fraction must be in [0, 1]")
        if mean_cluster_size < 1.0:
            raise ValueError("mean_cluster_size must be at least 1")
        self.base = base
        self.new_entity_fraction = new_entity_fraction
        self.mean_cluster_size = mean_cluster_size
        self.size_skew = size_skew
        self._rng = np.random.default_rng(seed)
        self._next_entity_index = 0
        self._next_batch_index = 0
        self._next_deletion_index = 0
        self._existing_entities = list(base.graph.entity_ids)
        self._deleted: set[Triple] = set()

    # ------------------------------------------------------------------ #
    # Batch generation
    # ------------------------------------------------------------------ #
    def _new_entity_id(self) -> str:
        entity_id = f"new_entity_{self._next_entity_index}"
        self._next_entity_index += 1
        return entity_id

    def generate_batch(
        self, num_triples: int, accuracy: float, batch_id: str | None = None
    ) -> tuple[UpdateBatch, LabelOracle]:
        """Generate one insertion batch of ``num_triples`` triples.

        Returns the batch and a label oracle covering exactly the inserted
        triples; an evaluator's ``apply_update`` reads from it the label of
        every triple the batch adds to the graph.

        Parameters
        ----------
        num_triples:
            Batch size ``|Δ|``.
        accuracy:
            Probability that each inserted triple is correct.
        batch_id:
            Optional identifier; auto-numbered when omitted.
        """
        if num_triples < 1:
            raise ValueError("num_triples must be positive")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if batch_id is None:
            batch_id = f"delta-{self._next_batch_index}"
        self._next_batch_index += 1

        num_new_entity_triples = int(round(num_triples * self.new_entity_fraction))
        num_enrichment_triples = num_triples - num_new_entity_triples
        triples: list[Triple] = []

        # Brand-new entities, with their own skewed cluster sizes.
        remaining = num_new_entity_triples
        while remaining > 0:
            size = int(
                sample_cluster_sizes(1, self.mean_cluster_size, self.size_skew, 200, self._rng)[0]
            )
            size = min(size, remaining)
            subject = self._new_entity_id()
            for fact_index in range(size):
                triples.append(
                    Triple(subject, "insertedFact", f"{batch_id}_value_{subject}_{fact_index}")
                )
            remaining -= size

        # Enrichment of existing entities.
        if num_enrichment_triples > 0 and self._existing_entities:
            chosen = self._rng.choice(
                len(self._existing_entities), size=num_enrichment_triples, replace=True
            )
            for insert_index, entity_index in enumerate(chosen):
                subject = self._existing_entities[int(entity_index)]
                triples.append(Triple(subject, "insertedFact", f"{batch_id}_enrich_{insert_index}"))

        batch = UpdateBatch(batch_id, tuple(triples))
        draws = self._rng.random(len(triples))
        labels = {triple: bool(draw < accuracy) for triple, draw in zip(triples, draws)}
        return batch, LabelOracle(labels)

    def generate_sequence(
        self, num_batches: int, batch_size: int, accuracy: float
    ) -> Iterator[tuple[UpdateBatch, LabelOracle]]:
        """Yield a sequence of equally sized batches at the same accuracy."""
        for _ in range(num_batches):
            yield self.generate_batch(batch_size, accuracy)

    def generate_scheduled_sequence(
        self,
        total_updates: int,
        num_batches: int,
        accuracy: float,
        pattern: str = "uniform",
    ) -> Iterator[tuple[UpdateBatch, LabelOracle]]:
        """Yield batches whose sizes follow :func:`batch_schedule`.

        The schedule conserves the total update count exactly; batches the
        apportionment leaves empty (e.g. the tail of a short frontloaded
        stream) are skipped rather than emitted, since an
        :class:`~repro.kg.updates.UpdateBatch` must hold at least one triple.
        """
        for size in batch_schedule(total_updates, num_batches, pattern):
            if size > 0:
                yield self.generate_batch(size, accuracy)

    def generate_deletion_batch(
        self,
        candidates: Sequence[Triple],
        num_deletions: int,
        batch_id: str | None = None,
    ) -> DeletionBatch:
        """Pick distinct triples to delete from ``candidates``.

        Triples this generator has already marked for deletion are excluded
        from the candidate pool, so a deletion workload produced by a single
        generator never deletes the same triple twice — even when the caller
        passes overlapping candidate lists across batches.  When fewer than
        ``num_deletions`` eligible candidates remain, the batch simply shrinks
        (possibly to empty).
        """
        if num_deletions < 0:
            raise ValueError(f"num_deletions must be non-negative, got {num_deletions}")
        if batch_id is None:
            batch_id = f"delete-{self._next_deletion_index}"
        self._next_deletion_index += 1
        eligible = [triple for triple in candidates if triple not in self._deleted]
        count = min(num_deletions, len(eligible))
        if count > 0:
            chosen_indices = self._rng.choice(len(eligible), size=count, replace=False)
            chosen = tuple(eligible[int(index)] for index in chosen_indices)
        else:
            chosen = ()
        self._deleted.update(chosen)
        return DeletionBatch(batch_id, chosen)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    @staticmethod
    def split_base(
        labelled: LabelledKG, fraction: float, seed: int | np.random.Generator | None = None
    ) -> LabelledKG:
        """Return a labelled subset of ``labelled`` holding ``fraction`` of its triples.

        The paper's evolving experiments use a 50 % random subset of MOVIE as
        the base KG; this helper builds such a base while keeping the original
        oracle (which still covers the subset's triples).
        """
        rng = np.random.default_rng(seed)
        subset_graph = labelled.graph.random_triple_subset(fraction, rng)
        return LabelledKG(subset_graph, labelled.oracle)
