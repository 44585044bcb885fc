"""Property-based tests (hypothesis) for the update-workload generator.

Invariants that must hold for any workload shape, not just the scenario
packs' parameters:

* :func:`batch_schedule` conserves the total update count exactly for every
  pattern, emits one non-negative size per batch, and is a pure function of
  its arguments;
* :class:`UpdateWorkloadGenerator` is deterministic under a fixed seed —
  batches, labels and deletion picks reproduce bit-for-bit;
* a single generator never deletes the same triple twice, even across
  overlapping candidate lists, and deletion batches shrink (possibly to
  empty) rather than over-draw when candidates run out;
* scheduled sequences apply exactly the requested update mass.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.datasets import LabelledKG
from repro.generators.workload import (
    SCHEDULE_PATTERNS,
    UpdateWorkloadGenerator,
    batch_schedule,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.labels.oracle import LabelOracle

patterns = st.sampled_from(SCHEDULE_PATTERNS)


@lru_cache(maxsize=1)
def small_base() -> LabelledKG:
    """A tiny immutable base KG shared by all examples (generators copy state)."""
    triples = [
        Triple(f"base_{cluster}", "p", f"o{index}")
        for cluster in range(6)
        for index in range(cluster + 1)
    ]
    graph = KnowledgeGraph(triples, name="workload-prop-base")
    return LabelledKG(graph, LabelOracle({triple: True for triple in triples}))


def batch_fingerprint(batch) -> tuple:
    # Every column, labels and entity flags included, is part of the identity.
    return (
        batch.batch_id,
        tuple(batch.subjects),
        tuple(batch.predicates),
        tuple(batch.objects),
        batch.entity_objects,
        batch.labels,
    )


# ---------------------------------------------------------------------------
# batch_schedule
# ---------------------------------------------------------------------------


@given(
    total=st.integers(min_value=1, max_value=5000),
    num_batches=st.integers(min_value=1, max_value=50),
    pattern=patterns,
)
def test_schedule_conserves_total_updates(total, num_batches, pattern):
    sizes = batch_schedule(total, num_batches, pattern)
    assert len(sizes) == num_batches
    assert all(size >= 0 for size in sizes)
    assert sum(sizes) == total


@given(
    total=st.integers(min_value=1, max_value=1000),
    num_batches=st.integers(min_value=1, max_value=20),
    pattern=patterns,
)
def test_schedule_is_pure(total, num_batches, pattern):
    assert batch_schedule(total, num_batches, pattern) == batch_schedule(
        total, num_batches, pattern
    )


@given(total=st.integers(min_value=10, max_value=2000))
def test_bursty_spikes_dominate_quiet_batches(total):
    sizes = batch_schedule(total, 9, "bursty")
    spikes = sizes[0::3]
    quiet = [size for index, size in enumerate(sizes) if index % 3 != 0]
    assert min(spikes) >= max(quiet)


@given(total=st.integers(min_value=8, max_value=2000), num_batches=st.integers(2, 16))
def test_frontloaded_sizes_never_increase(total, num_batches):
    sizes = batch_schedule(total, num_batches, "frontloaded")
    assert all(left >= right for left, right in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# Determinism under a fixed seed
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    total=st.integers(min_value=4, max_value=120),
    num_batches=st.integers(min_value=1, max_value=6),
    accuracy=st.floats(min_value=0.0, max_value=1.0),
    pattern=patterns,
)
def test_scheduled_sequence_deterministic_under_seed(seed, total, num_batches, accuracy, pattern):
    def run():
        generator = UpdateWorkloadGenerator(small_base(), seed=seed)
        return [
            batch_fingerprint(batch)
            for batch in generator.generate_scheduled_sequence(
                total, num_batches, accuracy, pattern
            )
        ]

    assert run() == run()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    total=st.integers(min_value=4, max_value=120),
    num_batches=st.integers(min_value=1, max_value=6),
    pattern=patterns,
)
def test_scheduled_sequence_conserves_total(seed, total, num_batches, pattern):
    generator = UpdateWorkloadGenerator(small_base(), seed=seed)
    emitted = sum(
        batch.size
        for batch in generator.generate_scheduled_sequence(total, num_batches, 0.8, pattern)
    )
    assert emitted == total


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_deletions_deterministic_under_seed(seed):
    candidates = list(small_base().graph)

    def run():
        generator = UpdateWorkloadGenerator(small_base(), seed=seed)
        return [generator.generate_deletion_batch(candidates, 4).triples for _ in range(4)]

    assert run() == run()


# ---------------------------------------------------------------------------
# Never delete the same triple twice
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    per_batch=st.integers(min_value=0, max_value=9),
    num_batches=st.integers(min_value=1, max_value=8),
)
def test_never_deletes_twice_across_overlapping_candidates(seed, per_batch, num_batches):
    base = small_base()
    generator = UpdateWorkloadGenerator(base, seed=seed)
    candidates = list(base.graph)
    seen: set[Triple] = set()
    for _ in range(num_batches):
        batch = generator.generate_deletion_batch(candidates, per_batch)
        chosen = set(batch.triples)
        # Distinct within the batch, and disjoint from everything already deleted.
        assert len(chosen) == batch.size
        assert not chosen & seen
        assert chosen <= set(candidates)
        seen |= chosen
    assert len(seen) <= len(candidates)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_deletion_batches_shrink_when_pool_runs_dry(seed):
    base = small_base()
    generator = UpdateWorkloadGenerator(base, seed=seed)
    candidates = list(base.graph)
    total = len(candidates)
    first = generator.generate_deletion_batch(candidates, total - 3)
    second = generator.generate_deletion_batch(candidates, total)
    third = generator.generate_deletion_batch(candidates, 5)
    assert first.size == total - 3
    assert second.size == 3  # only the leftovers remain
    assert third.size == 0  # pool exhausted: empty batch, no error
    assert not (set(first.triples) & set(second.triples))
