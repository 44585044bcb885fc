"""The batched Floyd pass draws what one RNG call per slot draws, bit for bit.

``_floyd_sample_batch`` makes one ``rng.integers`` call for all ``cap`` slots
of every cluster, its bounds laid out slot-major.  The reference here is the
loop it replaced: one call per slot, each followed by that slot's collision
pass.  Both must return the same picks and leave the generator in the same
state, its buffered 32-bit half included, whether that half starts full or
empty and with other draws in between.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kg.graph import _floyd_sample_batch


def floyd_per_slot(sizes: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Floyd's algorithm with one ``rng.integers`` call per slot."""
    base = np.asarray(sizes, dtype=np.int64) - cap
    picks = np.empty((base.shape[0], cap), dtype=np.int64)
    for j in range(cap):
        t = rng.integers(0, base + j + 1)
        if j:
            collision = (picks[:, :j] == t[:, None]).any(axis=1)
            t = np.where(collision, base + j, t)
        picks[:, j] = t
    return picks


@settings(max_examples=300, deadline=None)
@example(cap=3, extra=[5, 9, 2], seed=1, buffered=True, between=[1])
@given(
    cap=st.integers(1, 8),
    extra=st.lists(st.integers(1, 60), min_size=1, max_size=40),
    seed=st.integers(0, 2**63),
    buffered=st.booleans(),
    between=st.lists(st.integers(0, 3), min_size=1, max_size=4),
)
def test_one_call_draws_what_one_call_per_slot_draws(cap, extra, seed, buffered, between):
    sizes = cap + np.array(extra, dtype=np.int64)
    reference, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (reference, batched):
        if buffered:
            # A bounded 64-bit draw under 2**32 takes half of one output and
            # keeps the other half buffered for the next such draw.
            rng.integers(0, 1000)
        assert rng.bit_generator.state["has_uint32"] == int(buffered)
    for uniforms in between:
        expected = floyd_per_slot(sizes, cap, reference)
        observed = _floyd_sample_batch(sizes, cap, batched)
        assert observed.dtype == expected.dtype and observed.shape == expected.shape
        assert (observed == expected).all()
        assert batched.bit_generator.state == reference.bit_generator.state
        # Uniform doubles use whole outputs and leave the buffered half alone.
        assert (batched.random(uniforms) == reference.random(uniforms)).all()
    assert batched.bit_generator.state == reference.bit_generator.state


def test_picks_are_distinct_offsets_within_each_cluster():
    rng = np.random.default_rng(7)
    sizes = rng.integers(9, 30, 500)
    picks = _floyd_sample_batch(sizes, 8, rng)
    assert ((picks >= 0) & (picks < sizes[:, None])).all()
    ordered = np.sort(picks, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()
