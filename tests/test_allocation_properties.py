"""Property-based tests for the deterministic draw-allocation core.

``largest_remainder`` sits under every stratified design's per-round
allocation (``proportional_allocation``), so its invariants are
load-bearing for the determinism contract: totals must be preserved
exactly, ties must break stably (first index wins), and degenerate weight
vectors must collapse to all-zeros instead of leaking draws.
``deficit_allocation`` splits a round with fewer draws than strata, and
must reach every positive-share stratum over repeated rounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.allocation import (
    deficit_allocation,
    largest_remainder,
    proportional_allocation,
)

_weights = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@given(weights=_weights, total=st.integers(min_value=0, max_value=10_000))
def test_sum_preservation(weights, total):
    """Every draw is handed out iff the weight vector carries any mass."""
    allocation = largest_remainder(weights, total)
    assert allocation.dtype == np.int64
    assert allocation.shape == (len(weights),)
    assert np.all(allocation >= 0)
    if total > 0 and sum(weights) > 0:
        assert int(allocation.sum()) == total
    else:
        assert int(allocation.sum()) == 0


@given(weights=_weights, total=st.integers(min_value=0, max_value=10_000))
def test_zero_weight_entries_receive_nothing(weights, total):
    allocation = largest_remainder(weights, total)
    for weight, share in zip(weights, allocation):
        if weight == 0.0:
            assert share == 0


@given(weights=_weights, total=st.integers(min_value=0, max_value=10_000))
def test_deterministic(weights, total):
    """Same inputs, same split — repeated and under array/list input forms."""
    first = largest_remainder(weights, total)
    second = largest_remainder(np.asarray(weights, dtype=float), total)
    np.testing.assert_array_equal(first, second)


@given(
    count=st.integers(min_value=2, max_value=10),
    total=st.integers(min_value=1, max_value=1_000),
)
def test_stable_tie_break_prefers_earlier_entries(count, total):
    """Equal weights with equal remainders: leftovers go to the lowest indices."""
    allocation = largest_remainder([1.0] * count, total)
    base, leftover = divmod(total, count)
    expected = np.full(count, base, dtype=np.int64)
    expected[:leftover] += 1
    np.testing.assert_array_equal(allocation, expected)


def test_negative_or_empty_mass_yields_zeros():
    """Degenerate edges: no mass (or negative total) must allocate nothing."""
    np.testing.assert_array_equal(largest_remainder([0.0, 0.0], 10), [0, 0])
    np.testing.assert_array_equal(largest_remainder([-1.0, -2.0], 10), [0, 0])
    np.testing.assert_array_equal(largest_remainder([1.0, 2.0], 0), [0, 0])
    np.testing.assert_array_equal(largest_remainder([1.0, 2.0], -5), [0, 0])
    # A net-negative weight sum is degenerate even with positive entries mixed in.
    np.testing.assert_array_equal(largest_remainder([3.0, -4.0], 7), [0, 0])


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    total=st.integers(min_value=0, max_value=1_000),
)
def test_proportional_allocation_agrees_on_sum_and_minimums(weights, total):
    """The stratum-facing wrapper preserves the total and the ≥1 guarantee."""
    allocation = proportional_allocation(weights, total)
    assert sum(allocation) == (total if total > 0 else 0)
    if total >= len(weights):
        # Donor-based minimum: every positive-weight stratum eventually draws,
        # unless no donor stratum can spare a draw.
        assert all(share >= 0 for share in allocation)


@given(
    shares=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
    data=st.data(),
)
def test_deficit_allocation_reaches_every_stratum(shares, data):
    """Rounds of fewer draws than strata, fed back, draw every stratum again and again."""
    per_round = data.draw(st.integers(min_value=1, max_value=len(shares) - 1))
    drawn = [0] * len(shares)
    # Generous: a stratum is passed over for at most about
    # sum(shares) / (min(shares) * per_round) rounds in a row.
    rounds = 20 * (sum(shares) // (min(shares) * per_round) + len(shares))
    for _ in range(rounds):
        allocation = deficit_allocation(shares, drawn, per_round)
        assert sum(allocation) == per_round and set(allocation) <= {0, 1}
        drawn = [count + extra for count, extra in zip(drawn, allocation)]
    assert min(drawn) >= 2


@given(
    shares=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=8),
    drawn=st.lists(st.integers(min_value=0, max_value=50), min_size=8, max_size=8),
    data=st.data(),
)
def test_deficit_allocation_draws_the_strata_furthest_behind(shares, drawn, data):
    """One draw each to the entries furthest below their share, lower index first."""
    drawn = drawn[: len(shares)]
    per_round = data.draw(st.integers(min_value=0, max_value=len(shares)))
    allocation = deficit_allocation(shares, drawn, per_round)
    total, after = sum(shares), sum(drawn) + per_round
    behind = [share / total * after - count for share, count in zip(shares, drawn)]
    chosen = [index for index, extra in enumerate(allocation) if extra]
    assert len(chosen) == per_round and set(allocation) <= {0, 1}
    for index, extra in enumerate(allocation):
        if not extra:
            # Nothing left out falls further behind, or as far at a lower index.
            assert all(
                behind[pick] > behind[index] or (behind[pick] == behind[index] and pick < index)
                for pick in chosen
            )
