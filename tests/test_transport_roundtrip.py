"""Round-trip properties of the serve transport.

:func:`~repro.sampling.rpc.send_message` / :func:`~repro.sampling.rpc.recv_message`
move one CRC-checked wire frame over a connected socket; the serve
protocol's correctness reduces to ``recv ∘ send == id`` on what crosses
it — submitted batches (Triples + labels), round results (an
EvaluationReport and a MonitorRecord) and live RNG state.  Hypothesis drives
randomized values through a loopback socket pair.
"""

from __future__ import annotations

import socket

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from serve_helpers import replies, submits

from repro.core.result import EvaluationReport
from repro.evolving.monitor import MonitorRecord
from repro.sampling.rpc import recv_message, send_message
from repro.serve.protocol import MAX_REQUEST_BYTES


def _roundtrip(value):
    first, second = socket.socketpair()
    with first, second:
        send_message(first, value)
        return recv_message(second, limit=MAX_REQUEST_BYTES)


@given(message=submits())
def test_task_roundtrip_is_identity(message):
    decoded = _roundtrip(message)
    assert decoded == message
    assert [triple.is_entity_object for triple in decoded["triples"]] == [
        triple.is_entity_object for triple in message["triples"]
    ]


@given(message=replies())
def test_result_roundtrip_is_identity(message):
    decoded = _roundtrip(message)
    assert decoded == message
    assert isinstance(decoded["report"], EvaluationReport)
    assert isinstance(decoded["record"], MonitorRecord)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    advance=st.integers(min_value=0, max_value=64),
)
def test_roundtrip_preserves_draw_behaviour(seed, advance):
    """A received generator state or seed sequence resumes the *same* stream."""
    original = np.random.default_rng(seed)
    original.integers(0, 100, size=advance)
    restored = np.random.default_rng()
    restored.bit_generator.state = _roundtrip(original.bit_generator.state)
    np.testing.assert_array_equal(
        original.integers(0, 1 << 30, size=8), restored.integers(0, 1 << 30, size=8)
    )
    sequence = np.random.SeedSequence(seed).spawn(2)[1]
    received = _roundtrip(sequence)
    np.testing.assert_array_equal(received.generate_state(4), sequence.generate_state(4))
