"""Shutdown/cleanup paths: serve connection errors.

The daemon's ``_serve_connection`` catches exactly the *expected* failure
pair (``OSError`` for every socket condition, ``RPCError`` for protocol
malformations), counts and logs it — while a genuine daemon-side bug
propagates instead of being swallowed by a bare ``except``.

Everything runs in-process with socketpairs: tier-1 safe.
"""

from __future__ import annotations

import socket

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.server import EvalServer


def _conn_errors() -> float:
    return obs_metrics.counter("serve_conn_errors_total").value


# --------------------------------------------------------------------------- #
# _serve_connection error discipline
# --------------------------------------------------------------------------- #
def test_conn_error_is_counted_and_contained():
    """A peer that vanishes pre-handshake is an expected, metered drop."""
    ours, theirs = socket.socketpair()
    theirs.close()  # the first challenge write dies with an OSError
    before = _conn_errors()
    EvalServer(secret=b"secret")._serve_connection(ours, "peer")
    assert _conn_errors() == before + 1
    assert ours.fileno() == -1  # the connection was closed on the way out


def test_protocol_garbage_is_an_expected_conn_error():
    """Bytes failing the codec surface as RPCError: contained, not raised."""
    ours, theirs = socket.socketpair()
    with theirs:
        theirs.sendall(b"\x00" * 64)  # not a valid frame header
        theirs.shutdown(socket.SHUT_WR)
        before = _conn_errors()
        EvalServer(secret=b"secret")._serve_connection(ours, "peer")
        assert _conn_errors() == before + 1


def test_genuine_bugs_propagate_out_of_serve_connection(monkeypatch):
    """A daemon-side bug (anything outside OSError/RPCError) escapes to the
    caller instead of being counted as a connection error."""

    def buggy_handshake(conn, secret):
        raise RuntimeError("daemon-side bug")

    monkeypatch.setattr(protocol, "server_handshake", buggy_handshake)
    ours, theirs = socket.socketpair()
    with theirs:
        with pytest.raises(RuntimeError, match="daemon-side bug"):
            EvalServer(secret=b"secret")._serve_connection(ours, "peer")
