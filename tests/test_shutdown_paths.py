"""Shutdown/cleanup paths: worker connection errors.

A worker's ``_serve_connection`` catches exactly the *expected* failure pair
(``OSError`` for every socket condition, ``RPCError`` for protocol
malformations), counts and logs it — while a genuine worker-side bug
propagates instead of being swallowed by the old bare ``except``.

Everything runs in-process with socketpairs: tier-1 safe.
"""

from __future__ import annotations

import socket

import pytest

from repro.obs import metrics as obs_metrics
from repro.sampling import rpc
from repro.storage.distribute import SnapshotCache


# --------------------------------------------------------------------------- #
# _serve_connection error discipline
# --------------------------------------------------------------------------- #
def test_conn_error_is_counted_and_contained(tmp_path):
    """A peer that vanishes pre-handshake is an expected, metered drop."""
    ours, theirs = socket.socketpair()
    theirs.close()  # the first challenge write dies with an OSError
    before = obs_metrics.counter("rpc_conn_errors_total").value
    rpc._serve_connection(ours, SnapshotCache(tmp_path), b"secret", 0.0, None)
    assert obs_metrics.counter("rpc_conn_errors_total").value == before + 1
    assert ours.fileno() == -1  # the connection was closed on the way out


def test_protocol_garbage_is_an_expected_conn_error(tmp_path):
    """Bytes failing the codec surface as RPCError: contained, not raised."""
    ours, theirs = socket.socketpair()
    with theirs:
        theirs.sendall(b"\x00" * 64)  # not a valid frame header
        theirs.shutdown(socket.SHUT_WR)
        before = obs_metrics.counter("rpc_conn_errors_total").value
        rpc._serve_connection(ours, SnapshotCache(tmp_path), b"secret", 0.0, None)
        assert obs_metrics.counter("rpc_conn_errors_total").value == before + 1


def test_genuine_bugs_propagate_out_of_serve_connection(tmp_path, monkeypatch):
    """The old bare ``except Exception: return`` is gone: a worker-side bug
    (anything outside OSError/RPCError) escapes to the caller."""

    def buggy_handshake(conn, cache, secret):
        raise RuntimeError("worker-side bug")

    monkeypatch.setattr(rpc, "_handshake_server", buggy_handshake)
    ours, theirs = socket.socketpair()
    with theirs:
        with pytest.raises(RuntimeError, match="worker-side bug"):
            rpc._serve_connection(ours, SnapshotCache(tmp_path), b"secret", 0.0, None)
