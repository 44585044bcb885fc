"""The serve daemon's request path under failing rounds and vanishing peers.

A round that raises inside the daemon is a bug, not a transient fault: the
client gets a typed error at once and the session stops taking batches.  A
peer that disappears — a client mid-exchange, or the daemon after its last
reply — costs its own connection and nothing else.
"""

from __future__ import annotations

import socket

import pytest
from serve_helpers import SECRET, ScriptedDaemon, spec, wait_for, workload

from repro.generators.datasets import LabelledKG, make_nell_like
from repro.obs import metrics as obs_metrics
from repro.sampling import wire
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import EvalServer


@pytest.fixture(scope="module")
def base():
    data = make_nell_like(seed=0)
    return LabelledKG(data.graph.to_columnar(), data.oracle)


@pytest.fixture()
def server():
    server = EvalServer(port=0, secret=SECRET, queue_limit=8)
    server.start()
    yield server
    server.shutdown(drain=True)


def _client(address: str) -> ServeClient:
    return ServeClient(address, secret=SECRET, connect_retries=1)


@pytest.mark.timeout(300)
def test_remote_task_failure_raises_instead_of_retrying(server, base, monkeypatch):
    """A round that *raises* in the daemon fails its session, once."""
    batches = workload(base)
    with _client(server.address) as client:
        client.attach(spec("ss"), session="broken")
        calls = []

        def failing_update(batch):
            calls.append(batch.batch_id)
            raise RuntimeError("evaluator bug")

        monkeypatch.setattr(server._sessions["broken"].monitor, "apply_update", failing_update)
        with pytest.raises(ServeRequestError) as excinfo:
            client.submit_batch("broken", batches[0])
        assert excinfo.value.code == "round_failed"
        assert "RuntimeError: evaluator bug" in str(excinfo.value)
        with pytest.raises(ServeRequestError) as excinfo:
            client.submit_batch("broken", batches[1])
        assert excinfo.value.code == "session_failed"
        assert calls == [batches[0].batch_id]
        reply = client.estimate("broken")
        assert reply["failed"] == "RuntimeError: evaluator bug"
        assert reply["num_records"] == 1


@pytest.mark.timeout(60)
def test_close_is_idempotent_and_tolerates_nodes_dead_after_last_result():
    """close() survives a daemon that vanished right after its last reply,
    and may be called again."""
    daemon = ScriptedDaemon(SECRET, [wire.encode_frame({"op": "sessions", "entries": []})])
    client = _client(daemon.address)
    assert client.sessions() == {"op": "sessions", "entries": []}
    daemon.join()
    client.close()
    client.close()


@pytest.mark.timeout(120)
def test_worker_survives_a_master_that_vanishes_mid_exchange(server):
    """Clients that vanish mid-handshake, mid-frame or before reading their
    reply must not take the daemon down."""
    host, port = server.address.rsplit(":", 1)
    errors = obs_metrics.counter("serve_conn_errors_total")
    before = errors.value
    # Read the challenge, then hang up without answering it.
    with socket.create_connection((host, int(port)), timeout=30) as raw:
        raw.recv(64)
    # Authenticate, then hang up halfway through a request frame.
    with socket.create_connection((host, int(port)), timeout=30) as raw:
        protocol.client_handshake(raw, SECRET)
        frame = wire.encode_frame({"op": "sessions"})
        raw.sendall(frame[: len(frame) // 2])
    # Send a whole request, then hang up before the reply is read.
    with socket.create_connection((host, int(port)), timeout=30) as raw:
        protocol.client_handshake(raw, SECRET)
        raw.sendall(wire.encode_frame({"op": "sessions"}))
    assert wait_for(lambda: errors.value >= before + 1)  # the half frame
    with _client(server.address) as client:
        client.attach(spec("ss"), session="after")
        assert client.estimate("after")["num_records"] == 1
