"""Fault injection on the authenticated serve wire.

Every scenario wedges a fault into a real client ↔ daemon exchange —
wrong-secret connects, a corrupted request frame, a truncated reply,
slow fragmented replies — and asserts one of the two permitted outcomes:

* the session **replays bit-identically** against the pinned golden
  trajectory (``tests/golden/evolving_ss.json``), or
* a **typed error** (:class:`RPCError` / :class:`RPCAuthError`) surfaces.

Never a hang (``timeout`` markers), never a half-applied batch.
Everything runs in-process over loopback sockets.
"""

from __future__ import annotations

import socket

import pytest
from serve_helpers import (
    SECRET,
    ScriptedDaemon,
    SlowReplyProxy,
    golden_payload,
    spec,
    wait_for,
    workload,
)

from repro.generators.datasets import LabelledKG, make_nell_like
from repro.obs import metrics as obs_metrics
from repro.sampling import wire
from repro.sampling.rpc import RPCAuthError, RPCError, load_secret_file
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


@pytest.mark.timeout(60)
@pytest.mark.parametrize(
    "server_secret, client_secret",
    [("alpha", "beta"), ("alpha", None), (None, "beta")],
)
def test_wrong_secret_is_rejected_before_any_task_bytes(server_secret, client_secret):
    """Auth mismatch (either direction) is a typed error with zero work done."""
    daemon = EvalServer(port=0, secret=server_secret, queue_limit=8)
    daemon.start()
    try:
        failures = obs_metrics.counter("serve_auth_failures_total")
        before = failures.value
        with pytest.raises(RPCAuthError):
            ServeClient(daemon.address, secret=client_secret, connect_retries=1)
        assert wait_for(lambda: failures.value == before + 1)
        # Nothing reached the dispatcher, and the daemon still serves a
        # client that holds its secret.
        with ServeClient(daemon.address, secret=server_secret, connect_retries=1) as client:
            assert client.sessions()["entries"] == []
    finally:
        daemon.shutdown(drain=True)


@pytest.mark.timeout(300)
def test_matching_secret_serves_the_golden_trajectory(base, golden, tmp_path):
    """The positive auth path: a secret file on one side, the same secret as a
    string on the other, and a bit-identical session."""
    secret_file = tmp_path / "serve.secret"
    secret_file.write_text("s3cr3t\n")
    daemon = EvalServer(port=0, secret=load_secret_file(secret_file), queue_limit=8)
    daemon.start()
    try:
        with ServeClient(daemon.address, secret="s3cr3t", connect_retries=1) as client:
            client.attach(spec("ss"), session="authed")
            for batch in workload(base):
                client.submit_batch("authed", batch)
            entries = client.trajectory("authed")["entries"]
    finally:
        daemon.shutdown(drain=True)
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.timeout(60)
def test_truncated_frame_with_no_survivor_raises_typed_error():
    """A reply cut off mid-frame by a vanishing daemon is a typed RPCError."""
    reply = wire.encode_frame({"op": "sessions", "entries": []})
    daemon = ScriptedDaemon(SECRET, [reply[:-3]])
    client = ServeClient(daemon.address, secret=SECRET, connect_retries=1)
    try:
        with pytest.raises(RPCError, match="mid-frame") as excinfo:
            client.sessions()
        assert not isinstance(excinfo.value, ServeRequestError)
    finally:
        client.close()
        daemon.join()


@pytest.mark.timeout(300)
def test_corrupted_task_frame_is_caught_by_crc_and_replayed(server, base, golden):
    """A submit with a flipped byte dies on the frame CRC before the evaluator
    sees it; submitting the batch again replays the golden trajectory."""
    batches = workload(base)
    with ServeClient(server.address, secret=SECRET, connect_retries=1) as client:
        client.attach(spec("ss"), session="crc")
        batch = batches[0]
        frame = bytearray(
            wire.encode_frame(
                {
                    "op": "submit",
                    "session": "crc",
                    "batch_id": batch.batch_id,
                    "subjects": list(batch.subjects),
                    "predicates": list(batch.predicates),
                    "objects": list(batch.objects),
                    "entity_objects": batch.entity_objects,
                    "labels": batch.labels,
                    "wait": True,
                }
            )
        )
        frame[-2] ^= 0x5A  # a payload byte: the CRC check must catch it
        errors = obs_metrics.counter("serve_conn_errors_total")
        before = errors.value
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as raw:
            protocol.client_handshake(raw, SECRET)
            raw.sendall(bytes(frame))
            assert raw.recv(1) == b""  # the daemon drops the connection
        assert errors.value == before + 1
        reply = client.estimate("crc")
        assert reply["num_records"] == 1 and reply["pending"] == 0
        for batch in batches:
            client.submit_batch("crc", batch)
        entries = client.trajectory("crc")["entries"]
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.timeout(300)
def test_delayed_replies_stay_bit_identical(server, base, golden):
    """Replies that arrive late and in 7-byte fragments change nothing but
    wall-clock time."""
    proxy = SlowReplyProxy(server.address)
    try:
        with ServeClient(proxy.address, secret=SECRET, connect_retries=1) as client:
            client.attach(spec("ss"), session="slow")
            for batch in workload(base):
                client.submit_batch("slow", batch)
            entries = client.trajectory("slow")["entries"]
    finally:
        proxy.close()
    golden.check("evolving_ss", golden_payload(entries))
