"""The ``repro serve`` daemon: golden replay, caching, backpressure, drain.

The load-bearing test is the golden replay: a session driven through the
loopback daemon — attach, submit batches over the authenticated wire, read
the trajectory back — must reproduce ``tests/golden/evolving_*.json``
**byte-for-byte**, including after a drain/restart cycle in the middle of
the stream.  The daemon is transport, not math: it may never shift a
trajectory.

Everything here runs in-process (threads + loopback sockets, no worker
subprocesses), so the module is part of the tier-1 leg.
"""

from __future__ import annotations

import pytest
from serve_helpers import SECRET, golden_payload, spec, workload

from repro.generators.datasets import LabelledKG, make_nell_like
from repro.obs import metrics as obs_metrics
from repro.sampling.rpc import RPCAuthError
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


def _client(server) -> ServeClient:
    return ServeClient(server.address, secret=SECRET, connect_retries=1)


# --------------------------------------------------------------------------- #
# The contract: served trajectories == offline `repro monitor` goldens
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["rs", "ss"])
@pytest.mark.timeout(300)
def test_served_trajectory_replays_golden(server, base, golden, kind):
    with _client(server) as client:
        client.attach(spec(kind), session=kind)
        for batch, oracle in workload(base):
            client.submit_batch(kind, batch, oracle)
        entries = client.trajectory(kind)["entries"]
    golden.check(f"evolving_{kind}", golden_payload(entries))


@pytest.mark.timeout(300)
def test_resume_after_drain_replays_golden(base, golden, tmp_path):
    """Drain mid-stream, restart on the same state dir, finish: still golden."""
    state_dir = tmp_path / "state"
    batches = workload(base)

    first = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    first.start()
    with _client(first) as client:
        client.attach(spec("ss"), session="resumed")
        client.submit_batch("resumed", *batches[0])
    first.shutdown(drain=True)
    assert (state_dir / "resumed.ckpt").is_file()

    second = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    second.start()
    try:
        with _client(second) as client:
            # Re-attaching the resumed session with the same spec is
            # idempotent — no new evaluator, no extra base round.
            reply = client.attach(spec("ss"), session="resumed")
            assert reply["resumed"] is True
            assert reply["num_records"] == 2
            client.submit_batch("resumed", *batches[1])
            entries = client.trajectory("resumed")["entries"]
    finally:
        second.shutdown(drain=True)
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.timeout(300)
def test_reattach_with_different_spec_is_refused(server):
    with _client(server) as client:
        client.attach(spec("ss"), session="pinned")
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(spec("rs"), session="pinned")
        assert excinfo.value.code == "spec_mismatch"


# --------------------------------------------------------------------------- #
# estimate is an O(1) cached read
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_estimate_is_cached_read(server, base):
    with _client(server) as client:
        client.attach(spec("ss"), session="cached")
        batch, oracle = workload(base)[0]
        client.submit_batch("cached", batch, oracle)
        before = obs_metrics.counter("serve_estimate_cache_hits_total").value
        replies = [client.estimate("cached") for _ in range(10)]
        after = obs_metrics.counter("serve_estimate_cache_hits_total").value
    # Every read served from the cache, none enqueued work, all identical.
    assert after - before == 10
    assert all(reply["pending"] == 0 for reply in replies)
    assert all(reply["num_records"] == 2 for reply in replies)
    first = replies[0]["latest"]["record"]
    for reply in replies[1:]:
        assert reply["latest"]["record"] == first


# --------------------------------------------------------------------------- #
# Backpressure, polling, detach discipline
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_full_admission_queue_rejects_submit(base):
    server = EvalServer(port=0, secret=SECRET, queue_limit=1)
    # Pausing before start() parks the eval worker before it can dequeue
    # anything, so the single queue slot deterministically stays occupied.
    server.pause()
    server.start()
    try:
        with _client(server) as client:
            client.attach(spec("ss"), session="bp", wait=False)
            batch, oracle = workload(base)[0]
            with pytest.raises(ServeRequestError) as excinfo:
                client.submit_batch("bp", batch, oracle, wait=False)
            assert excinfo.value.code == "backpressure"
            server.resume()
            # The queued base round still completes after the pressure clears.
            reply = client.poll("bp", min_records=1, timeout=120.0)
            assert reply["satisfied"] is True
            assert obs_metrics.counter("serve_backpressure_total").value >= 1
    finally:
        server.shutdown(drain=True)


@pytest.mark.timeout(300)
def test_poll_waits_for_threshold(server, base):
    with _client(server) as client:
        client.attach(spec("ss"), session="poller")
        batch, oracle = workload(base)[0]
        client.submit_batch("poller", batch, oracle, wait=False)
        reply = client.poll("poller", min_records=2, timeout=120.0)
        assert reply["satisfied"] is True
        assert reply["num_records"] >= 2
        # An unreachable threshold times out without failing the session.
        reply = client.poll("poller", min_records=99, timeout=0.2)
        assert reply["satisfied"] is False
        assert reply["failed"] is None


@pytest.mark.timeout(300)
def test_detach_drops_session(server):
    with _client(server) as client:
        client.attach(spec("ss"), session="gone")
        assert client.detach("gone")["session"] == "gone"
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("gone")
        assert excinfo.value.code == "bad_request"
        assert not any(
            entry["session"] == "gone" for entry in client.sessions()["entries"]
        )


# --------------------------------------------------------------------------- #
# Authentication and admission control
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(60)
def test_wrong_secret_is_rejected(server):
    with pytest.raises(RPCAuthError):
        ServeClient(server.address, secret=b"not-the-secret", connect_retries=1)


@pytest.mark.timeout(300)
def test_draining_server_refuses_new_work(server):
    with _client(server) as client:
        client.attach(spec("ss"), session="late")
        server._stopping.set()  # what SIGTERM sets, before the drain proper
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(spec("ss"), session="too-late")
        assert excinfo.value.code == "draining"


# --------------------------------------------------------------------------- #
# Malformed input gets a typed error, never a dropped connection
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "request_fields, field",
    [
        ({"op": "attach", "spec": {**spec("ss"), "moe": None}}, "spec.moe"),
        ({"op": "attach", "spec": {**spec("ss"), "dataset_seed": [1]}}, "spec.dataset_seed"),
        ({"op": "attach", "spec": {**spec("ss"), "engine": {"shards": 2}}}, "engine"),
        ({"op": "poll", "min_records": 1, "timeout": None}, "timeout"),
        ({"op": "poll", "min_records": [1]}, "min_records"),
        ({"op": "poll", "moe_below": {}}, "moe_below"),
    ],
    ids=[
        "attach-moe-none",
        "attach-dataset-seed-list",
        "attach-engine",
        "poll-timeout-none",
        "poll-min-records-list",
        "poll-moe-below-dict",
    ],
)
@pytest.mark.timeout(300)
def test_mistyped_request_fields_get_bad_request(server, request_fields, field):
    with _client(server) as client:
        client.attach(spec("ss"), session="typed")
        message = {"session": "typed", **request_fields}
        with pytest.raises(ServeRequestError) as excinfo:
            client._request(message)
        assert excinfo.value.code == "bad_request"
        assert field in str(excinfo.value)
        # The same connection keeps serving.
        assert client.estimate("typed")["num_records"] == 1


@pytest.mark.timeout(60)
def test_client_cli_reports_a_wrong_secret_in_one_line(server, tmp_path, capsys):
    from repro.cli import main

    secret_file = tmp_path / "wrong.secret"
    secret_file.write_bytes(b"not-the-secret")
    code = main(
        ["client", "sessions", "--connect", server.address, "--secret-file", str(secret_file)]
    )
    assert code == 1
    assert capsys.readouterr().out == "serve error: serve daemon rejected the shared secret\n"


# --------------------------------------------------------------------------- #
# Fault injection: a bad frame costs its own connection, nothing else
# --------------------------------------------------------------------------- #
def _truncated(frame: bytes) -> bytes:
    return frame[: len(frame) - 3]


def _corrupted(frame: bytes) -> bytes:
    flipped = bytearray(frame)
    flipped[-2] ^= 0x5A  # a payload byte: the CRC check must catch it
    return bytes(flipped)


@pytest.mark.parametrize("damage", [_truncated, _corrupted], ids=["truncated", "corrupted"])
@pytest.mark.timeout(300)
def test_bad_frame_drops_only_its_connection(server, base, golden, damage):
    import socket

    from repro.sampling import wire
    from repro.serve import protocol

    batches = workload(base)
    with _client(server) as client:
        client.attach(spec("ss"), session="bystander")
        client.submit_batch("bystander", *batches[0])

        host, port = server.address.rsplit(":", 1)
        before = obs_metrics.counter("serve_conn_errors_total").value
        with socket.create_connection((host, int(port)), timeout=30) as raw:
            protocol.client_handshake(raw, SECRET)
            frame = wire.encode_frame({"op": "estimate", "session": "bystander"})
            raw.sendall(damage(frame))
            raw.shutdown(socket.SHUT_WR)
            # The daemon closes its end once it has counted the error.
            assert raw.recv(1) == b""
        assert obs_metrics.counter("serve_conn_errors_total").value == before + 1

        client.submit_batch("bystander", *batches[1])
        entries = client.trajectory("bystander")["entries"]
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.timeout(60)
def test_hostile_dtype_string_drops_only_its_connection(server):
    """A CRC-valid frame whose ndarray dtype string numpy would parse with
    ``ast`` is a counted protocol error, not a dead connection thread."""
    import socket
    import zlib

    from repro.sampling import wire
    from repro.serve import protocol

    payload = bytes([wire._T_NDARRAY, 3]) + b",i4" + bytes([1]) + (1).to_bytes(8, "big")
    payload += (4).to_bytes(8, "big") + bytes(4)
    header = wire._HEADER.pack(wire.MAGIC, wire.WIRE_VERSION, 0, len(payload), zlib.crc32(payload))
    host, port = server.address.rsplit(":", 1)
    before = obs_metrics.counter("serve_conn_errors_total").value
    with socket.create_connection((host, int(port)), timeout=30) as raw:
        protocol.client_handshake(raw, SECRET)
        raw.sendall(header + payload)
        raw.shutdown(socket.SHUT_WR)
        assert raw.recv(1) == b""
    assert obs_metrics.counter("serve_conn_errors_total").value == before + 1
    with _client(server) as client:
        assert client.sessions()["entries"] == []
