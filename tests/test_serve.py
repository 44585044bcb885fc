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

import contextlib
import hashlib
import io
import re
import shutil
import sqlite3
from pathlib import Path

import numpy as np
import pytest
from serve_helpers import SECRET, golden_payload, spec, workload

from repro.cli import main, monitor_row
from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.triple import Triple
from repro.obs import metrics as obs_metrics
from repro.sampling.rpc import RPCAuthError
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import EvalServer


GOLDEN_DIR = Path(__file__).parent / "golden"


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
        for batch in workload(base):
            client.submit_batch(kind, batch)
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
        client.submit_batch("resumed", batches[0])
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
            client.submit_batch("resumed", batches[1])
            entries = client.trajectory("resumed")["entries"]
    finally:
        second.shutdown(drain=True)
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.timeout(300)
def test_every_session_of_a_dataset_resumes_after_drain(server, base, golden, tmp_path):
    """Two sessions over one cached base, each with strings the other interned."""
    state_dir = tmp_path / "state"
    batches = workload(base)
    streams = {"a": batches, "b": batches[::-1]}

    first = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    first.start()
    with _client(first) as client:
        for name in streams:
            client.attach(spec("ss"), session=name)
        for name, stream in streams.items():
            client.submit_batch(name, stream[0])
    first.shutdown(drain=True)

    second = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    second.start()
    try:
        with _client(second) as client:
            resumed = {}
            for name, stream in streams.items():
                assert client.attach(spec("ss"), session=name)["resumed"] is True, name
                client.submit_batch(name, stream[1])
                resumed[name] = golden_payload(client.trajectory(name)["entries"])
    finally:
        second.shutdown(drain=True)

    # The same two streams on a daemon that never stopped.
    with _client(server) as client:
        for name, stream in streams.items():
            client.attach(spec("ss"), session=name)
            for batch in stream:
                client.submit_batch(name, batch)
            assert resumed[name] == golden_payload(client.trajectory(name)["entries"]), name
    golden.check("evolving_ss", resumed["a"])


@pytest.mark.parametrize("kind", ["rs", "ss"])
@pytest.mark.timeout(300)
def test_a_state_v4_checkpoint_resumes_and_replays_golden(base, golden, tmp_path, kind):
    """A checkpoint written in state format v4 (segments name their subjects
    instead of carrying rows), after the pinned workload's first batch,
    resumes: the second batch completes the golden trajectory."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    name = f"v4-{kind}"
    shutil.copy(GOLDEN_DIR / f"serve_v4_{kind}.ckpt", state_dir / f"{name}.ckpt")
    server = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    server.start()
    try:
        with _client(server) as client:
            assert client.attach(spec(kind), session=name)["resumed"] is True
            client.submit_batch(name, workload(base)[1])
            entries = client.trajectory(name)["entries"]
    finally:
        server.shutdown(drain=True)
    golden.check(f"evolving_{kind}", golden_payload(entries))


@pytest.mark.timeout(300)
def test_served_batches_skip_repeats_and_stored_triples(server, base):
    """A triple repeated within a batch keeps its first occurrence, label
    included; a stored triple, of the base or of an earlier batch, is
    skipped and keeps the label it has."""
    fresh = Triple("dedup-subject", "insertedFact", "dedup-object")
    stored = base.graph.triple_at(0)
    stored_label = bool(base.oracle.as_position_array(base.graph)[0])
    with _client(server) as client:
        client.attach(spec("ss"), session="dedup")
        evaluator = server._sessions["dedup"].evaluator
        client.submit("dedup", "d-0", [fresh, stored, fresh], [True, not stored_label, False])
        graph = evaluator.evolving.current
        assert graph.num_triples == base.graph.num_triples + 1
        assert graph.triple_at(graph.num_triples - 1) == fresh
        assert evaluator.labels.tolist()[-1] is True
        assert bool(evaluator.labels[0]) is stored_label
        client.submit("dedup", "d-1", [fresh], [False])
        assert graph.num_triples == base.graph.num_triples + 1
        assert evaluator.labels.shape == (graph.num_triples,)
        assert evaluator.num_strata == 2  # nothing new in d-1, so no stratum
        truth = client.trajectory("dedup")["entries"][-1]["record"].true_accuracy
        assert truth == float(evaluator.labels.mean())


@pytest.mark.timeout(300)
def test_sessions_leave_the_served_base_vocabulary_as_it_was(server, base):
    """Three sessions on one dataset, attached, fed and detached one after
    another: each interns its strings into a vocabulary of its own, so the
    cached base's vocabulary keeps its length."""
    batches = workload(base)
    with _client(server) as client:
        for index in range(3):
            name = f"vocab-{index}"
            client.attach(spec("ss"), session=name)
            (cached,) = server._graphs.values()
            if not index:
                vocab_size = len(cached.graph.backend.vocab)
            for batch in batches:
                client.submit_batch(name, batch)
            assert server._sessions[name].evaluator.evolving.current.backend.num_tail_triples
            client.detach(name)
            assert len(cached.graph.backend.vocab) == vocab_size


@pytest.mark.timeout(300)
def test_reattach_with_different_spec_is_refused(server):
    with _client(server) as client:
        client.attach(spec("ss"), session="pinned")
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(spec("rs"), session="pinned")
        assert excinfo.value.code == "spec_mismatch"


# --------------------------------------------------------------------------- #
# Snapshot sessions: the daemon attaches what `evaluate` and `monitor` open
# --------------------------------------------------------------------------- #
_MONITOR_HEADER = "batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)"


@pytest.fixture(scope="module")
def nell_snapshots(tmp_path_factory):
    """NELL (seed 0) as labelled snapshots, written by ``repro snapshot``."""
    root = tmp_path_factory.mktemp("snapshots")
    paths = {"directory": root / "nell.snap", "sqlite": root / "nell.sqlite"}
    for layout, path in paths.items():
        args = ["snapshot", "--dataset", "nell", "--seed", "0", "--with-labels"]
        args += ["--out", str(path), "--backend", "sqlite" if layout == "sqlite" else "columnar"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
    return paths


def _snapshot_spec(path) -> dict:
    return {"snapshot": str(path), "evaluator": "ss", "seed": 0}


def _monitor_batches(path) -> list:
    """The update batches ``repro monitor --snapshot PATH --seed 0 --batches 2``
    applies."""
    base = LabelledKG.open(path).to_columnar()
    size = max(1, round(0.1 * base.graph.num_triples))
    return list(UpdateWorkloadGenerator(base, seed=0).generate_sequence(2, size, 0.8))


def _monitor_rows(entries) -> list[str]:
    """Served rounds as the trajectory rows ``repro monitor`` prints."""
    return [monitor_row(entry["record"]) for entry in entries]


@pytest.mark.parametrize("layout", ["directory", "sqlite"])
@pytest.mark.timeout(300)
def test_snapshot_session_replays_monitor(server, nell_snapshots, capsys, layout):
    path = nell_snapshots[layout]
    monitor = ["monitor", "--snapshot", str(path), "--evaluator", "ss", "--seed", "0"]
    assert main(monitor + ["--batches", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    expected = printed[printed.index(_MONITOR_HEADER) + 1 :]
    dataset_spec = {"dataset": "nell", "dataset_seed": 0, "evaluator": "ss", "seed": 0}
    with _client(server) as client:
        client.attach(_snapshot_spec(path), session="snapshot")
        client.attach(dataset_spec, session="dataset")
        for batch in _monitor_batches(path):
            client.submit_batch("snapshot", batch)
            client.submit_batch("dataset", batch)
        from_snapshot = client.trajectory("snapshot")["entries"]
        from_dataset = client.trajectory("dataset")["entries"]
    assert _monitor_rows(from_snapshot) == expected
    assert golden_payload(from_snapshot) == golden_payload(from_dataset)


@pytest.mark.parametrize("layout", ["directory", "sqlite"])
@pytest.mark.timeout(300)
def test_snapshot_session_resumes_after_drain(server, nell_snapshots, tmp_path, layout):
    """Drain after the first batch, restart on the same state dir, finish:
    the same trajectory as a session that was never interrupted."""
    path = nell_snapshots[layout]
    batches = _monitor_batches(path)
    with _client(server) as client:
        client.attach(_snapshot_spec(path), session="whole")
        for batch in batches:
            client.submit_batch("whole", batch)
        expected = golden_payload(client.trajectory("whole")["entries"])

    state_dir = tmp_path / "state"
    first = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    first.start()
    with _client(first) as client:
        client.attach(_snapshot_spec(path), session="resumed")
        client.submit_batch("resumed", batches[0])
    first.shutdown(drain=True)
    assert (state_dir / "resumed.ckpt").is_file()

    second = EvalServer(port=0, secret=SECRET, state_dir=state_dir, queue_limit=8)
    second.start()
    try:
        with _client(second) as client:
            reply = client.attach(_snapshot_spec(path), session="resumed")
            assert reply["resumed"] is True
            assert reply["num_records"] == 2
            client.submit_batch("resumed", batches[1])
            entries = client.trajectory("resumed")["entries"]
    finally:
        second.shutdown(drain=True)
    assert golden_payload(entries) == expected


def _unreadable_snapshot(kind: str, tmp_path, snapshots):
    if kind == "missing":
        return tmp_path / "missing.snap"
    if kind == "junk-file":
        path = tmp_path / "junk.snap"
        path.write_bytes(b"subject\tpredicate\tobject\n")
        return path
    if kind == "unlabelled":
        path = tmp_path / "bare.snap"
        make_nell_like(seed=0).save(path, labels=False)
        return path
    path = tmp_path / f"{kind}.snap"
    shutil.copytree(snapshots["directory"], path)
    if kind == "empty-subjects":
        (path / "subjects.npy").write_bytes(b"")
    elif kind == "short-column":
        np.save(path / "predicates.npy", np.load(path / "predicates.npy")[:-5])
    elif kind == "zip-column":
        subjects = np.load(path / "subjects.npy")
        with open(path / "subjects.npy", "wb") as handle:
            np.savez(handle, subjects=subjects)
    else:
        (path / "meta.npy").unlink()
    return path


@pytest.mark.parametrize(
    "kind",
    [
        "missing",
        "junk-file",
        "empty-subjects",
        "no-meta",
        "unlabelled",
        "short-column",
        "zip-column",
    ],
)
@pytest.mark.timeout(120)
def test_unreadable_snapshot_is_a_bad_request(server, nell_snapshots, tmp_path, kind):
    path = _unreadable_snapshot(kind, tmp_path, nell_snapshots)
    with _client(server) as client:
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(_snapshot_spec(path), session="unreadable")
        assert excinfo.value.code == "bad_request"
        assert str(excinfo.value).startswith(f"cannot open snapshot {path}: ")
        # The same connection keeps serving.
        assert client.sessions()["entries"] == []


def _file_state(path) -> tuple[str, list]:
    with contextlib.closing(sqlite3.connect(path)) as conn:
        schema = conn.execute("SELECT * FROM sqlite_master ORDER BY name").fetchall()
    return hashlib.sha256(path.read_bytes()).hexdigest(), schema


@pytest.mark.timeout(120)
def test_a_foreign_database_is_refused_and_left_unchanged(server, tmp_path):
    """Every snapshot opener refuses a SQLite file that is not a graph, and
    none of them writes to it: no table, no journal mode, no byte."""
    path = tmp_path / "foreign.db"
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.execute("INSERT INTO notes VALUES ('keep me')")
    before = _file_state(path)
    prefix = f"cannot open snapshot {path}: "
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
        LabelledKG.open(path)
    with pytest.raises(SystemExit, match=f"^{re.escape(prefix)}"):
        main(["evaluate", "--from-snapshot", str(path)])
    with _client(server) as client:
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(_snapshot_spec(path), session="foreign")
    assert excinfo.value.code == "bad_request"
    assert str(excinfo.value).startswith(prefix)
    assert _file_state(path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["foreign.db"]


# --------------------------------------------------------------------------- #
# estimate is an O(1) cached read
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_estimate_is_cached_read(server, base):
    with _client(server) as client:
        client.attach(spec("ss"), session="cached")
        batch = workload(base)[0]
        client.submit_batch("cached", batch)
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
            batch = workload(base)[0]
            with pytest.raises(ServeRequestError) as excinfo:
                client.submit_batch("bp", batch, wait=False)
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
        batch = workload(base)[0]
        client.submit_batch("poller", batch, wait=False)
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
def _columns(**fields) -> dict:
    """A well-formed two-triple columnar submit, with ``fields`` replaced."""
    return {
        "op": "submit",
        "batch_id": "b",
        "subjects": ["s", "t"],
        "predicates": ["p", "p"],
        "objects": ["o", "q"],
        "entity_objects": b"\x00\x01",
        "labels": b"\x01\x00",
        **fields,
    }


@pytest.mark.parametrize(
    "request_fields, field",
    [
        ({"op": "attach", "spec": {**spec("ss"), "moe": None}}, "spec.moe"),
        ({"op": "attach", "spec": {**spec("ss"), "dataset_seed": [1]}}, "spec.dataset_seed"),
        ({"op": "attach", "spec": {**spec("ss"), "engine": {"shards": 2}}}, "engine"),
        ({"op": "poll", "min_records": 1, "timeout": None}, "timeout"),
        ({"op": "poll", "min_records": [1]}, "min_records"),
        ({"op": "poll", "moe_below": {}}, "moe_below"),
        (_columns(predicates=["p"]), "predicates"),
        (_columns(labels=b"\x01\x02"), "labels"),
        (_columns(subjects=["s", 7]), "subjects"),
        (
            _columns(subjects=[], predicates=[], objects=[], entity_objects=b"", labels=b""),
            "subjects",
        ),
        (
            {"op": "submit", "batch_id": "b", "triples": [Triple("s", "p", "o")], "labels": [True]},
            "triples",
        ),
    ],
    ids=[
        "attach-moe-none",
        "attach-dataset-seed-list",
        "attach-engine",
        "poll-timeout-none",
        "poll-min-records-list",
        "poll-moe-below-dict",
        "submit-unequal-columns",
        "submit-label-byte-2",
        "submit-subject-int",
        "submit-empty-batch",
        "submit-triples",
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


def _damaged_frame_drops_only_its_connection(server, base, golden, frame: bytes) -> None:
    """Send ``frame`` on a connection of its own, mid-stream of a session on
    another: the daemon counts the error and drops that connection only."""
    import socket

    from repro.serve import protocol

    batches = workload(base)
    with _client(server) as client:
        client.attach(spec("ss"), session="bystander")
        client.submit_batch("bystander", batches[0])

        host, port = server.address.rsplit(":", 1)
        before = obs_metrics.counter("serve_conn_errors_total").value
        with socket.create_connection((host, int(port)), timeout=30) as raw:
            protocol.client_handshake(raw, SECRET)
            raw.sendall(frame)
            raw.shutdown(socket.SHUT_WR)
            # The daemon closes its end once it has counted the error.
            assert raw.recv(1) == b""
        assert obs_metrics.counter("serve_conn_errors_total").value == before + 1

        client.submit_batch("bystander", batches[1])
        entries = client.trajectory("bystander")["entries"]
    golden.check("evolving_ss", golden_payload(entries))


@pytest.mark.parametrize("damage", [_truncated, _corrupted], ids=["truncated", "corrupted"])
@pytest.mark.timeout(300)
def test_bad_frame_drops_only_its_connection(server, base, golden, damage):
    from repro.sampling import wire

    frame = wire.encode_frame({"op": "estimate", "session": "bystander"})
    _damaged_frame_drops_only_its_connection(server, base, golden, damage(frame))


@pytest.mark.parametrize("damage", [_truncated, _corrupted], ids=["truncated", "corrupted"])
@pytest.mark.timeout(300)
def test_a_damaged_columnar_submit_drops_only_its_connection(server, base, golden, damage):
    """The submit a client sends, its batch as columns, damaged in flight:
    the batch never reaches the session it names."""
    from repro.sampling import wire

    batch = workload(base)[1]
    message = {
        "op": "submit",
        "session": "bystander",
        "batch_id": batch.batch_id,
        "subjects": list(batch.subjects),
        "predicates": list(batch.predicates),
        "objects": list(batch.objects),
        "entity_objects": batch.entity_objects,
        "labels": batch.labels,
        "wait": True,
    }
    _damaged_frame_drops_only_its_connection(
        server, base, golden, damage(wire.encode_frame(message))
    )


@pytest.mark.timeout(60)
def test_hostile_dtype_string_drops_only_its_connection(server):
    """A CRC-valid frame under the retired ndarray tag (11), carrying a dtype
    string numpy would parse with ``ast``, is a counted protocol error, not a
    dead connection thread."""
    import socket
    import zlib

    from repro.sampling import wire
    from repro.serve import protocol

    payload = bytes([11, 3]) + b",i4" + bytes([1]) + (1).to_bytes(8, "big")
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
