"""Shared pieces of the serve-daemon test modules (not a test module).

* The pinned session: :func:`spec` and :func:`workload` describe the session
  whose trajectory ``tests/golden/evolving_*.json`` pins, and
  :func:`golden_payload` rebuilds that golden's shape from served rounds.
* Hypothesis strategies for the values the serve wire carries:
  :func:`column_submits` (update batches as columns, as clients send
  them), :func:`submits` (the Triple shape, which the codec still carries
  and the daemon refuses) and :func:`replies` (round results with an
  EvaluationReport and a MonitorRecord).
* Loopback sockets for fault injection: :class:`SlowReplyProxy` hands the
  daemon's replies back in small delayed chunks, and :class:`ScriptedDaemon`
  completes the real server handshake and then answers with scripted bytes,
  which can break a reply in ways the real daemon never does.
  :func:`wait_for` observes what the daemon records after a connection
  drops.
"""

from __future__ import annotations

import socket
import threading
import time

from hypothesis import strategies as st

from repro.core.result import EvaluationReport
from repro.evolving.monitor import MonitorRecord
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.triple import Triple
from repro.sampling.base import Estimate
from repro.sampling.rpc import parse_node_address, recv_message
from repro.serve import protocol

SEED = 2026
SECRET = b"serve-test-secret"


# --------------------------------------------------------------------------- #
# The pinned session
# --------------------------------------------------------------------------- #
def workload(base):
    return list(UpdateWorkloadGenerator(base, seed=SEED).generate_sequence(2, 120, 0.8))


def spec(kind: str) -> dict:
    return {
        "dataset": "nell",
        "dataset_seed": 0,
        "seed": SEED,
        "evaluator": kind,
        "moe": 0.06,
    }


def golden_payload(entries) -> list[dict]:
    """Rebuild the exact ``_evolving_trajectory`` golden shape from served rounds."""
    payload = [
        {
            "batch_id": entry["batch_id"],
            "accuracy": float(entry["report"].estimate.value),
            "margin_of_error": float(entry["report"].margin_of_error),
            "num_units": int(entry["report"].num_units),
            "triples_annotated": int(entry["report"].num_triples_annotated),
            "entities_identified": int(entry["report"].num_entities_identified),
            "cumulative_cost_seconds": float(entry["cumulative_cost_seconds"]),
        }
        for entry in entries
    ]
    payload.append({"true_accuracy": float(entries[-1]["record"].true_accuracy)})
    return payload


# --------------------------------------------------------------------------- #
# Wire value strategies
# --------------------------------------------------------------------------- #
_text = st.text(max_size=16)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=2**40)


def _triples():
    return st.builds(Triple, _text, _text, _text, is_entity_object=st.booleans())


def column_submits():
    """``submit`` requests as ``ServeClient.submit_batch`` sends them."""
    rows = st.tuples(_text, _text, _text, st.booleans(), st.booleans())
    return st.lists(rows, min_size=1, max_size=8).flatmap(
        lambda rows: st.fixed_dictionaries(
            {
                "op": st.just("submit"),
                "session": _text,
                "batch_id": _text,
                "subjects": st.just([row[0] for row in rows]),
                "predicates": st.just([row[1] for row in rows]),
                "objects": st.just([row[2] for row in rows]),
                "entity_objects": st.just(bytes(row[3] for row in rows)),
                "labels": st.just(bytes(row[4] for row in rows)),
                "wait": st.booleans(),
            }
        )
    )


def submits():
    """``submit`` requests in the retired Triple shape (wire tag 19)."""
    return st.lists(st.tuples(_triples(), st.booleans()), min_size=1, max_size=8).flatmap(
        lambda pairs: st.fixed_dictionaries(
            {
                "op": st.just("submit"),
                "session": _text,
                "batch_id": _text,
                "triples": st.just([triple for triple, _ in pairs]),
                "labels": st.just([label for _, label in pairs]),
                "wait": st.booleans(),
            }
        )
    )


def _reports():
    estimates = st.builds(
        Estimate,
        value=_finite,
        std_error=st.floats(min_value=0, allow_nan=False),
        num_units=_counts,
        num_triples=_counts,
    )
    return st.builds(
        EvaluationReport,
        estimate=estimates,
        confidence_level=_finite,
        moe_target=_finite,
        satisfied=st.booleans(),
        iterations=_counts,
        num_units=_counts,
        num_triples_annotated=_counts,
        num_entities_identified=_counts,
        annotation_cost_seconds=_finite,
    )


def _records():
    return st.builds(
        MonitorRecord,
        batch_index=_counts,
        batch_id=_text,
        estimated_accuracy=_finite,
        margin_of_error=_finite,
        true_accuracy=_finite,
        incremental_cost_hours=_finite,
        cumulative_cost_hours=_finite,
    )


def replies():
    """``result`` replies as the daemon sends them after a round."""
    return st.fixed_dictionaries(
        {
            "op": st.just("result"),
            "session": _text,
            "batch_index": _counts,
            "batch_id": _text,
            "record": _records(),
            "report": _reports(),
            "cumulative_cost_seconds": _finite,
        }
    )


# --------------------------------------------------------------------------- #
# Fault-injection sockets
# --------------------------------------------------------------------------- #
def wait_for(predicate, seconds: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds; False once ``seconds`` have passed.

    For effects the daemon records in its connection thread after the
    client has already moved on (error counters on a dropped connection).
    """
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _listener() -> tuple[socket.socket, str]:
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    return listener, f"127.0.0.1:{listener.getsockname()[1]}"


class SlowReplyProxy:
    """Loopback TCP proxy in front of a daemon.

    Requests pass through unchanged; replies come back ``chunk`` bytes at a
    time with ``delay`` seconds before each chunk, so every reply frame
    reaches the client fragmented and late.
    """

    def __init__(self, upstream: str, *, chunk: int = 7, delay: float = 0.001) -> None:
        self._upstream = parse_node_address(upstream)
        self._chunk = chunk
        self._delay = delay
        self._listener, self.address = _listener()
        self._stop = threading.Event()
        self._sockets: list[socket.socket] = []
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except TimeoutError:
                continue
            upstream = socket.create_connection(self._upstream)
            self._sockets += [client, upstream]
            for source, sink, chunk, delay in (
                (client, upstream, 1 << 16, 0.0),
                (upstream, client, self._chunk, self._delay),
            ):
                threading.Thread(
                    target=self._pump, args=(source, sink, chunk, delay), daemon=True
                ).start()

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket, chunk: int, delay: float) -> None:
        try:
            while data := source.recv(chunk):
                time.sleep(delay)
                sink.sendall(data)
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._listener.close()
        for sock in self._sockets:
            sock.close()


class ScriptedDaemon:
    """A stand-in daemon for one client connection.

    It runs the real :func:`~repro.serve.protocol.server_handshake`, then
    for each entry of ``replies`` reads one request and sends the entry's
    raw bytes back.  After the script it closes the connection and stops
    listening, so the client is left talking to a daemon that is gone.
    """

    def __init__(self, secret: bytes, replies: list[bytes]) -> None:
        self._secret = secret
        self._replies = replies
        self._listener, self.address = _listener()
        self._listener.settimeout(30)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        finally:
            self._listener.close()
        with conn:
            if not protocol.server_handshake(conn, self._secret):
                return
            for raw in self._replies:
                if recv_message(conn, limit=protocol.MAX_REQUEST_BYTES) is None:
                    return
                conn.sendall(raw)

    def join(self) -> None:
        self._thread.join(timeout=30)
