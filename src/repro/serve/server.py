"""The ``repro serve`` daemon: accept loop, session registry, admission queue.

Architecture
------------
One listener thread accepts client connections; each connection gets its own
handler thread speaking the authenticated serve protocol.  All *sampling*
work — a session's base evaluation, every submitted update batch — flows
through a single bounded admission queue drained by one evaluation worker
thread: FIFO admission preserves per-session round order (the random-stream
contract), and the bound is the backpressure valve — a full queue rejects
the submit with a typed ``backpressure`` error instead of buffering without
limit, the queue/routing discipline of broker-backed task systems.

``estimate`` never touches the queue: it reads the session's cached latest
round under a lock — O(1), no sampling work, valid while any number of
rounds are in flight.  ``poll`` waits on the session's condition variable
for a threshold (record count, MoE) instead of busy-polling estimates.

Graceful drain (SIGTERM/SIGINT via the CLI, :meth:`EvalServer.shutdown`
programmatically): stop accepting, let the eval worker finish every admitted
round, checkpoint every session through ``evolving/state.py``.  A daemon
restarted with the same ``--state-dir`` resumes each session with a
bit-identical future trajectory.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from pathlib import Path

import numpy as np

from repro.generators.datasets import LabelledKG
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.sampling.rpc import RPCError, _normalise_secret, recv_message, send_message
from repro.serve import protocol, session as sessions_mod
from repro.serve.session import Session

__all__ = ["EvalServer"]

_log = get_logger("serve")

#: Poll slice for the accept loop (shutdown latency bound, not a deadline).
_ACCEPT_POLL = 0.5
#: Ceiling on one ``poll`` request's server-side wait.
_MAX_POLL_WAIT = 300.0


class _Work:
    """One admitted round: a base evaluation or an update batch."""

    __slots__ = ("kind", "session", "batch", "done", "payload", "error")

    def __init__(self, kind: str, session: Session, batch=None) -> None:
        self.kind = kind
        self.session = session
        self.batch = batch
        self.done = threading.Event()
        self.payload: dict | None = None
        self.error: str | None = None


class EvalServer:
    """Long-lived multi-session evaluation daemon.

    Parameters
    ----------
    host, port:
        Listen address (``port=0`` picks an ephemeral port; read
        :attr:`address` after :meth:`start`).
    secret:
        Shared client-authentication secret (``None`` = empty secret,
        loopback testing only).
    state_dir:
        Checkpoint directory.  When set, :meth:`start` resumes every
        checkpointed session and a draining :meth:`shutdown` checkpoints
        all live ones.
    queue_limit:
        Admission-queue bound; a full queue rejects submits with a
        ``backpressure`` error.
    root_seed:
        Entropy for the per-session ``SeedSequence`` streams handed to
        sessions that omit an explicit seed.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        secret=None,
        state_dir: str | Path | None = None,
        queue_limit: int = 16,
        root_seed: int = 0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        self._host = host
        self._port = port
        self._secret = _normalise_secret(secret)
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._queue: queue.Queue[_Work | None] = queue.Queue(maxsize=queue_limit)
        self._seed_root = np.random.SeedSequence(root_seed)
        self._sessions: dict[str, Session] = {}
        self._graphs: dict[tuple, LabelledKG] = {}
        self._registry_lock = threading.Lock()
        self._next_id = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._worker_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._unpaused = threading.Event()
        self._unpaused.set()
        self._closed = False
        self._shutdown_lock = threading.Lock()
        self._bound: tuple[str, int] | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        if self._bound is None:
            raise RuntimeError("EvalServer.address before start()")
        return f"{self._bound[0]}:{self._bound[1]}"

    def start(self) -> tuple[str, int]:
        """Bind, resume checkpointed sessions, spawn the service threads."""
        if self._bound is not None:
            raise RuntimeError("EvalServer.start() called twice")
        if self._state_dir is not None:
            self._resume_sessions()
        self._listener = socket.create_server((self._host, self._port))
        self._listener.settimeout(_ACCEPT_POLL)
        self._bound = self._listener.getsockname()[:2]
        self._worker_thread = threading.Thread(
            target=self._worker_loop, name="serve-eval-worker", daemon=True
        )
        self._worker_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        _log.info(
            "serve_listening",
            address=self.address,
            sessions_resumed=len(self._sessions),
            queue_limit=self._queue.maxsize,
        )
        return self._bound

    def wait(self, stop: threading.Event | None = None) -> None:
        """Block until ``stop`` is set (or forever) — the CLI foreground."""
        if stop is None:
            stop = threading.Event()
        while not stop.is_set() and not self._stopping.is_set():
            stop.wait(_ACCEPT_POLL)

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop the daemon; with ``drain`` finish and checkpoint everything.

        Idempotent.  Drain order matters: stop admitting, let the eval worker
        finish every already-admitted round (in-flight ``submit --wait``
        replies resolve), then checkpoint each session.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._listener is not None:
            self._listener.close()
        if drain:
            self._unpaused.set()
            self._queue.join()
        self._queue.put(None)
        if self._worker_thread is not None:
            self._unpaused.set()
            self._worker_thread.join()
        checkpointed = 0
        with self._registry_lock:
            live = list(self._sessions.values())
        for sess in live:
            if drain and self._state_dir is not None and sess.failed is None:
                try:
                    sessions_mod.checkpoint_session(self._state_dir, sess)
                    checkpointed += 1
                    obs_metrics.counter("serve_checkpoints_total").inc()
                except Exception as exc:
                    _log.warning(
                        "checkpoint_failed", session=sess.id, error=f"{type(exc).__name__}: {exc}"
                    )
            obs_metrics.gauge("serve_sessions_active").dec()
        _log.info("serve_drained", sessions=len(live), checkpointed=checkpointed)

    def pause(self) -> None:
        """Hold the eval worker before its next round (backpressure/testing aid)."""
        self._unpaused.clear()

    def resume(self) -> None:
        self._unpaused.set()

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #
    def _base_for(self, spec: dict) -> LabelledKG:
        """Graph-cache lookup: one resident base per distinct spec identity."""
        key = sessions_mod.graph_cache_key(spec)
        cached = self._graphs.get(key)
        if cached is not None:
            obs_metrics.counter("serve_graph_cache_hits_total").inc()
            return cached
        built = sessions_mod.build_base(spec)
        self._graphs[key] = built
        return built

    def _resume_sessions(self) -> None:
        for path in sessions_mod.list_checkpoints(self._state_dir):
            try:
                sess = sessions_mod.restore_session(path, self._base_for)
            except Exception as exc:
                _log.warning(
                    "resume_failed", checkpoint=str(path), error=f"{type(exc).__name__}: {exc}"
                )
                continue
            with self._registry_lock:
                self._sessions[sess.id] = sess
                self._next_id = max(self._next_id, len(self._sessions))
            obs_metrics.gauge("serve_sessions_active").inc()
            _log.info("session_resumed", session=sess.id, records=len(sess.trajectory))

    # ------------------------------------------------------------------ #
    # Evaluation worker (the only thread that runs sampling)
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            self._unpaused.wait()
            work = self._queue.get()
            if work is None:
                self._queue.task_done()
                return
            obs_metrics.gauge("serve_queue_depth").set(self._queue.qsize())
            sess = work.session
            try:
                if work.kind == "base":
                    record = sess.monitor.evaluate_base()
                else:
                    record = sess.monitor.apply_update(work.batch)
                work.payload = sess.record_result(record, sess.evaluator.history[-1])
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                _log.warning("round_failed", session=sess.id, kind=work.kind, error=message)
                sess.record_failure(message)
                work.error = message
            finally:
                work.done.set()
                self._queue.task_done()

    def _admit(self, work: _Work) -> bool:
        """Admit one round or refuse with backpressure; never blocks."""
        with work.session.lock:
            work.session.pending += 1
        try:
            self._queue.put_nowait(work)
        except queue.Full:
            with work.session.lock:
                work.session.pending -= 1
            obs_metrics.counter("serve_backpressure_total").inc()
            return False
        obs_metrics.gauge("serve_queue_depth").set(self._queue.qsize())
        return True

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            obs_metrics.counter("serve_connections_total").inc()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"serve-conn-{peer[1]}",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket, peer: str) -> None:
        with conn:
            try:
                if not protocol.server_handshake(conn, self._secret):
                    obs_metrics.counter("serve_auth_failures_total").inc()
                    _log.warning("handshake_rejected", peer=peer)
                    return
                while True:
                    message = recv_message(conn, limit=protocol.MAX_REQUEST_BYTES)
                    if message is None or not isinstance(message, dict):
                        return
                    op = str(message.get("op"))
                    if op == "shutdown":
                        send_message(conn, {"op": "bye"})
                        return
                    started = time.perf_counter()
                    reply = self._dispatch(op, message)
                    obs_metrics.histogram("serve_request_seconds", op=op).observe(
                        time.perf_counter() - started
                    )
                    send_message(conn, reply)
            except (OSError, RPCError) as exc:
                obs_metrics.counter("serve_conn_errors_total").inc()
                _log.warning("conn_error", peer=peer, error=type(exc).__name__, detail=str(exc))
                return

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, op: str, message: dict) -> dict:
        handlers = {
            "attach": self._op_attach,
            "submit": self._op_submit,
            "estimate": self._op_estimate,
            "poll": self._op_poll,
            "trajectory": self._op_trajectory,
            "sessions": self._op_sessions,
            "detach": self._op_detach,
        }
        handler = handlers.get(op)
        if handler is None:
            return {"op": "error", "code": "unknown_op", "message": f"unknown op {op!r}"}
        try:
            return handler(message)
        except ValueError as exc:
            return {"op": "error", "code": "bad_request", "message": str(exc)}

    def _lookup(self, message: dict) -> Session:
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise ValueError("request requires a session name")
        with self._registry_lock:
            sess = self._sessions.get(name)
        if sess is None:
            raise ValueError(f"unknown session {name!r}")
        return sess

    def _session_seed(self, spec: dict) -> int:
        if spec["seed"] is not None:
            return spec["seed"]
        child = self._seed_root.spawn(1)[0]
        return int(child.generate_state(1, dtype=np.uint64)[0])

    def _op_attach(self, message: dict) -> dict:
        if self._stopping.is_set():
            return {"op": "error", "code": "draining", "message": "daemon is draining"}
        spec = sessions_mod.normalise_spec(message.get("spec"))
        name = message.get("session")
        if name is not None and (not isinstance(name, str) or not name):
            raise ValueError("session name must be a non-empty string")
        with self._registry_lock:
            if name is not None and name in self._sessions:
                # Idempotent re-attach (a client reconnecting after a drain
                # cycle): same spec resumes the live session, a different
                # one is a hard error — silently swapping evaluators would
                # corrupt the trajectory contract.
                sess = self._sessions[name]
                if sess.spec != spec:
                    return {
                        "op": "error",
                        "code": "spec_mismatch",
                        "message": f"session {name!r} exists with a different spec",
                    }
                latest, pending, num_records, failed = sess.snapshot()
                return {
                    "op": "attached",
                    "session": sess.id,
                    "resumed": True,
                    "seed": sess.seed,
                    "latest": latest,
                    "pending": pending,
                    "num_records": num_records,
                    "failed": failed,
                }
            if name is None:
                self._next_id += 1
                name = f"session-{self._next_id}"
            seed = self._session_seed(spec)
            sess = sessions_mod.build_session(name, spec, seed, self._base_for(spec))
            self._sessions[name] = sess
        obs_metrics.gauge("serve_sessions_active").inc()
        _log.info("session_attached", session=name, evaluator=spec["evaluator"], seed=seed)
        work = _Work("base", sess)
        if not self._admit(work):
            with self._registry_lock:
                self._sessions.pop(name, None)
            obs_metrics.gauge("serve_sessions_active").dec()
            return {
                "op": "error",
                "code": "backpressure",
                "message": "admission queue is full; retry the attach",
            }
        if message.get("wait", True):
            work.done.wait()
            if work.error is not None:
                return {"op": "error", "code": "round_failed", "message": work.error}
        latest, pending, num_records, failed = sess.snapshot()
        return {
            "op": "attached",
            "session": name,
            "resumed": False,
            "seed": seed,
            "latest": latest,
            "pending": pending,
            "num_records": num_records,
            "failed": failed,
        }

    def _op_submit(self, message: dict) -> dict:
        if self._stopping.is_set():
            return {"op": "error", "code": "draining", "message": "daemon is draining"}
        sess = self._lookup(message)
        if sess.failed is not None:
            return {"op": "error", "code": "session_failed", "message": sess.failed}
        work = _Work("batch", sess, batch=protocol.decode_batch(message))
        if not self._admit(work):
            return {
                "op": "error",
                "code": "backpressure",
                "message": "admission queue is full; wait for pending rounds and retry",
            }
        if not message.get("wait", True):
            _latest, pending, num_records, _failed = sess.snapshot()
            return {
                "op": "queued",
                "session": sess.id,
                "pending": pending,
                "num_records": num_records,
            }
        work.done.wait()
        if work.error is not None:
            return {"op": "error", "code": "round_failed", "message": work.error}
        return {"op": "result", "session": sess.id, **work.payload}

    def _op_estimate(self, message: dict) -> dict:
        """O(1) read of the latest cached round — the serve fast path.

        Touches the session's cached ``latest`` reference only: no queue,
        no evaluator, no sampling, regardless of what is in flight.
        """
        sess = self._lookup(message)
        latest, pending, num_records, failed = sess.snapshot()
        obs_metrics.counter("serve_estimate_cache_hits_total").inc()
        return {
            "op": "estimate",
            "session": sess.id,
            "latest": latest,
            "pending": pending,
            "num_records": num_records,
            "failed": failed,
        }

    def _op_poll(self, message: dict) -> dict:
        """Threshold polling: block until the trajectory satisfies a condition."""
        sess = self._lookup(message)
        min_records = message.get("min_records")
        moe_below = message.get("moe_below")
        if min_records is None and moe_below is None:
            raise ValueError("poll requires min_records and/or moe_below")
        if min_records is not None:
            min_records = protocol.as_number(min_records, int, "min_records")
        if moe_below is not None:
            moe_below = protocol.as_number(moe_below, float, "moe_below")
        timeout = protocol.as_number(message.get("timeout", 30.0), float, "timeout")
        if not timeout >= 0.0:
            raise ValueError(f"timeout must be a non-negative number, got {timeout}")
        timeout = min(timeout, _MAX_POLL_WAIT)

        def satisfied() -> bool:
            if sess.failed is not None:
                return True
            if min_records is not None and len(sess.trajectory) < min_records:
                return False
            if moe_below is not None:
                if sess.latest is None:
                    return False
                if float(sess.latest["record"].margin_of_error) > moe_below:
                    return False
            return True

        with sess.changed:
            met = sess.changed.wait_for(satisfied, timeout=timeout)
        latest, pending, num_records, failed = sess.snapshot()
        return {
            "op": "poll",
            "session": sess.id,
            "satisfied": bool(met and failed is None),
            "latest": latest,
            "pending": pending,
            "num_records": num_records,
            "failed": failed,
        }

    def _op_trajectory(self, message: dict) -> dict:
        sess = self._lookup(message)
        with sess.lock:
            entries = list(sess.trajectory)
            failed = sess.failed
        return {"op": "trajectory", "session": sess.id, "entries": entries, "failed": failed}

    def _op_sessions(self, message: dict) -> dict:
        with self._registry_lock:
            live = list(self._sessions.values())
        entries = []
        for sess in live:
            _latest, pending, num_records, failed = sess.snapshot()
            entries.append(
                {
                    "session": sess.id,
                    "evaluator": sess.spec["evaluator"],
                    "dataset": sess.spec.get("dataset", sess.spec.get("snapshot")),
                    "num_records": num_records,
                    "pending": pending,
                    "failed": failed,
                }
            )
        return {"op": "sessions", "entries": entries}

    def _op_detach(self, message: dict) -> dict:
        sess = self._lookup(message)
        with sess.lock:
            if sess.pending > 0:
                return {
                    "op": "error",
                    "code": "busy",
                    "message": f"session has {sess.pending} pending rounds; wait and retry",
                }
        with self._registry_lock:
            self._sessions.pop(sess.id, None)
        if self._state_dir is not None:
            sessions_mod.drop_checkpoint(self._state_dir, sess.id)
        obs_metrics.gauge("serve_sessions_active").dec()
        _log.info("session_detached", session=sess.id)
        return {"op": "detached", "session": sess.id}
