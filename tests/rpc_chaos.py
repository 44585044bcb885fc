"""Fault-injection helpers for the RPC shard transport test suite.

Not a test module — shared machinery imported by ``test_transport_rpc.py``
and ``test_rpc_chaos.py``:

* :class:`WorkerProcess` — one real ``repro worker`` subprocess (listen or
  ``--join`` mode, optional shared secret and per-task delay), with its
  stdout/stderr teed into a log directory so CI can upload worker logs as
  artifacts when a scenario fails (``REPRO_RPC_LOG_DIR``).  Every worker
  also writes structured JSON-lines logs (``<name>.jsonl``, debug level)
  and exports a metrics snapshot on orderly shutdown (``<name>.metrics.json``)
  into the same directory; :meth:`WorkerProcess.structured_events` parses
  the log back for scenario assertions.
* :class:`ChaosProxy` — a frame-aware TCP proxy wedged between master and
  worker.  Because the wire protocol is a schema'd codec, the proxy can
  *parse* every frame it forwards and inject faults at precise protocol
  moments: truncate the n-th result frame mid-byte, delay or duplicate
  result frames, or flip a byte inside the n-th task frame (which the
  worker's CRC check must catch).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.sampling import wire
from repro.sampling.rpc import _recv_exactly

_SRC = Path(__file__).resolve().parents[1] / "src"


def _log_dir(fallback: Path) -> Path:
    configured = os.environ.get("REPRO_RPC_LOG_DIR")
    path = Path(configured) if configured else fallback
    path.mkdir(parents=True, exist_ok=True)
    return path


class WorkerProcess:
    """One spawned ``repro worker`` subprocess and its bound address.

    ``listen`` mode (default) binds an ephemeral loopback port and exposes
    it as :attr:`address`.  ``join="host:port"`` dials a master's
    registration listener instead (:attr:`address` stays ``None``).  Output
    is teed to ``<log dir>/<name>.log``.
    """

    def __init__(
        self,
        cache_dir: Path,
        *,
        join: str | None = None,
        secret: str | None = None,
        task_delay: float = 0.0,
        name: str | None = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.cache_dir = Path(cache_dir)
        self.name = name or self.cache_dir.name
        argv = [sys.executable, "-m", "repro", "worker", "--base-dir", str(cache_dir)]
        if join is not None:
            argv += ["--join", join]
        else:
            argv += ["--listen", "127.0.0.1:0"]
        if secret is not None:
            secret_path = self.cache_dir.parent / f"{self.cache_dir.name}.secret"
            secret_path.write_text(secret)
            argv += ["--secret-file", str(secret_path)]
        if task_delay:
            argv += ["--task-delay", str(task_delay)]
        log_dir = _log_dir(self.cache_dir.parent)
        # Always-on observability: structured logs land next to the teed
        # stdout/stderr (CI uploads the whole directory), and an orderly
        # shutdown exports the worker's metrics snapshot.
        self.json_log_path = log_dir / f"{self.name}.jsonl"
        self.metrics_path = log_dir / f"{self.name}.metrics.json"
        argv += [
            "--log-json",
            str(self.json_log_path),
            "--log-level",
            "debug",
            "--metrics-out",
            str(self.metrics_path),
        ]
        log_path = log_dir / f"{self.name}.log"
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, text=True, env=env
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        expected = "joining master" if join is not None else "listening on"
        if expected not in line:
            self.stop()
            raise RuntimeError(f"worker failed to start: {line!r} (log: {log_path})")
        self.address = None if join is not None else line.strip().rsplit(" ", 1)[-1]
        self._log.write(line)
        self._tee = threading.Thread(target=self._drain_stdout, daemon=True)
        self._tee.start()

    def _drain_stdout(self) -> None:
        assert self.proc.stdout is not None
        try:
            for line in self.proc.stdout:
                self._log.write(line)
                self._log.flush()
        except ValueError:  # log handle closed during stop()
            pass

    def structured_events(self, event: str | None = None) -> list[dict]:
        """Parse the worker's JSON-lines log, optionally filtered by event."""
        import json

        if not self.json_log_path.exists():
            return []
        records = []
        for line in self.json_log_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:  # torn final line from a SIGKILL
                continue
            if event is None or record.get("event") == event:
                records.append(record)
        return records

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stubborn worker
                self.kill()
        try:
            self._log.close()
        except OSError:  # pragma: no cover
            pass


def _read_frame(sock: socket.socket) -> tuple[bytes, bytes] | None:
    """Read one complete wire frame; returns ``(header, payload)`` or None."""
    header = _recv_exactly(sock, wire.HEADER_SIZE)
    if header is None:
        return None
    length, _ = wire.parse_header(header)
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise ConnectionError("peer closed mid-frame")
    return header, payload


def _frame_op(payload: bytes) -> str | None:
    try:
        message = wire.loads(payload)
    except wire.WireError:
        return None
    return message.get("op") if isinstance(message, dict) else None


class ChaosProxy:
    """Frame-aware TCP proxy between a master and one worker node.

    Point the master's transport at :attr:`address`; the proxy forwards to
    ``upstream`` (a real worker) while injecting exactly one class of fault:

    ``delay_results``
        Sleep this many seconds before forwarding every ``result`` frame —
        a deterministically *slow* node.
    ``truncate_result_at=n``
        Forward only the first half of the n-th (1-based) ``result`` frame,
        then hard-close both directions — a node crashing mid-reply.
    ``duplicate_result_at=n``
        Forward the n-th ``result`` frame twice — a confused or replaying
        peer.
    ``corrupt_task_at=n``
        Flip one payload byte of the n-th ``task`` frame on its way to the
        worker — wire corruption the codec's CRC must catch.
    """

    def __init__(
        self,
        upstream: str,
        *,
        delay_results: float = 0.0,
        truncate_result_at: int | None = None,
        duplicate_result_at: int | None = None,
        corrupt_task_at: int | None = None,
    ) -> None:
        host, _, port = upstream.rpartition(":")
        self._upstream = (host, int(port))
        self.delay_results = delay_results
        self.truncate_result_at = truncate_result_at
        self.duplicate_result_at = duplicate_result_at
        self.corrupt_task_at = corrupt_task_at
        self.results_seen = 0
        self.tasks_seen = 0
        self._closed = False
        self._conns: list[socket.socket] = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self._server.settimeout(0.2)
        self.address = "{}:{}".format(*self._server.getsockname()[:2])
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._server.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self._upstream, timeout=10)
            except OSError:
                client.close()
                continue
            for sock in (client, upstream):
                sock.settimeout(60)
                self._conns.append(sock)
            threading.Thread(
                target=self._pump, args=(client, upstream, "task"), daemon=True
            ).start()
            threading.Thread(
                target=self._pump, args=(upstream, client, "result"), daemon=True
            ).start()

    def _pump(self, source: socket.socket, sink: socket.socket, direction: str) -> None:
        try:
            while True:
                frame = _read_frame(source)
                if frame is None:
                    break
                header, payload = frame
                op = _frame_op(payload)
                if direction == "result" and op == "result":
                    self.results_seen += 1
                    if self.delay_results:
                        time.sleep(self.delay_results)
                    if self.truncate_result_at == self.results_seen:
                        data = header + payload
                        sink.sendall(data[: max(1, len(data) // 2)])
                        break  # finally-close severs both directions
                    if self.duplicate_result_at == self.results_seen:
                        sink.sendall(header + payload)
                elif direction == "task" and op == "task":
                    self.tasks_seen += 1
                    if self.corrupt_task_at == self.tasks_seen:
                        payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
                sink.sendall(header + payload)
        except (OSError, ConnectionError):
            pass
        finally:
            # Linux sends no FIN when one thread closes a socket its sibling
            # pump is blocked reading, so shut both directions down first.
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closed = True
        try:
            self._server.close()
        except OSError:
            pass
        for sock in self._conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
