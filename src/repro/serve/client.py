"""Client for the ``repro serve`` daemon.

:class:`ServeClient` is the scripting surface the ``repro client`` CLI
wraps: one authenticated connection, plain method-per-op API, typed
:class:`ServeRequestError` for every error the daemon replies with (the
``code`` attribute carries the daemon's machine-readable reason, e.g.
``"backpressure"`` or ``"spec_mismatch"``).

A daemon that is still binding its socket (CI races, supervisor restarts) is
retried with a short interval instead of failing the first dial.
"""

from __future__ import annotations

import socket
import time

from repro.kg.updates import UpdateBatch
from repro.sampling.rpc import (
    RPCError,
    _normalise_secret,
    parse_node_address,
    recv_message,
    send_message,
)
from repro.serve import protocol

__all__ = ["ServeClient", "ServeRequestError"]


class ServeRequestError(RPCError):
    """The daemon replied with a typed error to a well-formed request."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One authenticated connection to a serve daemon.

    Parameters
    ----------
    address:
        ``host:port`` of the daemon.
    secret:
        Shared secret (must match the daemon's ``--secret-file``).
    timeout:
        Per-request socket timeout.  ``poll`` temporarily extends it so a
        server-side threshold wait cannot trip the client first.
    connect_retries, retry_interval:
        Dial retry budget while the daemon is still coming up.
    """

    def __init__(
        self,
        address: str,
        *,
        secret=None,
        timeout: float = 60.0,
        connect_retries: int = 40,
        retry_interval: float = 0.25,
    ) -> None:
        host, port = parse_node_address(address)
        secret = _normalise_secret(secret)
        self._timeout = float(timeout)
        last_error: Exception | None = None
        sock: socket.socket | None = None
        for _ in range(max(1, int(connect_retries))):
            try:
                sock = socket.create_connection((host, port), timeout=self._timeout)
                break
            except OSError as exc:
                last_error = exc
                time.sleep(retry_interval)
        if sock is None:
            raise RPCError(f"cannot reach serve daemon at {address}: {last_error}")
        self._sock = sock
        try:
            protocol.client_handshake(sock, secret)
        except BaseException:
            sock.close()
            raise

    # ------------------------------------------------------------------ #
    def _request(self, message: dict, *, timeout: float | None = None) -> dict:
        self._sock.settimeout(self._timeout if timeout is None else timeout)
        send_message(self._sock, message)
        reply = recv_message(self._sock, limit=protocol.MAX_REQUEST_BYTES)
        if not isinstance(reply, dict):
            raise RPCError("serve daemon closed the connection mid-request")
        if reply.get("op") == "error":
            raise ServeRequestError(
                str(reply.get("code", "error")), str(reply.get("message", ""))
            )
        return reply

    # ------------------------------------------------------------------ #
    def attach(self, spec: dict, *, session: str | None = None, wait: bool = True) -> dict:
        """Attach (or idempotently re-attach) an evaluation session."""
        message: dict = {"op": "attach", "spec": spec, "wait": wait}
        if session is not None:
            message["session"] = session
        return self._request(message, timeout=None if wait else self._timeout)

    def submit(
        self,
        session: str,
        batch_id: str,
        triples,
        labels,
        *,
        wait: bool = True,
    ) -> dict:
        """Submit one update batch given as Triples and one label each.

        The batch goes out as columns, converted here, as
        :meth:`submit_batch` sends it.
        """
        batch = UpdateBatch.from_triples(batch_id, triples, labels)
        return self.submit_batch(session, batch, wait=wait)

    def submit_batch(self, session: str, batch: UpdateBatch, *, wait: bool = True) -> dict:
        """Submit a labelled :class:`~repro.kg.updates.UpdateBatch` into a session."""
        return self._request(
            {
                "op": "submit",
                "session": session,
                "batch_id": batch.batch_id,
                "subjects": list(batch.subjects),
                "predicates": list(batch.predicates),
                "objects": list(batch.objects),
                "entity_objects": batch.entity_objects,
                "labels": batch.labels,
                "wait": wait,
            }
        )

    def estimate(self, session: str) -> dict:
        """O(1) read of the session's latest cached round — never samples."""
        return self._request({"op": "estimate", "session": session})

    def poll(
        self,
        session: str,
        *,
        min_records: int | None = None,
        moe_below: float | None = None,
        timeout: float = 30.0,
    ) -> dict:
        """Block server-side until the trajectory satisfies a threshold."""
        message: dict = {"op": "poll", "session": session, "timeout": float(timeout)}
        if min_records is not None:
            message["min_records"] = int(min_records)
        if moe_below is not None:
            message["moe_below"] = float(moe_below)
        return self._request(message, timeout=float(timeout) + self._timeout)

    def trajectory(self, session: str) -> dict:
        return self._request({"op": "trajectory", "session": session})

    def sessions(self) -> dict:
        return self._request({"op": "sessions"})

    def detach(self, session: str) -> dict:
        return self._request({"op": "detach", "session": session})

    def close(self) -> None:
        try:
            send_message(self._sock, {"op": "shutdown"})
            recv_message(self._sock, limit=protocol.MAX_REQUEST_BYTES)
        except (OSError, RPCError):  # pragma: no cover - best-effort goodbye
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
