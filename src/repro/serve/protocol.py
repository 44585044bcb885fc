"""Serve protocol: framing limits, handshake and request validation.

``repro serve`` speaks the authenticated v2 wire of :mod:`repro.sampling.rpc`:
CRC-checked frames of the :mod:`repro.sampling.wire` codec, opened by a
mutual HMAC handshake under two domain-separated roles
(``serve-client``/``serve-server``).  The server's opening challenge carries
``service: "serve"``, which lets a client that dialed some other service
fail with a typed error instead of a confusing auth failure.

Requests and replies are plain dicts; update triples and cached results
ride the serve wire tags (19–22) of :mod:`repro.sampling.wire`.
"""

from __future__ import annotations

import os

from repro.kg.triple import Triple
from repro.sampling.rpc import (
    MAX_HANDSHAKE_BYTES,
    PROTOCOL_VERSION,
    RPCAuthError,
    RPCError,
    _NONCE_BYTES,
    _auth_ok,
    _auth_tag,
    recv_message,
    send_message,
)

__all__ = [
    "SERVICE",
    "MAX_REQUEST_BYTES",
    "ROLE_CLIENT",
    "ROLE_SERVER",
    "server_handshake",
    "client_handshake",
    "as_number",
    "decode_batch",
]

SERVICE = "serve"
#: Upper bound on one serve request frame.  Update batches dominate (a few
#: strings per triple); 256 MiB admits millions of triples per batch while
#: keeping a hostile client from making the daemon allocate without bound.
MAX_REQUEST_BYTES = 256 * 2**20

ROLE_CLIENT = b"serve-client"
ROLE_SERVER = b"serve-server"


def server_handshake(conn, secret: bytes) -> bool:
    """Challenge/response with a connecting client; True once mutually authed.

    Version banner + nonce out, HMAC tag over both nonces back, counter-tag
    returned — all under the small pre-authentication frame limit.
    """
    nonce = os.urandom(_NONCE_BYTES)
    send_message(
        conn,
        {
            "op": "challenge",
            "service": SERVICE,
            "version": PROTOCOL_VERSION,
            "nonce": nonce,
        },
    )
    hello = recv_message(conn, limit=MAX_HANDSHAKE_BYTES)
    if not isinstance(hello, dict) or hello.get("op") != "hello":
        return False
    if hello.get("version") != PROTOCOL_VERSION:
        send_message(
            conn,
            {
                "op": "error",
                "message": f"protocol version mismatch, server speaks v{PROTOCOL_VERSION}",
            },
        )
        return False
    client_nonce = hello.get("nonce")
    if not _auth_ok(secret, ROLE_CLIENT, nonce, client_nonce, hello.get("auth")):
        send_message(
            conn, {"op": "auth_error", "message": "shared-secret authentication failed"}
        )
        return False
    send_message(
        conn,
        {
            "op": "welcome",
            "version": PROTOCOL_VERSION,
            "auth": _auth_tag(secret, ROLE_SERVER, nonce, client_nonce),
        },
    )
    return True


def client_handshake(sock, secret: bytes) -> None:
    """Complete the client side of the mutual handshake (raises on failure)."""
    challenge = recv_message(sock, limit=MAX_HANDSHAKE_BYTES)
    if not isinstance(challenge, dict) or challenge.get("op") != "challenge":
        raise RPCError(f"malformed serve challenge: {challenge!r}")
    if challenge.get("service") != SERVICE:
        raise RPCError(
            "peer is not a serve daemon (did you dial a worker? "
            f"service={challenge.get('service')!r})"
        )
    if challenge.get("version") != PROTOCOL_VERSION:
        raise RPCError(
            f"serve daemon speaks protocol v{challenge.get('version')}, "
            f"this client speaks v{PROTOCOL_VERSION}"
        )
    server_nonce = challenge.get("nonce")
    if not isinstance(server_nonce, bytes):
        raise RPCError("malformed serve challenge: missing nonce")
    nonce = os.urandom(_NONCE_BYTES)
    send_message(
        sock,
        {
            "op": "hello",
            "version": PROTOCOL_VERSION,
            "nonce": nonce,
            "auth": _auth_tag(secret, ROLE_CLIENT, server_nonce, nonce),
        },
    )
    welcome = recv_message(sock, limit=MAX_HANDSHAKE_BYTES)
    if isinstance(welcome, dict) and welcome.get("op") == "auth_error":
        raise RPCAuthError("serve daemon rejected the shared secret")
    if not isinstance(welcome, dict) or welcome.get("op") != "welcome":
        raise RPCError(f"serve handshake failed: {welcome!r}")
    if not _auth_ok(secret, ROLE_SERVER, server_nonce, nonce, welcome.get("auth")):
        raise RPCAuthError("serve daemon failed to prove the shared secret")


def as_number(value, kind: type, field: str):
    """``kind(value)`` for a client-supplied number; ``ValueError`` names the field.

    Only ints and floats (never bools, strings, lists or dicts) convert, so a
    mistyped request field gets a typed ``bad_request`` reply instead of an
    unhandled ``TypeError`` in the connection thread.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {type(value).__name__}")
    try:
        return kind(value)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{field} is out of range: {exc}") from None


def decode_batch(message: dict) -> tuple[str, tuple[Triple, ...], list[bool]]:
    """Validate a ``submit`` request's batch payload.

    Returns ``(batch_id, triples, labels)``; raises :class:`ValueError` on
    any malformation so the server replies a typed error instead of letting
    a bad payload reach the evaluator.
    """
    batch_id = message.get("batch_id")
    if not isinstance(batch_id, str) or not batch_id:
        raise ValueError("submit requires a non-empty string batch_id")
    triples = message.get("triples")
    if not isinstance(triples, (list, tuple)) or not triples:
        raise ValueError("submit requires a non-empty triples list")
    if not all(isinstance(triple, Triple) for triple in triples):
        raise ValueError("submit triples must all be wire-encoded Triples")
    labels = message.get("labels")
    if not isinstance(labels, (list, tuple)) or len(labels) != len(triples):
        raise ValueError("submit requires one label per triple")
    if not all(isinstance(label, bool) for label in labels):
        raise ValueError("submit labels must all be bools")
    return batch_id, tuple(triples), list(labels)
