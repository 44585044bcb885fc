"""Serve protocol: framing limits, handshake and request validation.

``repro serve`` speaks the authenticated v2 wire of :mod:`repro.sampling.rpc`:
CRC-checked frames of the :mod:`repro.sampling.wire` codec, opened by a
mutual HMAC handshake under two domain-separated roles
(``serve-client``/``serve-server``).  The server's opening challenge carries
``service: "serve"``, which lets a client that dialed some other service
fail with a typed error instead of a confusing auth failure.

Requests and replies are plain dicts.  A ``submit`` carries its update batch
as columns (:func:`decode_batch`); cached results ride the serve wire tags
(20–22) of :mod:`repro.sampling.wire`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from repro.kg.updates import UpdateBatch

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


#: The string columns of a ``submit``, one entry per triple.
_STRING_COLUMNS = ("subjects", "predicates", "objects")
#: Its byte columns, one 0/1 byte per triple.
_BYTE_COLUMNS = ("entity_objects", "labels")


def decode_batch(message: dict) -> UpdateBatch:
    """Validate a ``submit`` request's batch payload and return the batch.

    The batch arrives as columns: ``subjects``, ``predicates`` and
    ``objects`` are lists of strings and ``entity_objects`` and ``labels``
    bytes of 0/1, one entry per triple.  Raises :class:`ValueError`, naming
    the field, on any malformation, so the server replies a typed error
    instead of letting a bad payload reach the evaluator; a request in the
    retired ``triples`` shape is refused the same way.
    """
    from repro.kg.updates import UpdateBatch

    if "triples" in message:
        raise ValueError(
            "submit carries its batch as columns (subjects, predicates, objects, "
            "entity_objects, labels); the triples field is not accepted"
        )
    batch_id = message.get("batch_id")
    if not isinstance(batch_id, str) or not batch_id:
        raise ValueError("submit requires a non-empty string batch_id")
    columns = {}
    for field in _STRING_COLUMNS:
        column = message.get(field)
        if not isinstance(column, list) or not column:
            raise ValueError(f"submit requires {field} as a non-empty list of strings")
        if set(map(type, column)) != {str}:
            raise ValueError(f"submit {field} must all be strings")
        columns[field] = column
    for field in _BYTE_COLUMNS:
        column = message.get(field)
        if not isinstance(column, bytes):
            raise ValueError(f"submit requires {field} as bytes of 0/1")
        columns[field] = column
    return UpdateBatch(batch_id, **columns)
