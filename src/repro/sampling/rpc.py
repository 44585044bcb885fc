"""Authenticated framing for the ``repro serve`` socket protocol (v2).

Every message is one value under the schema'd binary codec of
:mod:`repro.sampling.wire` (tagged fields, explicit dtype/shape encoding for
ndarrays and RNG states, CRC-checked frames, **no pickle and no arbitrary
object deserialization anywhere on the wire path**).  This module holds the
pieces a connection needs before and around its requests:

* framing — :func:`send_message` / :func:`recv_message` move one frame over
  a socket, bounded by a caller-chosen size limit, and turn every codec
  failure into :class:`RPCError`;
* shared secrets — :func:`load_secret_file` reads one from disk, and
  :func:`_auth_tag` / :func:`_auth_ok` compute and check the HMAC-SHA256 tags
  of the mutual challenge/response handshake that
  :mod:`repro.serve.protocol` runs on connect;
* :func:`parse_node_address` for ``host:port`` strings.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
from pathlib import Path

from repro.sampling import wire

__all__ = [
    "PROTOCOL_VERSION",
    "RPCError",
    "RPCAuthError",
    "send_message",
    "recv_message",
    "parse_node_address",
    "load_secret_file",
]

PROTOCOL_VERSION = 2
#: Upper bound on *handshake* frames — challenge/hello/welcome are a few
#: hundred bytes, and nothing larger may be buffered from a peer that has not
#: yet authenticated (an unauthenticated client must not be able to make this
#: side allocate gigabytes).
MAX_HANDSHAKE_BYTES = 1 << 16
_NONCE_BYTES = 16


class RPCError(RuntimeError):
    """Transport-level failure (connection, protocol)."""


class RPCAuthError(RPCError):
    """The shared-secret handshake failed on connect.

    Raised before any request bytes are exchanged: a misconfigured secret
    can never leak work to a peer that does not hold it.
    """


# --------------------------------------------------------------------------- #
# Framing (delegates to the schema'd wire codec)
# --------------------------------------------------------------------------- #
def send_message(sock: socket.socket, obj) -> None:
    """Write one framed message to a socket."""
    sock.sendall(wire.encode_frame(obj))


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None  # clean EOF at a frame boundary
            raise RPCError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, *, limit: int):
    """Read one framed message; returns ``None`` on clean end-of-stream.

    All decode failures surface as :class:`RPCError` (wrapping the codec's
    :class:`~repro.sampling.wire.WireError`), so callers latching a peer
    dead on ``(OSError, RPCError)`` catch every protocol malformation.
    ``limit`` caps the accepted payload size — handshake reads pass the
    small pre-authentication bound, so a corrupted or hostile length
    prefix never makes this side allocate.
    """
    header = _recv_exactly(sock, wire.HEADER_SIZE)
    if header is None:
        return None
    try:
        length, crc = wire.parse_header(header)
    except wire.WireError as exc:
        raise RPCError(f"protocol error: {exc}") from exc
    if length > limit:
        raise RPCError(f"frame of {length} bytes exceeds limit {limit}")
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise RPCError("connection closed mid-frame")
    try:
        return wire.check_payload(payload, crc)
    except wire.WireError as exc:
        raise RPCError(f"protocol error: {exc}") from exc


def parse_node_address(spec: str) -> tuple[str, int]:
    """Parse ``"host:port"``."""
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ValueError(f"node address {spec!r} is not of the form host:port")
    return host, int(port)


# --------------------------------------------------------------------------- #
# Shared-secret authentication
# --------------------------------------------------------------------------- #
def _normalise_secret(secret) -> bytes:
    if secret is None:
        return b""
    if isinstance(secret, str):
        return secret.encode("utf-8")
    return bytes(secret)


def load_secret_file(path: str | Path) -> bytes:
    """Read a shared secret from a file (surrounding whitespace stripped)."""
    data = Path(path).read_bytes().strip()
    if not data:
        raise ValueError(f"secret file {path} is empty")
    return data


def _auth_tag(secret: bytes, role: bytes, initiator_nonce: bytes, responder_nonce: bytes) -> bytes:
    """HMAC tag binding the role *and both* handshake nonces.

    The role strings are domain-separated per handshake direction
    (``serve-client`` / ``serve-server``) and every tag covers the full nonce
    pair, so a tag obtained from one exchange can never be replayed into
    another: no two contexts ever verify the same ``(role, nonce_pair)``
    message.
    """
    material = role + b":" + initiator_nonce + b":" + responder_nonce
    return hmac.new(secret, material, hashlib.sha256).digest()


def _auth_ok(secret: bytes, role: bytes, initiator_nonce, responder_nonce, tag) -> bool:
    if (
        not isinstance(initiator_nonce, bytes)
        or not isinstance(responder_nonce, bytes)
        or not isinstance(tag, bytes)
    ):
        return False
    return hmac.compare_digest(_auth_tag(secret, role, initiator_nonce, responder_nonce), tag)
