"""Schema'd binary wire codec for the ``repro serve`` protocol.

Every value on the wire is one of a fixed set of tagged types, decoded by
explicit readers that validate lengths and field types as they go.
Decoding never constructs anything outside this set — there is no pickle
anywhere on the wire path — so a malformed or malicious frame can produce
exactly one outcome: :class:`WireError`.

Frame layout (everything big-endian)::

    magic   2 bytes   b"RW"
    version 1 byte    WIRE_VERSION
    flags   1 byte    reserved, must be 0
    length  8 bytes   payload byte count
    crc32   4 bytes   zlib.crc32 of the payload
    payload N bytes   one tagged value

The CRC makes corruption detection deterministic: *any* byte flip in a frame
— header or payload — fails the magic/version/length/CRC checks before a
single value is decoded, which is what lets the fuzz suite assert
``decode(mutate(encode(x)))`` always raises :class:`WireError`.

Value encoding is one tag byte followed by a tag-specific body:

====  =======================================================================
tag   body
====  =======================================================================
``0`` ``None`` (empty body)
``1`` ``True`` / ``2`` ``False``
``3`` int64 (8 bytes, signed)
``4`` big int: sign byte, u32 magnitude length, magnitude bytes
``5`` float64 (8 bytes)
``6`` str: u32 length, UTF-8 bytes
``7`` bytes: u64 length, raw bytes
``8`` list / ``9`` tuple: u32 count, then each element
``10`` dict: u32 count, then (str key, value) pairs — keys must be ``str``
``19`` :class:`~repro.kg.triple.Triple` (subject, predicate, object strings +
       is_entity_object bool)
``20`` :class:`~repro.sampling.base.Estimate` (value, std_error, num_units,
       num_triples)
``21`` :class:`~repro.core.result.EvaluationReport` (a tagged Estimate + the
       8 scalar report fields)
``22`` :class:`~repro.evolving.monitor.MonitorRecord` (7 scalar fields)
====  =======================================================================

Tags ``11``–``18`` are retired: ``11`` and ``12`` carried NumPy arrays and
``SeedSequence`` objects, which no serve message holds, and ``13``–``18``
the shard tasks, results and trace contexts of a removed worker protocol.
Decoding one fails with the typed ``unknown wire tag`` :class:`WireError`,
like any tag beyond ``22``, and encoding an array or a ``SeedSequence``
fails as any other type outside the schema does; every other tag keeps its
number and its bytes.

Generator states (``Generator.bit_generator.state``) need no tag of their
own: they are plain dicts of strs, ints (including the 128-bit PCG64 state
words, carried by the big-int tag) and nested dicts, and round-trip through
the container tags bit-exactly.
"""

from __future__ import annotations

import re
import struct
import zlib

import numpy as np

from repro.core.result import EvaluationReport
from repro.evolving.monitor import MonitorRecord
from repro.kg.triple import Triple
from repro.sampling.base import Estimate

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "WireError",
    "dumps",
    "loads",
    "encode_frame",
    "decode_frame",
    "parse_header",
    "check_payload",
]

WIRE_VERSION = 1
MAGIC = b"RW"
_HEADER = struct.Struct(">2sBBQI")
HEADER_SIZE = _HEADER.size

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_BIGINT = 4
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_TRIPLE = 19
_T_ESTIMATE = 20
_T_REPORT = 21
_T_MONITOR_RECORD = 22

_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
#: A str's tag and length; a Triple's tag followed by its subject's.
_STR_HEAD = struct.Struct(">BI")
_TRIPLE_HEAD = struct.Struct(">BBI")
_TRUE_BYTE = bytes([_T_TRUE])
_FALSE_BYTE = bytes([_T_FALSE])
_BOOL_TAGS = _TRUE_BYTE + _FALSE_BYTE
#: Any byte but a bool tag: searched for in place, so a list's items are
#: never copied before the decoder knows they are all bools.
_NOT_BOOL_TAG = re.compile(b"[^%c%c]" % (_T_TRUE, _T_FALSE))

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
#: Nesting bound: real messages are ~4 levels deep; crafted frames don't get
#: to wind the decoder's stack arbitrarily far.
_MAX_DEPTH = 32
_MAX_BIGINT_BYTES = 1 << 20


class WireError(RuntimeError):
    """A frame or value failed to encode or decode under the wire schema."""


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _encode_int(value: int, out: bytearray) -> None:
    if _I64_MIN <= value <= _I64_MAX:
        out.append(_T_INT)
        out += _I64.pack(value)
        return
    out.append(_T_BIGINT)
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    if len(body) > _MAX_BIGINT_BYTES:
        raise WireError(f"integer of {len(body)} bytes exceeds the wire limit")
    out.append(1 if value < 0 else 0)
    out += _U32.pack(len(body))
    out += body


def _encode_str(value: str, out: bytearray) -> None:
    data = value.encode("utf-8")
    out += _STR_HEAD.pack(_T_STR, len(data))
    out += data


def _triple_bytes(triple: Triple) -> bytes:
    """A Triple's tag, its three str values and its flag, in one buffer."""
    subject = triple.subject.encode("utf-8")
    predicate = triple.predicate.encode("utf-8")
    obj = triple.obj.encode("utf-8")
    return b"".join(
        (
            _TRIPLE_HEAD.pack(_T_TRIPLE, _T_STR, len(subject)),
            subject,
            _STR_HEAD.pack(_T_STR, len(predicate)),
            predicate,
            _STR_HEAD.pack(_T_STR, len(obj)),
            obj,
            _TRUE_BYTE if triple.is_entity_object else _FALSE_BYTE,
        )
    )


def _encode_items(tag: int, items, out: bytearray, depth: int) -> None:
    """A list or tuple whose items sit at ``depth``."""
    out.append(tag)
    out += _U32.pack(len(items))
    for item in items:
        _encode(item, out, depth)


def _encode_dict(value: dict, out: bytearray, depth: int) -> None:
    """A dict whose values sit at ``depth``."""
    out.append(_T_DICT)
    out += _U32.pack(len(value))
    for key, item in value.items():
        if not isinstance(key, str):
            raise WireError(f"dict keys on the wire must be str, got {type(key).__name__}")
        data = key.encode("utf-8")
        out += _U32.pack(len(data))
        out += data
        _encode(item, out, depth)


def _encode(value, out: bytearray, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise WireError("value nests deeper than the wire limit")
    # Exact types first (a submit is a dict of strs, a list of Triples and a
    # list of bools); subclasses and numpy scalars take the chain below.
    cls = type(value)
    if cls is str:
        _encode_str(value, out)
    elif cls is Triple:
        out += _triple_bytes(value)
    elif cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif cls is list:
        _encode_items(_T_LIST, value, out, depth + 1)
    elif cls is dict:
        _encode_dict(value, out, depth + 1)
    elif value is None:
        out.append(_T_NONE)
    elif isinstance(value, (bool, np.bool_)):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, (int, np.integer)):
        _encode_int(int(value), out)
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        _encode_str(value, out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        out += _U64.pack(len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        _encode_items(_T_LIST if isinstance(value, list) else _T_TUPLE, value, out, depth + 1)
    elif isinstance(value, dict):
        _encode_dict(value, out, depth + 1)
    elif isinstance(value, Triple):
        out += _triple_bytes(value)
    elif isinstance(value, Estimate):
        out.append(_T_ESTIMATE)
        for field in (
            float(value.value),
            float(value.std_error),
            int(value.num_units),
            int(value.num_triples),
        ):
            _encode(field, out, depth + 1)
    elif isinstance(value, EvaluationReport):
        out.append(_T_REPORT)
        for field in (
            value.estimate,
            float(value.confidence_level),
            float(value.moe_target),
            bool(value.satisfied),
            int(value.iterations),
            int(value.num_units),
            int(value.num_triples_annotated),
            int(value.num_entities_identified),
            float(value.annotation_cost_seconds),
        ):
            _encode(field, out, depth + 1)
    elif isinstance(value, MonitorRecord):
        out.append(_T_MONITOR_RECORD)
        for field in (
            int(value.batch_index),
            value.batch_id,
            float(value.estimated_accuracy),
            float(value.margin_of_error),
            float(value.true_accuracy),
            float(value.incremental_cost_hours),
            float(value.cumulative_cost_hours),
        ):
            _encode(field, out, depth + 1)
    else:
        raise WireError(f"type {type(value).__name__} is not allowed on the wire")


def dumps(value) -> bytes:
    """Encode one value to its tagged byte form (payload only, no frame)."""
    out = bytearray()
    _encode(value, out, 0)
    return bytes(out)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
def _truncated(wanted: int, left: int) -> WireError:
    return WireError(f"frame truncated: wanted {wanted} bytes, {left} left")


class _Reader:
    """Bounds-checked cursor over a payload buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, count: int) -> bytes:
        if count < 0 or count > self.remaining:
            raise _truncated(count, self.remaining)
        start = self.pos
        self.pos = start + count
        return self.data[start : self.pos]

    def u8(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise _truncated(1, 0)
        self.pos = pos + 1
        return self.data[pos]

    def unpack(self, scalar: struct.Struct) -> int | float:
        pos = self.pos
        end = pos + scalar.size
        if end > len(self.data):
            raise _truncated(scalar.size, len(self.data) - pos)
        self.pos = end
        return scalar.unpack_from(self.data, pos)[0]

    def u32(self) -> int:
        return self.unpack(_U32)

    def u64(self) -> int:
        return self.unpack(_U64)


def _decode_str(reader: _Reader) -> str:
    data = reader.data
    start = reader.pos + 4
    if start > len(data):
        raise _truncated(4, len(data) - reader.pos)
    end = start + _U32.unpack_from(data, reader.pos)[0]
    if end > len(data):
        raise _truncated(end - start, len(data) - start)
    reader.pos = end
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid UTF-8 on the wire: {exc}") from None


def _decode_str_field(reader: _Reader, depth: int, what: str) -> str:
    """A str-typed field, read in place when it carries the str tag."""
    pos = reader.pos
    if depth <= _MAX_DEPTH and pos < len(reader.data) and reader.data[pos] == _T_STR:
        reader.pos = pos + 1
        return _decode_str(reader)
    return _expect(_decode(reader, depth), str, what)


def _expect(value, kinds, what: str):
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is int:
        raise WireError(f"bad field type for {what}: {type(value).__name__}")
    return value


def _decode_float_field(reader: _Reader, depth: int, what: str) -> float:
    value = _decode(reader, depth)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{what} must be a number")
    return float(value)


def _decode_triple(reader: _Reader, depth: int) -> Triple:
    subject = _decode_str_field(reader, depth, "Triple.subject")
    predicate = _decode_str_field(reader, depth, "Triple.predicate")
    obj = _decode_str_field(reader, depth, "Triple.obj")
    pos = reader.pos
    # The subject got past the nesting check, so the flag may skip it too.
    if pos < len(reader.data) and reader.data[pos] in _BOOL_TAGS:
        reader.pos = pos + 1
        return Triple(subject, predicate, obj, reader.data[pos] == _T_TRUE)
    flag = _decode(reader, depth)
    if not isinstance(flag, bool):
        raise WireError("Triple.is_entity_object must be a bool")
    return Triple(subject, predicate, obj, is_entity_object=flag)


def _decode_estimate(reader: _Reader, depth: int) -> Estimate:
    value = _decode_float_field(reader, depth, "Estimate.value")
    std_error = _decode_float_field(reader, depth, "Estimate.std_error")
    num_units = _expect(_decode(reader, depth), int, "Estimate.num_units")
    num_triples = _expect(_decode(reader, depth), int, "Estimate.num_triples")
    return Estimate(
        value=value, std_error=std_error, num_units=num_units, num_triples=num_triples
    )


def _decode_report(reader: _Reader, depth: int) -> EvaluationReport:
    estimate = _decode(reader, depth)
    if not isinstance(estimate, Estimate):
        raise WireError("EvaluationReport.estimate must be an Estimate")
    confidence_level = _decode_float_field(reader, depth, "EvaluationReport.confidence_level")
    moe_target = _decode_float_field(reader, depth, "EvaluationReport.moe_target")
    satisfied = _decode(reader, depth)
    if not isinstance(satisfied, bool):
        raise WireError("EvaluationReport.satisfied must be a bool")
    iterations = _expect(_decode(reader, depth), int, "EvaluationReport.iterations")
    num_units = _expect(_decode(reader, depth), int, "EvaluationReport.num_units")
    num_annotated = _expect(_decode(reader, depth), int, "EvaluationReport.num_triples_annotated")
    num_entities = _expect(
        _decode(reader, depth), int, "EvaluationReport.num_entities_identified"
    )
    cost = _decode_float_field(reader, depth, "EvaluationReport.annotation_cost_seconds")
    return EvaluationReport(
        estimate=estimate,
        confidence_level=confidence_level,
        moe_target=moe_target,
        satisfied=satisfied,
        iterations=iterations,
        num_units=num_units,
        num_triples_annotated=num_annotated,
        num_entities_identified=num_entities,
        annotation_cost_seconds=cost,
    )


def _decode_monitor_record(reader: _Reader, depth: int) -> MonitorRecord:
    batch_index = _expect(_decode(reader, depth), int, "MonitorRecord.batch_index")
    batch_id = _expect(_decode(reader, depth), str, "MonitorRecord.batch_id")
    estimated = _decode_float_field(reader, depth, "MonitorRecord.estimated_accuracy")
    moe = _decode_float_field(reader, depth, "MonitorRecord.margin_of_error")
    truth = _decode_float_field(reader, depth, "MonitorRecord.true_accuracy")
    incremental = _decode_float_field(reader, depth, "MonitorRecord.incremental_cost_hours")
    cumulative = _decode_float_field(reader, depth, "MonitorRecord.cumulative_cost_hours")
    return MonitorRecord(
        batch_index=batch_index,
        batch_id=batch_id,
        estimated_accuracy=estimated,
        margin_of_error=moe,
        true_accuracy=truth,
        incremental_cost_hours=incremental,
        cumulative_cost_hours=cumulative,
    )


def _decode(reader: _Reader, depth: int):
    if depth > _MAX_DEPTH:
        raise WireError("frame nests deeper than the wire limit")
    tag = reader.u8()
    # The common tags first: a submit is strs, Triples and bools.
    if tag == _T_STR:
        return _decode_str(reader)
    if tag == _T_TRIPLE:
        return _decode_triple(reader, depth + 1)
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_NONE:
        return None
    if tag == _T_INT:
        return reader.unpack(_I64)
    if tag == _T_BIGINT:
        sign = reader.u8()
        if sign not in (0, 1):
            raise WireError(f"invalid big-int sign byte {sign}")
        length = reader.u32()
        if length > _MAX_BIGINT_BYTES:
            raise WireError(f"big int of {length} bytes exceeds the wire limit")
        magnitude = int.from_bytes(reader.take(length), "big")
        return -magnitude if sign else magnitude
    if tag == _T_FLOAT:
        return reader.unpack(_F64)
    if tag == _T_BYTES:
        return reader.take(reader.u64())
    if tag in (_T_LIST, _T_TUPLE):
        count = reader.u32()
        if count > reader.remaining:
            raise WireError(f"container of {count} items exceeds the frame")
        start = reader.pos
        end = start + count
        if depth < _MAX_DEPTH and _NOT_BOOL_TAG.search(reader.data, start, end) is None:
            # Every item is a one-byte bool tag, like a submit's labels.
            reader.pos = end
            items = list(map(_T_TRUE.__eq__, reader.data[start:end]))
        else:
            items = [_decode(reader, depth + 1) for _ in range(count)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        count = reader.u32()
        if count > reader.remaining:
            raise WireError(f"dict of {count} items exceeds the frame")
        out = {}
        for _ in range(count):
            key = reader.take(reader.u32())
            try:
                key = key.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"invalid UTF-8 dict key: {exc}") from None
            out[key] = _decode(reader, depth + 1)
        return out
    if tag == _T_ESTIMATE:
        return _decode_estimate(reader, depth + 1)
    if tag == _T_REPORT:
        return _decode_report(reader, depth + 1)
    if tag == _T_MONITOR_RECORD:
        return _decode_monitor_record(reader, depth + 1)
    raise WireError(f"unknown wire tag {tag}")


def loads(data: bytes):
    """Decode one tagged value; raises :class:`WireError` on any malformation."""
    reader = _Reader(bytes(data))
    value = _decode(reader, 0)
    if reader.remaining:
        raise WireError(f"{reader.remaining} trailing bytes after the decoded value")
    return value


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def encode_frame(value) -> bytes:
    """Encode one value as a complete frame (header + CRC + payload)."""
    payload = dumps(value)
    return _HEADER.pack(MAGIC, WIRE_VERSION, 0, len(payload), zlib.crc32(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; return ``(payload_length, crc32)``."""
    if len(header) != HEADER_SIZE:
        raise WireError(f"frame header is {len(header)} bytes, expected {HEADER_SIZE}")
    magic, version, flags, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}, this side speaks {WIRE_VERSION}")
    if flags != 0:
        raise WireError(f"unsupported frame flags {flags:#x}")
    return length, crc


def check_payload(payload: bytes, crc: int):
    """CRC-check a payload then decode it."""
    if zlib.crc32(payload) != crc:
        raise WireError("frame payload failed its CRC check")
    return loads(payload)


def decode_frame(data: bytes):
    """Inverse of :func:`encode_frame` for one complete frame."""
    if len(data) < HEADER_SIZE:
        raise WireError(f"truncated frame: {len(data)} bytes")
    length, crc = parse_header(data[:HEADER_SIZE])
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise WireError(f"frame length mismatch: header {length}, payload {len(payload)}")
    return check_payload(payload, crc)
