"""Fuzz suite for the schema'd wire codec (`repro.sampling.wire`).

Two properties carry the serve wire's safety story:

* **Fidelity** — ``decode(encode(x)) == x`` over randomized serve messages:
  update submits carrying Triples and labels, and result replies carrying
  an :class:`EvaluationReport` and a :class:`MonitorRecord`; live RNG
  streams included.
* **Totality under hostility** — decoding mutated or arbitrary bytes never
  executes anything and never escapes with anything but
  :class:`WireError`: every single-byte flip of a valid frame is caught by
  the magic/version/length/CRC checks before one value is decoded, and
  flipped, overwritten or truncated *payloads* (past the CRC) reach the
  decoder's own checks, which fail the same way.

The fast paths (Triples and bool lists read in place, exact-type encoding)
fail with the messages the generic readers give, and a full-size submit
keeps its pinned bytes.  No sockets are involved; this runs in the tier-1
leg, and the payload fuzz runs again at 2,000 examples per value kind in
the ``slow`` leg.
"""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from serve_helpers import replies, submits

from repro.core.result import EvaluationReport
from repro.evolving.monitor import MonitorRecord
from repro.generators.datasets import make_movie_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.kg.triple import Triple
from repro.sampling import wire
from repro.sampling.base import Estimate
from repro.sampling.wire import WireError


def _serve_values():
    return st.one_of(submits(), replies())


# --------------------------------------------------------------------------- #
# Fidelity
# --------------------------------------------------------------------------- #
@given(message=submits())
def test_task_frame_roundtrip(message):
    """A serve submit, the daemon's unit of work, crosses the wire intact."""
    decoded = wire.decode_frame(wire.encode_frame(message))
    assert decoded == message
    assert [triple.is_entity_object for triple in decoded["triples"]] == [
        triple.is_entity_object for triple in message["triples"]
    ]


@given(message=replies())
def test_result_frame_roundtrip(message):
    decoded = wire.decode_frame(wire.encode_frame(message))
    assert decoded == message
    assert isinstance(decoded["report"], EvaluationReport)
    assert isinstance(decoded["record"], MonitorRecord)


@given(
    message=st.fixed_dictionaries(
        {
            "op": st.sampled_from(["hello", "attach", "submit", "estimate"]),
            "id": st.integers(min_value=0, max_value=2**40),
            "nonce": st.binary(min_size=0, max_size=32),
            "digests": st.lists(st.text(max_size=16), max_size=4),
            "big": st.integers(min_value=-(2**200), max_value=2**200),
            "nested": st.dictionaries(
                st.text(max_size=8), st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False))
            ),
        }
    )
)
def test_message_dict_roundtrip(message):
    assert wire.decode_frame(wire.encode_frame(message)) == message


def test_live_rng_stream_survives_the_frame():
    rng = np.random.default_rng(7)
    rng.integers(0, 100, size=13)  # advance to a non-trivial state
    state = rng.bit_generator.state
    restored = np.random.default_rng()
    restored.bit_generator.state = wire.decode_frame(wire.encode_frame(state))
    np.testing.assert_array_equal(
        rng.integers(0, 1 << 30, size=16),
        restored.integers(0, 1 << 30, size=16),
    )


# --------------------------------------------------------------------------- #
# Totality under hostility
# --------------------------------------------------------------------------- #
@settings(max_examples=300)
@given(value=_serve_values(), mutation=st.tuples(st.integers(min_value=0), st.integers(1, 255)))
def test_any_single_byte_flip_raises_wire_error(value, mutation):
    """decode(mutate(encode(x))) is always WireError — never code execution."""
    encoded = bytearray(wire.encode_frame(value))
    position, flip = mutation
    position %= len(encoded)
    encoded[position] ^= flip
    with pytest.raises(WireError):
        wire.decode_frame(bytes(encoded))


@given(value=_serve_values(), cut=st.integers(min_value=0, max_value=10_000))
def test_truncated_frames_raise_wire_error(value, cut):
    encoded = wire.encode_frame(value)
    with pytest.raises(WireError):
        wire.decode_frame(encoded[: cut % len(encoded)])


@given(value=_serve_values(), junk=st.binary(min_size=1, max_size=64))
def test_trailing_junk_raises_wire_error(value, junk):
    with pytest.raises(WireError):
        wire.decode_frame(wire.encode_frame(value) + junk)


@given(data=st.binary(max_size=256))
def test_decoding_arbitrary_payload_bytes_is_total(data):
    """`loads` of arbitrary bytes either succeeds or raises WireError — the
    decoder constructs nothing outside its closed type set and never lets
    another exception (let alone a segfault or code execution) escape."""
    try:
        wire.loads(data)
    except WireError:
        pass


@given(data=st.binary(max_size=256))
def test_decoding_arbitrary_frame_bytes_raises_wire_error(data):
    with pytest.raises(WireError):
        wire.decode_frame(data)


def _rng_message(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rng.integers(0, 100, size=seed % 7)
    return {
        "state": rng.bit_generator.state,
        "draws": rng.integers(0, 1 << 30, size=6).tolist(),
        "labels": (rng.random(4) < 0.5).tolist(),
    }


#: The value kinds whose payloads the decoder fuzz mutates.
PAYLOAD_KINDS = {
    "submit": submits,
    "reply": replies,
    "rng": lambda: st.builds(_rng_message, st.integers(min_value=0, max_value=2**32 - 1)),
}

_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(1, 255)),
    st.tuples(st.just("overwrite"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.none()),
)


def _mutated_payload_decodes_or_raises_wire_error(data, kind: str) -> None:
    """Mutate a payload past the CRC; `loads` gives a value or WireError."""
    payload = bytearray(wire.dumps(data.draw(PAYLOAD_KINDS[kind](), label="value")))
    how, position, arg = data.draw(_MUTATIONS, label="mutation")
    position %= len(payload)
    if how == "flip":
        payload[position] ^= arg
    elif how == "overwrite":
        payload[position : position + len(arg)] = arg[: len(payload) - position]
    else:
        del payload[position:]
    try:
        wire.loads(bytes(payload))
    except WireError:
        pass


@pytest.mark.parametrize("kind", sorted(PAYLOAD_KINDS))
@settings(deadline=None)
@given(data=st.data())
def test_mutated_payloads_decode_or_raise_wire_error(kind, data):
    _mutated_payload_decodes_or_raises_wire_error(data, kind)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(PAYLOAD_KINDS))
@settings(max_examples=2000, deadline=None)
@given(data=st.data())
def test_mutated_payloads_decode_or_raise_wire_error_deep(kind, data):
    _mutated_payload_decodes_or_raises_wire_error(data, kind)


# --------------------------------------------------------------------------- #
# Schema enforcement at encode time
# --------------------------------------------------------------------------- #
def test_object_arrays_are_refused():
    hostile = np.asarray([object()], dtype=object)
    with pytest.raises(WireError):
        wire.dumps(hostile)


def test_arbitrary_objects_are_refused():
    class Payload:
        pass

    with pytest.raises(WireError):
        wire.dumps({"op": "task", "task": Payload()})


def test_non_string_dict_keys_are_refused():
    with pytest.raises(WireError):
        wire.dumps({1: "x"})


def test_overdeep_nesting_is_refused_both_ways():
    value = "leaf"
    for _ in range(64):
        value = [value]
    with pytest.raises(WireError):
        wire.dumps(value)


def test_huge_declared_containers_are_bounded():
    # A forged list header claiming 2**31 items must die on the size guard,
    # not allocate.
    forged = bytes([8]) + (2**31 - 1).to_bytes(4, "big") + b"\x00"
    with pytest.raises(WireError):
        wire.loads(forged)


def test_nested_frame_size_list_headers_copy_nothing():
    """33 nested list headers, each declaring as many items as the padding
    that follows holds: the decoder must reach the nesting limit without
    copying the frame once per level (the bool-list scan reads in place)."""
    padding = 1 << 20
    header = bytes([wire._T_LIST]) + padding.to_bytes(4, "big")
    payload = header * 33 + bytes(padding)
    tracemalloc.start()
    try:
        with pytest.raises(WireError, match="frame nests deeper than the wire limit"):
            wire.loads(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(payload) // 4


# --------------------------------------------------------------------------- #
# The fast paths fail with the generic readers' messages
# --------------------------------------------------------------------------- #
_PAIR = wire.dumps([Triple("athlete_1", "plays_for", "team_2", is_entity_object=True)] * 2)
_LIST_OF_ONE = bytes([wire._T_LIST, 0, 0, 0, 1])
_BOOL_LIST = bytes([wire._T_LIST, 0, 0, 0, 2, wire._T_TRUE, wire._T_FALSE])

#: Hand-made payloads that reach the Triple and bool-list fast paths, with
#: the exact message each one failed with before those paths existed.
FAST_PATH_FAILURES = {
    "subject-int": (
        bytes([wire._T_TRIPLE]) + wire.dumps(7) + wire.dumps("p") + wire.dumps("o") + b"\x01",
        "bad field type for Triple.subject: int",
    ),
    "flag-int": (
        wire.dumps(Triple("s", "p", "o"))[:-1] + wire.dumps(1),
        "Triple.is_entity_object must be a bool",
    ),
    "flag-none": (
        wire.dumps(Triple("s", "p", "o"))[:-1] + wire.dumps(None),
        "Triple.is_entity_object must be a bool",
    ),
    "object-utf8": (
        bytes([wire._T_TRIPLE])
        + wire.dumps("s")
        + wire.dumps("p")
        + bytes([wire._T_STR, 0, 0, 0, 2, 0xC3, 0x28, wire._T_TRUE]),
        "invalid UTF-8 on the wire: 'utf-8' codec can't decode byte 0xc3 in position 0: "
        "invalid continuation byte",
    ),
    # Cuts inside the second Triple of a pair.
    "cut-subject-length": (_PAIR[:50], "frame truncated: wanted 4 bytes, 2 left"),
    "cut-subject": (_PAIR[:60], "frame truncated: wanted 9 bytes, 8 left"),
    "cut-predicate": (_PAIR[:74], "frame truncated: wanted 9 bytes, 8 left"),
    "cut-object": (_PAIR[:83], "frame truncated: wanted 6 bytes, 3 left"),
    "cut-flag": (_PAIR[:86], "frame truncated: wanted 1 bytes, 0 left"),
    # A bool list 33 lists deep: its items would sit one level past the limit.
    "bool-list-past-limit": (
        _LIST_OF_ONE * 32 + _BOOL_LIST,
        "frame nests deeper than the wire limit",
    ),
    # A Triple 32 lists deep: its fields would sit one level past the limit.
    "triple-past-limit": (
        _LIST_OF_ONE * 32 + wire.dumps(Triple("s", "p", "o")),
        "frame nests deeper than the wire limit",
    ),
}


@pytest.mark.parametrize("name", sorted(FAST_PATH_FAILURES))
def test_fast_paths_fail_with_the_generic_messages(name):
    payload, message = FAST_PATH_FAILURES[name]
    with pytest.raises(WireError) as excinfo:
        wire.loads(payload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("leaf", [[True, False], Triple("s", "p", "o")], ids=["bools", "triple"])
def test_fast_paths_decode_at_the_nesting_limit(leaf):
    value = leaf
    for _ in range(31):
        value = [value]
    payload = _LIST_OF_ONE * 31 + wire.dumps(leaf)
    assert wire.dumps(value) == payload
    assert wire.loads(payload) == value


@pytest.mark.parametrize("leaf", ["leaf", True], ids=["str", "bool"])
def test_inline_list_items_keep_the_encode_nesting_limit(leaf):
    value = leaf
    for _ in range(32):
        value = [value]
    assert wire.loads(wire.dumps(value)) == value
    with pytest.raises(WireError, match="value nests deeper than the wire limit"):
        wire.dumps([value])


# --------------------------------------------------------------------------- #
# Retired numpy values (tags 11 and 12)
# --------------------------------------------------------------------------- #
def test_arrays_and_seed_sequences_are_refused_at_encode():
    for value in (np.arange(3, dtype=np.int32), np.random.SeedSequence(1234)):
        with pytest.raises(WireError, match=f"type {type(value).__name__} is not allowed"):
            wire.dumps({"value": value})


def _array_payload(dtype_str: bytes) -> bytes:
    """A one-item, four-byte value under the retired ndarray tag (11) with a
    hand-written dtype string."""
    return (
        bytes([11, len(dtype_str)])
        + dtype_str
        + bytes([1])
        + (1).to_bytes(8, "big")
        + (4).to_bytes(8, "big")
        + bytes(4)
    )


@pytest.mark.parametrize(
    "dtype_str",
    [b",i4", b"<,4", b"<04", b"int32", b"=i4", b"i4"]
    + sorted("".join(parts).encode("ascii") for parts in itertools.product("<>|", "biuf", "1248")),
)
def test_only_dtype_strings_the_encoder_emits_are_decoded(dtype_str):
    """The encoder emits no dtype string since tag 11 was retired, so none
    decodes, not even one it once emitted: the decoder stops at the tag and
    never hands the string to numpy, which parses some dtype strings with
    ``ast.literal_eval``."""
    with pytest.raises(WireError, match="unknown wire tag 11"):
        wire.loads(_array_payload(dtype_str))


# --------------------------------------------------------------------------- #
# Unknown and retired tags
# --------------------------------------------------------------------------- #
@settings(max_examples=200)
@given(
    tag=st.integers(min_value=wire._T_MONITOR_RECORD + 1, max_value=255),
    junk=st.binary(max_size=64),
)
def test_unknown_future_tags_raise_typed_error(tag, junk):
    """A frame from a *newer* peer (tag beyond this codec's table) fails as
    a typed WireError immediately — never a hang, never a crash."""
    with pytest.raises(WireError, match="unknown wire tag"):
        wire.loads(bytes([tag]) + junk)


@given(tag=st.integers(min_value=11, max_value=18), junk=st.binary(max_size=64))
def test_retired_shard_tags_raise_typed_error(tag, junk):
    """Tags 11 and 12 carried NumPy arrays and seed sequences, and 13-18 the
    removed worker protocol's shard tasks, results and trace contexts; a
    frame using one fails as a typed WireError."""
    with pytest.raises(WireError, match="unknown wire tag"):
        wire.loads(bytes([tag]) + junk)


# --------------------------------------------------------------------------- #
# Serve extension tags (19-22): fidelity and suffix compatibility
# --------------------------------------------------------------------------- #
def _sample_report() -> "EvaluationReport":
    return EvaluationReport(
        estimate=Estimate(value=0.875, std_error=0.0125, num_units=40, num_triples=310),
        confidence_level=0.95,
        moe_target=0.05,
        satisfied=True,
        iterations=7,
        num_units=40,
        num_triples_annotated=310,
        num_entities_identified=38,
        annotation_cost_seconds=1234.5,
    )


@given(
    subject=st.text(max_size=24),
    predicate=st.text(max_size=24),
    obj=st.text(max_size=24),
    is_entity=st.booleans(),
)
def test_triple_frame_roundtrip(subject, predicate, obj, is_entity):
    triple = Triple(subject, predicate, obj, is_entity_object=is_entity)
    decoded = wire.decode_frame(wire.encode_frame(triple))
    assert isinstance(decoded, Triple)
    assert decoded == triple
    assert decoded.is_entity_object == triple.is_entity_object


@given(
    value=st.floats(allow_nan=False),
    std_error=st.floats(min_value=0, allow_nan=False),
    num_units=st.integers(min_value=0, max_value=2**40),
    num_triples=st.integers(min_value=0, max_value=2**40),
)
def test_estimate_frame_roundtrip(value, std_error, num_units, num_triples):
    estimate = Estimate(
        value=value, std_error=std_error, num_units=num_units, num_triples=num_triples
    )
    decoded = wire.decode_frame(wire.encode_frame(estimate))
    assert isinstance(decoded, Estimate)
    assert decoded == estimate


def test_report_frame_roundtrip():
    report = _sample_report()
    decoded = wire.decode_frame(wire.encode_frame(report))
    assert isinstance(decoded, EvaluationReport)
    assert decoded == report
    # Derived quantities survive because the fields do, bit for bit.
    assert decoded.margin_of_error == report.margin_of_error


def test_monitor_record_frame_roundtrip():
    record = MonitorRecord(
        batch_index=3,
        batch_id="delta-2",
        estimated_accuracy=0.8854,
        margin_of_error=0.0505,
        true_accuracy=0.8973,
        incremental_cost_hours=0.26,
        cumulative_cost_hours=2.59,
    )
    decoded = wire.decode_frame(wire.encode_frame(record))
    assert isinstance(decoded, MonitorRecord)
    assert decoded == record


def test_serve_payloads_nest_inside_messages():
    """A whole serve reply (dict of records/reports/triples) round-trips."""
    message = {
        "op": "result",
        "session": "demo",
        "report": _sample_report(),
        "triples": [Triple("s", "p", "o"), Triple("s", "p", "e", is_entity_object=True)],
        "labels": [True, False],
    }
    assert wire.decode_frame(wire.encode_frame(message)) == message


def test_serve_tags_are_a_pure_suffix():
    """Tags 19-22 keep their numbers although 11-18 are retired: frames stay
    byte-identical to what earlier serve peers emit, and a peer meeting a
    tag it does not know dies on its `unknown wire tag` guard rather than
    misparsing."""
    assert (
        wire._T_TRIPLE,
        wire._T_ESTIMATE,
        wire._T_REPORT,
        wire._T_MONITOR_RECORD,
    ) == (19, 20, 21, 22)
    assert wire.dumps(Triple("s", "p", "o"))[0] == wire._T_TRIPLE


def _pinned_values() -> dict:
    estimate = Estimate(value=0.875, std_error=0.0125, num_units=40, num_triples=310)
    return {
        "base": {
            "none": None,
            "yes": True,
            "no": False,
            "int": -7,
            "big": 2**80,
            "float": 0.25,
            "str": "sé",
            "bytes": b"\x00\xff",
            "list": [1, "a"],
            "tuple": (2, 3),
        },
        "triple": Triple("athlete_1", "plays_for", "team_2", is_entity_object=True),
        "estimate": estimate,
        "report": EvaluationReport(
            estimate=estimate,
            confidence_level=0.95,
            moe_target=0.05,
            satisfied=True,
            iterations=7,
            num_units=40,
            num_triples_annotated=310,
            num_entities_identified=38,
            annotation_cost_seconds=1234.5,
        ),
        "record": MonitorRecord(
            batch_index=3,
            batch_id="delta-2",
            estimated_accuracy=0.8854,
            margin_of_error=0.0505,
            true_accuracy=0.8973,
            incremental_cost_hours=0.26,
            cumulative_cost_hours=2.59,
        ),
    }


#: Frames of the values above: one per serve tag (19-22), as encoded before
#: tags 13-18 were retired, and one covering tags 0-10.  The ``base`` frame
#: was re-pinned without its ndarray and SeedSequence entries when tags 11
#: and 12 were retired; every entry it kept has the bytes it had before.
PINNED_FRAMES = {
    "base": (
        "5257010000000000000000b6c00555840a0000000a000000046e6f6e6500000000037965"
        "7301000000026e6f0200000003696e7403fffffffffffffff90000000362696704000000"
        "000b010000000000000000000000000005666c6f6174053fd00000000000000000000373"
        "7472060000000373c3a900000005627974657307000000000000000200ff000000046c69"
        "73740800000002030000000000000001060000000161000000057475706c650900000002"
        "030000000000000002030000000000000003"
    ),
    "triple": (
        "525701000000000000000029b3e7bff61306000000096174686c6574655f310600000009"
        "706c6179735f666f7206000000067465616d5f3201"
    ),
    "estimate": (
        "525701000000000000000025fcbc299114053fec000000000000053f8999999999999a03"
        "0000000000000028030000000000000136"
    ),
    "report": (
        "5257010000000000000000662e2ca5541514053fec000000000000053f8999999999999a"
        "030000000000000028030000000000000136053fee666666666666053fa999999999999a"
        "010300000000000000070300000000000000280300000000000001360300000000000000"
        "260540934a0000000000"
    ),
    "record": (
        "525701000000000000000043834e09dd16030000000000000003060000000764656c7461"
        "2d32053fec5532617c1bda053fa9db22d0e56042053fecb6ae7d566cf4053fd0a3d70a3d"
        "70a4054004b851eb851eb8"
    ),
}


#: The ``base`` frame as pinned while tags 11 and 12 carried an ndarray and a
#: SeedSequence.
_PRE_RETIREMENT_BASE_FRAME = (
    "52570100000000000000011c941f6a110a0000000c000000046e6f6e6500000000037965"
    "7301000000026e6f0200000003696e7403fffffffffffffff90000000362696704000000"
    "000b010000000000000000000000000005666c6f6174053fd00000000000000000000373"
    "7472060000000373c3a900000005627974657307000000000000000200ff000000046c69"
    "73740800000002030000000000000001060000000161000000057475706c650900000002"
    "0300000000000000020300000000000000030000000561727261790b033c693401000000"
    "0000000003000000000000000c00000000010000000200000000000004736565640c0300"
    "000000000004d20900000002030000000000000001030000000000000002030000000000"
    "000004030000000000000000"
)


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_frames_keep_their_pinned_bytes(name):
    value = _pinned_values()[name]
    frame = bytes.fromhex(PINNED_FRAMES[name])
    assert wire.encode_frame(value) == frame
    assert wire.decode_frame(frame) == value


def test_the_pre_retirement_base_frame_fails_on_its_array_tag():
    with pytest.raises(WireError, match="unknown wire tag 11"):
        wire.decode_frame(bytes.fromhex(_PRE_RETIREMENT_BASE_FRAME))


@pytest.fixture(scope="module")
def full_size_values() -> dict:
    """A served write's submit and the poll reply that follows it."""
    base = make_movie_like(seed=0, scale=0.05)
    size = round(0.005 * base.graph.num_triples)
    batch, oracle = UpdateWorkloadGenerator(base, seed=2026).generate_batch(size, 0.8)
    estimate = Estimate(value=0.8712, std_error=0.0154, num_units=62, num_triples=488)
    report = EvaluationReport(
        estimate=estimate,
        confidence_level=0.95,
        moe_target=0.05,
        satisfied=True,
        iterations=4,
        num_units=62,
        num_triples_annotated=488,
        num_entities_identified=59,
        annotation_cost_seconds=2771.5,
    )
    record = MonitorRecord(
        batch_index=1,
        batch_id=batch.batch_id,
        estimated_accuracy=0.8712,
        margin_of_error=0.0302,
        true_accuracy=0.8839,
        incremental_cost_hours=0.17,
        cumulative_cost_hours=4.42,
    )
    latest = {
        "batch_index": 1,
        "batch_id": batch.batch_id,
        "record": record,
        "report": report,
        "cumulative_cost_seconds": 15912.0,
    }
    return {
        "submit": {
            "op": "submit",
            "session": "ss-0",
            "batch_id": batch.batch_id,
            "triples": list(batch.triples),
            "labels": [oracle.label(triple) for triple in batch.triples],
            "wait": False,
        },
        "poll": {
            "op": "poll",
            "session": "ss-0",
            "satisfied": True,
            "latest": latest,
            "pending": 0,
            "num_records": 2,
            "failed": None,
        },
    }


#: SHA-256 of the frames of the values above: a 661-triple submit (MOVIE
#: x0.05, a 0.5 % batch) and a poll reply carrying ``latest``.
FULL_SIZE_FRAME_SHA256 = {
    "submit": "1274996b9d2d2702bc52b0dd307574ccb882daaa37ee10df0c21e87d28a3fe37",
    "poll": "9e591aae0f43296013445b9cbbb6b423b2e3a7a1686ff3693ccf0187bad00567",
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE_FRAME_SHA256))
def test_full_size_frames_keep_their_pinned_bytes(full_size_values, name):
    value = full_size_values[name]
    frame = wire.encode_frame(value)
    assert hashlib.sha256(frame).hexdigest() == FULL_SIZE_FRAME_SHA256[name]
    decoded = wire.decode_frame(frame)
    assert decoded == value
    # Triple equality ignores the entity flag; the bytes do not.
    assert wire.encode_frame(decoded) == frame


@given(junk=st.binary(max_size=32))
def test_truncated_serve_frames_raise_wire_error(junk):
    for tag in (wire._T_TRIPLE, wire._T_ESTIMATE, wire._T_REPORT, wire._T_MONITOR_RECORD):
        with pytest.raises(WireError):
            wire.loads(bytes([tag]) + junk)
