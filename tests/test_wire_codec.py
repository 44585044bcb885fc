"""Fuzz suite for the schema'd wire codec (`repro.sampling.wire`).

Two properties carry the serve wire's safety story:

* **Fidelity** — ``decode(encode(x)) == x`` over randomized serve messages:
  update submits carrying Triples and labels, and result replies carrying
  an :class:`EvaluationReport` and a :class:`MonitorRecord`; live RNG
  streams and seed sequences included.
* **Totality under hostility** — decoding mutated or arbitrary bytes never
  executes anything and never escapes with anything but
  :class:`WireError`: every single-byte flip of a valid frame is caught by
  the magic/version/length/CRC checks before one value is decoded.

No sockets are involved; this runs in the tier-1 leg.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from serve_helpers import replies, submits

from repro.core.result import EvaluationReport
from repro.evolving.monitor import MonitorRecord
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


def test_seedsequence_spawn_tree_roundtrip():
    root = np.random.SeedSequence(1234)
    child = root.spawn(3)[2].spawn(2)[1]
    decoded = wire.decode_frame(wire.encode_frame(child))
    assert decoded.entropy == child.entropy
    assert decoded.spawn_key == child.spawn_key
    np.testing.assert_array_equal(decoded.generate_state(8), child.generate_state(8))


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


@given(tag=st.integers(min_value=13, max_value=18), junk=st.binary(max_size=64))
def test_retired_shard_tags_raise_typed_error(tag, junk):
    """Tags 13-18 carried the removed worker protocol's shard tasks, results
    and trace contexts; a frame using one fails as a typed WireError."""
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
    """Tags 19-22 keep their numbers although 13-18 are retired: frames stay
    byte-identical to what earlier serve peers emit, and a peer meeting a
    tag it does not know dies on its `unknown wire tag` guard rather than
    misparsing."""
    assert (
        wire._T_TRIPLE,
        wire._T_ESTIMATE,
        wire._T_REPORT,
        wire._T_MONITOR_RECORD,
    ) == (19, 20, 21, 22)
    assert wire._T_SEEDSEQ == 12
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
            "array": np.arange(3, dtype=np.int32),
            "seed": np.random.SeedSequence(1234, spawn_key=(1, 2)),
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


#: Frames of the values above as encoded before tags 13-18 were retired: one
#: covering tags 0-12 and one per serve tag (19-22).
PINNED_FRAMES = {
    "base": (
        "52570100000000000000011c941f6a110a0000000c000000046e6f6e6500000000037965"
        "7301000000026e6f0200000003696e7403fffffffffffffff90000000362696704000000"
        "000b010000000000000000000000000005666c6f6174053fd00000000000000000000373"
        "7472060000000373c3a900000005627974657307000000000000000200ff000000046c69"
        "73740800000002030000000000000001060000000161000000057475706c650900000002"
        "0300000000000000020300000000000000030000000561727261790b033c693401000000"
        "0000000003000000000000000c00000000010000000200000000000004736565640c0300"
        "000000000004d20900000002030000000000000001030000000000000002030000000000"
        "000004030000000000000000"
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


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_frames_keep_their_pinned_bytes(name):
    value = _pinned_values()[name]
    frame = bytes.fromhex(PINNED_FRAMES[name])
    assert wire.encode_frame(value) == frame
    decoded = wire.decode_frame(frame)
    if name == "base":
        assert wire.encode_frame(decoded) == frame
    else:
        assert decoded == value


@given(junk=st.binary(max_size=32))
def test_truncated_serve_frames_raise_wire_error(junk):
    for tag in (wire._T_TRIPLE, wire._T_ESTIMATE, wire._T_REPORT, wire._T_MONITOR_RECORD):
        with pytest.raises(WireError):
            wire.loads(bytes([tag]) + junk)
