"""Decoding mutated OpenFlow bytes: one error type, and a type peek that
agrees with the full decode.

Fuzzed control messages (FUZZMESSAGE) reach every endpoint's
``parse_message``, so it must reject garbage with
:class:`OpenFlowDecodeError` and nothing else.  The injector evaluates
``type = ...`` from :func:`valid_type_name`, a structural check that
builds no message; it must name the type exactly when the full decode
succeeds.  The oracle for both is ``parse_message`` itself, over
truncated, bit-flipped and length-patched bytes of every registered
message type.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.openflow import (
    FlowMod,
    FlowModCommand,
    Match,
    OutputAction,
    PacketOut,
    parse_message,
)
from repro.openflow.actions import (
    SetDlDstAction,
    SetNwSrcAction,
    SetTpDstAction,
    StripVlanAction,
    UnknownAction,
)
from repro.openflow.messages import (
    BODY_CHECKED_TYPES,
    OpenFlowDecodeError,
    OpenFlowMessage,
    valid_type_name,
)
from tests.openflow.test_fastpath_wire import sample_instances

_ACTIONS = [
    OutputAction(2),
    SetDlDstAction("00:00:00:00:00:0b"),
    SetNwSrcAction("10.0.0.9"),
    SetTpDstAction(443),
    StripVlanAction(),
    UnknownAction(11, b"\x00" * 12),
]


def _samples():
    """Every registered type, plus action-rich bodies of the types
    :func:`valid_type_name` checks structurally."""
    return sample_instances() + [
        FlowMod(Match(in_port=1, nw_src="10.0.0.1", nw_src_prefix=24),
                command=FlowModCommand.DELETE, actions=list(_ACTIONS)),
        FlowMod(Match(), command=FlowModCommand.MODIFY_STRICT, actions=[]),
        PacketOut(in_port=2, actions=list(_ACTIONS), data=b"\x01" * 40),
        PacketOut(buffer_id=9, actions=[]),
    ]


SAMPLES = [message.pack() for message in _samples()]


@st.composite
def mutated(draw):
    """Sample bytes, mutated; the header's length field then often
    matches the new size, so the body decides."""
    raw = bytearray(draw(st.sampled_from(SAMPLES)))
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["truncate", "flip", "patch16", "append"]))
        if mutation == "truncate":
            del raw[draw(st.integers(0, len(raw))):]
        elif mutation == "flip" and raw:
            for _ in range(draw(st.integers(1, 16))):
                bit = draw(st.integers(0, 8 * len(raw) - 1))
                raw[bit // 8] ^= 1 << (bit % 8)
        elif mutation == "patch16" and len(raw) >= 2:
            # Length fields (header, action TLVs, PACKET_OUT actions_len)
            # and 16-bit enums (FLOW_MOD command) sit on 16-bit fields.
            offset = draw(st.integers(0, len(raw) - 2))
            value = draw(st.one_of(st.integers(0, 80), st.integers(0, 0xFFFF)))
            struct.pack_into("!H", raw, offset, value)
        elif mutation == "append":
            raw += bytes(draw(st.integers(1, 24)))
    if len(raw) >= 4 and draw(st.booleans()):
        struct.pack_into("!H", raw, 2, min(len(raw), 0xFFFF))
    return bytes(raw)


def _decoded_type(raw):
    try:
        return parse_message(raw).message_type.name
    except OpenFlowDecodeError:
        return None


def test_samples_cover_every_registered_type():
    types = {parse_message(raw).message_type for raw in SAMPLES}
    assert types == {cls.message_type for cls in OpenFlowMessage._registry.values()}


def test_body_checked_types_are_the_classes_with_a_body_check():
    assert BODY_CHECKED_TYPES == {
        cls.message_type.name for cls in OpenFlowMessage._registry.values()
        if cls.valid_body is not None
    }


@settings(max_examples=600, deadline=None)
@given(mutated())
def test_parse_raises_only_decode_errors(raw):
    _decoded_type(raw)  # anything but OpenFlowDecodeError fails the test


@settings(max_examples=600, deadline=None)
@given(mutated())
def test_valid_type_name_agrees_with_parse(raw):
    assert valid_type_name(raw) == _decoded_type(raw)


def test_valid_type_name_on_intact_samples():
    for raw in SAMPLES:
        assert valid_type_name(raw) == parse_message(raw).message_type.name


def test_bad_action_length_is_a_decode_error():
    raw = bytearray(FlowMod(Match(in_port=1), actions=[OutputAction(2)]).pack())
    struct.pack_into("!H", raw, len(raw) - 6, 136)  # the OUTPUT TLV's length
    assert valid_type_name(bytes(raw)) is None
    with pytest.raises(OpenFlowDecodeError, match="bad action length 136"):
        parse_message(bytes(raw))
