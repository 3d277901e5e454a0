"""The codec and the framer against their earlier versions.

``tests/openflow/codec_reference.py`` keeps the plainer codec (a
``struct`` call per field group, sliced bodies) and the bytearray-only
framer.  The shipping code packs each PACKET_IN round-trip message with
one precompiled struct, parses it in place and frames chunks without
copying them, and must be indistinguishable:

* **codec** -- over the full field ranges, ``pack()`` gives the
  reference bytes; over mutated bytes (flips, enum fields out of range,
  truncations, a header length rewritten shorter or longer, trailing
  bytes) ``parse_message``
  either gives a message that packs like the reference parse's, or both
  raise :class:`OpenFlowDecodeError`, and ``valid_type_name`` agrees;
* **decoded fields** -- over the same mutated bytes, every public field
  of the decoded message, its match and its actions has the reference
  parse's value and type (a ``PacketInReason``, not its int; ``bytes``,
  not a view), and no two parses share an action list or action;
* **framer** -- over streams of whole messages and garbage cut into
  random chunks, every feed yields the same frames or raises the same
  error, with the same ``pending_bytes`` after it;
* **encoders** -- over the full field ranges, the field encoders the
  switch and the controllers send with (``pack_packet_in``,
  ``pack_packet_out``, ``pack_flow_mod``, ``pack_output``) give the
  reference bytes of the object built from the same fields.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings, strategies as st

from repro.openflow import (
    FlowMod,
    FlowModCommand,
    Hello,
    Match,
    OutputAction,
    PacketIn,
    PacketInReason,
    PacketOut,
    parse_message,
)
from repro.openflow.actions import (
    SetDlDstAction,
    SetDlSrcAction,
    SetNwDstAction,
    SetNwSrcAction,
    SetTpDstAction,
    SetTpSrcAction,
    StripVlanAction,
    UnknownAction,
)
from repro.openflow.actions import Action, pack_output
from repro.openflow.connection import MessageFramer
from repro.openflow.match import wire_fields
from repro.openflow.messages import (
    EchoRequest,
    OpenFlowDecodeError,
    OpenFlowMessage,
    pack_flow_mod,
    pack_packet_in,
    pack_packet_out,
    valid_type_name,
)
from tests.openflow.codec_reference import (
    ReferenceFramer,
    match_pack,
    match_unpack,
    pack_action,
    pack_action_list,
    reference_pack,
    reference_parse,
    reference_valid_type_name,
)

U8, U16, U32 = st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
MAC, U64 = st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 64) - 1)
XID = U32
DATA = st.binary(max_size=256)

#: Action types no class is registered for (SET_VLAN_VID, SET_VLAN_PCP,
#: SET_NW_TOS, ENQUEUE, a vendor type).
UNKNOWN_TYPES = st.sampled_from([1, 2, 8, 11, 0xFFFF])

ACTIONS = st.one_of(
    st.builds(OutputAction, U16, U16),
    st.builds(SetDlSrcAction, MAC),
    st.builds(SetDlDstAction, MAC),
    st.builds(SetNwSrcAction, U32),
    st.builds(SetNwDstAction, U32),
    st.builds(SetTpSrcAction, U16),
    st.builds(SetTpDstAction, U16),
    st.builds(StripVlanAction),
    st.builds(UnknownAction, UNKNOWN_TYPES,
              st.sampled_from([4, 12, 20]).flatmap(lambda n: st.binary(min_size=n, max_size=n))),
)
ACTION_LISTS = st.lists(ACTIONS, max_size=4)

#: Each flow-key field's range, in MATCH_FIELD_NAMES order.
FIELD_RANGES = (U16, MAC, MAC, U16, U8, U16, U8, U8, U32, U32, U16, U16)


@st.composite
def matches(draw):
    key = tuple(draw(st.one_of(st.none(), values)) for values in FIELD_RANGES)
    match = Match.from_key(key)
    match.nw_src_prefix = draw(st.integers(0, 32))
    match.nw_dst_prefix = draw(st.integers(0, 32))
    return match


PACKET_INS = st.builds(PacketIn, U32, U16, U16, st.sampled_from(list(PacketInReason)),
                       DATA, XID)
PACKET_OUTS = st.builds(PacketOut, U32, U16, ACTION_LISTS, DATA, XID)
FLOW_MODS = st.builds(FlowMod, matches(), st.sampled_from(list(FlowModCommand)), U64,
                      U16, U16, U16, U32, U16, U16, ACTION_LISTS, XID)
MESSAGES = st.one_of(PACKET_INS, PACKET_OUTS, FLOW_MODS)


@st.composite
def mutated(draw):
    """Reference bytes of a generated message, then mutated."""
    raw = bytearray(reference_pack(draw(MESSAGES)))
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(["flip", "enum", "truncate", "length", "append"]))
        if mutation == "enum":
            # Near the valid range of PACKET_IN's reason (byte 16) or
            # FLOW_MOD's command (the low byte of bytes 56-57).
            offset = draw(st.sampled_from([16, 57]))
            if offset < len(raw):
                raw[offset] = draw(st.integers(0, 8))
        elif mutation == "flip" and raw:
            for _ in range(draw(st.integers(1, 4))):
                raw[draw(st.integers(0, len(raw) - 1))] = draw(U8)
        elif mutation == "truncate":
            del raw[draw(st.integers(0, len(raw))):]
        elif mutation == "length" and len(raw) >= 4:
            # Shorter or longer than the bytes there, or anywhere at all.
            length = draw(st.one_of(st.integers(0, len(raw) + 16), U16))
            struct.pack_into("!H", raw, 2, length)
        elif mutation == "append":
            raw += draw(st.binary(min_size=1, max_size=24))
    return bytes(raw)


def _outcome(parse, pack, raw):
    try:
        return pack(parse(raw))
    except OpenFlowDecodeError:
        return None


def _fields(value):
    """``value`` as nested ``(type, ...)`` tuples: a message's, match's or
    action's public fields, a list's items, or a plain value."""
    if isinstance(value, (list, tuple)):
        return type(value), [_fields(item) for item in value]
    if isinstance(value, (OpenFlowMessage, Match, Action)):
        names = getattr(value, "__slots__", None) or vars(value)
        return type(value), {name: _fields(getattr(value, name))
                             for name in names if not name.startswith("_")}
    return type(value), value


def _decoded(parse, raw):
    try:
        return _fields(parse(raw))
    except OpenFlowDecodeError:
        return None


@settings(max_examples=200, deadline=None)
@given(MESSAGES)
def test_pack_equals_the_reference(message):
    assert message.pack() == reference_pack(message)


@settings(max_examples=200, deadline=None)
@given(XID, U32, U16, U16, st.sampled_from(list(PacketInReason)), DATA)
def test_pack_packet_in_equals_the_reference(xid, buffer_id, total_len, in_port, reason, data):
    expected = reference_pack(PacketIn(buffer_id, total_len, in_port, reason, data, xid=xid))
    assert pack_packet_in(xid, buffer_id, total_len, in_port, int(reason), data) == expected


@settings(max_examples=200, deadline=None)
@given(XID, U32, U16, ACTION_LISTS, DATA)
def test_pack_packet_out_equals_the_reference(xid, buffer_id, in_port, actions, data):
    expected = reference_pack(PacketOut(buffer_id, in_port, actions, data, xid=xid))
    assert pack_packet_out(xid, buffer_id, in_port, pack_action_list(actions), data) == expected


@settings(max_examples=200, deadline=None)
@given(XID, matches(), st.sampled_from(list(FlowModCommand)), U64, U16, U16, U16, U32, U16,
       U16, ACTION_LISTS)
def test_pack_flow_mod_equals_the_reference(xid, match, command, cookie, idle_timeout,
                                            hard_timeout, priority, buffer_id, out_port,
                                            flags, actions):
    expected = reference_pack(FlowMod(match, command, cookie, idle_timeout, hard_timeout,
                                      priority, buffer_id, out_port, flags, actions, xid=xid))
    fields = wire_fields(match.key, match.nw_src_prefix, match.nw_dst_prefix)
    assert pack_flow_mod(xid, fields, pack_action_list(actions), cookie, int(command),
                         idle_timeout, hard_timeout, priority, buffer_id, out_port,
                         flags) == expected


@settings(max_examples=100, deadline=None)
@given(XID, matches(), ACTION_LISTS)
def test_pack_flow_mod_defaults_are_flow_mods(xid, match, actions):
    """An exact match (prefixes /32) and every default of ``FlowMod``."""
    match.nw_src_prefix = match.nw_dst_prefix = 32
    expected = reference_pack(FlowMod(match, actions=actions, xid=xid))
    assert pack_flow_mod(xid, wire_fields(match.key), pack_action_list(actions)) == expected


@settings(max_examples=100, deadline=None)
@given(U16, U16)
def test_pack_output_equals_the_reference(port, max_len):
    assert pack_output(port, max_len) == pack_action(OutputAction(port, max_len))
    assert pack_output(port) == pack_action(OutputAction(port))


@settings(max_examples=100, deadline=None)
@given(matches())
def test_match_pack_and_unpack_equal_the_reference(match):
    packed = match.pack()
    assert packed == match_pack(match)
    assert Match.unpack(packed).pack() == match_pack(match_unpack(packed))


@settings(max_examples=500, deadline=None)
@given(mutated())
def test_parse_agrees_with_the_reference_on_mutated_bytes(raw):
    expected = _outcome(reference_parse, reference_pack, raw)
    assert _outcome(parse_message, lambda message: message.pack(), raw) == expected
    assert valid_type_name(raw) == reference_valid_type_name(raw)


@settings(max_examples=500, deadline=None)
@given(mutated())
def test_decoded_fields_and_types_equal_the_reference(raw):
    assert _decoded(parse_message, raw) == _decoded(reference_parse, raw)
    try:
        first, second = parse_message(raw), parse_message(raw)
    except OpenFlowDecodeError:
        return
    actions = getattr(first, "actions", None)
    if isinstance(actions, list):  # FEATURES_REPLY's ``actions`` is a bitmap
        assert actions is not second.actions
        assert not {id(action) for action in actions} & {id(a) for a in second.actions}


# --------------------------------------------------------------------- #
# Framer
# --------------------------------------------------------------------- #

WHOLE = [message.pack() for message in (
    Hello(xid=1),
    EchoRequest(b"probe", xid=2),
    PacketIn(7, 60, 1, PacketInReason.NO_MATCH, bytes(range(60)), xid=3),
    PacketOut(7, 1, [OutputAction(2)], b"", xid=4),
    FlowMod(Match(in_port=1), actions=[OutputAction(2)], xid=5),
)]
#: A header whose length field is under 8: no framer can step past it.
IMPOSSIBLE = bytes([1, 0, 0, 3, 0, 0, 0, 9])

def test_enum_fields_over_their_whole_range():
    """Every PACKET_IN reason byte and FLOW_MOD command value: decoded
    where the enum has the value, refused where it does not."""
    packet_in, flow_mod = bytearray(WHOLE[2]), bytearray(WHOLE[4])
    for value in range(0x200):
        packet_in[16] = value & 0xFF
        struct.pack_into("!H", flow_mod, 56, value)
        for raw in (bytes(packet_in), bytes(flow_mod)):
            expected = _outcome(reference_parse, reference_pack, raw)
            assert _outcome(parse_message, lambda message: message.pack(), raw) == expected
            assert valid_type_name(raw) == reference_valid_type_name(raw)


def test_bytes_past_the_header_length_are_not_the_message():
    for raw in WHOLE:
        for extra in (b"\x00", bytes(range(1, 25))):
            expected = _outcome(reference_parse, reference_pack, raw + extra)
            assert _outcome(parse_message, lambda message: message.pack(), raw + extra) == expected
            assert expected == raw


def test_parse_copies_any_buffer_to_bytes():
    """A bytearray or memoryview decodes like the same bytes, into
    ``bytes`` fields; MacAddress refuses views, so the copy comes first."""
    raws = WHOLE + [FlowMod(Match(in_port=1), actions=[
        SetDlSrcAction(5), OutputAction(2), UnknownAction(11, bytes(4))], xid=6).pack()]
    for raw in raws:
        expected = _decoded(reference_parse, raw)
        for buffer in (bytearray(raw), memoryview(raw)):
            assert _decoded(parse_message, buffer) == expected


SEGMENTS = st.one_of(
    st.sampled_from(WHOLE),
    st.sampled_from(WHOLE).map(lambda raw: raw * 3),
    st.just(IMPOSSIBLE),
    st.binary(min_size=1, max_size=40),
)


@st.composite
def chunked_streams(draw):
    """``(max_buffer, chunks)``: whole messages and garbage, cut either
    at message boundaries or anywhere (single bytes, across headers)."""
    segments = draw(st.lists(SEGMENTS, min_size=1, max_size=12))
    if draw(st.booleans()):
        chunks = []
        while segments:
            take = draw(st.integers(1, len(segments)))
            chunks.append(b"".join(segments[:take]))
            del segments[:take]
    else:
        stream = b"".join(segments)
        chunks = []
        while stream:
            size = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(13, 300)))
            chunks.append(stream[:size])
            stream = stream[size:]
    if draw(st.booleans()):
        chunks = [bytearray(chunk) if draw(st.booleans()) else chunk for chunk in chunks]
    max_buffer = draw(st.one_of(st.just(1 << 22), st.integers(8, 160)))
    return max_buffer, chunks


def _feed(framer, chunk):
    try:
        frames = framer.feed_frames(chunk)
    except OpenFlowDecodeError as exc:
        result = ("raised", str(exc))
    else:
        assert all(type(frame) is bytes for frame in frames)
        result = ("frames", frames)
    return result, framer.pending_bytes


@settings(max_examples=300, deadline=None)
@given(chunked_streams())
def test_framer_agrees_with_the_reference_after_every_feed(case):
    max_buffer, chunks = case
    framer, reference = MessageFramer(max_buffer), ReferenceFramer(max_buffer)
    for chunk in chunks:
        assert _feed(framer, chunk) == _feed(reference, chunk)


def test_framer_bound_on_one_message_chunks():
    """A one-message chunk over ``max_buffer`` overflows like any other."""
    for raw in WHOLE:
        for max_buffer in range(len(raw) - 2, len(raw) + 2):
            framer, reference = MessageFramer(max_buffer), ReferenceFramer(max_buffer)
            for chunk in (raw, raw):
                assert _feed(framer, chunk) == _feed(reference, chunk)


def test_framer_returns_a_one_message_chunk_itself():
    raw = WHOLE[2]
    assert MessageFramer().feed_frames(raw)[0] is raw
