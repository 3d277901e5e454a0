"""Wire-level guarantees behind the injector's zero-copy fast lane.

Three invariants keep the lazy-decode path sound:

* every registered message round-trips (``parse_message(m.pack()) == m``)
  and re-packs to byte-identical output, so pass-through can safely reuse
  the original frame bytes;
* the header-only type peek agrees with the full decode whenever the full
  decode succeeds;
* ``pack()`` encodes the message as it is now, so every edit — direct,
  nested, or made by a mutating attack action — reaches the wire.
"""

import pytest

from repro.netlib import MacAddress
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    GetConfigReply,
    GetConfigRequest,
    Hello,
    Match,
    OutputAction,
    PacketIn,
    PacketInReason,
    PacketOut,
    PhyPort,
    PortStatus,
    SetConfig,
    StatsReply,
    StatsRequest,
    StatsType,
    parse_message,
)
from repro.core.lang import EvalContext, FuzzMessage, ModifyMessage, StorageSet
from repro.core.lang.actions import ActionContext, OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage
from repro.openflow.connection import MessageFramer
from repro.openflow.messages import (
    OpenFlowMessage,
    VendorMessage,
    peek_message_type_name,
    valid_type_name,
)
from repro.sim import SeededRng
from repro.sim.engine import SimContext


def _port(no=1):
    return PhyPort(no, MacAddress("00:00:00:00:00:01"), f"eth{no}")


def sample_instances():
    """One representative instance of every registered message type."""
    return [
        Hello(),
        FeaturesRequest(),
        GetConfigRequest(),
        BarrierRequest(),
        BarrierReply(),
        EchoRequest(payload=b"probe"),
        EchoReply(payload=b"probe"),
        ErrorMessage(1, 6, b"context"),
        VendorMessage(0x2320, b"opaque"),
        GetConfigReply(miss_send_len=64),
        SetConfig(miss_send_len=128),
        FeaturesReply(0x1, ports=[_port(1), _port(2)]),
        PacketIn(7, 24, 3, PacketInReason.NO_MATCH, b"\x00" * 24),
        PacketOut(in_port=2, actions=[OutputAction(3)], data=b"\x01" * 16),
        FlowMod(Match(in_port=1, tp_dst=80), idle_timeout=5,
                actions=[OutputAction(2)]),
        FlowRemoved(Match(in_port=1), cookie=9, priority=10, reason=0,
                    packet_count=4, byte_count=256),
        PortStatus(0, _port(4)),
        StatsRequest(StatsType.FLOW, b"\x00" * 44),
        StatsReply(StatsType.DESC, b"\x00" * 1056),
    ]


class TestRegistryRoundTrip:
    def test_samples_cover_every_registered_type(self):
        sampled = {type(m) for m in sample_instances()}
        registered = set(OpenFlowMessage._registry.values())
        assert sampled == registered

    @pytest.mark.parametrize(
        "message", sample_instances(), ids=lambda m: type(m).__name__
    )
    def test_parse_of_pack_is_identity(self, message):
        assert parse_message(message.pack()) == message

    @pytest.mark.parametrize(
        "message", sample_instances(), ids=lambda m: type(m).__name__
    )
    def test_repack_is_byte_identical(self, message):
        raw = message.pack()
        assert parse_message(raw).pack() == raw


class TestPackedCache:
    def test_direct_field_mutation_invalidates(self):
        message = EchoRequest(payload=b"a", xid=5)
        before = message.pack()
        message.payload = b"bb"
        after = message.pack()
        assert after != before
        assert parse_message(after).payload == b"bb"

    def test_xid_mutation_invalidates(self):
        message = Hello(xid=5)
        message.pack()
        message.xid = 6
        assert parse_message(message.pack()).xid == 6

    def test_nested_mutation_reaches_the_wire(self):
        flow_mod = FlowMod(Match(in_port=1), actions=[OutputAction(2)])
        before = flow_mod.pack()
        flow_mod.actions[0].port = 7
        flow_mod.match.nw_dst = "10.0.0.7"
        after = flow_mod.pack()
        assert after != before
        decoded = parse_message(after)
        assert decoded.actions[0].port == 7
        assert str(decoded.match.nw_dst) == "10.0.0.7"

    @pytest.mark.parametrize("action, message, check", [
        (ModifyMessage("match.nw_src", "10.0.0.9"),
         FlowMod(Match(in_port=1, nw_src="10.0.0.1"), actions=[OutputAction(2)]),
         lambda m: str(m.match.nw_src) == "10.0.0.9"),
        (ModifyMessage("match.dl_dst", "00:00:00:00:00:0b"),
         FlowMod(Match(in_port=1), actions=[OutputAction(2)]),
         lambda m: str(m.match.dl_dst) == "00:00:00:00:00:0b"),
        (ModifyMessage("match.tp_dst", 443),
         FlowMod(Match(tp_dst=80), actions=[OutputAction(2)]),
         lambda m: m.match.tp_dst == 443),
        (ModifyMessage("output_port", 9),
         FlowMod(Match(in_port=1), actions=[OutputAction(2), OutputAction(3)]),
         lambda m: [a.port for a in m.actions] == [9, 9]),
        (ModifyMessage("output_port", 4),
         PacketOut(in_port=2, actions=[OutputAction(3)], data=b"\x01" * 16),
         lambda m: m.actions[0].port == 4),
        (ModifyMessage("idle_timeout", 0),
         FlowMod(Match(in_port=1), idle_timeout=5, actions=[OutputAction(2)]),
         lambda m: m.idle_timeout == 0),
        (ModifyMessage("buffer_id", 77),
         PacketIn(7, 24, 3, PacketInReason.NO_MATCH, b"\x00" * 24),
         lambda m: m.buffer_id == 77),
    ], ids=["match-ip", "match-mac", "match-int", "output-flowmod",
            "output-packetout", "numeric-flowmod", "numeric-packetin"])
    def test_mutating_actions_ship_their_edit(self, action, message, check):
        incoming = InterposedMessage(("c1", "s1"), Direction.TO_SWITCH, 0.0,
                                     message.pack())
        assert incoming.parsed is not None  # decoded before the edit
        action.apply(_action_context(incoming))
        assert incoming.payload_replaced
        assert incoming.message_type_name == message.message_type.name
        assert check(parse_message(incoming.raw))

    def test_fuzz_ships_the_flipped_bytes(self):
        message = FlowMod(Match(in_port=1), actions=[OutputAction(2)])
        incoming = InterposedMessage(("c1", "s1"), Direction.TO_SWITCH, 0.0,
                                     message.pack())
        assert incoming.message_type_name == "FLOW_MOD"
        FuzzMessage(bit_flips=16).apply(_action_context(incoming))
        assert incoming.raw != message.pack()
        assert incoming.raw[:8] == message.pack()[:8]  # header preserved
        # The cached type was dropped with the old bytes.
        assert incoming.message_type_name == valid_type_name(incoming.raw)


def _action_context(incoming):
    out = [OutgoingMessage(incoming)]
    return ActionContext(EvalContext(incoming, StorageSet(), 0.0), out,
                         goto=None, sleep=None, syscmd=None,
                         record=lambda kind, data: None, rng=SeededRng(3))


class TestHeaderPeek:
    @pytest.mark.parametrize(
        "message", sample_instances(), ids=lambda m: type(m).__name__
    )
    def test_peek_agrees_with_full_decode(self, message):
        raw = message.pack()
        assert peek_message_type_name(raw) == message.message_type.name

    def test_peek_rejects_short_buffers(self):
        assert peek_message_type_name(b"\x01\x00") is None

    def test_peek_rejects_wrong_version(self):
        raw = bytearray(Hello().pack())
        raw[0] = 0x04
        assert peek_message_type_name(bytes(raw)) is None

    def test_peek_rejects_unknown_type(self):
        raw = bytearray(Hello().pack())
        raw[1] = 0xEE
        assert peek_message_type_name(bytes(raw)) is None


class TestFrameExtraction:
    def test_feed_frames_are_byte_identical_slices(self):
        stream = b"".join(m.pack() for m in sample_instances())
        framer = MessageFramer()
        frames = []
        # Dribble the stream in 7-byte chunks to exercise reassembly.
        for start in range(0, len(stream), 7):
            frames.extend(framer.feed_frames(stream[start:start + 7]))
        assert b"".join(frames) == stream
        assert len(frames) == len(sample_instances())

    def test_feed_frames_passes_undecodable_bodies(self):
        """Framing is length-only: garbage with a sane header is framed."""
        frame = bytearray(EchoRequest(payload=b"xxxx").pack())
        frame[1] = 0xEE  # unknown type — parse_message would reject this
        frames = MessageFramer().feed_frames(bytes(frame))
        assert frames == [bytes(frame)]

    def test_feed_still_parses(self):
        message = FlowMod(Match(in_port=1), actions=[OutputAction(2)])
        decoded = MessageFramer().feed(message.pack())
        assert decoded == [message]


class TestXidAllocation:
    def test_wraparound_skips_zero(self):
        ctx = SimContext()
        ctx._xid = 0xFFFFFFFE  # start at the top of the 32-bit range
        xids = [ctx.next_xid() for _ in range(4)]
        assert xids == [0xFFFFFFFE, 0xFFFFFFFF, 1, 2]

    def test_xids_monotonic_in_normal_range(self):
        ctx = SimContext()
        first = ctx.next_xid()
        second = ctx.next_xid()
        assert (first, second) == (1, 2)
