"""Unit tests for OpenFlow 1.0 message pack/unpack."""

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
    FlowModCommand,
    FlowRemoved,
    GetConfigReply,
    GetConfigRequest,
    Hello,
    Match,
    MessageType,
    OpenFlowDecodeError,
    OutputAction,
    PacketIn,
    PacketInReason,
    PacketOut,
    PhyPort,
    Port,
    PortStatus,
    SetConfig,
    SetDlDstAction,
    StatsReply,
    StatsRequest,
    StatsType,
    parse_message,
)
from repro.openflow.constants import OFP_NO_BUFFER


def roundtrip(message):
    decoded = parse_message(message.pack())
    assert decoded == message
    assert decoded.xid == message.xid
    return decoded


class TestSymmetric:
    def test_hello(self):
        roundtrip(Hello(xid=5))

    def test_echo_request_reply_payload(self):
        request = EchoRequest(payload=b"probe", xid=9)
        roundtrip(request)
        reply = EchoReply.for_request(request)
        assert reply.xid == 9
        assert reply.payload == b"probe"
        roundtrip(reply)

    def test_barrier(self):
        roundtrip(BarrierRequest())
        roundtrip(BarrierReply())

    def test_features_request(self):
        roundtrip(FeaturesRequest())

    def test_error(self):
        message = ErrorMessage(1, 6, b"context-bytes", xid=3)
        decoded = roundtrip(message)
        assert decoded.error_type == 1
        assert decoded.code == 6
        assert decoded.data == b"context-bytes"


class TestConfig:
    def test_set_config(self):
        decoded = roundtrip(SetConfig(miss_send_len=128))
        assert decoded.miss_send_len == 128

    def test_get_config(self):
        roundtrip(GetConfigRequest())
        roundtrip(GetConfigReply(miss_send_len=0xFFFF))


class TestFeaturesReply:
    def test_roundtrip_with_ports(self):
        ports = [PhyPort(index, MacAddress(index), f"s1-eth{index}")
                 for index in range(1, 4)]
        message = FeaturesReply(0xABCD, n_buffers=256, n_tables=1,
                                capabilities=0x83, ports=ports)
        decoded = roundtrip(message)
        assert decoded.datapath_id == 0xABCD
        assert [p.port_no for p in decoded.ports] == [1, 2, 3]
        assert decoded.ports[0].name == "s1-eth1"

    def test_port_name_too_long_rejected(self):
        with pytest.raises(ValueError):
            PhyPort(1, MacAddress(1), "a" * 16)


class TestPacketIn:
    def test_roundtrip(self):
        message = PacketIn(77, 1500, 3, PacketInReason.NO_MATCH, b"\xaa" * 64)
        decoded = roundtrip(message)
        assert decoded.buffer_id == 77
        assert decoded.total_len == 1500
        assert decoded.in_port == 3
        assert decoded.reason == PacketInReason.NO_MATCH
        assert decoded.data == b"\xaa" * 64

    def test_no_match_constructor(self):
        message = PacketIn(5, len(b"abc"), 2, PacketInReason.NO_MATCH, b"abc")
        assert message.total_len == 3
        assert message.reason == PacketInReason.NO_MATCH


class TestPacketOut:
    def test_roundtrip_with_data(self):
        message = PacketOut(in_port=2, actions=[OutputAction(Port.FLOOD)],
                            data=b"frame-bytes")
        decoded = roundtrip(message)
        assert decoded.buffer_id == OFP_NO_BUFFER
        assert decoded.actions == [OutputAction(Port.FLOOD)]
        assert decoded.data == b"frame-bytes"

    def test_roundtrip_buffer_reference(self):
        message = PacketOut(buffer_id=42, in_port=1, actions=[OutputAction(3)])
        decoded = roundtrip(message)
        assert decoded.buffer_id == 42
        assert decoded.data == b""

    def test_multiple_actions(self):
        message = PacketOut(
            in_port=1,
            actions=[SetDlDstAction(MacAddress(9)), OutputAction(2), OutputAction(3)],
            data=b"x",
        )
        decoded = roundtrip(message)
        assert len(decoded.actions) == 3


class TestFlowMod:
    def test_roundtrip_full(self):
        match = Match(in_port=1, tp_dst=80, dl_type=0x0800, nw_proto=6)
        message = FlowMod(match, FlowModCommand.ADD, cookie=0xDEAD,
                          idle_timeout=5, hard_timeout=30, priority=100,
                          buffer_id=7, out_port=Port.NONE, flags=1,
                          actions=[OutputAction(4)])
        decoded = roundtrip(message)
        assert decoded.match == match
        assert decoded.command == FlowModCommand.ADD
        assert decoded.cookie == 0xDEAD
        assert (decoded.idle_timeout, decoded.hard_timeout) == (5, 30)
        assert decoded.priority == 100
        assert decoded.buffer_id == 7
        assert decoded.actions == [OutputAction(4)]

    def test_delete_command(self):
        message = FlowMod(Match.wildcard_all(), FlowModCommand.DELETE)
        assert roundtrip(message).command == FlowModCommand.DELETE

    def test_drop_rule_has_no_actions(self):
        message = FlowMod(Match(in_port=1), actions=[])
        assert roundtrip(message).actions == []


class TestFlowRemovedAndPortStatus:
    def test_flow_removed_roundtrip(self):
        message = FlowRemoved(Match(in_port=2), cookie=1, priority=5, reason=0,
                              duration_sec=12, idle_timeout=5,
                              packet_count=100, byte_count=6400)
        decoded = roundtrip(message)
        assert decoded.reason.name == "IDLE_TIMEOUT"
        assert decoded.packet_count == 100

    def test_port_status_roundtrip(self):
        port = PhyPort(3, MacAddress(3), "s1-eth3", config=1, state=1)
        message = PortStatus(1, port)
        decoded = roundtrip(message)
        assert decoded.reason.name == "DELETE"
        assert decoded.port == port


class TestStats:
    def test_stats_request_roundtrip(self):
        message = StatsRequest(StatsType.FLOW, b"match-body", flags=0)
        decoded = roundtrip(message)
        assert decoded.stats_type == StatsType.FLOW
        assert decoded.body == b"match-body"

    def test_stats_reply_roundtrip(self):
        roundtrip(StatsReply(StatsType.DESC, b"descriptions"))


class TestDecodeErrors:
    def test_short_buffer_rejected(self):
        with pytest.raises(OpenFlowDecodeError):
            parse_message(b"\x01\x00")

    def test_wrong_version_rejected(self):
        raw = bytearray(Hello().pack())
        raw[0] = 0x04  # OpenFlow 1.3
        with pytest.raises(OpenFlowDecodeError):
            parse_message(bytes(raw))

    def test_unknown_type_rejected(self):
        raw = bytearray(Hello().pack())
        raw[1] = 99
        with pytest.raises(OpenFlowDecodeError):
            parse_message(bytes(raw))

    def test_inconsistent_length_rejected(self):
        raw = bytearray(Hello().pack())
        raw[2:4] = (100).to_bytes(2, "big")
        with pytest.raises(OpenFlowDecodeError):
            parse_message(bytes(raw))

    def test_truncated_body_rejected(self):
        raw = PacketIn(1, 10, 1, 0, b"payload").pack()
        with pytest.raises(OpenFlowDecodeError):
            parse_message(raw[:9])


class TestXid:
    def test_xid_defaults_to_zero_when_not_given(self):
        # 0 is the unsolicited-message xid; simulated devices pass their
        # run's next xid (SimContext.next_xid) instead.
        assert Hello().xid == 0
        assert parse_message(Hello(xid=7).pack()).xid == 7

    def test_message_type_tags(self):
        assert Hello.message_type == MessageType.HELLO
        assert FlowMod.message_type == MessageType.FLOW_MOD
        assert PacketIn.message_type == MessageType.PACKET_IN
