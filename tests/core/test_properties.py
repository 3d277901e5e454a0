"""Unit tests for message properties and the interposed-message wrapper."""

import itertools

import pytest

from repro.core.lang.properties import (
    Direction,
    InterposedMessage,
    MessageProperty,
    METADATA_PROPERTIES,
    _normalize,
)
from repro.netlib import (
    MATCH_FIELD_NAMES,
    ArpPacket,
    EtherType,
    EthernetFrame,
    IcmpEcho,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    LldpPacket,
    MacAddress,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
)
from repro.netlib.ipv4 import internet_checksum
from repro.openflow import (
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FlowMod,
    FlowRemoved,
    Hello,
    Match,
    OutputAction,
    PacketIn,
    PacketInReason,
    PacketOut,
    PhyPort,
    Port,
    PortStatus,
)

from tests.netlib.flowkey_reference import extract_packet_fields_reference

CONN = ("c1", "s2")


def interpose(message, direction=Direction.TO_SWITCH, at=1.5):
    return InterposedMessage(CONN, direction, at, message.pack(), message)


def ip_frame(protocol, l4):
    ip = Ipv4Packet(Ipv4Address("10.0.0.2"), Ipv4Address("10.0.0.3"),
                    protocol, l4)
    return EthernetFrame(MacAddress(3), MacAddress(2), EtherType.IPV4,
                         ip.pack()).pack()


def icmp_frame():
    return ip_frame(IpProtocol.ICMP, IcmpEcho.request(1, 1).pack())


def icmp_unreachable_frame():
    """ICMP destination unreachable (type 3, code 1): a valid ICMP
    message that is not an echo."""
    body = bytes([3, 1, 0, 0]) + b"\x00" * 4 + b"h" * 28
    checksum = internet_checksum(body)
    return ip_frame(IpProtocol.ICMP,
                    body[:2] + checksum.to_bytes(2, "big") + body[4:])


def frame_of(ethertype, payload):
    return EthernetFrame(MacAddress(3), MacAddress(2), ethertype, payload).pack()


#: One PACKET_IN payload per frame shape the attack language can see.
PACKET_IN_FRAMES = {
    "tcp": ip_frame(IpProtocol.TCP, TcpSegment(
        40000, 5001, seq=1, flags=TcpFlags.ACK, payload=b"d" * 32).pack()),
    "udp": ip_frame(IpProtocol.UDP, UdpDatagram(1234, 53, b"q").pack()),
    "icmp-echo": icmp_frame(),
    "icmp-unreachable": icmp_unreachable_frame(),
    "arp": frame_of(EtherType.ARP, ArpPacket.request(
        MacAddress(2), Ipv4Address("10.0.0.2"), Ipv4Address("10.0.0.3")).pack()),
    "lldp": frame_of(EtherType.LLDP, LldpPacket("dpid:1", 2).pack()),
    "runt": b"\x01" * 10,
}


class TestIdentityProperties:
    def test_to_switch_direction(self):
        msg = interpose(Hello(), Direction.TO_SWITCH)
        assert msg.source == "c1"
        assert msg.destination == "s2"

    def test_to_controller_direction(self):
        msg = interpose(Hello(), Direction.TO_CONTROLLER)
        assert msg.source == "s2"
        assert msg.destination == "c1"

    def test_property_accessors(self):
        msg = interpose(Hello(), at=2.5)
        assert msg.get_property(MessageProperty.TIMESTAMP) == 2.5
        assert msg.get_property(MessageProperty.LENGTH) == 8
        assert msg.get_property(MessageProperty.TYPE) == "HELLO"
        assert msg.get_property(MessageProperty.SOURCE) == "c1"
        assert isinstance(msg.get_property(MessageProperty.ID), int)

    def test_ids_unique(self):
        ids = itertools.count(1)
        first, second = (
            InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, Hello().pack(), ids=ids)
            for _ in range(2))
        assert first.msg_id != second.msg_id
        assert first.copy().msg_id not in (first.msg_id, second.msg_id)

    def test_metadata_override(self):
        msg = interpose(Hello())
        msg.metadata_overrides["destination"] = "s9"
        assert msg.destination == "s9"

    def test_property_from_name(self):
        assert MessageProperty.from_name("MESSAGESOURCE") == MessageProperty.SOURCE
        assert MessageProperty.from_name("type") == MessageProperty.TYPE
        with pytest.raises(ValueError):
            MessageProperty.from_name("color")

    def test_metadata_classification(self):
        assert MessageProperty.TYPE not in METADATA_PROPERTIES
        assert MessageProperty.SOURCE in METADATA_PROPERTIES
        assert MessageProperty.LENGTH in METADATA_PROPERTIES


class TestPayloadDecoding:
    def test_lazy_parse_from_raw(self):
        raw = FlowMod(Match(in_port=1)).pack()
        msg = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, raw)
        assert msg.message_type_name == "FLOW_MOD"

    def test_garbage_parses_as_none(self):
        msg = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, b"\xff" * 16)
        assert msg.parsed is None
        assert msg.message_type_name is None
        assert msg.get_property(MessageProperty.TYPE) is None

    def test_copy_gets_new_id_same_bytes(self):
        msg = interpose(Hello())
        replica = msg.copy()
        assert replica.raw == msg.raw
        assert replica.msg_id != msg.msg_id

    def test_replace_payload_reencodes(self):
        msg = interpose(FlowMod(Match(in_port=1), idle_timeout=5))
        modified = msg.parsed
        modified.idle_timeout = 99
        msg.replace_payload(modified)
        assert msg.get_type_option("idle_timeout") == 99


class TestTypeOptions:
    def test_flow_mod_options(self):
        flow_mod = FlowMod(
            Match(in_port=1, nw_src=Ipv4Address("10.0.0.2"),
                  nw_dst=Ipv4Address("10.0.0.3")),
            idle_timeout=5, hard_timeout=30, priority=7,
            actions=[OutputAction(2), OutputAction(3)],
        )
        msg = interpose(flow_mod)
        assert msg.get_type_option("command") == "ADD"
        assert msg.get_type_option("idle_timeout") == 5
        assert msg.get_type_option("hard_timeout") == 30
        assert msg.get_type_option("priority") == 7
        assert msg.get_type_option("match.nw_src") == "10.0.0.2"
        assert msg.get_type_option("match.nw_dst") == "10.0.0.3"
        assert msg.get_type_option("match.in_port") == 1
        assert msg.get_type_option("n_actions") == 2
        assert msg.get_type_option("output_ports") == (2, 3)

    def test_wildcarded_match_field_is_none(self):
        """The Table II Ryu anomaly: absent options evaluate to None."""
        msg = interpose(FlowMod(Match(in_port=1)))  # L2-only style match
        assert msg.get_type_option("match.nw_src") is None
        assert msg.get_type_option("match.nw_dst") is None

    def test_packet_in_options_including_inner_packet(self):
        packet_in = PacketIn(7, 100, 3, 0, icmp_frame())
        msg = interpose(packet_in, Direction.TO_CONTROLLER)
        assert msg.get_type_option("in_port") == 3
        assert msg.get_type_option("reason") == "NO_MATCH"
        assert msg.get_type_option("packet.nw_src") == "10.0.0.2"
        assert msg.get_type_option("packet.dl_type") == 0x0800

    @pytest.mark.parametrize("frame", sorted(PACKET_IN_FRAMES))
    @pytest.mark.parametrize("name", MATCH_FIELD_NAMES + ("nw_ttl",))
    def test_packet_options_read_the_frames_flow_key(self, frame, name):
        """``packet.<field>`` reads what the decode oracle reads off the
        frame, normalized as the DSL compares it; ``None`` for an unknown
        field and for a frame that does not decode."""
        data = PACKET_IN_FRAMES[frame]
        packet_in = PacketIn(9, len(data), 4, PacketInReason.NO_MATCH, data)
        msg = interpose(packet_in, Direction.TO_CONTROLLER)
        try:
            expected = _normalize(
                extract_packet_fields_reference(data, 4).get(name))
        except Exception:  # noqa: BLE001 - the oracle's failure is None
            expected = None
        assert msg.get_type_option(f"packet.{name}") == expected

    def test_packet_out_options(self):
        msg = interpose(PacketOut(in_port=2, actions=[OutputAction(Port.FLOOD)]))
        assert msg.get_type_option("in_port") == 2
        assert msg.get_type_option("output_ports") == (int(Port.FLOOD),)

    def test_flow_removed_options(self):
        msg = interpose(FlowRemoved(Match(in_port=1), 0, 5, 0, packet_count=9))
        assert msg.get_type_option("reason") == "IDLE_TIMEOUT"
        assert msg.get_type_option("packet_count") == 9
        assert msg.get_type_option("match.in_port") == 1

    def test_features_reply_options(self):
        reply = FeaturesReply(0x2, ports=[PhyPort(1, MacAddress(1), "e1")])
        msg = interpose(reply, Direction.TO_CONTROLLER)
        assert msg.get_type_option("datapath_id") == 2
        assert msg.get_type_option("n_ports") == 1

    def test_error_and_echo_and_port_status_options(self):
        assert interpose(ErrorMessage(1, 6)).get_type_option("code") == 6
        assert interpose(EchoRequest(payload=b"abc")).get_type_option(
            "payload_len") == 3
        status = PortStatus(0, PhyPort(3, MacAddress(3), "e3"))
        assert interpose(status).get_type_option("port_no") == 3

    def test_unknown_option_is_none(self):
        msg = interpose(Hello())
        assert msg.get_type_option("nonexistent") is None
        assert msg.get_type_option("match.bogus_field") is None

    def test_summaries(self):
        msg = interpose(Hello())
        meta = msg.metadata_summary()
        assert set(meta) == {"id", "source", "destination", "timestamp", "length"}
        payload = msg.payload_summary()
        assert payload["type"] == "HELLO"
