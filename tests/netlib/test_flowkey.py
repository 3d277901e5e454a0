"""Single-pass flow-key extraction vs. the decode-based reference.

These tests guard the fast lane's memoization against stale-key bugs:
every frame shape the simulator (or an attack) can produce must extract
to exactly what the decode-based reference
(:mod:`tests.netlib.flowkey_reference`) produces — same fields, same
``None`` degradations, same exceptions.
"""

import struct

import pytest

from repro.netlib import (
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
from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.flowkey import MATCH_FIELD_NAMES, extract_flow_key
from tests.netlib.flowkey_reference import extract_packet_fields_reference, field_tuple

MAC_A = MacAddress("00:00:00:00:00:01")
MAC_B = MacAddress("00:00:00:00:00:02")
IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")


def eth(payload: bytes, ethertype: int = EtherType.IPV4) -> bytes:
    return EthernetFrame(MAC_B, MAC_A, ethertype, payload).pack()


def ip(payload: bytes, protocol: int = IpProtocol.TCP) -> bytes:
    return Ipv4Packet(IP_A, IP_B, protocol, payload).pack()


def icmp_frame() -> bytes:
    return eth(ip(IcmpEcho.request(7, 3, b"x" * 56).pack(),
                  protocol=IpProtocol.ICMP))


def tcp_frame() -> bytes:
    seg = TcpSegment(49152, 5001, seq=1, flags=TcpFlags.ACK, payload=b"d" * 100)
    return eth(ip(seg.pack()))


def udp_frame() -> bytes:
    return eth(ip(UdpDatagram(1234, 53, b"q").pack(), protocol=IpProtocol.UDP))


def arp_frame(opcode: int = 1) -> bytes:
    if opcode == 1:
        arp = ArpPacket.request(MAC_A, IP_A, IP_B)
    else:
        arp = ArpPacket.reply(MAC_A, IP_A, MAC_B, IP_B)
    return eth(arp.pack(), ethertype=EtherType.ARP)


def key_fields(data: bytes, in_port: int) -> dict:
    """:func:`extract_flow_key`'s ints by field name."""
    return dict(zip(MATCH_FIELD_NAMES, extract_flow_key(data, in_port)))


def assert_equivalent(data: bytes, in_port: int = 3) -> None:
    """Fast and reference extraction agree — result or exception."""
    try:
        expected = extract_packet_fields_reference(data, in_port)
    except Exception as exc:  # noqa: BLE001 - comparing failure modes
        with pytest.raises(type(exc)):
            extract_flow_key(data, in_port)
        return
    assert extract_flow_key(data, in_port) == field_tuple(expected)


WELL_FORMED = {
    "icmp-request": icmp_frame(),
    "icmp-reply": eth(ip(IcmpEcho.request(1, 1).reply().pack(),
                         protocol=IpProtocol.ICMP)),
    "tcp": tcp_frame(),
    "udp": udp_frame(),
    "arp-request": arp_frame(1),
    "arp-reply": arp_frame(2),
    "lldp": eth(LldpPacket("dpid:1", 2).pack(), ethertype=EtherType.LLDP),
    "unknown-ethertype": eth(b"\x01\x02\x03", ethertype=0x88CC + 1),
    "ipv6-ethertype": eth(b"\x60" + b"\x00" * 39, ethertype=0x86DD),
    "bare-ethernet": eth(b""),
    "ip-no-l4": eth(ip(b"", protocol=99)),
    "ip-empty-tcp": eth(ip(b"", protocol=IpProtocol.TCP)),
}


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_equivalence_well_formed(name):
    assert_equivalent(WELL_FORMED[name])


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_equivalence_under_truncation(name):
    """Every prefix of every frame shape extracts identically."""
    data = WELL_FORMED[name]
    for cut in range(len(data) + 1):
        assert_equivalent(data[:cut])


def test_truncated_ethernet_raises():
    with pytest.raises(FrameDecodeError):
        extract_flow_key(b"\x00" * 13, 1)
    # 14 bytes is a valid (empty-payload) frame.
    fields = key_fields(b"\x00" * 14, 1)
    assert fields["dl_type"] == 0


def test_non_ip_ethertype_leaves_l3_fields_none():
    fields = key_fields(eth(b"payload", ethertype=0x1234), 2)
    assert fields["dl_type"] == 0x1234
    for name in ("nw_tos", "nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst"):
        assert fields[name] is None


def test_icmp_type_and_code_extraction():
    fields = key_fields(icmp_frame(), 1)
    assert fields["nw_proto"] == 1
    assert fields["tp_src"] == 8  # echo request type
    assert fields["tp_dst"] == 0
    reply = eth(ip(IcmpEcho.request(1, 1).reply().pack(),
                   protocol=IpProtocol.ICMP))
    assert key_fields(reply, 1)["tp_src"] == 0


def _patch_l4(frame: bytes, offset_in_l4: int, value: int) -> bytes:
    mutated = bytearray(frame)
    mutated[34 + offset_in_l4] = value
    return bytes(mutated)


def test_icmp_nonzero_code_degrades_to_no_l4():
    # Corrupt the code byte: IcmpEcho.unpack rejects it, so both routes
    # keep the IP fields and drop tp_src/tp_dst.
    broken = _patch_l4(icmp_frame(), 1, 0x7)
    assert_equivalent(broken)
    fields = key_fields(broken, 1)
    assert fields["nw_proto"] == 1 and fields["tp_src"] is None


def test_icmp_unknown_type_degrades_like_reference():
    # Type 13 (timestamp) passes the code and checksum checks, but only
    # echo is modelled: both routes keep the IPv4 fields and leave the
    # ICMP fields out, as for any L4 header that does not decode.
    frame = bytearray(icmp_frame())
    frame[34] = 13
    # Fix the ICMP checksum for the new type byte (type went 8 -> 13).
    checksum = struct.unpack_from("!H", frame, 36)[0]
    fixed = checksum - (13 - 8) * 256
    struct.pack_into("!H", frame, 36, fixed & 0xFFFF)
    assert_equivalent(bytes(frame))
    fields = key_fields(bytes(frame), 1)
    assert fields["nw_proto"] == 1 and fields["nw_dst"] == int(IP_B)
    assert fields["tp_src"] is None and fields["tp_dst"] is None


def test_icmp_bad_checksum_degrades_to_no_l4():
    broken = _patch_l4(icmp_frame(), 2, 0xEE)
    assert_equivalent(broken)
    assert key_fields(broken, 1)["tp_src"] is None


def test_tcp_with_options_degrades_to_no_l4():
    # data offset 8 (options present) is rejected by TcpSegment.unpack.
    broken = _patch_l4(tcp_frame(), 12, 8 << 4)
    assert_equivalent(broken)
    fields = key_fields(broken, 1)
    assert fields["nw_proto"] == 6 and fields["tp_src"] is None


def test_udp_bad_length_field_degrades_to_no_l4():
    broken = bytearray(udp_frame())
    struct.pack_into("!H", broken, 34 + 4, 4)  # length < header size
    assert_equivalent(bytes(broken))
    assert key_fields(bytes(broken), 1)["tp_src"] is None


def test_ipv4_bad_header_checksum_degrades_to_l2_only():
    broken = bytearray(tcp_frame())
    broken[24] ^= 0xFF  # corrupt the header checksum
    assert_equivalent(bytes(broken))
    fields = key_fields(bytes(broken), 1)
    assert fields["dl_type"] == EtherType.IPV4
    assert fields["nw_src"] is None and fields["tp_src"] is None


def test_ipv4_options_and_bad_version_degrade_to_l2_only():
    for version_ihl in (0x46, 0x65):  # ihl=6, version=6
        broken = bytearray(tcp_frame())
        broken[14] = version_ihl
        assert_equivalent(bytes(broken))
        assert key_fields(bytes(broken), 1)["nw_src"] is None


def test_trailing_slack_beyond_total_length_is_ignored():
    padded = tcp_frame() + b"\x00" * 18  # e.g. minimum-size padding
    assert_equivalent(padded)
    assert extract_flow_key(padded, 1) == extract_flow_key(tcp_frame(), 1)


def test_arp_maps_into_nw_fields():
    fields = key_fields(arp_frame(1), 4)
    assert fields["dl_type"] == EtherType.ARP
    assert fields["nw_proto"] == 1  # opcode rides in nw_proto
    assert fields["nw_src"] == int(IP_A) and fields["nw_dst"] == int(IP_B)
    assert fields["tp_src"] is None


def test_arp_unknown_opcode_degrades_like_reference():
    # Only requests and replies are modelled: both routes leave every L3
    # field out, as for an ARP body that does not decode.
    broken = bytearray(arp_frame(1))
    struct.pack_into("!H", broken, 14 + 6, 9)  # opcode 9
    assert_equivalent(bytes(broken))
    fields = key_fields(bytes(broken), 1)
    assert fields["dl_type"] == EtherType.ARP
    assert fields["nw_proto"] is None and fields["nw_src"] is None


def test_field_tuple_covers_all_twelve_fields():
    values = extract_flow_key(tcp_frame(), 5)
    assert len(values) == len(MATCH_FIELD_NAMES) == 12
    assert values[0] == 5  # in_port leads

