"""Unit tests for the OpenFlow 1.0 match structure."""

import pytest

from repro.netlib import (
    EtherType,
    EthernetFrame,
    IcmpEcho,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
)
from repro.netlib.arp import ArpPacket
from repro.openflow import Match, Wildcards
from repro.netlib.flowkey import extract_flow_key
from repro.openflow.match import MATCH_SIZE

MAC1 = MacAddress("00:00:00:00:00:01")
MAC2 = MacAddress("00:00:00:00:00:02")
IP1 = Ipv4Address("10.0.0.1")
IP2 = Ipv4Address("10.0.0.2")


def tcp_packet(payload=b"x", sport=1234, dport=80):
    tcp = TcpSegment(sport, dport, payload=payload)
    ip = Ipv4Packet(IP1, IP2, IpProtocol.TCP, tcp.pack())
    return EthernetFrame(MAC2, MAC1, EtherType.IPV4, ip.pack()).pack()


def icmp_packet():
    icmp = IcmpEcho.request(9, 1)
    ip = Ipv4Packet(IP1, IP2, IpProtocol.ICMP, icmp.pack())
    return EthernetFrame(MAC2, MAC1, EtherType.IPV4, ip.pack()).pack()


def arp_packet():
    arp = ArpPacket.request(MAC1, IP1, IP2)
    return EthernetFrame(MAC2, MAC1, EtherType.ARP, arp.pack()).pack()


class TestExtraction:
    def test_tcp_fields(self):
        match = Match.from_packet(tcp_packet(), in_port=3)
        assert match.in_port == 3
        assert match.dl_src == MAC1
        assert match.dl_dst == MAC2
        assert match.dl_type == EtherType.IPV4
        assert match.nw_proto == IpProtocol.TCP
        assert match.nw_src == IP1
        assert match.nw_dst == IP2
        assert match.tp_src == 1234
        assert match.tp_dst == 80

    def test_icmp_fields_use_type_code(self):
        match = Match.from_packet(icmp_packet(), in_port=1)
        assert match.nw_proto == IpProtocol.ICMP
        assert match.tp_src == 8  # echo request type
        assert match.tp_dst == 0

    def test_arp_fields_map_opcode_and_ips(self):
        match = Match.from_packet(arp_packet(), in_port=1)
        assert match.dl_type == EtherType.ARP
        assert match.nw_proto == 1  # ARP request opcode
        assert match.nw_src == IP1
        assert match.nw_dst == IP2
        assert match.tp_src is None

    def test_field_tuple_is_hashable(self):
        key = extract_flow_key(tcp_packet(), in_port=3)
        assert hash(key) == hash(extract_flow_key(tcp_packet(), in_port=3))


class TestMatching:
    def test_from_packet_exact_match(self):
        data = tcp_packet()
        match = Match.from_packet(data, in_port=3)
        assert match.matches_packet(data, 3)

    def test_in_port_mismatch(self):
        data = tcp_packet()
        match = Match.from_packet(data, in_port=3)
        assert not match.matches_packet(data, 4)

    def test_wildcard_all_matches_everything(self):
        assert Match.wildcard_all().matches_packet(tcp_packet(), 1)
        assert Match.wildcard_all().matches_packet(arp_packet(), 9)

    def test_l2_only_match_ignores_l3(self):
        match = Match(in_port=3, dl_src=MAC1, dl_dst=MAC2)
        assert match.matches_packet(tcp_packet(), 3)
        assert match.matches_packet(icmp_packet(), 3)

    def test_nw_prefix_match(self):
        match = Match(nw_dst=Ipv4Address("10.0.0.0"), nw_dst_prefix=24)
        assert match.matches_packet(tcp_packet(), 1)
        other = Match(nw_dst=Ipv4Address("10.0.1.0"), nw_dst_prefix=24)
        assert not other.matches_packet(tcp_packet(), 1)

    def test_zero_prefix_is_wildcard(self):
        match = Match(nw_dst=Ipv4Address("1.2.3.4"), nw_dst_prefix=0)
        assert match.matches_packet(tcp_packet(), 1)

    def test_tp_port_mismatch(self):
        match = Match(tp_dst=443)
        assert not match.matches_packet(tcp_packet(dport=80), 1)

    def test_ip_field_on_arp_packet_does_not_match(self):
        match = Match(dl_type=EtherType.IPV4)
        assert not match.matches_packet(arp_packet(), 1)


class TestWireFormat:
    def test_size_is_40_bytes(self):
        assert MATCH_SIZE == 40
        assert len(Match.wildcard_all().pack()) == 40

    def test_roundtrip_exact(self):
        match = Match.from_packet(tcp_packet(), in_port=3)
        assert Match.unpack(match.pack()) == match

    def test_roundtrip_partial(self):
        match = Match(in_port=1, dl_src=MAC1, nw_dst=IP2, nw_dst_prefix=16,
                      tp_dst=80, dl_type=EtherType.IPV4, nw_proto=6)
        decoded = Match.unpack(match.pack())
        assert decoded == match
        assert decoded.nw_dst_prefix == 16
        assert decoded.nw_src is None

    def test_wildcard_bits_for_empty_match(self):
        word = Match.wildcard_all().wildcards
        assert word & int(Wildcards.IN_PORT)
        assert word & int(Wildcards.DL_SRC)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Match.unpack(b"\x00" * 10)

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            Match(nw_src=IP1, nw_src_prefix=33)


class TestStrictAndSubsume:
    def test_strict_equal(self):
        a = Match(in_port=1, dl_src=MAC1)
        b = Match(in_port=1, dl_src=MAC1)
        assert a.is_strict_equal(b)
        assert not a.is_strict_equal(Match(in_port=1))

    def test_wildcard_subsumes_specific(self):
        assert Match.wildcard_all().subsumes(Match(in_port=1, dl_src=MAC1))

    def test_specific_does_not_subsume_wildcard(self):
        assert not Match(in_port=1).subsumes(Match.wildcard_all())

    def test_equal_matches_subsume_each_other(self):
        a = Match(in_port=1, nw_dst=IP2)
        assert a.subsumes(Match(in_port=1, nw_dst=IP2))

    def test_prefix_subsumes_longer_prefix(self):
        shorter = Match(nw_dst=Ipv4Address("10.0.0.0"), nw_dst_prefix=8)
        longer = Match(nw_dst=Ipv4Address("10.0.0.1"), nw_dst_prefix=32)
        assert shorter.subsumes(longer)
        assert not longer.subsumes(shorter)

    def test_field_value_conflict_not_subsumed(self):
        assert not Match(in_port=1).subsumes(Match(in_port=2))

    def test_specified_fields_view(self):
        match = Match(in_port=1, tp_dst=80)
        assert match.specified_fields() == {"in_port": 1, "tp_dst": 80}
