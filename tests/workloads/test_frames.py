"""Frame templates: byte fidelity, checksum patching, fast-lane caches."""

from repro.netlib import fastframe
from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.ethernet import EthernetFrame, EtherType
from repro.netlib.flowkey import extract_flow_base, extract_flow_key
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import Ipv4Packet
from repro.openflow.match import Match
from repro.workloads import FrameTemplate

SRC_MAC, DST_MAC = MacAddress(0x02AA00000001), MacAddress(0x02AA00000002)
SRC_IP, DST_IP = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2")


def _udp_template():
    return FrameTemplate.udp(SRC_MAC, DST_MAC, SRC_IP, DST_IP, 4000, 4001)


def _key(template):
    """The eleven-field flow key the template's next frame carries."""
    return template.emit()._base


def _named(base):
    """Eleven key fields read by name, addresses as address objects."""
    return Match.from_key((None,) + base)


def _assert_decodes_strictly(data: bytes):
    """The strict layered decoders accept the patched bytes (checksums
    and lengths are all internally consistent)."""
    frame = EthernetFrame.unpack(bytes(data))
    if frame.ethertype == EtherType.IPV4:
        packet = Ipv4Packet.unpack(frame.payload)
        if packet.protocol == 1:
            IcmpEcho.unpack(packet.payload)


def test_template_fields_match_extraction():
    template = _udp_template()
    assert _key(template) == extract_flow_base(bytes(template.buf))


def test_port_and_address_patches_stay_canonical():
    template = _udp_template()
    for i in range(50):
        template.set_tp_src(20000 + i * 7)
        template.set_nw_src(Ipv4Address(int(SRC_IP) + i))
        template.set_nw_dst(Ipv4Address(int(DST_IP) + 2 * i))
        data = bytes(template.buf)
        assert _key(template) == extract_flow_base(data)
        _assert_decodes_strictly(data)


def test_mac_patches_update_bytes_and_key():
    template = _udp_template()
    template.set_dl_src(0x02BB00000099)
    assert bytes(template.buf)[6:12] == MacAddress(0x02BB00000099).packed
    assert _named(_key(template)).dl_src == MacAddress(0x02BB00000099)
    assert _key(template) == extract_flow_base(bytes(template.buf))


def test_icmp_patches_keep_checksum_valid():
    template = FrameTemplate.icmp_echo(SRC_MAC, DST_MAC, SRC_IP, DST_IP)
    for i in range(50):
        template.set_icmp_seq(i * 911 & 0xFFFF)
        template.set_icmp_ident(i * 37 & 0xFFFF)
        data = bytes(template.buf)
        assert _key(template) == extract_flow_base(data)
        _assert_decodes_strictly(data)


def test_arp_retargeting():
    victim_mac = MacAddress(0x02CC00000005)
    victim_ip = Ipv4Address("10.0.0.50")
    template = FrameTemplate.arp(
        SRC_MAC, DST_MAC, sender_mac=SRC_MAC, sender_ip=DST_IP,
        target_mac=DST_MAC, target_ip=Ipv4Address("10.0.0.9"),
    )
    template.set_dl_dst(victim_mac)
    template.set_arp_target(victim_mac, victim_ip)
    base = extract_flow_base(bytes(template.buf))
    assert _key(template) == base
    assert _named(base).dl_dst == victim_mac
    assert _named(base).nw_dst == victim_ip
    assert _named(base).nw_src == DST_IP  # the impersonated host's IP


def test_emit_returns_a_warm_fastframe_when_the_lane_is_on():
    template = _udp_template()
    frame = template.emit()
    assert isinstance(frame, fastframe.FastFrame)
    # The pre-populated cache equals what extraction would compute, so
    # the first-hop switch never parses the frame.
    assert frame._base == extract_flow_base(bytes(frame))
    key = Match.from_key(extract_flow_key(frame, in_port=3))
    assert key.in_port == 3
    assert key.tp_src == 4000


def test_emit_snapshots_are_independent_of_later_patches():
    template = _udp_template()
    first = template.emit()
    template.set_tp_src(5555)
    second = template.emit()
    assert bytes(first) != bytes(second)
    assert _named(first._base).tp_src == 4000
    assert _named(second._base).tp_src == 5555


def test_emitted_bytes_equal_the_template_buffer():
    template = _udp_template()
    template.set_tp_dst(5001)
    frame = template.emit()
    assert type(frame) is fastframe.FastFrame
    assert bytes(frame) == bytes(template.buf)
