"""The controller's PACKET_IN flow key vs. the ``decode_ethernet`` route.

``Controller`` hands its apps the packet's flow key — ``(in_port,)`` plus
``fastframe.base_key`` — and decodes only LLDP frames.  The oracle is the
decode route it replaced (:func:`packet_in_key_reference`): decode the
frame, read the twelve-tuple off the decoded layers, and drop the
PACKET_IN where either raises.  Over valid, bit-flipped and truncated
ARP, ICMP, TCP, UDP and LLDP frames, the apps must see the same key for
the same PACKET_INs.
"""

from hypothesis import given, settings, strategies as st

from repro.controllers.apps import ControllerApp
from repro.controllers.base import Controller
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
from repro.netlib.addresses import BROADCAST_MAC, LLDP_MULTICAST_MAC
from repro.openflow import PacketIn, PacketInReason
from repro.sim import SimulationEngine
from tests.netlib.flowkey_reference import packet_in_key_reference

MAC_A = MacAddress("00:00:00:00:00:01")
MAC_B = MacAddress("00:00:00:00:00:02")
IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")
IN_PORT = 3


def _ip_frame(protocol, payload):
    packet = Ipv4Packet(IP_A, IP_B, protocol, payload)
    return EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, packet.pack()).pack()


FRAMES = {
    "arp-request": EthernetFrame(
        BROADCAST_MAC, MAC_A, EtherType.ARP,
        ArpPacket.request(MAC_A, IP_A, IP_B).pack()).pack(),
    "arp-reply": EthernetFrame(
        MAC_A, MAC_B, EtherType.ARP,
        ArpPacket.reply(MAC_B, IP_B, MAC_A, IP_A).pack()).pack(),
    "icmp": _ip_frame(IpProtocol.ICMP, IcmpEcho.request(7, 3, b"p" * 56).pack()),
    "tcp": _ip_frame(IpProtocol.TCP, TcpSegment(
        49152, 5001, seq=1, flags=TcpFlags.ACK, payload=b"d" * 1000).pack()),
    "udp": _ip_frame(IpProtocol.UDP, UdpDatagram(5353, 53, b"q" * 300).pack()),
    "lldp": EthernetFrame(
        LLDP_MULTICAST_MAC, MacAddress(0x0102), EtherType.LLDP,
        LldpPacket("dpid:1", 2).pack()).pack(),
}


class KeyRecorder(ControllerApp):
    def __init__(self):
        self.keys = []

    def packet_in(self, controller, session, message, key):
        self.keys.append(key)
        return True


def dispatched_key(data):
    """The key the controller's apps receive for ``data``, or None."""
    recorder = KeyRecorder()
    controller = Controller(SimulationEngine(), apps=[recorder])
    controller._dispatch_packet_in(
        None, PacketIn(1, len(data), IN_PORT, PacketInReason.NO_MATCH, data))
    assert len(recorder.keys) <= 1
    return recorder.keys[0] if recorder.keys else None


@st.composite
def packet_in_data(draw):
    """A frame as a switch sends it up: intact, cut to the 128-byte
    ``miss_send_len``, or cut anywhere, with bit flips in any of them."""
    frame = bytearray(FRAMES[draw(st.sampled_from(sorted(FRAMES)))])
    cut = draw(st.sampled_from(["none", "miss_send_len", "anywhere"]))
    if cut == "miss_send_len":
        del frame[128:]
    elif cut == "anywhere":
        del frame[draw(st.integers(0, len(frame))):]
    if frame and draw(st.booleans()):
        # Flip bits in the headers, where the key and its validation live.
        for _ in range(draw(st.integers(1, 8))):
            bit = draw(st.integers(0, 8 * min(len(frame), 64) - 1))
            frame[bit // 8] ^= 1 << (bit % 8)
    return bytes(frame)


@settings(max_examples=600, deadline=None)
@given(packet_in_data())
def test_apps_see_the_decode_routes_key(data):
    assert dispatched_key(data) == packet_in_key_reference(data, IN_PORT)


def test_every_intact_frame_is_dispatched():
    for name, data in FRAMES.items():
        key = dispatched_key(data)
        assert key is not None, name
        assert key == packet_in_key_reference(data, IN_PORT), name


def test_malformed_lldp_is_dropped_like_the_decode_route():
    bad_chassis = bytearray(FRAMES["lldp"])
    bad_chassis[14 + 3] = 0xFF  # a non-ASCII chassis id does not decode
    assert packet_in_key_reference(bytes(bad_chassis), IN_PORT) is None
    assert dispatched_key(bytes(bad_chassis)) is None


def test_runts_are_dropped():
    assert dispatched_key(FRAMES["tcp"][:13]) is None
