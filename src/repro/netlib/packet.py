"""Layered packet decoding helpers.

The switch's flow-match extraction and the controllers' PACKET_IN handlers
both need to look inside raw Ethernet bytes; this module is the single
place that knows how the layers nest.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from repro.netlib.arp import ArpPacket
from repro.netlib.ethernet import EtherType, EthernetFrame, FrameDecodeError
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.lldp import LldpPacket
from repro.netlib.tcp import TcpSegment
from repro.netlib.udp import UdpDatagram

L3Packet = Union[ArpPacket, Ipv4Packet, LldpPacket]
L4Packet = Union[IcmpEcho, TcpSegment, UdpDatagram]


class DecodedPacket(NamedTuple):
    """A fully decoded Ethernet frame with its nested layers (when known)."""

    ethernet: EthernetFrame
    l3: Optional[L3Packet]
    l4: Optional[L4Packet]


def decode_ethernet(data: bytes) -> DecodedPacket:
    """Decode raw bytes into Ethernet + known upper layers.

    Unknown EtherTypes or IP protocols, ICMP messages other than echo and
    ARP opcodes other than request and reply leave the corresponding
    layer as ``None`` rather than raising: the data plane must forward
    traffic it does not understand.
    """
    frame = EthernetFrame.unpack(data)
    l3: Optional[L3Packet] = None
    l4: Optional[L4Packet] = None
    try:
        if frame.ethertype == EtherType.ARP:
            l3 = ArpPacket.unpack(frame.payload)
        elif frame.ethertype == EtherType.LLDP:
            l3 = LldpPacket.unpack(frame.payload)
        elif frame.ethertype == EtherType.IPV4:
            ip = Ipv4Packet.unpack(frame.payload)
            l3 = ip
            if ip.protocol == IpProtocol.ICMP:
                l4 = IcmpEcho.unpack(ip.payload)
            elif ip.protocol == IpProtocol.TCP:
                l4 = TcpSegment.unpack(ip.payload)
            elif ip.protocol == IpProtocol.UDP:
                l4 = UdpDatagram.unpack(ip.payload)
    except FrameDecodeError:
        # Malformed upper layers (e.g. after FUZZMESSAGE) decode as opaque.
        pass
    return DecodedPacket(frame, l3, l4)


def payload_protocol_name(decoded: DecodedPacket) -> str:
    """Human-readable protocol label for capture logs (e.g. ``"ipv4/icmp"``)."""
    if decoded.l3 is None:
        return f"ethertype-0x{decoded.ethernet.ethertype:04x}"
    if isinstance(decoded.l3, ArpPacket):
        return "arp"
    if isinstance(decoded.l3, LldpPacket):
        return "lldp"
    if decoded.l4 is None:
        return "ipv4"
    if isinstance(decoded.l4, IcmpEcho):
        return "ipv4/icmp"
    if isinstance(decoded.l4, TcpSegment):
        return "ipv4/tcp"
    return "ipv4/udp"
