"""Data-plane packet library.

Implements wire-format serialization and parsing for the protocols the case
study exercises: Ethernet, ARP, IPv4, ICMP (ping), TCP (iperf-style bulk
transfer), UDP, and LLDP (topology discovery).  These byte-accurate formats
are what flows inside OpenFlow ``PACKET_IN``/``PACKET_OUT`` payloads, so the
ATTAIN injector's conditionals inspect the same structures the paper's
Loxi-based injector did.
"""

from repro.netlib.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.netlib.arp import ArpPacket
from repro.netlib.ethernet import EtherType, EthernetFrame
from repro.netlib.fastframe import FastFrame
from repro.netlib.flowkey import (
    MATCH_FIELD_NAMES,
    extract_flow_base,
    extract_flow_key,
)
from repro.netlib.icmp import IcmpEcho, IcmpType
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.lldp import LldpPacket
from repro.netlib.packet import decode_ethernet, payload_protocol_name
from repro.netlib.tcp import TcpFlags, TcpSegment
from repro.netlib.udp import UdpDatagram

__all__ = [
    "ArpPacket",
    "BROADCAST_MAC",
    "EtherType",
    "EthernetFrame",
    "FastFrame",
    "IcmpEcho",
    "IcmpType",
    "IpProtocol",
    "Ipv4Address",
    "Ipv4Packet",
    "LldpPacket",
    "MATCH_FIELD_NAMES",
    "MacAddress",
    "TcpFlags",
    "TcpSegment",
    "UdpDatagram",
    "decode_ethernet",
    "extract_flow_base",
    "extract_flow_key",
    "payload_protocol_name",
]
