"""ARP request/reply packets (RFC 826, Ethernet/IPv4 only)."""

from __future__ import annotations

import struct

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.ethernet import FrameDecodeError

_ARP = struct.Struct("!HHBBH6s4s6s4s")

HTYPE_ETHERNET = 1
PTYPE_IPV4 = 0x0800

OP_REQUEST = 1
OP_REPLY = 2


class ArpPacket:
    """An Ethernet/IPv4 ARP packet."""

    __slots__ = ("opcode", "sender_mac", "sender_ip", "target_mac", "target_ip")

    def __init__(
        self,
        opcode: int,
        sender_mac: MacAddress,
        sender_ip: Ipv4Address,
        target_mac: MacAddress,
        target_ip: Ipv4Address,
    ) -> None:
        if opcode not in (OP_REQUEST, OP_REPLY):
            raise ValueError(f"unsupported ARP opcode {opcode!r}")
        self.opcode = opcode
        self.sender_mac = MacAddress(sender_mac)
        self.sender_ip = Ipv4Address(sender_ip)
        self.target_mac = MacAddress(target_mac)
        self.target_ip = Ipv4Address(target_ip)

    @classmethod
    def request(
        cls, sender_mac: MacAddress, sender_ip: Ipv4Address, target_ip: Ipv4Address
    ) -> "ArpPacket":
        """Build a who-has broadcast request."""
        return cls(
            OP_REQUEST,
            sender_mac,
            sender_ip,
            MacAddress("00:00:00:00:00:00"),
            target_ip,
        )

    @classmethod
    def reply(
        cls,
        sender_mac: MacAddress,
        sender_ip: Ipv4Address,
        target_mac: MacAddress,
        target_ip: Ipv4Address,
    ) -> "ArpPacket":
        """Build an is-at unicast reply."""
        return cls(OP_REPLY, sender_mac, sender_ip, target_mac, target_ip)

    @property
    def is_request(self) -> bool:
        return self.opcode == OP_REQUEST

    @property
    def is_reply(self) -> bool:
        return self.opcode == OP_REPLY

    def pack(self) -> bytes:
        return _ARP.pack(
            HTYPE_ETHERNET,
            PTYPE_IPV4,
            6,
            4,
            self.opcode,
            self.sender_mac.packed,
            self.sender_ip.packed,
            self.target_mac.packed,
            self.target_ip.packed,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ArpPacket":
        if len(data) < _ARP.size:
            raise FrameDecodeError(f"ARP packet too short: {len(data)} bytes")
        htype, ptype, hlen, plen, opcode, smac, sip, tmac, tip = _ARP.unpack_from(data)
        if (htype, ptype, hlen, plen) != (HTYPE_ETHERNET, PTYPE_IPV4, 6, 4):
            raise FrameDecodeError(
                f"unsupported ARP hardware/protocol combination "
                f"({htype}, 0x{ptype:04x}, {hlen}, {plen})"
            )
        if opcode not in (OP_REQUEST, OP_REPLY):
            raise FrameDecodeError(f"unsupported ARP opcode {opcode}")
        return cls(opcode, MacAddress(smac), Ipv4Address(sip), MacAddress(tmac), Ipv4Address(tip))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArpPacket):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        kind = "request" if self.is_request else "reply"
        return (
            f"<Arp {kind} sender={self.sender_ip}({self.sender_mac}) "
            f"target={self.target_ip}({self.target_mac})>"
        )
