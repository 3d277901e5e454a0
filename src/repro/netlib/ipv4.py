"""IPv4 packets (RFC 791) with header checksums."""

from __future__ import annotations

import struct
from enum import IntEnum

from repro.netlib.addresses import Ipv4Address
from repro.netlib.ethernet import FrameDecodeError


class IpProtocol(IntEnum):
    ICMP = 1
    TCP = 6
    UDP = 17


_HEADER = struct.Struct("!BBHHHBBH4s4s")
DEFAULT_TTL = 64


def internet_checksum(data: bytes) -> int:
    """RFC 1071 one's-complement checksum over 16-bit words.

    Read as one big-endian integer, ``data`` is its words weighted by
    powers of 2**16, and 2**16 is 1 modulo 0xFFFF, so the one's-complement
    sum of the words is that integer modulo 0xFFFF.  The end-around-carry
    sum of nonzero data is never 0, so a remainder of 0 reads as 0xFFFF;
    all-zero data sums to 0.  An odd trailing byte is padded with zero,
    i.e. the integer is shifted left by 8.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return ~total & 0xFFFF


class Ipv4Packet:
    """An IPv4 packet without options."""

    __slots__ = ("src", "dst", "protocol", "ttl", "identification", "payload")

    def __init__(
        self,
        src: Ipv4Address,
        dst: Ipv4Address,
        protocol: int,
        payload: bytes = b"",
        ttl: int = DEFAULT_TTL,
        identification: int = 0,
    ) -> None:
        if not 0 <= ttl <= 255:
            raise ValueError(f"TTL out of range: {ttl!r}")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError(f"identification out of range: {identification!r}")
        self.src = Ipv4Address(src)
        self.dst = Ipv4Address(dst)
        self.protocol = int(protocol)
        self.ttl = ttl
        self.identification = identification
        self.payload = bytes(payload)

    @property
    def total_length(self) -> int:
        return _HEADER.size + len(self.payload)

    def decremented(self) -> "Ipv4Packet":
        """Return a copy with TTL reduced by one (router hop)."""
        if self.ttl == 0:
            raise ValueError("TTL already zero; packet should have been dropped")
        return Ipv4Packet(
            self.src,
            self.dst,
            self.protocol,
            self.payload,
            ttl=self.ttl - 1,
            identification=self.identification,
        )

    def pack(self) -> bytes:
        version_ihl = (4 << 4) | 5
        header = _HEADER.pack(
            version_ihl,
            0,
            self.total_length,
            self.identification,
            0,
            self.ttl,
            self.protocol,
            0,
            self.src.packed,
            self.dst.packed,
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:] + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Packet":
        if len(data) < _HEADER.size:
            raise FrameDecodeError(f"IPv4 packet too short: {len(data)} bytes")
        (
            version_ihl,
            _tos,
            total_length,
            identification,
            _flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        version = version_ihl >> 4
        ihl = version_ihl & 0x0F
        if version != 4:
            raise FrameDecodeError(f"not an IPv4 packet (version={version})")
        if ihl != 5:
            raise FrameDecodeError(f"IPv4 options unsupported (ihl={ihl})")
        if total_length > len(data):
            raise FrameDecodeError(
                f"IPv4 total_length {total_length} exceeds buffer {len(data)}"
            )
        header = data[: _HEADER.size]
        if internet_checksum(header) != 0:
            raise FrameDecodeError(f"IPv4 header checksum mismatch (got 0x{checksum:04x})")
        payload = data[_HEADER.size : total_length]
        return cls(
            Ipv4Address(src),
            Ipv4Address(dst),
            protocol,
            payload,
            ttl=ttl,
            identification=identification,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv4Packet):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        try:
            proto = IpProtocol(self.protocol).name
        except ValueError:
            proto = str(self.protocol)
        return f"<Ipv4 {self.src}->{self.dst} {proto} len={self.total_length}>"
