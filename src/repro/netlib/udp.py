"""UDP datagrams."""

from __future__ import annotations

import struct

from repro.netlib.ethernet import FrameDecodeError

_HEADER = struct.Struct("!HHHH")


def pack_datagram(src_port: int, dst_port: int, payload: bytes) -> bytes:
    """The bytes :meth:`UdpDatagram.pack` writes (checksum zero)."""
    return _HEADER.pack(src_port, dst_port, _HEADER.size + len(payload), 0) + payload


class UdpDatagram:
    """A UDP datagram (checksum omitted, as permitted over IPv4)."""

    __slots__ = ("src_port", "dst_port", "payload")

    def __init__(self, src_port: int, dst_port: int, payload: bytes = b"") -> None:
        for name, port in (("src_port", src_port), ("dst_port", dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port!r}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = bytes(payload)

    @property
    def length(self) -> int:
        return _HEADER.size + len(self.payload)

    def pack(self) -> bytes:
        return pack_datagram(self.src_port, self.dst_port, self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpDatagram":
        if len(data) < _HEADER.size:
            raise FrameDecodeError(f"UDP datagram too short: {len(data)} bytes")
        src_port, dst_port, length, _checksum = _HEADER.unpack_from(data)
        if length < _HEADER.size or length > len(data):
            raise FrameDecodeError(f"UDP length field invalid: {length}")
        return cls(src_port, dst_port, data[_HEADER.size : length])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UdpDatagram):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return f"<Udp {self.src_port}->{self.dst_port} len={len(self.payload)}>"
