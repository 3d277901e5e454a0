"""ICMP echo request/reply (the `ping` workload)."""

from __future__ import annotations

import struct
from enum import IntEnum

from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.ipv4 import internet_checksum


class IcmpType(IntEnum):
    ECHO_REPLY = 0
    ECHO_REQUEST = 8


_HEADER = struct.Struct("!BBHHH")


def pack_echo(icmp_type: int, identifier: int, sequence: int,
              payload: bytes) -> bytes:
    """The bytes :meth:`IcmpEcho.pack` writes, checksum included."""
    header = _HEADER.pack(icmp_type, 0, 0, identifier, sequence)
    checksum = internet_checksum(header + payload)
    return _HEADER.pack(icmp_type, 0, checksum, identifier, sequence) + payload


class IcmpEcho:
    """An ICMP echo request or reply."""

    __slots__ = ("icmp_type", "identifier", "sequence", "payload")

    def __init__(
        self,
        icmp_type: int,
        identifier: int,
        sequence: int,
        payload: bytes = b"",
    ) -> None:
        if icmp_type not in (IcmpType.ECHO_REQUEST, IcmpType.ECHO_REPLY):
            raise ValueError(f"unsupported ICMP type {icmp_type!r}")
        if not 0 <= identifier <= 0xFFFF:
            raise ValueError(f"identifier out of range: {identifier!r}")
        if not 0 <= sequence <= 0xFFFF:
            raise ValueError(f"sequence out of range: {sequence!r}")
        self.icmp_type = IcmpType(icmp_type)
        self.identifier = identifier
        self.sequence = sequence
        self.payload = bytes(payload)

    @classmethod
    def request(cls, identifier: int, sequence: int, payload: bytes = b"") -> "IcmpEcho":
        return cls(IcmpType.ECHO_REQUEST, identifier, sequence, payload)

    def reply(self) -> "IcmpEcho":
        """Build the matching echo reply (same id/seq/payload)."""
        if self.icmp_type is not IcmpType.ECHO_REQUEST:
            raise ValueError("only echo requests can be replied to")
        return IcmpEcho(IcmpType.ECHO_REPLY, self.identifier, self.sequence, self.payload)

    @property
    def is_request(self) -> bool:
        return self.icmp_type is IcmpType.ECHO_REQUEST

    @property
    def is_reply(self) -> bool:
        return self.icmp_type is IcmpType.ECHO_REPLY

    def pack(self) -> bytes:
        return pack_echo(int(self.icmp_type), self.identifier, self.sequence,
                         self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "IcmpEcho":
        if len(data) < _HEADER.size:
            raise FrameDecodeError(f"ICMP packet too short: {len(data)} bytes")
        icmp_type, code, checksum, identifier, sequence = _HEADER.unpack_from(data)
        if code != 0:
            raise FrameDecodeError(f"unsupported ICMP code {code}")
        if internet_checksum(data) != 0:
            raise FrameDecodeError(f"ICMP checksum mismatch (got 0x{checksum:04x})")
        if icmp_type not in (IcmpType.ECHO_REQUEST, IcmpType.ECHO_REPLY):
            # Destination unreachable, time exceeded, ...: forwarded as
            # opaque IPv4 payload, not a reason to stop the run.
            raise FrameDecodeError(f"unsupported ICMP type {icmp_type}")
        return cls(icmp_type, identifier, sequence, data[_HEADER.size :])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IcmpEcho):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return (
            f"<IcmpEcho {self.icmp_type.name} id={self.identifier} "
            f"seq={self.sequence} len={len(self.payload)}>"
        )
