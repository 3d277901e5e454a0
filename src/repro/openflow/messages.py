"""OpenFlow 1.0 message pack/unpack.

Every class round-trips: ``parse_message(msg.pack()) == msg``.  The ATTAIN
injector's protocol encoder/decoder (Section VI-B2) is a thin bridge over
this module.
"""

from __future__ import annotations

import struct
from typing import Callable, ClassVar, Dict, List, Optional, Tuple, Type, Union

from repro.netlib.addresses import MacAddress
from repro.openflow.actions import Action, ActionDecodeError
from repro.openflow.constants import (
    OFP_HEADER_SIZE,
    OFP_NO_BUFFER,
    OFP_VERSION,
    ConfigFlags,
    ErrorType,
    FlowModCommand,
    FlowRemovedReason,
    MessageType,
    PacketInReason,
    Port,
    PortReason,
    StatsType,
)
from repro.openflow.match import MATCH_FORMAT, MATCH_SIZE, Match

_HEADER = struct.Struct("!BBHI")
_U16 = struct.Struct("!H")

#: The header and fixed body of each message of the PACKET_IN round trip
#: as one struct: a pack is one call plus the variable tail, a parse one
#: ``unpack_from`` after :func:`parse_message`'s header checks.
_PACKET_IN = struct.Struct("!BBHIIHHBx")
_PACKET_OUT = struct.Struct("!BBHIIHH")
_FLOW_MOD = struct.Struct("!BBHI" + MATCH_FORMAT + "QHHHHIHH")
#: End of the match's 15 values in a FLOW_MOD unpack (after the
#: header's four), and the byte offset of its command field.
_MATCH_END = 4 + 15
_COMMAND_OFFSET = OFP_HEADER_SIZE + MATCH_SIZE + 8

#: Enum value -> member; a value missing here goes through the enum
#: constructor, whose ``ValueError`` :func:`parse_message` maps.
_PACKET_IN_REASON: Dict[int, PacketInReason] = {int(r): r for r in PacketInReason}
_FLOW_MOD_COMMAND: Dict[int, FlowModCommand] = {int(c): c for c in FlowModCommand}

#: Header type byte -> MessageType name, for header-only peeks.
_TYPE_NAME_BY_ID: Dict[int, str] = {int(t): t.name for t in MessageType}
#: The round trip's type bytes as ints: a pack takes an int faster than an enum.
_PACKET_IN_TYPE, _PACKET_OUT_TYPE, _FLOW_MOD_TYPE = (
    int(MessageType.PACKET_IN), int(MessageType.PACKET_OUT), int(MessageType.FLOW_MOD))


# The round trip's encoders, which its classes' ``_encode`` call: wire
# bytes from ints, no message object (``OpenFlowMessage.pack`` counts none).
def pack_packet_in(xid: int, buffer_id: int, total_len: int, in_port: int,
                   reason: int, data: bytes) -> bytes:
    """PACKET_IN wire bytes carrying ``data``."""
    return _PACKET_IN.pack(OFP_VERSION, _PACKET_IN_TYPE, _PACKET_IN.size + len(data), xid,
                           buffer_id, total_len, in_port, reason) + data


def pack_packet_out(xid: int, buffer_id: int, in_port: int, actions: bytes,
                    data: bytes) -> bytes:
    """PACKET_OUT wire bytes; ``actions`` is the packed action list."""
    return _PACKET_OUT.pack(OFP_VERSION, _PACKET_OUT_TYPE,
                            _PACKET_OUT.size + len(actions) + len(data), xid, buffer_id,
                            in_port, len(actions)) + actions + data


def pack_flow_mod(xid: int, match_fields: Tuple[int, ...], actions: bytes, cookie: int = 0,
                  command: int = int(FlowModCommand.ADD), idle_timeout: int = 0,
                  hard_timeout: int = 0, priority: int = 0x8000,
                  buffer_id: int = OFP_NO_BUFFER, out_port: int = int(Port.NONE),
                  flags: int = 0) -> bytes:
    """FLOW_MOD wire bytes, defaults as :class:`FlowMod`'s: ``match_fields``
    are ``Match.wire_fields``'s values, ``actions`` the packed list."""
    return _FLOW_MOD.pack(OFP_VERSION, _FLOW_MOD_TYPE, _FLOW_MOD.size + len(actions),
                          xid, *match_fields, cookie, command, idle_timeout, hard_timeout,
                          priority, buffer_id, out_port, flags) + actions


class OpenFlowDecodeError(Exception):
    """Raised when bytes cannot be decoded as an OpenFlow 1.0 message."""


def peek_xid(data: bytes) -> Optional[int]:
    """Header-only transaction-id peek — no body decode.

    Returns ``None`` when the buffer cannot plausibly hold an OpenFlow
    1.0 message (same acceptance rule as :func:`peek_message_type_name`).
    """
    if len(data) < OFP_HEADER_SIZE:
        return None
    version, _msg_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION or length < OFP_HEADER_SIZE:
        return None
    return xid


def peek_message_type_name(data: bytes) -> Optional[str]:
    """Header-only message-type peek — no body decode.

    Returns the :class:`MessageType` name from the 8-byte header, or
    ``None`` when the buffer cannot plausibly hold an OpenFlow 1.0 message
    (too short, wrong version, impossible length, unknown type).  This is an
    over-approximation of :func:`parse_message`: whenever a full parse would
    succeed, the peek returns the same type name.
    """
    if len(data) < OFP_HEADER_SIZE:
        return None
    version, msg_type, length, _xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION or length < OFP_HEADER_SIZE:
        return None
    return _TYPE_NAME_BY_ID.get(msg_type)


class OpenFlowMessage:
    """Base class: 8-byte OpenFlow header + type-specific body.

    ``xid`` defaults to 0, which OpenFlow reserves for unsolicited
    messages.  Simulated devices pass ``engine.ctx.next_xid()``, so a
    run's transaction ids depend on that run alone.
    """

    message_type: ClassVar[MessageType]
    _registry: ClassVar[Dict[int, Type["OpenFlowMessage"]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "message_type"):
            OpenFlowMessage._registry[int(cls.message_type)] = cls

    def __init__(self, xid: int = 0) -> None:
        self.xid = int(xid)

    # -- wire format --------------------------------------------------- #
    # ``pack`` and :func:`parse_message` are the only entry points; each
    # class encodes in ``_encode`` and decodes in ``_decode``, by default
    # the header around ``pack_body`` and ``unpack_body``.

    def pack_body(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "OpenFlowMessage":
        raise NotImplementedError

    #: ``valid_body(data, length) -> bool`` on the
    #: :data:`BODY_CHECKED_TYPES`: True exactly when :func:`parse_message`
    #: decodes ``data``, whose header is sound and says ``length``.
    valid_body: ClassVar[Optional[Callable[[bytes, int], bool]]] = None

    def pack(self) -> bytes:
        return self._encode()

    def _encode(self) -> bytes:
        body = self.pack_body()
        length = OFP_HEADER_SIZE + len(body)
        return _HEADER.pack(OFP_VERSION, int(self.message_type), length, self.xid) + body

    @classmethod
    def _decode(cls, data: bytes, length: int, xid: int) -> "OpenFlowMessage":
        return cls.unpack_body(data[OFP_HEADER_SIZE:length], xid)

    def __len__(self) -> int:
        return len(self._encode())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpenFlowMessage):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} xid={self.xid}>"


def parse_message(data: bytes) -> OpenFlowMessage:
    """Decode one complete OpenFlow message from bytes; bytes that do not
    decode raise :class:`OpenFlowDecodeError` and nothing else.

    Any other buffer is copied to ``bytes`` first, so every decoder
    slices ``bytes`` and a decoded message holds no view of the caller's
    buffer.
    """
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size < OFP_HEADER_SIZE:
        raise OpenFlowDecodeError(f"message shorter than header: {size} bytes")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION:
        raise OpenFlowDecodeError(f"unsupported OpenFlow version 0x{version:02x}")
    if length < OFP_HEADER_SIZE or length > size:
        raise OpenFlowDecodeError(f"header length {length} inconsistent with buffer {size}")
    cls = OpenFlowMessage._registry.get(msg_type)
    if cls is None:
        raise OpenFlowDecodeError(f"unknown OpenFlow message type {msg_type}")
    try:
        return cls._decode(data, length, xid)
    except (struct.error, ValueError, ActionDecodeError) as exc:
        # Out-of-range enum fields and bad action TLVs are what fuzzed
        # (FUZZMESSAGE) bytes typically produce.
        raise OpenFlowDecodeError(f"malformed {cls.__name__} body: {exc}") from exc


#: The types whose classes define ``valid_body``.
BODY_CHECKED_TYPES = frozenset({"FLOW_MOD", "PACKET_IN", "PACKET_OUT"})


def valid_type_name(data: bytes) -> Optional[str]:
    """The message type name if :func:`parse_message` would succeed on
    ``data``, else ``None``.

    FLOW_MOD, PACKET_IN and PACKET_OUT (:data:`BODY_CHECKED_TYPES`) get
    a structural check (body size, ``command``/``reason`` range, action
    TLV lengths) that reads fields in place and builds no message;
    anything else is parsed.
    """
    size = len(data)
    if size >= OFP_HEADER_SIZE:
        version, msg_type, length, _xid = _HEADER.unpack_from(data)
        cls = OpenFlowMessage._registry.get(msg_type)
        if (cls is not None and cls.valid_body is not None
                and version == OFP_VERSION
                and OFP_HEADER_SIZE <= length <= size):
            return _TYPE_NAME_BY_ID[msg_type] if cls.valid_body(data, length) else None
    try:
        return parse_message(data).message_type.name
    except OpenFlowDecodeError:
        return None


# ---------------------------------------------------------------------- #
# Symmetric / immutable messages
# ---------------------------------------------------------------------- #


class _EmptyBodyMessage(OpenFlowMessage):
    def pack_body(self) -> bytes:
        return b""

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        return cls(xid=xid)


class Hello(_EmptyBodyMessage):
    message_type = MessageType.HELLO


class FeaturesRequest(_EmptyBodyMessage):
    message_type = MessageType.FEATURES_REQUEST


class GetConfigRequest(_EmptyBodyMessage):
    message_type = MessageType.GET_CONFIG_REQUEST


class BarrierRequest(_EmptyBodyMessage):
    message_type = MessageType.BARRIER_REQUEST


class BarrierReply(_EmptyBodyMessage):
    message_type = MessageType.BARRIER_REPLY


class _EchoMessage(OpenFlowMessage):
    def __init__(self, payload: bytes = b"", xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.payload = bytes(payload)

    def pack_body(self) -> bytes:
        return self.payload

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        return cls(payload=body, xid=xid)


class EchoRequest(_EchoMessage):
    message_type = MessageType.ECHO_REQUEST


class EchoReply(_EchoMessage):
    message_type = MessageType.ECHO_REPLY

    @classmethod
    def for_request(cls, request: EchoRequest) -> "EchoReply":
        return cls(payload=request.payload, xid=request.xid)


class ErrorMessage(OpenFlowMessage):
    """``OFPT_ERROR`` — error type/code plus offending-message prefix."""

    message_type = MessageType.ERROR

    def __init__(
        self,
        error_type: int,
        code: int,
        data: bytes = b"",
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.error_type = int(error_type)
        self.code = int(code)
        self.data = bytes(data)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", self.error_type, self.code) + self.data

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "ErrorMessage":
        error_type, code = struct.unpack_from("!HH", body)
        return cls(error_type, code, body[4:], xid=xid)

    def __repr__(self) -> str:
        try:
            kind = ErrorType(self.error_type).name
        except ValueError:
            kind = str(self.error_type)
        return f"<ErrorMessage {kind} code={self.code} xid={self.xid}>"


class VendorMessage(OpenFlowMessage):
    """``OFPT_VENDOR`` — opaque vendor extension."""

    message_type = MessageType.VENDOR

    def __init__(self, vendor: int, data: bytes = b"", xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.vendor = int(vendor)
        self.data = bytes(data)

    def pack_body(self) -> bytes:
        return struct.pack("!I", self.vendor) + self.data

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "VendorMessage":
        (vendor,) = struct.unpack_from("!I", body)
        return cls(vendor, body[4:], xid=xid)


# ---------------------------------------------------------------------- #
# Switch configuration
# ---------------------------------------------------------------------- #


class _SwitchConfigMessage(OpenFlowMessage):
    def __init__(
        self,
        flags: int = ConfigFlags.FRAG_NORMAL,
        miss_send_len: int = 128,
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.flags = int(flags)
        self.miss_send_len = int(miss_send_len)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", self.flags, self.miss_send_len)

    @classmethod
    def unpack_body(cls, body: bytes, xid: int):
        flags, miss_send_len = struct.unpack_from("!HH", body)
        return cls(flags, miss_send_len, xid=xid)


class GetConfigReply(_SwitchConfigMessage):
    message_type = MessageType.GET_CONFIG_REPLY


class SetConfig(_SwitchConfigMessage):
    message_type = MessageType.SET_CONFIG


# ---------------------------------------------------------------------- #
# Features
# ---------------------------------------------------------------------- #

_PHY_PORT = struct.Struct("!H6s16sIIIIII")


class PhyPort:
    """``ofp_phy_port`` — a physical port description in FEATURES_REPLY
    (``hw_addr``: the MAC as an int)."""

    __slots__ = ("port_no", "hw_addr", "name", "config", "state")

    def __init__(
        self,
        port_no: int,
        hw_addr: Union[int, MacAddress, str, bytes],
        name: str,
        config: int = 0,
        state: int = 0,
    ) -> None:
        self.port_no = int(port_no)
        self.hw_addr = (hw_addr if type(hw_addr) is int and 0 <= hw_addr < 1 << 48
                        else int(MacAddress(hw_addr)))
        if len(name.encode("ascii")) > 15:
            raise ValueError(f"port name too long: {name!r}")
        self.name = name
        self.config = int(config)
        self.state = int(state)

    def pack(self) -> bytes:
        return _PHY_PORT.pack(
            self.port_no,
            self.hw_addr.to_bytes(6, "big"),
            self.name.encode("ascii").ljust(16, b"\x00"),
            self.config,
            self.state,
            0,
            0,
            0,
            0,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "PhyPort":
        port_no, hw_addr, name, config, state, _c, _a, _s, _p = _PHY_PORT.unpack_from(data)
        return cls(
            port_no,
            int.from_bytes(hw_addr, "big"),
            name.rstrip(b"\x00").decode("ascii"),
            config,
            state,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PhyPort):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return f"PhyPort({self.port_no}, {self.name!r})"


class FeaturesReply(OpenFlowMessage):
    """``OFPT_FEATURES_REPLY`` — datapath id, capabilities, and ports."""

    message_type = MessageType.FEATURES_REPLY

    def __init__(
        self,
        datapath_id: int,
        n_buffers: int = 256,
        n_tables: int = 1,
        capabilities: int = 0,
        actions: int = 0xFFF,
        ports: Optional[List[PhyPort]] = None,
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.datapath_id = int(datapath_id)
        self.n_buffers = int(n_buffers)
        self.n_tables = int(n_tables)
        self.capabilities = int(capabilities)
        self.actions = int(actions)
        self.ports = list(ports or [])

    def pack_body(self) -> bytes:
        fixed = struct.pack(
            "!QIB3xII",
            self.datapath_id,
            self.n_buffers,
            self.n_tables,
            self.capabilities,
            self.actions,
        )
        return fixed + b"".join(port.pack() for port in self.ports)

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "FeaturesReply":
        datapath_id, n_buffers, n_tables, capabilities, actions = struct.unpack_from(
            "!QIB3xII", body
        )
        ports = []
        offset = struct.calcsize("!QIB3xII")
        while offset + _PHY_PORT.size <= len(body):
            ports.append(PhyPort.unpack(body[offset : offset + _PHY_PORT.size]))
            offset += _PHY_PORT.size
        return cls(datapath_id, n_buffers, n_tables, capabilities, actions, ports, xid=xid)

    def __repr__(self) -> str:
        return (
            f"<FeaturesReply dpid=0x{self.datapath_id:x} ports={len(self.ports)} "
            f"xid={self.xid}>"
        )


# ---------------------------------------------------------------------- #
# Packet in / out
# ---------------------------------------------------------------------- #


class PacketIn(OpenFlowMessage):
    """``OFPT_PACKET_IN`` — a data-plane packet sent to the controller."""

    message_type = MessageType.PACKET_IN

    def __init__(
        self,
        buffer_id: int,
        total_len: int,
        in_port: int,
        reason: int,
        data: bytes = b"",
        xid: int = 0,
    ) -> None:
        self.xid = int(xid)
        self.buffer_id = int(buffer_id)
        self.total_len = int(total_len)
        self.in_port = int(in_port)
        member = _PACKET_IN_REASON.get(reason)
        self.reason = PacketInReason(reason) if member is None else member
        self.data = bytes(data)

    def _encode(self) -> bytes:
        return pack_packet_in(self.xid, self.buffer_id, self.total_len, self.in_port,
                              self.reason, self.data)

    @classmethod
    def _decode(cls, data: bytes, length: int, xid: int) -> "PacketIn":
        # The unpacked fields are ints and the slice is bytes already, so
        # the message is built without the constructor's conversions.
        if length < _PACKET_IN.size:
            raise ValueError(f"PACKET_IN of {length} bytes")
        _v, _t, _l, _x, buffer_id, total_len, in_port, reason = _PACKET_IN.unpack_from(data)
        member = _PACKET_IN_REASON.get(reason)
        message = cls.__new__(cls)
        message.xid = xid
        message.buffer_id = buffer_id
        message.total_len = total_len
        message.in_port = in_port
        message.reason = PacketInReason(reason) if member is None else member
        message.data = data[_PACKET_IN.size:length]
        return message

    @staticmethod
    def valid_body(data: bytes, length: int) -> bool:
        return length >= _PACKET_IN.size and data[_PACKET_IN.size - 2] in _PACKET_IN_REASON

    def __repr__(self) -> str:
        return (
            f"<PacketIn in_port={self.in_port} reason={self.reason.name} "
            f"len={self.total_len} buffer={self.buffer_id:#x} xid={self.xid}>"
        )


class PacketOut(OpenFlowMessage):
    """``OFPT_PACKET_OUT`` — controller-directed packet transmission."""

    message_type = MessageType.PACKET_OUT

    def __init__(
        self,
        buffer_id: int = OFP_NO_BUFFER,
        in_port: int = Port.NONE,
        actions: Optional[List[Action]] = None,
        data: bytes = b"",
        xid: int = 0,
    ) -> None:
        self.xid = int(xid)
        self.buffer_id = int(buffer_id)
        self.in_port = int(in_port)
        self.actions = list(actions or [])
        self.data = bytes(data)

    def _encode(self) -> bytes:
        return pack_packet_out(self.xid, self.buffer_id, self.in_port,
                               Action.pack_list(self.actions), self.data)

    @classmethod
    def _decode(cls, data: bytes, length: int, xid: int) -> "PacketOut":
        if length < _PACKET_OUT.size:
            raise ValueError(f"PACKET_OUT of {length} bytes")
        _v, _t, _l, _x, buffer_id, in_port, actions_len = _PACKET_OUT.unpack_from(data)
        actions_end = _PACKET_OUT.size + actions_len
        if actions_end > length:
            raise OpenFlowDecodeError("PACKET_OUT actions overflow body")
        message = cls.__new__(cls)
        message.xid = xid
        message.buffer_id = buffer_id
        message.in_port = in_port
        message.actions = Action.unpack_list(data, _PACKET_OUT.size, actions_end)
        message.data = data[actions_end:length]
        return message

    @staticmethod
    def valid_body(data: bytes, length: int) -> bool:
        if length < _PACKET_OUT.size:
            return False
        actions_end = _PACKET_OUT.size + _U16.unpack_from(data, _PACKET_OUT.size - 2)[0]
        return actions_end <= length and Action.valid_list(data, _PACKET_OUT.size, actions_end)

    def __repr__(self) -> str:
        return (
            f"<PacketOut in_port={self.in_port} actions={self.actions} "
            f"buffer={self.buffer_id:#x} xid={self.xid}>"
        )


# ---------------------------------------------------------------------- #
# Flow mod / flow removed
# ---------------------------------------------------------------------- #


class FlowMod(OpenFlowMessage):
    """``OFPT_FLOW_MOD`` — the message the suppression attack drops."""

    message_type = MessageType.FLOW_MOD

    def __init__(
        self,
        match: Match,
        command: int = FlowModCommand.ADD,
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        priority: int = 0x8000,
        buffer_id: int = OFP_NO_BUFFER,
        out_port: int = Port.NONE,
        flags: int = 0,
        actions: Optional[List[Action]] = None,
        xid: int = 0,
    ) -> None:
        self.xid = int(xid)
        self.match = match
        member = _FLOW_MOD_COMMAND.get(command)
        self.command = FlowModCommand(command) if member is None else member
        self.cookie = int(cookie)
        self.idle_timeout = int(idle_timeout)
        self.hard_timeout = int(hard_timeout)
        self.priority = int(priority)
        self.buffer_id = int(buffer_id)
        self.out_port = int(out_port)
        self.flags = int(flags)
        self.actions = list(actions or [])

    def _encode(self) -> bytes:
        return pack_flow_mod(self.xid, self.match.wire_fields(), Action.pack_list(self.actions),
                             self.cookie, self.command, self.idle_timeout, self.hard_timeout,
                             self.priority, self.buffer_id, self.out_port, self.flags)

    @classmethod
    def _decode(cls, data: bytes, length: int, xid: int) -> "FlowMod":
        if length < _FLOW_MOD.size:
            raise ValueError(f"FLOW_MOD of {length} bytes")
        fields = _FLOW_MOD.unpack_from(data)
        message = cls.__new__(cls)
        message.xid = xid
        message.match = Match.from_wire_fields(*fields[4:_MATCH_END])
        (message.cookie, command, message.idle_timeout, message.hard_timeout,
         message.priority, message.buffer_id, message.out_port,
         message.flags) = fields[_MATCH_END:]
        message.actions = Action.unpack_list(data, _FLOW_MOD.size, length)
        member = _FLOW_MOD_COMMAND.get(command)
        message.command = FlowModCommand(command) if member is None else member
        return message

    @staticmethod
    def valid_body(data: bytes, length: int) -> bool:
        return (
            length >= _FLOW_MOD.size
            and _U16.unpack_from(data, _COMMAND_OFFSET)[0] in _FLOW_MOD_COMMAND
            and Action.valid_list(data, _FLOW_MOD.size, length)
        )

    def __repr__(self) -> str:
        return (
            f"<FlowMod {self.command.name} {self.match!r} prio={self.priority} "
            f"idle={self.idle_timeout} hard={self.hard_timeout} xid={self.xid}>"
        )


class FlowRemoved(OpenFlowMessage):
    """``OFPT_FLOW_REMOVED`` — flow expiry notification."""

    message_type = MessageType.FLOW_REMOVED

    def __init__(
        self,
        match: Match,
        cookie: int,
        priority: int,
        reason: int,
        duration_sec: int = 0,
        duration_nsec: int = 0,
        idle_timeout: int = 0,
        packet_count: int = 0,
        byte_count: int = 0,
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.match = match
        self.cookie = int(cookie)
        self.priority = int(priority)
        self.reason = FlowRemovedReason(reason)
        self.duration_sec = int(duration_sec)
        self.duration_nsec = int(duration_nsec)
        self.idle_timeout = int(idle_timeout)
        self.packet_count = int(packet_count)
        self.byte_count = int(byte_count)

    def pack_body(self) -> bytes:
        return self.match.pack() + struct.pack(
            "!QHBxIIH2xQQ",
            self.cookie,
            self.priority,
            int(self.reason),
            self.duration_sec,
            self.duration_nsec,
            self.idle_timeout,
            self.packet_count,
            self.byte_count,
        )

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "FlowRemoved":
        match = Match.unpack(body[:MATCH_SIZE])
        (
            cookie,
            priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout,
            packet_count,
            byte_count,
        ) = struct.unpack_from("!QHBxIIH2xQQ", body, MATCH_SIZE)
        return cls(
            match,
            cookie,
            priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout,
            packet_count,
            byte_count,
            xid=xid,
        )

    def __repr__(self) -> str:
        return f"<FlowRemoved {self.reason.name} {self.match!r} xid={self.xid}>"


# ---------------------------------------------------------------------- #
# Port status
# ---------------------------------------------------------------------- #


class PortStatus(OpenFlowMessage):
    """``OFPT_PORT_STATUS`` — asynchronous port change notification."""

    message_type = MessageType.PORT_STATUS

    def __init__(self, reason: int, port: PhyPort, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.reason = PortReason(reason)
        self.port = port

    def pack_body(self) -> bytes:
        return struct.pack("!B7x", int(self.reason)) + self.port.pack()

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "PortStatus":
        (reason,) = struct.unpack_from("!B7x", body)
        port = PhyPort.unpack(body[8:])
        return cls(reason, port, xid=xid)

    def __repr__(self) -> str:
        return f"<PortStatus {self.reason.name} {self.port!r} xid={self.xid}>"


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


class StatsRequest(OpenFlowMessage):
    """``OFPT_STATS_REQUEST`` with an opaque body (DESC/FLOW/PORT...)."""

    message_type = MessageType.STATS_REQUEST

    def __init__(
        self,
        stats_type: int,
        body: bytes = b"",
        flags: int = 0,
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.stats_type = StatsType(stats_type)
        self.flags = int(flags)
        self.body = bytes(body)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", int(self.stats_type), self.flags) + self.body

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "StatsRequest":
        stats_type, flags = struct.unpack_from("!HH", body)
        return cls(stats_type, body[4:], flags, xid=xid)

    def __repr__(self) -> str:
        return f"<StatsRequest {self.stats_type.name} xid={self.xid}>"


class StatsReply(OpenFlowMessage):
    """``OFPT_STATS_REPLY`` with an opaque body."""

    message_type = MessageType.STATS_REPLY

    def __init__(
        self,
        stats_type: int,
        body: bytes = b"",
        flags: int = 0,
        xid: int = 0,
    ) -> None:
        super().__init__(xid=xid)
        self.stats_type = StatsType(stats_type)
        self.flags = int(flags)
        self.body = bytes(body)

    def pack_body(self) -> bytes:
        return struct.pack("!HH", int(self.stats_type), self.flags) + self.body

    @classmethod
    def unpack_body(cls, body: bytes, xid: int) -> "StatsReply":
        stats_type, flags = struct.unpack_from("!HH", body)
        return cls(stats_type, body[4:], flags, xid=xid)

    def __repr__(self) -> str:
        return f"<StatsReply {self.stats_type.name} xid={self.xid}>"
