"""The OpenFlow codec and framer before per-message layouts: test oracles.

These are the earlier, plainer versions of the hot codec paths, kept
here so the shipping code can be checked against them byte for byte:

* PACKET_IN, PACKET_OUT and FLOW_MOD ``pack``, ``unpack_body`` and
  ``valid_body`` (one ``struct`` call per field group, bodies sliced);
* ``Match.pack`` and ``Match.unpack`` (the wildcard loop every time);
* ``OutputAction`` and the generator ``Action.walk``;
* the bytearray-only :class:`ReferenceFramer`, which copies every
  delivery into its buffer.

Messages are the shipping classes, built through their constructors
from fields already checked here (enum values through the enum
constructor); only the wire format is re-implemented.  :func:`reference_parse` and
:func:`reference_pack` fall back to the shipping ``unpack_body`` and
``pack_body`` for every other message type, which did not change.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.openflow.actions import (
    Action,
    ActionDecodeError,
    OutputAction,
    UnknownAction,
)
from repro.openflow.constants import (
    NW_DST_MASK,
    NW_DST_SHIFT,
    NW_SRC_MASK,
    NW_SRC_SHIFT,
    OFP_HEADER_SIZE,
    OFP_VERSION,
    OFPFW_ALL,
    FlowModCommand,
    PacketInReason,
)
from repro.openflow.match import (
    _NW_DST,
    _NW_SRC,
    _SIMPLE_WILDCARDS,
    MATCH_SIZE,
    Match,
)
from repro.openflow.messages import (
    FlowMod,
    OpenFlowDecodeError,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
)

_HEADER = struct.Struct("!BBHI")
_MATCH = struct.Struct("!IHHIHIHBxHBBxxIIHH")
_PACKET_IN_REASONS = frozenset(int(reason) for reason in PacketInReason)
_FLOW_MOD_COMMANDS = frozenset(int(command) for command in FlowModCommand)


# --------------------------------------------------------------------- #
# Actions
# --------------------------------------------------------------------- #

def action_walk(data: bytes) -> Iterator[Tuple[int, Optional[type], bytes]]:
    offset, end = 0, len(data)
    while offset < end:
        if offset + 4 > end:
            raise ActionDecodeError("truncated action header")
        action_type, length = struct.unpack_from("!HH", data, offset)
        if length < 8 or length % 8 or offset + length > end:
            raise ActionDecodeError(f"bad action length {length}")
        body = data[offset + 4 : offset + length]
        cls = Action._registry.get(action_type)
        if cls is not None:
            if cls.body_size is not None and len(body) != cls.body_size:
                raise ActionDecodeError(
                    f"bad {cls.action_type.name} body length {len(body)}"
                )
        yield action_type, cls, body
        offset += length


def valid_action_list(data: bytes) -> bool:
    try:
        for _ in action_walk(data):
            pass
    except ActionDecodeError:
        return False
    return True


def unpack_action(cls: Optional[type], action_type: int, body: bytes) -> Action:
    if cls is None:
        return UnknownAction(action_type, body)
    if cls is OutputAction:
        port, max_len = struct.unpack("!HH", body)
        return OutputAction(port, max_len)
    return cls.unpack_body(body)


def unpack_action_list(data: bytes) -> List[Action]:
    return [unpack_action(cls, action_type, body)
            for action_type, cls, body in action_walk(data)]


def pack_action(action: Action) -> bytes:
    if isinstance(action, UnknownAction):
        return struct.pack("!HH", action.raw_type, 4 + len(action.body)) + action.body
    if isinstance(action, OutputAction):
        body = struct.pack("!HH", action.port, action.max_len)
    else:
        body = action.pack_body()
    length = 4 + len(body)
    if length % 8:
        raise ActionDecodeError(f"action length must be a multiple of 8, got {length}")
    return struct.pack("!HH", int(action.action_type), length) + body


def pack_action_list(actions: List[Action]) -> bytes:
    return b"".join(pack_action(action) for action in actions)


# --------------------------------------------------------------------- #
# Match
# --------------------------------------------------------------------- #

def match_pack(match: Match) -> bytes:
    key = match.key
    word = 0
    for pos, flag in _SIMPLE_WILDCARDS:
        if key[pos] is None:
            word |= flag
    src_wild = 32 if key[_NW_SRC] is None else 32 - match.nw_src_prefix
    dst_wild = 32 if key[_NW_DST] is None else 32 - match.nw_dst_prefix
    word |= min(src_wild, 63) << NW_SRC_SHIFT
    word |= min(dst_wild, 63) << NW_DST_SHIFT
    in_port, dl_src, dl_dst, *rest = [value or 0 for value in key]
    return _MATCH.pack(word, in_port, dl_src >> 32, dl_src & 0xFFFFFFFF,
                       dl_dst >> 32, dl_dst & 0xFFFFFFFF, *rest)


def match_unpack(data: bytes) -> Match:
    if len(data) < MATCH_SIZE:
        raise ValueError(f"match too short: {len(data)} < {MATCH_SIZE}")
    wildcards, in_port, src_hi, src_lo, dst_hi, dst_lo, *rest = _MATCH.unpack_from(data)
    key = [in_port, src_hi << 32 | src_lo, dst_hi << 32 | dst_lo, *rest]
    wildcards &= OFPFW_ALL
    for pos, flag in _SIMPLE_WILDCARDS:
        if wildcards & flag:
            key[pos] = None
    src_wild = min((wildcards & NW_SRC_MASK) >> NW_SRC_SHIFT, 32)
    dst_wild = min((wildcards & NW_DST_MASK) >> NW_DST_SHIFT, 32)
    if src_wild == 32:
        key[_NW_SRC] = None
    if dst_wild == 32:
        key[_NW_DST] = None
    match = Match.from_key(tuple(key))
    match.nw_src_prefix = 32 - src_wild if src_wild < 32 else 32
    match.nw_dst_prefix = 32 - dst_wild if dst_wild < 32 else 32
    return match


# --------------------------------------------------------------------- #
# PACKET_IN, PACKET_OUT, FLOW_MOD
# --------------------------------------------------------------------- #

def _packet_in_body(message: PacketIn) -> bytes:
    return (struct.pack("!IHHBx", message.buffer_id, message.total_len,
                        message.in_port, int(message.reason))
            + message.data)


def _packet_in_unpack(body: bytes, xid: int) -> PacketIn:
    buffer_id, total_len, in_port, reason = struct.unpack_from("!IHHBx", body)
    return PacketIn(buffer_id, total_len, in_port, PacketInReason(reason), body[10:], xid=xid)


def _packet_in_valid(body: bytes) -> bool:
    return len(body) >= 10 and body[8] in _PACKET_IN_REASONS


def _packet_out_body(message: PacketOut) -> bytes:
    packed_actions = pack_action_list(message.actions)
    return (struct.pack("!IHH", message.buffer_id, message.in_port, len(packed_actions))
            + packed_actions + message.data)


def _packet_out_unpack(body: bytes, xid: int) -> PacketOut:
    buffer_id, in_port, actions_len = struct.unpack_from("!IHH", body)
    actions_end = 8 + actions_len
    if actions_end > len(body):
        raise OpenFlowDecodeError("PACKET_OUT actions overflow body")
    actions = unpack_action_list(body[8:actions_end])
    return PacketOut(buffer_id, in_port, actions, body[actions_end:], xid=xid)


def _packet_out_valid(body: bytes) -> bool:
    if len(body) < 8:
        return False
    actions_end = 8 + int.from_bytes(body[6:8], "big")
    return actions_end <= len(body) and valid_action_list(body[8:actions_end])


def _flow_mod_body(message: FlowMod) -> bytes:
    return (
        match_pack(message.match)
        + struct.pack("!QHHHHIHH", message.cookie, int(message.command),
                      message.idle_timeout, message.hard_timeout, message.priority,
                      message.buffer_id, message.out_port, message.flags)
        + pack_action_list(message.actions)
    )


def _flow_mod_unpack(body: bytes, xid: int) -> FlowMod:
    match = match_unpack(body[:MATCH_SIZE])
    (cookie, command, idle_timeout, hard_timeout, priority, buffer_id, out_port,
     flags) = struct.unpack_from("!QHHHHIHH", body, MATCH_SIZE)
    actions = unpack_action_list(body[MATCH_SIZE + 24:])
    return FlowMod(match, FlowModCommand(command), cookie, idle_timeout, hard_timeout, priority,
                   buffer_id, out_port, flags, actions, xid=xid)


def _flow_mod_valid(body: bytes) -> bool:
    return (
        len(body) >= MATCH_SIZE + 24
        and int.from_bytes(body[MATCH_SIZE + 8:MATCH_SIZE + 10], "big")
        in _FLOW_MOD_COMMANDS
        and valid_action_list(body[MATCH_SIZE + 24:])
    )


#: class -> (pack_body, unpack_body, valid_body) of the reference codec.
CODECS = {
    PacketIn: (_packet_in_body, _packet_in_unpack, _packet_in_valid),
    PacketOut: (_packet_out_body, _packet_out_unpack, _packet_out_valid),
    FlowMod: (_flow_mod_body, _flow_mod_unpack, _flow_mod_valid),
}


def reference_pack(message: OpenFlowMessage) -> bytes:
    codec = CODECS.get(type(message))
    body = message.pack_body() if codec is None else codec[0](message)
    return _HEADER.pack(OFP_VERSION, int(message.message_type),
                        OFP_HEADER_SIZE + len(body), message.xid) + body


def reference_parse(data: bytes) -> OpenFlowMessage:
    if len(data) < OFP_HEADER_SIZE:
        raise OpenFlowDecodeError(f"message shorter than header: {len(data)} bytes")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != OFP_VERSION:
        raise OpenFlowDecodeError(f"unsupported OpenFlow version 0x{version:02x}")
    if length < OFP_HEADER_SIZE or length > len(data):
        raise OpenFlowDecodeError(f"header length {length} inconsistent with buffer {len(data)}")
    body = data[OFP_HEADER_SIZE:length]
    cls = OpenFlowMessage._registry.get(msg_type)
    if cls is None:
        raise OpenFlowDecodeError(f"unknown OpenFlow message type {msg_type}")
    codec = CODECS.get(cls)
    try:
        if codec is None:
            return cls.unpack_body(body, xid)
        return codec[1](body, xid)
    except (struct.error, ValueError, ActionDecodeError) as exc:
        raise OpenFlowDecodeError(f"malformed {cls.__name__} body: {exc}") from exc


def reference_valid_type_name(data: bytes) -> Optional[str]:
    if len(data) >= OFP_HEADER_SIZE:
        version, msg_type, length, _xid = _HEADER.unpack_from(data)
        cls = OpenFlowMessage._registry.get(msg_type)
        codec = CODECS.get(cls)
        if (codec is not None and version == OFP_VERSION
                and OFP_HEADER_SIZE <= length <= len(data)):
            if codec[2](data[OFP_HEADER_SIZE:length]):
                return cls.message_type.name
            return None
    try:
        return reference_parse(data).message_type.name
    except OpenFlowDecodeError:
        return None


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #

class ReferenceFramer:
    """The bytearray-only framer: every delivery is appended, then cut."""

    def __init__(self, max_buffer: int = 1 << 22) -> None:
        self._buffer = bytearray()
        self._max_buffer = max_buffer

    def feed_frames(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        if len(self._buffer) > self._max_buffer:
            raise OpenFlowDecodeError(
                f"framer buffer overflow ({len(self._buffer)} bytes); "
                "peer is sending garbage or an unterminated message"
            )
        frames: List[bytes] = []
        while True:
            frame = self._try_extract_frame()
            if frame is None:
                break
            frames.append(frame)
        return frames

    def _try_extract_frame(self):
        if len(self._buffer) < OFP_HEADER_SIZE:
            return None
        (length,) = struct.unpack_from("!H", self._buffer, 2)
        if length < OFP_HEADER_SIZE:
            raise OpenFlowDecodeError(f"header claims impossible length {length}")
        if len(self._buffer) < length:
            return None
        frame = bytes(self._buffer[:length])
        del self._buffer[:length]
        return frame

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
