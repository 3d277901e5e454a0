"""Typed OpenFlow 1.0 statistics bodies.

`StatsRequest`/`StatsReply` carry opaque bodies on the wire; this module
gives FLOW and AGGREGATE statistics their real OF 1.0 structures so the
monitoring workflow the paper's system model describes ("controllers use
the southbound API to query ... traffic statistics associated with
instantiated forwarding rules") runs over byte-accurate messages — and so
MODIFYMESSAGE attacks on statistics replies exercise real re-encoding.
"""

from __future__ import annotations

import struct
from typing import List

from repro.openflow.actions import Action
from repro.openflow.match import MATCH_SIZE, Match
from repro.openflow.messages import OpenFlowDecodeError, StatsReply, StatsRequest
from repro.openflow.constants import Port, StatsType

_FLOW_STATS_FIXED = struct.Struct("!HBx")          # length, table_id
_FLOW_STATS_TAIL = struct.Struct("!IIHHH6xQQQ")    # durations..byte_count
_FLOW_REQUEST = struct.Struct("!Bx H")             # table_id, out_port
_AGGREGATE_REPLY = struct.Struct("!QQI4x")


class FlowStatsEntry:
    """One ``ofp_flow_stats`` record in a FLOW stats reply."""

    __slots__ = (
        "match",
        "table_id",
        "duration_sec",
        "duration_nsec",
        "priority",
        "idle_timeout",
        "hard_timeout",
        "cookie",
        "packet_count",
        "byte_count",
        "actions",
    )

    def __init__(
        self,
        match: Match,
        priority: int = 0x8000,
        duration_sec: int = 0,
        duration_nsec: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        cookie: int = 0,
        packet_count: int = 0,
        byte_count: int = 0,
        actions: List[Action] = (),
        table_id: int = 0,
    ) -> None:
        self.match = match
        self.table_id = table_id
        self.duration_sec = duration_sec
        self.duration_nsec = duration_nsec
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.packet_count = packet_count
        self.byte_count = byte_count
        self.actions = list(actions)

    def pack(self) -> bytes:
        packed_actions = Action.pack_list(self.actions)
        length = (
            _FLOW_STATS_FIXED.size
            + MATCH_SIZE
            + _FLOW_STATS_TAIL.size
            + len(packed_actions)
        )
        return (
            _FLOW_STATS_FIXED.pack(length, self.table_id)
            + self.match.pack()
            + _FLOW_STATS_TAIL.pack(
                self.duration_sec,
                self.duration_nsec,
                self.priority,
                self.idle_timeout,
                self.hard_timeout,
                self.cookie,
                self.packet_count,
                self.byte_count,
            )
            + packed_actions
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0):
        """Decode one record; returns ``(entry, next_offset)``."""
        if offset + _FLOW_STATS_FIXED.size > len(data):
            raise OpenFlowDecodeError("truncated flow-stats header")
        length, table_id = _FLOW_STATS_FIXED.unpack_from(data, offset)
        end = offset + length
        if length < _FLOW_STATS_FIXED.size + MATCH_SIZE + _FLOW_STATS_TAIL.size:
            raise OpenFlowDecodeError(f"impossible flow-stats length {length}")
        if end > len(data):
            raise OpenFlowDecodeError("flow-stats record overflows body")
        cursor = offset + _FLOW_STATS_FIXED.size
        match = Match.unpack(data[cursor : cursor + MATCH_SIZE])
        cursor += MATCH_SIZE
        (
            duration_sec,
            duration_nsec,
            priority,
            idle_timeout,
            hard_timeout,
            cookie,
            packet_count,
            byte_count,
        ) = _FLOW_STATS_TAIL.unpack_from(data, cursor)
        cursor += _FLOW_STATS_TAIL.size
        actions = Action.unpack_list(data[cursor:end])
        entry = cls(
            match,
            priority=priority,
            duration_sec=duration_sec,
            duration_nsec=duration_nsec,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            cookie=cookie,
            packet_count=packet_count,
            byte_count=byte_count,
            actions=actions,
            table_id=table_id,
        )
        return entry, end

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlowStatsEntry):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        return (
            f"<FlowStats {self.match!r} packets={self.packet_count} "
            f"bytes={self.byte_count}>"
        )


def flow_stats_request(
    match: Match = None,
    table_id: int = 0xFF,
    out_port: int = Port.NONE,
    xid: int = 0,
) -> StatsRequest:
    """Build an OFPST_FLOW request (default: all tables, all flows)."""
    match = match if match is not None else Match.wildcard_all()
    body = match.pack() + _FLOW_REQUEST.pack(table_id, out_port)
    return StatsRequest(StatsType.FLOW, body, xid=xid)


def parse_flow_stats_request(request: StatsRequest):
    """Decode an OFPST_FLOW request body -> (match, table_id, out_port)."""
    if request.stats_type != StatsType.FLOW:
        raise OpenFlowDecodeError(f"not a FLOW stats request: {request!r}")
    body = request.body
    if len(body) < MATCH_SIZE + _FLOW_REQUEST.size:
        raise OpenFlowDecodeError("truncated FLOW stats request body")
    match = Match.unpack(body[:MATCH_SIZE])
    table_id, out_port = _FLOW_REQUEST.unpack_from(body, MATCH_SIZE)
    return match, table_id, out_port


def flow_stats_reply(entries: List[FlowStatsEntry], xid: int = 0) -> StatsReply:
    """Build an OFPST_FLOW reply from entries."""
    body = b"".join(entry.pack() for entry in entries)
    return StatsReply(StatsType.FLOW, body, xid=xid)


def parse_flow_stats_reply(reply: StatsReply) -> List[FlowStatsEntry]:
    """Decode every ``ofp_flow_stats`` record in a FLOW stats reply."""
    if reply.stats_type != StatsType.FLOW:
        raise OpenFlowDecodeError(f"not a FLOW stats reply: {reply!r}")
    entries: List[FlowStatsEntry] = []
    offset = 0
    while offset < len(reply.body):
        entry, offset = FlowStatsEntry.unpack(reply.body, offset)
        entries.append(entry)
    return entries


def aggregate_stats_reply(
    packet_count: int, byte_count: int, flow_count: int, xid: int = 0
) -> StatsReply:
    """Build an OFPST_AGGREGATE reply."""
    body = _AGGREGATE_REPLY.pack(packet_count, byte_count, flow_count)
    return StatsReply(StatsType.AGGREGATE, body, xid=xid)


def parse_aggregate_stats_reply(reply: StatsReply):
    """Decode an OFPST_AGGREGATE reply -> (packets, bytes, flows)."""
    if reply.stats_type != StatsType.AGGREGATE:
        raise OpenFlowDecodeError(f"not an AGGREGATE stats reply: {reply!r}")
    if len(reply.body) < _AGGREGATE_REPLY.size:
        raise OpenFlowDecodeError("truncated AGGREGATE stats reply")
    return _AGGREGATE_REPLY.unpack_from(reply.body)
