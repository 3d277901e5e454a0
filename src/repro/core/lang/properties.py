"""Message properties (Section V-A) and the interposed-message wrapper.

``InterposedMessage`` is the runtime injector's view of one control-plane
message as it crosses the proxy: its connection, direction, arrival
timestamp, raw bytes, and (lazily decoded) OpenFlow payload.  Conditional
expressions read the Section V-A properties through
:meth:`InterposedMessage.get_property` and the type-dependent
``MESSAGETYPEOPTIONS`` through :meth:`InterposedMessage.get_type_option`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Iterator, Optional, Tuple

from repro.netlib.ethernet import FrameDecodeError
from repro.openflow.actions import OutputAction
from repro.openflow.match import MATCH_FIELD_NAMES, Match
from repro.openflow.messages import (
    BODY_CHECKED_TYPES,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FlowMod,
    FlowRemoved,
    OpenFlowDecodeError,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatus,
    StatsReply,
    StatsRequest,
    parse_message,
    peek_message_type_name,
    valid_type_name,
)

_UNSET = object()

ConnectionKey = Tuple[str, str]


class Direction(enum.Enum):
    """Which way a message is travelling on its control connection."""

    TO_CONTROLLER = "to_controller"   # switch -> controller
    TO_SWITCH = "to_switch"           # controller -> switch


class MessageProperty(enum.Enum):
    """The Section V-A message properties."""

    SOURCE = "source"
    DESTINATION = "destination"
    TIMESTAMP = "timestamp"
    LENGTH = "length"
    TYPE = "type"
    ID = "id"

    @classmethod
    def from_name(cls, name: str) -> "MessageProperty":
        normalized = name.lower().replace("message", "").replace("_", "").strip()
        for prop in cls:
            if prop.value == normalized:
                return prop
        raise ValueError(f"unknown message property {name!r}")


#: Properties readable with READMESSAGEMETADATA: "Layers 2, 3, and 4 header
#: information and physical timestamp" — addressing, size, time, and the
#: injector-assigned identifier.  TYPE and all TYPE OPTIONS live in the
#: OpenFlow payload and therefore require READMESSAGE.
METADATA_PROPERTIES = frozenset(
    {
        MessageProperty.SOURCE,
        MessageProperty.DESTINATION,
        MessageProperty.TIMESTAMP,
        MessageProperty.LENGTH,
        MessageProperty.ID,
    }
)


class InterposedMessage:
    """One control-plane message observed at the runtime injector.

    ``connection`` is a ``(controller, switch)`` tuple and ``raw`` the
    wire bytes; both are stored as given.  ``msg_id`` is drawn from
    ``ids``, the run's message-id sequence: the proxy passes its engine's
    ``ctx.msg_ids``, and replicas and injected messages draw from the
    sequence of the message they came from.  A message built without
    ``ids`` starts a sequence of its own.  The proxy has drawn the id and
    peeked the header type before it builds the message, and hands both
    over (``msg_id``, ``coarse_type``).

    ``dropped`` is the attack executor's verdict: True once it has
    handled the message and its outgoing list does not carry it.  The
    monitors' drop counts read this one decision.
    ``metadata_overrides`` (MODIFYMESSAGEMETADATA) is created on first
    use; until then the message holds no dict.
    """

    __slots__ = (
        "connection",
        "direction",
        "timestamp",
        "raw",
        "ids",
        "msg_id",
        "_parsed",
        "_parse_failed",
        "_coarse_type",
        "_type_name",
        "payload_replaced",
        "dropped",
        "_overrides",
    )

    def __init__(
        self,
        connection: ConnectionKey,
        direction: Direction,
        timestamp: float,
        raw: bytes,
        parsed: Optional[OpenFlowMessage] = None,
        ids: Optional[Iterator[int]] = None,
        msg_id: Optional[int] = None,
        coarse_type: Any = _UNSET,
    ) -> None:
        self.connection = connection
        self.direction = direction
        self.timestamp = timestamp
        self.raw = raw
        self.ids = itertools.count(1) if ids is None else ids
        self.msg_id = next(self.ids) if msg_id is None else msg_id
        self._parsed = parsed
        self._parse_failed = False
        self._coarse_type = coarse_type
        self._type_name = _UNSET
        self.payload_replaced = False
        self.dropped = False
        self._overrides: Optional[dict] = None

    @property
    def metadata_overrides(self) -> dict:
        """MODIFYMESSAGEMETADATA's rewrites (``source``/``destination``)."""
        overrides = self._overrides
        if overrides is None:
            overrides = self._overrides = {}
        return overrides

    @property
    def overridden(self) -> bool:
        """True when a metadata rewrite is set (the proxy then routes
        through :meth:`RuntimeInjector.route`)."""
        return bool(self._overrides)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def controller(self) -> str:
        return self.connection[0]

    @property
    def switch(self) -> str:
        return self.connection[1]

    @property
    def source(self) -> str:
        """MESSAGESOURCE ∈ C ∪ S."""
        overrides = self._overrides
        if overrides and "source" in overrides:
            return overrides["source"]
        return self.switch if self.direction is Direction.TO_CONTROLLER else self.controller

    @property
    def destination(self) -> str:
        """MESSAGEDESTINATION ∈ C ∪ S."""
        overrides = self._overrides
        if overrides and "destination" in overrides:
            return overrides["destination"]
        return self.natural_destination

    @property
    def natural_destination(self) -> str:
        """The destination implied by connection+direction, ignoring any
        MODIFYMESSAGEMETADATA override (used by the proxy's router)."""
        return self.controller if self.direction is Direction.TO_CONTROLLER else self.switch

    # ------------------------------------------------------------------ #
    # Payload
    # ------------------------------------------------------------------ #

    @property
    def parsed(self) -> Optional[OpenFlowMessage]:
        """The decoded OpenFlow message, or None if the bytes are garbage."""
        if self._parsed is None and not self._parse_failed:
            try:
                self._parsed = parse_message(self.raw)
            except OpenFlowDecodeError:
                self._parse_failed = True
        return self._parsed

    @property
    def message_type_name(self) -> Optional[str]:
        """TYPE: the message type if the bytes decode, else None.  The
        :data:`BODY_CHECKED_TYPES` need no decode (:func:`valid_type_name`);
        any other type is decoded once and the decode kept."""
        name = self._type_name
        if name is _UNSET:
            if self._parsed is None and self.coarse_type_name in BODY_CHECKED_TYPES:
                name = valid_type_name(self.raw)
            else:
                message = self.parsed
                name = None if message is None else message.message_type.name
            self._type_name = name
        return name

    @property
    def coarse_type_name(self) -> Optional[str]:
        """The message type from a header-only peek — no body decode.

        Used by the executor's rule index to dispatch without parsing.  An
        over-approximation of :attr:`message_type_name`: whenever the full
        decode succeeds, both agree; when it would fail, the peek may still
        name a type (the conditional then sees TYPE = None and cannot
        match, so dispatching on the peek stays conservative).
        """
        name = self._coarse_type
        if name is _UNSET:
            if self._parsed is not None:
                name = self._parsed.message_type.name
            else:
                name = peek_message_type_name(self.raw)
            self._coarse_type = name
        return name

    def set_raw(self, raw: bytes) -> None:
        """Replace the wire bytes (FUZZMESSAGE), dropping decode caches."""
        self.raw = bytes(raw)
        self._parsed = None
        self._parse_failed = False
        self._coarse_type = _UNSET
        self._type_name = _UNSET

    def replace_payload(self, message: OpenFlowMessage) -> None:
        """Swap in a modified payload (MODIFYMESSAGE support); nothing
        changes when ``message`` does not pack."""
        raw = message.pack()
        self._parsed = message
        self._parse_failed = False
        self._coarse_type = _UNSET
        self._type_name = _UNSET
        self.payload_replaced = True
        self.raw = raw

    def copy(self) -> "InterposedMessage":
        """An independent replica (DUPLICATEMESSAGE support) with a new id."""
        replica = InterposedMessage(
            self.connection, self.direction, self.timestamp, self.raw,
            ids=self.ids,
        )
        if self._overrides:
            replica._overrides = dict(self._overrides)
        return replica

    # ------------------------------------------------------------------ #
    # Property access
    # ------------------------------------------------------------------ #

    def get_property(self, prop: MessageProperty) -> Any:
        return PROPERTY_GETTERS[prop](self)

    def get_type_option(self, path: str) -> Any:
        """MESSAGETYPEOPTIONS accessor, e.g. ``"match.nw_src"``.

        Returns ``None`` when the option does not exist for this message's
        type — conditionals over absent options simply do not match, which
        is exactly the behaviour behind the Table II Ryu anomaly.
        """
        message = self.parsed
        if message is None:
            return None
        head, _, rest = path.partition(".")
        head = head.lower()
        value = self._type_option_root(message, head, rest)
        return _normalize(value)

    @staticmethod
    def _type_option_root(message: OpenFlowMessage, head: str, rest: str) -> Any:
        if isinstance(message, FlowMod):
            if head == "match" and rest:
                if rest not in MATCH_FIELD_NAMES:
                    return None
                return getattr(message.match, rest)
            simple = {
                "command": message.command.name,
                "idle_timeout": message.idle_timeout,
                "hard_timeout": message.hard_timeout,
                "priority": message.priority,
                "buffer_id": message.buffer_id,
                "cookie": message.cookie,
                "out_port": message.out_port,
                "n_actions": len(message.actions),
                "output_ports": tuple(
                    a.port for a in message.actions if isinstance(a, OutputAction)
                ),
            }
            return simple.get(head)
        if isinstance(message, PacketIn):
            if head == "packet" and rest:
                if rest not in MATCH_FIELD_NAMES:
                    return None
                try:
                    match = Match.from_packet(message.data, message.in_port)
                except FrameDecodeError:  # shorter than an Ethernet header
                    return None
                return getattr(match, rest)
            simple = {
                "in_port": message.in_port,
                "reason": message.reason.name,
                "buffer_id": message.buffer_id,
                "total_len": message.total_len,
            }
            return simple.get(head)
        if isinstance(message, PacketOut):
            simple = {
                "in_port": message.in_port,
                "buffer_id": message.buffer_id,
                "n_actions": len(message.actions),
                "output_ports": tuple(
                    a.port for a in message.actions if isinstance(a, OutputAction)
                ),
            }
            return simple.get(head)
        if isinstance(message, FlowRemoved):
            if head == "match" and rest:
                if rest not in MATCH_FIELD_NAMES:
                    return None
                return getattr(message.match, rest)
            simple = {
                "reason": message.reason.name,
                "priority": message.priority,
                "packet_count": message.packet_count,
                "byte_count": message.byte_count,
            }
            return simple.get(head)
        if isinstance(message, FeaturesReply):
            simple = {
                "datapath_id": message.datapath_id,
                "n_ports": len(message.ports),
                "n_buffers": message.n_buffers,
            }
            return simple.get(head)
        if isinstance(message, (EchoRequest, EchoReply)):
            return {"payload_len": len(message.payload)}.get(head)
        if isinstance(message, ErrorMessage):
            return {"error_type": message.error_type, "code": message.code}.get(head)
        if isinstance(message, PortStatus):
            return {
                "reason": message.reason.name,
                "port_no": message.port.port_no,
            }.get(head)
        if isinstance(message, (StatsRequest, StatsReply)):
            return {"stats_type": message.stats_type.name}.get(head)
        return None

    def metadata_summary(self) -> dict:
        """The record produced by READMESSAGEMETADATA."""
        return {
            "id": self.msg_id,
            "source": self.source,
            "destination": self.destination,
            "timestamp": self.timestamp,
            "length": len(self.raw),
        }

    def payload_summary(self) -> dict:
        """The record produced by READMESSAGE."""
        summary = dict(self.metadata_summary())
        summary["type"] = self.message_type_name
        return summary

    def __repr__(self) -> str:
        arrow = "->" if self.direction is Direction.TO_SWITCH else "<-"
        return (
            f"<InterposedMessage #{self.msg_id} {self.controller}{arrow}{self.switch} "
            f"{self.message_type_name or 'undecodable'} len={len(self.raw)}>"
        )


#: The Section V-A properties as getters on an :class:`InterposedMessage`.
PROPERTY_GETTERS = {
    MessageProperty.SOURCE: lambda m: m.source,
    MessageProperty.DESTINATION: lambda m: m.destination,
    MessageProperty.TIMESTAMP: lambda m: m.timestamp,
    MessageProperty.LENGTH: lambda m: len(m.raw),
    MessageProperty.ID: lambda m: m.msg_id,
    MessageProperty.TYPE: lambda m: m.message_type_name,
}


def _normalize(value: Any) -> Any:
    """Canonicalize values for DSL comparison (MAC/IP objects -> strings)."""
    from repro.netlib.addresses import Ipv4Address, MacAddress

    if isinstance(value, (MacAddress, Ipv4Address)):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.name
    return value
