"""OpenFlow 1.0 switch model (Open vSwitch v1.9 substitute).

Implements the switch behaviours the paper's attacks exploit:

* flow-table miss -> buffer the packet and send ``PACKET_IN`` (the message
  stream the flow-modification-suppression attack starves);
* echo-based connection liveness (the connection-interruption attack
  black-holes the control channel until this declares the controller dead);
* **fail-safe** (standalone: revert to an autonomous MAC-learning switch)
  vs. **fail-secure** (no new flows) modes, the axis of Table II;
* reconnection attempts with a handshake timeout, so a severed control
  connection stays severed while the injector keeps dropping bytes.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.netlib import fastframe
from repro.netlib.fastframe import FastFrame
from repro.netlib.ethernet import EthernetFrame, FrameDecodeError
from repro.netlib.ipv4 import Ipv4Packet
from repro.openflow.actions import (
    Action,
    OutputAction,
    SetDlDstAction,
    SetDlSrcAction,
    SetNwDstAction,
    SetNwSrcAction,
)
from repro.openflow.connection import MessageFramer
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    Capabilities,
    FlowModCommand,
    PacketInReason,
    Port,
    StatsType,
)
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    GetConfigReply,
    GetConfigRequest,
    Hello,
    OpenFlowDecodeError,
    OpenFlowMessage,
    PacketOut,
    PhyPort,
    PortStatus,
    SetConfig,
    StatsReply,
    StatsRequest,
    pack_packet_in,
)
from repro.dataplane.control import ControlChannel
from repro.dataplane.flowtable import FlowTable, compiled_port
from repro.sim.engine import SimulationEngine


#: PACKET_IN reasons as ints: a pack takes an int faster than an enum.
_NO_MATCH, _ACTION = int(PacketInReason.NO_MATCH), int(PacketInReason.ACTION)


class FailMode(enum.Enum):
    """What the switch does when it loses its controllers (Table II axis)."""

    SECURE = "secure"       # no new flows: misses are dropped
    STANDALONE = "standalone"  # fail-safe: autonomous learning switch


class ConnectionState(enum.Enum):
    DISCONNECTED = "disconnected"
    CONNECTING = "connecting"   # channel open, HELLO exchange pending
    CONNECTED = "connected"


ConnectFactory = Callable[["OpenFlowSwitch"], Optional[ControlChannel]]


class _ControlLink:
    """Switch-side state for one controller connection.

    The system model's N_C is many-to-many: "a switch can communicate
    with multiple controllers for redundancy or fault tolerance" (Section
    IV-A5).  Each link carries its own handshake, framer, and liveness
    clock; the switch aggregates them (fail mode only engages when *every*
    link is down).
    """

    __slots__ = ("name", "factory", "channel", "state", "framer",
                 "last_received", "echo_outstanding")

    def __init__(self, name: str, factory: ConnectFactory) -> None:
        self.name = name
        self.factory = factory
        self.channel: Optional[ControlChannel] = None
        self.state = ConnectionState.DISCONNECTED
        self.framer = MessageFramer()
        self.last_received = 0.0
        self.echo_outstanding = False

    @property
    def connected(self) -> bool:
        return self.state is ConnectionState.CONNECTED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_ControlLink {self.name} {self.state.value}>"


class OpenFlowSwitch:
    """A simulated OpenFlow 1.0 switch."""

    ECHO_INTERVAL = 5.0       # OVS inactivity-probe default
    ECHO_TIMEOUT = 15.0       # silence before the controller is declared dead
    HANDSHAKE_TIMEOUT = 5.0
    RECONNECT_INTERVAL = 5.0
    LIVENESS_TICK = 1.0
    EXPIRY_TICK = 1.0
    DEFAULT_MISS_SEND_LEN = 128
    N_BUFFERS = 256

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        datapath_id: int,
        fail_mode: FailMode = FailMode.SECURE,
        table_capacity: Optional[int] = None,
        table_eviction: str = "refuse",
    ) -> None:
        self.engine = engine
        self.name = name
        self.datapath_id = datapath_id
        self.fail_mode = fail_mode

        self.flow_table = FlowTable(
            max_entries=table_capacity if table_capacity else 65536,
            eviction=table_eviction,
        )
        # Every attached port's link transmit function, and the table
        # _transmit reads: the same function while the port's carrier is
        # up, None while it is down.
        self._ports: Dict[int, Callable[[bytes], None]] = {}
        self._tx: Dict[int, Optional[Callable[[bytes], None]]] = {}

        # Control connection state: one _ControlLink per controller target
        # (N_C is many-to-many; most deployments register exactly one).
        self._links: "OrderedDict[str, _ControlLink]" = OrderedDict()
        self._link_by_channel: Dict[ControlChannel, _ControlLink] = {}
        #: True when at least one controller connection is established;
        #: rewritten by _set_link_state, read on every table miss.
        self.connected = False
        self.miss_send_len = self.DEFAULT_MISS_SEND_LEN
        self._ever_connected = False
        self.standalone_active = False

        # Packet buffering for PACKET_IN
        self._buffers: "OrderedDict[int, tuple]" = OrderedDict()
        self._next_buffer_id = 1

        # Standalone / NORMAL-action MAC learning table, MACs as ints
        self._mac_table: Dict[int, int] = {}

        # Statistics the monitors scrape; a table hit writes none.  Frames
        # received: flow_table.lookups + rx_no_lookup (standalone, runts);
        # sent: each port's link direction's tx_frames + dropped_frames.
        self.stats: Dict[str, int] = {
            "rx_no_lookup": 0,
            "frames_interned": 0,
            "table_misses": 0,
            "packet_ins_sent": 0,
            "flow_mods_received": 0,
            "evictions_idle": 0,
            "evictions_hard": 0,
            "evictions_capacity": 0,
            "evictions_delete": 0,
            "dropped_no_controller": 0,
            "dropped_no_buffer_release": 0,
            "dropped_runts": 0,
            "echo_requests_sent": 0,
            "port_status_sent": 0,
            "connection_deaths": 0,
            "reconnect_attempts": 0,
        }
        self.tracer = None
        # Optional defense-plane tap (repro.defense.tap.SketchTap); shared
        # by every switch in a shard region, wired the same way as tracer.
        self.sketches = None
        self._started = False

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach_port(self, port_no: int, transmit: Callable[[bytes], None]) -> None:
        """Bind a data-plane port to a link transmit function."""
        if port_no in self._ports:
            raise ValueError(f"{self.name}: port {port_no} already attached")
        if not 1 <= port_no < Port.MAX:
            raise ValueError(f"{self.name}: invalid port number {port_no}")
        self._ports[port_no] = transmit
        self._tx[port_no] = transmit

    def set_connect_factory(self, factory: ConnectFactory) -> None:
        """Point the switch at a single controller (replaces all targets)."""
        self._links.clear()
        self._link_by_channel.clear()
        self.connected = False
        self.add_controller_target("default", factory)

    def add_controller_target(self, name: str, factory: ConnectFactory) -> None:
        """Register an additional controller connection (N_C redundancy)."""
        if name in self._links:
            raise ValueError(f"{self.name}: controller target {name!r} exists")
        self._links[name] = _ControlLink(name, factory)
        if self._started:
            self._dial(self._links[name])

    def start(self) -> None:
        """Begin periodic liveness/expiry ticks and dial the controllers."""
        if self._started:
            return
        self._started = True
        self.engine.schedule(self.EXPIRY_TICK, self._expiry_tick)
        self.engine.schedule(self.LIVENESS_TICK, self._liveness_tick)
        for link in self._links.values():
            if link.channel is None:
                self._dial(link)

    def port_numbers(self) -> List[int]:
        return sorted(self._ports)

    def port_link_status(self, port_no: int, up: bool) -> None:
        """Carrier change on a port: update state, notify the controller.

        Mirrors OVS reacting to loss of carrier with an OFPT_PORT_STATUS
        (reason MODIFY, state LINK_DOWN).
        """
        if port_no not in self._ports or (self._tx[port_no] is not None) == up:
            return
        self._tx[port_no] = self._ports[port_no] if up else None
        if self.connected:
            from repro.openflow.constants import PortReason, PortState

            port = PhyPort(
                port_no,
                (self.datapath_id << 8) | port_no,
                f"{self.name}-eth{port_no}",
                state=0 if up else int(PortState.LINK_DOWN),
            )
            self.stats["port_status_sent"] += 1
            self._send(PortStatus(PortReason.MODIFY, port,
                                  xid=self.engine.ctx.next_xid()).pack())

    def phy_ports(self) -> List[PhyPort]:
        return [
            PhyPort(port_no, (self.datapath_id << 8) | port_no, f"{self.name}-eth{port_no}")
            for port_no in self.port_numbers()
        ]

    # ------------------------------------------------------------------ #
    # Control connection lifecycle
    # ------------------------------------------------------------------ #

    def _dial(self, link: _ControlLink) -> None:
        self.stats["reconnect_attempts"] += 1
        channel = link.factory(self)
        if channel is None:
            self.engine.schedule(self.RECONNECT_INTERVAL, self._maybe_redial, link)

    def _maybe_redial(self, link: _ControlLink) -> None:
        if (link.state is ConnectionState.DISCONNECTED and self._started
                and link.name in self._links):
            self._dial(link)

    def _link_for_dial(self) -> Optional[_ControlLink]:
        """The link currently awaiting its channel (factory callback path)."""
        for link in self._links.values():
            if link.channel is None and link.state is ConnectionState.DISCONNECTED:
                return link
        return None

    def channel_opened(self, channel: ControlChannel) -> None:
        """ControlEndpoint hook: one of our dialled connections is up."""
        link = self._link_for_dial()
        if link is None:
            channel.close()
            return
        link.channel = channel
        self._set_link_state(link, ConnectionState.CONNECTING)
        link.framer.reset()
        link.last_received = self.engine.now
        link.echo_outstanding = False
        self._link_by_channel[channel] = link
        self._send_on(link, Hello(xid=self.engine.ctx.next_xid()).pack())
        self.engine.schedule(self.HANDSHAKE_TIMEOUT, self._handshake_check,
                             link, channel)

    def _handshake_check(self, link: _ControlLink, channel: ControlChannel) -> None:
        if link.channel is channel and link.state is ConnectionState.CONNECTING:
            channel.close()
            self._connection_lost(link)

    def bytes_received(self, channel: ControlChannel, data: bytes) -> None:
        """ControlEndpoint hook: stream bytes from a controller side."""
        link = self._link_by_channel.get(channel)
        if link is None or channel is not link.channel:
            return
        link.last_received = self.engine.now
        link.echo_outstanding = False
        try:
            messages = link.framer.feed(data)
        except OpenFlowDecodeError:
            # Garbage on the control channel (e.g. a fuzzed frame that no
            # longer parses): drop the connection like a real stack would.
            channel.close()
            self._connection_lost(link)
            return
        for message in messages:
            self._handle_control_message(link, message)

    def channel_closed(self, channel: ControlChannel) -> None:
        """ControlEndpoint hook: a controller side went away."""
        link = self._link_by_channel.get(channel)
        if link is not None and channel is link.channel:
            self._connection_lost(link)

    def _connection_lost(self, link: _ControlLink) -> None:
        if link.channel is not None:
            self._link_by_channel.pop(link.channel, None)
        link.channel = None
        link.framer.reset()
        if link.state is not ConnectionState.DISCONNECTED:
            self._set_link_state(link, ConnectionState.DISCONNECTED)
            self.stats["connection_deaths"] += 1
            if not self.connected:
                # Redundant controllers keep the switch out of fail mode;
                # it engages only when the *last* connection dies.
                self._enter_fail_mode()
        if self._started:
            self.engine.schedule(self.RECONNECT_INTERVAL, self._maybe_redial, link)

    def _enter_fail_mode(self) -> None:
        if self.fail_mode is FailMode.STANDALONE:
            # Fail-safe: the switch takes over forwarding autonomously,
            # "in which it operated independently of the controller".
            self.standalone_active = True
        # Fail-secure: nothing to do — existing entries keep forwarding
        # until they expire; new flows are dropped.

    def _set_link_state(self, link: _ControlLink, state: ConnectionState) -> None:
        link.state = state
        self.connected = any(other.connected for other in self._links.values())

    @property
    def channel(self) -> Optional[ControlChannel]:
        """The primary (first live) control channel, for introspection."""
        for link in self._links.values():
            if link.channel is not None:
                return link.channel
        return None

    @property
    def state(self) -> ConnectionState:
        """Aggregate connection state across all controller links."""
        states = [link.state for link in self._links.values()]
        if ConnectionState.CONNECTED in states:
            return ConnectionState.CONNECTED
        if ConnectionState.CONNECTING in states:
            return ConnectionState.CONNECTING
        return ConnectionState.DISCONNECTED

    def connected_controller_names(self) -> List[str]:
        return [name for name, link in self._links.items() if link.connected]

    def _liveness_tick(self) -> None:
        if self._started:
            self.engine.schedule(self.LIVENESS_TICK, self._liveness_tick)
        for link in list(self._links.values()):
            if link.state is not ConnectionState.CONNECTED or link.channel is None:
                continue
            silence = self.engine.now - link.last_received
            if silence >= self.ECHO_TIMEOUT:
                # The connection-interruption attack lands here: the proxy
                # is black-holing both directions, so silence accumulates.
                channel = link.channel
                channel.close()
                self._connection_lost(link)
            elif silence >= self.ECHO_INTERVAL and not link.echo_outstanding:
                link.echo_outstanding = True
                self.stats["echo_requests_sent"] += 1
                self._send_on(link, EchoRequest(
                    payload=b"ovs-probe", xid=self.engine.ctx.next_xid()).pack())

    def _note_eviction(self, entry, reason: str) -> None:
        """Single exit point for every flow-removal path.

        Counts the eviction by reason (``idle``/``hard``/``capacity``/
        ``delete``) and emits a ``flow_evict`` trace record carrying the
        reason plus the table occupancy after the removal, so overflow
        campaigns can reconstruct occupancy curves from the trace alone.
        """
        key = "evictions_" + reason
        if key in self.stats:
            self.stats[key] += 1
        if self.tracer is not None:
            self.tracer.emit(
                "flow_evict",
                switch=self.name,
                reason=reason,
                priority=entry.priority,
                match=str(entry.match),
                size=len(self.flow_table),
            )

    def _expiry_tick(self) -> None:
        if self._started:
            self.engine.schedule(self.EXPIRY_TICK, self._expiry_tick)
        now = self.engine.now
        for entry, reason in self.flow_table.expire(now):
            self._note_eviction(entry, reason)
            if entry.sends_flow_removed and self.connected:
                duration = max(0.0, now - entry.install_time)
                self._send(
                    FlowRemoved(
                        entry.match,
                        entry.cookie,
                        entry.priority,
                        0 if reason == "idle" else 1,
                        duration_sec=int(duration),
                        idle_timeout=entry.idle_timeout,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        xid=self.engine.ctx.next_xid(),
                    ).pack()
                )

    def _send(self, data: bytes) -> None:
        """Broadcast a message's wire bytes to every connected controller."""
        sent = False
        for link in self._links.values():
            if link.connected and link.channel is not None and link.channel.open:
                link.channel.send(data)
                sent = True
        if not sent:
            # During the handshake (pre-CONNECTED) fall back to the first
            # open channel so HELLO-phase replies still flow.
            for link in self._links.values():
                if link.channel is not None and link.channel.open:
                    link.channel.send(data)
                    return

    def _send_on(self, link: _ControlLink, data: bytes) -> None:
        """Send a reply's wire bytes on the connection the request came from."""
        if link.channel is not None and link.channel.open:
            link.channel.send(data)

    # ------------------------------------------------------------------ #
    # Control message handling
    # ------------------------------------------------------------------ #

    def _handle_control_message(self, link: _ControlLink,
                                message: OpenFlowMessage) -> None:
        # The steady state's two messages are tested first.
        if isinstance(message, PacketOut):
            self._handle_packet_out(message)
            return
        if isinstance(message, FlowMod):
            self._handle_flow_mod(link, message)
            return
        if isinstance(message, Hello):
            if link.state is ConnectionState.CONNECTING:
                self._set_link_state(link, ConnectionState.CONNECTED)
                self.standalone_active = False
                self._ever_connected = True
            return
        if isinstance(message, FeaturesRequest):
            self._send_on(
                link,
                FeaturesReply(
                    self.datapath_id,
                    n_buffers=self.N_BUFFERS,
                    n_tables=1,
                    capabilities=int(Capabilities.FLOW_STATS | Capabilities.ARP_MATCH_IP),
                    ports=self.phy_ports(),
                    xid=message.xid,
                ).pack(),
            )
            return
        if isinstance(message, EchoRequest):
            self._send_on(link, EchoReply.for_request(message).pack())
            return
        if isinstance(message, EchoReply):
            return
        if isinstance(message, SetConfig):
            self.miss_send_len = message.miss_send_len
            return
        if isinstance(message, GetConfigRequest):
            self._send_on(
                link, GetConfigReply(miss_send_len=self.miss_send_len, xid=message.xid).pack()
            )
            return
        if isinstance(message, BarrierRequest):
            self._send_on(link, BarrierReply(xid=message.xid).pack())
            return
        if isinstance(message, StatsRequest):
            self._handle_stats_request(link, message)
            return
        # Everything else (VENDOR, unexpected replies) is ignored, matching
        # OVS's tolerance for unknown-but-well-formed messages.

    def preinstall_flow(
        self,
        match,
        actions: List[Action],
        priority: int = 0x8000,
    ) -> None:
        """Install a permanent flow entry without a controller round trip.

        The controllerless fabric workloads (and any proactively routed
        deployment) seed switch tables directly — semantically a FLOW_MOD
        applied before the first packet, minus the control connection.
        """
        flow_mod = FlowMod(match, priority=priority, actions=list(actions),
                           xid=self.engine.ctx.next_xid())
        removed, full = self.flow_table.apply_flow_mod(flow_mod, self.engine.now)
        if full:
            raise RuntimeError(f"flow table full on switch {self.name!r}")
        for entry in removed:
            self._note_eviction(entry, "capacity")

    def _handle_flow_mod(self, link: _ControlLink, flow_mod: FlowMod) -> None:
        self.stats["flow_mods_received"] += 1
        removed, full = self.flow_table.apply_flow_mod(flow_mod, self.engine.now)
        if full:
            self._send_on(link, ErrorMessage(3, 0, flow_mod.pack()[:64],
                                             xid=flow_mod.xid).pack())
            return
        deleting = flow_mod.command in (FlowModCommand.DELETE,
                                        FlowModCommand.DELETE_STRICT)
        if self.tracer is not None and not deleting:
            self.tracer.emit(
                "flow_install",
                switch=self.name,
                command=flow_mod.command.name,
                priority=flow_mod.priority,
                match=str(flow_mod.match),
                xid=flow_mod.xid,
                size=len(self.flow_table),
            )
        for entry in removed:
            # ADD against a full lru/fifo table returns the capacity
            # victims; DELETE returns the deleted entries.
            self._note_eviction(entry, "delete" if deleting else "capacity")
            if entry.sends_flow_removed:
                self._send(
                    FlowRemoved(entry.match, entry.cookie, entry.priority, 2,
                                xid=self.engine.ctx.next_xid()).pack()
                )
        if flow_mod.buffer_id != OFP_NO_BUFFER:
            # OF 1.0: a FLOW_MOD naming a buffer releases the buffered
            # packet through the new actions.  When the suppression attack
            # drops this message, the buffered packet is never released —
            # the denial-of-service case of Fig. 11.
            self._release_buffer(flow_mod.buffer_id, flow_mod.actions)

    def _handle_packet_out(self, packet_out: PacketOut) -> None:
        if packet_out.buffer_id != OFP_NO_BUFFER:
            self._release_buffer(packet_out.buffer_id, packet_out.actions)
        elif packet_out.data:
            self._execute_actions(packet_out.actions, packet_out.data, packet_out.in_port)

    def _handle_stats_request(self, link: _ControlLink,
                              request: StatsRequest) -> None:
        from repro.openflow.stats import (
            FlowStatsEntry,
            aggregate_stats_reply,
            flow_stats_reply,
            parse_flow_stats_request,
        )

        if request.stats_type == StatsType.DESC:
            body = (
                b"repro".ljust(256, b"\x00")          # mfr_desc
                + b"OpenFlowSwitch".ljust(256, b"\x00")  # hw_desc
                + b"repro-1.0".ljust(256, b"\x00")    # sw_desc
                + self.name.encode().ljust(32, b"\x00")  # serial_num
                + b"simulated".ljust(256, b"\x00")    # dp_desc
            )
            self._send_on(link, StatsReply(StatsType.DESC, body, xid=request.xid).pack())
            return
        if request.stats_type in (StatsType.FLOW, StatsType.AGGREGATE):
            try:
                match, _table_id, out_port = parse_flow_stats_request(
                    StatsRequest(StatsType.FLOW, request.body, xid=request.xid)
                )
            except Exception:
                self._send_on(link, ErrorMessage(1, 2, request.pack()[:64],
                                                 xid=request.xid).pack())
                return
            now = self.engine.now
            selected = [
                entry
                for entry in self.flow_table.entries
                if match.subsumes(entry.match)
                and (out_port == Port.NONE or entry.outputs_to(out_port))
            ]
            if request.stats_type == StatsType.FLOW:
                records = [
                    FlowStatsEntry(
                        entry.match,
                        priority=entry.priority,
                        duration_sec=int(max(0.0, now - entry.install_time)),
                        idle_timeout=entry.idle_timeout,
                        hard_timeout=entry.hard_timeout,
                        cookie=entry.cookie,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        actions=entry.actions,
                    )
                    for entry in selected
                ]
                self._send_on(link, flow_stats_reply(records, xid=request.xid).pack())
            else:
                self._send_on(
                    link,
                    aggregate_stats_reply(
                        sum(e.packet_count for e in selected),
                        sum(e.byte_count for e in selected),
                        len(selected),
                        xid=request.xid,
                    ).pack()
                )
            return
        self._send_on(link, StatsReply(request.stats_type, b"", xid=request.xid).pack())

    # ------------------------------------------------------------------ #
    # Packet buffering
    # ------------------------------------------------------------------ #

    def _buffer_packet(self, data: bytes, in_port: int) -> int:
        buffer_id = self._next_buffer_id
        self._next_buffer_id = self._next_buffer_id % 0x7FFFFFFF + 1
        if len(self._buffers) >= self.N_BUFFERS:
            self._buffers.popitem(last=False)
        self._buffers[buffer_id] = (data, in_port)
        return buffer_id

    def _release_buffer(self, buffer_id: int, actions: List[Action]) -> None:
        """Send a buffered packet through ``actions``; a lone physical
        OUTPUT sends it as a table hit does."""
        entry = self._buffers.pop(buffer_id, None)
        if entry is None:
            self.stats["dropped_no_buffer_release"] += 1
            return
        data, in_port = entry
        out = compiled_port(actions)
        if out is None:
            self._execute_actions(actions, data, in_port)
        elif out != in_port:
            self._transmit(out, data)

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #

    def frame_received(self, port_no: int, data: bytes) -> None:
        """Entry point for frames arriving from a link on ``port_no``.

        A link's arrival event calls this directly.  A frame that is
        already a FastFrame skips the intern pool: every hop after the
        first, and every frame a host's pre-keyed sender built.  A table
        hit writes only the entry's OpenFlow counters.
        """
        if type(data) is not FastFrame:
            data, pooled = fastframe.intern(data, self.engine.ctx.frames)
            if pooled:
                self.stats["frames_interned"] += 1
        if self.standalone_active and not self.connected:
            self.stats["rx_no_lookup"] += 1
            self._standalone_forward(port_no, data)
            return
        try:
            key = fastframe.flow_key(data, port_no)
        except FrameDecodeError:  # shorter than an Ethernet header
            self.stats["rx_no_lookup"] += 1
            self.stats["dropped_runts"] += 1
            return
        if self.sketches is not None:
            self.sketches.on_frame(self.name, port_no, key, self.engine.now)
        entry = self.flow_table.lookup(key)
        if entry is not None:
            entry.last_used = self.engine.now
            entry.packet_count += 1
            entry.byte_count += len(data)
            out = entry.out
            if out is None:
                self._execute_actions(entry.actions, data, port_no)
            elif out != port_no:
                self._transmit(out, data)
            return
        self.stats["table_misses"] += 1
        self._table_miss(port_no, data)

    def _table_miss(self, in_port: int, data: bytes) -> None:
        if not self.connected:
            # Fail-secure: no controller, no new flows.  (Standalone mode
            # was already handled in frame_received.)
            self.stats["dropped_no_controller"] += 1
            return
        buffer_id = self._buffer_packet(data, in_port)
        packet_in_data = data[: self.miss_send_len] if self.miss_send_len else b""
        self.stats["packet_ins_sent"] += 1
        if self.sketches is not None:
            self.sketches.on_packet_in(self.engine.now)
        self._send(pack_packet_in(self.engine.ctx.next_xid(), buffer_id, len(data), in_port,
                                  _NO_MATCH, packet_in_data))

    def _standalone_forward(self, in_port: int, data: bytes) -> None:
        """Fail-safe behaviour: autonomous MAC-learning forwarding."""
        try:
            key = fastframe.base_key(data)
        except FrameDecodeError:
            self.stats["dropped_runts"] += 1
            return
        src, dst = key[0], key[1]
        self._mac_table[src] = in_port
        out_port = self._mac_table.get(dst)
        # The group bit covers broadcast and multicast.
        if dst >> 40 & 1 or out_port is None:
            self._flood(in_port, data)
        elif out_port != in_port:
            self._transmit(out_port, data)

    def _flood(self, in_port: int, data: bytes) -> None:
        for port_no in self.port_numbers():
            if port_no != in_port:
                self._transmit(port_no, data)

    def _transmit(self, port_no: int, data: bytes) -> None:
        transmit = self._tx.get(port_no)
        if transmit is not None:
            transmit(data)

    def _execute_actions(self, actions: List[Action], data: bytes, in_port: int) -> None:
        """Apply an OF 1.0 action list to a packet (rewrites then outputs)."""
        current = data
        for action in actions:
            if isinstance(action, OutputAction):
                self._execute_output(action.port, current, in_port)
            elif isinstance(action, (SetDlSrcAction, SetDlDstAction)):
                current = self._rewrite_dl(current, action)
            elif isinstance(action, (SetNwSrcAction, SetNwDstAction)):
                current = self._rewrite_nw(current, action)
            # Other action types are accepted but not interpreted.

    def _execute_output(self, port: int, data: bytes, in_port: int) -> None:
        if port == Port.FLOOD or port == Port.ALL:
            self._flood(in_port, data)
        elif port == Port.IN_PORT:
            self._transmit(in_port, data)
        elif port == Port.CONTROLLER:
            if self.connected:
                self.stats["packet_ins_sent"] += 1
                if self.sketches is not None:
                    self.sketches.on_packet_in(self.engine.now)
                self._send(pack_packet_in(self.engine.ctx.next_xid(), OFP_NO_BUFFER, len(data),
                                          in_port, _ACTION, data))
        elif port == Port.TABLE:
            self.frame_received(in_port, data)
        elif port == Port.NORMAL:
            self._standalone_forward(in_port, data)
        elif port < Port.MAX:
            if port != in_port:
                self._transmit(port, data)

    @staticmethod
    def _rewrite_dl(data: bytes, action: Action) -> bytes:
        try:
            frame = EthernetFrame.unpack(data)
        except FrameDecodeError:
            return data
        if isinstance(action, SetDlSrcAction):
            frame.src = action.address
            field = "dl_src"
        elif isinstance(action, SetDlDstAction):
            frame.dst = action.address
            field = "dl_dst"
        else:
            return frame.pack()
        # The rewritten frame differs from `data` only in this one field,
        # so its flow key is the parent's key with that field replaced.
        return fastframe.derive_frame(frame.pack(), data, field, int(action.address))

    @staticmethod
    def _rewrite_nw(data: bytes, action: Action) -> bytes:
        try:
            frame = EthernetFrame.unpack(data)
            ip = Ipv4Packet.unpack(frame.payload)
        except FrameDecodeError:
            return data
        if isinstance(action, SetNwSrcAction):
            ip.src = action.address
            field = "nw_src"
        elif isinstance(action, SetNwDstAction):
            ip.dst = action.address
            field = "nw_dst"
        else:
            frame.payload = ip.pack()
            return frame.pack()
        frame.payload = ip.pack()
        return fastframe.derive_frame(frame.pack(), data, field, int(action.address))

    def __repr__(self) -> str:
        return (
            f"<OpenFlowSwitch {self.name} dpid=0x{self.datapath_id:x} "
            f"{self.state.value} flows={len(self.flow_table)}>"
        )
