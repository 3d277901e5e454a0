"""Controller core: session management, handshake, dispatch, liveness.

A :class:`Controller` is a :class:`~repro.dataplane.control.ControlEndpoint`
that accepts switch connections (possibly through the ATTAIN proxy), runs
the OpenFlow 1.0 handshake, and dispatches asynchronous messages to an
application pipeline.  Message handling is serialized through a single
service queue with a per-controller service time — the model of the
controllers' single-threaded packet-in processing that shapes throughput
under the flow-modification-suppression attack.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import Any, Dict, List, Optional

from repro.controllers.apps import DL_TYPE
from repro.dataplane.control import ControlChannel
from repro.netlib.ethernet import EtherType, FrameDecodeError
from repro.netlib.fastframe import base_key
from repro.netlib.packet import decode_ethernet
from repro.openflow.connection import MessageFramer
from repro.openflow.messages import (
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowRemoved,
    Hello,
    OpenFlowDecodeError,
    OpenFlowMessage,
    PacketIn,
    PortStatus,
    SetConfig,
    StatsReply,
)
from repro.sim.engine import SimulationEngine


class SessionState(enum.Enum):
    AWAIT_HELLO = "await-hello"
    AWAIT_FEATURES = "await-features"
    READY = "ready"
    CLOSED = "closed"


class SwitchSession:
    """Controller-side state for one switch connection."""

    def __init__(self, controller: "Controller", channel: ControlChannel) -> None:
        self.controller = controller
        self.channel = channel
        self.framer = MessageFramer()
        self.state = SessionState.AWAIT_HELLO
        self.datapath_id: Optional[int] = None
        self.ports: List[int] = []
        self.last_received = controller.engine.now
        self.echo_outstanding = False
        #: Per-session scratch space for applications (MAC tables etc.).
        self.app_state: Dict[str, Any] = {}

    def send(self, data: bytes) -> None:
        """Send one message's wire bytes to the switch."""
        if self.state is SessionState.CLOSED or not self.channel.open:
            return
        self.channel.send(data)

    def close(self) -> None:
        """Tear the session down (controller-initiated disconnect)."""
        self.controller._drop_session(self)

    def __repr__(self) -> str:
        dpid = f"0x{self.datapath_id:x}" if self.datapath_id is not None else "?"
        return f"<SwitchSession dpid={dpid} {self.state.value}>"


class Controller:
    """An OpenFlow 1.0 controller with an application pipeline."""

    #: Per-message service time; subclasses model controller runtimes.
    SERVICE_TIME = 0.0005
    ECHO_INTERVAL = 5.0
    ECHO_TIMEOUT = 15.0
    LIVENESS_TICK = 1.0
    MISS_SEND_LEN = 128

    def __init__(
        self,
        engine: SimulationEngine,
        name: str = "controller",
        apps: Optional[List["ControllerApp"]] = None,  # noqa: F821
    ) -> None:
        if not self.SERVICE_TIME >= 0:  # also rejects NaN
            raise ValueError(f"{type(self).__name__}.SERVICE_TIME must be >= 0: "
                             f"{self.SERVICE_TIME!r}")
        self.engine = engine
        self.name = name
        self.apps = list(apps or [])
        self.sessions: Dict[ControlChannel, SwitchSession] = {}
        self._busy_until = 0.0
        self._service_time = float(self.SERVICE_TIME)
        self._started_liveness = False
        self.stats: Dict[str, int] = {
            "connections_accepted": 0,
            "connections_lost": 0,
            "messages_received": 0,
            "packet_ins_handled": 0,
            "echo_requests_sent": 0,
            "decode_errors": 0,
        }

    def add_app(self, app: "ControllerApp") -> None:  # noqa: F821
        self.apps.append(app)

    # ------------------------------------------------------------------ #
    # ControlEndpoint interface
    # ------------------------------------------------------------------ #

    def channel_opened(self, channel: ControlChannel) -> None:
        session = SwitchSession(self, channel)
        self.sessions[channel] = session
        self.stats["connections_accepted"] += 1
        session.send(Hello(xid=self.engine.ctx.next_xid()).pack())
        if not self._started_liveness:
            self._started_liveness = True
            self.engine.schedule(self.LIVENESS_TICK, self._liveness_tick)

    def bytes_received(self, channel: ControlChannel, data: bytes) -> None:
        session = self.sessions.get(channel)
        if session is None or session.state is SessionState.CLOSED:
            return
        session.last_received = self.engine.now
        session.echo_outstanding = False
        try:
            messages = session.framer.feed(data)
        except OpenFlowDecodeError:
            self.stats["decode_errors"] += 1
            self._drop_session(session)
            return
        for message in messages:
            self._enqueue(session, message)

    def channel_closed(self, channel: ControlChannel) -> None:
        session = self.sessions.get(channel)
        if session is not None:
            self._drop_session(session)

    def _drop_session(self, session: SwitchSession) -> None:
        """Common teardown for peer-closed, garbage-stream, liveness, and
        controller-initiated disconnects; notifies apps exactly once."""
        was_ready = session.state is SessionState.READY
        if session.state is not SessionState.CLOSED:
            session.state = SessionState.CLOSED
            session.channel.close()
        if self.sessions.pop(session.channel, None) is None:
            return  # already finalized
        self.stats["connections_lost"] += 1
        if was_ready:
            for app in self.apps:
                app.switch_down(self, session)

    # ------------------------------------------------------------------ #
    # Serialized message processing
    # ------------------------------------------------------------------ #

    def _enqueue(self, session: SwitchSession, message: OpenFlowMessage) -> None:
        """Model single-threaded processing with a fixed service time.

        The event goes onto the engine heap directly, keyed as
        ``schedule_at`` keys it; the service time was checked at init.
        """
        engine = self.engine
        now = engine.now
        busy = self._busy_until
        self._busy_until = busy = (busy if busy > now else now) + self._service_time
        heappush(engine._queue, (busy, 0, next(engine._seq), self._process,
                                 (session, message)))

    def _process(self, session: SwitchSession, message: OpenFlowMessage) -> None:
        if session.state is SessionState.CLOSED:
            return
        self.stats["messages_received"] += 1
        if isinstance(message, PacketIn):
            # The one message of the steady state, so it is tested first.
            if session.state is SessionState.READY:
                self.stats["packet_ins_handled"] += 1
                self._dispatch_packet_in(session, message)
            return
        if isinstance(message, Hello):
            if session.state is SessionState.AWAIT_HELLO:
                session.state = SessionState.AWAIT_FEATURES
                session.send(FeaturesRequest(xid=self.engine.ctx.next_xid()).pack())
            return
        if isinstance(message, FeaturesReply):
            if session.state is SessionState.AWAIT_FEATURES:
                session.state = SessionState.READY
                session.datapath_id = message.datapath_id
                session.ports = [port.port_no for port in message.ports]
                session.send(SetConfig(miss_send_len=self.MISS_SEND_LEN,
                                       xid=self.engine.ctx.next_xid()).pack())
                for app in self.apps:
                    app.switch_ready(self, session)
            return
        if isinstance(message, EchoRequest):
            session.send(EchoReply.for_request(message).pack())
            return
        if isinstance(message, EchoReply):
            return
        if isinstance(message, ErrorMessage):
            for app in self.apps:
                app.error_received(self, session, message)
            return
        if session.state is not SessionState.READY:
            return
        if isinstance(message, FlowRemoved):
            for app in self.apps:
                app.flow_removed(self, session, message)
            return
        if isinstance(message, PortStatus):
            for app in self.apps:
                app.port_status(self, session, message)
            return
        if isinstance(message, StatsReply):
            for app in self.apps:
                app.stats_reply(self, session, message)
            return

    def _dispatch_packet_in(self, session: SwitchSession, message: PacketIn) -> None:
        """Hand the apps the packet's flow key (``apps.FlowKey``)."""
        data = message.data
        try:
            key = (message.in_port,) + base_key(data)
            if key[DL_TYPE] == EtherType.LLDP:
                # LldpPacket still refuses an empty or non-ASCII chassis
                # id with a ValueError: such a probe is undecodable too.
                decode_ethernet(data)
        except (FrameDecodeError, ValueError):
            return  # a runt, or an LLDP body that does not decode
        for app in self.apps:
            handled = app.packet_in(self, session, message, key)
            if handled:
                break

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    def _liveness_tick(self) -> None:
        self.engine.schedule(self.LIVENESS_TICK, self._liveness_tick)
        now = self.engine.now
        for session in list(self.sessions.values()):
            if session.state is SessionState.CLOSED:
                continue
            silence = now - session.last_received
            if silence >= self.ECHO_TIMEOUT:
                # The connection-interruption attack black-holes the
                # channel; the controller gives the switch up here.
                self._drop_session(session)
            elif silence >= self.ECHO_INTERVAL and not session.echo_outstanding:
                session.echo_outstanding = True
                self.stats["echo_requests_sent"] += 1
                session.send(EchoRequest(payload=b"ctl-probe",
                                         xid=self.engine.ctx.next_xid()).pack())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def ready_sessions(self) -> List[SwitchSession]:
        return [s for s in self.sessions.values() if s.state is SessionState.READY]

    def session_for_dpid(self, datapath_id: int) -> Optional[SwitchSession]:
        for session in self.sessions.values():
            if session.datapath_id == datapath_id:
                return session
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} sessions={len(self.sessions)}>"
