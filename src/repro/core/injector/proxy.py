"""The control-plane connection proxy (Section VI-B2).

"The control plane connection proxy proxies all control plane connections
for interposing, and it operates as a server for switch connections and as
a client for controller connections."

Each switch is pointed at a :class:`ProxyPort` instead of its controller
(the only deployment change the paper requires).  When the switch dials in,
the port spins up a :class:`ConnectionProxy` which dials the real
controller and frames both byte streams into OpenFlow messages.  A message
no rule of the current state can fire on leaves as its frame; any other
runs through the attack executor, and the proxy sends its outgoing list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataplane.control import ControlChannel
from repro.openflow.connection import MessageFramer
from repro.openflow.messages import (
    OpenFlowDecodeError,
    peek_message_type_name,
    peek_xid,
)
from repro.core.lang.actions import OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage

ConnectionKey = Tuple[str, str]

_TO_CONTROLLER = Direction.TO_CONTROLLER
_TO_SWITCH = Direction.TO_SWITCH


class ConnectionProxy:
    """One interposed control-plane connection (controller, switch)."""

    def __init__(self, injector, connection: ConnectionKey) -> None:
        self.injector = injector
        self.connection = tuple(connection)
        self.switch_channel: Optional[ControlChannel] = None
        self.controller_channel: Optional[ControlChannel] = None
        # One framer per direction while that stream is interposed; None
        # forwards its chunks raw: no attacker on the connection, or a
        # stream that stopped framing.
        interposed = bool(injector.attack_model.gamma(connection))
        self._to_controller_framer = MessageFramer() if interposed else None
        self._to_switch_framer = MessageFramer() if interposed else None
        self.closed = False
        self.stats: Dict[str, int] = {
            "to_controller_messages": 0,
            "to_switch_messages": 0,
            "forwarded": 0,
            "decode_avoided": 0,
            "repack_avoided": 0,
        }

    # ------------------------------------------------------------------ #
    # ControlEndpoint interface (both sides land here)
    # ------------------------------------------------------------------ #

    def channel_opened(self, channel: ControlChannel) -> None:
        # Only the controller-side dial lands here (the switch side is
        # adopted by ProxyPort); mark it live.
        self.controller_channel = channel

    def bytes_received(self, channel: ControlChannel, data: bytes) -> None:
        if self.closed:
            return
        if channel is self.switch_channel:
            direction, peer = _TO_CONTROLLER, self.controller_channel
            framer = self._to_controller_framer
        elif channel is self.controller_channel:
            direction, peer = _TO_SWITCH, self.switch_channel
            framer = self._to_switch_framer
        else:
            return
        if framer is not None:
            try:
                # Frame on the header length field only — no body decode.
                # Each frame's header type decides its path; the full
                # parse happens lazily iff an evaluated conditional reads
                # the payload, and pass-through reuses these exact wire
                # bytes.
                frames = framer.feed_frames(data)
            except OpenFlowDecodeError:
                # Give up interposing a corrupt stream: from this chunk on
                # its bytes pass through, so the endpoints see the same
                # garbage a real TCP proxy would, and no framer keeps them.
                if direction is _TO_CONTROLLER:
                    self._to_controller_framer = None
                else:
                    self._to_switch_framer = None
                framer = None
        if framer is None:
            if peer is not None:
                peer.send(data)
            return
        injector = self.injector
        engine = injector.engine
        stats = self.stats
        stat = ("to_controller_messages" if direction is _TO_CONTROLLER
                else "to_switch_messages")
        stats[stat] += len(frames)
        connection, now, ids = self.connection, engine.now, engine.ctx.msg_ids
        tracer, passes, hooks = injector.tracer, injector.passes, injector.passed_hooks
        for frame in frames:
            type_name = peek_message_type_name(frame)
            msg_id = next(ids)
            if tracer is not None:
                tracer.emit(
                    "message",
                    connection=list(connection),
                    direction=direction.value,
                    type=type_name,
                    xid=peek_xid(frame),
                    length=len(frame),
                    msg_id=msg_id,
                )
            if not passes(connection, type_name):
                injector.submit(self, InterposedMessage(
                    connection, direction, now, frame, ids=ids, msg_id=msg_id,
                    coarse_type=type_name))
                continue
            # The lane: no rule can fire, so the message is Algorithm 1's
            # whole output and its frame leaves unparsed, as deliver()
            # would send and count it.
            for hook in hooks:
                hook(connection, direction, frame, type_name, now)
            stats["forwarded"] += 1
            stats["decode_avoided"] += 1
            stats["repack_avoided"] += 1
            if peer is not None:
                peer.send(frame)

    def channel_closed(self, channel: ControlChannel) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def deliver(self, outgoing: List[OutgoingMessage]) -> None:
        """Send the executor's outgoing list to the proper sides."""
        if self.closed:
            return
        stats = self.stats
        stats["forwarded"] += len(outgoing)
        for entry in outgoing:
            message = entry.message
            if not entry.injected:
                # Fast-lane accounting for interposed originals: a message
                # no rule decoded ships without ever being parsed, and one
                # whose payload was never replaced re-uses its wire bytes.
                if message._parsed is None and not message._parse_failed:
                    stats["decode_avoided"] += 1
                if not message.payload_replaced:
                    stats["repack_avoided"] += 1
            # The message's direction picks the channel; only a
            # MODIFYMESSAGEMETADATA rewrite asks the injector's router.
            if message.overridden:
                target = self.injector.route(self, entry)
            elif message.direction is _TO_CONTROLLER:
                target = self.controller_channel
            else:
                target = self.switch_channel
            if target is None:
                continue
            if entry.delay > 0:
                self.injector.engine.schedule(
                    entry.delay, self._send_if_open, target, message.raw
                )
            elif target.open:
                target.send(message.raw)

    @staticmethod
    def _send_if_open(channel: ControlChannel, data: bytes) -> None:
        if channel.open:
            channel.send(data)

    def channel_for(self, direction: Direction) -> Optional[ControlChannel]:
        """The channel that carries messages travelling ``direction``."""
        if direction is Direction.TO_CONTROLLER:
            return self.controller_channel
        return self.switch_channel

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for channel in (self.switch_channel, self.controller_channel):
            if channel is not None and channel.open:
                channel.close()
        self.injector.proxy_closed(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<ConnectionProxy {self.connection} {state}>"


class ProxyPort:
    """The listening endpoint a switch is configured to dial.

    One port exists per registered control connection; it identifies which
    (controller, switch) pair an inbound connection belongs to — the
    equivalent of the paper's per-switch proxy listen sockets.
    """

    def __init__(self, injector, connection: ConnectionKey) -> None:
        self.injector = injector
        self.connection = tuple(connection)

    def channel_opened(self, channel: ControlChannel) -> None:
        proxy = self.injector.create_proxy(self.connection)
        proxy.switch_channel = channel
        channel.owner = proxy
        self.injector.dial_controller(proxy)

    def bytes_received(self, channel: ControlChannel, data: bytes) -> None:
        # Until channel_opened fires, no bytes can arrive (connect latency).
        raise AssertionError("ProxyPort received bytes before adoption")

    def channel_closed(self, channel: ControlChannel) -> None:
        pass

    def __repr__(self) -> str:
        return f"<ProxyPort {self.connection}>"
