"""Control-plane connection plumbing.

A control-plane connection in the system model (Section IV-A5) is "a
bidirectional TCP connection between a controller (server) and switch
(client)".  Here it is a pair of :class:`ControlChannel` handles joined by
an in-order, latency-modelled byte pipe.  The ATTAIN runtime injector's
connection proxy holds channels on both sides and forwards (or interferes
with) the bytes, exactly like the paper's TCP proxy.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional, Protocol, Tuple

from repro.sim.engine import SimulationEngine, SimulationError


class ControlEndpoint(Protocol):
    """Anything that terminates a control channel (switch, controller, proxy)."""

    def channel_opened(self, channel: "ControlChannel") -> None:
        """The peer is connected; the endpoint may start its handshake."""

    def bytes_received(self, channel: "ControlChannel", data: bytes) -> None:
        """In-order stream bytes arrived from the peer."""

    def channel_closed(self, channel: "ControlChannel") -> None:
        """The peer closed the connection (TCP RST/FIN equivalent)."""


class ControlChannel:
    """One endpoint's handle on a bidirectional control-plane stream.

    ``send`` pushes the delivery onto the engine heap itself, keyed as
    ``engine.schedule(latency_s, ...)`` would key it, so the latency is
    checked once, here: a negative or NaN latency is refused when the
    channel is built.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        owner: ControlEndpoint,
        latency_s: float,
        name: str,
    ) -> None:
        if not latency_s >= 0:  # also rejects NaN
            raise SimulationError(f"control channel latency must be >= 0: {latency_s!r}")
        self._engine = engine
        self._queue = engine._queue
        self._seq = engine._seq
        self.owner = owner
        self.latency_s = float(latency_s)
        self.name = name
        self.peer: Optional["ControlChannel"] = None
        self.open = False

    def send(self, data: bytes) -> None:
        """Queue bytes for in-order delivery to the peer endpoint."""
        peer = self.peer
        if not self.open or peer is None:
            return  # writing to a closed socket: bytes vanish
        if type(data) is not bytes:
            data = bytes(data)
        heappush(self._queue, (self._engine.now + self.latency_s, 0, next(self._seq),
                               peer._deliver, (data,)))

    def close(self) -> None:
        """Close both directions; the peer sees ``channel_closed``."""
        if not self.open:
            return
        self.open = False
        peer = self.peer
        if peer is not None and peer.open:
            self._engine.schedule(self.latency_s, peer._peer_closed)

    def _deliver(self, data: bytes) -> None:
        if not self.open:
            return
        self.owner.bytes_received(self, data)

    def _peer_closed(self) -> None:
        if not self.open:
            return
        self.open = False
        self.owner.channel_closed(self)

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return f"<ControlChannel {self.name} {state}>"


def connect_endpoints(
    engine: SimulationEngine,
    a: ControlEndpoint,
    b: ControlEndpoint,
    latency_s: float = 0.00025,
    name: str = "ctrl",
) -> Tuple[ControlChannel, ControlChannel]:
    """Create a connected channel pair and notify both endpoints.

    ``a`` is conventionally the connection initiator (the switch, per the
    system model); both endpoints receive ``channel_opened`` at the current
    simulated instant plus one connection-setup latency.
    """
    chan_a = ControlChannel(engine, a, latency_s, f"{name}:a")
    chan_b = ControlChannel(engine, b, latency_s, f"{name}:b")
    chan_a.peer = chan_b
    chan_b.peer = chan_a
    chan_a.open = True
    chan_b.open = True

    def notify() -> None:
        # Either side may have closed during setup (e.g. proxy refused).
        if chan_b.open:
            b.channel_opened(chan_b)
        if chan_a.open:
            a.channel_opened(chan_a)

    engine.schedule(latency_s, notify)
    return chan_a, chan_b
