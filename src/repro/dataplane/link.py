"""Point-to-point link model with bandwidth, latency, and a drop-tail queue.

Each direction of a link is an independent transmit queue: frames are
serialized at the link bandwidth, experience the propagation latency, and
are dropped when the queue is full.  The paper's testbed used 100 Mbps GENI
links; the throughput shape of the flow-modification-suppression experiment
(Fig. 11a) depends on this serialization model.

A frame's arrival is one engine event that calls the receiver itself: a
switch's ``frame_received(port, data)`` or a host's ``frame_received(data)``.
No link code runs then, so a direction keeps its arrival times in a FIFO
and the next transmit first takes every arrival at or before its instant
off the queue count.  Boundary directions (:class:`repro.sim.shard.BoundaryTx`)
share the rule.  The tie rule: an arrival at exactly a transmit's instant
always counts as delivered.  When each arrival was an event that
decremented the count, it counted only if it fired before the transmit's
event, so a transmit in an event scheduled before that frame was sent
saw one more frame queued and could tail-drop where this rule accepts.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Iterator, List, Optional

from repro.sim.engine import Entry, SimulationEngine

Deliver = Callable[..., None]


class _Direction:
    """One transmit direction of a link.

    Each accepted frame becomes the event ``deliver(port, data)``, or
    ``deliver(data)`` when ``port`` is None, pushed straight onto the
    engine's heap with the key ``schedule_at`` would give it: an arrival
    is a float no earlier than now.  A direction without a local heap
    (:class:`repro.sim.shard.BoundaryTx`) hands the frame to ``_ship``.
    """

    __slots__ = ("engine", "bandwidth", "latency", "queue_limit",
                 "busy_until", "queued", "deliver", "port", "tx_frames",
                 "tx_bytes", "dropped_frames", "_arrivals", "_heap", "_seq")

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth: float,
        latency: float,
        queue_limit: int,
    ) -> None:
        self.engine = engine
        self.bandwidth = bandwidth
        self.latency = latency
        self.queue_limit = queue_limit
        self.busy_until = 0.0
        self.queued = 0
        self.deliver: Optional[Deliver] = None
        self.port: Optional[int] = None
        self.tx_frames = 0
        self.tx_bytes = 0
        self.dropped_frames = 0
        self._arrivals: Deque[float] = deque()
        self._heap: Optional[List[Entry]] = engine._queue
        self._seq: Iterator[int] = engine._seq

    def transmit(self, data: bytes) -> bool:
        """Queue a frame for transmission; False when tail-dropped.

        The idle reset leaves the arrival FIFO alone: frames still in
        flight decrement (clamped at zero) the count it zeroed, as their
        arrival events did."""
        deliver = self.deliver
        if deliver is None:
            raise RuntimeError("link direction has no receiver attached")
        now = self.engine.now
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= now:
            arrivals.popleft()
            if self.queued:
                self.queued -= 1
        if self.busy_until < now:
            self.busy_until = now
            self.queued = 0
        if self.queued >= self.queue_limit:
            self.dropped_frames += 1
            return False
        size = len(data)
        self.busy_until += size * 8.0 / self.bandwidth
        arrival = self.busy_until + self.latency
        self.queued += 1
        self.tx_frames += 1
        self.tx_bytes += size
        arrivals.append(arrival)
        heap = self._heap
        if heap is None:
            self._ship(arrival, data)
            return True
        port = self.port
        heappush(heap, (arrival, 0, next(self._seq), deliver,
                        (data,) if port is None else (port, data)))
        return True


class DataLink:
    """A bidirectional data-plane link between two attachment points."""

    DEFAULT_QUEUE_LIMIT = 100

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth_bps: float,
        latency_s: float,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps!r}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s!r}")
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self._a_to_b = _Direction(engine, bandwidth_bps, latency_s, queue_limit)
        self._b_to_a = _Direction(engine, bandwidth_bps, latency_s, queue_limit)
        self.up = True
        self._status_observers = []

    def attach_a(self, deliver: Deliver, port: Optional[int] = None) -> None:
        """Register the A-side receiver: frames sent by B arrive as
        ``deliver(port, data)``, or ``deliver(data)`` without a port."""
        self._b_to_a.deliver = deliver
        self._b_to_a.port = port

    def attach_b(self, deliver: Deliver, port: Optional[int] = None) -> None:
        """Register the B-side receiver (frames sent by A arrive here)."""
        self._a_to_b.deliver = deliver
        self._a_to_b.port = port

    def send_from_a(self, data: bytes) -> bool:
        """Transmit from the A side; returns False when dropped."""
        if not self.up:
            return False
        return self._a_to_b.transmit(data)

    def send_from_b(self, data: bytes) -> bool:
        """Transmit from the B side; returns False when dropped."""
        if not self.up:
            return False
        return self._b_to_a.transmit(data)

    def add_status_observer(self, observer) -> None:
        """Register ``observer(up: bool)`` for carrier state changes.

        Attached switches use this to notice loss of carrier and emit
        OpenFlow PORT_STATUS notifications.
        """
        self._status_observers.append(observer)

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the link (frames silently dropped)."""
        if up == self.up:
            return
        self.up = up
        for observer in self._status_observers:
            observer(up)

    @property
    def tx_frames(self) -> int:
        return self._a_to_b.tx_frames + self._b_to_a.tx_frames

    @property
    def tx_bytes(self) -> int:
        return self._a_to_b.tx_bytes + self._b_to_a.tx_bytes

    @property
    def dropped_frames(self) -> int:
        return self._a_to_b.dropped_frames + self._b_to_a.dropped_frames

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<DataLink {self.name} {self.bandwidth_bps/1e6:.0f}Mbps {state}>"
