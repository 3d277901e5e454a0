"""The event-driven link direction: the queue-accounting oracle.

:class:`EventDirection` is :class:`repro.dataplane.link._Direction` as it
was before arrivals were scheduled straight to the receiver: every
accepted frame schedules one ``_arrive`` event at its arrival instant,
which takes the frame off the queue count (clamped at zero) and then
hands it to ``deliver(data)``.  The shipping direction retires arrivals
at its next transmit instead; the two must accept and drop the same
frames, report the same ``queued`` after every transmit and deliver the
same frames at the same instants in the same order, except for a
transmit in a priority-0 event at exactly an arrival instant that was
scheduled before that frame was sent
(``tests/dataplane/test_link_queue.py`` pins it).
"""

from typing import Callable, Optional

from repro.sim.engine import SimulationEngine


class EventDirection:
    """One transmit direction whose arrivals are events of their own."""

    __slots__ = ("engine", "bandwidth", "latency", "queue_limit",
                 "busy_until", "queued", "deliver", "tx_frames", "tx_bytes",
                 "dropped_frames")

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
        self.deliver: Optional[Callable[[bytes], None]] = None
        self.tx_frames = 0
        self.tx_bytes = 0
        self.dropped_frames = 0

    def transmit(self, data: bytes) -> bool:
        """Queue a frame for transmission; False when tail-dropped."""
        if self.deliver is None:
            raise RuntimeError("link direction has no receiver attached")
        now = self.engine.now
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
        self._schedule_arrival(arrival, data)
        return True

    def _schedule_arrival(self, arrival: float, data: bytes) -> None:
        self.engine.schedule_at(arrival, self._arrive, data)

    def _arrive(self, data: bytes) -> None:
        self.queued = max(0, self.queued - 1)
        assert self.deliver is not None
        self.deliver(data)
