"""The event-driven boundary direction: the queue-accounting oracle.

:class:`EventBoundaryTx` is :class:`~repro.sim.shard.BoundaryTx` as it was
before departures became implicit: every emitted frame also schedules a
local no-op event at its arrival instant that decrements the queue
count, exactly as the event-driven local direction's arrival event does
(:class:`tests.dataplane.link_reference.EventDirection`, its base).
``BoundaryTx`` retires those arrivals when the next transmit runs
instead; the two must accept and drop the same frames and report the
same ``queued`` after every transmit, except for a transmit in a
priority-0 event at exactly an arrival instant that was scheduled before
that frame was sent (``tests/sim/test_boundary_queue.py`` pins it).
"""

from typing import Callable

from repro.sim.engine import SimulationEngine
from repro.sim.shard import OP_FRAME
from tests.dataplane.link_reference import EventDirection


class EventBoundaryTx(EventDirection):
    """Emits each frame and schedules its departure as a local event."""

    __slots__ = ("emit", "chan")

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth: float,
        latency: float,
        queue_limit: int,
        emit: Callable[[str, float, str, bytes], None],
        chan: str,
    ) -> None:
        super().__init__(engine, bandwidth, latency, queue_limit)
        self.emit = emit
        self.chan = chan
        self.deliver = self._no_local_delivery

    @staticmethod
    def _no_local_delivery(data: bytes) -> None:  # pragma: no cover
        raise AssertionError("boundary direction delivers remotely")

    def _schedule_arrival(self, arrival: float, data: bytes) -> None:
        self.emit(self.chan, arrival, OP_FRAME, bytes(data))
        self.engine.schedule_at(arrival, self._depart)

    def _depart(self) -> None:
        self.queued = max(0, self.queued - 1)
