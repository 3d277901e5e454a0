"""Event primitives for the discrete-event simulation engine."""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class EventCancelled(Exception):
    """Raised when interacting with an event that has been cancelled."""


#: Priority band reserved for cross-shard message dispatch events.  All
#: locally scheduled events use small priorities (0 by convention); dispatch
#: events scheduled by :meth:`SimulationEngine.schedule_message` sort after
#: every local event at the same instant and carry tuple sequence keys that
#: are pure functions of the message identity — never drawn from the
#: region's event counter.  Keeping the bands disjoint means integer and
#: tuple sequence numbers are never compared against each other, and region
#: execution cannot observe how the barrier windowed its message deliveries.
MESSAGE_PRIORITY = 1 << 30


class Event:
    """A scheduled callback at a point in simulated time.

    Events are ordered by ``(time, priority, seq)``.  ``seq`` comes from
    the scheduling engine's own increasing sequence and guarantees a
    deterministic total order even for events scheduled at exactly the
    same simulated instant, which is essential for reproducible attack
    traces.  The key is precomputed once at construction (``self.key``)
    so heap maintenance compares native tuples instead of calling back
    into Python per comparison.
    """

    __slots__ = ("time", "priority", "seq", "key", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        *,
        seq: Any,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        self.time = float(time)
        self.priority = priority
        self.seq = seq
        self.key = (self.time, priority, seq)
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine: Optional[Any] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due."""
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._event_cancelled()

    def fire(self) -> None:
        """Invoke the callback unless the event has been cancelled."""
        if self.cancelled:
            raise EventCancelled(f"event {self!r} was cancelled")
        self.callback(*self.args)

    def sort_key(self) -> Tuple[float, int, Any]:
        return self.key

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{state}>"


class Timer:
    """A cancellable, restartable timer built on engine events.

    Used by switches for echo-liveness timeouts and by flow tables for
    idle/hard timeout expiry.
    """

    def __init__(self, engine: "Any", callback: Callable[[], None]) -> None:
        self._engine = engine
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)start the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._engine.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
