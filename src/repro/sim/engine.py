"""The discrete-event simulation engine."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Priority band reserved for cross-shard message dispatch events.  All
#: locally scheduled events sit in band 0; dispatch events scheduled by
#: :meth:`SimulationEngine.schedule_message` sort after every local event
#: at the same instant and carry tuple sequence keys that are pure
#: functions of the message identity — never drawn from the region's event
#: counter.  Keeping the bands disjoint means integer and tuple sequence
#: numbers are never compared against each other, and region execution
#: cannot observe how the barrier windowed its message deliveries.
MESSAGE_PRIORITY = 1 << 30

#: One scheduled event as the heap holds it:
#: ``(time, band, seq, callback, args)``.
Entry = Tuple[float, int, Any, Callable[..., Any], Tuple[Any, ...]]


class SimulationError(Exception):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class SimContext:
    """Everything one run draws its sequences from.

    Each :class:`SimulationEngine` owns one (``engine.ctx``), and every
    component reaches it through the engine it already holds.  No run
    reads a sequence another run advanced, so a run's bytes do not depend
    on what else the process ran before it or runs beside it.

    * :meth:`next_xid` — OpenFlow transaction ids.  0 is reserved for
      unsolicited messages, so the sequence wraps from 2^32 - 1 to 1.
    * ``msg_ids`` — the injector's message identifiers (MESSAGEID).
    * ``icmp_ids`` — ping identifiers.
    * ``ephemeral_ports`` — TCP client source ports.
    * ``frames`` — the FastFrame intern pool
      (:func:`repro.netlib.fastframe.intern`).
    """

    __slots__ = ("msg_ids", "icmp_ids", "ephemeral_ports", "frames", "_xid")

    def __init__(self) -> None:
        self._xid = 1
        self.msg_ids = itertools.count(1)
        self.icmp_ids = itertools.count(1)
        self.ephemeral_ports = itertools.count(49152)
        self.frames: Dict[bytes, bytes] = {}

    def next_xid(self) -> int:
        """The next transaction id, in [1, 2^32 - 1]."""
        xid = self._xid
        self._xid = 1 if xid >= 0xFFFFFFFF else xid + 1
        return xid


class SimulationEngine:
    """A single-clock discrete-event simulator.

    All network elements in the reproduction share one engine instance.  The
    engine guarantees a deterministic total order over events: ties on
    simulated time are broken first by band and then by scheduling
    sequence number.  This mirrors the paper's single-threaded, centralized
    runtime injector, which "imposes a total ordering on messages seen by
    the runtime injector" (Section VI-C).

    Each scheduled event is one plain :data:`Entry` tuple
    ``(time, band, seq, callback, args)`` on a binary heap, so every sift
    compares native tuples in C.  Sequence numbers are unique within a
    band (the engine's counter in band 0, message-key tuples in the
    :data:`MESSAGE_PRIORITY` band), so a comparison never reaches the
    callback.  Times are stored as floats, so the clock a callback reads
    is a float even when its caller scheduled at an int.

    Nothing is cancelled: once scheduled, an event fires.  A component
    that may stop wanting a callback guards it itself, with a flag or a
    deadline the callback checks when it runs.

    ``now``, the simulated time in seconds, is a plain attribute that
    only the engine writes, once per batch of same-time events.  The
    per-message paths push onto ``_queue`` themselves, keyed as
    ``schedule``/``schedule_at`` would key them with a ``seq`` from
    ``_seq``: a link direction's arrivals (:mod:`repro.dataplane.link`),
    a control channel's deliveries (:mod:`repro.dataplane.control`), a
    controller's service queue (:mod:`repro.controllers.base`) and a
    fabric UDP flow's next send (:mod:`repro.experiments.fabric`, which
    reserves the flow's seqs when it is built).  Each checks its delay
    where the delay is set, and neither object is ever replaced.  A
    region crossing inside one process (:mod:`repro.sim.shard`) pushes
    the entry ``schedule_message`` would, onto the far region's heap.
    """

    def __init__(self) -> None:
        self.ctx = SimContext()
        self.now = 0.0
        self._queue: List[Entry] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Total number of events fired so far.

        ``run()`` adds its events when it returns (one store per call, not
        one per event), so a callback reading this mid-run sees the count
        as of that run's start.
        """
        return self._processed

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        heapq.heappush(
            self._queue, (float(self.now + delay), 0, next(self._seq), callback, args))

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time!r} before current time t={self.now!r}"
            )
        heapq.heappush(self._queue, (float(time), 0, next(self._seq), callback, args))

    def schedule_message(
        self,
        time: float,
        seq: Any,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Schedule a cross-shard message delivery with a canonical key.

        The event sorts in the :data:`MESSAGE_PRIORITY` band under ``seq``
        (a message-identity tuple such as ``(channel, sender_seq)``) and
        does **not** consume the engine's event sequence.  Region
        execution therefore produces identical event orderings no matter
        how the barrier grouped deliveries into epochs — the invariant that
        lets adaptive lookahead stay byte-identical to fixed-width epochs.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot deliver at t={time!r} before current time t={self.now!r}"
            )
        heapq.heappush(self._queue, (float(time), MESSAGE_PRIORITY, seq, callback, args))

    def step(self) -> Optional[Entry]:
        """Fire the single next event and return its entry (None if idle)."""
        if not self._queue:
            return None
        entry = heapq.heappop(self._queue)
        self.now = entry[0]
        self._processed += 1
        entry[3](*entry[4])
        return entry

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Returns the number of events fired by this call.  ``until`` is an
        absolute simulated time; events scheduled exactly at ``until`` are
        fired.  After the run the clock is advanced to ``until`` if it was
        provided and the queue drained early.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until t=nan")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        limit = until if until is not None else float("inf")
        budget = max_events if max_events is not None else (1 << 62)
        fired = 0
        try:
            while queue:
                t = queue[0][0]
                if t > limit or fired >= budget:
                    # Beyond the horizon (or out of budget): leave the head
                    # in place — the heap is only ever popped for events
                    # that actually fire.
                    break
                # Batch every due event at this timestamp: time is monotone
                # within the batch, so the horizon needs no re-test.
                self.now = t
                while True:
                    entry = heappop(queue)
                    fired += 1
                    entry[3](*entry[4])
                    if fired >= budget or not queue or queue[0][0] != t:
                        break
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._processed += fired
            self._running = False
        return fired

    def next_event_time(self) -> Optional[float]:
        """The time of the next event, or None when the queue is empty.

        Used by the sharded coordinator to fast-forward epoch barriers
        over globally idle stretches of simulated time.
        """
        return self._queue[0][0] if self._queue else None

    def snapshot(self) -> Tuple[float, int, int]:
        """Return ``(now, pending, processed)`` for debugging/metrics."""
        return (self.now, len(self._queue), self._processed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulationEngine t={self.now:.6f} pending={len(self._queue)} "
            f"processed={self._processed}>"
        )
