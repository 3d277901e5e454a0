"""Boundary queue accounting without departure events.

:class:`~repro.sim.shard.BoundaryTx` schedules nothing when it emits a
frame; the next transmit retires the arrivals at or before its instant.
The oracle is the event-driven direction it replaced
(:mod:`tests.sim.boundary_reference`).  Over transmit schedules -- frame
sizes, gaps, queue limits 1-8, bursts -- driven from message-dispatch
events, some at exactly an arrival instant, and from priority-0 events at
instants that match no arrival, both must accept and drop the same frames
and report the same ``queued`` after every transmit.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.shard import BoundaryTx
from tests.sim.boundary_reference import EventBoundaryTx

SIZES = st.sampled_from([40, 64, 100, 576, 1000, 1500])


@st.composite
def schedules(draw):
    steps = []
    for _ in range(draw(st.integers(1, 24))):
        mode = draw(st.sampled_from(["arrival", "message", "local"]))
        # Gaps in units of one 100-byte frame's serialization time; the
        # long ones let the link go idle with frames still in flight.
        gap = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 10.0, 40.0]))
        pick = draw(st.integers(0, 7))
        burst = draw(st.lists(SIZES, min_size=1, max_size=4))
        steps.append((mode, gap, pick, burst))
    return {
        "bandwidth": draw(st.sampled_from([1e6, 8e5, 1e7])),
        "latency": draw(st.sampled_from([0.0, 0.0002, 0.0008, 0.003])),
        "limit": draw(st.integers(1, 8)),
        "steps": steps,
    }


def drive(tx_class, schedule):
    """Run ``schedule`` against one direction; return ``(now, accepted,
    queued)`` after every transmit, and the drop count."""
    engine = SimulationEngine()
    arrivals = []
    tx = tx_class(engine, schedule["bandwidth"], schedule["latency"],
                  schedule["limit"], lambda chan, t, op, data: arrivals.append(t),
                  "link:000000:a")
    unit = 100 * 8.0 / schedule["bandwidth"]
    steps = schedule["steps"]
    messages = itertools.count()
    log = []

    def fire(index):
        for size in steps[index][3]:
            accepted = tx.transmit(bytes(size))
            log.append((engine.now, accepted, tx.queued))
        plan(index + 1)

    def plan(index):
        if index == len(steps):
            return
        mode, gap, pick, _ = steps[index]
        now = engine.now
        pending = [t for t in arrivals if t >= now]
        if mode == "arrival" and pending:
            # A message dispatched at exactly an arrival instant.
            engine.schedule_message(pending[pick % len(pending)],
                                    ("drive", next(messages)), fire, index)
            return
        when = now + gap * unit
        if mode == "local":
            while when in arrivals:
                when = math.nextafter(when, math.inf)
            engine.schedule_at(when, fire, index)
        else:
            engine.schedule_message(when, ("drive", next(messages)), fire, index)

    plan(0)
    engine.run()
    return log, tx.dropped_frames


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_retiring_at_transmit_matches_departure_events(schedule):
    assert drive(BoundaryTx, schedule) == drive(EventBoundaryTx, schedule)


def test_a_departure_at_the_transmit_instant_counts_as_done():
    """Three 100-byte frames fill a limit-3 queue at t=0; a fourth frame
    is sent at exactly the first one's arrival, while the link is still
    busy serializing the third.  The departure at that instant always
    counts here.  The event-driven direction counted it only when its
    departure event fired first: for a transmit in a message-dispatch
    event, or in an event scheduled after the frame was sent, but not for
    this priority-0 event scheduled before it."""
    bandwidth, latency = 1e6, 0.0005
    first_arrival = 0.0 + 100 * 8.0 / bandwidth + latency

    def run(tx_class, dispatch):
        engine = SimulationEngine()
        arrivals = []
        tx = tx_class(engine, bandwidth, latency, 3,
                      lambda chan, t, op, data: arrivals.append(t),
                      "link:000000:a")
        outcome = []
        late = lambda: outcome.append((tx.transmit(bytes(100)), tx.queued))
        if dispatch == "message":
            engine.schedule_message(first_arrival, ("drive", 0), late)
        else:
            engine.schedule_at(first_arrival, late)
        assert [tx.transmit(bytes(100)) for _ in range(4)] == [True] * 3 + [False]
        assert arrivals[0] == first_arrival
        engine.run()
        return outcome

    for dispatch in ("local", "message"):
        assert run(BoundaryTx, dispatch) == [(True, 3)]
    assert run(EventBoundaryTx, "message") == [(True, 3)]
    assert run(EventBoundaryTx, "local") == [(False, 3)]
