"""Local link queue accounting without arrival events of the link's own.

A :class:`~repro.dataplane.link._Direction` schedules its receiver as
the arrival event and retires arrivals at its next transmit.  The oracle
is the event-driven direction it replaced
(:mod:`tests.dataplane.link_reference`), whose ``_arrive`` event takes
each frame off the queue count before delivering it.  Over transmit
schedules -- frame sizes, gaps that leave the link idle with frames
still in flight, queue limits 1-8, bursts -- driven from priority-0
events on and off arrival instants and from message-dispatch events,
both must accept and drop the same frames, report the same ``queued``
after every transmit, and deliver the same frames at the same instants
in the same order.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.dataplane.link import DataLink, _Direction
from repro.sim.engine import SimulationEngine
from tests.dataplane.link_reference import EventDirection

SIZES = st.sampled_from([40, 64, 100, 576, 1000, 1500])
PORT = 7


@st.composite
def schedules(draw):
    steps = []
    for _ in range(draw(st.integers(1, 24))):
        mode = draw(st.sampled_from(
            ["arrival-local", "arrival-message", "local", "message"]))
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


def _event_direction(engine, schedule, delivered):
    direction = EventDirection(engine, schedule["bandwidth"],
                               schedule["latency"], schedule["limit"])
    direction.deliver = lambda data: delivered.append((engine.now, PORT, data))
    return direction


def _direction(engine, schedule, delivered):
    direction = _Direction(engine, schedule["bandwidth"], schedule["latency"],
                           schedule["limit"])
    direction.deliver = lambda port, data: delivered.append((engine.now, port, data))
    direction.port = PORT
    return direction


def drive(make, schedule):
    """Run ``schedule`` against one direction; return ``(now, accepted,
    queued)`` after every transmit, every delivery, and the drop count."""
    engine = SimulationEngine()
    delivered = []
    direction = make(engine, schedule, delivered)
    unit = 100 * 8.0 / schedule["bandwidth"]
    steps = schedule["steps"]
    arrivals = []
    sent = iter(range(1 << 30))
    log = []

    def fire(index):
        for size in steps[index][3]:
            frame = next(sent).to_bytes(4, "big") + bytes(size - 4)
            accepted = direction.transmit(frame)
            log.append((engine.now, accepted, direction.queued))
            if accepted:
                arrivals.append(direction.busy_until + schedule["latency"])
        plan(index + 1)

    def plan(index):
        if index == len(steps):
            return
        mode, gap, pick, _ = steps[index]
        now = engine.now
        pending = [t for t in arrivals if t >= now]
        if mode.startswith("arrival") and pending:
            # Exactly an arrival instant of a frame sent before this
            # event was scheduled, so the frame's arrival fires first.
            when = pending[pick % len(pending)]
            if mode == "arrival-local":
                engine.schedule_at(when, fire, index)
            else:
                engine.schedule_message(when, ("drive", index), fire, index)
            return
        when = now + gap * unit
        if mode == "local":
            while when in arrivals:
                when = math.nextafter(when, math.inf)
            engine.schedule_at(when, fire, index)
        else:
            engine.schedule_message(when, ("drive", index), fire, index)

    plan(0)
    engine.run()
    return log, delivered, direction.dropped_frames


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_retiring_at_transmit_matches_arrival_events(schedule):
    assert drive(_direction, schedule) == drive(_event_direction, schedule)


def test_an_arrival_at_the_transmit_instant_counts_as_delivered():
    """Three 100-byte frames fill a limit-3 queue at t=0; a fourth frame
    is sent at exactly the first one's arrival, while the link is still
    busy serializing the third.  That arrival always counts here.  The
    event-driven direction counted it only when its arrival event fired
    first: for a transmit in a message-dispatch event, but not for this
    priority-0 event scheduled before the frame was sent."""
    bandwidth, latency = 1e6, 0.0005
    first_arrival = 0.0 + 100 * 8.0 / bandwidth + latency

    def run(make, dispatch):
        engine = SimulationEngine()
        delivered = []
        direction = make(engine, {"bandwidth": bandwidth, "latency": latency,
                                  "limit": 3}, delivered)
        outcome = []
        late = lambda: outcome.append((direction.transmit(bytes(100)),
                                       direction.queued))
        if dispatch == "message":
            engine.schedule_message(first_arrival, ("drive", 0), late)
        else:
            engine.schedule_at(first_arrival, late)
        assert [direction.transmit(bytes(100)) for _ in range(4)] == [True] * 3 + [False]
        engine.run()
        assert delivered[0][0] == first_arrival
        return outcome

    for dispatch in ("local", "message"):
        assert run(_direction, dispatch) == [(True, 3)]
    assert run(_event_direction, "message") == [(True, 3)]
    assert run(_event_direction, "local") == [(False, 3)]


def test_a_data_link_calls_the_receiver_with_its_port():
    engine = SimulationEngine()
    link = DataLink(engine, 1e6, 0.001)
    received = []
    link.attach_a(lambda data: received.append(("a", engine.now, data)))
    link.attach_b(lambda port, data: received.append((port, engine.now, data)), 3)
    assert link.send_from_a(b"to-b") and link.send_from_b(b"to-a")
    assert engine.pending_events == 2  # one event per frame, nothing else
    engine.run()
    arrival = 0.0 + 4 * 8.0 / 1e6 + 0.001
    assert received == [(3, arrival, b"to-b"), ("a", arrival, b"to-a")]
