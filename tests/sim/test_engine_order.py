"""The engine against a plain list model of its event order.

The model keeps every pending event in an unsorted list and fires the one
with the smallest ``(time, band, seq)``: band 0 and the next counter value
for ``schedule``/``schedule_at``, the message band and the message's own
key for ``schedule_message``.  Random programs schedule events with
delays drawn from a small set that includes 0 (so events at one instant
are common), schedule more from inside callbacks, and interleave
``run(until=..., max_events=...)`` and ``step()``.  After every call the
engine and the model must agree on what fired and in which order, on
``now``, ``processed_events``, ``pending_events``, ``next_event_time()``
and on the key of every entry ``step()`` returns.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.engine import MESSAGE_PRIORITY, SimulationEngine

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])

#: (kind, delay, message key) — the key only matters for messages.
LEAVES = st.tuples(
    st.sampled_from(["schedule", "schedule_at", "message"]),
    DELAYS,
    st.tuples(st.sampled_from("abc"), st.integers(0, 9)),
)

#: An event and the events its callback schedules when it fires.
EVENTS = st.tuples(LEAVES, st.lists(LEAVES, max_size=3))

CALLS = st.one_of(
    st.tuples(st.just("event"), EVENTS),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 3.0])),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    st.tuples(st.just("step")),
)


class Model:
    """Pending events in a list; fire the minimum key each time."""

    def __init__(self):
        self.now = 0.0
        self.processed = 0
        self.pending = []  # (time, band, seq, label, children)
        self.counter = 0
        self.fired = []

    def add(self, leaf, label, children):
        kind, delay, key = leaf
        time = self.now + delay
        if kind == "message":
            # A label suffix keeps message keys unique, as (chan, seq) is.
            self.pending.append((time, MESSAGE_PRIORITY, key + (label,), label, children))
            return
        self.pending.append((time, 0, self.counter, label, children))
        self.counter += 1

    def next_event_time(self):
        return min(self.pending, key=lambda e: e[:3])[0] if self.pending else None

    def fire_next(self):
        entry = min(self.pending, key=lambda e: e[:3])
        self.pending.remove(entry)
        time, _, _, label, children = entry
        self.now = time
        self.processed += 1
        self.fired.append(label)
        for index, child in enumerate(children):
            self.add(child, f"{label}.{index}", [])
        return entry[:3]

    def step(self):
        return self.fire_next() if self.pending else None

    def run(self, until, max_events):
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired = 0
        while self.pending and fired < budget and self.next_event_time() <= limit:
            self.fire_next()
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return fired


class Driven:
    """The engine, scheduling labelled events the same way."""

    def __init__(self):
        self.engine = SimulationEngine()
        self.fired = []

    def add(self, leaf, label, children):
        kind, delay, key = leaf
        engine = self.engine
        if kind == "schedule":
            engine.schedule(delay, self.fire, label, children)
        elif kind == "schedule_at":
            engine.schedule_at(engine.now + delay, self.fire, label, children)
        else:
            engine.schedule_message(engine.now + delay, key + (label,),
                                    self.fire, label, children)

    def fire(self, label, children):
        self.fired.append(label)
        for index, child in enumerate(children):
            self.add(child, f"{label}.{index}", [])


def assert_agree(driven, model):
    engine = driven.engine
    assert driven.fired == model.fired
    assert engine.now == model.now
    assert engine.processed_events == model.processed
    assert engine.pending_events == len(model.pending)
    assert engine.next_event_time() == model.next_event_time()


@settings(max_examples=400, deadline=None)
@given(st.lists(CALLS, max_size=40))
def test_engine_matches_list_model(program):
    driven, model = Driven(), Model()
    labels = 0
    for call in program:
        if call[0] == "event":
            leaf, children = call[1]
            label = f"e{labels}"
            labels += 1
            driven.add(leaf, label, children)
            model.add(leaf, label, children)
        elif call[0] == "run":
            _, offset, budget = call
            until = None if offset is None else model.now + offset
            assert driven.engine.run(until=until, max_events=budget) == \
                model.run(until, budget)
        else:
            entry = driven.engine.step()
            expected = model.step()
            assert (entry if entry is None else entry[:3]) == expected
        assert_agree(driven, model)
    # Whatever is left drains in model order.
    assert driven.engine.run() == model.run(None, None)
    assert_agree(driven, model)
