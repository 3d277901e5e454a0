"""Unit tests for event and timer primitives."""

import pytest

from repro.sim import SimulationEngine
from repro.sim.events import Event, EventCancelled, Timer


def test_event_ordering_by_time():
    a = Event(1.0, lambda: None, seq=1)
    b = Event(2.0, lambda: None, seq=0)
    assert a < b


def test_event_ordering_by_seq_on_tie():
    a = Event(1.0, lambda: None, seq=0)
    b = Event(1.0, lambda: None, seq=1)
    assert a < b  # a was scheduled first


def test_event_ordering_by_priority_on_tie():
    a = Event(1.0, lambda: None, priority=5, seq=0)
    b = Event(1.0, lambda: None, priority=-5, seq=1)
    assert b < a


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        Event(-1.0, lambda: None, seq=0)


def test_fire_invokes_callback_with_args():
    seen = []
    event = Event(0.0, lambda x, y: seen.append((x, y)), args=(1, 2), seq=0)
    event.fire()
    assert seen == [(1, 2)]


def test_fire_cancelled_event_raises():
    event = Event(0.0, lambda: None, seq=0)
    event.cancel()
    with pytest.raises(EventCancelled):
        event.fire()


class TestTimer:
    def test_fires_after_delay(self):
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine, lambda: fired.append(engine.now))
        timer.start(2.0)
        engine.run()
        assert fired == [2.0]

    def test_restart_pushes_deadline(self):
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine, lambda: fired.append(engine.now))
        timer.start(2.0)
        engine.schedule(1.0, timer.start, 3.0)  # restart at t=1 -> fires t=4
        engine.run()
        assert fired == [4.0]

    def test_cancel_prevents_firing(self):
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine, lambda: fired.append(1))
        timer.start(2.0)
        timer.cancel()
        engine.run()
        assert fired == []

    def test_pending_reflects_state(self):
        engine = SimulationEngine()
        timer = Timer(engine, lambda: None)
        assert not timer.pending
        timer.start(1.0)
        assert timer.pending
        engine.run()
        assert not timer.pending
