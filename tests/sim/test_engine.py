"""Unit tests for the simulation engine."""

import pytest

from repro.sim import SimulationEngine, SimulationError


def test_starts_at_time_zero(engine):
    assert engine.now == 0.0


def test_schedule_and_run_single_event(engine):
    fired = []
    engine.schedule(1.5, fired.append, "a")
    count = engine.run()
    assert count == 1
    assert fired == ["a"]
    assert engine.now == 1.5


def test_events_fire_in_time_order(engine):
    fired = []
    engine.schedule(3.0, fired.append, "late")
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(2.0, fired.append, "middle")
    engine.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_schedule_order(engine):
    fired = []
    for index in range(10):
        engine.schedule(1.0, fired.append, index)
    engine.run()
    assert fired == list(range(10))


def test_run_until_stops_before_later_events(engine):
    fired = []
    engine.schedule(1.0, fired.append, "in")
    engine.schedule(5.0, fired.append, "out")
    engine.run(until=2.0)
    assert fired == ["in"]
    assert engine.now == 2.0
    assert engine.pending_events == 1


def test_run_until_includes_events_at_exact_boundary(engine):
    fired = []
    engine.schedule(2.0, fired.append, "boundary")
    engine.run(until=2.0)
    assert fired == ["boundary"]


def test_events_scheduled_during_run_are_processed(engine):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-0.1, lambda: None)


def test_nan_times_rejected(engine):
    # A NaN key would compare false both ways and break the heap order.
    nan = float("nan")
    with pytest.raises(SimulationError):
        engine.schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(nan, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_message(nan, ("chan", 0), lambda: None)
    engine.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(until=nan)
    assert engine.pending_events == 1
    assert engine.now == 0.0


def test_schedule_at_in_past_rejected(engine):
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)


def test_max_events_budget(engine):
    fired = []

    def forever():
        fired.append(1)
        engine.schedule(1.0, forever)

    engine.schedule(0.0, forever)
    count = engine.run(max_events=5)
    assert count == 5
    assert len(fired) == 5


def test_step_returns_event_or_none(engine):
    assert engine.step() is None
    fired = []
    engine.schedule(1.0, fired.append, "x")
    # The fired event is its heap entry: (time, band, seq, callback, args).
    assert engine.step() == (1.0, 0, 0, fired.append, ("x",))
    assert fired == ["x"]
    assert engine.step() is None


def test_processed_events_counter(engine):
    for _ in range(4):
        engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.processed_events == 4


def test_reentrant_run_rejected(engine):
    def nested():
        engine.run()

    engine.schedule(0.0, nested)
    with pytest.raises(SimulationError):
        engine.run()


def test_run_advances_clock_to_until_even_when_queue_drains(engine):
    engine.schedule(1.0, lambda: None)
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_snapshot(engine):
    engine.schedule(1.0, lambda: None)
    now, pending, processed = engine.snapshot()
    assert (now, pending, processed) == (0.0, 1, 0)
