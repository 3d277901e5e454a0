"""Pending-event accounting and the single-pop run loop."""

from repro.sim import SimulationEngine


class TestPendingCounter:
    def test_schedule_increments(self):
        engine = SimulationEngine()
        for index in range(5):
            engine.schedule(float(index), lambda: None)
        assert engine.pending_events == 5

    def test_fired_events_stop_pending(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.step()
        assert engine.pending_events == 1
        engine.step()
        assert engine.pending_events == 0


class TestRunLoop:
    def test_until_boundary_preserves_future_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(3.0, fired.append, "b")
        assert engine.run(until=2.0) == 1
        assert fired == ["a"]
        assert engine.now == 2.0
        assert engine.pending_events == 1
        # The pushed-back event fires on the next run.
        assert engine.run(until=4.0) == 1
        assert fired == ["a", "b"]

    def test_event_exactly_at_until_fires(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, fired.append, "x")
        engine.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_budget(self):
        engine = SimulationEngine()
        for index in range(5):
            engine.schedule(float(index), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending_events == 2

    def test_snapshot_matches_counter(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.step()
        now, pending, processed = engine.snapshot()
        assert (now, pending, processed) == (1.0, 1, 1)
