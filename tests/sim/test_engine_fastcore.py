"""Semantics of the event core.

The engine's hot loop batches same-timestamp dispatch over plain
``(time, band, seq, callback, args)`` heap entries.  None of that may be
observable: these tests pin the ordering and accounting contracts the
rest of the simulator (and the cross-shard determinism proof) relies on.
"""

import random

import pytest

from repro.sim import SimulationEngine, SimulationError
from repro.sim.engine import MESSAGE_PRIORITY


@pytest.fixture
def engine():
    return SimulationEngine()


class TestBatchedDispatch:
    def test_event_scheduled_at_now_during_batch_fires_in_same_run(self, engine):
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.0, lambda: fired.append("nested"))

        engine.schedule(1.0, first)
        engine.schedule(1.0, fired.append, "second")
        engine.run()
        assert fired == ["first", "second", "nested"]
        assert engine.now == 1.0

    def test_budget_stops_inside_a_timestamp_batch(self, engine):
        fired = []
        for index in range(5):
            engine.schedule(1.0, fired.append, index)
        count = engine.run(max_events=3)
        assert count == 3
        assert fired == [0, 1, 2]
        assert engine.pending_events == 2
        # The remainder of the batch fires on the next run.
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_until_boundary_leaves_later_events_heap_resident(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        assert engine.pending_events == 1
        assert engine.next_event_time() == 2.0


class TestMessageBand:
    def test_message_fires_after_local_events_at_same_instant(self, engine):
        fired = []
        engine.schedule_message(1.0, ("chan", 0), fired.append, "message")
        engine.schedule_at(1.0, fired.append, "local")
        engine.run()
        assert fired == ["local", "message"]

    def test_messages_order_by_identity_not_delivery_order(self, engine):
        fired = []
        # Delivered out of identity order — e.g. two barrier batches
        # merged — yet they fire sorted by (channel, sender_seq).
        engine.schedule_message(1.0, ("b", 2), fired.append, "b2")
        engine.schedule_message(1.0, ("a", 9), fired.append, "a9")
        engine.schedule_message(1.0, ("b", 1), fired.append, "b1")
        engine.run()
        assert fired == ["a9", "b1", "b2"]

    def test_message_does_not_consume_event_seq_counter(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule_message(1.0, ("chan", 0), lambda: None)
        engine.schedule(1.0, lambda: None)
        before, after = engine.step(), engine.step()
        assert after[2] == before[2] + 1  # the message drew no seq
        engine.run()

    def test_message_in_past_rejected(self, engine):
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_message(1.0, ("chan", 0), lambda: None)

    def test_message_band_sorts_after_any_local_priority(self, engine):
        # Even a local event scheduled at the instant by a callback that
        # fires at it sorts before the message.
        fired = []

        def local():
            fired.append("local")
            engine.schedule(0.0, fired.append, "nested")

        engine.schedule_message(1.0, ("chan", 0), fired.append, "message")
        engine.schedule_at(1.0, local)
        engine.run()
        assert fired == ["local", "nested", "message"]
        assert MESSAGE_PRIORITY > 0


class TestPrecomputedKeys:
    def test_event_key_matches_heap_entry(self, engine):
        fired = []
        engine.schedule(0.5, lambda: None)
        engine.schedule_at(3.5, fired.append, "x")
        engine.step()
        assert engine.step() == (3.5, 0, 1, fired.append, ("x",))
        assert fired == ["x"]

    def test_event_comparison_uses_key(self, engine):
        # Entries come off the heap in ascending tuple order: time, then
        # band, then seq; the callback is never compared.
        rng = random.Random(0)
        for index in range(50):
            time = rng.choice((1.0, 2.0, 3.0))
            if index % 5 == 0:
                engine.schedule_message(time, ("chan", rng.random()), lambda: None)
            else:
                engine.schedule_at(time, lambda: None)
        keys = [engine.step()[:3] for _ in range(50)]
        assert keys == sorted(keys)
        assert engine.step() is None
