"""Semantics of the allocation-lean event core.

The engine's hot loop batches same-timestamp dispatch, keeps flat
``(time, priority, seq, event)`` heap entries, and pops head tombstones
in ``_peek``.  None of that may be observable: these tests pin the
ordering, cancellation, and accounting contracts the rest of the
simulator (and the cross-shard determinism proof) relies on.
"""

import pytest

from repro.sim import SimulationEngine, SimulationError
from repro.sim.events import MESSAGE_PRIORITY, Event


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

    def test_cancel_same_timestamp_event_mid_batch(self, engine):
        fired = []
        victim = engine.schedule(1.0, fired.append, "victim")

        def assassin():
            fired.append("assassin")
            victim.cancel()

        # The assassin was scheduled after the victim but runs first via
        # priority; the victim's heap entry is already popped-adjacent.
        engine.schedule(1.0, assassin, priority=-1)
        engine.run()
        assert fired == ["assassin"]
        assert engine.pending_events == 0

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
        before = engine.schedule(1.0, lambda: None)
        engine.schedule_message(1.0, ("chan", 0), lambda: None)
        after = engine.schedule(1.0, lambda: None)
        assert after.seq == before.seq + 1  # the message drew no seq
        engine.run()

    def test_message_in_past_rejected(self, engine):
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_message(1.0, ("chan", 0), lambda: None)

    def test_message_band_sorts_after_any_local_priority(self, engine):
        fired = []
        engine.schedule_message(1.0, ("chan", 0), fired.append, "message")
        engine.schedule_at(1.0, fired.append, "low", priority=1000)
        engine.run()
        assert fired == ["low", "message"]
        assert MESSAGE_PRIORITY > 1000


class TestTombstoneAccounting:
    def test_peek_pops_head_tombstones_and_credits_sweep(self, engine):
        cancelled = engine.schedule(1.0, lambda: None)
        live = engine.schedule(2.0, lambda: None)
        cancelled.cancel()
        swept_before = engine.heap_tombstones_swept
        assert engine.next_event_time() == 2.0
        assert engine.heap_tombstones_swept == swept_before + 1
        metrics = engine.metrics()
        assert metrics["heap_size"] == 1
        assert metrics["heap_tombstones"] == 0
        assert metrics["pending_events"] == 1
        live.cancel()

    def test_sweep_ledger_is_consistent_across_paths(self, engine):
        # Interleave cancels swept by _peek, step, run, and _compact; at
        # every observation point the derived tombstone figure must match
        # the heap-size / live-count gap exactly.
        events = [engine.schedule(float(i % 7), lambda: None)
                  for i in range(200)]
        for event in events[::3]:
            event.cancel()
        metrics = engine.metrics()
        assert metrics["heap_tombstones"] == (
            metrics["heap_size"] - metrics["pending_events"]
        )
        engine.next_event_time()
        engine.step()
        engine.run(until=3.0)
        metrics = engine.metrics()
        assert metrics["heap_tombstones"] == (
            metrics["heap_size"] - metrics["pending_events"]
        )
        engine.run()
        metrics = engine.metrics()
        assert metrics["heap_size"] == metrics["pending_events"] == 0
        assert metrics["heap_tombstones"] == 0

    def test_run_skips_tombstones_without_counting_them(self, engine):
        fired = []
        doomed = [engine.schedule(1.0, fired.append, f"doomed{i}")
                  for i in range(3)]
        engine.schedule(1.0, fired.append, "kept")
        for event in doomed:
            event.cancel()
        count = engine.run()
        assert count == 1
        assert fired == ["kept"]
        assert engine.processed_events == 1


class TestPrecomputedKeys:
    def test_event_key_matches_heap_entry(self, engine):
        event = engine.schedule_at(3.5, lambda: None, priority=2)
        assert event.sort_key() == (3.5, 2, event.seq)
        assert event.key == event.sort_key()

    def test_event_comparison_uses_key(self):
        early = Event(1.0, lambda: None, seq=1)
        late = Event(2.0, lambda: None, seq=0)
        assert early < late
        tie_a = Event(3.0, lambda: None, seq=2)
        tie_b = Event(3.0, lambda: None, seq=3)
        assert tie_a < tie_b  # FIFO via the seq
