"""Unit tests for events as heap entries: ``(time, band, seq, callback, args)``.

``step()`` returns the entry it fired, so these read the key each event
was given and the order the entries come off the heap.
"""

import pytest

from repro.sim import SimulationEngine, SimulationError
from repro.sim.engine import MESSAGE_PRIORITY


@pytest.fixture
def engine():
    return SimulationEngine()


def test_event_ordering_by_time(engine):
    engine.schedule_at(2.0, lambda: None)  # seq 0
    engine.schedule_at(1.0, lambda: None)  # seq 1, but earlier
    assert engine.step()[:3] == (1.0, 0, 1)
    assert engine.step()[:3] == (2.0, 0, 0)


def test_event_ordering_by_seq_on_tie(engine):
    engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(1.0, lambda: None)
    assert engine.step()[:3] == (1.0, 0, 0)  # scheduled first
    assert engine.step()[:3] == (1.0, 0, 1)


def test_event_ordering_by_priority_on_tie(engine):
    # The band is the key's priority: it decides a tie on time before
    # any sequence number is compared.
    engine.schedule_message(1.0, ("chan", 0), lambda: None)
    engine.schedule_at(1.0, lambda: None)
    assert engine.step()[:3] == (1.0, 0, 0)
    assert engine.step()[:3] == (1.0, MESSAGE_PRIORITY, ("chan", 0))


def test_negative_time_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule_at(-1.0, lambda: None)
    assert engine.pending_events == 0


def test_fire_invokes_callback_with_args(engine):
    seen = []
    engine.schedule(0.0, lambda x, y: seen.append((x, y)), 1, 2)
    engine.step()
    assert seen == [(1, 2)]
