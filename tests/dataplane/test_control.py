"""Unit tests for the control-channel plumbing."""

import math

import pytest

from repro.dataplane import connect_endpoints
from repro.dataplane.control import ControlChannel
from repro.sim import SimulationEngine
from repro.sim.engine import SimulationError


class FakeEndpoint:
    def __init__(self):
        self.opened = []
        self.received = []
        self.closed = []

    def channel_opened(self, channel):
        self.opened.append(channel)

    def bytes_received(self, channel, data):
        self.received.append(data)

    def channel_closed(self, channel):
        self.closed.append(channel)


def test_both_endpoints_notified_after_latency():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    connect_endpoints(engine, a, b, latency_s=0.5)
    assert a.opened == [] and b.opened == []
    engine.run()
    assert len(a.opened) == 1 and len(b.opened) == 1
    assert engine.now == 0.5


def test_bidirectional_bytes():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, chan_b = connect_endpoints(engine, a, b, latency_s=0.1)
    chan_a.send(b"from-a")
    chan_b.send(b"from-b")
    engine.run()
    assert b.received == [b"from-a"]
    assert a.received == [b"from-b"]


def test_in_order_delivery():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, _chan_b = connect_endpoints(engine, a, b, latency_s=0.1)
    for index in range(10):
        chan_a.send(bytes([index]))
    engine.run()
    assert b.received == [bytes([index]) for index in range(10)]


def test_close_notifies_peer_only():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, chan_b = connect_endpoints(engine, a, b, latency_s=0.1)
    engine.run()
    chan_a.close()
    engine.run()
    assert b.closed == [chan_b]
    assert a.closed == []  # the closer gets no callback


def test_send_after_close_is_silent():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, _chan_b = connect_endpoints(engine, a, b, latency_s=0.1)
    engine.run()
    chan_a.close()
    chan_a.send(b"lost")
    engine.run()
    assert b.received == []


def test_bytes_in_flight_when_receiver_closes_are_dropped():
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, chan_b = connect_endpoints(engine, a, b, latency_s=1.0)
    engine.run(until=1.0)
    chan_a.send(b"slow")       # arrives at t=2
    engine.schedule(0.5, chan_b.close)  # b closes at t=1.5
    engine.run()
    assert b.received == []


@pytest.mark.parametrize("latency", [-0.001, math.nan])
def test_bad_latency_is_refused_when_the_channel_is_built(latency):
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        ControlChannel(engine, FakeEndpoint(), latency, "bad")
    with pytest.raises(SimulationError):
        connect_endpoints(engine, FakeEndpoint(), FakeEndpoint(), latency_s=latency)
    assert engine.pending_events == 0


def test_delivery_is_keyed_like_schedule():
    """A send draws the next event seq as ``engine.schedule`` does, so it
    keeps its place among timers due at the same instant, and the clock
    reads a float even for an int latency."""
    engine = SimulationEngine()
    a, b = FakeEndpoint(), FakeEndpoint()
    chan_a, _chan_b = connect_endpoints(engine, a, b, latency_s=1)
    engine.run()
    fired = []
    b.bytes_received = lambda channel, data: fired.append((data, engine.now))
    engine.schedule(1, lambda: fired.append(("before", engine.now)))
    chan_a.send(b"data")
    engine.schedule(1, lambda: fired.append(("after", engine.now)))
    engine.run()
    assert fired == [("before", 2.0), (b"data", 2.0), ("after", 2.0)]
    assert type(fired[1][1]) is float
