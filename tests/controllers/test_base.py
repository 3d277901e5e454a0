"""Unit tests for controller session management and liveness."""

import math

import pytest

from repro.controllers import FloodlightController
from repro.controllers.base import Controller, SessionState
from repro.dataplane import Network
from repro.sim import SimulationEngine
from tests.conftest import build_connected_network


def test_sessions_reach_ready(engine, small_topology):
    _network, controller = build_connected_network(engine, small_topology)
    sessions = controller.ready_sessions()
    assert len(sessions) == 2
    assert {s.datapath_id for s in sessions} == {1, 2}


def test_session_for_dpid(engine, small_topology):
    _network, controller = build_connected_network(engine, small_topology)
    assert controller.session_for_dpid(1) is not None
    assert controller.session_for_dpid(99) is None


def test_session_ports_learned_from_features(engine, small_topology):
    _network, controller = build_connected_network(engine, small_topology)
    session = controller.session_for_dpid(1)
    assert session.ports == [1, 2]


def test_controller_counts_connections(engine, small_topology):
    _network, controller = build_connected_network(engine, small_topology)
    assert controller.stats["connections_accepted"] == 2


def test_switch_down_notifies_apps(engine, small_topology):
    network, controller = build_connected_network(engine, small_topology)
    downs = []

    class Spy:
        def switch_ready(self, controller, session):
            pass

        def switch_down(self, controller, session):
            downs.append(session.datapath_id)

        def packet_in(self, *args):
            return False

        def flow_removed(self, *args):
            pass

        def port_status(self, *args):
            pass

        def error_received(self, *args):
            pass

    controller.apps.insert(0, Spy())
    network.switch("s1").channel.close()
    engine.run(until=engine.now + 2.0)
    assert downs == [1]


def test_controller_echo_timeout_drops_silent_switch(engine, small_topology):
    network, controller = build_connected_network(engine, small_topology)
    switch = network.switch("s1")
    # Silence the switch entirely: it stops answering and stops probing.
    switch.bytes_received = lambda channel, data: None
    switch._liveness_tick = lambda: None
    engine.run(until=engine.now + controller.ECHO_TIMEOUT + 3.0)
    assert controller.stats["echo_requests_sent"] >= 1
    assert controller.stats["connections_lost"] >= 1


def test_garbage_stream_drops_session(engine, small_topology):
    network, controller = build_connected_network(engine, small_topology)
    switch = network.switch("s1")
    # Send bytes that cannot ever frame as OpenFlow (impossible length).
    switch.channel.send(b"\x01\x00\x00\x01\x00\x00\x00\x00")
    engine.run(until=engine.now + 2.0)
    assert controller.stats["decode_errors"] == 1
    assert len(controller.ready_sessions()) == 1


def test_flow_removed_dispatched_to_apps(engine, small_topology):
    """POX-style flows expire and the controller hears about it."""
    from repro.controllers import PoxController
    from repro.openflow import FlowMod, Match, OutputAction
    from repro.openflow.constants import FlowModFlags

    network, controller = build_connected_network(
        engine, small_topology, PoxController
    )
    removed = []

    class Spy:
        def switch_ready(self, *a):
            pass

        def switch_down(self, *a):
            pass

        def packet_in(self, *a):
            return False

        def flow_removed(self, controller, session, message):
            removed.append(message.match)

        def port_status(self, *a):
            pass

        def error_received(self, *a):
            pass

    controller.apps.insert(0, Spy())
    session = controller.session_for_dpid(1)
    session.send(FlowMod(Match(in_port=1), idle_timeout=1,
                         flags=int(FlowModFlags.SEND_FLOW_REM),
                         actions=[OutputAction(2)]).pack())
    engine.run(until=engine.now + 5.0)
    assert len(removed) == 1


@pytest.mark.parametrize("service_time", [-0.001, math.nan])
def test_bad_service_time_is_refused_at_init(service_time):
    """The service queue pushes onto the engine heap itself, so its delay
    is checked once, when the controller is built."""
    class Broken(Controller):
        SERVICE_TIME = service_time

    with pytest.raises(ValueError):
        Broken(SimulationEngine())
