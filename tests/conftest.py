"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.controllers import FloodlightController
from repro.dataplane import Network, Topology
from repro.sim import SimulationEngine


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def small_topology() -> Topology:
    """h1 - s1 - s2 - h2 with default 100 Mbps links."""
    topo = Topology("small")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.add_link("h1", "s1")
    topo.add_link("s1", "s2")
    topo.add_link("h2", "s2")
    return topo


@pytest.fixture
def star_topology() -> Topology:
    """Three hosts on one switch."""
    topo = Topology("star")
    topo.add_switch("s1")
    for index in range(1, 4):
        topo.add_host(f"h{index}")
        topo.add_link(f"h{index}", "s1")
    return topo


def build_connected_network(engine, topology, controller_cls=FloodlightController):
    """Wire a network directly to a controller and run the handshakes."""
    network = Network(engine, topology)
    controller = controller_cls(engine)
    network.set_all_controller_targets(controller)
    network.start()
    engine.run(until=5.0)
    assert network.all_connected()
    return network, controller
