"""Integration tests for network assembly and direct controller wiring."""

import pytest

from repro.controllers import FloodlightController
from repro.dataplane import Network, Topology
from repro.sim import SimulationEngine
from tests.conftest import build_connected_network


def test_builds_devices_from_topology(engine, small_topology):
    network = Network(engine, small_topology)
    assert set(network.hosts) == {"h1", "h2"}
    assert set(network.switches) == {"s1", "s2"}
    assert len(network.links) == 3


def test_invalid_topology_rejected(engine):
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("h1", "s1")  # h2 unattached
    with pytest.raises(Exception):
        Network(engine, topo)


def test_all_switches_handshake(engine, small_topology):
    network, controller = build_connected_network(engine, small_topology)
    assert network.all_connected()
    assert len(controller.ready_sessions()) == 2


def test_ping_across_two_switches(engine, small_topology):
    network, _controller = build_connected_network(engine, small_topology)
    run = network.host("h1").ping(network.host_ip("h2"), count=3)
    engine.run(until=20.0)
    assert run.result.received == 3


def test_ping_within_star(engine, star_topology):
    network, _controller = build_connected_network(engine, star_topology)
    run1 = network.host("h1").ping(network.host_ip("h2"), count=2)
    run2 = network.host("h2").ping(network.host_ip("h3"), count=2)
    engine.run(until=20.0)
    assert run1.result.received == 2
    assert run2.result.received == 2


def test_iperf_approaches_link_rate(engine, small_topology):
    network, _controller = build_connected_network(engine, small_topology)
    network.host("h2").start_iperf_server()
    run = network.host("h1").run_iperf_client(network.host_ip("h2"),
                                              duration=1.0)
    engine.run(until=30.0)
    # 100 Mbps links: the simplified TCP should land in the 60-100 range.
    assert 60.0 < run.result.throughput_mbps <= 100.0


def test_unknown_switch_target_rejected(engine, small_topology):
    network = Network(engine, small_topology)
    controller = FloodlightController(engine)
    with pytest.raises(KeyError):
        network.set_controller_target("nope", controller)


def test_switch_without_target_stays_disconnected(engine, small_topology):
    network = Network(engine, small_topology)
    controller = FloodlightController(engine)
    network.set_controller_target("s1", controller)  # s2 left out
    network.start()
    engine.run(until=5.0)
    assert network.switch("s1").connected
    assert not network.switch("s2").connected


def test_total_stat_aggregation(engine, small_topology):
    network, _controller = build_connected_network(engine, small_topology)
    run = network.host("h1").ping(network.host_ip("h2"), count=1)
    engine.run(until=10.0)
    assert run.result.received == 1
    assert network.total_stat("packet_ins_sent") > 0
    assert sum(switch.flow_table.lookups + switch.stats["rx_no_lookup"]
               for switch in network.switches.values()) > 0
