"""Unit tests for the monitor suite."""

import tracemalloc

from repro.core.monitors import (
    ControlPlaneMonitor,
    IperfMonitor,
    LinkCapture,
    MonitorEvent,
    PingMonitor,
    RecordingMonitor,
)
from repro.core.lang.actions import OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage
from repro.dataplane import DataLink, Host, Network, Topology
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, Hello, Match, OutputAction
from repro.sim import SimulationEngine

CONN = ("c1", "s1")


def interposed(message):
    return InterposedMessage(CONN, Direction.TO_SWITCH, 1.0, message.pack(), message)


class TestRecordingMonitor:
    def test_record_and_query(self):
        monitor = RecordingMonitor("m")
        monitor.record(1.0, "a", {"x": 1})
        monitor.record(2.0, "b")
        monitor.record(3.0, "a")
        assert monitor.count("a") == 2
        assert len(monitor.events_of("b")) == 1
        assert [e.time for e in monitor.between(1.5, 3.0)] == [2.0, 3.0]

    def test_capacity_limit(self):
        monitor = RecordingMonitor("m", capacity=2)
        for index in range(5):
            monitor.record(float(index), "e")
        assert len(monitor) == 2
        assert monitor.dropped_events == 3

    def test_clear(self):
        monitor = RecordingMonitor("m")
        monitor.record(1.0, "a")
        monitor.clear()
        assert len(monitor) == 0


class TestControlPlaneMonitor:
    def test_message_accounting(self):
        monitor = ControlPlaneMonitor()
        msg = interposed(Hello())
        monitor.message_interposed(msg, [OutgoingMessage(msg)], 1.0)
        dropped = interposed(FlowMod(Match()))
        dropped.dropped = True  # the executor's verdict
        monitor.message_interposed(dropped, [], 1.5)
        assert monitor.total_messages() == 2
        assert monitor.count_of("HELLO") == 1
        assert monitor.count_of("FLOW_MOD") == 1
        assert monitor.dropped_by_type == {"FLOW_MOD": 1}
        assert monitor.dropped_total() == 1
        assert monitor.per_connection[CONN] == 2

    def test_rule_and_state_records(self):
        monitor = ControlPlaneMonitor()
        msg = interposed(Hello())
        monitor.rule_fired("sigma1", "phi1", msg)
        monitor.state_changed("sigma1", "sigma2", 2.0)
        assert monitor.fired_rules() == ["phi1"]
        assert monitor.visited_states() == ["sigma1", "sigma2"]

    def test_records_are_built_only_under_a_tracer(self):
        """The monitor only counts; the trace is the log, built by the
        proxy and the executor under a tracer."""
        monitor = ControlPlaneMonitor()
        msg = interposed(Hello())
        monitor.message_interposed(msg, [OutgoingMessage(msg)], 1.0)
        monitor.rule_fired("sigma1", "phi1", msg)
        monitor.state_changed("sigma1", "sigma2", 2.0)
        # The counters and lists the experiments read are kept regardless.
        assert monitor.count_of("HELLO") == 1
        assert monitor.fired_rules() == ["phi1"]
        assert monitor.visited_states() == ["sigma1", "sigma2"]

    def test_rule_log_keeps_names_only(self):
        """A fired rule costs the log one list slot: no tuple, and no
        timestamp kept alive (about 96 B per rule before)."""
        monitor = ControlPlaneMonitor()
        msg = interposed(Hello())
        count = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(count):
                msg.timestamp = index + 0.5
                monitor.rule_fired("sigma1", "phi1", msg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / count <= 16
        assert monitor.fired_rules() == ["phi1"] * count

    def test_visited_states_chains(self):
        monitor = ControlPlaneMonitor()
        monitor.state_changed("a", "b", 1.0)
        monitor.state_changed("b", "c", 2.0)
        assert monitor.visited_states() == ["a", "b", "c"]


class TestPingMonitor:
    def _pair(self, engine):
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
        h1.attach(lambda data: engine.schedule(0.001, h2.frame_received, data))
        h2.attach(lambda data: engine.schedule(0.001, h1.frame_received, data))
        return h1, h2

    def test_series_collected(self):
        engine = SimulationEngine()
        h1, h2 = self._pair(engine)
        monitor = PingMonitor()
        monitor.start_series(h1, h2.ip, count=3, label="test")
        engine.run(until=20.0)
        assert len(monitor.results) == 1
        assert monitor.results[0].received == 3
        assert monitor.overall_loss_rate() == 0.0
        assert monitor.median_rtt() is not None
        assert monitor.events_of("ping_series_done")[0].data["label"] == "test"

    def test_aggregates_across_series(self):
        engine = SimulationEngine()
        h1, h2 = self._pair(engine)
        monitor = PingMonitor()
        monitor.start_series(h1, h2.ip, count=2)
        monitor.start_series(h2, h1.ip, count=2)
        engine.run(until=20.0)
        assert len(monitor.all_rtts()) == 4

    def test_empty_monitor_aggregates(self):
        # The satellite contract: zero samples must aggregate to
        # well-defined values, never raise — experiments that end before
        # a probe window opens still summarize their monitors.
        monitor = PingMonitor()
        assert monitor.median_rtt() is None
        assert monitor.overall_loss_rate() == 0.0
        assert monitor.all_rtts() == []

    def test_zero_sent_series_aggregates(self):
        # A series can complete with nothing sent (e.g. the run's horizon
        # cut it off immediately); aggregates stay well-defined.
        from repro.dataplane.host import PingResult

        monitor = PingMonitor()
        monitor.results.append(PingResult(target=Ipv4Address("10.0.0.9")))
        assert monitor.overall_loss_rate() == 0.0
        assert monitor.median_rtt() is None

    def test_all_lost_series_aggregates(self):
        from repro.dataplane.host import PingResult

        monitor = PingMonitor()
        monitor.results.append(PingResult(
            target=Ipv4Address("10.0.0.9"), sent=4, received=0,
            rtts=[None] * 4))
        assert monitor.overall_loss_rate() == 1.0
        assert monitor.median_rtt() is None


class TestIperfMonitor:
    def test_trial_collected(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
        h1.attach(lambda data: engine.schedule(0.001, h2.frame_received, data))
        h2.attach(lambda data: engine.schedule(0.001, h1.frame_received, data))
        monitor = IperfMonitor()
        monitor.start_trial(h1, h2, duration=0.05)
        engine.run(until=30.0)
        assert len(monitor.results) == 1
        assert monitor.mean_throughput_mbps() > 0
        assert monitor.median_throughput_mbps() > 0
        assert monitor.connect_failures() == 0

    def test_empty_aggregates(self):
        monitor = IperfMonitor()
        assert monitor.mean_throughput_mbps() is None
        assert monitor.median_throughput_mbps() is None
        assert monitor.throughputs_mbps() == []
        assert monitor.connect_failures() == 0


class TestMonitorTracing:
    def test_record_emits_trace_event_with_sample_time(self):
        from repro.obs import TraceCollector

        monitor = RecordingMonitor(name="probe")
        tracer = TraceCollector(clock=lambda: 999.0)
        monitor.tracer = tracer
        monitor.record(12.5, "sample", {"value": 1})
        (event,) = tracer.events("monitor")
        # The sample's own timestamp wins over the collector clock.
        assert event["t"] == 12.5
        assert event["monitor"] == "probe"
        assert event["sample"] == "sample"
        assert event["data"] == {"value": 1}

    def test_capacity_drop_is_not_traced(self):
        from repro.obs import TraceCollector

        monitor = RecordingMonitor(name="probe", capacity=1)
        tracer = TraceCollector()
        monitor.tracer = tracer
        monitor.record(1.0, "kept")
        monitor.record(2.0, "dropped")
        assert monitor.dropped_events == 1
        assert tracer.count("monitor") == 1


class TestLinkCapture:
    def test_captures_both_directions(self):
        engine = SimulationEngine()
        link = DataLink(engine, 1e9, 0.0001, name="tap-me")
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
        h1.attach(link.send_from_a)
        h2.attach(link.send_from_b)
        link.attach_a(h1.frame_received)
        link.attach_b(h2.frame_received)
        capture = LinkCapture(engine, link)
        run = h1.ping(h2.ip, count=2)
        engine.run(until=20.0)
        assert run.result.received == 2
        assert capture.frames_of("arp") >= 2
        assert capture.frames_of("ipv4/icmp") == 4  # 2 requests + 2 replies
        directions = {e.data["direction"] for e in capture.events_of("frame")}
        assert directions == {"a->b", "b->a"}
        assert capture.bytes_total > 0

    def test_captures_switch_ports_and_still_forwards(self):
        """h1 - s1 - s2 - h2 with port-to-port flows and no controller.
        A capture on the host-switch link and one on the switch-switch
        link record every frame each direction carried exactly once, and
        the frames still reach the switch ports they arrive on: the
        pings go through."""
        engine = SimulationEngine()
        topology = Topology("capture")
        topology.add_host("h1")
        topology.add_host("h2")
        topology.add_switch("s1")
        topology.add_switch("s2")
        topology.add_link("h1", ("s1", 1))
        topology.add_link(("s1", 2), ("s2", 1))
        topology.add_link(("s2", 2), "h2")
        network = Network(engine, topology)
        for switch in network.switches.values():
            switch.preinstall_flow(Match(in_port=1), [OutputAction(2)])
            switch.preinstall_flow(Match(in_port=2), [OutputAction(1)])
        captures = [LinkCapture(engine, network.links[name])
                    for name in ("h1-s1#0", "s1-s2#1")]
        run = network.host("h1").ping(network.host_ip("h2"), count=2)
        engine.run(until=20.0)
        assert run.result.received == 2
        for capture in captures:
            link = capture.link
            recorded = [e.data["direction"] for e in capture.events_of("frame")]
            assert recorded.count("a->b") == link._a_to_b.tx_frames > 0
            assert recorded.count("b->a") == link._b_to_a.tx_frames > 0
            assert capture.frames_of("arp") == 2  # request + reply
            assert capture.frames_of("ipv4/icmp") == 4
        # s1 receives what h1 sent it and what s2 sent back over s1-s2.
        host_link, trunk = (capture.link for capture in captures)
        s1 = network.switch("s1")
        assert s1.flow_table.lookups + s1.stats["rx_no_lookup"] == (
            host_link._a_to_b.tx_frames + trunk._b_to_a.tx_frames)
