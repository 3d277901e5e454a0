"""Unit tests for the host network stack (ARP, ICMP, TCP workloads)."""

import hashlib

import pytest

import repro.dataplane.host as host_module
from repro.dataplane import Host
from repro.experiments import run_suppression_experiment
from repro.netlib import (
    ArpPacket,
    EtherType,
    EthernetFrame,
    IcmpEcho,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    UdpDatagram,
    decode_ethernet,
    fastframe,
)
from repro.netlib.fastframe import FastFrame
from repro.netlib.flowkey import extract_flow_base, extract_flow_key
from repro.sim import SimulationEngine


def make_pair(engine):
    """Two hosts wired back to back with a zero-latency software 'cable'."""
    h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
    h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
    h1.attach(lambda data: engine.schedule(0.0001, h2.frame_received, data))
    h2.attach(lambda data: engine.schedule(0.0001, h1.frame_received, data))
    return h1, h2


class TestArp:
    def test_resolution_then_delivery(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        run = h1.ping(h2.ip, count=1)
        engine.run(until=5.0)
        assert run.result.received == 1
        assert h1.arp_table[h2.ip] == h2.mac
        assert h1.stats["arp_requests_sent"] == 1

    def test_opportunistic_learning_from_request(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        h1.ping(h2.ip, count=1)
        engine.run(until=5.0)
        # h2 learned h1's mapping from the request itself.
        assert h2.arp_table[h1.ip] == h1.mac
        assert h2.stats["arp_replies_sent"] == 1

    def test_queued_packets_flushed_after_resolution(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        run = h1.ping(h2.ip, count=3, interval=0.001)  # all before resolution
        engine.run(until=5.0)
        assert run.result.received == 3

    def test_resolution_failure_drops_after_retries(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h1.attach(lambda data: None)  # black hole
        run = h1.ping(Ipv4Address("10.0.0.99"), count=1)
        engine.run(until=10.0)
        assert run.result.received == 0
        assert h1.stats["arp_resolution_failures"] == 1
        assert h1.stats["arp_requests_sent"] == Host.ARP_RETRIES

    def test_unicast_for_other_host_ignored(self):
        engine = SimulationEngine()
        h1, _h2 = make_pair(engine)
        stranger = EthernetFrame(MacAddress(9), MacAddress(8), EtherType.IPV4, b"x")
        h1.frame_received(stranger.pack())
        assert h1.stats["icmp_requests_answered"] == 0


class TestPing:
    def test_rtt_measured(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        run = h1.ping(h2.ip, count=2, interval=1.0)
        engine.run(until=10.0)
        result = run.result
        assert result.received == 2
        assert all(rtt is not None and rtt < 0.01 for rtt in result.rtts)
        assert result.min_rtt <= result.median_rtt <= result.max_rtt

    def test_loss_accounting(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h1.attach(lambda data: None)
        run = h1.ping(Ipv4Address("10.0.0.2"), count=4, interval=0.5)
        engine.run(until=10.0)
        assert run.result.loss_rate == 1.0
        assert not run.result.any_success
        assert run.result.median_rtt is None

    def test_done_signal_fires_once(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        run = h1.ping(h2.ip, count=1)
        done = []
        run.on_done.append(done.append)
        engine.run(until=10.0)
        assert done == [run.result]

    def test_late_reply_not_counted(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
        # 0.8 s one-way: RTT 1.6 s > 1 s timeout.
        h1.attach(lambda data: engine.schedule(0.8, h2.frame_received, data))
        h2.attach(lambda data: engine.schedule(0.8, h1.frame_received, data))
        run = h1.ping(h2.ip, count=1, timeout=1.0)
        engine.run(until=20.0)
        assert run.result.received == 0


class TestIperf:
    def test_transfer_measures_throughput(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.05)
        engine.run(until=20.0)
        result = run.result
        assert result.connected
        assert result.bytes_acked > 0
        assert result.throughput_mbps > 1.0

    def test_connect_failure_yields_zero(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h1.attach(lambda data: None)
        run = h1.run_iperf_client(Ipv4Address("10.0.0.2"), duration=1.0)
        engine.run(until=30.0)
        assert not run.result.connected
        assert run.result.throughput_bps == 0.0

    def test_no_server_means_rst_and_zero(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)  # h2 has no iperf server
        run = h1.run_iperf_client(h2.ip, duration=1.0)
        engine.run(until=30.0)
        assert not run.result.connected

    def test_retransmission_recovers_from_loss(self):
        engine = SimulationEngine()
        h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
        h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))
        dropped = {"count": 0}

        def lossy(data):
            # Drop exactly one data segment mid-stream.
            decoded = decode_ethernet(data)
            if (decoded.l4 is not None and hasattr(decoded.l4, "payload")
                    and len(decoded.l4.payload) > 1000
                    and dropped["count"] == 0):
                dropped["count"] += 1
                return
            engine.schedule(0.0001, h2.frame_received, data)

        h1.attach(lossy)
        h2.attach(lambda data: engine.schedule(0.0001, h1.frame_received, data))
        h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.1)
        engine.run(until=30.0)
        assert dropped["count"] == 1
        assert run.result.retransmits >= 1
        assert run.result.bytes_acked > 0

    def test_server_tracks_received_bytes(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        server = h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.05)
        engine.run(until=20.0)
        total = sum(server.bytes_received.values())
        assert total >= run.result.bytes_acked


class TestUdp:
    def test_udp_handler_dispatch(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        received = []
        h2.register_udp_handler(9999, lambda src, port, payload: received.append(
            (str(Ipv4Address(src)), port, payload)))
        h1.send_udp(h2.ip, 1234, 9999, b"hello")
        engine.run(until=10.0)
        assert received == [("10.0.0.1", 1234, b"hello")]

    def test_unregistered_port_ignored(self):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        h1.send_udp(h2.ip, 1234, 777, b"nobody-home")
        engine.run(until=10.0)  # must not raise


def tcp_of(data):
    """The decoded TCP segment of ``data``, or None."""
    decoded = decode_ethernet(bytes(data))
    return decoded.l4 if isinstance(decoded.l4, TcpSegment) else None


def capture_tcp_frames(monkeypatch):
    """Record ``(host name, sim time, frame)`` for every TCP frame a host
    puts on the wire."""
    sent = []
    original = Host.inject_frame

    def capturing(self, data):
        if tcp_of(data) is not None:
            sent.append((self.name, self.engine.now, data))
        return original(self, data)

    monkeypatch.setattr(Host, "inject_frame", capturing)
    return sent


def assert_keyed(frame):
    """The frame's memo is what a fresh parse of its bytes gives, and its
    bytes are what the layer codecs build for the decoded segment."""
    raw = bytes(frame)
    assert type(frame) is FastFrame
    assert frame._base == extract_flow_base(raw)
    for port, key in frame._by_port.items():
        assert key == extract_flow_key(raw, port)
    decoded = decode_ethernet(raw)
    ip = decoded.l3
    rebuilt = EthernetFrame(decoded.ethernet.dst, decoded.ethernet.src, EtherType.IPV4,
                            Ipv4Packet(ip.src, ip.dst, ip.protocol,
                                       decoded.l4.pack()).pack()).pack()
    assert rebuilt == raw


def resolved_pair(engine, deliver_to_h2=None):
    """``make_pair`` after one ping, so both ARP tables are warm;
    ``deliver_to_h2(data)`` may drop h1's frames by returning False."""
    h1 = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
    h2 = Host(engine, "h2", MacAddress(2), Ipv4Address("10.0.0.2"))

    def h1_tx(data):
        if deliver_to_h2 is None or deliver_to_h2(data):
            engine.schedule(0.0001, h2.frame_received, data)

    h1.attach(h1_tx)
    h2.attach(lambda data: engine.schedule(0.0001, h1.frame_received, data))
    h1.ping(h2.ip, count=1)
    engine.run(until=1.0)
    return h1, h2


def kinds(sent):
    """(sender, flags, payload length) of each captured frame."""
    return {(name, int(tcp_of(frame).flags), len(tcp_of(frame).payload))
            for name, _, frame in sent}


class TestKeyedSegments:
    """The TCP senders emit pre-keyed frames: each frame's flow-key memo
    must equal a fresh parse of its bytes."""

    def test_two_host_run_covers_every_segment_kind(self, monkeypatch):
        sent = capture_tcp_frames(monkeypatch)
        engine = SimulationEngine()

        # Black-hole h1's data around the client's deadline, so the
        # retransmission after it ends on a window-limited short chunk.
        def deliver(data):
            segment = tcp_of(data)
            return not (segment and segment.payload and 1.045 <= engine.now <= 1.06)

        h1, h2 = resolved_pair(engine, deliver)
        h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.05)
        engine.run(until=30.0)
        assert run.result.retransmits >= 1
        # A restarted server has no session: the next data segment is
        # answered with RST, which ends the second transfer.
        second = h1.run_iperf_client(h2.ip, duration=0.05)
        engine.schedule(0.01, h2.start_iperf_server)
        engine.run(until=60.0)
        assert second.result.connected and second.finished

        ack, syn, fin, rst = 0x10, 0x02, 0x01, 0x04
        seen = kinds(sent)
        mss = host_module._IperfClient.MSS
        assert ("h1", syn, 0) in seen
        assert ("h2", syn | ack, 0) in seen
        assert ("h1", ack, mss) in seen
        assert ("h2", ack, 0) in seen
        assert ("h1", fin | ack, 0) in seen and ("h2", fin | ack, 0) in seen
        assert ("h2", rst, 0) in seen
        assert any(name == "h1" and flags == ack and 0 < length < mss
                   for name, flags, length in seen)
        for _, _, frame in sent:
            assert_keyed(frame)

    def test_fig11_cell_frames_and_switch_memos(self, monkeypatch):
        sent = capture_tcp_frames(monkeypatch)
        result = run_suppression_experiment(
            "pox", attacked=False, ping_trials=2, iperf_trials=1,
            iperf_duration_s=0.2, iperf_gap_s=0.5, warmup_s=2, seed=0)
        assert result.mean_throughput_mbps > 10
        assert len(sent) > 1000
        # Every switch hop on the path filled the shared per-port memo.
        assert all(frame._by_port for _, _, frame in sent)
        for _, _, frame in sent:
            assert_keyed(frame)

    def test_peer_mac_relearn_moves_later_segments(self, monkeypatch):
        sent = capture_tcp_frames(monkeypatch)
        engine = SimulationEngine()
        h1, h2 = resolved_pair(engine)
        h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.05)
        spoofed = MacAddress(0x0A)
        cuts = [0]

        def relearn(mac):
            reply = ArpPacket.reply(mac, h2.ip, h1.mac, h1.ip)
            h1.frame_received(EthernetFrame(h1.mac, mac, EtherType.ARP,
                                            reply.pack()).pack())
            cuts.append(len(sent))

        # An ARP reply moves h2's address to another MAC mid-transfer
        # (h2 drops what is sent there); a second one moves it back.
        engine.schedule(0.02, relearn, spoofed)
        engine.schedule(0.5, relearn, h2.mac)
        engine.run(until=30.0)
        assert run.result.bytes_acked > 0 and run.finished

        cuts.append(len(sent))
        phases = [[frame for name, _, frame in sent[start:end] if name == "h1"]
                  for start, end in zip(cuts, cuts[1:])]
        for frames, mac in zip(phases, (h2.mac, spoofed, h2.mac)):
            assert frames
            for frame in frames:
                assert_keyed(frame)
                assert decode_ethernet(bytes(frame)).ethernet.dst == mac
                assert frame._base[1] == int(mac)  # dl_dst
        # Each re-learn starts a new memo; frames of one phase share one.
        memos = [{id(frame._by_port) for frame in frames} for frames in phases]
        assert all(len(ids) == 1 for ids in memos)
        assert len(set.union(*memos)) == 3


class TestRetransmitTimer:
    """The sender keeps one retransmit deadline: a timeout fires exactly
    RTO after the last advancing ACK, and no timer outlives the sender."""

    #: sha256 of the (time, seq, ack, flags, length) rows of every TCP
    #: segment of the lossy transfer below.
    LOSSY_SEGMENTS_SHA256 = (
        "f9cf0b8fa897eb894697f0860a9714f0052c2a64968b20d1f7cd0eaf512bf929")

    def test_lossy_transfer_segment_timing(self, monkeypatch):
        sent = capture_tcp_frames(monkeypatch)
        engine = SimulationEngine()

        # Black-hole h1's data twice: early on, so ACKs stop while the
        # timer armed at the first send is still pending, and around the
        # client's deadline (established + 0.51 s), so the second timeout
        # retransmits without sending new data.
        def deliver(data):
            segment = tcp_of(data)
            now = engine.now
            return not (segment and segment.payload
                        and (1.002 <= now <= 1.003 or 1.509 <= now <= 1.512))

        h1, h2 = resolved_pair(engine, deliver)
        h2.start_iperf_server()
        run = h1.run_iperf_client(h2.ip, duration=0.51)
        engine.run(until=30.0)
        assert run.finished and run.result.retransmits == 2

        # Each timeout comes RTO after the last ACK reached h1 (h2 sends
        # nothing in between), not RTO after the send that armed it.
        rto = host_module._IperfClient.RTO
        data = [(time, tcp_of(frame).seq) for name, time, frame in sent
                if name == "h1" and tcp_of(frame).payload]
        go_back = [time for (time, seq), (_, prev) in zip(data[1:], data)
                   if seq < prev]
        assert len(go_back) == 2
        for time in go_back:
            last_ack = max(t for name, t, _ in sent if name == "h2" and t < time)
            assert time == pytest.approx(last_ack + 0.0001 + rto)

        rows = [(time, segment.seq, segment.ack, int(segment.flags),
                 len(segment.payload))
                for _, time, frame in sent for segment in [tcp_of(frame)]]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
            self.LOSSY_SEGMENTS_SHA256

    def test_no_frame_or_done_after_finish(self, monkeypatch):
        sent = capture_tcp_frames(monkeypatch)
        engine = SimulationEngine()
        h1, h2 = resolved_pair(engine)
        h2.start_iperf_server()
        duration = 0.01
        run = h1.run_iperf_client(h2.ip, duration=duration)
        done = []
        run.on_done.append(done.append)
        while not run.finished:
            assert engine.step() is not None
        frames = len(sent)
        # Past the give-up time (established + duration + 10 s): the
        # pending retransmit and give-up events fire and do nothing.
        engine.run(until=engine.now + duration + 11.0)
        assert [name for name, _, _ in sent[frames:]] == ["h2"]  # its FIN
        assert done == [run.result]
        assert engine.pending_events == 0


def capture_datagrams(monkeypatch):
    """Record ``(host name, frame)`` for every UDP and ICMP frame a host
    puts on the wire."""
    sent = []
    original = Host.inject_frame

    def capturing(self, data):
        l4 = decode_ethernet(bytes(data)).l4
        if isinstance(l4, (UdpDatagram, IcmpEcho)):
            sent.append((self.name, data))
        return original(self, data)

    monkeypatch.setattr(Host, "inject_frame", capturing)
    return sent


class TestKeyedDatagrams:
    """UDP and ICMP echo go out as pre-keyed frames too: each frame's
    flow-key memo must equal a fresh parse of its bytes, and its bytes
    what the layer codecs build."""

    def test_two_host_ping_and_udp(self, monkeypatch):
        engine = SimulationEngine()
        h1, h2 = make_pair(engine)
        sent = capture_datagrams(monkeypatch)
        # Before resolution the senders queue through send_ip, whose
        # frames are plain bytes.
        h1.send_udp(h2.ip, 1234, 9999, b"early")
        engine.run(until=1.0)
        assert [type(frame) for _, frame in sent] == [bytes]
        sent.clear()

        h1.ping(h2.ip, count=3, interval=0.01)
        for payload in (b"a", b"bb" * 40, b"a"):
            h1.send_udp(h2.ip, 1234, 9999, payload)
        h1.send_udp(h2.ip, 1235, 9999, b"other flow")
        h2.send_udp(h1.ip, 9999, 1234, b"back")
        engine.run(until=2.0)

        flows = {}
        for name, frame in sent:
            assert_keyed(frame)
            l4 = decode_ethernet(bytes(frame)).l4
            pair = ((l4.src_port, l4.dst_port) if isinstance(l4, UdpDatagram)
                    else (int(l4.icmp_type), 0))
            flows.setdefault((name, pair), set()).add(id(frame._by_port))
        # Echo requests, echo replies and three UDP flows, one memo each.
        assert sorted(flows) == [
            ("h1", (8, 0)), ("h1", (1234, 9999)), ("h1", (1235, 9999)),
            ("h2", (0, 0)), ("h2", (9999, 1234))]
        assert all(len(memos) == 1 for memos in flows.values())
        assert len(set.union(*flows.values())) == len(flows)

    def test_fabric_frames_and_switch_memos(self, monkeypatch):
        from repro.experiments import run_fabric_experiment

        sent = capture_datagrams(monkeypatch)
        udp = run_fabric_experiment("fat-tree-k4", pairs=4, packets=5)
        assert udp.packets_delivered == udp.packets_sent == 20
        ping = run_fabric_experiment("fat-tree-k4", controller="floodlight",
                                     workload="ping", pairs=4, packets=3)
        assert ping.ping_received == ping.ping_sent == 12
        assert len(sent) == 20 + 2 * 12
        # Every switch hop on the path filled the shared per-port memo.
        assert all(frame._by_port for _, frame in sent)
        for _, frame in sent:
            assert_keyed(frame)


def test_tcp_segments_skip_decode_and_parse_once_per_connection(monkeypatch):
    """With the fast lane on, no TCP segment is decoded at a host, and
    each direction of a connection is parsed once, when its memo is built."""
    decoded_tcp = []
    parsed_tcp = []
    real_decode = host_module.decode_ethernet
    real_parse = fastframe.extract_flow_base

    def decode(data):
        if tcp_of(data) is not None:
            decoded_tcp.append(data)
        return real_decode(data)

    def parse(data):
        # A memo is built on a FastFrame; plain bytes (a controller's
        # PACKET_IN data) are parsed where they are read.
        if type(data) is FastFrame and tcp_of(data) is not None:
            parsed_tcp.append(data)
        return real_parse(data)

    monkeypatch.setattr(host_module, "decode_ethernet", decode)
    monkeypatch.setattr(fastframe, "extract_flow_base", parse)
    sent = capture_tcp_frames(monkeypatch)
    run_suppression_experiment(
        "pox", attacked=False, ping_trials=2, iperf_trials=2,
        iperf_duration_s=0.2, iperf_gap_s=0.5, warmup_s=2, seed=0)
    assert len(sent) > 1000
    assert decoded_tcp == []
    directions = {bytes(frame[:12]) + bytes(frame[26:38]) for _, _, frame in sent}
    assert len(directions) == 4  # two connections, two directions each
    assert 0 < len(parsed_tcp) <= len(directions)


def test_unattached_host_raises():
    engine = SimulationEngine()
    host = Host(engine, "h1", MacAddress(1), Ipv4Address("10.0.0.1"))
    with pytest.raises(RuntimeError):
        host.send_ip(Ipv4Address("10.0.0.2"), 1, b"")
