"""Host demux from the flow key vs. the ``decode_ethernet`` route.

``Host.frame_received`` dispatches TCP, UDP and ICMP echo from the
port-independent flow key and one unpack, and decodes only ARP.  The
oracle here is the decode route it replaced (:class:`DecodeRouteHost`):
decode the frame, apply the NIC's MAC filter with address objects, and
dispatch the decoded ARP packet or IPv4 payload (``_handle_arp`` and
``_handle_ip``), answering echo requests through ``send_ip``.

Over TCP, UDP, ICMP echo request and reply, other ICMP types and ARP
frames of every opcode -- with the IPv4 version/IHL, header checksum and
total length, the TCP data offset, the UDP length, the ICMP checksum and
code, the ARP opcode and the frame length mutated -- both hosts must
make the same endpoint, UDP handler and ping calls, put the same bytes
on the wire, learn the same ARP entries and count the same statistics.
Each frame is delivered as plain bytes, as a fresh FastFrame and as a
FastFrame whose key a switch hop already memoized.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.dataplane import Host
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
from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.icmp import pack_echo
from repro.netlib.ipv4 import internet_checksum
from repro.sim import SimulationEngine

HOST_MAC = MacAddress(2)
HOST_IP = Ipv4Address("10.0.0.2")
PEER_MAC = MacAddress(1)
PEER_IP = Ipv4Address("10.0.0.1")
OTHER_IP = Ipv4Address("10.0.0.9")
SERVER_PORT = 5001
CLIENT_PORT = 49152
UDP_PORT = 4791
PING_ID = 7

_IP = 14          # IPv4 header offset
_L4 = _IP + 20    # L4 header offset


class DecodeRouteHost(Host):
    """The receive path before TCP, UDP and ICMP moved onto the flow key."""

    def frame_received(self, data):
        try:
            decoded = decode_ethernet(data)
        except FrameDecodeError:
            self.stats["dropped_runts"] += 1
            return
        dst = decoded.ethernet.dst
        if dst != self.mac and not dst.is_broadcast and not dst.is_multicast:
            return
        l3 = decoded.l3
        if isinstance(l3, ArpPacket):
            self._handle_arp(l3)
        elif isinstance(l3, Ipv4Packet) and l3.dst == self.ip:
            self._handle_ip(l3, decoded.l4)

    def _handle_ip(self, packet, l4):
        if isinstance(l4, IcmpEcho):
            if l4.is_request:
                self.stats["icmp_requests_answered"] += 1
                self.send_ip(packet.src, IpProtocol.ICMP, l4.reply().pack())
            elif l4.is_reply:
                run = self._ping_runs.get(l4.identifier)
                if run is not None:
                    run.reply_received(l4.sequence)
        elif isinstance(l4, UdpDatagram):
            handler = self._udp_handlers.get(l4.dst_port)
            if handler is not None:
                handler(int(packet.src), l4.src_port, l4.payload)
        elif isinstance(l4, TcpSegment):
            endpoint = self._iperf_servers.get(l4.dst_port)
            if endpoint is None:
                endpoint = self._iperf_clients.get(l4.dst_port)
            if endpoint is not None:
                endpoint.segment_received(int(packet.src), l4.src_port, l4.seq,
                                          l4.ack, int(l4.flags), len(l4.payload))


class Recorder:
    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def segment_received(self, *args):
        self.calls.append((self.name,) + args)

    def reply_received(self, seq):
        self.calls.append((self.name, seq))


def recording_host(cls=Host, peer_resolved=True):
    """A host with recording endpoints; returns ``(host, calls, wire)``."""
    host = cls(SimulationEngine(), "h", HOST_MAC, HOST_IP)
    wire = []
    host.attach(lambda data: wire.append(bytes(data)))
    calls = []
    host._iperf_servers[SERVER_PORT] = Recorder("server", calls)
    host._iperf_clients[CLIENT_PORT] = Recorder("client", calls)
    # A server owns its port: a client on the same port is never called.
    host._iperf_clients[SERVER_PORT] = Recorder("shadowed client", calls)
    host._ping_runs[PING_ID] = Recorder("ping", calls)
    host.register_udp_handler(
        UDP_PORT, lambda *args: calls.append(("udp",) + args))
    if peer_resolved:
        host.learn_arp(PEER_IP, PEER_MAC)
    return host, calls, wire


def deliveries(data):
    """``data`` as plain bytes, as a fresh FastFrame, and as a FastFrame
    whose key a switch hop already memoized."""
    warm = fastframe.FastFrame(data)
    try:
        fastframe.flow_key(warm, 1)
    except FrameDecodeError:
        pass
    return [bytes(data), fastframe.FastFrame(data), warm]


def fix_checksum(frame, at, start, end):
    struct.pack_into("!H", frame, at, 0)
    struct.pack_into("!H", frame, at, internet_checksum(bytes(frame[start:end])))


def arp_body(draw):
    opcode = draw(st.sampled_from([1, 2, 3, 0, 0xFFFF]))
    sender_ip = draw(st.sampled_from([PEER_IP, OTHER_IP]))
    target_ip = draw(st.sampled_from([HOST_IP, OTHER_IP]))
    sender_mac = draw(st.sampled_from([PEER_MAC, MacAddress(0x0A)]))
    body = bytearray(ArpPacket.request(sender_mac, sender_ip, target_ip).pack())
    struct.pack_into("!H", body, 6, opcode)
    return bytes(body)


def l4_body(draw, kind):
    payload = bytes(draw(st.sampled_from([0, 1, 7, 48, 64])))
    if kind == "tcp":
        return IpProtocol.TCP, TcpSegment(
            draw(st.sampled_from([CLIENT_PORT, SERVER_PORT, 80])),
            draw(st.sampled_from([SERVER_PORT, CLIENT_PORT, 80])),
            seq=draw(st.integers(0, 2**32 - 1)),
            ack=draw(st.integers(0, 2**32 - 1)),
            flags=draw(st.integers(0, 0xFF)),
            payload=payload,
        ).pack()
    if kind == "udp":
        return IpProtocol.UDP, UdpDatagram(
            draw(st.sampled_from([1234, UDP_PORT])),
            draw(st.sampled_from([UDP_PORT, 9999])),
            payload,
        ).pack()
    icmp_type = {"echo-request": 8, "echo-reply": 0}.get(kind)
    if icmp_type is None:  # destination unreachable, timestamp, ...
        icmp_type = draw(st.sampled_from([3, 5, 11, 13, 255]))
    return IpProtocol.ICMP, pack_echo(
        icmp_type, draw(st.sampled_from([PING_ID, 8])),
        draw(st.integers(0, 0xFFFF)), payload)


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(["tcp", "udp", "echo-request", "echo-reply",
                                 "icmp-other", "arp"]))
    dst_mac = draw(st.sampled_from([HOST_MAC, MacAddress(9),
                                    MacAddress("ff:ff:ff:ff:ff:ff"),
                                    MacAddress("01:00:5e:00:00:01")]))
    src_mac = draw(st.sampled_from([PEER_MAC, MacAddress(0x0A)]))
    if kind == "arp":
        frame = bytearray(EthernetFrame(dst_mac, src_mac, EtherType.ARP,
                                        arp_body(draw)).pack())
    else:
        protocol, l4 = l4_body(draw, kind)
        packet = Ipv4Packet(draw(st.sampled_from([PEER_IP, OTHER_IP])),
                            draw(st.sampled_from([HOST_IP, OTHER_IP])),
                            protocol, l4)
        frame = bytearray(EthernetFrame(dst_mac, src_mac, EtherType.IPV4,
                                        packet.pack()).pack())

    mutation = draw(st.sampled_from(
        ["none", "none", "version_ihl", "checksum", "total_length",
         "data_offset", "udp_length", "icmp_checksum", "icmp_code",
         "truncate", "padding"]))
    ipv4 = kind != "arp"
    if mutation == "version_ihl" and ipv4:
        frame[_IP] = draw(st.integers(0, 0xFF))
    elif mutation == "checksum" and ipv4:
        struct.pack_into("!H", frame, _IP + 10, draw(st.integers(0, 0xFFFF)))
    elif mutation == "total_length" and ipv4:
        struct.pack_into("!H", frame, _IP + 2, draw(st.one_of(
            st.integers(0, 60), st.integers(0, 0xFFFF))))
    elif mutation == "data_offset" and kind == "tcp":
        frame[_L4 + 12] = draw(st.integers(0, 0xFF))
    elif mutation == "udp_length" and kind == "udp":
        struct.pack_into("!H", frame, _L4 + 4, draw(st.one_of(
            st.integers(0, 16), st.integers(0, 0xFFFF))))
    elif mutation == "icmp_checksum" and kind.startswith(("echo", "icmp")):
        struct.pack_into("!H", frame, _L4 + 2, draw(st.integers(0, 0xFFFF)))
    elif mutation == "icmp_code" and kind.startswith(("echo", "icmp")):
        frame[_L4 + 1] = draw(st.integers(1, 0xFF))
        if draw(st.booleans()):  # a valid checksum, so the code decides
            fix_checksum(frame, _L4 + 2, _L4, len(frame))
    elif mutation == "truncate":
        del frame[draw(st.integers(0, len(frame))):]
    elif mutation == "padding":
        frame += bytes(draw(st.integers(1, 64)))
    # Most IPv4 header mutations also get a valid checksum, so the check
    # after the checksum (version, length) is what decides.
    if (ipv4 and mutation in ("version_ihl", "total_length", "data_offset")
            and len(frame) >= _L4 and draw(st.booleans())):
        fix_checksum(frame, _IP + 10, _IP, _L4)
    return bytes(frame)


def observed(host, calls, wire):
    return (list(calls), list(wire), dict(host.arp_table), dict(host.stats))


@settings(max_examples=600, deadline=None)
@given(st.lists(frames(), min_size=1, max_size=3), st.booleans())
def test_key_demux_makes_the_decode_routes_calls(sequence, peer_resolved):
    keyed = recording_host(peer_resolved=peer_resolved)
    decoded = recording_host(DecodeRouteHost, peer_resolved)
    for data in sequence:
        for delivered in deliveries(data):
            keyed[0].frame_received(delivered)
            decoded[0].frame_received(bytes(data))
            assert observed(*keyed) == observed(*decoded)


def test_an_intact_segment_is_dispatched_with_its_fields():
    host, calls, _ = recording_host()
    segment = TcpSegment(CLIENT_PORT, SERVER_PORT, seq=7, ack=9, flags=0x18,
                         payload=b"\x00" * 11)
    packet = Ipv4Packet(PEER_IP, HOST_IP, IpProtocol.TCP, segment.pack())
    data = EthernetFrame(HOST_MAC, PEER_MAC, EtherType.IPV4, packet.pack()).pack()
    for delivered in deliveries(data):
        calls.clear()
        host.frame_received(delivered)
        assert calls == [("server", int(PEER_IP), CLIENT_PORT, 7, 9, 0x18, 11)]


def test_an_intact_datagram_and_echo_reply_are_dispatched_with_their_fields():
    cases = [
        (IpProtocol.UDP, UdpDatagram(1234, UDP_PORT, b"hello").pack(),
         ("udp", int(PEER_IP), 1234, b"hello")),
        (IpProtocol.ICMP, pack_echo(0, PING_ID, 3, b"\x00" * 48),
         ("ping", 3)),
    ]
    for protocol, l4, call in cases:
        packet = Ipv4Packet(PEER_IP, HOST_IP, protocol, l4)
        data = EthernetFrame(HOST_MAC, PEER_MAC, EtherType.IPV4,
                             packet.pack()).pack()
        for delivered in deliveries(data):
            host, calls, wire = recording_host()
            host.frame_received(delivered)
            assert calls == [call] and wire == []


def test_an_echo_request_is_answered_with_its_fields():
    request = IcmpEcho.request(0x1234, 5, b"abc" * 16)
    packet = Ipv4Packet(PEER_IP, HOST_IP, IpProtocol.ICMP, request.pack())
    data = EthernetFrame(HOST_MAC, PEER_MAC, EtherType.IPV4, packet.pack()).pack()
    reply = Ipv4Packet(HOST_IP, PEER_IP, IpProtocol.ICMP, request.reply().pack())
    expected = EthernetFrame(PEER_MAC, HOST_MAC, EtherType.IPV4, reply.pack()).pack()
    host, calls, wire = recording_host()
    for delivered in deliveries(data):
        host.frame_received(delivered)
    assert wire == [expected] * 3 and calls == []
    assert host.stats["icmp_requests_answered"] == 3


def test_runts_are_dropped_and_counted():
    host, calls, wire = recording_host()
    for data in (b"", b"\x00" * 13):
        host.frame_received(data)
    assert host.stats["dropped_runts"] == 2
    assert calls == [] and wire == []
