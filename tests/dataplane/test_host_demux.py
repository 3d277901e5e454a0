"""Host TCP demux from the flow key vs. the ``decode_ethernet`` route.

``Host.frame_received`` hands TCP segments to the iperf endpoints from
the port-independent flow key and one unpack, without decoding the
frame.  The oracle here is the decode route it replaced: decode the
frame, apply the NIC's MAC filter, check the IPv4 destination, and
dispatch the decoded segment by destination port.  Over mutated frames
(IPv4 version/IHL, header checksum, total length short/long/padded, TCP
data offset, truncation, foreign MAC or IP) both must make the same
endpoint calls, or none, or raise the same decode error.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.dataplane import Host
from repro.netlib import (
    EtherType,
    EthernetFrame,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    decode_ethernet,
    fastframe,
)
from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.ipv4 import internet_checksum
from repro.sim import SimulationEngine

HOST_MAC = MacAddress(2)
HOST_IP = Ipv4Address("10.0.0.2")
PEER_MAC = MacAddress(1)
PEER_IP = Ipv4Address("10.0.0.1")
SERVER_PORT = 5001
CLIENT_PORT = 49152

_IP = 14          # IPv4 header offset
_TCP = _IP + 20   # TCP header offset


class Recorder:
    def __init__(self, name, calls):
        self.name = name
        self.calls = calls

    def segment_received(self, *args):
        self.calls.append((self.name,) + args)


def recording_host():
    host = Host(SimulationEngine(), "h", HOST_MAC, HOST_IP)
    host.attach(lambda data: None)
    calls = []
    host._iperf_servers[SERVER_PORT] = Recorder("server", calls)
    host._iperf_clients[CLIENT_PORT] = Recorder("client", calls)
    # A server owns its port: a client on the same port is never called.
    host._iperf_clients[SERVER_PORT] = Recorder("shadowed client", calls)
    return host, calls


def reference_calls(host, data):
    """The endpoint calls the decode route makes for ``data``."""
    decoded = decode_ethernet(data)
    dst = decoded.ethernet.dst
    if dst != host.mac and not dst.is_broadcast and not dst.is_multicast:
        return []
    ip, segment = decoded.l3, decoded.l4
    if not isinstance(ip, Ipv4Packet) or ip.dst != host.ip:
        return []
    if not isinstance(segment, TcpSegment):
        return []
    for name, endpoints in (("server", host._iperf_servers),
                            ("client", host._iperf_clients)):
        if segment.dst_port in endpoints:
            return [(name, int(ip.src), segment.src_port, segment.seq,
                     segment.ack, int(segment.flags), len(segment.payload))]
    return []


def outcome(call):
    try:
        return call()
    except FrameDecodeError:
        return FrameDecodeError


def deliveries(data):
    """``data`` as plain bytes, as a fresh FastFrame, and as a FastFrame
    whose key a switch hop already memoized."""
    warm = fastframe.FastFrame(data)
    try:
        fastframe.flow_key(warm, 1)
    except FrameDecodeError:
        pass
    return [bytes(data), fastframe.FastFrame(data), warm]


@st.composite
def tcp_frames(draw):
    payload = bytes(draw(st.sampled_from([0, 1, 7, 64, 1460])))
    segment = TcpSegment(
        draw(st.sampled_from([CLIENT_PORT, SERVER_PORT, 80])),
        draw(st.sampled_from([SERVER_PORT, CLIENT_PORT, 80])),
        seq=draw(st.integers(0, 2**32 - 1)),
        ack=draw(st.integers(0, 2**32 - 1)),
        flags=draw(st.integers(0, 0xFF)),
        payload=payload,
    )
    dst_ip = draw(st.sampled_from([HOST_IP, Ipv4Address("10.0.0.9")]))
    dst_mac = draw(st.sampled_from([HOST_MAC, MacAddress(9),
                                    MacAddress("ff:ff:ff:ff:ff:ff")]))
    packet = Ipv4Packet(PEER_IP, dst_ip, IpProtocol.TCP, segment.pack())
    frame = bytearray(EthernetFrame(dst_mac, PEER_MAC, EtherType.IPV4,
                                    packet.pack()).pack())

    mutation = draw(st.sampled_from(
        ["none", "version_ihl", "checksum", "total_length", "data_offset",
         "truncate", "padding"]))
    if mutation == "version_ihl":
        frame[_IP] = draw(st.integers(0, 0xFF))
    elif mutation == "checksum":
        struct.pack_into("!H", frame, _IP + 10, draw(st.integers(0, 0xFFFF)))
    elif mutation == "total_length":
        struct.pack_into("!H", frame, _IP + 2, draw(st.one_of(
            st.integers(0, 60), st.integers(0, 0xFFFF))))
    elif mutation == "data_offset":
        frame[_TCP + 12] = draw(st.integers(0, 0xFF))
    elif mutation == "truncate":
        del frame[draw(st.integers(0, len(frame))):]
    elif mutation == "padding":
        frame += bytes(draw(st.integers(1, 64)))
    # Most header mutations also get a valid checksum, so the check after
    # the checksum (version, length, data offset) is what decides.
    if (mutation in ("version_ihl", "total_length", "data_offset")
            and len(frame) >= _TCP and draw(st.booleans())):
        struct.pack_into("!H", frame, _IP + 10, 0)
        struct.pack_into("!H", frame, _IP + 10,
                         internet_checksum(bytes(frame[_IP:_TCP])))
    return bytes(frame)


@settings(max_examples=400, deadline=None)
@given(tcp_frames())
def test_key_demux_makes_the_decode_routes_calls(data):
    host, calls = recording_host()
    expected = outcome(lambda: reference_calls(host, data))
    for delivered in deliveries(data):
        calls.clear()
        result = outcome(lambda: host.frame_received(delivered))
        if expected is FrameDecodeError:
            assert result is FrameDecodeError
        else:
            assert result is None
            assert calls == expected


def test_an_intact_segment_is_dispatched_with_its_fields():
    host, calls = recording_host()
    segment = TcpSegment(CLIENT_PORT, SERVER_PORT, seq=7, ack=9, flags=0x18,
                         payload=b"\x00" * 11)
    packet = Ipv4Packet(PEER_IP, HOST_IP, IpProtocol.TCP, segment.pack())
    data = EthernetFrame(HOST_MAC, PEER_MAC, EtherType.IPV4, packet.pack()).pack()
    for delivered in deliveries(data):
        calls.clear()
        host.frame_received(delivered)
        assert calls == [("server", int(PEER_IP), CLIENT_PORT, 7, 9, 0x18, 11)]
