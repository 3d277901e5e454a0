"""The apps' FLOW_MODs and PACKET_OUTs against their object-built packs.

The learning switch and the fabric router pack the round trip's
FLOW_MOD and PACKET_OUT from fields.  The oracle is what they sent
before: a ``FlowMod`` with its ``Match`` and ``OutputAction`` and a
``PacketOut``, built through the constructors and packed by
``codec_reference.reference_pack``, the FLOW_MOD's xid drawn before the
PACKET_OUT's.  Over sequences of PACKET_INs (TCP, UDP, ARP and non-IP
frames; unicast, broadcast and multicast; buffered or not) for the
Floodlight, POX and Ryu behaviours -- full and ``l2`` matches, release
by PACKET_OUT or by the FLOW_MOD's buffer id -- a session receives
exactly the reference bytes, in order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.controllers.apps import FabricRoutingApp, LearningSwitchApp
from repro.controllers.base import Controller
from repro.controllers.floodlight import FLOODLIGHT_BEHAVIOR
from repro.controllers.pox import POX_BEHAVIOR
from repro.controllers.ryu import RYU_BEHAVIOR
from repro.netlib import (
    ArpPacket,
    EtherType,
    EthernetFrame,
    IpProtocol,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    UdpDatagram,
)
from repro.netlib.addresses import BROADCAST_MAC
from repro.openflow import FlowMod, Match, OutputAction, PacketIn, PacketInReason, PacketOut
from repro.openflow.constants import OFP_NO_BUFFER, Port
from repro.sim import SimulationEngine
from tests.openflow.codec_reference import reference_pack

BEHAVIORS = (FLOODLIGHT_BEHAVIOR, POX_BEHAVIOR, RYU_BEHAVIOR)
HOSTS = [MacAddress(f"00:00:00:00:00:0{n}") for n in range(1, 5)]
GROUPS = [BROADCAST_MAC, MacAddress("01:00:5e:00:00:fb")]
IPS = [Ipv4Address(f"10.0.0.{n}") for n in range(1, 5)]
PORTS = (1, 2, 3, 4)
DATAPATH_ID = 7


def frame(kind, src, dst):
    """An Ethernet frame from host ``src`` to MAC ``dst``."""
    if kind == "arp":
        payload = ArpPacket.request(HOSTS[src], IPS[src], IPS[(src + 1) % 4]).pack()
        return EthernetFrame(dst, HOSTS[src], EtherType.ARP, payload).pack()
    if kind == "opaque":
        return EthernetFrame(dst, HOSTS[src], 0x9000, b"o" * 46).pack()
    if kind == "tcp":
        protocol, l4 = IpProtocol.TCP, TcpSegment(40000 + src, 5001, payload=b"d" * 200)
    else:
        protocol, l4 = IpProtocol.UDP, UdpDatagram(5353, 53, b"q" * 64)
    packet = Ipv4Packet(IPS[src], IPS[(src + 2) % 4], protocol, l4.pack())
    return EthernetFrame(dst, HOSTS[src], EtherType.IPV4, packet.pack()).pack()


@st.composite
def packet_ins(draw):
    """A PACKET_IN as a switch sends it: the frame cut to the 128-byte
    ``miss_send_len``, buffered under some id or not buffered."""
    src = draw(st.integers(0, 3))
    dst = draw(st.one_of(st.sampled_from(HOSTS), st.sampled_from(GROUPS)))
    data = frame(draw(st.sampled_from(["tcp", "udp", "arp", "opaque"])), src, dst)
    buffer_id = draw(st.one_of(st.just(OFP_NO_BUFFER), st.integers(0, OFP_NO_BUFFER - 1)))
    in_port = draw(st.sampled_from(PORTS))
    return miss(buffer_id, in_port, data[:128])


def miss(buffer_id, in_port, data):
    """The table-miss PACKET_IN of ``data``."""
    return PacketIn(buffer_id, len(data), in_port, PacketInReason.NO_MATCH, data)


class RecordingSession:
    """The session surface the apps use; ``sent`` logs each send's bytes."""

    def __init__(self):
        self.datapath_id = DATAPATH_ID
        self.app_state = {}
        self.sent = []

    def send(self, data):
        assert type(data) is bytes
        self.sent.append(data)


def dispatch(app, messages):
    """The bytes ``app`` sends for ``messages``, dispatched as the
    controller dispatches PACKET_INs."""
    controller = Controller(SimulationEngine(), apps=[app])
    session = RecordingSession()
    for message in messages:
        controller._dispatch_packet_in(session, message)
    return session.sent


# --------------------------------------------------------------------- #
# The reference: object-built messages, xids in send order
# --------------------------------------------------------------------- #

def reference_release(xids, message, actions):
    buffered = message.buffer_id != OFP_NO_BUFFER
    return PacketOut(buffer_id=message.buffer_id, in_port=message.in_port, actions=actions,
                     data=b"" if buffered else message.data, xid=next(xids))


def reference_install(behavior, xids, message, out_port):
    if behavior.match_granularity == "l2":
        match = Match(in_port=message.in_port, dl_src=MacAddress(message.data[6:12]),
                      dl_dst=MacAddress(message.data[:6]))
    else:
        match = Match.from_packet(message.data, message.in_port)
    actions = [OutputAction(out_port)]
    via_flow_mod = behavior.release_via == "flow_mod"
    sent = [FlowMod(match, idle_timeout=behavior.idle_timeout,
                    hard_timeout=behavior.hard_timeout, priority=behavior.priority,
                    buffer_id=message.buffer_id if via_flow_mod else OFP_NO_BUFFER,
                    actions=actions, xid=next(xids))]
    if not via_flow_mod:
        sent.append(reference_release(xids, message, actions))
    return sent


def reference_learning(behavior, messages):
    xids, table, sent = itertools.count(1), {}, []
    for message in messages:
        src, dst = message.data[6:12], message.data[:6]
        table[src] = message.in_port
        out_port = table.get(dst)
        if dst[0] & 1 or out_port is None:  # the I/G bit: broadcast or multicast
            sent.append(reference_release(xids, message, [OutputAction(Port.FLOOD)]))
        elif out_port != message.in_port:
            sent.extend(reference_install(behavior, xids, message, out_port))
    return [reference_pack(message) for message in sent]


def reference_routing(behavior, routes, messages):
    xids, sent = itertools.count(1), []
    for message in messages:
        dst = message.data[:6]
        out_port = None if dst[0] & 1 else routes.get(int.from_bytes(dst, "big"))
        if out_port is not None and out_port != message.in_port:
            sent.extend(reference_install(behavior, xids, message, out_port))
    return [reference_pack(message) for message in sent]


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BEHAVIORS), st.lists(packet_ins(), min_size=1, max_size=12))
def test_learning_switch_sends_the_reference_bytes(behavior, messages):
    expected = reference_learning(behavior, messages)
    assert dispatch(LearningSwitchApp(behavior), messages) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BEHAVIORS),
       st.dictionaries(st.sampled_from([int(mac) for mac in HOSTS]), st.sampled_from(PORTS)),
       st.lists(packet_ins(), min_size=1, max_size=12))
def test_fabric_router_sends_the_reference_bytes(behavior, routes, messages):
    expected = reference_routing(behavior, routes, messages)
    app = FabricRoutingApp({DATAPATH_ID: routes}, behavior)
    assert dispatch(app, messages) == expected


def test_each_behaviour_installs_and_releases_its_way():
    """A flood, then one learned destination, buffered and not: a
    FLOW_MOD alone for POX, a FLOW_MOD and a PACKET_OUT for the others."""
    flood_a = miss(5, 1, frame("tcp", 0, HOSTS[1]))
    for behavior in BEHAVIORS:
        for buffer_id in (9, OFP_NO_BUFFER):
            reply = miss(buffer_id, 2, frame("tcp", 1, HOSTS[0])[:128])
            sent = dispatch(LearningSwitchApp(behavior), [flood_a, reply])
            assert sent == reference_learning(behavior, [flood_a, reply])
            assert len(sent) == (2 if behavior is POX_BEHAVIOR else 3)
