"""Every per-hop count the switch dropped is still readable elsewhere.

A forwarded frame writes only OpenFlow's and the link model's own
counters: the entry's packet and byte counts, the table's ``lookups``
and ``matched``, and the link direction's ``tx_frames``.  The four
counts the hop once kept in ``OpenFlowSwitch.stats`` are counted here
from outside (``tests/dataplane/hop_reference.py``) and each must equal
where its fact now lives:

* frames received = the table's ``lookups`` + ``stats["rx_no_lookup"]``
  (standalone forwarding and runts, the arrivals that skip the table);
* flow matches = the table's ``matched``;
* frames transmitted = each port's link direction's ``tx_frames`` +
  ``dropped_frames``;
* flow-key cache hits = ``lookups`` minus the per-port keys memoized on
  the run's interned frames (a key built on a frame without a memoized
  base is a parse, which ``netlib.decodes`` counts in the benchmark).

The switch is driven through links and a scripted controller with
hypothesis: table hits (every action shape an entry can hold, and
bursts that fill the output queues), misses that send a PACKET_IN,
PACKET_OUTs to FLOOD, TABLE, IN_PORT, NORMAL, CONTROLLER and physical
ports (inline and buffered), ports going down and back up, lost
controllers in standalone and secure mode, and runts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import DataLink, FailMode, OpenFlowSwitch, connect_endpoints
from repro.netlib import EtherType, EthernetFrame, Ipv4Address, MacAddress
from repro.netlib.ipv4 import Ipv4Packet
from repro.netlib.udp import pack_datagram
from repro.openflow import (
    FeaturesRequest,
    Hello,
    Match,
    MessageFramer,
    OutputAction,
    PacketIn,
    PacketOut,
    Port,
)
from repro.openflow.actions import SetDlDstAction
from repro.openflow.constants import OFP_NO_BUFFER
from repro.sim import SimulationEngine
from tests.dataplane.hop_reference import COUNTS, HopCounts

PORTS = (1, 2, 3, 4)
MACS = [MacAddress(0x0A + i) for i in range(10)]  # the last two: no entry

#: One entry per destination MAC, one action shape each.
ENTRIES = (
    [OutputAction(1)],
    [OutputAction(Port.FLOOD)],
    [OutputAction(Port.NORMAL)],
    [OutputAction(Port.IN_PORT)],
    [SetDlDstAction(MACS[0]), OutputAction(2)],
    [OutputAction(Port.CONTROLLER)],
    [],
    [OutputAction(3), OutputAction(Port.ALL)],
)

OUT_PORTS = (Port.FLOOD, Port.ALL, Port.TABLE, Port.IN_PORT, Port.NORMAL,
             Port.CONTROLLER) + PORTS


def frame(src: int, dst: int, size: int) -> bytes:
    packet = Ipv4Packet(Ipv4Address(0x0A000000 + src),
                        Ipv4Address(0x0A000000 + dst), 17,
                        pack_datagram(4000 + src, 5000, bytes(size)))
    return EthernetFrame(MACS[dst], MACS[src], EtherType.IPV4,
                         packet.pack()).pack()


class Controller:
    """Completes the handshake on every connection; keeps PACKET_INs."""

    def __init__(self) -> None:
        self.channel = None
        self.framer = MessageFramer()
        self.packet_ins = []

    def channel_opened(self, channel) -> None:
        self.channel = channel
        self.framer = MessageFramer()
        self.send(Hello())
        self.send(FeaturesRequest())

    def bytes_received(self, channel, data) -> None:
        for message in self.framer.feed(data):
            if isinstance(message, PacketIn):
                self.packet_ins.append(message)

    def channel_closed(self, channel) -> None:
        pass

    def send(self, message) -> None:
        if self.channel is not None and self.channel.open:
            self.channel.send(message.pack())


class Rig:
    """One switch with four linked ports and a scripted controller."""

    def __init__(self, fail_mode: FailMode, patch) -> None:
        engine = self.engine = SimulationEngine()
        switch = self.switch = OpenFlowSwitch(engine, "s1", 1,
                                              fail_mode=fail_mode)
        self.hops = HopCounts(switch, patch)
        self.links = {}
        self.received = {port: [] for port in PORTS}
        for port in PORTS:
            link = self.links[port] = DataLink(engine, 10e6, 1e-4,
                                               queue_limit=2)
            switch.attach_port(port, link.send_from_a)
            link.attach_a(switch.frame_received, port)
            link.attach_b(self.received[port].append)
            link.add_status_observer(
                lambda up, port=port: switch.port_link_status(port, up))
        for dst, actions in enumerate(ENTRIES):
            switch.preinstall_flow(Match(dl_dst=MACS[dst]), actions)
        self.controller = Controller()
        switch.set_connect_factory(lambda sw: connect_endpoints(
            engine, sw, self.controller, latency_s=0.001)[0])
        switch.start()
        self.wait(0.1)

    def wait(self, seconds: float) -> None:
        self.engine.run(until=self.engine.now + seconds)

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "arrive":
            _, port, src, dst, size = op
            self.links[port].send_from_b(frame(src, dst, size))
        elif kind == "burst":  # every port at once: queues fill, tails drop
            _, dst, size = op
            for port in PORTS:
                for _ in range(2):
                    self.links[port].send_from_b(frame(port, dst, size))
        elif kind == "runt":
            _, port, size = op
            self.links[port].send_from_b(bytes(size))
        elif kind == "packet_out":
            _, out, in_port, dst = op
            self.controller.send(PacketOut(OFP_NO_BUFFER, in_port,
                                           [OutputAction(out)],
                                           frame(0, dst, 16)))
        elif kind == "release":
            _, out = op
            if self.controller.packet_ins:
                packet_in = self.controller.packet_ins[-1]
                self.controller.send(PacketOut(packet_in.buffer_id,
                                               packet_in.in_port,
                                               [OutputAction(out)]))
        elif kind == "carrier":
            _, port, up = op
            self.links[port].set_up(up)
        elif kind == "disconnect":
            if self.controller.channel is not None:
                self.controller.channel.close()
        elif kind == "wait":
            self.wait(op[1])
        self.wait(0.003)

    def sources(self):
        """Each removed count, read from where it now lives."""
        switch = self.switch
        table = switch.flow_table
        keys_built = sum(len(frame._by_port or ())
                         for frame in self.engine.ctx.frames.values())
        # check() holds rx_no_lookup to the copy's count of the arrivals
        # that skip the table; a switch that does not keep it reads the
        # copy's count here.
        return {
            "rx_frames": table.lookups + switch.stats.get(
                "rx_no_lookup", self.hops.skipped),
            "flowkey_cache_hits": table.lookups - keys_built,
            "flow_matches": table.matched,
            "tx_frames": sum(link._a_to_b.tx_frames
                             + link._a_to_b.dropped_frames
                             for link in self.links.values()),
        }


port_ = st.sampled_from(PORTS)
OPS = st.one_of(
    st.tuples(st.just("arrive"), port_, st.integers(0, 9), st.integers(0, 9),
              st.sampled_from((0, 16, 600))),
    st.tuples(st.just("burst"), st.integers(0, 9), st.sampled_from((16, 600))),
    st.tuples(st.just("runt"), port_, st.integers(0, 13)),
    st.tuples(st.just("packet_out"), st.sampled_from(OUT_PORTS), port_,
              st.integers(0, 9)),
    st.tuples(st.just("release"), st.sampled_from(OUT_PORTS)),
    st.tuples(st.just("carrier"), port_, st.booleans()),
    st.tuples(st.just("disconnect")),
    st.tuples(st.just("wait"), st.sampled_from((0.0005, 0.5, 6.0))),
)


def check(rig: Rig) -> None:
    counts = rig.hops.counts()
    stats = rig.switch.stats
    # The copy counts what the switch counted, wherever it still does.
    for name in COUNTS:
        if name in stats:
            assert stats[name] == counts[name], name
    if "rx_no_lookup" in stats:
        assert stats["rx_no_lookup"] == rig.hops.skipped
    assert counts == rig.sources()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((FailMode.STANDALONE, FailMode.SECURE)),
       st.lists(OPS, max_size=30))
def test_each_hop_count_equals_its_source(fail_mode, ops):
    with pytest.MonkeyPatch.context() as patch:
        rig = Rig(fail_mode, patch)
        for op in ops:
            rig.apply(op)
        rig.wait(1.0)
        check(rig)


def test_a_scripted_run_reaches_every_branch():
    """Every count moves, and every branch the property draws from runs."""
    with pytest.MonkeyPatch.context() as patch:
        rig = Rig(FailMode.STANDALONE, patch)
        for dst in range(10):
            rig.apply(("arrive", 1, 1, dst, 16))
            rig.apply(("arrive", 1, 1, dst, 16))  # the memoized key
        rig.apply(("wait", 0.5))
        rig.apply(("burst", 0, 600))
        rig.apply(("runt", 2, 8))
        for out in OUT_PORTS:
            rig.apply(("packet_out", out, 2, 0))
            rig.apply(("release", out))
        rig.apply(("carrier", 3, False))
        rig.apply(("arrive", 1, 1, 1, 16))  # flooded past the down port
        rig.apply(("carrier", 3, True))
        rig.apply(("disconnect",))
        rig.apply(("arrive", 2, 2, 9, 16))  # standalone
        rig.apply(("runt", 2, 4))
        rig.apply(("wait", 6.0))  # reconnected
        rig.apply(("arrive", 4, 4, 0, 600))
        rig.wait(1.0)

        counts = rig.hops.counts()
        assert all(counts.values()), counts
        assert rig.hops.skipped >= 2
        assert rig.controller.packet_ins
        assert rig.switch.connected
        assert any(link._a_to_b.dropped_frames for link in rig.links.values())
        check(rig)
