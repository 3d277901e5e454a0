"""The switch's per-hop counters as ``stats`` kept them: the hop oracle.

:class:`HopCounts` wraps one :class:`repro.dataplane.switch.OpenFlowSwitch`
from outside and counts what its hop once wrote into ``stats`` on every
frame, by the same rules:

* ``rx_frames``: every ``frame_received`` call;
* ``flowkey_cache_hits``: flow-key fetches that found the frame's key
  for its arrival port already memoized on the FastFrame;
* ``flow_matches``: table lookups that returned an entry;
* ``tx_frames``: ``_transmit`` calls on a port whose carrier is up.

It also counts ``skipped``: arrivals that never reach the table, because
the switch forwards standalone or the frame is a runt.  The shipping
switch keeps none of the four counts; ``tests/dataplane/test_hop_counters.py``
requires each to equal the count that now answers it.

Install it before the switch is wired: it replaces ``frame_received``,
``_transmit`` and the table's ``lookup`` with instance attributes, and a
link captures the receiver it is given at attach time.
"""

from repro.netlib import fastframe
from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.fastframe import FastFrame

COUNTS = ("rx_frames", "flowkey_cache_hits", "flow_matches", "tx_frames")


class HopCounts:
    """The four per-hop counts of one switch, kept outside it."""

    def __init__(self, switch, monkeypatch) -> None:
        self.switch = switch
        self.rx_frames = 0
        self.flowkey_cache_hits = 0
        self.flow_matches = 0
        self.tx_frames = 0
        self.skipped = 0
        self._inside = 0  # frame_received calls in progress
        frame_received = switch.frame_received
        transmit = switch._transmit
        lookup = switch.flow_table.lookup
        flow_key = fastframe.flow_key

        def counted_frame_received(port_no, data):
            self.rx_frames += 1
            if switch.standalone_active and not switch.connected:
                self.skipped += 1
            self._inside += 1
            try:
                frame_received(port_no, data)
            finally:
                self._inside -= 1

        def counted_flow_key(data, in_port):
            if self._inside:
                by_port = data._by_port if type(data) is FastFrame else None
                if by_port is not None and in_port in by_port:
                    self.flowkey_cache_hits += 1
            try:
                return flow_key(data, in_port)
            except FrameDecodeError:
                if self._inside:
                    self.skipped += 1
                raise

        def counted_lookup(key):
            entry = lookup(key)
            if entry is not None:
                self.flow_matches += 1
            return entry

        def counted_transmit(port_no, data):
            if switch._tx.get(port_no) is not None:
                self.tx_frames += 1
            transmit(port_no, data)

        switch.frame_received = counted_frame_received
        switch._transmit = counted_transmit
        switch.flow_table.lookup = counted_lookup
        monkeypatch.setattr(fastframe, "flow_key", counted_flow_key)

    def counts(self):
        return {name: getattr(self, name) for name in COUNTS}
