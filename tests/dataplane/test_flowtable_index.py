"""Lookups that hit the flow table's hashed fully-specified entries.

Fully-specified matches (what ``Match.from_packet`` builds) and wildcard
entries share the tuple-space classifier; these pin priority and
install-order resolution between them across adds, replacements, deletes,
expiry and clears.  ``test_flowtable_oracle.py`` compares the whole table
with the linear scan.
"""

import pytest

from repro.dataplane.flowtable import FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from repro.openflow.constants import OFP_NO_BUFFER, Port
from repro.netlib.flowkey import extract_flow_key
from repro.openflow.match import OFP_VLAN_NONE
from repro.netlib.ethernet import EthernetFrame
from repro.netlib.ipv4 import Ipv4Packet
from repro.netlib.tcp import TcpSegment


def exact_match(host_octet=2, port=80, in_port=1):
    """A fully-specified twelve-tuple (what Match.from_packet produces)."""
    return Match(
        in_port=in_port,
        dl_src=MacAddress("00:00:00:00:00:01"),
        dl_dst=MacAddress("00:00:00:00:00:02"),
        dl_vlan=OFP_VLAN_NONE,
        dl_vlan_pcp=0,
        dl_type=0x0800,
        nw_tos=0,
        nw_proto=6,
        nw_src=Ipv4Address("10.0.0.1"),
        nw_dst=Ipv4Address(f"10.0.0.{host_octet}"),
        tp_src=1234,
        tp_dst=port,
    )


def add(table, match, priority=0x8000, out_port=2, **kwargs):
    flow_mod = FlowMod(match, command=FlowModCommand.ADD, priority=priority,
                       actions=[OutputAction(out_port)], **kwargs)
    return table.apply_flow_mod(flow_mod, now=0.0)


class TestIndexedLookup:
    def test_exact_entry_found_via_hash(self):
        table = FlowTable()
        add(table, exact_match(), out_port=7)
        entry = table.lookup(exact_match().key)
        assert entry is not None
        assert entry.actions[0].port == 7

    def test_miss_returns_none(self):
        table = FlowTable()
        add(table, exact_match(2))
        assert table.lookup(exact_match(3).key) is None

    def test_higher_priority_wildcard_beats_exact(self):
        table = FlowTable()
        add(table, exact_match(), priority=100, out_port=2)
        add(table, Match(in_port=1), priority=200, out_port=9)
        winner = table.lookup(exact_match().key)
        assert winner.actions[0].port == 9

    def test_exact_beats_lower_priority_wildcard(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=100, out_port=9)
        add(table, exact_match(), priority=200, out_port=2)
        winner = table.lookup(exact_match().key)
        assert winner.actions[0].port == 2

    def test_priority_tie_resolves_to_earliest_install(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=100, out_port=3)
        add(table, exact_match(), priority=100, out_port=5)
        winner = table.lookup(exact_match().key)
        assert winner.actions[0].port == 3  # wildcard installed first

    def test_add_replaces_indexed_entry(self):
        table = FlowTable()
        add(table, exact_match(), out_port=2)
        add(table, exact_match(), out_port=8)  # same match+priority replaces
        assert len(table) == 1
        assert table.lookup(exact_match().key).actions[0].port == 8

    def test_delete_removes_from_index(self):
        table = FlowTable()
        add(table, exact_match())
        delete = FlowMod(Match.wildcard_all(), command=FlowModCommand.DELETE,
                         out_port=Port.NONE)
        removed, _ = table.apply_flow_mod(delete, now=0.0)
        assert len(removed) == 1
        assert table.lookup(exact_match().key) is None

    def test_expire_removes_from_index(self):
        table = FlowTable()
        add(table, exact_match(), hard_timeout=5)
        assert table.lookup(exact_match().key) is not None
        expired = table.expire(now=10.0)
        assert [reason for _, reason in expired] == ["hard"]
        assert table.lookup(exact_match().key) is None

    def test_clear_empties_index(self):
        table = FlowTable()
        add(table, exact_match())
        add(table, Match(in_port=1))
        table.clear()
        assert table.lookup(exact_match().key) is None


class TestPacketPathStillWorks:
    def test_lookup_from_real_packet_fields(self):
        """End-to-end: extract fields from wire bytes, hit the hash index."""
        payload = TcpSegment(1234, 80, seq=1, ack=0, flags=0x02).pack()
        ip = Ipv4Packet(Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2"),
                        6, payload).pack()
        frame = EthernetFrame(MacAddress("00:00:00:00:00:02"),
                              MacAddress("00:00:00:00:00:01"),
                              0x0800, ip).pack()
        key = extract_flow_key(frame, in_port=1)
        table = FlowTable()
        add(table, Match.from_packet(frame, in_port=1), out_port=6)
        entry = table.lookup(key)
        assert entry is not None
        assert entry.actions[0].port == 6
