"""The tuple-space FlowTable against the linear-scan reference.

A stateful hypothesis machine drives :class:`FlowTable` and
:class:`ReferenceFlowTable` with the same operations -- ADD, MODIFY(_STRICT)
and DELETE(_STRICT) with and without ``out_port``, lookups, ``record_use``
at an advancing time, expiry and ``clear`` -- under every eviction policy
at a small capacity.  Matches span ``in_port``, ``dl_dst``,
``nw_src``/``nw_dst`` at /0 to /32 (host bits under the prefix included),
``tp_dst``, fully specified twelve-tuples and tied priorities.  Each step compares what both
tables return (removed/evicted and expired entries in order, lookup
winners); after every step they must also agree on a fixed set of probe
packets, on their entries in install order and on their counters, and
every key in the exact-match cache must map to the reference's winner
for that packet.
"""

import itertools

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.dataplane.flowtable import CACHE_MAX, EVICTION_POLICIES, FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction, Port
from repro.openflow.match import OFP_VLAN_NONE
from tests.dataplane.flowtable_reference import ReferenceFlowTable, record_use
from tests.netlib.flowkey_reference import field_tuple

MACS = (MacAddress(1), MacAddress(2), MacAddress(3))
# 10.0.0.1 and 10.0.0.5 share a /24 but differ in host bits; 10.0.1.7
# shares their /16, 10.1.0.0 their /8.
ADDRS = tuple(Ipv4Address(a) for a in
              ("10.0.0.1", "10.0.0.5", "10.0.1.7", "10.1.0.0", "192.168.0.1"))
PREFIXES = (0, 1, 8, 16, 24, 31, 32)
PRIORITIES = (0, 1, 2)


def maybe(*values):
    """A field value, wildcarded half the time so that entries overlap."""
    return st.one_of(st.none(), st.sampled_from(values))


def packet(in_port, dl_dst, nw_src, nw_dst, tp_dst):
    """A TCP packet's flow key."""
    return field_tuple({
        "in_port": in_port, "dl_src": MACS[0], "dl_dst": dl_dst,
        "dl_vlan": OFP_VLAN_NONE, "dl_vlan_pcp": 0, "dl_type": 0x0800,
        "nw_tos": 0, "nw_proto": 6, "nw_src": nw_src, "nw_dst": nw_dst,
        "tp_src": 1000, "tp_dst": tp_dst,
    })


packets = st.builds(
    packet,
    in_port=st.sampled_from((1, 2, 3)),
    dl_dst=st.sampled_from(MACS),
    nw_src=st.sampled_from((None,) + ADDRS),
    nw_dst=st.sampled_from((None,) + ADDRS),
    tp_dst=st.sampled_from((None, 80, 443)),
)

wildcard_matches = st.builds(
    Match,
    in_port=maybe(1, 2),
    dl_dst=maybe(*MACS[:2]),
    nw_src=maybe(*ADDRS),
    nw_src_prefix=st.sampled_from(PREFIXES),
    nw_dst=maybe(*ADDRS),
    nw_dst_prefix=st.sampled_from(PREFIXES),
    tp_dst=maybe(80, 443),
)

# What learning controllers install: every field the packet defines.
exact_matches = packets.map(Match.from_key)

matches = st.one_of(wildcard_matches, exact_matches)

PROBES = [packet(in_port, dl_dst, src, dst, tp_dst)
          for in_port, dl_dst, src, dst, tp_dst in (
              (1, MACS[0], ADDRS[0], ADDRS[1], 80),
              (1, MACS[1], ADDRS[1], ADDRS[2], 443),
              (2, MACS[0], ADDRS[2], ADDRS[3], 80),
              (2, MACS[1], ADDRS[3], ADDRS[0], None),
              (3, MACS[2], ADDRS[4], ADDRS[4], 443),
              (1, MACS[0], None, None, None),
          )]


def sig(entry):
    """What identifies an entry across the two tables (orders differ)."""
    if entry is None:
        return None
    return (entry.match.pack(), entry.priority, entry.cookie,
            tuple(entry.actions), entry.install_time, entry.last_used,
            entry.packet_count)


class FlowTableOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.cookies = itertools.count(1)

    @initialize(eviction=st.sampled_from(EVICTION_POLICIES),
                capacity=st.integers(min_value=1, max_value=6))
    def build(self, eviction, capacity):
        self.table = FlowTable(max_entries=capacity, eviction=eviction)
        self.reference = ReferenceFlowTable(max_entries=capacity, eviction=eviction)

    def _apply(self, match, command, priority, out, out_port=Port.NONE,
               idle=0, hard=0):
        flow_mod = FlowMod(match, command, priority=priority,
                           actions=[OutputAction(out)], out_port=out_port,
                           cookie=next(self.cookies), idle_timeout=idle,
                           hard_timeout=hard)
        removed, full = self.table.apply_flow_mod(flow_mod, self.now)
        want_removed, want_full = self.reference.apply_flow_mod(flow_mod, self.now)
        assert full == want_full
        assert [sig(e) for e in removed] == [sig(e) for e in want_removed]

    @rule(match=wildcard_matches, priority=st.sampled_from(PRIORITIES),
          out=st.sampled_from((1, 2)), idle=st.sampled_from((0, 1, 3)),
          hard=st.sampled_from((0, 2, 5)))
    def add_wildcard(self, match, priority, out, idle, hard):
        self._apply(match, FlowModCommand.ADD, priority, out, idle=idle, hard=hard)

    @rule(match=exact_matches, priority=st.sampled_from(PRIORITIES),
          out=st.sampled_from((1, 2)), idle=st.sampled_from((0, 1, 3)))
    def add_exact(self, match, priority, out, idle):
        self._apply(match, FlowModCommand.ADD, priority, out, idle=idle)

    @rule(index=st.integers(min_value=0, max_value=5),
          priority=st.sampled_from(PRIORITIES), out=st.sampled_from((1, 2)))
    def add_again(self, index, priority, out):
        """Re-ADD an installed match: a replacement at its own priority,
        a second entry in the same hash bucket at another."""
        if len(self.reference):
            match = self.reference.entries[index % len(self.reference)].match
            self._apply(match, FlowModCommand.ADD, priority, out)

    @rule(match=matches, priority=st.sampled_from(PRIORITIES),
          strict=st.booleans(), out=st.sampled_from((1, 2)))
    def modify(self, match, priority, strict, out):
        command = FlowModCommand.MODIFY_STRICT if strict else FlowModCommand.MODIFY
        self._apply(match, command, priority, out)

    @rule(match=st.one_of(matches, st.just(Match.wildcard_all())),
          priority=st.sampled_from(PRIORITIES), strict=st.booleans(),
          out_port=st.sampled_from((Port.NONE, 1, 2)))
    def delete(self, match, priority, strict, out_port):
        command = FlowModCommand.DELETE_STRICT if strict else FlowModCommand.DELETE
        self._apply(match, command, priority, 1, out_port=out_port)

    @rule(key=packets)
    def lookup(self, key):
        assert sig(self.table.lookup(key)) == sig(self.reference.lookup(key))

    @rule(index=st.integers(min_value=0, max_value=5),
          dt=st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    def record_use(self, index, dt):
        self.now += dt
        if len(self.reference):
            index %= len(self.reference)
            record_use(self.table.entries[index], self.now, 64)
            record_use(self.reference.entries[index], self.now, 64)

    @rule(dt=st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    def expire(self, dt):
        self.now += dt
        got = [(sig(e), reason) for e, reason in self.table.expire(self.now)]
        want = [(sig(e), reason) for e, reason in self.reference.expire(self.now)]
        assert got == want

    @rule()
    def clear(self):
        assert ([sig(e) for e in self.table.clear()]
                == [sig(e) for e in self.reference.clear()])

    @invariant()
    def same_probe_winners(self):
        for key in PROBES:
            assert sig(self.table.lookup(key)) == sig(self.reference.lookup(key))

    @invariant()
    def same_entries_in_install_order(self):
        assert len(self.table) == len(self.reference)
        assert ([sig(e) for e in self.table.entries]
                == [sig(e) for e in self.reference.entries])

    @invariant()
    def same_counters(self):
        for name in ("lookups", "matched", "capacity_evictions", "occupancy_peak"):
            assert getattr(self.table, name) == getattr(self.reference, name)

    @invariant()
    def lru_heap_stays_bounded(self):
        assert len(self.table._lru) <= 2 * len(self.table)

    @invariant()
    def cache_holds_current_winners_within_its_bound(self):
        cache = self.table._cache
        assert len(cache) <= CACHE_MAX
        for key, entry in cache.items():
            assert sig(entry) == sig(self.reference.winner(key))


FlowTableOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestFlowTableAgainstReference = FlowTableOracle.TestCase


def add(table, match, priority=0x8000, out_port=2, now=0.0, **kwargs):
    flow_mod = FlowMod(match, command=FlowModCommand.ADD, priority=priority,
                       actions=[OutputAction(out_port)], **kwargs)
    return table.apply_flow_mod(flow_mod, now=now)


def exact_match(host_octet=2, port=80, in_port=1):
    return Match.from_key(packet(in_port, MACS[1], Ipv4Address("10.0.0.1"),
                                 Ipv4Address(f"10.0.0.{host_octet}"), port))


class TestEquivalenceWithLinearScan:
    def populated(self):
        tables = FlowTable(), ReferenceFlowTable()
        for table in tables:
            # Mix of exact entries, overlapping wildcards, and priorities.
            for octet in range(2, 10):
                add(table, exact_match(octet), priority=100 + octet,
                    out_port=octet)
            add(table, Match(in_port=1), priority=50, out_port=20)
            add(table, Match(tp_dst=80), priority=105, out_port=21)
            add(table, Match(nw_dst=Ipv4Address("10.0.0.0"),
                             nw_dst_prefix=24), priority=300, out_port=22)
            add(table, Match.wildcard_all(), priority=1, out_port=23)
        return tables

    def probes(self):
        return [packet(1, MACS[1], Ipv4Address("10.0.0.1"), Ipv4Address(dst), 80)
                for dst in [f"10.0.0.{octet}" for octet in range(2, 12)]
                + ["192.168.1.1"]]

    def test_every_probe_agrees(self):
        table, reference = self.populated()
        for key in self.probes():
            assert sig(table.lookup(key)) == sig(reference.lookup(key))

    def test_agreement_survives_mutation(self):
        table, reference = self.populated()
        delete = FlowMod(Match(in_port=1), command=FlowModCommand.DELETE)
        for each in (table, reference):
            each.apply_flow_mod(delete, now=0.0)
        for key in self.probes():
            assert sig(table.lookup(key)) == sig(reference.lookup(key))


def test_priority_tie_across_masks_goes_to_the_earliest_install():
    """The mask probed first may hold the later entry of a priority tie,
    so the scan must not stop at a mask whose top priority only ties."""
    table = FlowTable()
    add(table, Match(tp_dst=443), priority=5, out_port=1)  # tp_dst mask first
    add(table, Match(in_port=1), priority=5, out_port=2)
    add(table, Match(tp_dst=80), priority=5, out_port=3)
    winner = table.lookup(packet(1, MACS[1], None, None, 80))
    assert winner.actions == [OutputAction(2)]


def test_host_bits_under_a_prefix_are_part_of_strict_identity():
    """10.0.0.1/24 and 10.0.0.5/24 match the same packets but are
    different flows for ADD-replace and DELETE_STRICT (``pack()``)."""
    table = FlowTable()
    for host in ("10.0.0.1", "10.0.0.5"):
        add(table, Match(nw_src=Ipv4Address(host), nw_src_prefix=24), priority=7)
    assert len(table) == 2
    delete = FlowMod(Match(nw_src=Ipv4Address("10.0.0.5"), nw_src_prefix=24),
                     command=FlowModCommand.DELETE_STRICT, priority=7)
    (removed,), _ = table.apply_flow_mod(delete, now=0.0)
    assert str(removed.match.nw_src) == "10.0.0.5"
    assert [str(e.match.nw_src) for e in table.entries] == ["10.0.0.1"]


def test_lru_heap_is_rebuilt_when_entries_idle_expire():
    """An lru table whose entries mostly idle-expire keeps its heap
    within twice the live entries."""
    table = FlowTable(max_entries=1000, eviction="lru")
    add(table, Match(in_port=1))  # permanent
    for tick in range(50):
        now = float(tick)
        for port in range(2, 22):
            add(table, Match(in_port=port, tp_dst=tick), now=now, idle_timeout=1)
        table.expire(now + 1.0)
        assert len(table) == 1
        assert len(table._lru) <= 2 * len(table)
