"""Unit + property tests for the OF 1.0 flow table."""

from hypothesis import given, strategies as st

from repro.dataplane import FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction, Port
from repro.openflow.constants import FlowModFlags
from tests.dataplane.flowtable_reference import record_use
from tests.netlib.flowkey_reference import field_tuple

FIELDS = field_tuple({
    "in_port": 1,
    "dl_src": MacAddress(1),
    "dl_dst": MacAddress(2),
    "dl_vlan": 0xFFFF,
    "dl_vlan_pcp": 0,
    "dl_type": 0x0800,
    "nw_tos": 0,
    "nw_proto": 6,
    "nw_src": Ipv4Address("10.0.0.1"),
    "nw_dst": Ipv4Address("10.0.0.2"),
    "tp_src": 1000,
    "tp_dst": 80,
})


def add(table, match, priority=1, actions=None, now=0.0, **kwargs):
    flow_mod = FlowMod(match, FlowModCommand.ADD, priority=priority,
                       actions=actions if actions is not None else [OutputAction(2)],
                       **kwargs)
    return table.apply_flow_mod(flow_mod, now)


class TestAddAndLookup:
    def test_add_then_match(self):
        table = FlowTable()
        add(table, Match(in_port=1))
        entry = table.lookup(FIELDS)
        assert entry is not None
        assert entry.actions == [OutputAction(2)]

    def test_miss_returns_none(self):
        table = FlowTable()
        add(table, Match(in_port=9))
        assert table.lookup(FIELDS) is None

    def test_highest_priority_wins(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=1, actions=[OutputAction(1)])
        add(table, Match(in_port=1), priority=10, actions=[OutputAction(9)])
        assert table.lookup(FIELDS).actions == [OutputAction(9)]

    def test_tie_resolves_to_earliest_installed(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=5, actions=[OutputAction(1)])
        add(table, Match(dl_type=0x0800), priority=5, actions=[OutputAction(2)])
        assert table.lookup(FIELDS).actions == [OutputAction(1)]

    def test_identical_add_replaces(self):
        table = FlowTable()
        add(table, Match(in_port=1), priority=5, actions=[OutputAction(1)])
        add(table, Match(in_port=1), priority=5, actions=[OutputAction(7)])
        assert len(table) == 1
        assert table.lookup(FIELDS).actions == [OutputAction(7)]

    def test_table_full_reported(self):
        table = FlowTable(max_entries=1)
        add(table, Match(in_port=1))
        _removed, full = add(table, Match(in_port=2))
        assert full
        assert len(table) == 1

    def test_lookup_statistics(self):
        table = FlowTable()
        add(table, Match(in_port=1))
        table.lookup(FIELDS)
        table.lookup((9,) + FIELDS[1:])
        assert table.lookups == 2
        assert table.matched == 1


class TestDelete:
    def test_delete_wildcard_removes_all(self):
        table = FlowTable()
        add(table, Match(in_port=1))
        add(table, Match(in_port=2))
        removed, _ = table.apply_flow_mod(
            FlowMod(Match.wildcard_all(), FlowModCommand.DELETE), 0.0
        )
        assert len(removed) == 2
        assert len(table) == 0

    def test_delete_non_strict_subsumption(self):
        table = FlowTable()
        add(table, Match(in_port=1, tp_dst=80))
        add(table, Match(in_port=2))
        table.apply_flow_mod(FlowMod(Match(in_port=1), FlowModCommand.DELETE), 0.0)
        assert len(table) == 1  # only the in_port=1 entry was subsumed

    def test_delete_strict_requires_exact(self):
        table = FlowTable()
        add(table, Match(in_port=1, tp_dst=80), priority=3)
        table.apply_flow_mod(
            FlowMod(Match(in_port=1), FlowModCommand.DELETE_STRICT, priority=3), 0.0
        )
        assert len(table) == 1  # not strictly equal -> untouched
        table.apply_flow_mod(
            FlowMod(Match(in_port=1, tp_dst=80), FlowModCommand.DELETE_STRICT,
                    priority=3), 0.0
        )
        assert len(table) == 0

    def test_delete_filters_by_out_port(self):
        table = FlowTable()
        add(table, Match(in_port=1), actions=[OutputAction(5)])
        add(table, Match(in_port=2), actions=[OutputAction(6)])
        table.apply_flow_mod(
            FlowMod(Match.wildcard_all(), FlowModCommand.DELETE, out_port=5), 0.0
        )
        assert len(table) == 1
        assert table.entries[0].outputs_to(6)


class TestModify:
    def test_modify_changes_actions(self):
        table = FlowTable()
        add(table, Match(in_port=1), actions=[OutputAction(2)])
        table.apply_flow_mod(
            FlowMod(Match(in_port=1), FlowModCommand.MODIFY,
                    actions=[OutputAction(9)]),
            0.0,
        )
        assert table.lookup(FIELDS).actions == [OutputAction(9)]

    def test_modify_with_no_match_adds(self):
        table = FlowTable()
        table.apply_flow_mod(
            FlowMod(Match(in_port=1), FlowModCommand.MODIFY,
                    actions=[OutputAction(9)]),
            0.0,
        )
        assert len(table) == 1


class TestTimeouts:
    def test_idle_timeout_expiry(self):
        table = FlowTable()
        add(table, Match(in_port=1), idle_timeout=5)
        expired = table.expire(4.9)
        assert expired == []
        expired = table.expire(5.0)
        assert len(expired) == 1
        assert expired[0][1] == "idle"
        assert len(table) == 0

    def test_use_refreshes_idle_timeout(self):
        table = FlowTable()
        add(table, Match(in_port=1), idle_timeout=5)
        entry = table.lookup(FIELDS)
        record_use(entry, 3.0, 100)
        assert table.expire(5.0) == []  # last_used 3.0 + 5 = 8.0
        assert len(table.expire(8.0)) == 1

    def test_hard_timeout_expires_despite_use(self):
        table = FlowTable()
        add(table, Match(in_port=1), hard_timeout=10)
        entry = table.lookup(FIELDS)
        record_use(entry, 9.0, 100)
        expired = table.expire(10.0)
        assert len(expired) == 1
        assert expired[0][1] == "hard"

    def test_permanent_entries_never_expire(self):
        table = FlowTable()
        add(table, Match(in_port=1))  # no timeouts
        assert table.expire(1e9) == []

    def test_flags_flow_removed(self):
        table = FlowTable()
        add(table, Match(in_port=1), idle_timeout=1,
            flags=int(FlowModFlags.SEND_FLOW_REM))
        (entry, _reason), = table.expire(1.0)
        assert entry.sends_flow_removed

    def test_counters_accumulate(self):
        table = FlowTable()
        add(table, Match(in_port=1))
        entry = table.lookup(FIELDS)
        record_use(entry, 1.0, 100)
        record_use(entry, 2.0, 50)
        assert entry.packet_count == 2
        assert entry.byte_count == 150


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                          st.integers(min_value=0, max_value=10)),
                min_size=1, max_size=20))
def test_lookup_always_returns_max_priority_matching(entries):
    """Property: the winner has the max priority among matching entries."""
    table = FlowTable()
    for in_port, priority in entries:
        add(table, Match(in_port=in_port), priority=priority,
            actions=[OutputAction(priority + 1)])
    winner = table.lookup(FIELDS)  # FIELDS has in_port=1
    candidates = [p for (ip, p) in entries if ip == 1]
    if not candidates:
        assert winner is None
    else:
        assert winner is not None
        assert winner.priority == max(candidates)
