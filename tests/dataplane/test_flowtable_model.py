"""Model-based test: FlowTable against an independent reference model.

The reference restricts itself to exact ``in_port`` matches (plus the
match-all wildcard), where OF 1.0 semantics are unambiguous: highest
priority wins, ties go to the earliest-installed entry, ADD with an
identical match+priority replaces, non-strict DELETE removes subsumed
entries, strict DELETE removes exact ones.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dataplane import FlowTable
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from tests.netlib.flowkey_reference import field_tuple

PORTS = (1, 2, 3)
PRIORITIES = (0, 1, 2, 3)

FIELDS_BY_PORT = {
    port: field_tuple({
        "in_port": port,
        "dl_src": MacAddress(1),
        "dl_dst": MacAddress(2),
        "dl_vlan": 0xFFFF,
        "dl_vlan_pcp": 0,
        "dl_type": 0x0800,
        "nw_tos": 0,
        "nw_proto": 6,
        "nw_src": Ipv4Address("10.0.0.1"),
        "nw_dst": Ipv4Address("10.0.0.2"),
        "tp_src": 1,
        "tp_dst": 2,
    })
    for port in PORTS
}


class _ModelEntry:
    counter = 0

    def __init__(self, in_port, priority, out_port):
        self.in_port = in_port      # None = wildcard
        self.priority = priority
        self.out_port = out_port
        _ModelEntry.counter += 1
        self.order = _ModelEntry.counter

    def matches(self, port):
        return self.in_port is None or self.in_port == port


class FlowTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = FlowTable()
        self.model = []

    def _match_for(self, in_port):
        return Match(in_port=in_port) if in_port is not None else Match.wildcard_all()

    @rule(in_port=st.sampled_from(PORTS + (None,)),
          priority=st.sampled_from(PRIORITIES),
          out_port=st.integers(min_value=10, max_value=14))
    def add(self, in_port, priority, out_port):
        flow_mod = FlowMod(self._match_for(in_port), FlowModCommand.ADD,
                           priority=priority, actions=[OutputAction(out_port)])
        self.table.apply_flow_mod(flow_mod, 0.0)
        # Model: identical match+priority replaces.
        self.model = [e for e in self.model
                      if not (e.in_port == in_port and e.priority == priority)]
        self.model.append(_ModelEntry(in_port, priority, out_port))

    @rule(in_port=st.sampled_from(PORTS + (None,)))
    def delete_non_strict(self, in_port):
        flow_mod = FlowMod(self._match_for(in_port), FlowModCommand.DELETE)
        self.table.apply_flow_mod(flow_mod, 0.0)
        if in_port is None:
            self.model = []
        else:
            self.model = [e for e in self.model if e.in_port != in_port]

    @rule(in_port=st.sampled_from(PORTS + (None,)),
          priority=st.sampled_from(PRIORITIES))
    def delete_strict(self, in_port, priority):
        flow_mod = FlowMod(self._match_for(in_port), FlowModCommand.DELETE_STRICT,
                           priority=priority)
        self.table.apply_flow_mod(flow_mod, 0.0)
        self.model = [e for e in self.model
                      if not (e.in_port == in_port and e.priority == priority)]

    @invariant()
    def same_size(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def same_lookup_winner(self):
        for port in PORTS:
            actual = self.table.lookup(FIELDS_BY_PORT[port])
            candidates = [e for e in self.model if e.matches(port)]
            if not candidates:
                assert actual is None
                continue
            best = max(candidates, key=lambda e: (e.priority, -e.order))
            assert actual is not None
            assert actual.actions == [OutputAction(best.out_port)]


TestFlowTableAgainstModel = FlowTableMachine.TestCase
