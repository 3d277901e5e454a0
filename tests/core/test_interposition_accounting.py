"""Drop accounting and delivery order under composed attack actions.

Short attacked Floodlight cells whose rules drop, duplicate then drop
the original, inject beside a message, delay it, or modify then drop it.
An observer derives each interposed message's fate from its outgoing
list alone, independently of the injector's own bookkeeping, and records
where every surviving entry must arrive; a message no rule could fire on
reaches it through the proxy's lane hook, forwarded unchanged.  The control-plane monitor's
``dropped_by_type``, which reads the executor's verdict, must agree with
the drops the observer saw, and each endpoint must receive the surviving
entries in the order the proxy forwarded them (a delayed entry at its
send time plus its delay).
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import pytest

from repro.controllers import FloodlightController
from repro.core import AttackModel, RuntimeInjector, SystemModel
from repro.core.lang.actions import (
    DelayMessage,
    DropMessage,
    DuplicateMessage,
    InjectNewMessage,
    ModifyMessage,
)
from repro.core.lang.attack import Attack
from repro.core.lang.parser import parse_condition
from repro.core.lang.properties import Direction
from repro.core.lang.rules import Rule
from repro.core.lang.states import AttackState
from repro.core.model.capabilities import gamma_no_tls
from repro.core.monitors import ControlPlaneMonitor
from repro.dataplane import Network
from repro.openflow import EchoRequest

#: Each case: (message type, actions) per rule of the attack's one state.
CASES = {
    "drop": [("FLOW_MOD", [DropMessage()])],
    "duplicate-then-drop": [("FLOW_MOD", [DuplicateMessage(), DropMessage()])],
    "inject": [("PACKET_IN", [InjectNewMessage(EchoRequest(payload=b"inj"))])],
    "delay": [("PACKET_OUT", [DelayMessage(0.0123)])],
    "modify-then-drop": [("FLOW_MOD", [ModifyMessage("idle_timeout", 7), DropMessage()])],
    "composed": [
        ("FLOW_MOD", [ModifyMessage("priority", 9), DuplicateMessage(2), DropMessage()]),
        ("PACKET_OUT", [DelayMessage(0.0071)]),
        ("PACKET_IN", [InjectNewMessage(EchoRequest(payload=b"inj"))]),
    ],
}


def _attack(connections, rules) -> Attack:
    state = AttackState("sigma1", [
        Rule(name=f"phi{index}", connections=connections, gamma=gamma_no_tls(),
             conditional=parse_condition(f"type = {type_name}"), actions=actions)
        for index, (type_name, actions) in enumerate(rules, 1)
    ])
    return Attack(name="composed", states=[state], start="sigma1")


class _FateObserver:
    """Each message's fate, read off its outgoing list (no verdict used)."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.active = False
        self.dropped = 0
        self.injected = 0
        self.delayed = 0
        self.expected = defaultdict(list)
        self._order = itertools.count()

    def message_interposed(self, message, outgoing, now) -> None:
        if not self.active:
            return
        if not any(entry.message is message for entry in outgoing):
            self.dropped += 1
        for entry in outgoing:
            self.injected += entry.injected
            self.delayed += entry.delay > 0
            key = (message.connection, entry.message.direction)
            self.expected[key].append((now + entry.delay, next(self._order),
                                       entry.message.raw))

    def message_passed(self, connection, direction, frame, type_name, now) -> None:
        """A message no rule could fire on: forwarded unchanged at ``now``."""
        if self.active:
            self.expected[(connection, direction)].append((now, next(self._order), frame))

    def rule_fired(self, state, rule_name, message) -> None:
        pass

    def state_changed(self, previous, current, at) -> None:
        pass


def _capture(channel, arrived):
    """Record every chunk the channel's peer endpoint is handed."""
    peer = channel.peer
    deliver = peer._deliver

    def recorded(data):
        if peer.open:
            arrived.append(data)
        deliver(data)

    peer._deliver = recorded


@pytest.mark.parametrize("case", sorted(CASES))
def test_drop_counts_agree_and_survivors_arrive_in_order(engine, small_topology, case):
    network = Network(engine, small_topology)
    controller = FloodlightController(engine)
    system = SystemModel.from_topology(small_topology, ["c1"])
    attack = _attack(system.connection_keys(), CASES[case])
    injector = RuntimeInjector(engine, AttackModel.no_tls_everywhere(system), attack)
    monitor = ControlPlaneMonitor()
    fates = _FateObserver(engine)
    injector.add_observer(monitor)
    injector.add_observer(fates)
    injector.install(network, {"c1": controller})
    network.start()
    engine.run(until=1.0)

    arrived = defaultdict(list)
    proxies = dict(injector.active_proxies)
    assert len(proxies) == 2
    for connection, proxy in proxies.items():
        _capture(proxy.controller_channel, arrived[(connection, Direction.TO_CONTROLLER)])
        _capture(proxy.switch_channel, arrived[(connection, Direction.TO_SWITCH)])
    fates.active = True
    network.host("h1").ping(network.host_ip("h2"), count=3)
    engine.run(until=4.5)
    fates.active = False
    engine.run(until=4.6)

    total = fates.dropped
    assert monitor.dropped_total() == total
    drops = any(isinstance(action, DropMessage)
                for _type, actions in CASES[case] for action in actions)
    assert (total > 0) == drops
    assert fates.injected > 0 or case in ("drop", "delay", "modify-then-drop")
    assert fates.delayed > 0 or case not in ("delay", "composed")

    assert set(arrived) >= set(fates.expected)
    for key, entries in fates.expected.items():
        assert arrived[key] == [raw for _at, _order, raw in sorted(entries)], key
