"""The proxy's lane: a message no rule can fire on leaves as its frame.

The runtime injector decides for each frame, from its header type and the
executor's state at that moment, whether some rule could fire on it.  A
message none can fire on is forwarded as its frame: the observers'
``message_passed`` hooks see it and no message object is built.  A
GOTOSTATE or SLEEP that one frame fires must govern the next frame of the
same chunk.
"""

import pytest

from repro.core import AttackModel, RuntimeInjector, SystemModel
from repro.core.injector.executor import AttackExecutor
from repro.core.injector.proxy import ConnectionProxy
from repro.core.lang import (
    Attack,
    AttackState,
    DropMessage,
    GoToState,
    Rule,
    Sleep,
    parse_condition,
)
from repro.core.lang.properties import InterposedMessage
from repro.core.model import gamma_no_tls
from repro.core.monitors import ControlPlaneMonitor
from repro.obs import TraceCollector
from repro.openflow import EchoRequest, Hello

CONNECTION = ("c1", "s1")


class _Channel:
    """A channel stub that records what the proxy sends through it."""

    def __init__(self) -> None:
        self.open = True
        self.sent = []

    def send(self, data: bytes) -> None:
        self.sent.append(bytes(data))


def _rule(name, condition, actions):
    return Rule(name, [CONNECTION], gamma_no_tls(), parse_condition(condition), actions)


def _proxy(engine, small_topology, states=None):
    system = SystemModel.from_topology(small_topology, ["c1"])
    attack = None if states is None else Attack("lane", states, states[0].name)
    injector = RuntimeInjector(engine, AttackModel.no_tls_everywhere(system), attack)
    monitor = ControlPlaneMonitor()
    injector.add_observer(monitor)
    proxy = injector.create_proxy(CONNECTION)
    proxy.switch_channel, proxy.controller_channel = _Channel(), _Channel()
    return injector, monitor, proxy


def test_a_gotostate_governs_the_next_frame_of_the_chunk(engine, small_topology):
    """HELLO moves the attack into a state whose rule drops ECHO_REQUEST:
    the ECHO_REQUEST behind it in the same chunk must be evaluated there
    (at the start state it had no candidate and would take the lane)."""
    injector, monitor, proxy = _proxy(engine, small_topology, [
        AttackState("start", [_rule("advance", "type = HELLO", [GoToState("armed")])]),
        AttackState("armed", [_rule("drop", "type = ECHO_REQUEST", [DropMessage()])]),
    ])
    hello, echo = Hello(xid=1).pack(), EchoRequest(payload=b"x", xid=2).pack()
    proxy.bytes_received(proxy.switch_channel, hello + echo)
    stats = injector.executor.stats
    assert injector.current_state == "armed"
    assert (stats["rules_evaluated"], stats["rules_fired"]) == (2, 2)
    assert monitor.dropped_by_type == {"ECHO_REQUEST": 1}
    assert proxy.controller_channel.sent == [hello]
    # The next ECHO_REQUEST is dropped too; a HELLO now has no candidate.
    proxy.bytes_received(proxy.switch_channel, hello + echo)
    assert proxy.controller_channel.sent == [hello, hello]
    assert (stats["messages_processed"], stats["rules_evaluated"]) == (4, 3)
    assert stats["rules_skipped_by_index"] == 1


def test_a_sleep_defers_the_next_frame_of_the_chunk(engine, small_topology):
    """A SLEEP fired by the first frame holds the second, which no rule
    could fire on, until it elapses instead of letting it take the lane."""
    injector, monitor, proxy = _proxy(engine, small_topology, [
        AttackState("start", [_rule("nap", "type = HELLO", [Sleep(0.5)])]),
    ])
    hello, echo = Hello(xid=1).pack(), EchoRequest(payload=b"x", xid=2).pack()
    proxy.bytes_received(proxy.switch_channel, hello + echo)
    assert proxy.controller_channel.sent == [hello]
    assert injector.stats["messages_deferred"] == 1
    assert monitor.count_of("ECHO_REQUEST") == 0
    engine.run(until=1.0)
    assert proxy.controller_channel.sent == [hello, echo]
    assert monitor.count_of("ECHO_REQUEST") == 1
    # Awake again, and no rule fires on ECHO_REQUEST: the lane takes it.
    proxy.bytes_received(proxy.switch_channel, echo)
    assert injector.stats["messages_deferred"] == 1
    assert proxy.controller_channel.sent == [hello, echo, echo]


@pytest.mark.parametrize("states", [None, "typed"], ids=["no-attack", "typed-rule"])
def test_a_lane_message_builds_nothing_and_skips_the_executor_path(
        engine, small_topology, monkeypatch, states):
    if states == "typed":
        states = [AttackState("s", [_rule("drop", "type = FLOW_MOD", [DropMessage()])])]
    injector, monitor, proxy = _proxy(engine, small_topology, states)
    tracer = TraceCollector()
    injector.set_tracer(tracer)  # after the proxy was made: read per chunk

    def forbidden(*args, **kwargs):
        raise AssertionError("a lane message took the executor path")

    for cls, name in ((InterposedMessage, "__init__"), (RuntimeInjector, "submit"),
                      (RuntimeInjector, "notify_interposed"),
                      (AttackExecutor, "handle_message"), (ConnectionProxy, "deliver")):
        monkeypatch.setattr(cls, name, forbidden)
    hello, echo = Hello(xid=7).pack(), EchoRequest(payload=b"x", xid=8).pack()
    proxy.bytes_received(proxy.switch_channel, hello + echo)
    proxy.bytes_received(proxy.controller_channel, echo)

    assert proxy.controller_channel.sent == [hello, echo]
    assert proxy.switch_channel.sent == [echo]
    for key in ("forwarded", "decode_avoided", "repack_avoided"):
        assert proxy.stats[key] == 3, key
    assert monitor.message_counts == {"HELLO": 1, "ECHO_REQUEST": 2}
    assert monitor.per_connection == {CONNECTION: 3}
    assert monitor.dropped_by_type == {}
    messages = tracer.events("message")
    assert [(event["type"], event["msg_id"], event["length"]) for event in messages] == [
        ("HELLO", 1, len(hello)), ("ECHO_REQUEST", 2, len(echo)),
        ("ECHO_REQUEST", 3, len(echo))]
    if injector.executor is not None:
        stats = injector.executor.stats
        assert stats["messages_processed"] == 3
        assert stats["rules_skipped_by_index"] == 3
        assert stats["rules_evaluated"] == 0
