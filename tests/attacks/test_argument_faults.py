"""No action argument ends a run.

Each attack below is one rule on every control connection of the
enterprise network, under Floodlight, with h1 pinging h6 from t = 2 s.
Lint passes each with warnings or infos at most, and each argument is a
value its action cannot use: a SHIFT/POP of an empty deque inside an
expression, a sum of a string and a number, a MODIFYMESSAGE value its
field cannot hold, a DELAYMESSAGE delay that is not a number.  The run
must reach its horizon; the last three must leave the network exactly
as a pass-through rule does.
"""

from __future__ import annotations

import pytest

from repro.core.lang import (
    AppendAction,
    Attack,
    AttackState,
    DelayMessage,
    ModifyMessage,
    PassMessage,
    PrependAction,
    Rule,
    parse_condition,
    parse_expression,
)
from repro.core.model import gamma_no_tls
from repro.experiments import enterprise_system_model
from tests.attacks.enterprise_run import flow_tables, run_on_enterprise

PINGS = [(2.0, "h1", "h6", 3)]
HORIZON = 6.0


def run(condition, actions):
    rule = Rule("phi1", enterprise_system_model().connection_keys(),
                gamma_no_tls(), parse_condition(condition), actions)
    attack = Attack("argument-fault", [AttackState("sigma1", [rule])], "sigma1")
    return run_on_enterprise(attack, "floodlight", PINGS, HORIZON)


def outcome(setup, pings):
    return flow_tables(setup), [ping.result.rtts for ping in pings]


@pytest.fixture(scope="module")
def pass_through():
    """The outcome of a PASSMESSAGE rule on every FLOW_MOD."""
    setup, _injector, _records, pings = run("type = FLOW_MOD", [PassMessage()])
    return outcome(setup, pings)


@pytest.mark.parametrize("statement", [
    PrependAction("counter", parse_expression("shift(counter) + 1")),
    AppendAction("counter", parse_expression("pop(counter) + 1")),
], ids=["shift", "pop"])
def test_an_empty_deque_reads_none_in_an_expression(statement):
    """The counter idiom on an undeclared counter counts from 0."""
    _setup, injector, _records, pings = run("type = PACKET_IN", [statement])
    fired = injector.executor.stats["rules_fired"]
    assert fired > 0
    assert injector.executor.storage.deque("counter").snapshot() == [fired]
    assert pings[0].result.received == 3


def test_a_sum_of_a_string_and_a_number_reads_none(pass_through):
    """``opt.command`` of a FLOW_MOD reads ``ADD``; the sum reads None."""
    setup, injector, _records, pings = run(
        "type = FLOW_MOD",
        [AppendAction("c", parse_expression("opt.command + 1"))])
    fired = injector.executor.stats["rules_fired"]
    assert fired > 0
    assert injector.executor.storage.deque("c").snapshot() == [None] * fired
    assert outcome(setup, pings) == pass_through


@pytest.mark.parametrize("field, value", [
    ("idle_timeout", "soon"),
    ("idle_timeout", "70000"),
    ("match.nw_src", "nowhere"),
    ("idle_timeout", parse_expression("front(q)")),
], ids=["not-a-number", "out-of-range", "not-an-address", "empty-deque"])
def test_a_value_its_field_cannot_hold_leaves_the_message_as_it_was(
        field, value, pass_through):
    setup, injector, records, pings = run("type = FLOW_MOD",
                                          [ModifyMessage(field, value)])
    assert injector.executor.stats["rules_fired"] > 0
    assert "modify_message" not in records.kinds
    assert outcome(setup, pings) == pass_through


def test_a_delay_that_is_not_a_number_is_no_delay(pass_through):
    setup, injector, records, pings = run(
        "type = FLOW_MOD", [DelayMessage(parse_expression("opt.command"))])
    assert records.kinds.count("delay_message") == \
        injector.executor.stats["rules_fired"] > 0
    assert outcome(setup, pings) == pass_through
