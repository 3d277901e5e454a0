"""Unit tests for the conditional/expression text parser."""

import pytest

from repro.core.lang import (
    And,
    Comparison,
    ConditionParseError,
    Const,
    EvalContext,
    ExamineFront,
    Not,
    Or,
    Property,
    StorageSet,
    Sum,
    TrueCondition,
    TypeOption,
    parse_condition,
    parse_expression,
)
from repro.core.lang.properties import Direction, InterposedMessage
from repro.netlib import Ipv4Address
from repro.openflow import FlowMod, Hello, Match


def evaluate(text, message=None, storage=None):
    ctx = EvalContext(message, storage or StorageSet(), 0.0)
    return parse_condition(text).compile()(ctx)


def interposed(message, direction=Direction.TO_SWITCH):
    return InterposedMessage(("c1", "s2"), direction, 0.0, message.pack(), message)


class TestParsing:
    def test_simple_equality(self):
        cond = parse_condition("type = FLOW_MOD")
        assert isinstance(cond, Comparison)
        assert cond.op == "="
        assert isinstance(cond.left, Property)
        assert cond.right.value == "FLOW_MOD"

    def test_empty_text_is_true(self):
        assert isinstance(parse_condition(""), TrueCondition)
        assert isinstance(parse_condition("   "), TrueCondition)

    def test_true_false_literals(self):
        assert evaluate("true")
        assert not evaluate("false")

    def test_and_or_precedence(self):
        # AND binds tighter than OR.
        cond = parse_condition("true or false and false")
        assert isinstance(cond, Or)
        assert evaluate("true or false and false")

    def test_parentheses(self):
        assert not evaluate("(true or false) and false")

    def test_not(self):
        cond = parse_condition("not type = HELLO")
        assert isinstance(cond, Not)
        assert not evaluate("not true")

    def test_set_membership(self):
        cond = parse_condition("destination in {s1, s2, s3}")
        msg = interposed(Hello())
        assert cond.compile()(EvalContext(msg, StorageSet(), 0.0))

    def test_empty_set(self):
        assert not evaluate("1 in {}")

    def test_quoted_strings(self):
        cond = parse_condition("source = 'weird name'")
        assert cond.right.value == "weird name"

    def test_numbers_become_ints(self):
        cond = parse_condition("length = 8")
        assert cond.right.value == 8

    def test_ip_barewords_stay_strings(self):
        cond = parse_condition("opt.match.nw_src = 10.0.0.2")
        assert cond.right.value == "10.0.0.2"

    def test_type_option_path(self):
        cond = parse_condition("opt.match.nw_dst = 10.0.0.3")
        assert isinstance(cond.left, TypeOption)
        assert cond.left.path == "match.nw_dst"

    def test_deque_functions(self):
        expr = parse_expression("front(counter) + 1")
        assert isinstance(expr, Sum)
        assert isinstance(expr.first, ExamineFront)

    def test_shift_expression(self):
        storage = StorageSet()
        storage.declare("c", [7])
        assert parse_expression("shift(c) + 1").compile()(
            EvalContext(None, storage, 0.0)) == 8
        assert len(storage.deque("c")) == 0

    def test_case_insensitive_keywords(self):
        assert evaluate("TRUE AND NOT FALSE")

    def test_msg_reference(self):
        expr = parse_expression("msg")
        msg = interposed(Hello())
        assert expr.compile()(EvalContext(msg, StorageSet(), 0.0)) is msg


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "type =",              # missing rhs
        "= FLOW_MOD",          # missing lhs
        "type FLOW_MOD",       # missing operator
        "(true",               # unclosed paren
        "type = {1, true}",    # keyword inside set
        "front(",              # unclosed call
        "type = FLOW_MOD extra stuff",  # trailing condition garbage
        "true @ false",        # illegal character
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConditionParseError):
            parse_condition(bad)

    def test_empty_expression_rejected(self):
        with pytest.raises(ConditionParseError):
            parse_expression("")

    def test_expression_with_trailing_garbage_rejected(self):
        with pytest.raises(ConditionParseError):
            parse_expression("1 + 2 extra")


class TestEndToEnd:
    def test_paper_phi2_conditional(self):
        """The Fig. 12 σ2 conditional, evaluated against real flow mods."""
        text = (
            "type = FLOW_MOD and destination = s2 "
            "and opt.match.nw_src = 10.0.0.2 "
            "and opt.match.nw_dst in {10.0.0.3, 10.0.0.4, 10.0.0.5, 10.0.0.6}"
        )
        cond = parse_condition(text)

        full_match = FlowMod(Match(nw_src=Ipv4Address("10.0.0.2"),
                                   nw_dst=Ipv4Address("10.0.0.3")))
        assert cond.compile()(EvalContext(interposed(full_match), StorageSet(), 0))

        # Ryu-style flow mod without nw fields never satisfies it.
        l2_match = FlowMod(Match(in_port=1))
        assert not cond.compile()(EvalContext(interposed(l2_match), StorageSet(), 0))

        # Different source IP doesn't satisfy it either.
        other = FlowMod(Match(nw_src=Ipv4Address("10.0.0.9"),
                              nw_dst=Ipv4Address("10.0.0.3")))
        assert not cond.compile()(EvalContext(interposed(other), StorageSet(), 0))

    def test_counter_conditional(self):
        storage = StorageSet()
        storage.declare("count", [3])
        assert evaluate("front(count) = 3", storage=storage)
        assert not evaluate("front(count) = 4", storage=storage)
