"""Unit tests for conditional expressions and capability accounting."""

import pytest

from repro.core.lang import (
    And,
    Comparison,
    Const,
    EvalContext,
    ExamineFront,
    MessageRef,
    Not,
    Or,
    Property,
    ShiftExpr,
    StorageSet,
    Sum,
    TrueCondition,
    TypeOption,
)
from repro.core.lang.conditionals import smart_eq
from repro.core.lang.properties import Direction, InterposedMessage, MessageProperty
from repro.core.model import Capability
from repro.netlib import Ipv4Address
from repro.openflow import FlowMod, Hello, Match


def ctx_for(message=None, storage=None, now=0.0):
    return EvalContext(message, storage or StorageSet(), now)


def interposed(message, direction=Direction.TO_SWITCH):
    return InterposedMessage(("c1", "s2"), direction, 0.0, message.pack(), message)


class TestSmartEq:
    def test_direct_equality(self):
        assert smart_eq(1, 1)
        assert not smart_eq(1, 2)

    def test_string_vs_address_object(self):
        assert smart_eq(Ipv4Address("10.0.0.2"), "10.0.0.2")
        assert smart_eq("10.0.0.2", Ipv4Address("10.0.0.2"))

    def test_number_vs_numeric_string(self):
        assert smart_eq(5, "5")
        assert not smart_eq(5, "five")

    def test_none_only_equals_none(self):
        assert smart_eq(None, None)
        assert not smart_eq(None, "x")
        assert not smart_eq(0, None)

    def test_bool_not_conflated_with_int(self):
        assert not smart_eq(True, 1) or smart_eq(True, 1) is True
        # Explicit: bool vs number with different spelling must not match
        assert not smart_eq(True, "1")


class TestComparisons:
    def test_type_equality(self):
        msg = interposed(Hello())
        cond = Comparison("=", Property(MessageProperty.TYPE), Const("HELLO"))
        assert cond.compile()(ctx_for(msg))
        cond2 = Comparison("=", Property(MessageProperty.TYPE), Const("FLOW_MOD"))
        assert not cond2.compile()(ctx_for(msg))

    def test_not_equal(self):
        msg = interposed(Hello())
        cond = Comparison("!=", Property(MessageProperty.TYPE), Const("FLOW_MOD"))
        assert cond.compile()(ctx_for(msg))

    def test_membership(self):
        msg = interposed(Hello(), Direction.TO_SWITCH)
        cond = Comparison(
            "in", Property(MessageProperty.DESTINATION), Const(frozenset({"s1", "s2"}))
        )
        assert cond.compile()(ctx_for(msg))
        cond2 = Comparison(
            "in", Property(MessageProperty.DESTINATION), Const(frozenset({"s9"}))
        )
        assert not cond2.compile()(ctx_for(msg))

    def test_membership_uses_smart_eq(self):
        flow_mod = FlowMod(Match(nw_dst=Ipv4Address("10.0.0.3")))
        msg = interposed(flow_mod)
        cond = Comparison(
            "in", TypeOption("match.nw_dst"),
            Const(frozenset({"10.0.0.3", "10.0.0.4"})),
        )
        assert cond.compile()(ctx_for(msg))

    def test_membership_on_non_iterable_is_false(self):
        cond = Comparison("in", Const(1), Const(2))
        assert not cond.compile()(ctx_for())

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison(">=", Const(1), Const(2))

    def test_ordering_operators(self):
        assert Comparison("<", Const(1), Const(2)).compile()(ctx_for())
        assert Comparison(">", Const(3), Const(2)).compile()(ctx_for())
        assert not Comparison(">", Const(1), Const(2)).compile()(ctx_for())
        # Numeric strings order numerically; non-numerics never order.
        assert Comparison("<", Const("9"), Const(10)).compile()(ctx_for())
        assert not Comparison("<", Const("abc"), Const(10)).compile()(ctx_for())

    def test_no_message_evaluates_to_none_properties(self):
        cond = Comparison("=", Property(MessageProperty.TYPE), Const("HELLO"))
        assert not cond.compile()(ctx_for(message=None))


class TestConnectives:
    def test_and_or_not(self):
        true = TrueCondition()
        false = Not(TrueCondition())
        assert And(true, true).compile()(ctx_for())
        assert not And(true, false).compile()(ctx_for())
        assert Or(false, true).compile()(ctx_for())
        assert not Or(false, false).compile()(ctx_for())
        assert Not(false).compile()(ctx_for())

    def test_empty_and_is_true_empty_or_is_false(self):
        assert And().compile()(ctx_for())
        assert not Or().compile()(ctx_for())


class TestStorageExpressions:
    def test_examine_front_in_condition(self):
        storage = StorageSet()
        storage.declare("count", [3])
        cond = Comparison("=", ExamineFront("count"), Const(3))
        assert cond.compile()(ctx_for(storage=storage))

    def test_sum_with_shift_side_effect(self):
        """The counter idiom: SHIFT(δ) + 1 mutates the deque."""
        storage = StorageSet()
        storage.declare("count", [4])
        expr = Sum(ShiftExpr("count"), [("+", Const(1))])
        assert expr.compile()(ctx_for(storage=storage)) == 5
        assert len(storage.deque("count")) == 0  # shifted out

    def test_sum_treats_none_as_zero(self):
        expr = Sum(ExamineFront("empty"), [("+", Const(1))])
        assert expr.compile()(ctx_for()) == 1

    def test_subtraction(self):
        expr = Sum(Const(10), [("-", Const(3)), ("+", Const(1))])
        assert expr.compile()(ctx_for()) == 8

    def test_message_ref(self):
        msg = interposed(Hello())
        assert MessageRef().compile()(ctx_for(msg)) is msg


class TestCapabilityAccounting:
    def test_metadata_property_needs_metadata_read(self):
        cond = Comparison("=", Property(MessageProperty.SOURCE), Const("s2"))
        assert cond.required_capabilities() == {Capability.READ_MESSAGE_METADATA}

    def test_type_needs_payload_read(self):
        cond = Comparison("=", Property(MessageProperty.TYPE), Const("HELLO"))
        assert cond.required_capabilities() == {Capability.READ_MESSAGE}

    def test_type_option_needs_payload_read(self):
        cond = Comparison("=", TypeOption("match.nw_src"), Const("10.0.0.2"))
        assert Capability.READ_MESSAGE in cond.required_capabilities()

    def test_connectives_union_requirements(self):
        cond = And(
            Comparison("=", Property(MessageProperty.SOURCE), Const("s2")),
            Or(Comparison("=", Property(MessageProperty.TYPE), Const("HELLO"))),
        )
        assert cond.required_capabilities() == {
            Capability.READ_MESSAGE_METADATA,
            Capability.READ_MESSAGE,
        }

    def test_constants_and_deques_need_nothing(self):
        assert Comparison("=", ExamineFront("x"), Const(1)).required_capabilities() == frozenset()
        assert TrueCondition().required_capabilities() == frozenset()
