"""Compiled conditionals must be indistinguishable from interpreted ones.

The executor's fast lane lowers each λ AST to a closure once at attack-load
time (:func:`repro.core.lang.conditionals.compile_condition`).  These tests
run the same conditional both ways over a grid of messages and storage
states and require identical results — including storage side effects and
the seeded stochastic draw sequence.
"""

import struct

import pytest

from repro.core.lang import conditionals, parse_condition
from repro.core.lang.conditionals import (
    Comparison,
    Const,
    EvalContext,
    Probability,
    Property,
    ShiftExpr,
    compile_condition,
    condition_message_types,
)
from repro.core.lang.parser import parse_expression
from repro.core.lang.properties import Direction, InterposedMessage, MessageProperty
from repro.core.lang.storage import StorageSet
from repro.openflow import (
    EchoRequest,
    FlowMod,
    Hello,
    Match,
    OutputAction,
    PacketIn,
    PacketInReason,
)
from repro.sim.rng import SeededRng

CONN = ("c1", "s1")


def interpose(message, direction=Direction.TO_SWITCH, timestamp=4.0):
    return InterposedMessage(CONN, direction, timestamp, message.pack(), message)


def sample_messages():
    return [
        interpose(Hello()),
        interpose(EchoRequest(payload=b"ping"), Direction.TO_CONTROLLER),
        interpose(
            FlowMod(Match(in_port=1, tp_dst=80), idle_timeout=5,
                    actions=[OutputAction(2)])
        ),
        interpose(PacketIn(7, 24, 3, PacketInReason.NO_MATCH, b"\x00" * 24),
                  Direction.TO_CONTROLLER),
        # Undecodable bytes: TYPE and all options read as None.
        InterposedMessage(CONN, Direction.TO_SWITCH, 4.0, b"\xff" * 8),
    ]


def storage_with_counter():
    storage = StorageSet()
    storage.deque("count").append(3)
    storage.deque("count").append(9)
    storage.deque("names").append("s1")
    return storage


CONDITIONS = [
    "",
    "true",
    "false",
    "type = FLOW_MOD",
    "type != FLOW_MOD",
    "HELLO = type",
    "type in {FLOW_MOD, PACKET_IN}",
    "length = 8",
    "length > 8",
    "length < 8",
    "timestamp > 3",
    "source = s1",
    "destination in {s1, s2}",
    "opt.match.tp_dst = 80",
    "opt.in_port = 3",
    "opt.match.nw_src = 10.0.0.2",
    "front(count) = 3",
    "end(names) = s1",
    "front(count) + 1 = 4",
    "type = FLOW_MOD and opt.idle_timeout = 5",
    "type = HELLO or type = FLOW_MOD",
    "not type = HELLO",
    "not (type = HELLO or length > 100)",
    "type = FLOW_MOD and (destination = s1 or destination = s2)",
]


class TestEquivalence:
    @pytest.mark.parametrize("text", CONDITIONS)
    def test_pure_conditions_agree_on_all_messages(self, text):
        condition = parse_condition(text)
        compiled = compile_condition(condition)
        for message in sample_messages():
            interpreted_ctx = EvalContext(message, storage_with_counter(), now=4.0)
            compiled_ctx = EvalContext(message, storage_with_counter(), now=4.0)
            assert compiled(compiled_ctx) == condition.evaluate(interpreted_ctx), text

    @pytest.mark.parametrize(
        "text",
        ["shift(count) = 3", "pop(count) = 3", "shift(count) + 1 = 4",
         "shift(count) in {3, 9}"],
    )
    def test_side_effecting_conditions_agree_including_storage(self, text):
        """SHIFT/POP mutate Δ: results and final storage must both match."""
        condition = parse_condition(text)
        compiled = compile_condition(condition)
        interpreted_storage = storage_with_counter()
        compiled_storage = storage_with_counter()
        for message in sample_messages()[:2]:
            interpreted = condition.evaluate(
                EvalContext(message, interpreted_storage, now=4.0)
            )
            result = compiled(EvalContext(message, compiled_storage, now=4.0))
            assert result == interpreted, text
        assert interpreted_storage.deque("count").snapshot() == \
            compiled_storage.deque("count").snapshot()

    def test_membership_evaluates_left_exactly_once(self):
        """``shift(d) in {...}`` must consume one element per evaluation."""
        condition = Comparison("in", parse_expression("shift(d)"),
                               Const(("a", "b")))
        compiled = compile_condition(condition)
        storage = StorageSet()
        storage.deque("d").append("a")
        storage.deque("d").append("z")
        ctx = EvalContext(None, storage, now=0.0)
        assert compiled(ctx) is True
        assert compiled(ctx) is False
        assert len(storage.deque("d")) == 0

    def test_probability_draw_sequence_identical(self):
        """prob(p) keeps the interpreted path: same rng, same draws."""
        condition = parse_condition("prob(0.5)")
        compiled = compile_condition(condition)
        message = sample_messages()[0]
        interpreted = [
            condition.evaluate(
                EvalContext(message, StorageSet(), rng=SeededRng(7).child("x"))
            )
            for _ in range(20)
        ]
        rng = SeededRng(7).child("x")
        drawn = [
            compiled(EvalContext(message, StorageSet(), rng=rng))
            for _ in range(1)
        ]
        # Fresh identical streams step identically through both paths.
        rng_a, rng_b = SeededRng(11).child("y"), SeededRng(11).child("y")
        for _ in range(50):
            assert condition.evaluate(
                EvalContext(message, StorageSet(), rng=rng_a)
            ) == compiled(EvalContext(message, StorageSet(), rng=rng_b))
        assert drawn[0] == interpreted[0]

    def test_probability_compile_is_interpreted_fallback(self):
        probability = Probability(0.5)
        assert probability.compile() == probability.evaluate

    def test_shift_compile_is_interpreted_fallback(self):
        shift = ShiftExpr("d")
        assert shift.compile() == shift.evaluate


def corrupted_flow_mod():
    """A FLOW_MOD whose header peeks as FLOW_MOD but whose body would not
    decode: its ``command`` is out of range."""
    raw = bytearray(FlowMod(Match(in_port=1), actions=[OutputAction(2)]).pack())
    struct.pack_into("!H", raw, 56, 0x7777)  # header 8 + match 40 + cookie 8
    return InterposedMessage(CONN, Direction.TO_SWITCH, 4.0, bytes(raw))


class TestTypeEquality:
    """``TYPE = <name>`` compiles to one comparison of the message's type
    name, in either operand order."""

    TEXTS = ("type = FLOW_MOD", "FLOW_MOD = type")

    @pytest.mark.parametrize("text", TEXTS)
    def test_no_smart_eq_and_no_parse(self, text, monkeypatch):
        compiled = compile_condition(parse_condition(text))

        def refuse(left, right):
            raise AssertionError("smart_eq called")

        monkeypatch.setattr(conditionals, "smart_eq", refuse)
        fired = []
        for message in sample_messages() + [corrupted_flow_mod()]:
            raw_only = InterposedMessage(CONN, message.direction,
                                         message.timestamp, message.raw)
            fired.append(compiled(EvalContext(raw_only, StorageSet())))
            if raw_only.coarse_type_name == "FLOW_MOD":
                assert raw_only._parsed is None  # the structural check only
        assert fired == [False, False, True, False, False, False]
        assert compiled(EvalContext(None, StorageSet())) is False

    @pytest.mark.parametrize("text", TEXTS)
    def test_a_body_corrupted_flow_mod_does_not_fire(self, text):
        condition = parse_condition(text)
        message = corrupted_flow_mod()
        assert message.coarse_type_name == "FLOW_MOD"
        assert message.message_type_name is None
        ctx = EvalContext(message, StorageSet())
        assert compile_condition(condition)(ctx) is False
        assert condition.evaluate(ctx) is False

    def test_a_non_string_constant_keeps_smart_eq(self, monkeypatch):
        calls = []
        real = conditionals.smart_eq

        def counted(left, right):
            calls.append((left, right))
            return real(left, right)

        monkeypatch.setattr(conditionals, "smart_eq", counted)
        condition = Comparison("=", Property(MessageProperty.TYPE), Const(14))
        message = sample_messages()[2]
        assert compile_condition(condition)(
            EvalContext(message, StorageSet())) is False
        assert calls == [("FLOW_MOD", 14)]


class TestConditionMessageTypes:
    def test_type_equality(self):
        assert condition_message_types(parse_condition("type = FLOW_MOD")) == \
            frozenset({"FLOW_MOD"})

    def test_reversed_operands(self):
        condition = Comparison("=", Const("HELLO"),
                               Property(MessageProperty.TYPE))
        assert condition_message_types(condition) == frozenset({"HELLO"})

    def test_type_membership(self):
        types = condition_message_types(
            parse_condition("type in {FLOW_MOD, PACKET_IN}")
        )
        assert types == frozenset({"FLOW_MOD", "PACKET_IN"})

    def test_and_intersects(self):
        types = condition_message_types(
            parse_condition("type = FLOW_MOD and destination = s1")
        )
        assert types == frozenset({"FLOW_MOD"})
        assert condition_message_types(
            parse_condition("type = FLOW_MOD and type = HELLO")
        ) == frozenset()

    def test_or_unions_only_when_all_known(self):
        assert condition_message_types(
            parse_condition("type = FLOW_MOD or type = HELLO")
        ) == frozenset({"FLOW_MOD", "HELLO"})
        assert condition_message_types(
            parse_condition("type = FLOW_MOD or destination = s1")
        ) is None

    def test_unconstrained_conditions_return_none(self):
        for text in ("", "true", "destination = s1", "not type = HELLO",
                     "type != FLOW_MOD", "prob(0.5)", "length > 8"):
            assert condition_message_types(parse_condition(text)) is None, text
