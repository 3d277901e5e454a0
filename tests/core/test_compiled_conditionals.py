"""Compiled conditionals and expressions must agree with the interpreter.

Every λ and action argument is lowered to a closure once, when its rule or
action is built (``node.compile()``).  These tests run each conditional
and value expression both ways — compiled, and through the reference
interpreter (:mod:`tests.core.conditionals_reference`) — over a grid of
messages and storage states and require identical results, including
storage side effects and the seeded stochastic draw sequence.
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
from tests.core.conditionals_reference import evaluate

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
        compiled = condition.compile()
        for message in sample_messages():
            interpreted_ctx = EvalContext(message, storage_with_counter(), now=4.0)
            compiled_ctx = EvalContext(message, storage_with_counter(), now=4.0)
            assert compiled(compiled_ctx) == evaluate(condition, interpreted_ctx), text

    @pytest.mark.parametrize(
        "text",
        ["shift(count) = 3", "pop(count) = 3", "shift(count) + 1 = 4",
         "shift(count) in {3, 9}"],
    )
    def test_side_effecting_conditions_agree_including_storage(self, text):
        """SHIFT/POP mutate Δ: results and final storage must both match."""
        condition = parse_condition(text)
        compiled = condition.compile()
        interpreted_storage = storage_with_counter()
        compiled_storage = storage_with_counter()
        for message in sample_messages()[:2]:
            interpreted = evaluate(
                condition, EvalContext(message, interpreted_storage, now=4.0)
            )
            result = compiled(EvalContext(message, compiled_storage, now=4.0))
            assert result == interpreted, text
        assert interpreted_storage.deque("count").snapshot() == \
            compiled_storage.deque("count").snapshot()

    def test_membership_evaluates_left_exactly_once(self):
        """``shift(d) in {...}`` must consume one element per evaluation."""
        condition = Comparison("in", parse_expression("shift(d)"),
                               Const(("a", "b")))
        compiled = condition.compile()
        storage = StorageSet()
        storage.deque("d").append("a")
        storage.deque("d").append("z")
        ctx = EvalContext(None, storage, now=0.0)
        assert compiled(ctx) is True
        assert compiled(ctx) is False
        assert len(storage.deque("d")) == 0

    def test_probability_draw_sequence_identical(self):
        """prob(p) draws as the interpreter does: same rng, same draws."""
        condition = parse_condition("prob(0.5)")
        compiled = condition.compile()
        message = sample_messages()[0]
        interpreted = [
            evaluate(
                condition,
                EvalContext(message, StorageSet(), rng=SeededRng(7).child("x")),
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
            assert evaluate(
                condition, EvalContext(message, StorageSet(), rng=rng_a)
            ) == compiled(EvalContext(message, StorageSet(), rng=rng_b))
        assert drawn[0] == interpreted[0]

    @pytest.mark.parametrize("p, draws", [(0.0, 0), (0.5, 1), (1.0, 0)])
    def test_probability_draws_once_only_when_uncertain(self, p, draws):
        stream = SeededRng(5).child("z")
        calls = []

        class CountingRng:
            def random(self):
                calls.append(p)
                return stream.random()

        compiled = Probability(p).compile()
        compiled(EvalContext(None, StorageSet(), rng=CountingRng()))
        assert compiled(EvalContext(None, StorageSet(), rng=None)) is (p == 1.0)
        assert len(calls) == draws


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
        compiled = parse_condition(text).compile()

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
        assert condition.compile()(ctx) is False
        assert evaluate(condition, ctx) is False

    def test_a_non_string_constant_keeps_smart_eq(self, monkeypatch):
        calls = []
        real = conditionals.smart_eq

        def counted(left, right):
            calls.append((left, right))
            return real(left, right)

        monkeypatch.setattr(conditionals, "smart_eq", counted)
        condition = Comparison("=", Property(MessageProperty.TYPE), Const(14))
        message = sample_messages()[2]
        assert condition.compile()(
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


VALUE_EXPRESSIONS = ["shift(c) + 1", "pop(c) - 1", "front(c) + end(c)",
                     "shift(empty) + 1", "msg", "opt.idle_timeout", "length",
                     "opt.command + 1", "msg - shift(c)",
                     "front(names) + front(names)"]


def storage_grid():
    """The file's storage with the counter ``c`` holding two values or one."""
    for counter in ([3, 9], [7]):
        storage = storage_with_counter()
        for value in counter:
            storage.deque("c").append(value)
        yield storage


def deque_contents(storage):
    return {name: storage.deque(name).snapshot() for name in storage.names()}


class TestActionArguments:
    """Action arguments are value expressions compiled the same way."""

    @pytest.mark.parametrize("text", VALUE_EXPRESSIONS)
    def test_value_expressions_agree_including_storage(self, text):
        expression = parse_expression(text)
        compiled = expression.compile()
        for message in sample_messages():
            for reference_storage, compiled_storage in zip(storage_grid(),
                                                           storage_grid()):
                expected = evaluate(
                    expression, EvalContext(message, reference_storage, now=4.0))
                value = compiled(EvalContext(message, compiled_storage, now=4.0))
                assert value == expected, text
                assert deque_contents(compiled_storage) == \
                    deque_contents(reference_storage), text

    def test_a_sum_python_cannot_compute_reads_none(self):
        """A FLOW_MOD's ``opt.command`` reads ``ADD``: adding a number to
        it reads None, and a SHIFT operand after it still runs."""
        storage = next(storage_grid())
        ctx = EvalContext(sample_messages()[2], storage, now=4.0)
        assert parse_expression("opt.command + 1").compile()(ctx) is None
        assert parse_expression("opt.command - shift(c)").compile()(ctx) is None
        assert storage.deque("c").snapshot() == [9]
        assert parse_expression(
            "opt.idle_timeout + shift(empty) - 1").compile()(ctx) == 4
