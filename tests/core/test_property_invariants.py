"""Property-based tests over core language/executor invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler.codegen import condition_to_text
from repro.core.injector import AttackExecutor
from repro.core.lang import (
    And,
    Attack,
    AttackState,
    Comparison,
    Const,
    DropMessage,
    DuplicateMessage,
    EvalContext,
    ExamineFront,
    GoToState,
    Not,
    Or,
    PassMessage,
    Property,
    Rule,
    StorageSet,
    TrueCondition,
    TypeOption,
    parse_condition,
)
from repro.core.lang.properties import Direction, InterposedMessage, MessageProperty
from repro.core.model import gamma_no_tls
from repro.openflow import EchoRequest, FlowMod, Hello, Match
from repro.sim import SimulationEngine

CONN = ("c1", "s1")

# ---------------------------------------------------------------------- #
# Random condition ASTs
# ---------------------------------------------------------------------- #

_atoms = st.sampled_from([
    Comparison("=", Property(MessageProperty.TYPE), Const("HELLO")),
    Comparison("=", Property(MessageProperty.TYPE), Const("FLOW_MOD")),
    Comparison("=", Property(MessageProperty.SOURCE), Const("c1")),
    Comparison("!=", Property(MessageProperty.DESTINATION), Const("s9")),
    Comparison("in", Property(MessageProperty.DESTINATION),
               Const(frozenset({"s1", "s2"}))),
    Comparison("=", TypeOption("idle_timeout"), Const(5)),
    Comparison("=", ExamineFront("counter"), Const(0)),
    TrueCondition(),
])


def _conditions(depth: int = 3):
    return st.recursive(
        _atoms,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda t: And(*t)),
            st.lists(children, min_size=1, max_size=3).map(lambda t: Or(*t)),
            children.map(Not),
        ),
        max_leaves=8,
    )


def _messages():
    return st.sampled_from([
        InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, Hello().pack()),
        InterposedMessage(CONN, Direction.TO_CONTROLLER, 1.0,
                          EchoRequest(payload=b"x").pack()),
        InterposedMessage(CONN, Direction.TO_SWITCH, 2.0,
                          FlowMod(Match(in_port=1), idle_timeout=5).pack()),
    ])


@given(_conditions(), _messages())
@settings(max_examples=200)
def test_unparse_reparse_preserves_semantics(condition, message):
    """codegen's unparser and the parser are semantic inverses."""
    text = condition_to_text(condition)
    reparsed = parse_condition(text)
    storage = StorageSet()
    storage.declare("counter", [0])
    ctx = EvalContext(message, storage, 0.0)
    assert condition.compile()(ctx) == reparsed.compile()(ctx)
    assert condition.required_capabilities() == reparsed.required_capabilities()


@given(_conditions())
def test_not_is_involutive(condition):
    message = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, Hello().pack())
    storage = StorageSet()
    storage.declare("counter", [0])
    ctx = EvalContext(message, storage, 0.0)
    assert Not(Not(condition)).compile()(ctx) == condition.compile()(ctx)


@given(_conditions(), _conditions(), _messages())
def test_demorgan(a, b, message):
    storage = StorageSet()
    storage.declare("counter", [0])
    ctx = EvalContext(message, storage, 0.0)
    assert Not(And(a, b)).compile()(ctx) == Or(Not(a), Not(b)).compile()(ctx)


# ---------------------------------------------------------------------- #
# Random linear attack graphs through the executor
# ---------------------------------------------------------------------- #

@given(st.integers(min_value=1, max_value=8),
       st.lists(st.sampled_from(["HELLO", "ECHO_REQUEST", "FLOW_MOD"]),
                min_size=0, max_size=30))
@settings(max_examples=50)
def test_linear_graph_state_progress_matches_trigger_count(n_states, stream):
    """A chain advancing on HELLO ends in state min(#hellos, n_states-1)."""
    states = []
    for index in range(n_states):
        rules = []
        if index + 1 < n_states:
            rules.append(Rule(
                f"advance_{index}", CONN, gamma_no_tls(),
                parse_condition("type = HELLO"),
                [PassMessage(), GoToState(f"state_{index + 1}")],
            ))
        states.append(AttackState(f"state_{index}", rules))
    attack = Attack("chain", states, "state_0")
    executor = AttackExecutor(attack, SimulationEngine())
    builders = {"HELLO": Hello, "ECHO_REQUEST": EchoRequest,
                "FLOW_MOD": lambda: FlowMod(Match())}
    hellos = 0
    for kind in stream:
        message = builders[kind]()
        executor.handle_message(
            InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, message.pack())
        )
        if kind == "HELLO":
            hellos += 1
    expected = min(hellos, n_states - 1)
    assert executor.current_state_name == f"state_{expected}"


@given(st.lists(st.sampled_from(["drop", "pass", "dup"]),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=50)
def test_outgoing_count_invariant(action_kinds, n_messages):
    """|msg_out| = (0 if any drop else 1) + number of duplicate actions."""
    actions = {"drop": DropMessage, "pass": PassMessage,
               "dup": DuplicateMessage}
    rule = Rule("r", CONN, gamma_no_tls(), TrueCondition(),
                [actions[kind]() for kind in action_kinds])
    attack = Attack("inv", [AttackState("s", [rule])], "s")
    executor = AttackExecutor(attack, SimulationEngine())
    dups = action_kinds.count("dup")
    survives = 0 if "drop" in action_kinds else 1
    for _ in range(n_messages):
        out = executor.handle_message(
            InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, Hello().pack())
        )
        assert len(out) == survives + dups


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=200)
def test_executor_total_on_arbitrary_bytes(raw):
    """Garbage on the wire never crashes the executor (payload reads on
    undecodable messages evaluate to None)."""
    from repro.attacks import flow_mod_suppression_attack

    executor = AttackExecutor(flow_mod_suppression_attack(CONN),
                              SimulationEngine())
    message = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, raw)
    out = executor.handle_message(message)
    # Undecodable messages never match `type = FLOW_MOD`: they pass.
    assert len(out) == 1
