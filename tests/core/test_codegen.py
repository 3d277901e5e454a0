"""Unit + property tests for the executable-code generator."""

import pytest
from hypothesis import given, strategies as st

from repro.attacks import (
    connection_interruption_attack,
    counting_attack_deque,
    flow_mod_suppression_attack,
    passthrough_attack,
    reordering_attack,
    replay_attack,
)
from repro.core.compiler import compile_attack_source, generate_attack_source
from repro.core.compiler.codegen import condition_to_text, expression_to_text
from repro.core.compiler.errors import CompileError
from repro.core.lang import (
    Attack,
    AttackState,
    Comparison,
    Const,
    EvalContext,
    InjectNewMessage,
    Rule,
    StorageSet,
    TrueCondition,
    parse_condition,
    parse_expression,
)
from repro.core.model import gamma_no_tls

CONNS = [("c1", "s1"), ("c1", "s2")]


def assert_same_attack(a, b):
    assert a.summary() == b.summary()
    for name in a.states:
        rules_a = a.states[name].rules
        rules_b = b.states[name].rules
        assert [r.name for r in rules_a] == [r.name for r in rules_b]
        for ra, rb in zip(rules_a, rules_b):
            assert ra.connections == rb.connections
            assert ra.gamma == rb.gamma
            assert ra.required_capabilities() == rb.required_capabilities()
            assert len(ra.actions) == len(rb.actions)
            assert [type(x).__name__ for x in ra.actions] == [
                type(x).__name__ for x in rb.actions
            ]


LIBRARY_BUILDERS = [
    lambda: passthrough_attack(CONNS),
    lambda: flow_mod_suppression_attack(CONNS),
    lambda: connection_interruption_attack(
        ("c1", "s2"), "10.0.0.2", ["10.0.0.3", "10.0.0.4"]
    ),
    lambda: reordering_attack(CONNS, batch_size=3),
    lambda: replay_attack(CONNS, batch_size=2, replay_copies=2),
    lambda: counting_attack_deque(CONNS, n=5),
]


@pytest.mark.parametrize("builder", LIBRARY_BUILDERS)
def test_library_attacks_roundtrip_through_codegen(builder):
    attack = builder()
    source = generate_attack_source(attack)
    rebuilt = compile_attack_source(source)
    assert_same_attack(attack, rebuilt)


def test_generated_source_is_plain_python():
    source = generate_attack_source(flow_mod_suppression_attack(CONNS))
    compiled = compile(source, "<test>", "exec")  # must be syntactically valid
    assert "build_attack" in source
    assert "ATTACK = build_attack()" in source


def test_conditions_unparse_and_reparse_equivalently():
    texts = [
        "type = FLOW_MOD",
        "source = s2 and type = HELLO",
        "not (type = HELLO) or destination in {s1, s2}",
        "opt.match.nw_src = 10.0.0.2 and opt.match.nw_dst in {10.0.0.3, 10.0.0.4}",
        "front(count) = 3",
        "true",
    ]
    for text in texts:
        cond = parse_condition(text)
        round_tripped = parse_condition(condition_to_text(cond))
        # Equivalence on representative contexts: no message, empty storage.
        ctx = EvalContext(None, StorageSet(), 0.0)
        assert cond.compile()(ctx) == round_tripped.compile()(ctx)
        assert cond.required_capabilities() == round_tripped.required_capabilities()


def test_expression_unparse():
    for text in ["front(c) + 1", "shift(q)", "msg", "10.0.0.2", "'hello world'"]:
        expr = parse_expression(text)
        assert expression_to_text(parse_expression(expression_to_text(expr))) == \
            expression_to_text(expr)


def test_factory_inject_not_serializable():
    rule = Rule(
        "r", CONNS[0], gamma_no_tls(), TrueCondition(),
        [InjectNewMessage(lambda ctx: None)],
    )
    attack = Attack("x", [AttackState("s", [rule])], "s")
    with pytest.raises(CompileError):
        generate_attack_source(attack)


def test_compile_rejects_broken_source():
    with pytest.raises(CompileError):
        compile_attack_source("raise RuntimeError('nope')")
    with pytest.raises(CompileError):
        compile_attack_source("ATTACK = 42")


@given(st.integers(min_value=1, max_value=30))
def test_counting_attack_roundtrips_for_any_n(n):
    attack = counting_attack_deque(CONNS, n=n)
    rebuilt = compile_attack_source(generate_attack_source(attack))
    assert rebuilt.summary() == attack.summary()
