"""Unit tests for the stochastic-conditional extension (prob(p))."""

import pytest

from repro.core.compiler.codegen import condition_to_text
from repro.core.lang import (
    And,
    ConditionParseError,
    EvalContext,
    Probability,
    StorageSet,
    parse_condition,
)
from repro.sim import SeededRng


def ctx(rng=None):
    return EvalContext(None, StorageSet(), 0.0, rng=rng)


class TestProbabilityNode:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Probability(-0.1)
        with pytest.raises(ValueError):
            Probability(1.1)

    def test_certainties_need_no_rng(self):
        assert Probability(1.0).compile()(ctx())
        assert not Probability(0.0).compile()(ctx())

    def test_without_rng_never_fires(self):
        # Deterministic contexts stay deterministic.
        assert not Probability(0.99).compile()(ctx(rng=None))

    def test_empirical_rate(self):
        rng = SeededRng(3)
        node = Probability(0.25)
        hits = sum(1 for _ in range(4000) if node.compile()(ctx(rng)))
        assert 0.2 < hits / 4000 < 0.3

    def test_requires_no_capabilities(self):
        assert Probability(0.5).required_capabilities() == frozenset()


class TestParserSupport:
    def test_parse_prob(self):
        cond = parse_condition("prob(0.5)")
        assert isinstance(cond, Probability)
        assert cond.p == 0.5

    def test_prob_in_conjunction(self):
        cond = parse_condition("type = FLOW_MOD and prob(0.25)")
        assert isinstance(cond, And)

    def test_prob_integer_literal(self):
        assert parse_condition("prob(1)").p == 1.0

    @pytest.mark.parametrize("bad", ["prob()", "prob(abc)", "prob(0.5",
                                     "prob 0.5"])
    def test_malformed_prob_rejected(self, bad):
        with pytest.raises(ConditionParseError):
            parse_condition(bad)

    def test_out_of_range_rejected_at_parse(self):
        with pytest.raises((ConditionParseError, ValueError)):
            parse_condition("prob(2.0)")


class TestCodegenSupport:
    def test_unparse_reparse(self):
        cond = parse_condition("prob(0.25)")
        text = condition_to_text(cond)
        assert text == "prob(0.25)"
        assert parse_condition(text).p == 0.25

    def test_attack_with_prob_roundtrips(self):
        from repro.attacks import stochastic_drop_attack
        from repro.core.compiler import (
            compile_attack_source,
            generate_attack_source,
        )

        attack = stochastic_drop_attack(("c1", "s1"), 0.4)
        rebuilt = compile_attack_source(generate_attack_source(attack))
        assert rebuilt.summary() == attack.summary()
