"""The executor's indexed fast lane vs the paper's linear scan.

The indexed executor must be observably identical to the linear
Algorithm 1 scan (:mod:`tests.core.executor_reference`) — same outgoing
lists, drop verdicts, state transitions and fired rules — while skipping
conditionals the ``(connection, coarse type)`` index proves cannot fire.
"""

from repro.core.injector import AttackExecutor
from repro.core.lang import (
    Attack,
    AttackState,
    DropMessage,
    DuplicateMessage,
    GoToState,
    PassMessage,
    Rule,
    parse_condition,
)
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model import gamma_no_tls
from repro.openflow import EchoRequest, FlowMod, Hello, Match, PacketIn
from repro.sim import SimulationEngine
from tests.core.executor_reference import LinearAttackExecutor

CONN = ("c1", "s1")
OTHER = ("c1", "s2")


def interposed(message, connection=CONN):
    """A proxy-style interposed message: raw bytes only, no parsed payload."""
    return InterposedMessage(connection, Direction.TO_SWITCH, 0.0, message.pack())


def rule(name, condition_text, actions, connections=CONN):
    return Rule(name, connections, gamma_no_tls(),
                parse_condition(condition_text), actions)


def make_executor(states, start, executor_cls=AttackExecutor):
    attack = Attack("test", states, start)
    return executor_cls(attack, SimulationEngine())


def type_rules(n, condition="type = FLOW_MOD"):
    return [rule(f"r{i}", condition, [PassMessage()]) for i in range(n)]


class TestIndexSkipsRules:
    def test_unmatched_type_skips_every_conditional(self):
        executor = make_executor([AttackState("s", type_rules(8))], "s")
        out = executor.handle_message(interposed(Hello()))
        assert len(out) == 1
        assert executor.stats["rules_evaluated"] == 0
        assert executor.stats["rules_skipped_by_index"] == 8

    def test_matching_type_evaluates_all_candidates(self):
        executor = make_executor([AttackState("s", type_rules(8))], "s")
        executor.handle_message(interposed(FlowMod(Match())))
        assert executor.stats["rules_evaluated"] == 8
        assert executor.stats["rules_fired"] == 8
        assert executor.stats["rules_skipped_by_index"] == 0

    def test_skipped_message_is_never_decoded(self):
        executor = make_executor([AttackState("s", type_rules(4))], "s")
        message = interposed(Hello())
        executor.handle_message(message)
        assert message._parsed is None  # header peek only

    def test_unbound_connection_passes_through(self):
        executor = make_executor([AttackState("s", type_rules(4))], "s")
        out = executor.handle_message(interposed(FlowMod(Match()), OTHER))
        assert len(out) == 1
        assert executor.stats["rules_evaluated"] == 0

    def test_wildcard_rules_always_evaluated(self):
        states = [AttackState("s", type_rules(4) + [
            rule("any", "destination = s1", [DropMessage()]),
        ])]
        executor = make_executor(states, "s")
        assert executor.handle_message(interposed(Hello())) == []
        assert executor.stats["rules_evaluated"] == 1
        assert executor.stats["rules_skipped_by_index"] == 4

    def test_undecodable_message_reaches_wildcard_rules_only(self):
        states = [AttackState("s", type_rules(4) + [
            rule("any", "length = 8", [DropMessage()]),
        ])]
        executor = make_executor(states, "s")
        garbage = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, b"\xff" * 8)
        assert executor.handle_message(garbage) == []
        assert executor.stats["rules_evaluated"] == 1

    def test_linear_mode_has_no_index_stats(self):
        executor = make_executor([AttackState("s", type_rules(8))], "s",
                                 LinearAttackExecutor)
        executor.handle_message(interposed(Hello()))
        assert executor.stats["rules_evaluated"] == 8
        assert executor.stats["rules_skipped_by_index"] == 0


class TestFastPathEquivalence:
    def scenario_states(self):
        return [
            AttackState("one", [
                rule("dup", "type = PACKET_IN", [DuplicateMessage()]),
                rule("drop", "type = FLOW_MOD and destination = s1",
                     [DropMessage()]),
                rule("advance", "type = ECHO_REQUEST",
                     [PassMessage(), GoToState("two")]),
            ]),
            AttackState("two", [
                rule("drop-all", "destination = s1", [DropMessage()]),
                rule("back", "type = HELLO", [GoToState("one")],
                     connections=OTHER),
            ]),
        ]

    def traffic(self):
        return [
            (Hello(xid=1), CONN),
            (FlowMod(Match(in_port=1), xid=2), CONN),
            (PacketIn(7, 24, 3, 0, b"\x00" * 24, xid=3), CONN),
            (EchoRequest(payload=b"x", xid=4), CONN),
            (Hello(xid=5), CONN),
            (Hello(xid=6), OTHER),
            (FlowMod(Match(in_port=2), xid=7), CONN),
        ]

    def run(self, executor_cls):
        attack = Attack("equiv", self.scenario_states(), "one")
        executor = executor_cls(attack, SimulationEngine())
        trace = []
        for message, connection in self.traffic():
            incoming = interposed(message, connection)
            out = executor.handle_message(incoming)
            trace.append(
                ([entry.message.raw for entry in out],
                 executor.current_state_name, incoming.dropped)
            )
        return trace, executor.stats

    def test_same_outputs_states_and_fired_rules(self):
        fast_trace, fast_stats = self.run(AttackExecutor)
        linear_trace, linear_stats = self.run(LinearAttackExecutor)
        assert fast_trace == linear_trace
        assert any(dropped for _raws, _state, dropped in fast_trace)
        for key in ("messages_processed", "rules_fired", "state_transitions",
                    "messages_injected"):
            assert fast_stats[key] == linear_stats[key], key
        # The point of the index: strictly fewer conditionals evaluated.
        assert fast_stats["rules_evaluated"] < linear_stats["rules_evaluated"]
        assert fast_stats["rules_skipped_by_index"] > 0
