"""The paper's linear Algorithm 1 scan, as the indexed executor's oracle.

:class:`LinearAttackExecutor` evaluates every rule of σ_previous bound to
the message's connection, in order, with interpreted conditionals
(:func:`~tests.core.conditionals_reference.evaluate`) — the O(|Φ|)
per-message cost of §VI-D2.  The equivalence tests compare the
indexed :class:`~repro.core.injector.AttackExecutor` against it, and the
benchmarks time it as the baseline.
"""

from typing import List

from repro.core.injector import AttackExecutor
from repro.core.lang.actions import GoToState, OutgoingMessage
from repro.core.lang.conditionals import EvalContext
from repro.core.lang.properties import InterposedMessage
from tests.core.conditionals_reference import evaluate


class LinearAttackExecutor(AttackExecutor):
    """:class:`AttackExecutor` with the linear interpreted rule scan."""

    def handle_message(self, incoming: InterposedMessage) -> List[OutgoingMessage]:
        self.stats["messages_processed"] += 1
        out: List[OutgoingMessage] = [OutgoingMessage(incoming)]       # line 5
        previous_state = self.current_state                            # line 6
        eval_ctx = EvalContext(incoming, self.storage, self.engine.now,
                               rng=self.rng)
        action_ctx = self._action_context(eval_ctx, out)
        tracer = self.tracer
        for rule in previous_state.rules:                              # line 7
            if not rule.binds(incoming.connection):
                continue
            self.stats["rules_evaluated"] += 1
            fired = evaluate(rule.conditional, eval_ctx)               # line 9
            if tracer is not None:
                tracer.emit("rule_eval", state=previous_state.name,
                            rule=rule.name, msg_id=incoming.msg_id,
                            fired=bool(fired))
            if fired:
                self.stats["rules_fired"] += 1
                self._notify_rule(previous_state.name, rule.name, incoming)
                for action in rule.actions:                            # line 10
                    if isinstance(action, GoToState):                  # lines 11–12
                        self._goto(action.state_name)
                    else:                                              # line 14
                        if tracer is not None:
                            tracer.emit("action", state=previous_state.name,
                                        rule=rule.name,
                                        action=type(action).__name__)
                        action.apply(action_ctx)
        if not any(entry.message is incoming for entry in out):
            incoming.dropped = True
            if tracer is not None:
                self._trace_drop(previous_state.name, incoming)
        self.stats["messages_injected"] += sum(1 for entry in out if entry.injected)
        return out                                                     # lines 19–21
