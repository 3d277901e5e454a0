"""The attack executor — a faithful implementation of Algorithm 1.

The executor keeps the attack's current state σ_current, evaluates each
incoming interposed message against the rules of the state saved at the
start of processing (σ_previous), applies matching rules' actions, and
returns the outgoing message list.  GOTOSTATE actions set the next state
(Algorithm 1, lines 11–12); every other action is applied to the outgoing
list by its own ``apply`` — the paper's MESSAGEMODIFIER (line 14).

Rule dispatch is indexed: at attack-load time every rule's conditional λ
is lowered to a Python closure (:meth:`Rule.compiled_conditional`) and
each state's rules are indexed by ``(connection, coarse message type)``.
``handle_message`` then only evaluates rules that can possibly bind and
fire — the coarse type comes from a header-only byte peek, so a message
whose type no rule constrains passes through without ever being decoded.
The per-message cost drops from the paper's O(|Φ|) conditional
evaluations to O(|candidates|), with ``rules_skipped_by_index`` counting
the saving.  The proxy asks :meth:`AttackExecutor.passes` first, for each
frame: a message with no candidate is counted there and forwarded as its
frame, and never reaches ``handle_message``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.lang.actions import ActionContext, GoToState, OutgoingMessage
from repro.core.lang.attack import Attack
from repro.core.lang.conditionals import EvalContext
from repro.core.lang.properties import InterposedMessage
from repro.core.lang.rules import Rule
from repro.core.lang.states import AttackState
from repro.openflow.messages import peek_xid
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRng

ConnectionKey = Tuple[str, str]


class ExecutorObserver(Protocol):
    """Receives executor events (for the Section VI-B3 monitors)."""

    def rule_fired(self, state: str, rule_name: str, message: InterposedMessage) -> None:
        ...

    def state_changed(self, previous: str, current: str, at: float) -> None:
        ...


class _ConnectionDispatch:
    """Ordered rule dispatch for one (state, connection) pair.

    Holds the state's rules bound to the connection in their original order,
    each annotated with the conservative message-type set its conditional
    can fire on (``None`` = any type).  Candidate lists per coarse type are
    materialized lazily and cached — the type domain is the small, closed
    OpenFlow 1.0 message-type set.
    """

    __slots__ = ("annotated", "bound_count", "wildcard", "_by_type")

    def __init__(self, annotated: Sequence[Tuple[Rule, Optional[frozenset]]]) -> None:
        self.annotated = tuple(annotated)
        self.bound_count = len(self.annotated)
        self.wildcard = tuple(rule for rule, types in annotated if types is None)
        self._by_type: Dict[Optional[str], Tuple[Rule, ...]] = {}

    def candidates(self, type_name: Optional[str]) -> Tuple[Rule, ...]:
        """Rules that could fire for a message of ``type_name`` (in order)."""
        cached = self._by_type.get(type_name, None)
        if cached is None:
            if type_name is None:
                # Undecodable/unknown type: TYPE evaluates to None, so only
                # rules that do not constrain the type can fire.
                cached = self.wildcard
            else:
                cached = tuple(
                    rule
                    for rule, types in self.annotated
                    if types is None or type_name in types
                )
            self._by_type[type_name] = cached
        return cached


def _build_state_dispatch(state: AttackState) -> Dict[ConnectionKey, _ConnectionDispatch]:
    """Index one state's rules by connection, preserving rule order."""
    per_connection: Dict[ConnectionKey, List[Tuple[Rule, Optional[frozenset]]]] = {}
    for rule in state.rules:
        types = rule.message_types()
        for connection in rule.connections:
            per_connection.setdefault(connection, []).append((rule, types))
    return {
        connection: _ConnectionDispatch(annotated)
        for connection, annotated in per_connection.items()
    }


class AttackExecutor:
    """Runs one attack (Algorithm 1: ATTACKEXECUTOR(Σ, σ_start))."""

    def __init__(
        self,
        attack: Attack,
        engine: SimulationEngine,
        rng: Optional[SeededRng] = None,
        syscmd_router: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.attack = attack
        self.engine = engine
        self.rng = (rng or SeededRng(0)).child("executor")
        self.storage = attack.build_storage()
        self.current_state_name = attack.start            # line 2
        self.sleep_until = 0.0
        self._syscmd_router = syscmd_router or (lambda host, cmd: None)
        self._observers: List[ExecutorObserver] = []
        # Trace hook: None keeps every hot-path guard to one attribute
        # load + identity check (the zero-overhead-when-disabled contract).
        self.tracer = None
        self.stats: Dict[str, int] = {
            "messages_processed": 0,
            "rules_evaluated": 0,
            "rules_fired": 0,
            "rules_skipped_by_index": 0,
            "state_transitions": 0,
            "messages_injected": 0,
        }
        # One action context, pointed at each message's evaluation
        # context and outgoing list when a rule first fires on it.
        self._action_ctx = ActionContext(None, None, goto=self._goto,
                                         sleep=self._sleep, syscmd=self._syscmd,
                                         record=self._record, rng=self.rng)
        # Attack-load-time lowering: compile every conditional once and
        # index every state's rules by (connection, coarse message type).
        self._dispatch: Dict[str, Dict[ConnectionKey, _ConnectionDispatch]] = {}
        for state in attack.states.values():
            self._dispatch[state.name] = _build_state_dispatch(state)
            for rule in state.rules:
                rule.compiled_conditional()

    # ------------------------------------------------------------------ #
    # Observers / routing
    # ------------------------------------------------------------------ #

    def add_observer(self, observer: ExecutorObserver) -> None:
        self._observers.append(observer)

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.trace.TraceCollector` (or None)."""
        self.tracer = tracer
        self.storage.set_tracer(tracer)

    def set_syscmd_router(self, router: Callable[[str, str], None]) -> None:
        self._syscmd_router = router

    @property
    def current_state(self):
        return self.attack.states[self.current_state_name]

    def sleeping(self, now: float) -> bool:
        """True while a SLEEP action is holding up state execution."""
        return now < self.sleep_until

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def passes(self, connection: ConnectionKey, type_name: Optional[str]) -> bool:
        """True, counting the message as handled, when no rule of the
        current state can fire on a message of ``type_name`` on
        ``connection``: Algorithm 1's output is then the message alone.
        False leaves the message to :meth:`handle_message`."""
        dispatch = self._dispatch[self.current_state_name].get(connection)
        skipped = 0
        if dispatch is not None:
            if dispatch.candidates(type_name):
                return False
            skipped = dispatch.bound_count
        stats = self.stats
        stats["messages_processed"] += 1
        stats["rules_skipped_by_index"] += skipped
        return True

    def handle_message(self, incoming: InterposedMessage) -> List[OutgoingMessage]:
        """Process one asynchronous incoming message (lines 4–21)."""
        stats = self.stats
        stats["messages_processed"] += 1
        out: List[OutgoingMessage] = [OutgoingMessage(incoming)]       # line 5
        state = self.current_state_name                                # line 6
        dispatch = self._dispatch[state].get(incoming.connection)
        if dispatch is None:
            return out
        candidates = dispatch.candidates(incoming.coarse_type_name)
        stats["rules_skipped_by_index"] += dispatch.bound_count - len(candidates)
        if not candidates:
            # No rule can bind and fire: pass-through without building the
            # evaluation/action contexts (or decoding the message at all).
            return out
        eval_ctx = EvalContext(incoming, self.storage, self.engine.now,
                               rng=self.rng)
        action_ctx: Optional[ActionContext] = None
        tracer = self.tracer
        for rule in candidates:                                        # line 7
            stats["rules_evaluated"] += 1
            fired = rule.compiled_conditional()(eval_ctx)              # line 9
            if tracer is not None:
                tracer.emit("rule_eval", state=state, rule=rule.name,
                            msg_id=incoming.msg_id, fired=bool(fired))
            if fired:
                stats["rules_fired"] += 1
                self._notify_rule(state, rule.name, incoming)
                if action_ctx is None:
                    action_ctx = self._action_context(eval_ctx, out)
                for action in rule.actions:                            # line 10
                    if isinstance(action, GoToState):                  # lines 11–12
                        self._goto(action.state_name)
                    else:                                              # line 14
                        if tracer is not None:
                            tracer.emit("action", state=state, rule=rule.name,
                                        action=type(action).__name__)
                        action.apply(action_ctx)
        if action_ctx is not None:
            # The survival verdict, decided here once: the monitors' drop
            # counts read ``incoming.dropped``.
            survived = False
            for entry in out:
                if entry.message is incoming:
                    survived = True
                if entry.injected:
                    stats["messages_injected"] += 1
            if not survived:
                incoming.dropped = True
                if tracer is not None:
                    self._trace_drop(state, incoming)
        return out                                                     # lines 19–21

    def _action_context(
        self, eval_ctx: EvalContext, out: List[OutgoingMessage]
    ) -> ActionContext:
        action_ctx = self._action_ctx
        action_ctx.eval_ctx = eval_ctx
        action_ctx.out = out
        return action_ctx

    # ------------------------------------------------------------------ #
    # Framework hooks
    # ------------------------------------------------------------------ #

    def _goto(self, state_name: str) -> None:
        if state_name not in self.attack.states:
            raise KeyError(
                f"GOTOSTATE target {state_name!r} is not a state of "
                f"attack {self.attack.name!r}"
            )
        if state_name == self.current_state_name:
            return
        previous = self.current_state_name
        self.current_state_name = state_name
        self.stats["state_transitions"] += 1
        if self.tracer is not None:
            self.tracer.emit("state", **{"from": previous, "to": state_name})
        for observer in self._observers:
            observer.state_changed(previous, state_name, self.engine.now)

    def _sleep(self, seconds: float) -> None:
        self.sleep_until = max(self.sleep_until, self.engine.now + seconds)

    def _syscmd(self, host: str, command: str) -> None:
        self._syscmd_router(host, command)

    def _record(self, kind: str, data: dict) -> None:
        if self.tracer is not None:
            self.tracer.emit("record", record_kind=kind, data=dict(data))

    def _notify_rule(self, state: str, rule_name: str, message: InterposedMessage) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "rule_fired",
                state=state,
                rule=rule_name,
                msg_id=message.msg_id,
                type=message.coarse_type_name,
                xid=peek_xid(message.raw),
                connection=list(message.connection),
                direction=message.direction.value,
            )
        for observer in self._observers:
            observer.rule_fired(state, rule_name, message)

    def _trace_drop(self, state: str, message: InterposedMessage) -> None:
        self.tracer.emit(
            "message_drop",
            state=state,
            msg_id=message.msg_id,
            type=message.coarse_type_name,
            xid=peek_xid(message.raw),
        )

    def __repr__(self) -> str:
        return (
            f"<AttackExecutor attack={self.attack.name!r} "
            f"state={self.current_state_name!r}>"
        )
