"""Attack actions α (Section V-D).

Each action either actuates one attacker capability from Table I
(``required_capability`` names it), operates on storage Δ, or is one of the
framework actions GOTOSTATE / SLEEP / SYSCMD.  Actions run inside an
:class:`ActionContext` supplied by the attack executor; capability-derived
actions manipulate the outgoing message list exactly as the paper's
MESSAGEMODIFIER does (Algorithm 1, line 14).  An argument given as an
:class:`Expression` is compiled once, when the action is built; no value
an argument yields ends the run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List, Optional, Union

from repro.openflow.match import MATCH_FIELD_NAMES
from repro.openflow.messages import FlowMod, FlowRemoved, OpenFlowMessage, PacketIn, PacketOut
from repro.core.lang.conditionals import EvalContext, Expression
from repro.core.lang.properties import InterposedMessage
from repro.core.model.capabilities import Capability


def _lowered(value: Any) -> Callable[[EvalContext], Any]:
    """An action argument as a closure: an :class:`Expression` compiled,
    any other value resolving to itself."""
    if isinstance(value, Expression):
        return value.compile()
    return lambda ctx: value


@dataclass
class OutgoingMessage:
    """One entry of the executor's outgoing message list (msg_out)."""

    message: InterposedMessage
    delay: float = 0.0
    injected: bool = False

    def __repr__(self) -> str:
        marks = []
        if self.delay:
            marks.append(f"+{self.delay}s")
        if self.injected:
            marks.append("injected")
        suffix = f" [{' '.join(marks)}]" if marks else ""
        return f"<Outgoing {self.message!r}{suffix}>"


class ActionContext:
    """Everything an action may touch while executing.

    ``out`` is the outgoing message list seeded with the incoming message
    (Algorithm 1, line 5).  ``goto``/``sleep``/``syscmd`` are executor
    hooks; ``record`` feeds the monitors; ``rng`` seeds FUZZMESSAGE.
    """

    def __init__(
        self,
        eval_ctx: EvalContext,
        out: List[OutgoingMessage],
        goto: Callable[[str], None],
        sleep: Callable[[float], None],
        syscmd: Callable[[str, str], None],
        record: Callable[[str, dict], None],
        rng,
    ) -> None:
        self.eval_ctx = eval_ctx
        self.out = out
        self.goto = goto
        self.sleep = sleep
        self.syscmd = syscmd
        self.record = record
        self.rng = rng

    @property
    def message(self) -> Optional[InterposedMessage]:
        return self.eval_ctx.message

    def current_entry(self) -> Optional[OutgoingMessage]:
        """The msg_out entry carrying the incoming message, if still present."""
        incoming = self.message
        if incoming is None:
            return None
        for entry in self.out:
            if entry.message is incoming:
                return entry
        return None


class AttackAction:
    """Base class for all actions."""

    #: The Table I capability this action actuates; None for storage and
    #: framework actions.
    required_capability: Optional[Capability] = None

    def apply(self, ctx: ActionContext) -> None:
        raise NotImplementedError

    def required_capabilities(self) -> FrozenSet[Capability]:
        """All capabilities needed: own capability + argument expressions'."""
        caps = set()
        if self.required_capability is not None:
            caps.add(self.required_capability)
        for expr in self.argument_expressions():
            caps |= expr.required_capabilities()
        return frozenset(caps)

    def argument_expressions(self) -> List[Expression]:
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------- #
# Capability actions (Table I)
# ---------------------------------------------------------------------- #


class PassMessage(AttackAction):
    """PASSMESSAGE(msg): allow the message through (explicit no-op)."""

    required_capability = Capability.PASS_MESSAGE

    def apply(self, ctx: ActionContext) -> None:
        ctx.record("pass_message", {"id": ctx.message.msg_id if ctx.message else None})


class DropMessage(AttackAction):
    """DROPMESSAGE(msg): remove the message from the outgoing list."""

    required_capability = Capability.DROP_MESSAGE

    def apply(self, ctx: ActionContext) -> None:
        entry = ctx.current_entry()
        if entry is not None:
            ctx.out.remove(entry)
            ctx.record("drop_message", {"id": entry.message.msg_id})


class DelayMessage(AttackAction):
    """DELAYMESSAGE(msg, t): postpone forwarding by ``seconds``.

    A delay that is None or not a number is no delay.
    """

    required_capability = Capability.DELAY_MESSAGE

    def __init__(self, seconds: Union[float, Expression]) -> None:
        self.seconds = seconds
        self._seconds = _lowered(seconds)

    def apply(self, ctx: ActionContext) -> None:
        entry = ctx.current_entry()
        if entry is None:
            return
        try:
            delay = float(self._seconds(ctx.eval_ctx) or 0.0)
        except (TypeError, ValueError):
            delay = 0.0
        entry.delay += max(0.0, delay)
        ctx.record("delay_message", {"id": entry.message.msg_id, "delay": delay})

    def argument_expressions(self) -> List[Expression]:
        return [self.seconds] if isinstance(self.seconds, Expression) else []

    def __repr__(self) -> str:
        return f"DelayMessage({self.seconds!r})"


class DuplicateMessage(AttackAction):
    """DUPLICATEMESSAGE(msg): append a replica to the outgoing list."""

    required_capability = Capability.DUPLICATE_MESSAGE

    def __init__(self, copies: int = 1) -> None:
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies!r}")
        self.copies = copies

    def apply(self, ctx: ActionContext) -> None:
        incoming = ctx.message
        if incoming is None:
            return
        for _ in range(self.copies):
            ctx.out.append(OutgoingMessage(incoming.copy(), injected=True))
        ctx.record("duplicate_message", {"id": incoming.msg_id, "copies": self.copies})

    def __repr__(self) -> str:
        return f"DuplicateMessage(copies={self.copies})"


class ReadMessageMetadata(AttackAction):
    """READMESSAGEMETADATA(msg): record addressing/size/time metadata."""

    required_capability = Capability.READ_MESSAGE_METADATA

    def __init__(self, store_to: Optional[str] = None) -> None:
        self.store_to = store_to

    def apply(self, ctx: ActionContext) -> None:
        if ctx.message is None:
            return
        summary = ctx.message.metadata_summary()
        ctx.record("read_message_metadata", summary)
        if self.store_to is not None:
            ctx.eval_ctx.storage.deque(self.store_to).append(summary)

    def __repr__(self) -> str:
        return f"ReadMessageMetadata(store_to={self.store_to!r})"


class ModifyMessageMetadata(AttackAction):
    """MODIFYMESSAGEMETADATA(msg, field, value): rewrite metadata.

    ``destination`` rewrites cause the proxy to re-route the message to the
    named device's connection when one exists.
    """

    required_capability = Capability.MODIFY_MESSAGE_METADATA

    FIELDS = ("source", "destination")

    def __init__(self, metadata_field: str, value: Union[str, Expression]) -> None:
        if metadata_field not in self.FIELDS:
            raise ValueError(f"unsupported metadata field {metadata_field!r}")
        self.metadata_field = metadata_field
        self.value = value
        self._value = _lowered(value)

    def apply(self, ctx: ActionContext) -> None:
        if ctx.message is None:
            return
        value = self._value(ctx.eval_ctx)
        ctx.message.metadata_overrides[self.metadata_field] = value
        ctx.record(
            "modify_message_metadata",
            {"id": ctx.message.msg_id, "field": self.metadata_field, "value": value},
        )

    def argument_expressions(self) -> List[Expression]:
        return [self.value] if isinstance(self.value, Expression) else []

    def __repr__(self) -> str:
        return f"ModifyMessageMetadata({self.metadata_field!r}, {self.value!r})"


class FuzzMessage(AttackAction):
    """FUZZMESSAGE(msg): flip random bits, possibly breaking semantics."""

    required_capability = Capability.FUZZ_MESSAGE

    def __init__(self, bit_flips: int = 8, preserve_header: bool = False) -> None:
        if bit_flips < 1:
            raise ValueError(f"bit_flips must be >= 1, got {bit_flips!r}")
        self.bit_flips = bit_flips
        self.preserve_header = preserve_header

    def apply(self, ctx: ActionContext) -> None:
        incoming = ctx.message
        if incoming is None:
            return
        raw = incoming.raw
        if self.preserve_header and len(raw) > 8:
            fuzzed = raw[:8] + ctx.rng.flip_bits(raw[8:], self.bit_flips)
        else:
            fuzzed = ctx.rng.flip_bits(raw, self.bit_flips)
        incoming.set_raw(fuzzed)
        ctx.record("fuzz_message", {"id": incoming.msg_id, "bit_flips": self.bit_flips})

    def __repr__(self) -> str:
        return f"FuzzMessage(bit_flips={self.bit_flips})"


class ReadMessage(AttackAction):
    """READMESSAGE(msg): record the decoded payload; optionally store the
    message itself in a deque for later replay."""

    required_capability = Capability.READ_MESSAGE

    def __init__(self, store_to: Optional[str] = None) -> None:
        self.store_to = store_to

    def apply(self, ctx: ActionContext) -> None:
        if ctx.message is None:
            return
        ctx.record("read_message", ctx.message.payload_summary())
        if self.store_to is not None:
            ctx.eval_ctx.storage.deque(self.store_to).append(ctx.message.copy())

    def __repr__(self) -> str:
        return f"ReadMessage(store_to={self.store_to!r})"


class ModifyMessage(AttackAction):
    """MODIFYMESSAGE(msg, field, value): semantically valid payload edit.

    Field paths name type options, e.g. ``idle_timeout`` or
    ``match.nw_src`` on a FLOW_MOD, ``in_port`` on a PACKET_OUT.  The
    message is re-encoded after the edit, so it stays protocol-conformant.
    A value the field cannot hold (not a number, out of the field's
    range, not an address) leaves the message as it was.
    """

    required_capability = Capability.MODIFY_MESSAGE

    def __init__(self, field_path: str, value: Union[Any, Expression]) -> None:
        self.field_path = field_path
        self.value = value
        self._value = _lowered(value)

    def apply(self, ctx: ActionContext) -> None:
        incoming = ctx.message
        if incoming is None or incoming.parsed is None:
            return
        value = self._value(ctx.eval_ctx)
        message = incoming.parsed
        try:
            if not self._set_field(message, self.field_path, value):
                return
            incoming.replace_payload(message)
        except (TypeError, ValueError, OverflowError, struct.error):
            # The bytes stay; the decode the edit half-changed goes.
            incoming.set_raw(incoming.raw)
            return
        ctx.record(
            "modify_message",
            {"id": incoming.msg_id, "field": self.field_path, "value": value},
        )

    @staticmethod
    def _set_field(message: OpenFlowMessage, path: str, value: Any) -> bool:
        head, _, rest = path.partition(".")
        if head == "match" and rest and isinstance(message, (FlowMod, FlowRemoved)):
            if rest not in MATCH_FIELD_NAMES:
                return False
            # The match's field setters take addresses in any form their
            # constructors accept and everything else as an int.
            setattr(message.match, rest, value)
            return True
        if head == "output_port" and isinstance(message, (FlowMod, PacketOut)):
            # Rewrite every OUTPUT action's port — the black-hole primitive:
            # the rule installs, the controller believes it, the traffic
            # goes somewhere else (or nowhere).
            from repro.openflow.actions import OutputAction

            rewrote = False
            for action in message.actions:
                if isinstance(action, OutputAction):
                    action.port = int(value)
                    rewrote = True
            return rewrote
        numeric_fields = {
            FlowMod: ("idle_timeout", "hard_timeout", "priority", "buffer_id",
                      "cookie", "out_port", "flags"),
            PacketIn: ("in_port", "buffer_id", "total_len"),
            PacketOut: ("in_port", "buffer_id"),
        }
        for cls, fields in numeric_fields.items():
            if isinstance(message, cls) and head in fields:
                setattr(message, head, int(value))
                return True
        return False

    def argument_expressions(self) -> List[Expression]:
        return [self.value] if isinstance(self.value, Expression) else []

    def __repr__(self) -> str:
        return f"ModifyMessage({self.field_path!r}, {self.value!r})"


MessageSource = Union[Expression, OpenFlowMessage, Callable[[ActionContext], Any]]


class InjectNewMessage(AttackAction):
    """INJECTNEWMESSAGE: place a new, semantically valid message on the wire.

    The payload source may be an expression over storage (replaying a
    stored :class:`InterposedMessage`), a literal
    :class:`~repro.openflow.messages.OpenFlowMessage`, or a factory
    callable.  The message is emitted on the current rule's connection in
    ``direction`` (defaults to the triggering message's direction).
    """

    required_capability = Capability.INJECT_NEW_MESSAGE

    def __init__(self, source: MessageSource, direction: Optional[str] = None) -> None:
        self.source = source
        self.direction = direction
        if callable(source) and not isinstance(source, OpenFlowMessage):
            self._payload = source
        else:
            payload = _lowered(source)
            self._payload = lambda ctx: payload(ctx.eval_ctx)

    def apply(self, ctx: ActionContext) -> None:
        payload = self._payload(ctx)
        if payload is None:
            return
        incoming = ctx.message
        if isinstance(payload, InterposedMessage):
            injected = payload.copy()
            injected.timestamp = ctx.eval_ctx.now
        elif isinstance(payload, OpenFlowMessage):
            if incoming is None:
                return
            from repro.core.lang.properties import Direction

            direction = (
                Direction(self.direction) if self.direction else incoming.direction
            )
            injected = InterposedMessage(
                incoming.connection, direction, ctx.eval_ctx.now, payload.pack(),
                payload, ids=incoming.ids,
            )
        else:
            return
        ctx.out.append(OutgoingMessage(injected, injected=True))
        ctx.record("inject_new_message", {"id": injected.msg_id})

    def argument_expressions(self) -> List[Expression]:
        return [self.source] if isinstance(self.source, Expression) else []

    def __repr__(self) -> str:
        return f"InjectNewMessage({self.source!r})"


# ---------------------------------------------------------------------- #
# Storage actions (deque operations as statements)
# ---------------------------------------------------------------------- #


class _DequeAction(AttackAction):
    def __init__(self, deque_name: str) -> None:
        self.deque_name = deque_name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.deque_name!r})"


class PrependAction(_DequeAction):
    """PREPEND(δ, value)."""

    def __init__(self, deque_name: str, value: Expression) -> None:
        super().__init__(deque_name)
        self.value = value
        self._value = _lowered(value)

    def apply(self, ctx: ActionContext) -> None:
        value = self._value(ctx.eval_ctx)
        ctx.eval_ctx.storage.deque(self.deque_name).prepend(value)

    def argument_expressions(self) -> List[Expression]:
        return [self.value]

    def __repr__(self) -> str:
        return f"PrependAction({self.deque_name!r}, {self.value!r})"


class AppendAction(_DequeAction):
    """APPEND(δ, value)."""

    def __init__(self, deque_name: str, value: Expression) -> None:
        super().__init__(deque_name)
        self.value = value
        self._value = _lowered(value)

    def apply(self, ctx: ActionContext) -> None:
        value = self._value(ctx.eval_ctx)
        ctx.eval_ctx.storage.deque(self.deque_name).append(value)

    def argument_expressions(self) -> List[Expression]:
        return [self.value]

    def __repr__(self) -> str:
        return f"AppendAction({self.deque_name!r}, {self.value!r})"


class ShiftAction(_DequeAction):
    """SHIFT(δ) as a statement (returned value discarded)."""

    def apply(self, ctx: ActionContext) -> None:
        stored = ctx.eval_ctx.storage.deque(self.deque_name)
        if len(stored):
            stored.shift()


class PopAction(_DequeAction):
    """POP(δ) as a statement (returned value discarded)."""

    def apply(self, ctx: ActionContext) -> None:
        stored = ctx.eval_ctx.storage.deque(self.deque_name)
        if len(stored):
            stored.pop()


# ---------------------------------------------------------------------- #
# Framework actions
# ---------------------------------------------------------------------- #


class GoToState(AttackAction):
    """GOTOSTATE(σ): transition the attack to another state."""

    def __init__(self, state_name: str) -> None:
        self.state_name = state_name

    def apply(self, ctx: ActionContext) -> None:
        ctx.goto(self.state_name)

    def __repr__(self) -> str:
        return f"GoToState({self.state_name!r})"


class Sleep(AttackAction):
    """SLEEP(t): halt attack-state execution for ``seconds``."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"sleep must be non-negative, got {seconds!r}")
        self.seconds = float(seconds)

    def apply(self, ctx: ActionContext) -> None:
        ctx.sleep(self.seconds)

    def __repr__(self) -> str:
        return f"Sleep({self.seconds})"


class SysCmd(AttackAction):
    """SYSCMD(host, cmd): run a system command on a (simulated) host.

    The runtime injector routes the command to the experiment harness's
    registered handler — the paper uses this to actuate monitors such as
    iperf and tcpdump from inside attack descriptions.
    """

    def __init__(self, host: str, command: str) -> None:
        self.host = host
        self.command = command

    def apply(self, ctx: ActionContext) -> None:
        ctx.record("syscmd", {"host": self.host, "command": self.command})
        ctx.syscmd(self.host, self.command)

    def __repr__(self) -> str:
        return f"SysCmd({self.host!r}, {self.command!r})"
