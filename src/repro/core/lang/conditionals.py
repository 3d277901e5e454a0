"""Conditional expressions λ and the shared expression language (Section V-B).

Conditionals are propositional logic over message properties with the
connectives AND, OR, NOT and the operators ``=`` (logical equality) and
``in`` (set membership).  The same expression layer supplies value
expressions for deque actions (e.g. the Section VIII-B counter idiom
``PREPEND(δ, SHIFT(δ) + 1)``), so expressions may deliberately carry
storage side effects.

Every node reports the attacker capabilities needed to *evaluate* it:
metadata properties need READMESSAGEMETADATA, payload properties (TYPE and
all TYPE OPTIONS) need READMESSAGE.  Rule validation aggregates these.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.lang.properties import (
    METADATA_PROPERTIES,
    InterposedMessage,
    MessageProperty,
)
from repro.core.lang.storage import StorageSet
from repro.core.model.capabilities import Capability


class EvalContext:
    """Evaluation context: the current message, storage Δ, the clock, and
    (for stochastic conditionals) a seeded random stream."""

    __slots__ = ("message", "storage", "now", "rng")

    def __init__(
        self,
        message: Optional[InterposedMessage],
        storage: StorageSet,
        now: float = 0.0,
        rng=None,
    ) -> None:
        self.message = message
        self.storage = storage
        self.now = now
        self.rng = rng


# ---------------------------------------------------------------------- #
# Value expressions
# ---------------------------------------------------------------------- #


class Expression:
    """Base class for value expressions."""

    def evaluate(self, ctx: EvalContext) -> Any:
        raise NotImplementedError

    def compile(self) -> Callable[[EvalContext], Any]:
        """Lower this expression to a plain closure.

        The default falls back to the interpreted :meth:`evaluate`, which is
        the required behaviour for storage-side-effect nodes (SHIFT/POP):
        their interpreted semantics *are* the semantics.  Pure nodes
        override this to return a dedicated closure that skips the AST walk.
        """
        return self.evaluate

    def required_capabilities(self) -> FrozenSet[Capability]:
        return frozenset()

    def children(self) -> Sequence["Expression"]:
        return ()


class Const(Expression):
    """A literal constant (number, string, or a set for ``in``)."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.value

    def compile(self) -> Callable[[EvalContext], Any]:
        value = self.value
        return lambda ctx: value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Property(Expression):
    """A Section V-A message property reference."""

    def __init__(self, prop: MessageProperty) -> None:
        self.prop = prop

    def evaluate(self, ctx: EvalContext) -> Any:
        if ctx.message is None:
            return None
        return ctx.message.get_property(self.prop)

    def compile(self) -> Callable[[EvalContext], Any]:
        getter = _PROPERTY_GETTERS[self.prop]

        def run(ctx: EvalContext) -> Any:
            message = ctx.message
            return None if message is None else getter(message)

        return run

    def required_capabilities(self) -> FrozenSet[Capability]:
        if self.prop in METADATA_PROPERTIES:
            return frozenset({Capability.READ_MESSAGE_METADATA})
        return frozenset({Capability.READ_MESSAGE})

    def __repr__(self) -> str:
        return f"Property({self.prop.value})"


#: Direct per-property getters used by compiled Property nodes; each is the
#: body of the matching :meth:`InterposedMessage.get_property` branch.
_PROPERTY_GETTERS = {
    MessageProperty.SOURCE: lambda m: m.source,
    MessageProperty.DESTINATION: lambda m: m.destination,
    MessageProperty.TIMESTAMP: lambda m: m.timestamp,
    MessageProperty.LENGTH: lambda m: len(m.raw),
    MessageProperty.ID: lambda m: m.msg_id,
    MessageProperty.TYPE: lambda m: m.message_type_name,
}


class TypeOption(Expression):
    """A MESSAGETYPEOPTIONS reference, e.g. ``opt.match.nw_src``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def evaluate(self, ctx: EvalContext) -> Any:
        if ctx.message is None:
            return None
        return ctx.message.get_type_option(self.path)

    def compile(self) -> Callable[[EvalContext], Any]:
        path = self.path

        def run(ctx: EvalContext) -> Any:
            message = ctx.message
            return None if message is None else message.get_type_option(path)

        return run

    def required_capabilities(self) -> FrozenSet[Capability]:
        return frozenset({Capability.READ_MESSAGE})

    def __repr__(self) -> str:
        return f"TypeOption({self.path!r})"


class MessageRef(Expression):
    """The current message itself (for storing messages in deques)."""

    def evaluate(self, ctx: EvalContext) -> Any:
        return ctx.message

    def compile(self) -> Callable[[EvalContext], Any]:
        return lambda ctx: ctx.message

    def required_capabilities(self) -> FrozenSet[Capability]:
        # Storing a message for replay requires having read it.
        return frozenset({Capability.READ_MESSAGE_METADATA})

    def __repr__(self) -> str:
        return "MessageRef()"


class _DequeExpr(Expression):
    def __init__(self, deque_name: str) -> None:
        self.deque_name = deque_name

    def _deque(self, ctx: EvalContext):
        return ctx.storage.deque(self.deque_name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.deque_name!r})"


class ExamineFront(_DequeExpr):
    """value ← EXAMINEFRONT(δ): read the front element (no removal)."""

    def evaluate(self, ctx: EvalContext) -> Any:
        return self._deque(ctx).examine_front()

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name
        return lambda ctx: ctx.storage.deque(name).examine_front()


class ExamineEnd(_DequeExpr):
    """value ← EXAMINEEND(δ): read the end element (no removal)."""

    def evaluate(self, ctx: EvalContext) -> Any:
        return self._deque(ctx).examine_end()

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name
        return lambda ctx: ctx.storage.deque(name).examine_end()


class ShiftExpr(_DequeExpr):
    """value ← SHIFT(δ): remove and return the front element.

    Mutates storage, so :meth:`compile` keeps the interpreted fallback.
    """

    def evaluate(self, ctx: EvalContext) -> Any:
        return self._deque(ctx).shift()


class PopExpr(_DequeExpr):
    """value ← POP(δ): remove and return the end element.

    Mutates storage, so :meth:`compile` keeps the interpreted fallback.
    """

    def evaluate(self, ctx: EvalContext) -> Any:
        return self._deque(ctx).pop()


class Sum(Expression):
    """Left-associative ``+``/``-`` arithmetic over expressions."""

    def __init__(self, first: Expression, rest: Iterable = ()) -> None:
        self.first = first
        self.rest: List = list(rest)  # [(op, expr), ...] with op in "+-"

    def evaluate(self, ctx: EvalContext) -> Any:
        value = self.first.evaluate(ctx)
        for op, expr in self.rest:
            operand = expr.evaluate(ctx)
            value = 0 if value is None else value
            operand = 0 if operand is None else operand
            value = value + operand if op == "+" else value - operand
        return value

    def compile(self) -> Callable[[EvalContext], Any]:
        first = self.first.compile()
        rest = tuple((op == "+", expr.compile()) for op, expr in self.rest)

        def run(ctx: EvalContext) -> Any:
            value = first(ctx)
            for add, operand_fn in rest:
                operand = operand_fn(ctx)
                value = 0 if value is None else value
                operand = 0 if operand is None else operand
                value = value + operand if add else value - operand
            return value

        return run

    def required_capabilities(self) -> FrozenSet[Capability]:
        caps = set(self.first.required_capabilities())
        for _op, expr in self.rest:
            caps |= expr.required_capabilities()
        return frozenset(caps)

    def children(self) -> Sequence[Expression]:
        return [self.first] + [expr for _op, expr in self.rest]

    def __repr__(self) -> str:
        parts = [repr(self.first)] + [f"{op} {expr!r}" for op, expr in self.rest]
        return f"Sum({' '.join(parts)})"


# ---------------------------------------------------------------------- #
# Conditions
# ---------------------------------------------------------------------- #


class Condition:
    """Base class for conditional expressions λ."""

    def evaluate(self, ctx: EvalContext) -> bool:
        raise NotImplementedError

    def compile(self) -> Callable[[EvalContext], bool]:
        """Lower this conditional to a plain closure.

        The default falls back to the interpreted :meth:`evaluate`; the
        stochastic :class:`Probability` node keeps that fallback so its
        seeded-random draw order stays identical run-to-run.
        """
        return self.evaluate

    def required_capabilities(self) -> FrozenSet[Capability]:
        return frozenset()

    def __call__(self, ctx: EvalContext) -> bool:
        return self.evaluate(ctx)


def compile_condition(condition: Condition) -> Callable[[EvalContext], bool]:
    """Lower a λ AST to a Python closure (the executor's fast lane).

    Called once at attack-load time; the returned closure is semantically
    identical to ``condition.evaluate`` (including short-circuit order and
    storage side effects) but skips the per-message AST walk.  Stochastic
    and storage-side-effect nodes fall back to their interpreted
    ``evaluate`` internally.
    """
    return condition.compile()


class TrueCondition(Condition):
    """Matches every message (the trivial pass-everything rule of Fig. 5)."""

    def evaluate(self, ctx: EvalContext) -> bool:
        return True

    def compile(self) -> Callable[[EvalContext], bool]:
        return lambda ctx: True

    def __repr__(self) -> str:
        return "TrueCondition()"


def _as_number(value: Any):
    """Coerce a DSL value to a float for ordering, or None if impossible."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def smart_eq(left: Any, right: Any) -> bool:
    """Loose equality used by the DSL's ``=`` operator.

    Compares values directly first, then falls back to canonical string
    comparison so that e.g. ``Ipv4Address("10.0.0.2")``, ``"10.0.0.2"``,
    enum members, and their names all compare naturally.
    """
    if left is None or right is None:
        return left is None and right is None
    try:
        if left == right:
            return True
    except TypeError:
        pass
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            return float(left) == float(right)
        except ValueError:
            return False
    if isinstance(right, (int, float)) and isinstance(left, str):
        try:
            return float(right) == float(left)
        except ValueError:
            return False
    return str(left) == str(right)


class Comparison(Condition):
    """``=``, ``!=``, ``<``, ``>``, or set membership ``in``.

    The ordering operators are numeric (an extension beyond the paper's
    ``=``/``in``; they make time- and size-gated conditionals like
    ``timestamp > 30`` or ``length > 128`` expressible).
    """

    OPS = ("=", "!=", "<", ">", "in")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in self.OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, ctx: EvalContext) -> bool:
        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        if self.op == "=":
            return smart_eq(left, right)
        if self.op == "!=":
            return not smart_eq(left, right)
        if self.op in ("<", ">"):
            left_num = _as_number(left)
            right_num = _as_number(right)
            if left_num is None or right_num is None:
                return False
            return left_num < right_num if self.op == "<" else left_num > right_num
        # Membership: right must be iterable; compare with smart_eq so
        # "10.0.0.3" matches Ipv4Address("10.0.0.3") etc.
        if right is None:
            return False
        try:
            candidates = list(right)
        except TypeError:
            return False
        return any(smart_eq(left, candidate) for candidate in candidates)

    def compile(self) -> Callable[[EvalContext], bool]:
        left = self.left.compile()
        right = self.right.compile()
        op = self.op
        if op == "=":
            name = _type_equality_const(self)
            if isinstance(name, str):  # smart_eq of a str or None type name
                return lambda ctx: (ctx.message is not None
                                    and ctx.message.message_type_name == name)
            return lambda ctx: smart_eq(left(ctx), right(ctx))
        if op == "!=":
            return lambda ctx: not smart_eq(left(ctx), right(ctx))
        if op in ("<", ">"):
            less = op == "<"

            def run_order(ctx: EvalContext) -> bool:
                left_num = _as_number(left(ctx))
                right_num = _as_number(right(ctx))
                if left_num is None or right_num is None:
                    return False
                return left_num < right_num if less else left_num > right_num

            return run_order
        # Membership.  A constant right side is materialized once.
        if isinstance(self.right, Const):
            try:
                candidates = list(self.right.value) if self.right.value is not None else None
            except TypeError:
                candidates = None

            def run_in_const(ctx: EvalContext) -> bool:
                lhs = left(ctx)
                if candidates is None:
                    return False
                return any(smart_eq(lhs, candidate) for candidate in candidates)

            return run_in_const

        def run_in(ctx: EvalContext) -> bool:
            # Evaluate left before right — interpreted order, which matters
            # when either operand carries storage side effects.
            lhs = left(ctx)
            rhs = right(ctx)
            if rhs is None:
                return False
            try:
                values = list(rhs)
            except TypeError:
                return False
            return any(smart_eq(lhs, candidate) for candidate in values)

        return run_in

    def required_capabilities(self) -> FrozenSet[Capability]:
        return self.left.required_capabilities() | self.right.required_capabilities()

    def __repr__(self) -> str:
        return f"Comparison({self.left!r} {self.op} {self.right!r})"


class And(Condition):
    """Logical conjunction (∧)."""

    def __init__(self, *terms: Condition) -> None:
        self.terms = list(terms)

    def evaluate(self, ctx: EvalContext) -> bool:
        return all(term.evaluate(ctx) for term in self.terms)

    def compile(self) -> Callable[[EvalContext], bool]:
        compiled = tuple(term.compile() for term in self.terms)
        if len(compiled) == 2:
            first, second = compiled
            return lambda ctx: first(ctx) and second(ctx)
        return lambda ctx: all(term(ctx) for term in compiled)

    def required_capabilities(self) -> FrozenSet[Capability]:
        caps = set()
        for term in self.terms:
            caps |= term.required_capabilities()
        return frozenset(caps)

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.terms))})"


class Or(Condition):
    """Logical disjunction (∨)."""

    def __init__(self, *terms: Condition) -> None:
        self.terms = list(terms)

    def evaluate(self, ctx: EvalContext) -> bool:
        return any(term.evaluate(ctx) for term in self.terms)

    def compile(self) -> Callable[[EvalContext], bool]:
        compiled = tuple(term.compile() for term in self.terms)
        if len(compiled) == 2:
            first, second = compiled
            return lambda ctx: first(ctx) or second(ctx)
        return lambda ctx: any(term(ctx) for term in compiled)

    def required_capabilities(self) -> FrozenSet[Capability]:
        caps = set()
        for term in self.terms:
            caps |= term.required_capabilities()
        return frozenset(caps)

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.terms))})"


class Probability(Condition):
    """Stochastic conditional: true with probability ``p``.

    The paper's language "implements deterministic attacks in the context
    of our testing, but we will consider stochastic ... decision-making in
    future work" (Section VIII-A); this node is that extension.  The draw
    comes from the evaluation context's *seeded* random stream, so a
    stochastic attack is still replayable run-to-run.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p!r}")
        self.p = p

    def evaluate(self, ctx: EvalContext) -> bool:
        if self.p >= 1.0:
            return True
        if self.p <= 0.0 or ctx.rng is None:
            # Without a random stream a stochastic rule never fires —
            # deterministic contexts stay deterministic.
            return False
        return ctx.rng.random() < self.p

    # compile() deliberately not overridden: the stochastic draw keeps the
    # interpreted fallback so replayability analysis has one code path.

    def __repr__(self) -> str:
        return f"Probability({self.p})"


class Not(Condition):
    """Logical negation (¬)."""

    def __init__(self, term: Condition) -> None:
        self.term = term

    def evaluate(self, ctx: EvalContext) -> bool:
        return not self.term.evaluate(ctx)

    def compile(self) -> Callable[[EvalContext], bool]:
        term = self.term.compile()
        return lambda ctx: not term(ctx)

    def required_capabilities(self) -> FrozenSet[Capability]:
        return self.term.required_capabilities()

    def __repr__(self) -> str:
        return f"Not({self.term!r})"


# ---------------------------------------------------------------------- #
# Static analysis for the executor's rule index
# ---------------------------------------------------------------------- #


def condition_message_types(condition: Condition) -> Optional[FrozenSet[str]]:
    """Over-approximate the message TYPE values a conditional can match.

    Returns the set of ``MESSAGETYPE`` names for which ``condition`` could
    possibly evaluate true, or ``None`` when the conditional does not
    constrain the type (it must be evaluated for every message).  The
    analysis is conservative — a returned set may be too large, never too
    small — so the executor's per-type rule index can safely skip any rule
    whose set excludes the incoming message's type.
    """
    if isinstance(condition, Comparison):
        if condition.op == "=":
            const = _type_equality_const(condition)
            if const is not None:
                return frozenset({str(const)})
            return None
        if condition.op == "in":
            if isinstance(condition.left, Property) and isinstance(condition.right, Const):
                if condition.left.prop is MessageProperty.TYPE:
                    try:
                        values = list(condition.right.value)
                    except TypeError:
                        return None
                    return frozenset(str(value) for value in values)
            return None
        return None
    if isinstance(condition, And):
        known = [
            types
            for types in (condition_message_types(term) for term in condition.terms)
            if types is not None
        ]
        if not known:
            return None
        result = known[0]
        for types in known[1:]:
            result &= types
        return result
    if isinstance(condition, Or):
        union: set = set()
        for term in condition.terms:
            types = condition_message_types(term)
            if types is None:
                return None
            union |= types
        return frozenset(union)
    return None


def _type_equality_const(comparison: Comparison) -> Optional[Any]:
    """The constant a ``TYPE = const`` comparison pins, if it is one."""
    left, right = comparison.left, comparison.right
    if isinstance(left, Property) and left.prop is MessageProperty.TYPE:
        if isinstance(right, Const):
            return right.value
    if isinstance(right, Property) and right.prop is MessageProperty.TYPE:
        if isinstance(left, Const):
            return left.value
    return None
