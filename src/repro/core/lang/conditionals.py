"""Conditional expressions λ and the shared expression language (Section V-B).

Conditionals are propositional logic over message properties with the
connectives AND, OR, NOT and the operators ``=`` (logical equality) and
``in`` (set membership).  The same expression layer supplies value
expressions for deque actions (e.g. the Section VIII-B counter idiom
``PREPEND(δ, SHIFT(δ) + 1)``), so expressions may deliberately carry
storage side effects.

Each node's :meth:`compile` lowers it, once, to a plain closure over an
:class:`EvalContext`; that closure is the node's only implementation.
Every node reports the attacker capabilities needed to *evaluate* it:
metadata properties need READMESSAGEMETADATA, payload properties (TYPE and
all TYPE OPTIONS) need READMESSAGE.  Rule validation aggregates these.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.lang.properties import (
    METADATA_PROPERTIES,
    PROPERTY_GETTERS,
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

    def compile(self) -> Callable[[EvalContext], Any]:
        """Lower this expression to a closure over an :class:`EvalContext`."""
        raise NotImplementedError

    def required_capabilities(self) -> FrozenSet[Capability]:
        return frozenset()

    def children(self) -> Sequence["Expression"]:
        return ()


class Const(Expression):
    """A literal constant (number, string, or a set for ``in``)."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self) -> Callable[[EvalContext], Any]:
        value = self.value
        return lambda ctx: value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Property(Expression):
    """A Section V-A message property reference."""

    def __init__(self, prop: MessageProperty) -> None:
        self.prop = prop

    def compile(self) -> Callable[[EvalContext], Any]:
        getter = PROPERTY_GETTERS[self.prop]

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


class TypeOption(Expression):
    """A MESSAGETYPEOPTIONS reference, e.g. ``opt.match.nw_src``."""

    def __init__(self, path: str) -> None:
        self.path = path

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.deque_name!r})"


class ExamineFront(_DequeExpr):
    """value ← EXAMINEFRONT(δ): read the front element (no removal)."""

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name
        return lambda ctx: ctx.storage.deque(name).examine_front()


class ExamineEnd(_DequeExpr):
    """value ← EXAMINEEND(δ): read the end element (no removal)."""

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name
        return lambda ctx: ctx.storage.deque(name).examine_end()


class ShiftExpr(_DequeExpr):
    """value ← SHIFT(δ): remove and return the front element.

    An empty δ reads None, as EXAMINEFRONT does, and stays empty.
    """

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name

        def run(ctx: EvalContext) -> Any:
            stored = ctx.storage.deque(name)
            return stored.shift() if len(stored) else None

        return run


class PopExpr(_DequeExpr):
    """value ← POP(δ): remove and return the end element.

    An empty δ reads None, as EXAMINEEND does, and stays empty.
    """

    def compile(self) -> Callable[[EvalContext], Any]:
        name = self.deque_name

        def run(ctx: EvalContext) -> Any:
            stored = ctx.storage.deque(name)
            return stored.pop() if len(stored) else None

        return run


class Sum(Expression):
    """Left-associative ``+``/``-`` arithmetic over expressions.

    Every operand is read, left before right, and ``None`` counts as 0.
    A sum Python cannot compute (a string and a number, a message) reads
    None.
    """

    def __init__(self, first: Expression, rest: Iterable = ()) -> None:
        self.first = first
        self.rest: List = list(rest)  # [(op, expr), ...] with op in "+-"

    def compile(self) -> Callable[[EvalContext], Any]:
        first = self.first.compile()
        rest = tuple((op == "+", expr.compile()) for op, expr in self.rest)

        def run(ctx: EvalContext) -> Any:
            value = first(ctx)
            operands = [(add, operand_fn(ctx)) for add, operand_fn in rest]
            try:
                for add, operand in operands:
                    value = 0 if value is None else value
                    operand = 0 if operand is None else operand
                    value = value + operand if add else value - operand
            except TypeError:
                return None
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

    def compile(self) -> Callable[[EvalContext], bool]:
        """Lower this conditional to a closure over an :class:`EvalContext`.

        Operands run left before right and ``and``/``or`` short-circuit,
        so storage side effects (SHIFT/POP) happen in reading order.
        """
        raise NotImplementedError

    def required_capabilities(self) -> FrozenSet[Capability]:
        return frozenset()


class TrueCondition(Condition):
    """Matches every message (the trivial pass-everything rule of Fig. 5)."""

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
        # Membership, compared with smart_eq so "10.0.0.3" matches
        # Ipv4Address("10.0.0.3").  A constant right side is materialized
        # once.
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
            # Left before right: the order matters when either operand
            # carries storage side effects.
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

    def compile(self) -> Callable[[EvalContext], bool]:
        p = self.p
        if p >= 1.0:
            return lambda ctx: True
        if p <= 0.0:
            return lambda ctx: False
        # One draw per evaluation; without a random stream a stochastic
        # rule never fires, so deterministic contexts stay deterministic.
        return lambda ctx: ctx.rng is not None and ctx.rng.random() < p

    def __repr__(self) -> str:
        return f"Probability({self.p})"


class Not(Condition):
    """Logical negation (¬)."""

    def __init__(self, term: Condition) -> None:
        self.term = term

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
