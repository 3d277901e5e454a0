"""The attack language's interpreter, as the compiled closures' oracle.

:func:`evaluate` walks a λ or value-expression AST node by node, the way
the paper states the semantics (Section V-B).  The shipping path is each
node's ``compile()``; ``test_compiled_conditionals`` requires the two to
agree, and :class:`~tests.core.executor_reference.LinearAttackExecutor`
evaluates its rules with this function.
"""

from typing import Any

from repro.core.lang.conditionals import (
    And,
    Comparison,
    Const,
    EvalContext,
    ExamineEnd,
    ExamineFront,
    MessageRef,
    Not,
    Or,
    PopExpr,
    Probability,
    Property,
    ShiftExpr,
    Sum,
    TrueCondition,
    TypeOption,
    _as_number,
    smart_eq,
)


def evaluate(node, ctx: EvalContext) -> Any:
    """The value of ``node`` (a condition or an expression) in ``ctx``."""
    message = ctx.message
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Property):
        return None if message is None else message.get_property(node.prop)
    if isinstance(node, TypeOption):
        return None if message is None else message.get_type_option(node.path)
    if isinstance(node, MessageRef):
        return message
    if isinstance(node, (ExamineFront, ExamineEnd, ShiftExpr, PopExpr)):
        stored = ctx.storage.deque(node.deque_name)
        if isinstance(node, ExamineFront):
            return stored.examine_front()
        if isinstance(node, ExamineEnd):
            return stored.examine_end()
        if not len(stored):
            return None
        return stored.shift() if isinstance(node, ShiftExpr) else stored.pop()
    if isinstance(node, Sum):
        # Every operand is read before any is added: a sum that cannot
        # be computed still runs its SHIFT/POP operands, then reads None.
        value = evaluate(node.first, ctx)
        operands = [(op, evaluate(expr, ctx)) for op, expr in node.rest]
        for op, operand in operands:
            value = 0 if value is None else value
            operand = 0 if operand is None else operand
            try:
                value = value + operand if op == "+" else value - operand
            except TypeError:
                return None
        return value
    if isinstance(node, TrueCondition):
        return True
    if isinstance(node, Comparison):
        left = evaluate(node.left, ctx)
        right = evaluate(node.right, ctx)
        if node.op == "=":
            return smart_eq(left, right)
        if node.op == "!=":
            return not smart_eq(left, right)
        if node.op in ("<", ">"):
            left_num, right_num = _as_number(left), _as_number(right)
            if left_num is None or right_num is None:
                return False
            return left_num < right_num if node.op == "<" else left_num > right_num
        if right is None:
            return False
        try:
            candidates = list(right)
        except TypeError:
            return False
        return any(smart_eq(left, candidate) for candidate in candidates)
    if isinstance(node, And):
        return all(evaluate(term, ctx) for term in node.terms)
    if isinstance(node, Or):
        return any(evaluate(term, ctx) for term in node.terms)
    if isinstance(node, Not):
        return not evaluate(node.term, ctx)
    if isinstance(node, Probability):
        if node.p >= 1.0:
            return True
        if node.p <= 0.0 or ctx.rng is None:
            return False
        return ctx.rng.random() < node.p
    raise TypeError(f"no reference semantics for {node!r}")
