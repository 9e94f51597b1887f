"""Compile expression ASTs into closures over positional row tuples.

Every expression the engine runs — a SELECT's WHERE, join keys,
projection, grouping, HAVING and ORDER BY, an INSERT's VALUES and an
UPDATE's SET — goes through :func:`compile_expression`: each
:class:`ColumnRef` is resolved to a tuple slot once, at plan time, and
each AST node becomes a Python closure ``fn(row, params) -> value``
where ``row`` is a flat tuple of column values.  The value semantics
(NULL propagation, comparison, arithmetic, scalar functions) are the
helpers of :mod:`repro.engine.expressions`.

Compilation is strict: unknown or ambiguous column references raise
:class:`~repro.errors.EngineError` immediately, with the text the
reference interpreter (``tests/reference.py``) raises when it meets
the same reference in a row.  Only over zero rows do the two differ:
the interpreter, which never evaluates the reference, returns no rows
(or, for an UPDATE, changes none) instead of raising.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    Star,
    UnaryOp,
    _SCALAR_FUNCTIONS,
    _arith,
    _compare,
    _like_to_regex,
    _three_valued_and,
    _three_valued_or,
)
from repro.errors import EngineError

# A compiled expression: (row_tuple, statement_params) -> value.
CompiledExpr = Callable[[Sequence[Any], Sequence[Any]], Any]


class SlotMap:
    """Plan-time name resolution: column name -> position in the row tuple.

    Sources are appended in FROM-clause order; each contributes one slot
    per column.  Qualified names (``alias.column``) from a later source
    shadow earlier ones (mirroring context-merge semantics), unqualified
    names that appear in more than one source become ambiguous.  Within
    one source (a view may repeat an output name) the later column
    shadows the earlier, as a row dict keyed by name would.
    """

    def __init__(self) -> None:
        self.slots: Dict[str, int] = {}
        self.ambiguous: Set[str] = set()
        self.width = 0
        # alias -> (start slot, column count), in FROM order
        self.sources: List[Tuple[str, int, int]] = []
        self._unqualified: Set[str] = set()

    def add_source(self, alias: str, column_names: Sequence[str]) -> int:
        """Register one FROM source; returns its starting slot."""
        start = self.width
        alias_key = alias.lower()
        for offset, column in enumerate(column_names):
            name = column.lower()
            self.slots[f"{alias_key}.{name}"] = start + offset
            if name in self.ambiguous:
                continue
            if name in self._unqualified and self.slots[name] < start:
                # Bare name claimed by an earlier source: ambiguous.
                self.ambiguous.add(name)
                self.slots.pop(name, None)
            else:
                self._unqualified.add(name)
                self.slots[name] = start + offset
        self.width += len(column_names)
        self.sources.append((alias, start, len(column_names)))
        return start

    def resolve(self, name: str) -> int:
        key = name.lower()
        slot = self.slots.get(key)
        if slot is not None:
            return slot
        if key in self.ambiguous:
            raise EngineError(f"ambiguous column reference {name!r}")
        raise EngineError(f"unknown column {name!r} in expression")

    def source_of_slot(self, slot: int) -> int:
        """Index (in FROM order) of the source owning ``slot``."""
        for position, (_alias, start, width) in enumerate(self.sources):
            if start <= slot < start + width:
                return position
        raise EngineError(f"slot {slot} belongs to no source")


class Scope:
    """Everything a compilation may resolve against.

    ``slots`` covers the FROM sources; ``agg_slots`` maps aggregate
    result keys to appended slots (grouped execution); ``alias_slots``
    maps projected output names to slots appended after everything else
    (ORDER BY may reference output aliases).  ``touched_source_slots``
    records which source slots any compiled expression read — the
    planner uses it to tell which side of a join an equality's operands
    read, and so whether it can be a hash-join key.
    """

    def __init__(self, slots: SlotMap,
                 agg_slots: Optional[Dict[str, int]] = None,
                 alias_slots: Optional[Dict[str, int]] = None):
        self.slots = slots
        self.agg_slots = agg_slots or {}
        self.alias_slots = alias_slots or {}
        self.touched_source_slots: Set[int] = set()

    def resolve(self, name: str) -> int:
        key = name.lower()
        slot = self.slots.slots.get(key)
        if slot is not None:
            self.touched_source_slots.add(slot)
            return slot
        if key in self.slots.ambiguous:
            raise EngineError(f"ambiguous column reference {name!r}")
        alias_slot = self.alias_slots.get(key)
        if alias_slot is not None:
            return alias_slot
        raise EngineError(f"unknown column {name!r} in expression")

    def aggregate(self, call: AggregateCall) -> int:
        key = call.result_key()
        slot = self.agg_slots.get(key)
        if slot is None:
            raise EngineError(
                f"aggregate {call.name} used outside a grouped query")
        return slot


def compile_expression(expr, scope: Scope) -> CompiledExpr:
    """Compile ``expr`` into a closure over ``(row, params)``."""
    if isinstance(expr, Literal):
        value = expr.value

        def run_literal(row, params):
            return value
        # Plan nodes peek at ``_const`` to fold constants into
        # specialized comparison closures.
        run_literal._const = value
        return run_literal

    if isinstance(expr, Parameter):
        index = expr.index

        def run_param(row, params):
            try:
                return params[index]
            except IndexError as exc:
                raise EngineError(
                    f"statement needs parameter #{index + 1} "
                    f"but only {len(params)} were supplied") from exc
        return run_param

    if isinstance(expr, ColumnRef):
        slot = scope.resolve(expr.name)

        def run_column(row, params):
            return row[slot]
        # Plan nodes peek at ``_slot`` to index rows directly instead of
        # paying a closure call per row on hot paths (join keys, group
        # keys, aggregate arguments, projections).
        run_column._slot = slot
        return run_column

    if isinstance(expr, AggregateCall):
        slot = scope.aggregate(expr)

        def run_aggregate(row, params):
            return row[slot]
        run_aggregate._slot = slot
        return run_aggregate

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, scope)

    if isinstance(expr, UnaryOp):
        operand = compile_expression(expr.operand, scope)
        op = expr.op
        if op == "NOT":
            def run_not(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                return not value
            return run_not
        if op == "-":
            def run_neg(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise EngineError("unary '-' requires a numeric operand")
                return -value
            return run_neg
        if op == "+":
            def run_pos(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                return value
            return run_pos
        raise EngineError(f"unknown unary operator {op!r}")  # pragma: no cover

    if isinstance(expr, IsNull):
        operand = compile_expression(expr.operand, scope)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None

    if isinstance(expr, InList):
        operand = compile_expression(expr.operand, scope)
        options = [compile_expression(option, scope)
                   for option in expr.options]
        negated = expr.negated

        def run_in(row, params):
            value = operand(row, params)
            if value is None:
                return None
            saw_null = False
            for option in options:
                candidate = option(row, params)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated
        return run_in

    if isinstance(expr, Between):
        operand = compile_expression(expr.operand, scope)
        low = compile_expression(expr.low, scope)
        high = compile_expression(expr.high, scope)
        negated = expr.negated

        def run_between(row, params):
            value = operand(row, params)
            result = _three_valued_and(
                _compare(">=", value, low(row, params)),
                _compare("<=", value, high(row, params)))
            if result is None:
                return None
            return not result if negated else result
        return run_between

    if isinstance(expr, Like):
        operand = compile_expression(expr.operand, scope)
        negated = expr.negated
        if isinstance(expr.pattern, Literal) \
                and isinstance(expr.pattern.value, str):
            regex = _like_to_regex(expr.pattern.value)

            def run_like_const(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                if not isinstance(value, str):
                    raise EngineError("LIKE requires TEXT operands")
                result = regex.match(value) is not None
                return not result if negated else result
            return run_like_const
        pattern = compile_expression(expr.pattern, scope)

        def run_like(row, params):
            value = operand(row, params)
            text = pattern(row, params)
            if value is None or text is None:
                return None
            if not isinstance(value, str) or not isinstance(text, str):
                raise EngineError("LIKE requires TEXT operands")
            result = _like_to_regex(text).match(value) is not None
            return not result if negated else result
        return run_like

    if isinstance(expr, CaseExpr):
        branches = [
            (compile_expression(condition, scope),
             compile_expression(result, scope))
            for condition, result in expr.branches
        ]
        default = None if expr.default is None \
            else compile_expression(expr.default, scope)

        def run_case(row, params):
            for condition, result in branches:
                if condition(row, params) is True:
                    return result(row, params)
            if default is not None:
                return default(row, params)
            return None
        return run_case

    if isinstance(expr, FunctionCall):
        fn = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if fn is None:
            raise EngineError(f"unknown function {expr.name!r}")
        args = [compile_expression(arg, scope) for arg in expr.args]

        def run_fn(row, params):
            return fn(*[arg(row, params) for arg in args])
        return run_fn

    if isinstance(expr, Star):
        raise EngineError("'*' cannot be evaluated as a value")

    raise EngineError(
        f"cannot compile expression {type(expr).__name__}")


def _compile_binary(expr: BinaryOp, scope: Scope) -> CompiledExpr:
    left = compile_expression(expr.left, scope)
    right = compile_expression(expr.right, scope)
    op = expr.op
    # Like the reference interpreter, AND/OR evaluate both sides (no short
    # circuit) so side errors surface identically on both paths.
    if op == "AND":
        return lambda row, params: _three_valued_and(
            left(row, params), right(row, params))
    if op == "OR":
        return lambda row, params: _three_valued_or(
            left(row, params), right(row, params))
    if op in ("=", "!=", "<>"):
        want = op == "="
        specialized = _equality_slot_const(left, right, want)
        if specialized is not None:
            return specialized

        def run_eq(row, params):
            l_value = left(row, params)
            r_value = right(row, params)
            if l_value is None or r_value is None:
                return None
            return (l_value == r_value) is want
        return run_eq
    if op in ("<", "<=", ">", ">="):
        compare = _CMP_OPS[op]
        specialized = _ordering_slot_const(op, compare, left, right)
        if specialized is not None:
            return specialized

        # Fast path mirrors ``is_comparable`` exactly: the same class is
        # always comparable (bool/bool included) and plain int/float mix
        # freely; everything else goes through _compare for the precise
        # "cannot compare X with Y" error.
        def run_cmp(row, params):
            l_value = left(row, params)
            r_value = right(row, params)
            if l_value is None or r_value is None:
                return None
            l_cls = l_value.__class__
            r_cls = r_value.__class__
            if l_cls is r_cls or (
                    (l_cls is int or l_cls is float)
                    and (r_cls is int or r_cls is float)):
                return compare(l_value, r_value)
            return _compare(op, l_value, r_value)
        return run_cmp
    return lambda row, params: _arith(
        op, left(row, params), right(row, params))


_CMP_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _slot_const(left: CompiledExpr, right: CompiledExpr):
    """``(slot, const, flipped)`` when one side is a column read and the
    other a literal — the shape almost every pushed filter takes."""
    slot = getattr(left, "_slot", None)
    if slot is not None and hasattr(right, "_const"):
        return slot, right._const, False
    slot = getattr(right, "_slot", None)
    if slot is not None and hasattr(left, "_const"):
        return slot, left._const, True
    return None


def _equality_slot_const(left: CompiledExpr, right: CompiledExpr,
                         want: bool) -> Optional[CompiledExpr]:
    shape = _slot_const(left, right)
    if shape is None:
        return None
    slot, const, _flipped = shape
    if const is None:
        return lambda row, params: None

    def run_eq_slot_const(row, params):
        value = row[slot]
        if value is None:
            return None
        return (value == const) is want
    return run_eq_slot_const


def _ordering_slot_const(op: str, compare, left: CompiledExpr,
                         right: CompiledExpr) -> Optional[CompiledExpr]:
    shape = _slot_const(left, right)
    if shape is None:
        return None
    slot, const, flipped = shape
    if const is None:
        return lambda row, params: None
    const_cls = const.__class__
    const_numeric = const_cls is int or const_cls is float

    if flipped:  # literal OP column
        def run_cmp_const_slot(row, params):
            value = row[slot]
            if value is None:
                return None
            value_cls = value.__class__
            if value_cls is const_cls or (
                    const_numeric
                    and (value_cls is int or value_cls is float)):
                return compare(const, value)
            return _compare(op, const, value)
        return run_cmp_const_slot

    def run_cmp_slot_const(row, params):
        value = row[slot]
        if value is None:
            return None
        value_cls = value.__class__
        if value_cls is const_cls or (
                const_numeric
                and (value_cls is int or value_cls is float)):
            return compare(value, const)
        return _compare(op, value, const)
    return run_cmp_slot_const
