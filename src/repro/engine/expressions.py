"""Expression AST and the value semantics of SQL three-valued logic.

The nodes are plain data; :mod:`repro.engine.compiler` turns them into
closures over positional rows.  The helpers here are what those
closures share: NULL is ``None``, comparison and arithmetic propagate
it (:func:`_compare`, :func:`_arith`), the boolean connectives are
Kleene's, and the scalar functions live in ``_SCALAR_FUNCTIONS``.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.engine.types import is_comparable
from repro.errors import EngineError


class Expression:
    """Base class for AST nodes."""

    def column_refs(self) -> List[str]:
        """All column names referenced beneath this node."""
        refs: List[str] = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, out: List[str]) -> None:
        pass


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class Parameter(Expression):
    index: int


@dataclass
class ColumnRef(Expression):
    name: str
    # Source offset of the reference (for analyzer spans); excluded
    # from equality so AST comparisons stay position-insensitive.
    position: Optional[int] = field(default=None, compare=False,
                                    repr=False)

    def _collect_refs(self, out: List[str]) -> None:
        out.append(self.name)


@dataclass
class Star(Expression):
    """``*`` — only valid inside COUNT(*) and SELECT lists."""


def _three_valued_and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _three_valued_or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _compare(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op in ("!=", "<>"):
        return left != right
    if not is_comparable(left, right):
        raise EngineError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise EngineError(f"unknown comparison operator {op!r}")  # pragma: no cover


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "||":
        if not isinstance(left, str) or not isinstance(right, str):
            raise EngineError("'||' requires TEXT operands")
        return left + right
    if not isinstance(left, (int, float)) or isinstance(left, bool) \
            or not isinstance(right, (int, float)) or isinstance(right, bool):
        raise EngineError(f"arithmetic {op!r} requires numeric operands")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise EngineError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) \
                and result == int(result):
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise EngineError("division by zero")
        return left % right
    raise EngineError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


@dataclass
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def _collect_refs(self, out: List[str]) -> None:
        self.left._collect_refs(out)
        self.right._collect_refs(out)


@dataclass
class UnaryOp(Expression):
    op: str
    operand: Expression

    def _collect_refs(self, out: List[str]) -> None:
        self.operand._collect_refs(out)


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def _collect_refs(self, out: List[str]) -> None:
        self.operand._collect_refs(out)


@dataclass
class InList(Expression):
    operand: Expression
    options: List[Expression]
    negated: bool = False

    def _collect_refs(self, out: List[str]) -> None:
        self.operand._collect_refs(out)
        for option in self.options:
            option._collect_refs(out)


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def _collect_refs(self, out: List[str]) -> None:
        self.operand._collect_refs(out)
        self.low._collect_refs(out)
        self.high._collect_refs(out)


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False

    def _collect_refs(self, out: List[str]) -> None:
        self.operand._collect_refs(out)
        self.pattern._collect_refs(out)


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


@dataclass
class CaseExpr(Expression):
    """``CASE WHEN cond THEN value ... ELSE value END``."""

    branches: List[Tuple[Expression, Expression]]
    default: Optional[Expression] = None

    def _collect_refs(self, out: List[str]) -> None:
        for condition, result in self.branches:
            condition._collect_refs(out)
            result._collect_refs(out)
        if self.default is not None:
            self.default._collect_refs(out)


_SCALAR_FUNCTIONS = {}


def scalar_function(name):
    def register(fn):
        _SCALAR_FUNCTIONS[name] = fn
        return fn
    return register


@scalar_function("UPPER")
def _fn_upper(value):
    return None if value is None else str(value).upper()


@scalar_function("LOWER")
def _fn_lower(value):
    return None if value is None else str(value).lower()


@scalar_function("LENGTH")
def _fn_length(value):
    return None if value is None else len(str(value))


@scalar_function("ABS")
def _fn_abs(value):
    return None if value is None else abs(value)


@scalar_function("ROUND")
def _fn_round(value, digits=0):
    if value is None:
        return None
    return round(value, int(digits))


@scalar_function("COALESCE")
def _fn_coalesce(*values):
    for value in values:
        if value is not None:
            return value
    return None


@scalar_function("NULLIF")
def _fn_nullif(left, right):
    return None if left == right else left


@scalar_function("SUBSTR")
def _fn_substr(value, start, length=None):
    if value is None:
        return None
    text = str(value)
    begin = int(start) - 1
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


@scalar_function("TRIM")
def _fn_trim(value):
    return None if value is None else str(value).strip()


@scalar_function("YEAR")
def _fn_year(value):
    return None if value is None else value.year


@scalar_function("MONTH")
def _fn_month(value):
    return None if value is None else value.month


@scalar_function("DAY")
def _fn_day(value):
    return None if value is None else value.day


@scalar_function("DATE")
def _fn_date(value):
    if value is None:
        return None
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


@dataclass
class FunctionCall(Expression):
    name: str
    args: List[Expression]

    def _collect_refs(self, out: List[str]) -> None:
        for arg in self.args:
            arg._collect_refs(out)


AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class AggregateCall(Expression):
    """An aggregate reference such as ``SUM(amount)`` or ``COUNT(*)``.

    A grouped plan computes each unique aggregate once per group, into
    the slot the compiler resolves :meth:`result_key` to.
    """

    name: str
    argument: Expression  # Star() for COUNT(*)
    distinct: bool = False

    def result_key(self) -> str:
        flag = "distinct " if self.distinct else ""
        return f"__agg_{self.name.lower()}({flag}{_expr_text(self.argument)})"


    def _collect_refs(self, out: List[str]) -> None:
        if not isinstance(self.argument, Star):
            self.argument._collect_refs(out)


def _expr_text(expr: Expression) -> str:
    """A stable textual key for an expression (used for aggregate slots)."""
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, ColumnRef):
        return expr.name.lower()
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, BinaryOp):
        return f"({_expr_text(expr.left)}{expr.op}{_expr_text(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{_expr_text(expr.operand)})"
    if isinstance(expr, FunctionCall):
        inner = ",".join(_expr_text(arg) for arg in expr.args)
        return f"{expr.name.lower()}({inner})"
    if isinstance(expr, CaseExpr):
        parts = [
            f"when {_expr_text(c)} then {_expr_text(r)}"
            for c, r in expr.branches
        ]
        if expr.default is not None:
            parts.append(f"else {_expr_text(expr.default)}")
        return "case " + " ".join(parts)
    return repr(expr)


def find_aggregates(expr: Expression) -> List[AggregateCall]:
    """All AggregateCall nodes nested anywhere inside ``expr``."""
    found: List[AggregateCall] = []

    def walk(node: Expression) -> None:
        if isinstance(node, AggregateCall):
            found.append(node)
            return
        if isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, FunctionCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, CaseExpr):
            for condition, result in node.branches:
                walk(condition)
                walk(result)
            if node.default is not None:
                walk(node.default)
        elif isinstance(node, (IsNull,)):
            walk(node.operand)
        elif isinstance(node, InList):
            walk(node.operand)
            for option in node.options:
                walk(option)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, Like):
            walk(node.operand)
            walk(node.pattern)

    walk(expr)
    return found
