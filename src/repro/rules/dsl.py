"""A small textual rule language.

Syntax::

    rule "flag-high-usage" salience 10
    when
        usage: Usage(amount > 1000 and tenant == "acme")
        plan: Plan(name == usage.plan)
    then
        modify(usage, flagged=True)
        insert(Alert(tenant=usage.tenant, level="warn"))
        log("high usage: " + usage.tenant)
    end

Conditions and action arguments are boolean/value expressions over fact
attributes.  They are parsed with :mod:`ast` and evaluated by a
whitelisting interpreter — no ``eval``, no attribute access beyond fact
attributes, no calls — so rule text from tenants cannot escape the
sandbox.

:func:`scan_rules` reads the header/when/then/end layout and
:func:`parse_action` compiles one action line; :func:`parse_rules` is
built from the two.  The rule linter (:mod:`repro.analysis.rules`)
calls the same two functions, so it rejects exactly what
:func:`parse_rules` rejects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

from repro.errors import RuleSyntaxError, RulesError
from repro.rules.engine import ActionContext
from repro.rules.model import Condition, Fact, Rule, check_variables

# --- sandboxed expression evaluation ---------------------------------------


class _SafeEvaluator:
    """Evaluates a whitelisted subset of Python expressions.

    Names resolve through ``scope`` (attribute values and bound facts);
    ``fact.attr`` reads a fact attribute.  Anything outside the
    whitelist raises RuleSyntaxError at parse time.
    """

    _BIN_OPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.Mod: lambda a, b: a % b,
    }
    _CMP_OPS = {
        ast.Eq: lambda a, b: a == b,
        ast.NotEq: lambda a, b: a != b,
        ast.Lt: lambda a, b: a < b,
        ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b,
        ast.GtE: lambda a, b: a >= b,
        ast.In: lambda a, b: a in b,
        ast.NotIn: lambda a, b: a not in b,
    }

    def __init__(self, expression: str):
        self.text = expression
        try:
            self.tree = ast.parse(expression, mode="eval").body
        except SyntaxError as exc:
            raise RuleSyntaxError(
                f"bad expression {expression!r}: {exc.msg}") from exc
        self._check(self.tree)

    def _check(self, node: ast.AST) -> None:
        allowed = (ast.BoolOp, ast.BinOp, ast.UnaryOp, ast.Compare,
                   ast.Name, ast.Attribute, ast.Constant, ast.List,
                   ast.Tuple, ast.And, ast.Or, ast.Not, ast.USub,
                   ast.Load)
        if isinstance(node, ast.BinOp) \
                and type(node.op) not in self._BIN_OPS:
            raise RuleSyntaxError(
                f"operator not allowed in {self.text!r}")
        if isinstance(node, ast.Compare):
            for op in node.ops:
                if type(op) not in self._CMP_OPS:
                    raise RuleSyntaxError(
                        f"comparison not allowed in {self.text!r}")
        if not isinstance(node, allowed) \
                and not isinstance(node, ast.operator) \
                and not isinstance(node, ast.cmpop) \
                and not isinstance(node, ast.boolop) \
                and not isinstance(node, ast.unaryop):
            raise RuleSyntaxError(
                f"{type(node).__name__} is not allowed in rule "
                f"expression {self.text!r}")
        for child in ast.iter_child_nodes(node):
            self._check(child)

    def evaluate(self, scope: Dict[str, Any]) -> Any:
        return self._eval(self.tree, scope)

    def _eval(self, node: ast.AST, scope: Dict[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in scope:
                raise RuleSyntaxError(
                    f"unknown name {node.id!r} in {self.text!r}")
            return scope[node.id]
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, scope)
            if isinstance(base, Fact):
                return base.get(node.attr)
            raise RuleSyntaxError(
                f"attribute access only allowed on facts "
                f"in {self.text!r}")
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result = True
                for value_node in node.values:
                    result = self._eval(value_node, scope)
                    if not result:
                        return result
                return result
            for value_node in node.values:
                result = self._eval(value_node, scope)
                if result:
                    return result
            return result
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, scope)
            if isinstance(node.op, ast.Not):
                return not operand
            return -operand
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, scope)
            right = self._eval(node.right, scope)
            return self._BIN_OPS[type(node.op)](left, right)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, scope)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, scope)
                if not self._CMP_OPS[type(op)](left, right):
                    return False
                left = right
            return True
        if isinstance(node, (ast.List, ast.Tuple)):
            return [self._eval(element, scope) for element in node.elts]
        raise RuleSyntaxError(  # pragma: no cover - guarded by _check
            f"cannot evaluate {type(node).__name__}")


# --- parsing ------------------------------------------------------------------

_RULE_HEADER = re.compile(
    r'^rule\s+"(?P<name>[^"]+)"(?:\s+salience\s+(?P<salience>-?\d+))?$')
_CONDITION_LINE = re.compile(
    r"^(?P<var>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*"
    r"(?P<type>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<expr>.*)\)$")
_ACTION_LINE = re.compile(
    r"^(?P<verb>modify|retract|insert|log)\s*\((?P<args>.*)\)$")
_INSERT_ARG = re.compile(
    r"^(?P<type>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<kwargs>.*)\)$")


def _split_kwargs(text: str) -> List[str]:
    """Split ``a=1, b="x,y"`` on top-level commas."""
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current: List[str] = []
    for char in text:
        if quote is not None:
            current.append(char)
            if char == quote:
                quote = None
            continue
        if char in "\"'":
            quote = char
            current.append(char)
            continue
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_kwargs(text: str, context: str) \
        -> List[Tuple[str, _SafeEvaluator]]:
    pairs: List[Tuple[str, _SafeEvaluator]] = []
    for part in _split_kwargs(text):
        if "=" not in part:
            raise RuleSyntaxError(
                f"{context}: expected name=expression, got {part!r}")
        name, expression = part.split("=", 1)
        name = name.strip()
        if not name.isidentifier():
            raise RuleSyntaxError(
                f"{context}: bad attribute name {name!r}")
        pairs.append((name, _SafeEvaluator(expression.strip())))
    return pairs


def _make_condition(variable: str, fact_type: str,
                    expression: str) -> Condition:
    if not expression.strip():
        return Condition(variable, fact_type)
    evaluator = _SafeEvaluator(expression)

    def predicate(fact: Fact, bindings: Dict[str, Fact]) -> bool:
        scope: Dict[str, Any] = dict(fact.attributes())
        scope.update(bindings)
        scope[variable] = fact
        return bool(evaluator.evaluate(scope))

    return Condition(variable, fact_type, predicate)


def _make_action(steps: List[Tuple[str, Any]]) \
        -> Callable[[ActionContext], None]:
    def action(context: ActionContext) -> None:
        for verb, payload in steps:
            scope: Dict[str, Any] = dict(context.bindings)
            if verb == "log":
                context.log(str(payload.evaluate(scope)))
            elif verb == "retract":
                context.retract(context[payload])
            elif verb == "modify":
                variable, pairs = payload
                changes = {name: evaluator.evaluate(scope)
                           for name, evaluator in pairs}
                context.modify(context[variable], **changes)
            elif verb == "insert":
                fact_type, pairs = payload
                attributes = {name: evaluator.evaluate(scope)
                              for name, evaluator in pairs}
                context.insert(Fact(fact_type, **attributes))

    return action


def parse_action(line: str) -> Tuple[str, Any]:
    """Compile one action line into a ``(verb, payload)`` step.

    The payload is the :class:`_SafeEvaluator` of ``log``, the variable
    of ``retract``, ``(variable, [(attr, evaluator)])`` for ``modify``
    and ``(fact type, [(attr, evaluator)])`` for ``insert``.
    """
    match = _ACTION_LINE.match(line)
    if match is None:
        raise RuleSyntaxError(f"cannot parse action line: {line!r}")
    verb = match.group("verb")
    args = match.group("args").strip()
    if verb == "log":
        return ("log", _SafeEvaluator(args))
    if verb == "retract":
        if not args.isidentifier():
            raise RuleSyntaxError(
                f"retract takes a bound variable, got {args!r}")
        return ("retract", args)
    if verb == "modify":
        parts = _split_kwargs(args)
        if len(parts) < 2 or not parts[0].isidentifier():
            raise RuleSyntaxError(
                f"modify needs a variable and changes: {line!r}")
        variable = parts[0]
        pairs = _parse_kwargs(", ".join(parts[1:]), "modify")
        return ("modify", (variable, pairs))
    # insert
    inner = _INSERT_ARG.match(args)
    if inner is None:
        raise RuleSyntaxError(
            f"insert takes Type(attr=expr, ...), got {args!r}")
    pairs = _parse_kwargs(inner.group("kwargs"), "insert") \
        if inner.group("kwargs").strip() else []
    return ("insert", (inner.group("type"), pairs))


@dataclass
class ScannedRule:
    """One rule as laid out in the text, before anything is compiled.

    ``conditions`` holds ``(line, variable, fact type, expression)`` and
    ``actions`` holds ``(line, action text)``; lines are 1-based.
    """

    name: str
    salience: int
    line: int
    conditions: List[Tuple[int, str, str, str]] = field(
        default_factory=list)
    actions: List[Tuple[int, str]] = field(default_factory=list)


def scan_rules(text: str) -> List[ScannedRule]:
    """Read the header/when/then/end layout of rule-DSL text.

    Expressions and actions are returned as text, uncompiled.  Raises
    :class:`RuleSyntaxError` with the ``line`` of the first layout
    problem.
    """
    lines = [line.strip() for line in text.splitlines()]

    def meaningful(position: int) -> int:
        while position < len(lines) \
                and (not lines[position]
                     or lines[position].startswith("#")):
            position += 1
        return position

    def fail(message: str, position: int) -> NoReturn:
        raise RuleSyntaxError(message,
                              line=min(position, len(lines) - 1) + 1)

    rules: List[ScannedRule] = []
    index = meaningful(0)
    while index < len(lines):
        header = _RULE_HEADER.match(lines[index])
        if header is None:
            fail(f"expected rule header, got {lines[index]!r}", index)
        rule = ScannedRule(header.group("name"),
                           int(header.group("salience") or 0), index + 1)
        index = meaningful(index + 1)
        if index >= len(lines) or lines[index] != "when":
            fail(f"rule {rule.name!r}: expected 'when'", index)
        index = meaningful(index + 1)
        while index < len(lines) and lines[index] != "then":
            match = _CONDITION_LINE.match(lines[index])
            if match is None:
                fail(f"rule {rule.name!r}: bad condition "
                     f"{lines[index]!r}", index)
            rule.conditions.append((index + 1, match.group("var"),
                                    match.group("type"),
                                    match.group("expr").strip()))
            index = meaningful(index + 1)
        if index >= len(lines):
            fail(f"rule {rule.name!r}: missing 'then'", index)
        index = meaningful(index + 1)
        while index < len(lines) and lines[index] != "end":
            rule.actions.append((index + 1, lines[index]))
            index = meaningful(index + 1)
        if index >= len(lines):
            fail(f"rule {rule.name!r}: missing 'end'", index)
        try:
            check_variables(rule.name, [variable for _, variable, _, _
                                        in rule.conditions])
        except RulesError as exc:
            fail(str(exc), rule.line - 1)
        if not rule.actions:
            fail(f"rule {rule.name!r} has no actions", rule.line - 1)
        rules.append(rule)
        index = meaningful(index + 1)
    if not rules:
        raise RuleSyntaxError("no rules found in source text")
    return rules


def parse_rules(text: str) -> List[Rule]:
    """Compile rule-DSL text into :class:`Rule` objects."""
    return [
        Rule(scanned.name,
             [_make_condition(variable, fact_type, expression)
              for _line, variable, fact_type, expression
              in scanned.conditions],
             _make_action([parse_action(action)
                           for _line, action in scanned.actions]),
             salience=scanned.salience)
        for scanned in scan_rules(text)
    ]
