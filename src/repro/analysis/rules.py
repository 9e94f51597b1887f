"""Static lint for the rule DSL (ODB3xx diagnostics).

Reads rule text with the runtime's own reader and compiler —
:func:`repro.rules.dsl.scan_rules` for the layout and
:func:`repro.rules.dsl.parse_action` plus the sandboxed expression
compiler for each line — so the lint rejects exactly what
:func:`~repro.rules.dsl.parse_rules` rejects (ODB304), but as
diagnostics rather than one exception.  On top of that it checks what
the compiler does not: unbound variables in conditions and actions
(ODB301), duplicate rule names (ODB302), and rules shadowed by an
earlier rule with identical conditions (ODB303).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import DiagnosticCollector, SourceSpan
from repro.errors import RuleSyntaxError
from repro.rules.dsl import (
    ScannedRule,
    _SafeEvaluator,
    parse_action,
    scan_rules,
)


def _signature(rule: ScannedRule) -> Tuple[Tuple[str, str, str], ...]:
    """A normalized key for shadowing detection: the conditions a
    fact set must satisfy, ignoring variable spelling."""
    renames = {variable: f"${index}"
               for index, (_, variable, _, _) in enumerate(rule.conditions)}
    normalized = []
    for _line, variable, fact_type, expression in rule.conditions:
        for old, new in renames.items():
            expression = _rename_identifier(expression, old, new)
        normalized.append(
            (renames[variable], fact_type, " ".join(expression.split())))
    return tuple(normalized)


def _rename_identifier(text: str, old: str, new: str) -> str:
    """Rename whole-word identifier occurrences (cheap, regex-free)."""
    out: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        if text.startswith(old, index):
            before = text[index - 1] if index else ""
            after_index = index + len(old)
            after = text[after_index] if after_index < length else ""
            if not (before.isalnum() or before == "_") \
                    and not (after.isalnum() or after == "_"):
                out.append(new)
                index = after_index
                continue
        out.append(text[index])
        index += 1
    return "".join(out)


def _expression_names(evaluator: _SafeEvaluator) \
        -> Tuple[Set[str], Set[str]]:
    """(bare names, attribute-access base names) of a compiled
    expression."""
    bases: Set[str] = set()
    base_ids = set()
    for node in ast.walk(evaluator.tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name):
            bases.add(node.value.id)
            base_ids.add(id(node.value))
    bare = {node.id for node in ast.walk(evaluator.tree)
            if isinstance(node, ast.Name) and id(node) not in base_ids}
    return bare, bases


def lint_rules(text: str,
               collector: Optional[DiagnosticCollector] = None,
               source: Optional[str] = None) -> DiagnosticCollector:
    """Lint rule-DSL source text."""
    collector = collector if collector is not None \
        else DiagnosticCollector(source)
    try:
        scanned = scan_rules(text)
    except RuleSyntaxError as exc:
        span = SourceSpan(exc.line, 1) if exc.line is not None else None
        collector.error("ODB304", str(exc), span, source)
        return collector

    seen_names: Dict[str, int] = {}
    seen_signatures: Dict[Tuple, ScannedRule] = {}
    for rule in scanned:
        if rule.name in seen_names:
            collector.error(
                "ODB302",
                f"duplicate rule name {rule.name!r} (first defined "
                f"on line {seen_names[rule.name]})",
                SourceSpan(rule.line, 1), source)
        else:
            seen_names[rule.name] = rule.line
        _check_bindings(rule, collector, source)
        signature = _signature(rule)
        earlier = seen_signatures.get(signature)
        if earlier is not None:
            collector.warning(
                "ODB303",
                f"rule {rule.name!r} has the same conditions as "
                f"earlier rule {earlier.name!r} (line "
                f"{earlier.line}) and is shadowed by it",
                SourceSpan(rule.line, 1), source)
        else:
            seen_signatures[signature] = rule
    return collector


def _check_bindings(rule: ScannedRule, collector: DiagnosticCollector,
                    source: Optional[str]) -> None:
    """Compile each condition and action as ``parse_rules`` does
    (ODB304 on failure) and check the names they use (ODB301)."""

    def unbound(message: str, line: int) -> None:
        collector.error("ODB301", f"rule {rule.name!r}: {message}",
                        SourceSpan(line, 1), source)

    def check(evaluator: _SafeEvaluator, bound: Set[str], line: int,
              in_action: bool) -> None:
        bare, bases = _expression_names(evaluator)
        # Attribute-access bases must always be bound fact variables.
        for name in sorted(bases - bound):
            unbound(f"variable {name!r} is not bound by an earlier "
                    f"condition", line)
        if in_action:
            # Actions see only the bindings — bare names cannot be fact
            # attributes there, so every one must be a bound variable.
            for name in sorted(bare - bound):
                unbound(f"name {name!r} in action is not a bound "
                        f"variable", line)

    bound: Set[str] = set()
    for line, variable, _fact_type, expression in rule.conditions:
        if expression:
            try:
                evaluator = _SafeEvaluator(expression)
            except RuleSyntaxError as exc:
                collector.error("ODB304", f"rule {rule.name!r}: {exc}",
                                SourceSpan(line, 1), source)
            else:
                check(evaluator, bound | {variable}, line, False)
        bound.add(variable)

    for line, text in rule.actions:
        try:
            verb, payload = parse_action(text)
        except RuleSyntaxError as exc:
            collector.error("ODB304", f"rule {rule.name!r}: {exc}",
                            SourceSpan(line, 1), source)
            continue
        if verb == "log":
            check(payload, bound, line, True)
        elif verb == "retract":
            if payload not in bound:
                unbound(f"retract({payload}) names an unbound variable",
                        line)
        else:
            target, pairs = payload  # a variable, or insert's fact type
            if verb == "modify" and target not in bound:
                unbound(f"modify({target}, ...) names an unbound "
                        f"variable", line)
            for _name, evaluator in pairs:
                check(evaluator, bound, line, True)
