"""Facts, conditions and rules."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import RulesError

_fact_ids = itertools.count(1)


class Fact:
    """A typed bag of attributes living in working memory."""

    def __init__(self, fact_type: str, **attributes: Any):
        self.fact_type = fact_type
        self.fact_id = next(_fact_ids)
        self._attributes: Dict[str, Any] = dict(attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}"
                          for key, value in self._attributes.items())
        return f"{self.fact_type}({inner})"

    def get(self, name: str, default: Any = None) -> Any:
        return self._attributes.get(name, default)

    def __getitem__(self, name: str) -> Any:
        if name not in self._attributes:
            raise RulesError(
                f"fact {self.fact_type} has no attribute {name!r}")
        return self._attributes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def set(self, name: str, value: Any) -> None:
        self._attributes[name] = value

    def attributes(self) -> Dict[str, Any]:
        return dict(self._attributes)


class Condition:
    """One pattern of a rule: match facts of a type, bind to a variable.

    ``predicate`` receives ``(fact, bindings)`` where ``bindings`` maps
    the variables bound by earlier conditions of the same rule — this
    is what lets conditions join across facts.
    """

    def __init__(self, variable: str, fact_type: str,
                 predicate: Optional[
                     Callable[[Fact, Dict[str, Fact]], bool]] = None):
        self.variable = variable
        self.fact_type = fact_type
        self.predicate = predicate

    def __repr__(self) -> str:
        return f"<Condition {self.variable}: {self.fact_type}>"

    def matches(self, fact: Fact, bindings: Dict[str, Fact]) -> bool:
        if fact.fact_type != self.fact_type:
            return False
        if self.predicate is None:
            return True
        return bool(self.predicate(fact, bindings))


def check_variables(name: str, variables: Sequence[str]) -> None:
    """A rule binds at least one variable, and each one once."""
    if not variables:
        raise RulesError(f"rule {name!r} needs at least one condition")
    if len(set(variables)) != len(variables):
        raise RulesError(f"rule {name!r} binds the same variable twice")


class Rule:
    """When all conditions match (a consistent binding), run the action.

    ``action`` receives an :class:`~repro.rules.engine.ActionContext`.
    Higher ``salience`` fires first.
    """

    def __init__(self, name: str, conditions: Sequence[Condition],
                 action: Callable[..., None], salience: int = 0):
        check_variables(name, [condition.variable
                               for condition in conditions])
        self.name = name
        self.conditions = list(conditions)
        self.action = action
        self.salience = salience

    def __repr__(self) -> str:
        return f"<Rule {self.name!r} salience={self.salience}>"
