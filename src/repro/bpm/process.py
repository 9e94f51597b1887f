"""Process definitions and the process engine.

A process is a set of named nodes; each node executes against the
instance's variables and names its successor (``None`` ends the
process).  Three node kinds cover the orchestration the platform
needs: plain service tasks, rule tasks delegating decision logic to
the rules engine, and exclusive gateways for branching.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BpmError
from repro.rules.engine import RuleEngine, WorkingMemory
from repro.rules.model import Fact, Rule

_MAX_STEPS = 1000

Variables = Dict[str, Any]


class Node:
    """Base class for process nodes."""

    def __init__(self, name: str, next_node: Optional[str]):
        self.name = name
        self.next_node = next_node

    def execute(self, variables: Variables) -> Optional[str]:
        """Run the node; return the name of the next node (or None)."""
        raise NotImplementedError


class ServiceTask(Node):
    """A task calling a Python handler over the process variables."""

    def __init__(self, name: str, handler: Callable[[Variables], None],
                 next_node: Optional[str] = None):
        super().__init__(name, next_node)
        self.handler = handler

    def execute(self, variables: Variables) -> Optional[str]:
        self.handler(variables)
        return self.next_node


class RuleTask(Node):
    """Delegate decision logic to a rules engine.

    ``publish`` turns process variables into facts; after the engine
    reaches quiescence, ``harvest`` reads conclusions back into the
    variables.
    """

    def __init__(self, name: str, rules: Sequence[Rule],
                 publish: Callable[[Variables], Sequence[Fact]],
                 harvest: Callable[[WorkingMemory, Variables], None],
                 next_node: Optional[str] = None):
        super().__init__(name, next_node)
        self.rules = list(rules)
        self.publish = publish
        self.harvest = harvest

    def execute(self, variables: Variables) -> Optional[str]:
        engine = RuleEngine(self.rules)
        for fact in self.publish(variables):
            engine.memory.insert(fact)
        engine.run()
        self.harvest(engine.memory, variables)
        return self.next_node


class ExclusiveGateway(Node):
    """Pick the first branch whose condition holds; else the default."""

    def __init__(self, name: str,
                 branches: Sequence[Tuple[Callable[[Variables], bool],
                                          str]],
                 default: Optional[str] = None):
        super().__init__(name, None)
        if not branches:
            raise BpmError(f"gateway {name!r} needs at least one branch")
        self.branches = list(branches)
        self.default = default

    def execute(self, variables: Variables) -> Optional[str]:
        for condition, target in self.branches:
            if condition(variables):
                return target
        if self.default is not None:
            return self.default
        raise BpmError(
            f"gateway {self.name!r}: no branch matched and no default")


class ProcessDefinition:
    """A validated, named process graph."""

    def __init__(self, name: str, nodes: Sequence[Node], start: str):
        if not nodes:
            raise BpmError(f"process {name!r} has no nodes")
        self.name = name
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise BpmError(
                    f"process {name!r}: duplicate node {node.name!r}")
            self._nodes[node.name] = node
        self.start = start
        self._validate()

    def _validate(self) -> None:
        if self.start not in self._nodes:
            raise BpmError(
                f"process {self.name!r}: unknown start node "
                f"{self.start!r}")
        for node in self._nodes.values():
            successors: List[Optional[str]] = []
            if isinstance(node, ExclusiveGateway):
                successors.extend(target for _c, target in node.branches)
                successors.append(node.default)
            else:
                successors.append(node.next_node)
            for successor in successors:
                if successor is not None \
                        and successor not in self._nodes:
                    raise BpmError(
                        f"process {self.name!r}: node {node.name!r} "
                        f"points to unknown node {successor!r}")

    def node(self, name: str) -> Node:
        return self._nodes[name]


class ProcessInstance:
    """One execution of a process definition."""

    def __init__(self, definition: ProcessDefinition,
                 variables: Optional[Variables] = None):
        self.definition = definition
        self.variables: Variables = dict(variables or {})
        self.history: List[str] = []
        self.completed = False


class ProcessEngine:
    """Runs process instances to completion."""

    def __init__(self, max_steps: int = _MAX_STEPS):
        self.max_steps = max_steps
        self.completed_instances: List[ProcessInstance] = []

    def start(self, definition: ProcessDefinition,
              variables: Optional[Variables] = None) -> ProcessInstance:
        """Create an instance and run it to completion."""
        instance = ProcessInstance(definition, variables)
        cursor: Optional[str] = definition.start
        steps = 0
        while cursor is not None:
            steps += 1
            if steps > self.max_steps:
                raise BpmError(
                    f"process {definition.name!r} exceeded "
                    f"{self.max_steps} steps (cycle?)")
            node = definition.node(cursor)
            instance.history.append(node.name)
            cursor = node.execute(instance.variables)
        instance.completed = True
        self.completed_instances.append(instance)
        return instance
