"""Lock-discipline static analysis over Python sources (ODB5xx).

The platform's serving layer promises a locking discipline — the
engine's writer lock serializes mutations, short mutexes guard
caches and registries — but nothing used to *check* it.  This pass
parses a source tree with :mod:`ast` and enforces three contracts:

1. **Lock ordering** (``ODB501``).  Every lexical ``with lock:``
   nesting (plus one level of same-class method calls) contributes an
   edge to a lock-acquisition graph; a cycle in that graph is a
   potential deadlock.  Reentrant self-edges are exempt, but a plain
   ``threading.Lock`` re-acquired while held is its own finding
   (``ODB504``) — that deadlock needs no second thread.

2. **Guarded state** (``ODB502``).  Attribute assignments may carry a
   declarative ``# guarded-by: _lock`` comment.  Every mutation of an
   annotated attribute (assignment, augmented assignment, subscript
   store/delete, or a call of a known mutating method such as
   ``append``/``pop``/``clear``) must then be reached with the guard
   held: lexically inside a ``with`` over it, in a method that
   manually acquires/releases it (``BEGIN``/``COMMIT`` style), in a
   method that asserts it via ``require_exclusive``, or in a method
   whose ``def`` line declares ``# requires: _lock`` (the caller-must-
   hold contract).  ``__init__`` is exempt — the object is not shared
   yet.  An annotation naming a lock the class does not own is
   ``ODB505`` — unless it names a *virtual guard* (see
   ``VIRTUAL_GUARDS``): a discipline owned by another object, such as
   ``engine-exclusive``, the owning database's exclusive lock that
   every ``TableStorage`` mutation must run under.  The class cannot
   construct a virtual guard, so the only way a mutation site passes
   is the ``# requires:`` caller contract (or ``__init__``) — which
   is exactly the shape the MVCC storage layer promises, and what the
   runtime sanitizer's ``StorageMonitor`` checks dynamically.

3. **No blocking under an exclusive lock** (``ODB503``).  ``fsync``,
   ``sleep`` and thread/pool joins made lexically inside a
   ``with`` over a lock stall every waiter behind a syscall.  The check
   is lexical on purpose: the WAL deliberately fsyncs while the
   commit lock is held (that *is* write-ahead logging), and that call
   sits behind a function boundary — the analyzer flags the shape
   that is always avoidable, not the policy decision.  Beyond the
   built-in call shapes, a ``def`` line may carry a declarative
   ``# blocking: <reason>`` annotation (the dual of ``# requires:``):
   any call of that method name under an exclusive hold is then
   ODB503.  This is how domain-level blocking — a replica ``poll``
   that tails an on-disk WAL, a snapshot ``resync`` — gets the same
   protection as a raw ``fsync``; the regression that held the global
   shard-map lock across replica disk polls is exactly the shape this
   annotation now catches.  Matching is by name (the analysis is
   untyped), so annotate names that are unambiguous in the tree.

Findings are ordinary :class:`~repro.analysis.diagnostics.Diagnostic`
records, so they ride the same CLI and collector machinery as the
SQL/model/rule analyzers.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    DiagnosticCollector,
    SourceSpan,
)

#: Constructor name -> (kind, reentrant).  ``Condition`` defaults to
#: an RLock underneath, so re-entry by the holder is safe.
LOCK_CONSTRUCTORS: Dict[str, Tuple[str, bool]] = {
    "Lock": ("lock", False),
    "RLock": ("rlock", True),
    "Condition": ("condition", True),
    "WriterLock": ("rlock", True),
    "SanitizedWriterLock": ("rlock", True),
}

#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "remove", "reverse",
    "setdefault", "sort", "update",
}

#: Call shapes that block the calling thread.
BLOCKING_DOTTED = {"os.fsync", "time.sleep", "sleep"}
BLOCKING_ATTRS = {"fsync"}
#: ``.join()`` only counts when the receiver looks like a thread/pool.
JOIN_RECEIVER_HINTS = ("thread", "pool", "worker")

#: Lock methods that prove the function holds (or held) the guard.
MANUAL_HOLD_METHODS = {
    "acquire", "acquire_write",
    "release", "release_write",
    "require_exclusive",
}

#: Guard names that are disciplines, not locks the class constructs:
#: ``engine-exclusive`` means "the owning database's exclusive lock"
#: (a TableStorage never sees that lock; its methods inherit the hold
#: from Database via the ``# requires:`` caller contract), and
#: ``engine-state`` the owning database's short ``_state_lock`` mutex
#: (a compiled plan's remembered results, read and written only from
#: Database methods that hold it).  Virtual guards are exempt from
#: ODB505 but fully enforced by ODB502.
VIRTUAL_GUARDS = {"engine-exclusive", "engine-state"}

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w-]*)")
_REQUIRES = re.compile(r"#\s*requires:\s*([A-Za-z_][\w-]*)")
_BLOCKING = re.compile(r"#\s*blocking:\s*(.+?)\s*$")


@dataclass(frozen=True)
class LockDecl:
    """One lock the analyzer knows about."""

    key: str          # "Class._lock" or "<module>.name"
    kind: str         # lock | rlock | condition
    reentrant: bool
    source: str
    line: int


@dataclass(frozen=True)
class _Hold:
    """One entry of the lexical held-locks stack."""

    key: str
    line: int


@dataclass
class _GuardNote:
    attr: str
    guard: str
    line: int


@dataclass
class _ClassInfo:
    name: str
    source: str
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    guards: List[_GuardNote] = field(default_factory=list)
    #: method name -> guard names its ``def`` line requires.
    requires: Dict[str, Set[str]] = field(default_factory=dict)
    #: method name -> the ``# blocking:`` reason its ``def`` declares.
    blocking: Dict[str, str] = field(default_factory=dict)
    #: method name -> lock keys it acquires lexically (any depth).
    acquires: Dict[str, Set[str]] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _constructor_kind(value: ast.AST) -> Optional[Tuple[str, bool]]:
    """(kind, reentrant) when ``value`` constructs a known lock."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted is None:
        return None
    return LOCK_CONSTRUCTORS.get(dotted.rsplit(".", 1)[-1])


class _ModuleScan:
    """Everything one file contributes to the analysis."""

    def __init__(self, path: Path, label: str):
        self.path = path
        self.label = label
        self.lines = path.read_text().splitlines()
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.classes: Dict[str, _ClassInfo] = {}
        #: module-level lock names -> LockDecl.
        self.module_locks: Dict[str, LockDecl] = {}
        #: module-level function name -> ``# blocking:`` reason.
        self.module_blocking: Dict[str, str] = {}
        self._collect()

    # -- collection ----------------------------------------------------------

    def _line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def _collect(self) -> None:
        stem = self.path.stem
        for node in self.tree.body:
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                made = _constructor_kind(node.value)
                if made is not None:
                    name = node.targets[0].id
                    self.module_locks[name] = LockDecl(
                        key=f"{stem}.{name}", kind=made[0],
                        reentrant=made[1], source=self.label,
                        line=node.lineno)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                match = _BLOCKING.search(self._line(node.lineno))
                if match:
                    self.module_blocking[node.name] = match.group(1)

    def _collect_class(self, node: ast.ClassDef) -> None:
        info = _ClassInfo(name=node.name, source=self.label)
        self.classes[node.name] = info
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            info.methods[item.name] = item
            required = set()
            match = _REQUIRES.search(self._line(item.lineno))
            if match:
                required.add(match.group(1))
            if required:
                info.requires[item.name] = required
            blocking = _BLOCKING.search(self._line(item.lineno))
            if blocking:
                info.blocking[item.name] = blocking.group(1)
            for statement in ast.walk(item):
                self._note_self_assign(info, statement)
            info.acquires[item.name] = {
                hold.key for hold in _iter_acquisitions(
                    item, self, info)}

    def _note_self_assign(self, info: _ClassInfo,
                          statement: ast.AST) -> None:
        """Record lock constructions and guarded-by annotations."""
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
            return
        targets = statement.targets \
            if isinstance(statement, ast.Assign) \
            else [statement.target]
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            made = _constructor_kind(statement.value) \
                if statement.value is not None else None
            if made is not None:
                info.locks.setdefault(target.attr, LockDecl(
                    key=f"{info.name}.{target.attr}", kind=made[0],
                    reentrant=made[1], source=info.source,
                    line=statement.lineno))
            # The annotation may sit on any line of a multi-line
            # assignment (e.g. after a wrapped type annotation).
            last = getattr(statement, "end_lineno", statement.lineno) \
                or statement.lineno
            for lineno in range(statement.lineno, last + 1):
                match = _GUARDED_BY.search(self._line(lineno))
                if match:
                    info.guards.append(_GuardNote(
                        attr=target.attr, guard=match.group(1),
                        line=statement.lineno))
                    break


def _resolve_lock(expr: ast.AST, scan: _ModuleScan,
                  info: Optional[_ClassInfo]) -> Optional[LockDecl]:
    """The known lock a ``with`` item acquires, if any.

    Recognized shapes: ``with self._lock:`` (mutex), ``with lock:``
    (module-level mutex) and ``with x.exclusive():`` (the engine's
    writer lock).
    """
    if isinstance(expr, ast.Call):
        dotted = _dotted(expr.func)
        if dotted is None or not dotted.endswith(".exclusive"):
            return None
        expr_dotted = dotted[:-len(".exclusive")]
    else:
        expr_dotted = _dotted(expr)
        if expr_dotted is None:
            return None
    return _lookup_lock(expr_dotted, scan, info)


def _lookup_lock(dotted: str, scan: _ModuleScan,
                 info: Optional[_ClassInfo]) -> Optional[LockDecl]:
    if dotted.startswith("self.") and info is not None:
        return info.locks.get(dotted[len("self."):])
    if "." not in dotted:
        return scan.module_locks.get(dotted)
    return None


def _iter_acquisitions(func: ast.AST, scan: _ModuleScan,
                       info: Optional[_ClassInfo]) -> List[_Hold]:
    """Every lock acquisition lexically inside ``func``."""
    holds: List[_Hold] = []
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            decl = _resolve_lock(item.context_expr, scan, info)
            if decl is not None:
                holds.append(_Hold(decl.key, node.lineno))
    return holds


class ConcurrencyAnalyzer:
    """Runs the three lock-discipline checks over a set of files."""

    def __init__(self) -> None:
        self.locks: Dict[str, LockDecl] = {}
        #: (from, to) -> (source, line, description) first witness.
        self.edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        self._scans: List[_ModuleScan] = []
        #: ``# blocking:``-annotated callable name -> declared reason,
        #: gathered across every scanned file before the checks run.
        self._blocking_methods: Dict[str, str] = {}

    # -- entry points --------------------------------------------------------

    def add_file(self, path: Path, label: Optional[str] = None) -> None:
        self._scans.append(
            _ModuleScan(path, label or str(path)))

    def run(self, collector: Optional[DiagnosticCollector] = None) \
            -> DiagnosticCollector:
        collector = collector if collector is not None \
            else DiagnosticCollector()
        for scan in self._scans:
            for decl in scan.module_locks.values():
                self.locks[decl.key] = decl
            self._blocking_methods.update(scan.module_blocking)
            for info in scan.classes.values():
                for decl in info.locks.values():
                    self.locks[decl.key] = decl
                self._blocking_methods.update(info.blocking)
        for scan in self._scans:
            self._check_module(scan, collector)
        self._check_cycles(collector)
        return collector

    # -- per-module checks ---------------------------------------------------

    def _check_module(self, scan: _ModuleScan,
                      collector: DiagnosticCollector) -> None:
        for info in scan.classes.values():
            self._check_annotations(scan, info, collector)
            for name, func in info.methods.items():
                self._walk_function(scan, info, name, func, collector)
        # Module-level functions participate in ordering/blocking too.
        for node in scan.tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                self._walk_function(scan, None, node.name, node,
                                    collector)

    def _check_annotations(self, scan: _ModuleScan, info: _ClassInfo,
                           collector: DiagnosticCollector) -> None:
        for note in info.guards:
            if note.guard not in info.locks \
                    and note.guard not in VIRTUAL_GUARDS:
                collector.warning(
                    "ODB505",
                    f"{info.name}.{note.attr} is guarded-by "
                    f"{note.guard!r}, but {info.name} constructs no "
                    f"such lock",
                    span=SourceSpan(note.line, 1),
                    source=info.source)
        for method, required in info.requires.items():
            for guard in required:
                if guard not in info.locks \
                        and guard not in VIRTUAL_GUARDS:
                    func = info.methods[method]
                    collector.warning(
                        "ODB505",
                        f"{info.name}.{method} requires {guard!r}, "
                        f"but {info.name} constructs no such lock",
                        span=SourceSpan(func.lineno, 1),
                        source=info.source)

    # -- the main walk -------------------------------------------------------

    def _walk_function(self, scan: _ModuleScan,
                       info: Optional[_ClassInfo], name: str,
                       func: ast.AST,
                       collector: DiagnosticCollector) -> None:
        guarded_attrs: Dict[str, str] = {}
        method_guards: Set[str] = set()
        if info is not None:
            guarded_attrs = {note.attr: note.guard
                             for note in info.guards
                             if note.guard in info.locks
                             or note.guard in VIRTUAL_GUARDS}
            method_guards = self._method_held_guards(info, name, func)
        self._walk_body(list(ast.iter_child_nodes(func)), [],
                        scan, info, name, guarded_attrs,
                        method_guards, collector)

    def _method_held_guards(self, info: _ClassInfo, name: str,
                            func: ast.AST) -> Set[str]:
        """Guards the whole method may assume held.

        ``__init__`` owns the object alone; a ``# requires:`` line is
        an explicit caller contract; and a manual
        acquire/release/require call on ``self.<guard>`` anywhere in
        the body proves the hold spans the method (the
        ``BEGIN``-acquires / ``COMMIT``-releases split).
        """
        held: Set[str] = set()
        if name == "__init__":
            held.update(info.locks)
            held.update(VIRTUAL_GUARDS)
        held.update(info.requires.get(name, ()))
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None or "." not in dotted:
                continue
            receiver, method = dotted.rsplit(".", 1)
            if method in MANUAL_HOLD_METHODS \
                    and receiver.startswith("self."):
                attr = receiver[len("self."):]
                if attr in info.locks:
                    held.add(attr)
        return held

    def _walk_body(self, nodes: Sequence[ast.AST], held: List[_Hold],
                   scan: _ModuleScan, info: Optional[_ClassInfo],
                   func_name: str, guarded_attrs: Dict[str, str],
                   method_guards: Set[str],
                   collector: DiagnosticCollector) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                # Nested defs run later, under whatever locks their
                # caller holds — a fresh lexical context.
                self._walk_body(list(ast.iter_child_nodes(node)), [],
                                scan, info, func_name, guarded_attrs,
                                method_guards, collector)
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: List[_Hold] = []
                for item in node.items:
                    decl = _resolve_lock(item.context_expr, scan, info)
                    if decl is None:
                        continue
                    hold = _Hold(decl.key, node.lineno)
                    self._note_acquisition(hold, held, scan, func_name,
                                           collector)
                    acquired.append(hold)
                self._walk_body(node.body, held + acquired, scan,
                                info, func_name, guarded_attrs,
                                method_guards, collector)
                continue
            self._check_node(node, held, scan, info, func_name,
                             guarded_attrs, method_guards, collector)
            self._walk_body(list(ast.iter_child_nodes(node)), held,
                            scan, info, func_name, guarded_attrs,
                            method_guards, collector)

    def _note_acquisition(self, hold: _Hold, held: List[_Hold],
                          scan: _ModuleScan, func_name: str,
                          collector: DiagnosticCollector) -> None:
        decl = self.locks.get(hold.key)
        for outer in held:
            if outer.key == hold.key:
                if decl is not None and not decl.reentrant:
                    collector.error(
                        "ODB504",
                        f"{hold.key} is a non-reentrant lock "
                        f"acquired at line {hold.line} while already "
                        f"held since line {outer.line} "
                        f"(self-deadlock)",
                        span=SourceSpan(hold.line, 1),
                        source=scan.label)
                continue
            self.edges.setdefault(
                (outer.key, hold.key),
                (scan.label, hold.line,
                 f"{func_name} acquires {hold.key} while holding "
                 f"{outer.key}"))

    def _check_node(self, node: ast.AST, held: List[_Hold],
                    scan: _ModuleScan, info: Optional[_ClassInfo],
                    func_name: str, guarded_attrs: Dict[str, str],
                    method_guards: Set[str],
                    collector: DiagnosticCollector) -> None:
        # 1. Same-class call propagation: one level of ordering edges
        #    plus non-reentrant self-acquisition through a helper.
        if isinstance(node, ast.Call) and info is not None and held:
            dotted = _dotted(node.func)
            if dotted is not None and dotted.startswith("self.") \
                    and "." not in dotted[len("self."):]:
                callee = dotted[len("self."):]
                for key in sorted(
                        info.acquires.get(callee, ())):
                    for outer in held:
                        if outer.key == key:
                            decl = self.locks.get(key)
                            if decl is not None \
                                    and not decl.reentrant:
                                collector.error(
                                    "ODB504",
                                    f"{func_name} calls "
                                    f"self.{callee}() at line "
                                    f"{node.lineno} which re-acquires "
                                    f"non-reentrant {key} already "
                                    f"held (self-deadlock)",
                                    span=SourceSpan(node.lineno, 1),
                                    source=scan.label)
                            continue
                        self.edges.setdefault(
                            (outer.key, key),
                            (scan.label, node.lineno,
                             f"{func_name} calls self.{callee}() "
                             f"which acquires {key} while holding "
                             f"{outer.key}"))
        # 2. Blocking call under a held lock.
        if isinstance(node, ast.Call) and held:
            blocking = self._blocking_reason(node)
            if blocking is not None:
                collector.warning(
                    "ODB503",
                    f"{func_name} makes blocking call "
                    f"{blocking} while holding exclusive "
                    f"{held[-1].key}",
                    span=SourceSpan(node.lineno, 1),
                    source=scan.label)
        # 3. Guarded-state mutations.
        if info is not None and guarded_attrs:
            for attr, line in self._mutated_attrs(node):
                guard = guarded_attrs.get(attr)
                if guard is None:
                    continue
                if guard in method_guards:
                    continue
                key = f"{info.name}.{guard}"
                if any(hold.key == key for hold in held):
                    continue
                collector.error(
                    "ODB502",
                    f"{info.name}.{attr} is guarded-by {guard!r} "
                    f"but {func_name} mutates it without holding "
                    f"the lock",
                    span=SourceSpan(line, 1),
                    source=scan.label)

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        if dotted in BLOCKING_DOTTED:
            return f"{dotted}()"
        tail = dotted.rsplit(".", 1)[-1]
        if tail in BLOCKING_ATTRS:
            return f"{dotted}()"
        if tail == "join" and "." in dotted:
            receiver = dotted.rsplit(".", 1)[0].lower()
            if any(hint in receiver for hint in JOIN_RECEIVER_HINTS):
                return f"{dotted}()"
        declared = self._blocking_methods.get(tail)
        if declared is not None:
            return f"{dotted}() (# blocking: {declared})"
        return None

    @staticmethod
    def _mutated_attrs(node: ast.AST) -> List[Tuple[str, int]]:
        """``self.X`` attributes this one statement/expression mutates."""
        found: List[Tuple[str, int]] = []

        def self_attr(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Attribute) \
                    and isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self":
                return expr.attr
            return None

        def target_attrs(target: ast.AST) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    target_attrs(element)
                return
            attr = self_attr(target)
            if attr is not None:
                found.append((attr, target.lineno))
                return
            if isinstance(target, ast.Subscript):
                attr = self_attr(target.value)
                if attr is not None:
                    found.append((attr, target.lineno))

        if isinstance(node, ast.Assign):
            for target in node.targets:
                target_attrs(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target_attrs(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                target_attrs(target)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            attr = self_attr(node.func.value)
            if attr is not None:
                found.append((attr, node.lineno))
        return found

    # -- cycle detection -----------------------------------------------------

    def _check_cycles(self, collector: DiagnosticCollector) -> None:
        """Tarjan over the acquisition graph; one ODB501 per SCC."""
        graph: Dict[str, Set[str]] = {}
        for source, target in self.edges:
            graph.setdefault(source, set()).add(target)
            graph.setdefault(target, set())
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for successor in sorted(graph[node]):
                if successor not in index:
                    strongconnect(successor)
                    low[node] = min(low[node], low[successor])
                elif successor in on_stack:
                    low[node] = min(low[node], index[successor])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)

        for component in components:
            if len(component) < 2:
                continue
            members = sorted(component)
            witnesses = []
            for pair, (source, line, description) in sorted(
                    self.edges.items()):
                if pair[0] in component and pair[1] in component:
                    witnesses.append(
                        f"{source}:{line} ({description})")
            first = sorted(
                (source, line) for pair, (source, line, _)
                in self.edges.items()
                if pair[0] in component and pair[1] in component)[0]
            collector.error(
                "ODB501",
                f"locks {', '.join(members)} are acquired in "
                f"conflicting orders: " + "; ".join(witnesses),
                span=SourceSpan(first[1], 1),
                source=first[0])


def analyze_concurrency(root: Path,
                        collector: Optional[DiagnosticCollector]
                        = None) -> DiagnosticCollector:
    """Run the lock-discipline pass over ``root``.

    ``root`` may be a single ``.py`` file or a directory (scanned
    recursively, sorted for determinism).  File labels in the
    diagnostics are relative to ``root``'s parent so they read like
    repository paths.
    """
    root = Path(root)
    analyzer = ConcurrencyAnalyzer()
    if root.is_file():
        analyzer.add_file(root, root.name)
    else:
        for path in sorted(root.rglob("*.py")):
            analyzer.add_file(path, str(path.relative_to(root)))
    return analyzer.run(collector)
