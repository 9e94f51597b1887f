"""Schema-aware SQL semantic analysis (ODB1xx diagnostics).

The analyzer walks the parsed AST from :mod:`repro.engine.parser`
against a :class:`~repro.engine.schema.Catalog` without executing
anything.  It reports unknown tables/columns, ambiguous references,
type-mismatched comparisons and arithmetic, aggregate misuse, INSERT
arity/typing problems and a couple of stylistic warnings (``SELECT *``
in views, constant predicates).

Entry points:

* :class:`SqlAnalyzer` — analyze one statement (text or AST) against a
  fixed catalog plus view definitions;
* :func:`analyze_script` — lint a multi-statement script, applying DDL
  to an evolving copy of the catalog as it goes;
* :func:`split_statements` — the ``;`` splitter used by the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import (
    DiagnosticCollector,
    SourceSpan,
)
from repro.engine.compiler import Scope, SlotMap, compile_expression
from repro.engine.expressions import (
    _SCALAR_FUNCTIONS,
    _expr_text,
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    Star,
    UnaryOp,
    find_aggregates,
)
from repro.engine.parser import (
    AlterTableAddColumn,
    CompoundSelect,
    CreateIndexStatement,
    CreateTableAsStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DropTableStatement,
    DropViewStatement,
    InsertStatement,
    Join,
    SelectStatement,
    TableRef,
    TransactionStatement,
    UpdateStatement,
    line_column,
    parse_sql,
)
from repro.engine.schema import Catalog, Column, TableSchema
from repro.engine.types import SqlType, coerce_value
from repro.errors import EngineError, TypeMismatch

_COMPARISONS = ("=", "!=", "<>", "<", "<=", ">", ">=")
_NUMERIC = {SqlType.INTEGER, SqlType.REAL}
_TEMPORAL = {SqlType.DATE, SqlType.TIMESTAMP}


def _comparable_types(left: SqlType, right: SqlType) -> bool:
    if left == right:
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    if left in _TEMPORAL and right in _TEMPORAL:
        return True
    # ISO text literals coerce into temporals at the storage layer, so
    # TEXT-vs-DATE comparisons are common and tolerated.
    if {left, right} & _TEMPORAL and SqlType.TEXT in (left, right):
        return True
    return False


def _assignable(source: SqlType, target: SqlType) -> bool:
    """Could a value of ``source`` type land in a ``target`` column?"""
    if source == target:
        return True
    if source in _NUMERIC and target in _NUMERIC:
        return True
    if source is SqlType.BOOLEAN and target is SqlType.INTEGER:
        return True
    if source is SqlType.INTEGER and target is SqlType.BOOLEAN:
        return True
    if source is SqlType.TEXT and target in _TEMPORAL:
        return True
    if source in _TEMPORAL and target in _TEMPORAL:
        return True
    return False


def _literal_type(value: Any) -> Optional[SqlType]:
    if value is None:
        return None
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.REAL
    if isinstance(value, str):
        return SqlType.TEXT
    return None


def _column_nodes(expr: Expression,
                  include_aggregates: bool = True) -> List[ColumnRef]:
    """All ColumnRef nodes under ``expr`` (optionally skipping those
    that only appear inside aggregate arguments)."""
    out: List[ColumnRef] = []

    def walk(node: Expression) -> None:
        if isinstance(node, AggregateCall):
            if include_aggregates and not isinstance(node.argument, Star):
                walk(node.argument)
            return
        if isinstance(node, ColumnRef):
            out.append(node)
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
        elif isinstance(node, IsNull):
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
    return out


def _first_position(expr: Expression) -> Optional[int]:
    for ref in _column_nodes(expr):
        if ref.position is not None:
            return ref.position
    return None


class _Relation:
    """A named tuple source: ordered columns with optional types."""

    def __init__(self, name: str,
                 columns: Iterable[Tuple[str, Optional[SqlType]]]):
        self.name = name
        self.columns: List[Tuple[str, Optional[SqlType]]] = [
            (col.lower(), sql_type) for col, sql_type in columns
        ]
        self._types = dict(self.columns)

    def has(self, column: str) -> bool:
        return column.lower() in self._types

    def type_of(self, column: str) -> Optional[SqlType]:
        return self._types.get(column.lower())


class _Scope:
    """The relations visible to a statement, keyed by alias."""

    def __init__(self) -> None:
        self.entries: List[Tuple[str, _Relation]] = []
        #: True when a FROM table failed to resolve — suppresses the
        #: cascade of bogus unknown-column errors that would follow.
        self.incomplete = False

    def add(self, alias: str, relation: _Relation) -> None:
        self.entries.append((alias.lower(), relation))

    def relation(self, alias: str) -> Optional[_Relation]:
        for name, relation in self.entries:
            if name == alias.lower():
                return relation
        return None


class SqlAnalyzer:
    """Semantic analysis of one SQL statement against a catalog."""

    def __init__(self, catalog: Catalog,
                 views: Optional[Dict[str, SelectStatement]] = None):
        self.catalog = catalog
        self.views = {name.lower(): select
                      for name, select in (views or {}).items()}
        self._out: Optional[DiagnosticCollector] = None
        self._sql: Optional[str] = None
        self._base = 0
        self._source: Optional[str] = None
        self._view_stack: List[str] = []

    @classmethod
    def for_database(cls, database: Any) -> "SqlAnalyzer":
        """Analyzer over a live Database's catalog and views."""
        return cls(database.catalog, getattr(database, "views", None))

    # -- public API -----------------------------------------------------------

    def analyze(self, statement: Any,
                collector: Optional[DiagnosticCollector] = None,
                source: Optional[str] = None,
                sql_text: Optional[str] = None,
                base_offset: int = 0) -> DiagnosticCollector:
        """Analyze SQL text or an already-parsed statement.

        ``sql_text``/``base_offset`` let script linters map statement
        offsets back into the enclosing file for accurate spans.
        """
        collector = collector if collector is not None \
            else DiagnosticCollector(source)
        if isinstance(statement, str):
            if sql_text is None:
                sql_text = statement
            try:
                statement = parse_sql(statement)
            except EngineError as exc:
                span = None
                offset = getattr(exc, "offset", None)
                if offset is not None:
                    line, column = line_column(sql_text,
                                               base_offset + offset)
                    span = SourceSpan(line, column, base_offset + offset)
                collector.error("ODB115", str(exc), span, source)
                return collector
        self._out = collector
        self._sql = sql_text
        self._base = base_offset
        self._source = source
        self._dispatch(statement)
        return collector

    def output_columns(
            self, select: Any) -> List[Tuple[str, Optional[SqlType]]]:
        """The (name, type) shape a SELECT produces, inferred silently."""
        if isinstance(select, CompoundSelect):
            select = select.parts[0]
        saved = (self._out, self._sql, self._base)
        self._out = DiagnosticCollector()
        self._sql = None
        self._base = 0
        try:
            scope = self._build_scope(select.from_clause)
            return self._item_columns(select, scope)
        finally:
            self._out, self._sql, self._base = saved

    # -- reporting helpers ----------------------------------------------------

    def _span(self, position: Optional[int]) -> Optional[SourceSpan]:
        if position is None or self._sql is None:
            return None
        offset = self._base + position
        line, column = line_column(self._sql, offset)
        return SourceSpan(line, column, offset)

    def _error(self, code: str, message: str,
               position: Optional[int] = None) -> None:
        self._out.error(code, message, self._span(position),
                        self._source)

    def _warning(self, code: str, message: str,
                 position: Optional[int] = None) -> None:
        self._out.warning(code, message, self._span(position),
                          self._source)

    # -- scope ----------------------------------------------------------------

    def _relation_for(self, name: str) -> Optional[_Relation]:
        if self.catalog.has_table(name):
            schema = self.catalog.table(name)
            return _Relation(schema.name,
                             [(col.name, col.type)
                              for col in schema.columns])
        view = self.views.get(name.lower())
        if view is not None:
            if name.lower() in self._view_stack:
                return _Relation(name, [])
            self._view_stack.append(name.lower())
            try:
                return _Relation(name, self.output_columns(view))
            finally:
                self._view_stack.pop()
        return None

    def _build_scope(self, from_clause: Any) -> _Scope:
        scope = _Scope()
        conditions: List[Expression] = []

        def add(node: Any) -> None:
            if node is None:
                return
            if isinstance(node, TableRef):
                relation = self._relation_for(node.name)
                if relation is None:
                    self._error("ODB101",
                                f"unknown table {node.name!r}",
                                node.position)
                    scope.incomplete = True
                    return
                if scope.relation(node.alias) is not None:
                    self._error("ODB110",
                                f"duplicate table alias {node.alias!r}",
                                node.position)
                    return
                scope.add(node.alias, relation)
            elif isinstance(node, Join):
                add(node.left)
                add(node.right)
                if node.condition is not None:
                    conditions.append(node.condition)

        add(from_clause)
        for condition in conditions:
            for aggregate in find_aggregates(condition):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in a "
                    f"JOIN condition", _first_position(condition))
            self._infer(condition, scope)
        return scope

    def _resolve_column(self, ref: ColumnRef, scope: _Scope,
                        extra: frozenset = frozenset(),
                        silent: bool = False
                        ) -> Tuple[Optional[str], Optional[SqlType]]:
        """Resolve a column reference to (canonical key, type)."""
        lower = ref.name.lower()
        if "." in lower:
            alias, column = lower.split(".", 1)
            relation = scope.relation(alias)
            if relation is None:
                if not scope.incomplete and not silent:
                    self._error(
                        "ODB102",
                        f"unknown table or alias {alias!r} in column "
                        f"reference {ref.name!r}", ref.position)
                return None, None
            if not relation.has(column):
                if not silent:
                    self._error(
                        "ODB102",
                        f"table {relation.name!r} (alias {alias!r}) has "
                        f"no column {column!r}", ref.position)
                return None, None
            return f"{alias}.{column}", relation.type_of(column)
        if lower in extra:
            return None, None  # a select-list alias; always in scope
        matches = [(alias, relation) for alias, relation in scope.entries
                   if relation.has(lower)]
        if not matches:
            if not scope.incomplete and not silent:
                self._error("ODB102", f"unknown column {ref.name!r}",
                            ref.position)
            return None, None
        if len(matches) > 1:
            if not silent:
                tables = ", ".join(sorted(alias for alias, _ in matches))
                self._error(
                    "ODB103",
                    f"column {ref.name!r} is ambiguous "
                    f"(matches {tables})", ref.position)
            return None, None
        alias, relation = matches[0]
        return f"{alias}.{lower}", relation.type_of(lower)

    # -- type inference -------------------------------------------------------

    def _infer(self, expr: Expression, scope: _Scope,
               extra: frozenset = frozenset()) -> Optional[SqlType]:
        """Infer an expression's type, reporting semantic problems.

        ``None`` means *unknown* (parameters, NULL, unresolved refs) —
        unknown types opt out of every compatibility check.
        """
        if isinstance(expr, Literal):
            return _literal_type(expr.value)
        if isinstance(expr, Parameter):
            return None
        if isinstance(expr, ColumnRef):
            _key, sql_type = self._resolve_column(expr, scope, extra)
            return sql_type
        if isinstance(expr, Star):
            return None
        if isinstance(expr, BinaryOp):
            return self._infer_binary(expr, scope, extra)
        if isinstance(expr, UnaryOp):
            operand = self._infer(expr.operand, scope, extra)
            if expr.op == "NOT":
                return SqlType.BOOLEAN
            if operand is not None and operand not in _NUMERIC:
                self._error(
                    "ODB105",
                    f"unary {expr.op!r} requires a numeric operand, "
                    f"got {operand.value}", _first_position(expr))
                return None
            return operand
        if isinstance(expr, IsNull):
            self._infer(expr.operand, scope, extra)
            return SqlType.BOOLEAN
        if isinstance(expr, InList):
            operand = self._infer(expr.operand, scope, extra)
            for option in expr.options:
                candidate = self._infer(option, scope, extra)
                if operand is not None and candidate is not None \
                        and not _comparable_types(operand, candidate):
                    self._error(
                        "ODB104",
                        f"IN list mixes {operand.value} with "
                        f"{candidate.value}", _first_position(expr))
            return SqlType.BOOLEAN
        if isinstance(expr, Between):
            operand = self._infer(expr.operand, scope, extra)
            for bound in (expr.low, expr.high):
                candidate = self._infer(bound, scope, extra)
                if operand is not None and candidate is not None \
                        and not _comparable_types(operand, candidate):
                    self._error(
                        "ODB104",
                        f"BETWEEN compares {operand.value} with "
                        f"{candidate.value}", _first_position(expr))
            return SqlType.BOOLEAN
        if isinstance(expr, Like):
            operand = self._infer(expr.operand, scope, extra)
            pattern = self._infer(expr.pattern, scope, extra)
            for side, sql_type in (("operand", operand),
                                   ("pattern", pattern)):
                if sql_type is not None and sql_type is not SqlType.TEXT:
                    self._error(
                        "ODB104",
                        f"LIKE {side} must be TEXT, got {sql_type.value}",
                        _first_position(expr))
            return SqlType.BOOLEAN
        if isinstance(expr, CaseExpr):
            result_type: Optional[SqlType] = None
            for condition, result in expr.branches:
                self._infer(condition, scope, extra)
                branch = self._infer(result, scope, extra)
                if result_type is None:
                    result_type = branch
            if expr.default is not None:
                branch = self._infer(expr.default, scope, extra)
                if result_type is None:
                    result_type = branch
            return result_type
        if isinstance(expr, FunctionCall):
            return self._infer_function(expr, scope, extra)
        if isinstance(expr, AggregateCall):
            return self._infer_aggregate(expr, scope, extra)
        return None

    def _infer_binary(self, expr: BinaryOp, scope: _Scope,
                      extra: frozenset) -> Optional[SqlType]:
        left = self._infer(expr.left, scope, extra)
        right = self._infer(expr.right, scope, extra)
        position = _first_position(expr)
        if expr.op in ("AND", "OR"):
            return SqlType.BOOLEAN
        if expr.op in _COMPARISONS:
            if left is not None and right is not None \
                    and not _comparable_types(left, right):
                self._error(
                    "ODB104",
                    f"cannot compare {left.value} with {right.value} "
                    f"using {expr.op!r}", position)
            return SqlType.BOOLEAN
        if expr.op == "||":
            for sql_type in (left, right):
                if sql_type is not None and sql_type is not SqlType.TEXT:
                    self._error(
                        "ODB105",
                        f"'||' requires TEXT operands, "
                        f"got {sql_type.value}", position)
            return SqlType.TEXT
        # numeric arithmetic
        for sql_type in (left, right):
            if sql_type is not None and sql_type not in _NUMERIC:
                self._error(
                    "ODB105",
                    f"arithmetic {expr.op!r} requires numeric operands, "
                    f"got {sql_type.value}", position)
                return None
        if expr.op == "/":
            return SqlType.REAL
        if SqlType.REAL in (left, right):
            return SqlType.REAL
        if left is None or right is None:
            return None
        return SqlType.INTEGER

    def _infer_function(self, expr: FunctionCall, scope: _Scope,
                        extra: frozenset) -> Optional[SqlType]:
        name = expr.name.upper()
        arg_types = [self._infer(arg, scope, extra) for arg in expr.args]
        if name not in _SCALAR_FUNCTIONS:
            self._error("ODB109", f"unknown function {expr.name!r}",
                        _first_position(expr))
            return None
        if name in ("UPPER", "LOWER", "TRIM", "SUBSTR"):
            return SqlType.TEXT
        if name in ("LENGTH", "YEAR", "MONTH", "DAY"):
            return SqlType.INTEGER
        if name == "DATE":
            return SqlType.DATE
        if name in ("ABS", "ROUND"):
            return arg_types[0] if arg_types else None
        if name == "COALESCE":
            for sql_type in arg_types:
                if sql_type is not None:
                    return sql_type
            return None
        if name == "NULLIF":
            return arg_types[0] if arg_types else None
        return None

    def _infer_aggregate(self, expr: AggregateCall, scope: _Scope,
                         extra: frozenset) -> Optional[SqlType]:
        if isinstance(expr.argument, Star):
            return SqlType.INTEGER  # COUNT(*)
        argument = self._infer(expr.argument, scope, extra)
        if expr.name == "COUNT":
            return SqlType.INTEGER
        if expr.name in ("SUM", "AVG"):
            if argument is not None and argument not in _NUMERIC:
                self._error(
                    "ODB105",
                    f"{expr.name} requires a numeric argument, "
                    f"got {argument.value}",
                    _first_position(expr))
                return None
            if expr.name == "AVG":
                return SqlType.REAL
            return argument
        return argument  # MIN / MAX preserve the argument type

    # -- statement dispatch ---------------------------------------------------

    def _dispatch(self, statement: Any) -> None:
        if isinstance(statement, SelectStatement):
            self._analyze_select(statement)
        elif isinstance(statement, CompoundSelect):
            self._analyze_compound(statement)
        elif isinstance(statement, InsertStatement):
            self._analyze_insert(statement)
        elif isinstance(statement, UpdateStatement):
            self._analyze_update(statement)
        elif isinstance(statement, DeleteStatement):
            self._analyze_delete(statement)
        elif isinstance(statement, CreateViewStatement):
            self._analyze_create_view(statement)
        elif isinstance(statement, CreateTableAsStatement):
            self._analyze_select(statement.select)
        elif isinstance(statement, CreateTableStatement):
            self._analyze_create_table(statement)
        elif isinstance(statement, CreateIndexStatement):
            self._analyze_create_index(statement)
        elif isinstance(statement, AlterTableAddColumn):
            if not self.catalog.has_table(statement.table):
                self._error("ODB101",
                            f"unknown table {statement.table!r}")
        elif isinstance(statement, (DropTableStatement,
                                    DropViewStatement,
                                    TransactionStatement)):
            pass

    # -- SELECT ---------------------------------------------------------------

    def _analyze_select(self, select: SelectStatement) -> None:
        scope = self._build_scope(select.from_clause)

        aliases: Dict[str, Expression] = {}
        for item in select.items:
            if item.alias and not isinstance(item.expression, Star):
                aliases[item.alias.lower()] = item.expression
        alias_names = frozenset(aliases)

        if select.where is not None:
            for aggregate in find_aggregates(select.where):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in "
                    f"WHERE (use HAVING)",
                    _first_position(select.where))
            self._infer(select.where, scope)
            self._check_constant_predicate(select.where)

        for item in select.items:
            if isinstance(item.expression, Star):
                if item.alias and item.alias.endswith(".*"):
                    qualifier = item.alias[:-2]
                    if scope.relation(qualifier) is None \
                            and not scope.incomplete:
                        self._error(
                            "ODB102",
                            f"unknown table or alias {qualifier!r} "
                            f"in {item.alias!r}")
                elif select.from_clause is None:
                    self._error("ODB102", "'*' requires a FROM clause")
                continue
            self._infer(item.expression, scope)

        grouped_texts: set = set()
        grouped_keys: set = set()
        for expr in select.group_by:
            for aggregate in find_aggregates(expr):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in "
                    f"GROUP BY", _first_position(expr))
            grouped_texts.add(_expr_text(expr))
            if isinstance(expr, ColumnRef):
                lower = expr.name.lower()
                if "." not in lower and lower in aliases:
                    # GROUP BY a select alias groups its expression.
                    grouped_texts.add(_expr_text(aliases[lower]))
                    continue
                key, _ = self._resolve_column(expr, scope)
                if key is not None:
                    grouped_keys.add(key)
            else:
                self._infer(expr, scope)

        has_aggregate = any(
            find_aggregates(item.expression)
            for item in select.items
            if not isinstance(item.expression, Star))
        if select.having is not None:
            has_aggregate = has_aggregate \
                or bool(find_aggregates(select.having))

        if select.group_by or has_aggregate:
            for item in select.items:
                expr = item.expression
                if isinstance(expr, Star):
                    if scope.entries:
                        self._error(
                            "ODB107",
                            "'*' cannot be selected in an "
                            "aggregate/grouped query")
                    continue
                self._check_grouped(expr, scope, grouped_texts,
                                    grouped_keys, "the select list")

        if select.having is not None:
            self._infer(select.having, scope, alias_names)
            if select.group_by or has_aggregate:
                self._check_grouped(select.having, scope, grouped_texts,
                                    grouped_keys, "HAVING",
                                    skip=alias_names)

        for expr, _ascending in select.order_by:
            self._infer(expr, scope, alias_names)
        if select.limit is not None:
            self._infer(select.limit, scope)
        if select.offset is not None:
            self._infer(select.offset, scope)

    def _check_grouped(self, expr: Expression, scope: _Scope,
                       grouped_texts: set, grouped_keys: set,
                       where: str, skip: frozenset = frozenset()) -> None:
        if _expr_text(expr) in grouped_texts:
            return
        for ref in _column_nodes(expr, include_aggregates=False):
            if ref.name.lower() in skip:
                continue
            if _expr_text(ref) in grouped_texts:
                continue
            key, _ = self._resolve_column(ref, scope, silent=True)
            if key is not None and key not in grouped_keys:
                self._error(
                    "ODB107",
                    f"column {ref.name!r} in {where} must appear in "
                    f"GROUP BY or inside an aggregate", ref.position)

    def _check_constant_predicate(self, where: Expression) -> None:
        if isinstance(where, Literal):
            if where.value in (True, False):
                verdict = "true" if where.value else "false"
                self._warning("ODB112",
                              f"WHERE clause is always {verdict}")
            return

        def walk(node: Expression) -> None:
            if isinstance(node, BinaryOp):
                if node.op in ("AND", "OR"):
                    walk(node.left)
                    walk(node.right)
                    return
                if node.op in _COMPARISONS \
                        and isinstance(node.left, Literal) \
                        and isinstance(node.right, Literal):
                    try:
                        result = compile_expression(
                            node, Scope(SlotMap()))((), ())
                    except EngineError:
                        return
                    verdict = "true" if result is True else "false"
                    self._warning(
                        "ODB112",
                        f"predicate compares two constants "
                        f"(always {verdict})")
            elif isinstance(node, UnaryOp) and node.op == "NOT":
                walk(node.operand)

        walk(where)

    def _analyze_compound(self, compound: CompoundSelect) -> None:
        counts = []
        for part in compound.parts:
            self._analyze_select(part)
            counts.append(len(self.output_columns(part)))
        if 0 not in counts and len(set(counts)) > 1:
            self._error(
                "ODB114",
                f"UNION parts select different column counts: "
                f"{', '.join(str(count) for count in counts)}")

    def _item_columns(
            self, select: SelectStatement,
            scope: _Scope) -> List[Tuple[str, Optional[SqlType]]]:
        columns: List[Tuple[str, Optional[SqlType]]] = []
        for item in select.items:
            if isinstance(item.expression, Star):
                if item.alias and item.alias.endswith(".*"):
                    relation = scope.relation(item.alias[:-2])
                    if relation is not None:
                        columns.extend(relation.columns)
                else:
                    for _alias, relation in scope.entries:
                        columns.extend(relation.columns)
                continue
            if item.alias:
                name = item.alias
            elif isinstance(item.expression, ColumnRef):
                name = item.expression.name.split(".")[-1]
            else:
                name = _expr_text(item.expression)
            columns.append(
                (name.lower(), self._infer(item.expression, scope)))
        return columns

    # -- DML ------------------------------------------------------------------

    def _check_target_table(self, table: str, verb: str,
                            position: Optional[int]) \
            -> Optional[TableSchema]:
        if self.catalog.has_table(table):
            return self.catalog.table(table)
        if table.lower() in self.views:
            self._error("ODB101",
                        f"cannot {verb} view {table!r}", position)
        else:
            self._error("ODB101", f"unknown table {table!r}", position)
        return None

    def _check_value(self, expr: Expression,
                     inferred: Optional[SqlType], column: Column,
                     fallback_position: Optional[int]) -> None:
        position = _first_position(expr)
        if position is None:
            position = fallback_position
        if isinstance(expr, Literal):
            if expr.value is None:
                if not column.nullable:
                    self._error(
                        "ODB113",
                        f"NULL value for NOT NULL column "
                        f"{column.name!r}", position)
                return
            try:
                coerce_value(expr.value, column.type)
            except TypeMismatch as exc:
                self._error("ODB113",
                            f"column {column.name!r}: {exc}", position)
            return
        if inferred is None:
            return
        if not _assignable(inferred, column.type):
            self._error(
                "ODB113",
                f"{inferred.value} value does not fit "
                f"{column.type.value} column {column.name!r}", position)

    def _analyze_insert(self, statement: InsertStatement) -> None:
        schema = self._check_target_table(statement.table, "INSERT into",
                                          statement.position)
        if schema is None:
            return
        targets: List[Optional[Column]] = []
        if statement.columns:
            for name in statement.columns:
                if schema.has_column(name):
                    targets.append(schema.column(name))
                else:
                    self._error(
                        "ODB102",
                        f"table {statement.table!r} has no column "
                        f"{name!r}", statement.position)
                    targets.append(None)
            provided = {name.lower() for name in statement.columns}
            for column in schema.columns:
                if column.name.lower() not in provided \
                        and not column.nullable \
                        and column.default is None:
                    self._error(
                        "ODB113",
                        f"NOT NULL column {column.name!r} has no value "
                        f"and no default", statement.position)
        else:
            targets = list(schema.columns)
        empty_scope = _Scope()
        for row in statement.rows:
            if len(row) != len(targets):
                self._error(
                    "ODB108",
                    f"INSERT into {statement.table!r} supplies "
                    f"{len(row)} values for {len(targets)} columns",
                    statement.position)
                continue
            for column, expr in zip(targets, row):
                inferred = self._infer(expr, empty_scope)
                if column is not None:
                    self._check_value(expr, inferred, column,
                                      statement.position)

    def _single_table_scope(self, schema: TableSchema) -> _Scope:
        scope = _Scope()
        scope.add(schema.name,
                  _Relation(schema.name,
                            [(col.name, col.type)
                             for col in schema.columns]))
        return scope

    def _analyze_update(self, statement: UpdateStatement) -> None:
        schema = self._check_target_table(statement.table, "UPDATE",
                                          statement.position)
        if schema is None:
            return
        scope = self._single_table_scope(schema)
        for name, expr in statement.assignments:
            for aggregate in find_aggregates(expr):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in an "
                    f"UPDATE assignment", statement.position)
            inferred = self._infer(expr, scope)
            if not schema.has_column(name):
                self._error(
                    "ODB102",
                    f"table {statement.table!r} has no column {name!r}",
                    statement.position)
                continue
            self._check_value(expr, inferred, schema.column(name),
                              statement.position)
        if statement.where is not None:
            for aggregate in find_aggregates(statement.where):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in "
                    f"WHERE", statement.position)
            self._infer(statement.where, scope)
            self._check_constant_predicate(statement.where)

    def _analyze_delete(self, statement: DeleteStatement) -> None:
        schema = self._check_target_table(statement.table, "DELETE from",
                                          statement.position)
        if schema is None:
            return
        if statement.where is not None:
            scope = self._single_table_scope(schema)
            for aggregate in find_aggregates(statement.where):
                self._error(
                    "ODB106",
                    f"aggregate {aggregate.name} is not allowed in "
                    f"WHERE", statement.position)
            self._infer(statement.where, scope)
            self._check_constant_predicate(statement.where)

    # -- DDL ------------------------------------------------------------------

    def _analyze_create_table(self,
                              statement: CreateTableStatement) -> None:
        try:
            TableSchema(statement.name, statement.columns)
        except EngineError as exc:
            self._error("ODB115", str(exc))

    def _analyze_create_view(self,
                             statement: CreateViewStatement) -> None:
        self._analyze_select(statement.select)
        for item in statement.select.items:
            if isinstance(item.expression, Star):
                self._warning(
                    "ODB111",
                    f"view {statement.name!r} uses SELECT *; its shape "
                    f"silently changes when base tables change")
                break

    def _analyze_create_index(self,
                              statement: CreateIndexStatement) -> None:
        if not self.catalog.has_table(statement.table):
            self._error("ODB101",
                        f"unknown table {statement.table!r}")
            return
        schema = self.catalog.table(statement.table)
        for name in statement.columns:
            if not schema.has_column(name):
                self._error(
                    "ODB102",
                    f"table {statement.table!r} has no column {name!r}")


# --- multi-statement scripts -------------------------------------------------

def split_statements(sql: str) -> List[Tuple[str, int]]:
    """Split a script on ``;`` into (statement text, start offset).

    String literals (with ``''`` escapes) and ``--`` comments are
    respected; whitespace-only fragments are dropped.
    """
    pieces: List[Tuple[str, int]] = []
    start = 0
    index = 0
    length = len(sql)
    in_string = False
    in_comment = False
    while index < length:
        char = sql[index]
        if in_comment:
            if char == "\n":
                in_comment = False
        elif in_string:
            if char == "'":
                if index + 1 < length and sql[index + 1] == "'":
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
        elif char == "-" and sql[index:index + 2] == "--":
            in_comment = True
        elif char == ";":
            pieces.append((sql[start:index], start))
            start = index + 1
        index += 1
    pieces.append((sql[start:], start))
    statements = []
    for text, offset in pieces:
        # Drop leading whitespace and comment lines (bumping the
        # offset equally) so spans point at the statement itself.
        lead = 0
        while lead < len(text):
            if text[lead].isspace():
                lead += 1
            elif text[lead:lead + 2] == "--":
                newline = text.find("\n", lead)
                if newline < 0:
                    lead = len(text)
                else:
                    lead = newline + 1
            else:
                break
        trimmed = text[lead:].rstrip()
        if not trimmed:
            continue
        statements.append((trimmed, offset + lead))
    return statements


def _copy_catalog(catalog: Optional[Catalog]) -> Catalog:
    copy = Catalog()
    if catalog is not None:
        for schema in catalog:
            copy.add_table(schema)
    return copy


def apply_ddl(statement: Any, catalog: Catalog,
              views: Dict[str, SelectStatement],
              analyzer: Optional[SqlAnalyzer] = None) -> None:
    """Fold one DDL statement into an evolving (catalog, views) pair.

    Shared :class:`TableSchema` objects from the source catalog are
    never mutated: ALTER builds a widened copy.
    """
    if isinstance(statement, CreateTableStatement):
        if catalog.has_table(statement.name):
            if not statement.if_not_exists:
                raise TypeMismatch(
                    f"table {statement.name!r} already exists")
            return
        catalog.add_table(TableSchema(statement.name, statement.columns))
    elif isinstance(statement, CreateTableAsStatement):
        if catalog.has_table(statement.name):
            return
        analyzer = analyzer or SqlAnalyzer(catalog, views)
        columns = [
            Column(name=name, type=sql_type or SqlType.TEXT)
            for name, sql_type in analyzer.output_columns(statement.select)
        ]
        if columns:
            catalog.add_table(TableSchema(statement.name, columns))
    elif isinstance(statement, CreateViewStatement):
        views[statement.name.lower()] = statement.select
    elif isinstance(statement, DropTableStatement):
        if catalog.has_table(statement.name):
            catalog.drop_table(statement.name)
    elif isinstance(statement, DropViewStatement):
        views.pop(statement.name.lower(), None)
    elif isinstance(statement, AlterTableAddColumn):
        if catalog.has_table(statement.table):
            schema = catalog.table(statement.table)
            widened = TableSchema(
                schema.name, list(schema.columns) + [statement.column])
            catalog.drop_table(schema.name)
            catalog.add_table(widened)


def analyze_script(sql: str, catalog: Optional[Catalog] = None,
                   collector: Optional[DiagnosticCollector] = None,
                   source: Optional[str] = None,
                   views: Optional[Dict[str, SelectStatement]] = None
                   ) -> DiagnosticCollector:
    """Lint a multi-statement SQL script.

    DDL statements are applied to a *copy* of ``catalog`` as analysis
    proceeds, so later statements see tables the script itself creates.
    """
    collector = collector if collector is not None \
        else DiagnosticCollector(source)
    working = _copy_catalog(catalog)
    working_views = dict(views or {})
    for text, offset in split_statements(sql):
        analyzer = SqlAnalyzer(working, working_views)
        try:
            statement = parse_sql(text)
        except EngineError as exc:
            span = None
            local = getattr(exc, "offset", None)
            if local is not None:
                line, column = line_column(sql, offset + local)
                span = SourceSpan(line, column, offset + local)
            collector.error("ODB115", str(exc), span, source)
            continue
        analyzer.analyze(statement, collector, source=source,
                         sql_text=sql, base_offset=offset)
        try:
            apply_ddl(statement, working, working_views, analyzer)
        except EngineError as exc:
            collector.error("ODB115", str(exc), None, source)
    return collector


def catalog_from_script(sql: str) -> Tuple[Catalog,
                                           Dict[str, SelectStatement]]:
    """Build (catalog, views) from just the DDL in a script, ignoring
    anything that fails to parse."""
    catalog = Catalog()
    views: Dict[str, SelectStatement] = {}
    for text, _offset in split_statements(sql):
        try:
            statement = parse_sql(text)
        except EngineError:
            continue
        try:
            apply_ddl(statement, catalog, views)
        except EngineError:
            continue
    return catalog, views
