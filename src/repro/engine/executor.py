"""Iterator-model execution of parsed SQL statements.

The executor dispatches every statement the parser produces: DDL, DML
and UNION here, each SELECT to ``Database._run_select``.  Under
``compile=True`` that runs the compiled plan (:mod:`repro.engine.planner`),
which is also how UPDATE and DELETE choose their target rows.

:meth:`Executor.execute_select` is the interpreter, which runs SELECTs
only under ``Database(compile=False)``: the reference the compiled
plans are compared against.  It walks the AST and evaluates each
expression per row against a dict context, resolving names as it
meets them.  Joins are left-deep; equality joins are hash joins,
everything else nested loops (a nested loop would make a 4 000 × 200
star join 800 000 pairs).  Every table is full-scanned: index access
paths belong to the planner.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    EvalContext,
    Expression,
    Star,
    find_aggregates,
)
from repro.engine.parser import (
    AlterTableAddColumn,
    CompoundSelect,
    CreateTableAsStatement,
    CreateIndexStatement,
    CreateViewStatement,
    DropViewStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    Join,
    SelectItem,
    SelectStatement,
    TableRef,
    UpdateStatement,
)
from repro.engine.schema import TableSchema
from repro.engine.types import sort_key
from repro.errors import CatalogError, EngineError

_AMBIGUOUS = object()


class ResultSet:
    """A fully materialized query result."""

    #: True when the database served remembered rows, proven fresh
    #: from commit stamps, instead of executing the statement.
    reused = False

    def __init__(self, columns: List[str], rows: List[tuple]):
        self.columns = columns
        self.rows = rows
        # Key tuple computed once; to_dicts/__iter__ reuse it per row.
        self._keys = tuple(columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        keys = self._keys
        for row in self.rows:
            yield dict(zip(keys, row))

    def __repr__(self) -> str:
        return f"<ResultSet {len(self.rows)} rows x {self.columns}>"

    def first(self) -> Optional[Dict[str, Any]]:
        if not self.rows:
            return None
        return dict(zip(self.columns, self.rows[0]))

    def scalar(self) -> Any:
        """The single value of a one-row one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise EngineError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        try:
            position = self.columns.index(name)
        except ValueError as exc:
            raise EngineError(f"result has no column {name!r}") from exc
        return [row[position] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, Any]]:
        keys = self._keys
        return [dict(zip(keys, row)) for row in self.rows]

    def tuples(self) -> List[tuple]:
        """Rows as positional tuples — no per-row dict materialization."""
        return list(self.rows)


class _Source:
    """One resolved FROM-clause table: alias, schema and storage.

    ``snapshot`` pins every scan of this source to one commit number
    (the MVCC read path); ``None`` scans the live rows — only valid
    under the database's exclusive lock (writers and in-transaction
    reads).
    """

    def __init__(self, alias: str, schema: TableSchema, storage,
                 snapshot=None):
        self.alias = alias
        self.schema = schema
        self.storage = storage
        self.snapshot = snapshot
        # Context keys computed once per statement, not once per row.
        alias_key = alias.lower()
        self._rowid_key = "__rowid_" + alias_key
        self._keys = [
            (f"{alias_key}.{name}", name)
            for name in schema.lower_names
        ]

    def contexts(self) -> Iterable[Dict[str, Any]]:
        if self.snapshot is not None:
            for rowid, row in self.storage.snapshot_rows(self.snapshot.cn):
                yield self.row_context(rowid, row)
            return
        for rowid, row in self.storage.scan():
            yield self.row_context(rowid, row)

    def row_context(self, rowid: int, row: List[Any]) -> Dict[str, Any]:
        values: Dict[str, Any] = {self._rowid_key: rowid}
        for (qualified, name), value in zip(self._keys, row):
            values[qualified] = value
            values[name] = value
        return values

    def null_context(self) -> Dict[str, Any]:
        values: Dict[str, Any] = {"__rowid_" + self.alias.lower(): None}
        alias = self.alias.lower()
        for name in self.schema.lower_names:
            values[f"{alias}.{name}"] = None
            values[name] = None
        return values


def _merge_contexts(left: Dict[str, Any],
                    right: Dict[str, Any]) -> Dict[str, Any]:
    merged = dict(left)
    for key, value in right.items():
        if "." in key or key.startswith("__rowid_"):
            merged[key] = value
        elif key in merged:
            merged[key] = _AMBIGUOUS
        else:
            merged[key] = value
    return merged


class _ViewSource(_Source):
    """A FROM-clause source backed by a view's materialized output."""

    def __init__(self, alias: str, result: ResultSet):
        super().__init__(alias, _PseudoSchema(result.columns), None)
        self._rows = result.rows

    def contexts(self) -> Iterable[Dict[str, Any]]:
        for row in self._rows:
            yield self.row_context(None, row)


class _PseudoSchema:
    """A view's output columns, as much of a schema as a source reads."""

    def __init__(self, column_names: List[str]):
        self.column_names = column_names
        self.lower_names = [name.lower() for name in column_names]

    def has_column(self, name: str) -> bool:
        return name.lower() in self.lower_names


class _RowContext(EvalContext):
    """EvalContext that rejects ambiguous unqualified column names."""

    def lookup(self, name: str) -> Any:
        key = name.lower()
        if key in self.values:
            value = self.values[key]
            if value is _AMBIGUOUS:
                raise EngineError(f"ambiguous column reference {name!r}")
            return value
        raise EngineError(f"unknown column {name!r} in expression")


class Executor:
    """Executes statements against a :class:`repro.engine.database.Database`."""

    def __init__(self, database):
        self._db = database

    # -- dispatch ---------------------------------------------------------------

    def execute(self, statement, params: Sequence[Any]) -> Any:
        if isinstance(statement, SelectStatement):
            # The compiled plan, or the interpreter under compile=False.
            return self._db._run_select(statement, params)
        if isinstance(statement, CompoundSelect):
            return self.execute_compound(statement, params)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, params)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement, params)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, params)
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndexStatement):
            return self._execute_create_index(statement)
        if isinstance(statement, AlterTableAddColumn):
            self._db.storage(statement.table).add_column(statement.column)
            self._db.record_redo(
                ("add_column", statement.table, statement.column))
            self._db.invalidate_plans()
            return 0
        if isinstance(statement, CreateTableAsStatement):
            return self._execute_create_table_as(statement, params)
        if isinstance(statement, CreateViewStatement):
            return self._execute_create_view(statement)
        if isinstance(statement, DropViewStatement):
            return self._execute_drop_view(statement)
        raise EngineError(
            f"executor cannot handle {type(statement).__name__}")

    # -- DDL ----------------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTableStatement) -> int:
        if statement.if_not_exists and self._db.catalog.has_table(statement.name):
            return 0
        schema = TableSchema(statement.name, statement.columns)
        self._db.create_storage(schema)
        return 0

    def _execute_drop_table(self, statement: DropTableStatement) -> int:
        if statement.if_exists and not self._db.catalog.has_table(statement.name):
            return 0
        self._db.drop_storage(statement.name)
        return 0

    def _execute_create_index(self, statement: CreateIndexStatement) -> int:
        storage = self._db.storage(statement.table)
        storage.add_index(statement.name, statement.columns,
                          unique=statement.unique)
        self._db.record_redo(
            ("create_index", statement.table, statement.name,
             list(statement.columns), statement.unique))
        self._db.invalidate_plans()
        return 0

    def _execute_create_table_as(self, statement: CreateTableAsStatement,
                                 params: Sequence[Any]) -> int:
        """CTAS: materialize a query into a new table.

        Column types are inferred from the first non-NULL value of
        each output column (TEXT when a column is entirely NULL).
        """
        import datetime

        from repro.engine.schema import Column as SchemaColumn
        from repro.engine.schema import TableSchema
        from repro.engine.types import SqlType

        if statement.if_not_exists \
                and self._db.catalog.has_table(statement.name):
            return 0
        result = self._db._run_select(statement.select, params)

        def infer(position: int) -> SqlType:
            for row in result.rows:
                value = row[position]
                if value is None:
                    continue
                if isinstance(value, bool):
                    return SqlType.BOOLEAN
                if isinstance(value, int):
                    return SqlType.INTEGER
                if isinstance(value, float):
                    return SqlType.REAL
                if isinstance(value, datetime.datetime):
                    return SqlType.TIMESTAMP
                if isinstance(value, datetime.date):
                    return SqlType.DATE
                return SqlType.TEXT
            return SqlType.TEXT

        columns = [
            SchemaColumn(name=name, type=infer(position))
            for position, name in enumerate(result.columns)
        ]
        schema = TableSchema(statement.name, columns)
        storage = self._db.create_storage(schema)
        count = 0
        for row in result.rows:
            rowid = storage.insert(list(row))
            self._db.record_undo(
                ("insert", schema.name, rowid, list(row)))
            self._db.record_redo(
                ("insert", schema.name, rowid, list(row)))
            count += 1
        return count

    def _execute_create_view(self, statement: CreateViewStatement) -> int:
        key = statement.name.lower()
        if key in self._db.views:
            if statement.if_not_exists:
                return 0
            raise CatalogError(f"view {statement.name!r} already exists")
        if self._db.catalog.has_table(statement.name):
            raise CatalogError(
                f"a table named {statement.name!r} already exists")
        # Validate the defining query eagerly so broken views fail at
        # creation, not first use.
        self._db._run_select(statement.select, ())
        self._db.views[key] = statement.select
        self._db.record_redo(("create_view", key, statement.select))
        self._db.invalidate_plans()
        return 0

    def _execute_drop_view(self, statement: DropViewStatement) -> int:
        key = statement.name.lower()
        if key not in self._db.views:
            if statement.if_exists:
                return 0
            raise CatalogError(f"no such view: {statement.name!r}")
        del self._db.views[key]
        self._db.record_redo(("drop_view", key))
        self._db.invalidate_plans()
        return 0

    # -- DML ----------------------------------------------------------------------

    def _execute_insert(self, statement: InsertStatement,
                        params: Sequence[Any]) -> int:
        storage = self._db.storage(statement.table)
        schema = storage.schema
        columns = statement.columns or schema.column_names
        count = 0
        context = _RowContext({}, params)
        for value_exprs in statement.rows:
            if len(value_exprs) != len(columns):
                raise EngineError(
                    f"INSERT into {statement.table}: {len(columns)} columns "
                    f"but {len(value_exprs)} values")
            values = {
                column: expr.evaluate(context)
                for column, expr in zip(columns, value_exprs)
            }
            row = schema.coerce_row(values)
            rowid = storage.insert(row)
            self._db.record_undo(("insert", schema.name, rowid, row))
            # Copy the row into the redo image: ALTER TABLE later in
            # the same transaction appends to the live list in place.
            self._db.record_redo(
                ("insert", schema.name, rowid, list(row)))
            count += 1
        return count

    def _where_matches(self, statement, source: _Source,
                       params: Sequence[Any]) \
            -> Iterable[Tuple[int, List[Any]]]:
        """Live ``(rowid, row)`` pairs an UPDATE's or DELETE's WHERE
        accepts, in live-scan order, before any of them is mutated.

        Compiled, the planner's scan node chooses them — an index
        point/prefix scan when the WHERE equates indexed columns with
        constants — and applies the compiled WHERE.  ``compile=False``
        evaluates it row by row over a full scan: the reference.
        """
        if self._db._compile_enabled:
            return self._db.plan_for(statement).live_targets(params)
        where = statement.where
        return (
            (rowid, row) for rowid, row in list(source.storage.scan())
            if where is None or where.evaluate(_RowContext(
                source.row_context(rowid, row), params)) is True)

    def _execute_update(self, statement: UpdateStatement,
                        params: Sequence[Any]) -> int:
        storage = self._db.storage(statement.table)
        schema = storage.schema
        source = _Source(statement.table, schema, storage)
        targets: List[Tuple[int, List[Any]]] = []
        for rowid, row in self._where_matches(statement, source, params):
            context = _RowContext(source.row_context(rowid, row), params)
            new_row = list(row)
            for column_name, expr in statement.assignments:
                new_row[schema.column_index(column_name)] = \
                    expr.evaluate(context)
            targets.append((rowid, schema.coerce_row(
                dict(zip(schema.column_names, new_row)))))
        for rowid, new_row in targets:
            old_row = storage.update(rowid, new_row)
            self._db.record_undo(("update", schema.name, rowid, old_row))
            self._db.record_redo(
                ("update", schema.name, rowid, list(new_row)))
        return len(targets)

    def _execute_delete(self, statement: DeleteStatement,
                        params: Sequence[Any]) -> int:
        storage = self._db.storage(statement.table)
        source = _Source(statement.table, storage.schema, storage)
        doomed = [rowid for rowid, _row
                  in self._where_matches(statement, source, params)]
        for rowid in doomed:
            old_row = storage.delete(rowid)
            self._db.record_undo(
                ("delete", storage.schema.name, rowid, old_row))
            self._db.record_redo(
                ("delete", storage.schema.name, rowid))
        return len(doomed)

    # -- SELECT ---------------------------------------------------------------------

    def execute_select(self, statement: SelectStatement,
                       params: Sequence[Any],
                       snapshot=None) -> ResultSet:
        sources: List[_Source] = []
        if statement.from_clause is None:
            contexts: List[Dict[str, Any]] = [{}]
        else:
            contexts = list(self._from_contexts(
                statement.from_clause, sources, params, snapshot))

        if statement.where is not None:
            contexts = [
                values for values in contexts
                if statement.where.evaluate(_RowContext(values, params)) is True
            ]

        items = self._expand_stars(statement.items, sources)
        aggregates: List[AggregateCall] = []
        for item in items:
            aggregates.extend(find_aggregates(item.expression))
        if statement.having is not None:
            aggregates.extend(find_aggregates(statement.having))
        for expr, _asc in statement.order_by:
            aggregates.extend(find_aggregates(expr))

        grouped = bool(statement.group_by) or bool(aggregates)
        if grouped:
            contexts = self._group(
                contexts, statement.group_by, aggregates, params, sources)
            if statement.having is not None:
                contexts = [
                    values for values in contexts
                    if statement.having.evaluate(
                        _RowContext(values, params)) is True
                ]

        columns = [self._output_name(item, index)
                   for index, item in enumerate(items)]

        # Evaluate the projection, remembering the source context of each
        # output row so ORDER BY can reference non-projected columns.
        produced: List[Tuple[tuple, Dict[str, Any]]] = []
        for values in contexts:
            context = _RowContext(values, params)
            row = tuple(item.expression.evaluate(context) for item in items)
            order_values = dict(values)
            for name, value in zip(columns, row):
                order_values.setdefault(name.lower(), value)
            produced.append((row, order_values))

        if statement.distinct:
            seen = set()
            unique: List[Tuple[tuple, Dict[str, Any]]] = []
            for row, order_values in produced:
                marker = tuple(
                    (type(v).__name__, v) if v.__hash__ else repr(v)
                    for v in row)
                if marker not in seen:
                    seen.add(marker)
                    unique.append((row, order_values))
            produced = unique

        if statement.order_by:
            for expr, ascending in reversed(statement.order_by):
                produced.sort(
                    key=lambda pair: sort_key(
                        expr.evaluate(_RowContext(pair[1], params))),
                    reverse=not ascending)

        rows = [row for row, _ctx in produced]
        if statement.offset is not None:
            offset = int(statement.offset.evaluate(_RowContext({}, params)))
            rows = rows[offset:]
        if statement.limit is not None:
            limit = int(statement.limit.evaluate(_RowContext({}, params)))
            rows = rows[:limit]
        return ResultSet(columns, rows)

    def execute_compound(self, statement: CompoundSelect,
                         params: Sequence[Any],
                         snapshot=None) -> ResultSet:
        """UNION / UNION ALL: concatenate part results.

        All parts run against the same snapshot, so a compound read
        observes one commit number even while writers land between
        part executions.
        """
        results = [self._db._run_select(part, params, snapshot)
                   for part in statement.parts]
        width = len(results[0].columns)
        for result in results[1:]:
            if len(result.columns) != width:
                raise EngineError(
                    f"UNION parts have different column counts "
                    f"({width} vs {len(result.columns)})")
        rows: List[tuple] = list(results[0].rows)
        for flag, result in zip(statement.all_flags, results[1:]):
            rows.extend(result.rows)
            if not flag:
                seen = set()
                unique: List[tuple] = []
                for row in rows:
                    marker = tuple(repr(value) for value in row)
                    if marker not in seen:
                        seen.add(marker)
                        unique.append(row)
                rows = unique
        return ResultSet(results[0].columns, rows)

    # -- FROM / joins ----------------------------------------------------------------

    def _resolve(self, ref: TableRef, params: Sequence[Any],
                 snapshot=None) -> _Source:
        """A table, or a view whose defining SELECT runs once here."""
        select = self._db.views.get(ref.name.lower())
        if select is not None:
            return _ViewSource(
                ref.alias, self._db._run_select(select, params, snapshot))
        storage = self._db.storage(ref.name)
        return _Source(ref.alias, storage.schema, storage, snapshot)

    def _from_contexts(self, node, sources: List[_Source],
                       params: Sequence[Any],
                       snapshot=None) -> Iterable[Dict[str, Any]]:
        if isinstance(node, TableRef):
            source = self._resolve(node, params, snapshot)
            sources.append(source)
            return source.contexts()
        if isinstance(node, Join):
            left_contexts = list(
                self._from_contexts(node.left, sources, params, snapshot))
            right_source = self._resolve(node.right, params, snapshot)
            sources.append(right_source)
            return self._join(
                left_contexts, right_source, node.kind, node.condition, params)
        raise EngineError(f"bad FROM node {node!r}")  # pragma: no cover

    def _join(self, left_contexts: List[Dict[str, Any]], right: _Source,
              kind: str, condition: Optional[Expression],
              params: Sequence[Any]) -> Iterable[Dict[str, Any]]:
        equi = self._equi_join_keys(condition, left_contexts, right)
        if equi is not None and kind in ("INNER", "LEFT"):
            yield from self._hash_join(
                left_contexts, right, kind, equi, params)
            return
        right_contexts = list(right.contexts())
        for left_values in left_contexts:
            matched = False
            for right_values in right_contexts:
                merged = _merge_contexts(left_values, right_values)
                if condition is not None:
                    verdict = condition.evaluate(_RowContext(merged, params))
                    if verdict is not True:
                        continue
                matched = True
                yield merged
            if kind == "LEFT" and not matched:
                yield _merge_contexts(left_values, right.null_context())

    def _equi_join_keys(self, condition: Optional[Expression],
                        left_contexts: List[Dict[str, Any]],
                        right: _Source):
        """Detect ``left.col = right.col`` to enable a hash join."""
        if not isinstance(condition, BinaryOp) or condition.op != "=":
            return None
        if not isinstance(condition.left, ColumnRef) \
                or not isinstance(condition.right, ColumnRef):
            return None
        sample = left_contexts[0] if left_contexts else {}

        def side(ref: ColumnRef) -> Optional[str]:
            key = ref.name.lower()
            qualified = key if "." in key else None
            alias = right.alias.lower()
            if qualified is not None:
                if qualified.startswith(alias + "."):
                    return "right"
                return "left" if qualified in sample or not left_contexts \
                    else None
            if right.schema.has_column(key):
                if key in sample:
                    return None  # ambiguous — fall back to nested loop
                return "right"
            return "left"

        left_side = side(condition.left)
        right_side = side(condition.right)
        if left_side == "left" and right_side == "right":
            return condition.left, condition.right
        if left_side == "right" and right_side == "left":
            return condition.right, condition.left
        return None

    def _hash_join(self, left_contexts, right: _Source, kind: str,
                   keys, params) -> Iterable[Dict[str, Any]]:
        left_key_expr, right_key_expr = keys
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for right_values in right.contexts():
            key = right_key_expr.evaluate(_RowContext(right_values, params))
            if key is None:
                continue
            buckets.setdefault(key, []).append(right_values)
        for left_values in left_contexts:
            key = left_key_expr.evaluate(_RowContext(left_values, params))
            matches = buckets.get(key, []) if key is not None else []
            if matches:
                for right_values in matches:
                    yield _merge_contexts(left_values, right_values)
            elif kind == "LEFT":
                yield _merge_contexts(left_values, right.null_context())

    # -- grouping --------------------------------------------------------------------

    def _group(self, contexts: List[Dict[str, Any]],
               group_by: List[Expression],
               aggregates: List[AggregateCall],
               params: Sequence[Any],
               sources: List[_Source]) -> List[Dict[str, Any]]:
        """One context per group: its first member's, or for an empty
        lone group its sources' null row, plus the aggregate values."""
        groups: Dict[tuple, List[Dict[str, Any]]] = {}
        order: List[tuple] = []
        if group_by:
            for values in contexts:
                context = _RowContext(values, params)
                key = tuple(
                    sort_key(expr.evaluate(context)) for expr in group_by)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(values)
        else:
            key = ()
            groups[key] = list(contexts)
            order.append(key)

        unique_aggregates: Dict[str, AggregateCall] = {}
        for aggregate in aggregates:
            unique_aggregates.setdefault(aggregate.result_key(), aggregate)

        result: List[Dict[str, Any]] = []
        for key in order:
            members = groups[key]
            if members:
                representative = dict(members[0])
            else:
                representative = {}
                for source in sources:
                    representative = _merge_contexts(
                        representative, source.null_context())
            member_contexts = [_RowContext(m, params) for m in members]
            for slot, aggregate in unique_aggregates.items():
                representative[slot] = aggregate.compute(member_contexts)
            result.append(representative)
        return result

    # -- projection helpers -------------------------------------------------------------

    def _expand_stars(self, items: List[SelectItem],
                      sources: List[_Source]) -> List[SelectItem]:
        expanded: List[SelectItem] = []
        for item in items:
            if not isinstance(item.expression, Star):
                expanded.append(item)
                continue
            if not sources:
                raise EngineError("SELECT * requires a FROM clause")
            qualifier = None
            if item.alias and item.alias.endswith(".*"):
                qualifier = item.alias[:-2].lower()
            for source in sources:
                if qualifier is not None \
                        and source.alias.lower() != qualifier:
                    continue
                for name in source.schema.column_names:
                    ref = ColumnRef(f"{source.alias}.{name}")
                    expanded.append(SelectItem(ref, name))
        return expanded

    def _output_name(self, item: SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        expression = item.expression
        if isinstance(expression, ColumnRef):
            return expression.name.split(".")[-1]
        if isinstance(expression, AggregateCall):
            return expression.result_key().replace("__agg_", "")
        return f"column{index + 1}"
