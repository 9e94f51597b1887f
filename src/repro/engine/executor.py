"""Dispatch of parsed SQL statements.

The executor runs every statement the parser produces: DDL here, each
SELECT through ``Database._run_select`` (its compiled plan,
:mod:`repro.engine.planner`), UNION by combining its parts' results.
INSERT, UPDATE and DELETE run the plan ``Database.plan_for`` caches
per statement (:func:`~repro.engine.planner.plan_dml`): the compiled
VALUES rows, or the scan node choosing the target rows plus the
compiled SET list.  The reference interpreter the compiled plans are
tested against lives with the tests (``tests/reference.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    SelectStatement,
    UpdateStatement,
)
from repro.engine.planner import row_marker
from repro.engine.schema import TableSchema
from repro.errors import CatalogError, EngineError


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


class Executor:
    """Executes statements against a :class:`repro.engine.database.Database`."""

    def __init__(self, database):
        self._db = database

    # -- dispatch ---------------------------------------------------------------

    def execute(self, statement, params: Sequence[Any]) -> Any:
        if isinstance(statement, SelectStatement):
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
            storage = self._db.storage(statement.table)
            index = storage.add_column(statement.column)
            self._db.record_redo(
                ("add_column", statement.table, statement.column))
            self._db.invalidate_plans()
            if index is not None:
                storage.require_unique(index)
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
        if statement.name.lower() in storage.indexes:
            raise CatalogError(
                f"index {statement.name!r} already exists on "
                f"{statement.table!r}")
        index = storage.add_index(statement.name, statement.columns,
                                  unique=statement.unique)
        self._db.record_redo(
            ("create_index", statement.table, statement.name,
             list(statement.columns), statement.unique))
        self._db.invalidate_plans()
        storage.require_unique(index)
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
        self._db.detach(self._db.views.pop(key))
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
        for value_fns in self._db.plan_for(statement):
            if len(value_fns) != len(columns):
                raise EngineError(
                    f"INSERT into {statement.table}: {len(columns)} columns "
                    f"but {len(value_fns)} values")
            values = {
                column: fn((), params)
                for column, fn in zip(columns, value_fns)
            }
            row = schema.coerce_row(values)
            rowid = storage.insert(row)
            # Copy the row into the redo image: ALTER TABLE later in
            # the same transaction appends to the live list in place.
            self._db.record_redo(
                ("insert", schema.name, rowid, list(row)))
            count += 1
        return count

    def _execute_update(self, statement: UpdateStatement,
                        params: Sequence[Any]) -> int:
        storage = self._db.storage(statement.table)
        schema = storage.schema
        plan = self._db.plan_for(statement)
        assignments = plan.assignments
        targets: List[Tuple[int, List[Any]]] = []
        for rowid, row in plan.live_targets(params):
            new_row = list(row)
            for position, fn in assignments:
                new_row[position] = fn(row, params)
            targets.append((rowid, schema.coerce_row(
                dict(zip(schema.column_names, new_row)))))
        for rowid, new_row in targets:
            storage.update(rowid, new_row)
            self._db.record_redo(
                ("update", schema.name, rowid, list(new_row)))
        return len(targets)

    def _execute_delete(self, statement: DeleteStatement,
                        params: Sequence[Any]) -> int:
        storage = self._db.storage(statement.table)
        doomed = [rowid for rowid, _row
                  in self._db.plan_for(statement).live_targets(params)]
        for rowid in doomed:
            storage.delete(rowid)
            self._db.record_redo(
                ("delete", storage.schema.name, rowid))
        return len(doomed)

    # -- UNION ------------------------------------------------------------------------

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
                    marker = row_marker(row)
                    if marker not in seen:
                        seen.add(marker)
                        unique.append(row)
                rows = unique
        return ResultSet(results[0].columns, rows)
