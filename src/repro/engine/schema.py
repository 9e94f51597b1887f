"""Schema objects (columns, tables) and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.engine.types import SqlType, coerce_value
from repro.errors import CatalogError, ConstraintViolation

# ``ColumnType`` is the public alias used throughout the library.
ColumnType = SqlType

#: A stored text this short is interned: a tenant, a status or a
#: category repeats across rows, and one string then serves them all
#: (an interned string is freed with its last row).
SHARED_TEXT_LENGTH = 16


@dataclass
class Column:
    """One column of a table schema."""

    name: str
    type: SqlType
    nullable: bool = True
    primary_key: bool = False
    unique: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if self.primary_key:
            self.nullable = False
            self.unique = True
        if self.default is not None:
            self.default = coerce_value(self.default, self.type)


class TableSchema:
    """The definition of a table: ordered columns plus constraints."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen = set()
        for column in columns:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}")
            seen.add(key)
        self.name = name
        self.columns: List[Column] = list(columns)
        self._by_name: Dict[str, int] = {
            column.name.lower(): index
            for index, column in enumerate(self.columns)
        }
        self.primary_key: List[str] = [
            column.name for column in self.columns if column.primary_key
        ]

    def __repr__(self) -> str:
        names = ", ".join(column.name for column in self.columns)
        return f"TableSchema({self.name!r}: {names})"

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        index = self._by_name.get(name.lower())
        if index is None:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}")
        return self.columns[index]

    def column_index(self, name: str) -> int:
        index = self._by_name.get(name.lower())
        if index is None:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}")
        return index

    def add_column(self, column: Column) -> None:
        """Append a column (ALTER TABLE ADD COLUMN support)."""
        key = column.name.lower()
        if key in self._by_name:
            raise CatalogError(
                f"table {self.name!r} already has column {column.name!r}")
        if column.primary_key:
            raise CatalogError(
                "cannot add a primary-key column to an existing table")
        self._by_name[key] = len(self.columns)
        self.columns.append(column)

    def coerce_row(self, values: Dict[str, Any]) -> List[Any]:
        """Build a full storage row from a column->value mapping.

        Missing columns take their default (or NULL).  Values are coerced
        to the column type; NOT NULL violations raise ConstraintViolation.
        """
        unknown = [key for key in values if not self.has_column(key)]
        if unknown:
            raise CatalogError(
                f"table {self.name!r} has no column {unknown[0]!r}")
        # Sized up front: a stored row holds exactly its columns, with
        # no append growth slack (rows are the bulk of a table).
        row: List[Any] = [None] * len(self.columns)
        provided = {key.lower(): value for key, value in values.items()}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in provided:
                value = coerce_value(provided[key], column.type)
                if value.__class__ is str \
                        and len(value) <= SHARED_TEXT_LENGTH:
                    value = intern(value)
            else:
                value = column.default
            if value is None and not column.nullable:
                raise ConstraintViolation(
                    f"column {self.name}.{column.name} is NOT NULL")
            row[position] = value
        return row


class Catalog:
    """The set of tables (and their indexes) known to one database."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSchema] = {}

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def add_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no such table: {name!r}")
        del self._tables[key]

    def table(self, name: str) -> TableSchema:
        schema = self._tables.get(name.lower())
        if schema is None:
            raise CatalogError(f"no such table: {name!r}")
        return schema

    def __iter__(self) -> Iterable[TableSchema]:
        return iter(self._tables.values())


def make_schema(name: str,
                column_specs: Sequence[tuple],
                primary_key: Optional[str] = None) -> TableSchema:
    """Convenience constructor used by higher layers and tests.

    ``column_specs`` is a sequence of ``(name, type_name)`` or
    ``(name, type_name, nullable)`` tuples.
    """
    columns = []
    for spec in column_specs:
        if len(spec) == 2:
            col_name, type_name = spec
            nullable = True
        else:
            col_name, type_name, nullable = spec
        columns.append(Column(
            name=col_name,
            type=SqlType.from_sql(type_name),
            nullable=nullable,
            primary_key=(primary_key is not None
                         and col_name.lower() == primary_key.lower()),
        ))
    return TableSchema(name, columns)
