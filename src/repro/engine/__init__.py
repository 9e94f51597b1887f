"""Embedded relational database engine.

This package is the reproduction's stand-in for PostgreSQL in the ODBIS
technical-resources layer (paper Fig. 5).  It implements a useful subset
of SQL end-to-end: a tokenizer and recursive-descent parser, a logical
planner, an iterator-model executor, hash and sorted indexes, and
undo-log transactions — all against an in-memory row store with optional
snapshot persistence.

Quickstart::

    from repro.engine import Database

    db = Database("demo")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
    db.execute("INSERT INTO t (id, name) VALUES (?, ?)", (1, "ada"))
    rows = db.query("SELECT name FROM t WHERE id = 1")
    assert rows[0]["name"] == "ada"
"""

from repro.engine.database import Database, ResultSet
from repro.engine.locking import WriterLock
from repro.engine.parser import parse_sql
from repro.engine.schema import (
    Catalog,
    Column,
    ColumnType,
    TableSchema,
    make_schema,
)
from repro.engine.types import SqlType
from repro.engine.wal import JournalLog, WriteAheadLog

__all__ = [
    "Catalog",
    "Column",
    "ColumnType",
    "Database",
    "JournalLog",
    "ResultSet",
    "SqlType",
    "TableSchema",
    "WriteAheadLog",
    "WriterLock",
    "make_schema",
    "parse_sql",
]
