"""SQL value types and coercion rules for the embedded engine."""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.errors import TypeMismatch


class SqlType(enum.Enum):
    """The column types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"

    @classmethod
    def from_sql(cls, name: str) -> "SqlType":
        """Resolve a SQL type name (including common aliases) to a SqlType."""
        normalized = name.strip().upper()
        alias = _TYPE_ALIASES.get(normalized)
        if alias is None:
            raise TypeMismatch(f"unknown SQL type: {name!r}")
        return alias


_TYPE_ALIASES = {
    "INTEGER": SqlType.INTEGER,
    "INT": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "SMALLINT": SqlType.INTEGER,
    "SERIAL": SqlType.INTEGER,
    "REAL": SqlType.REAL,
    "FLOAT": SqlType.REAL,
    "DOUBLE": SqlType.REAL,
    "NUMERIC": SqlType.REAL,
    "DECIMAL": SqlType.REAL,
    "TEXT": SqlType.TEXT,
    "VARCHAR": SqlType.TEXT,
    "CHAR": SqlType.TEXT,
    "STRING": SqlType.TEXT,
    "BOOLEAN": SqlType.BOOLEAN,
    "BOOL": SqlType.BOOLEAN,
    "DATE": SqlType.DATE,
    "TIMESTAMP": SqlType.TIMESTAMP,
    "DATETIME": SqlType.TIMESTAMP,
}

_PYTHON_TYPES = {
    SqlType.INTEGER: (int,),
    SqlType.REAL: (float, int),
    SqlType.TEXT: (str,),
    SqlType.BOOLEAN: (bool,),
    SqlType.DATE: (datetime.date,),
    SqlType.TIMESTAMP: (datetime.datetime,),
}


def coerce_value(value: Any, sql_type: SqlType) -> Any:
    """Coerce ``value`` to the Python representation of ``sql_type``.

    ``None`` always passes through (nullability is enforced separately by
    the schema layer).  Reasonable lossless conversions are applied —
    e.g. ``int`` widens to ``float`` for REAL columns, and ISO strings
    parse into dates/timestamps.  Anything else raises TypeMismatch.
    """
    if value is None:
        return None
    if sql_type is SqlType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatch(f"cannot store {value!r} in an INTEGER column")
    if sql_type is SqlType.REAL:
        if isinstance(value, bool):
            raise TypeMismatch(f"cannot store {value!r} in a REAL column")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeMismatch(f"cannot store {value!r} in a REAL column")
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeMismatch(f"cannot store {value!r} in a TEXT column")
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeMismatch(f"cannot store {value!r} in a BOOLEAN column")
    if sql_type is SqlType.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeMismatch(f"bad DATE literal {value!r}") from exc
        raise TypeMismatch(f"cannot store {value!r} in a DATE column")
    if sql_type is SqlType.TIMESTAMP:
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            try:
                return datetime.datetime.fromisoformat(value)
            except ValueError as exc:
                raise TypeMismatch(f"bad TIMESTAMP literal {value!r}") from exc
        raise TypeMismatch(f"cannot store {value!r} in a TIMESTAMP column")
    raise TypeMismatch(f"unsupported SQL type {sql_type!r}")  # pragma: no cover


def is_comparable(left: Any, right: Any) -> bool:
    """True when the engine defines ``<`` / ``>`` between the two values."""
    if left is None or right is None:
        return False
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return True
    return type(left) is type(right)


#: One value of each type's Python representation.
_SAMPLES = {
    SqlType.INTEGER: 0,
    SqlType.REAL: 0.0,
    SqlType.TEXT: "",
    SqlType.BOOLEAN: False,
    SqlType.DATE: datetime.date.min,
    SqlType.TIMESTAMP: datetime.datetime.min,
}


def orders_with(sql_type: SqlType, value: Any) -> bool:
    """True when ``<`` / ``>`` between ``value`` and the values a
    ``sql_type`` column stores is defined (:func:`is_comparable`)."""
    return is_comparable(value, _SAMPLES[sql_type])


def sort_key(value: Any) -> tuple:
    """Total ordering key: NULLs first, then by type group, then value."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 1, float(value))
    if isinstance(value, str):
        return (1, 2, value)
    if isinstance(value, datetime.datetime):
        return (1, 4, value.isoformat())
    if isinstance(value, datetime.date):
        return (1, 3, value.isoformat())
    return (1, 9, repr(value))
