"""MDX-lite: a small multidimensional query language.

Grammar (case-insensitive keywords)::

    SELECT {[Measures].[revenue], [Measures].[quantity]} ON COLUMNS,
           {[Time].[year].Members} ON ROWS
    FROM [Sales]
    WHERE ([Store].[region].[North], [Product].[category].[Food])

COLUMNS must hold measures; ROWS holds dimension levels whose members
are expanded (``.Members``) or enumerated explicitly
(``[Time].[year].[2020], [Time].[year].[2021]`` — compiled to a dice
slicer); the WHERE tuple holds slicer members.  The parser builds an
:class:`MdxQuery` which executes through an :class:`OlapEngine`.

A parse depends on the text alone, so :func:`parse_mdx` remembers it
per distinct text and hands every caller the same immutable
:class:`MdxQuery`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Tuple

from repro.engine.database import STATEMENT_CACHE_CAPACITY
from repro.errors import MdxSyntaxError, QueryError
from repro.olap.engine import CellSet, OlapEngine

_BRACKETED = re.compile(r"\[([^\]]*)\]")


@dataclass(frozen=True)
class MdxQuery:
    """The parsed form of an MDX-lite statement (shared, so frozen)."""

    cube: str
    measures: Tuple[str, ...]
    row_axes: Tuple[Tuple[str, str], ...] = ()
    slicers: Tuple[Tuple[str, str, Any], ...] = ()

    def execute(self, engine: OlapEngine) -> CellSet:
        if engine.schema.name != self.cube:
            raise QueryError(
                f"query targets cube {self.cube!r} but engine holds "
                f"{engine.schema.name!r}")
        slicers = [
            (dimension, level,
             _coerce_member(engine, dimension, level, member))
            for dimension, level, member in self.slicers
        ]
        return engine.query(self.measures, self.row_axes, slicers)


def _coerce_member(engine: OlapEngine, dimension: str, level: str,
                   member: Any) -> Any:
    """Map MDX text literals onto the level's actual member values.

    MDX writes every member as text (``[Time].[year].[2020]``); when
    the underlying level column is numeric the literal must be coerced
    to the real member value before slicing.
    """
    actual = {str(value): value
              for value in engine.members(dimension, level)}
    if isinstance(member, (list, tuple)):
        return [actual.get(str(entry), entry) for entry in member]
    return actual.get(str(member), member)


def _split_top_level(text: str, separator: str = ",") -> List[str]:
    """Split on separators that are not inside brackets or parens."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == separator and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _segments(member_path: str) -> List[str]:
    """``[Time].[year].Members`` -> ['Time', 'year', 'Members']."""
    found = _BRACKETED.findall(member_path)
    trailing = member_path.rsplit(".", 1)
    if trailing[-1].strip().lower() == "members":
        found.append("Members")
    return found


@lru_cache(maxsize=STATEMENT_CACHE_CAPACITY)
def parse_mdx(text: str) -> MdxQuery:
    """Parse an MDX-lite statement into an :class:`MdxQuery`.

    Remembered per distinct text, bounded like the engine's statement
    cache (``parse_mdx.cache_info()`` counts the parses as misses).  A
    syntax error is raised on every call and never remembered.
    """
    source = " ".join(text.split())
    match = re.match(
        r"(?is)^SELECT\s+(?P<axes>.+?)\s+FROM\s+\[(?P<cube>[^\]]+)\]"
        r"(?:\s+WHERE\s+\((?P<where>.+)\))?\s*;?\s*$",
        source)
    if match is None:
        raise MdxSyntaxError(
            "expected SELECT ... FROM [Cube] [WHERE (...)]")
    cube = match.group("cube")

    measures: List[str] = []
    row_axes: List[Tuple[str, str]] = []
    slicers_from_rows: List[Tuple[str, str, Any]] = []
    axes_seen = set()
    for axis_text in _split_top_level(match.group("axes")):
        axis_match = re.match(
            r"(?is)^\{(?P<set>.*)\}\s+ON\s+(?P<axis>COLUMNS|ROWS)$",
            axis_text.strip())
        if axis_match is None:
            raise MdxSyntaxError(
                f"cannot parse axis clause: {axis_text!r}")
        axis_name = axis_match.group("axis").upper()
        if axis_name in axes_seen:
            raise MdxSyntaxError(f"duplicate axis {axis_name}")
        axes_seen.add(axis_name)
        entries = _split_top_level(axis_match.group("set"))
        if axis_name == "COLUMNS":
            for entry in entries:
                segments = _segments(entry)
                if len(segments) != 2 \
                        or segments[0].lower() != "measures":
                    raise MdxSyntaxError(
                        f"COLUMNS entries must be "
                        f"[Measures].[name], got {entry!r}")
                measures.append(segments[1])
        else:
            explicit: dict = {}
            for entry in entries:
                segments = _segments(entry)
                if len(segments) == 3 and segments[2] == "Members":
                    row_axes.append((segments[0], segments[1]))
                elif len(segments) == 3:
                    axis = (segments[0], segments[1])
                    if axis not in row_axes:
                        row_axes.append(axis)
                    explicit.setdefault(axis, []).append(segments[2])
                else:
                    raise MdxSyntaxError(
                        f"ROWS entries must be [Dim].[level].Members "
                        f"or [Dim].[level].[member], got {entry!r}")
            for (dimension, level), members in explicit.items():
                slicers_from_rows.append(
                    (dimension, level, tuple(members)))
    if not measures:
        raise MdxSyntaxError("the query selects no measures on COLUMNS")

    slicers: List[Tuple[str, str, Any]] = list(slicers_from_rows)
    where = match.group("where")
    if where:
        for entry in _split_top_level(where):
            segments = _segments(entry)
            if len(segments) != 3:
                raise MdxSyntaxError(
                    f"WHERE entries must be [Dim].[level].[member], "
                    f"got {entry!r}")
            slicers.append((segments[0], segments[1], segments[2]))
    return MdxQuery(cube=cube, measures=tuple(measures),
                    row_axes=tuple(row_axes), slicers=tuple(slicers))
