"""The OLAP aggregation engine and its cell sets.

Queries are expressed as (measures, group-by axes, slicers) and
compiled to one SQL statement joining the fact table with the needed
dimension tables.  The engine keeps no results of its own: that
statement is a compiled ``GROUP BY``, so the database reuses its rows
while the fact and dimension tables stand still and proves them fresh
from their commit stamps at read time (DESIGN §5b invariant 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.errors import QueryError
from repro.olap.model import CubeDimension, CubeSchema

# An axis is (dimension name, level name); a slicer adds the member value.
Axis = Tuple[str, str]
Slicer = Tuple[str, str, Any]


@dataclass
class CellSet:
    """The materialized result of one cube query."""

    measures: List[str]
    axes: List[Axis]
    rows: List[Dict[str, Any]]

    def __len__(self) -> int:
        return len(self.rows)

    def axis_columns(self) -> List[str]:
        return [f"{dimension}.{level}" for dimension, level in self.axes]

    def cell(self, member_values: Sequence[Any],
             measure: str) -> Any:
        """The value of ``measure`` at the given axis member tuple.

        Lookups go through a lazily-built ``{member tuple: row}`` index
        (first match wins, like the original scan), so repeated probes
        of a large cell set are O(1).  Unhashable member values fall
        back to the linear scan.
        """
        if measure not in self.measures:
            raise QueryError(f"cell set has no measure {measure!r}")
        wanted = list(member_values)
        columns = self.axis_columns()
        if len(wanted) != len(columns):
            raise QueryError(
                f"expected {len(columns)} member values, "
                f"got {len(wanted)}")
        index = getattr(self, "_member_index", None)
        if index is None:
            index = {}
            try:
                for row in self.rows:
                    index.setdefault(
                        tuple(row[column] for column in columns), row)
            except TypeError:
                index = False  # unhashable members: always scan
            self._member_index = index
        if index is not False:
            try:
                row = index.get(tuple(wanted))
            except TypeError:
                row = None  # unhashable probe: scan below
            else:
                if row is None:
                    raise QueryError(f"no cell at {tuple(wanted)!r}")
                return row[measure]
        for row in self.rows:
            if [row[column] for column in columns] == wanted:
                return row[measure]
        raise QueryError(f"no cell at {tuple(wanted)!r}")

    def totals(self) -> Dict[str, Any]:
        """Sum of each measure over all cells (None-safe)."""
        out: Dict[str, Any] = {}
        for measure in self.measures:
            values = [row[measure] for row in self.rows
                      if row[measure] is not None]
            out[measure] = sum(values) if values else None
        return out

    def to_table(self) -> List[List[Any]]:
        """Header row + data rows, ready for the reporting renderers."""
        header = self.axis_columns() + list(self.measures)
        table = [header]
        for row in self.rows:
            table.append([row[column] for column in header])
        return table


class OlapEngine:
    """Evaluates cube queries against an embedded database."""

    def __init__(self, database: Database, schema: CubeSchema):
        schema.check_against(database)
        self.database = database
        self.schema = schema
        #: ``cache_hits`` counts queries the database answered without
        #: a scan (a reused, stamp-validated result).
        self.statistics = {"queries": 0, "cache_hits": 0}

    # -- query -------------------------------------------------------------------

    def query(self, measures: Sequence[str],
              axes: Sequence[Axis] = (),
              slicers: Sequence[Slicer] = ()) -> CellSet:
        """Aggregate ``measures`` grouped by ``axes``, filtered by ``slicers``.

        ``axes``: (dimension, level) pairs to group by.
        ``slicers``: (dimension, level, member) filters.
        """
        if not measures:
            raise QueryError("a cube query needs at least one measure")
        requested = list(measures)
        calculated = [name for name in requested
                      if self.schema.is_calculated(name)]
        base_needed: List[str] = [name for name in requested
                                  if name not in calculated]
        for name in calculated:
            for operand in self.schema.calculated_measure(name).operands:
                if operand not in base_needed:
                    base_needed.append(operand)
        measure_objs = [self.schema.measure(name)
                        for name in base_needed]
        axis_list = [(self.schema.dimension(d), level)
                     for d, level in axes]
        slicer_list = [(self.schema.dimension(d), level, member)
                       for d, level, member in slicers]
        for dimension, level in axis_list:
            dimension.level_index(level)
        for dimension, level, _member in slicer_list:
            dimension.level_index(level)

        self.statistics["queries"] += 1
        sql, params = self._compile(measure_objs, axis_list, slicer_list)
        raw = self.database.execute(sql, params)
        if raw.reused:
            self.statistics["cache_hits"] += 1
        rows: List[Dict[str, Any]] = []
        axis_names = [f"{dimension.name}.{level}"
                      for dimension, level in axis_list]
        for record in raw:
            row: Dict[str, Any] = {}
            for (dimension, level), axis_name in zip(axis_list, axis_names):
                row[axis_name] = record[f"axis_{dimension.name}_{level}"]
            base_values: Dict[str, Any] = {}
            for measure in measure_objs:
                base_values[measure.name] = record[f"m_{measure.name}"]
            for name in requested:
                if name in calculated:
                    row[name] = self.schema.calculated_measure(
                        name).evaluate(base_values)
                else:
                    row[name] = base_values[name]
            rows.append(row)
        return CellSet(
            measures=list(requested),
            axes=[(dimension.name, level)
                  for dimension, level in axis_list],
            rows=rows)

    def _compile(self, measures, axis_list, slicer_list):
        """Build the star-join SQL for one query."""
        fact = self.schema.fact_table
        joined: Dict[str, CubeDimension] = {}
        for dimension, _level in axis_list:
            joined[dimension.name] = dimension
        for dimension, _level, _member in slicer_list:
            joined[dimension.name] = dimension

        select_parts: List[str] = []
        group_parts: List[str] = []
        for dimension, level in axis_list:
            alias = f"d_{dimension.name}"
            select_parts.append(
                f"{alias}.{level} AS axis_{dimension.name}_{level}")
            group_parts.append(f"{alias}.{level}")
        for measure in measures:
            inner = f"DISTINCT f.{measure.column}" if measure.distinct \
                else f"f.{measure.column}"
            select_parts.append(
                f"{measure.sql_function}({inner}) "
                f"AS m_{measure.name}")

        sql = f"SELECT {', '.join(select_parts)} FROM {fact} f"
        for dimension in joined.values():
            alias = f"d_{dimension.name}"
            sql += (f" JOIN {dimension.table} {alias} "
                    f"ON f.{dimension.key} = {alias}.{dimension.key}")

        params: List[Any] = []
        where_parts: List[str] = []
        for dimension, level, member in slicer_list:
            alias = f"d_{dimension.name}"
            if isinstance(member, (list, tuple, set)):
                members = list(member)
                placeholders = ", ".join("?" for _ in members)
                where_parts.append(
                    f"{alias}.{level} IN ({placeholders})")
                params.extend(members)
            else:
                where_parts.append(f"{alias}.{level} = ?")
                params.append(member)
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)
        if group_parts:
            sql += " GROUP BY " + ", ".join(group_parts)
            sql += " ORDER BY " + ", ".join(group_parts)
        return sql, tuple(params)

    # -- convenience ----------------------------------------------------------------

    def members(self, dimension_name: str, level: str) -> List[Any]:
        """The distinct members of one dimension level."""
        dimension = self.schema.dimension(dimension_name)
        dimension.level_index(level)
        rows = self.database.query(
            f"SELECT DISTINCT {level} FROM {dimension.table} "
            f"ORDER BY {level}")
        return [row[level] for row in rows]

    def drill_through(self, cell_slicers: Sequence[Slicer],
                      limit: Optional[int] = None) \
            -> List[Dict[str, Any]]:
        """The underlying fact rows behind one cell.

        ``cell_slicers`` are the cell coordinates as
        (dimension, level, member) triples; returns the raw fact rows
        joined with the named dimension levels.
        """
        if not cell_slicers:
            raise QueryError("drill_through needs cell coordinates")
        slicer_list = [(self.schema.dimension(d), level, member)
                       for d, level, member in cell_slicers]
        for dimension, level, _member in slicer_list:
            dimension.level_index(level)
        joined: Dict[str, CubeDimension] = {}
        for dimension, _level, _member in slicer_list:
            joined[dimension.name] = dimension
        select_parts = ["f.*"]
        for dimension, level, _member in slicer_list:
            select_parts.append(
                f"d_{dimension.name}.{level} AS "
                f"{dimension.name.lower()}_{level}")
        sql = (f"SELECT {', '.join(select_parts)} "
               f"FROM {self.schema.fact_table} f")
        for dimension in joined.values():
            alias = f"d_{dimension.name}"
            sql += (f" JOIN {dimension.table} {alias} "
                    f"ON f.{dimension.key} = {alias}.{dimension.key}")
        params: List[Any] = []
        where_parts: List[str] = []
        for dimension, level, member in slicer_list:
            where_parts.append(f"d_{dimension.name}.{level} = ?")
            params.append(member)
        sql += " WHERE " + " AND ".join(where_parts)
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return self.database.query(sql, tuple(params))

    def grand_total(self, measure: str) -> Any:
        """The all-cube aggregate of one measure."""
        cell_set = self.query([measure])
        if not cell_set.rows:
            return None
        return cell_set.rows[0][measure]
