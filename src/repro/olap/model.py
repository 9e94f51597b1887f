"""Cube schemas: the OLAP view over a relational star schema.

A :class:`CubeSchema` names a fact table, its measures (numeric fact
columns with aggregators) and its dimensions (dimension tables joined
through key columns, each with an ordered list of levels from coarsest
to finest).  Definitions can also be loaded from the dictionaries the
MDA code generator emits, closing the model-driven loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.database import Database
from repro.engine.schema import Catalog
from repro.errors import CubeDefinitionError

_AGGREGATORS = {"sum": "SUM", "avg": "AVG", "min": "MIN",
                "max": "MAX", "count": "COUNT",
                "count_distinct": "COUNT"}


@dataclass
class Measure:
    """A numeric fact with its SQL aggregator."""

    name: str
    column: str
    aggregator: str = "sum"

    def __post_init__(self) -> None:
        if self.aggregator not in _AGGREGATORS:
            raise CubeDefinitionError(
                f"measure {self.name!r}: unknown aggregator "
                f"{self.aggregator!r}")

    @property
    def sql_function(self) -> str:
        return _AGGREGATORS[self.aggregator]

    @property
    def distinct(self) -> bool:
        return self.aggregator == "count_distinct"


@dataclass
class CalculatedMeasure:
    """A measure derived from base measures after aggregation.

    ``formula`` is evaluated per cell with the base measures bound by
    name, e.g. ``CalculatedMeasure("avg_ticket", "revenue / quantity",
    ["revenue", "quantity"])``.  Division by zero yields NULL.
    """

    name: str
    formula: str
    operands: List[str]

    def __post_init__(self) -> None:
        if not self.operands:
            raise CubeDefinitionError(
                f"calculated measure {self.name!r} needs operands")
        import ast

        try:
            tree = ast.parse(self.formula, mode="eval")
        except SyntaxError as exc:
            raise CubeDefinitionError(
                f"calculated measure {self.name!r}: bad formula "
                f"{self.formula!r}") from exc
        allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Name,
                   ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div,
                   ast.USub, ast.Load)
        for node in ast.walk(tree):
            if not isinstance(node, allowed):
                raise CubeDefinitionError(
                    f"calculated measure {self.name!r}: "
                    f"{type(node).__name__} not allowed in formula")
            if isinstance(node, ast.Name)                     and node.id not in self.operands:
                raise CubeDefinitionError(
                    f"calculated measure {self.name!r}: unknown "
                    f"operand {node.id!r}")
        self._tree = tree

    def evaluate(self, values: Dict[str, Any]) -> Any:
        import ast

        def walk(node):
            if isinstance(node, ast.Expression):
                return walk(node.body)
            if isinstance(node, ast.Constant):
                return node.value
            if isinstance(node, ast.Name):
                return values.get(node.id)
            if isinstance(node, ast.UnaryOp):
                operand = walk(node.operand)
                return None if operand is None else -operand
            left = walk(node.left)
            right = walk(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if right == 0:
                return None  # NULL on division by zero
            return left / right

        return walk(self._tree)


@dataclass
class CubeDimension:
    """A dimension joined to the fact table through a key column.

    ``key`` is the column name used both as the foreign key in the fact
    table and as the primary key of the dimension table.  ``levels``
    are dimension-table columns ordered coarsest → finest.
    """

    name: str
    table: str
    key: str
    levels: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            raise CubeDefinitionError(
                f"dimension {self.name!r} needs at least one level")

    def level_index(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError as exc:
            raise CubeDefinitionError(
                f"dimension {self.name!r} has no level {level!r}; "
                f"levels are {self.levels}") from exc


class CubeSchema:
    """An OLAP cube definition over a star schema."""

    def __init__(self, name: str, fact_table: str,
                 measures: Sequence[Measure],
                 dimensions: Sequence[CubeDimension],
                 calculated: Sequence[CalculatedMeasure] = ()):
        if not measures:
            raise CubeDefinitionError(
                f"cube {name!r} needs at least one measure")
        if not dimensions:
            raise CubeDefinitionError(
                f"cube {name!r} needs at least one dimension")
        self.name = name
        self.fact_table = fact_table
        self.measures = list(measures)
        self.dimensions = list(dimensions)
        self.calculated = list(calculated)
        self._measures_by_name = {m.name: m for m in self.measures}
        self._calculated_by_name = {c.name: c for c in self.calculated}
        self._dimensions_by_name = {d.name: d for d in self.dimensions}
        overlap = set(self._measures_by_name) \
            & set(self._calculated_by_name)
        if overlap:
            raise CubeDefinitionError(
                f"cube {name!r}: {sorted(overlap)} defined both as "
                f"base and calculated measures")
        for calc in self.calculated:
            for operand in calc.operands:
                if operand not in self._measures_by_name:
                    raise CubeDefinitionError(
                        f"calculated measure {calc.name!r} references "
                        f"unknown base measure {operand!r}")
        if len(self._measures_by_name) != len(self.measures):
            raise CubeDefinitionError(
                f"cube {name!r} has duplicate measure names")
        if len(self._dimensions_by_name) != len(self.dimensions):
            raise CubeDefinitionError(
                f"cube {name!r} has duplicate dimension names")

    def __repr__(self) -> str:
        return (f"<CubeSchema {self.name!r} fact={self.fact_table} "
                f"dims={[d.name for d in self.dimensions]}>")

    def measure(self, name: str) -> Measure:
        measure = self._measures_by_name.get(name)
        if measure is None:
            raise CubeDefinitionError(
                f"cube {self.name!r} has no measure {name!r}")
        return measure

    def dimension(self, name: str) -> CubeDimension:
        dimension = self._dimensions_by_name.get(name)
        if dimension is None:
            raise CubeDefinitionError(
                f"cube {self.name!r} has no dimension {name!r}")
        return dimension

    def measure_names(self) -> List[str]:
        return [measure.name for measure in self.measures]

    def calculated_measure(self, name: str) -> "CalculatedMeasure":
        calc = self._calculated_by_name.get(name)
        if calc is None:
            raise CubeDefinitionError(
                f"cube {self.name!r} has no calculated measure "
                f"{name!r}")
        return calc

    def is_calculated(self, name: str) -> bool:
        return name in self._calculated_by_name

    # -- integration with the MDA code generator --------------------------------

    @classmethod
    def from_definition(cls, definition: Dict[str, Any]) -> "CubeSchema":
        """Build a schema from a codegen ``cube_definitions`` entry."""
        try:
            measures = [
                Measure(entry["name"], entry["column"],
                        entry.get("aggregator", "sum"))
                for entry in definition["measures"]
            ]
            dimensions = [
                CubeDimension(entry["name"], entry["table"],
                              entry["key"], list(entry["levels"]))
                for entry in definition["dimensions"]
            ]
            calculated = [
                CalculatedMeasure(entry["name"], entry["formula"],
                                  list(entry["operands"]))
                for entry in definition.get("calculated", [])
            ]
            return cls(definition["name"], definition["fact_table"],
                       measures, dimensions, calculated)
        except KeyError as exc:
            raise CubeDefinitionError(
                f"cube definition is missing key {exc}") from exc

    # -- validation against a physical database ------------------------------------

    def validate_against(self, catalog: Catalog) -> List[str]:
        """Check that the star schema exists in ``catalog``; returns
        problems."""
        problems: List[str] = []
        if not catalog.has_table(self.fact_table):
            problems.append(f"missing fact table {self.fact_table!r}")
            return problems
        fact_schema = catalog.table(self.fact_table)
        for measure in self.measures:
            if not fact_schema.has_column(measure.column):
                problems.append(
                    f"fact table lacks measure column {measure.column!r}")
        for dimension in self.dimensions:
            if not fact_schema.has_column(dimension.key):
                problems.append(
                    f"fact table lacks key column {dimension.key!r} "
                    f"for dimension {dimension.name!r}")
            if not catalog.has_table(dimension.table):
                problems.append(
                    f"missing dimension table {dimension.table!r}")
                continue
            dim_schema = catalog.table(dimension.table)
            if not dim_schema.has_column(dimension.key):
                problems.append(
                    f"dimension table {dimension.table!r} lacks key "
                    f"column {dimension.key!r}")
            for level in dimension.levels:
                if not dim_schema.has_column(level):
                    problems.append(
                        f"dimension table {dimension.table!r} lacks "
                        f"level column {level!r}")
        return problems

    def check_against(self, database: Database) -> None:
        problems = self.validate_against(database.catalog)
        if problems:
            raise CubeDefinitionError("; ".join(problems))
