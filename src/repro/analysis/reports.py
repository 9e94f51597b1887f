"""Report and dashboard validation (ODB4xx diagnostics).

Checks a :class:`~repro.reporting.definitions.DashboardDefinition`
against the columns its data sets actually produce: unknown data sets
(ODB401), chart/table specs referencing missing columns (ODB402), sort
keys outside the selected columns (ODB403), empty dashboards (ODB404)
and duplicate element names (ODB405).

Dataset shapes are described by a mapping ``dataset name -> column
names`` (``None`` marks a data set whose shape could not be inferred —
its columns are not checked).  :func:`dataset_columns_from_sql` derives
that mapping from dataset SQL via the semantic analyzer, which names
columns with the engine's own ``planner.output_name``;
``MetadataService.dataset_columns`` feeds it to this linter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.sql import SqlAnalyzer
from repro.engine.parser import parse_sql
from repro.engine.schema import Catalog
from repro.errors import EngineError
from repro.reporting.definitions import DashboardDefinition
from repro.reporting.model import ChartSpec, DataTableSpec

#: dataset name -> lowercased column names (None = shape unknown).
DatasetColumns = Dict[str, Optional[List[str]]]


def dataset_columns_from_sql(datasets: Dict[str, str],
                             catalog: Catalog,
                             views: Optional[Dict[str, Any]] = None
                             ) -> DatasetColumns:
    """Infer each dataset's output columns from its SQL.

    Queries that fail to parse or have an opaque shape map to ``None``
    — the dashboard linter then skips column-level checks for them
    (their SQL problems are reported separately by the SQL analyzer).
    """
    analyzer = SqlAnalyzer(catalog, views)
    shapes: DatasetColumns = {}
    for name, sql in datasets.items():
        try:
            columns = analyzer.output_columns(parse_sql(sql))
        except EngineError:
            shapes[name] = None
            continue
        shapes[name] = [column for column, _type in columns] \
            if columns else None
    return shapes


def lint_dashboard(definition: Any,
                   dataset_columns: DatasetColumns,
                   collector: Optional[DiagnosticCollector] = None,
                   source: Optional[str] = None) -> DiagnosticCollector:
    """Lint a dashboard definition (or its serialized dict form)."""
    collector = collector if collector is not None \
        else DiagnosticCollector(source)
    if isinstance(definition, dict):
        try:
            definition = DashboardDefinition.from_dict(definition)
        except Exception as exc:  # malformed payloads of any stripe
            collector.error("ODB404",
                            f"malformed dashboard definition: {exc}",
                            source=source)
            return collector
    rows = definition.rows
    if not rows:
        collector.warning(
            "ODB404", f"dashboard {definition.name!r} has no rows",
            source=source)
        return collector

    known = {name: ([column.lower() for column in columns]
                    if columns is not None else None)
             for name, columns in dataset_columns.items()}
    seen_names: Set[str] = set()
    for row in rows:
        for element in row:
            spec = element.spec
            label = getattr(spec, "name", "<unnamed>")
            if label in seen_names:
                collector.warning(
                    "ODB405",
                    f"dashboard {definition.name!r}: duplicate "
                    f"element name {label!r}", source=source)
            else:
                seen_names.add(label)
            if element.dataset not in known:
                collector.error(
                    "ODB401",
                    f"element {label!r} reads unknown data set "
                    f"{element.dataset!r}", source=source)
                continue
            columns = known[element.dataset]
            if columns is None:
                continue  # shape unknown; skip column checks
            _check_spec(spec, label, element.dataset, columns,
                        collector, source)
    return collector


def _check_spec(spec: Any, label: str, dataset: str,
                columns: Sequence[str], collector: DiagnosticCollector,
                source: Optional[str]) -> None:
    def require(column: Optional[str], role: str) -> None:
        if column is None:
            return
        if column.lower() not in columns:
            collector.error(
                "ODB402",
                f"element {label!r}: {role} column {column!r} is "
                f"not produced by data set {dataset!r} "
                f"(columns: {', '.join(columns)})", source=source)

    if isinstance(spec, ChartSpec):
        require(spec.category, "category")
        require(spec.value, "value")
    elif isinstance(spec, DataTableSpec):
        for column in spec.columns:
            require(column, "table")
        if spec.sort_by is not None:
            if spec.sort_by.lower() not in [
                    column.lower() for column in spec.columns]:
                collector.error(
                    "ODB403",
                    f"element {label!r}: sort column "
                    f"{spec.sort_by!r} is not among its table "
                    f"columns", source=source)
