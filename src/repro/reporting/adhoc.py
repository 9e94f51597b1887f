"""Ad-hoc reporting: build charts, tables and dashboards from rows.

"An ad-hoc reporting module which offers an easy way to define chart
reports, data-table reports and to build dashboards" (paper §3.3).
The builder consumes plain row dictionaries — typically a DataSet from
the metadata service or a cube cell set — and materializes report
elements.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReportDefinitionError
from repro.reporting.model import (
    ChartSpec,
    Dashboard,
    DataTableSpec,
    RenderedChart,
    RenderedTable,
)

Row = Dict[str, Any]


class AdhocReportBuilder:
    """Materializes report elements from a row set."""

    def __init__(self, rows: Sequence[Row]):
        self.rows = [dict(row) for row in rows]

    # -- charts -------------------------------------------------------------------

    def chart(self, spec: ChartSpec) -> RenderedChart:
        """Aggregate ``spec.value`` per ``spec.category`` member."""
        groups: Dict[Any, List[Any]] = {}
        order: List[Any] = []
        for row in self.rows:
            if spec.category not in row:
                raise ReportDefinitionError(
                    f"chart {spec.name!r}: rows lack category column "
                    f"{spec.category!r}")
            key = row[spec.category]
            if key not in groups:
                groups[key] = []
                order.append(key)
            value = row.get(spec.value)
            if value is not None:
                groups[key].append(value)
        series: List[Tuple[Any, Any]] = []
        for key in order:
            values = groups[key]
            if spec.aggregator == "count":
                aggregated: Any = len(values)
            elif not values:
                aggregated = None
            elif spec.aggregator == "sum":
                aggregated = sum(values)
            elif spec.aggregator == "avg":
                aggregated = sum(values) / len(values)
            elif spec.aggregator == "min":
                aggregated = min(values)
            else:
                aggregated = max(values)
            series.append((key, aggregated))
        return RenderedChart(spec, series)

    def bar_chart(self, name: str, category: str, value: str,
                  aggregator: str = "sum") -> RenderedChart:
        return self.chart(ChartSpec(name, "bar", category, value,
                                    aggregator))

    def pie_chart(self, name: str, category: str, value: str,
                  aggregator: str = "sum") -> RenderedChart:
        return self.chart(ChartSpec(name, "pie", category, value,
                                    aggregator))

    # -- tables -------------------------------------------------------------------

    def table(self, spec: DataTableSpec) -> RenderedTable:
        missing = [column for column in spec.columns
                   if self.rows and column not in self.rows[0]]
        if missing:
            raise ReportDefinitionError(
                f"table {spec.name!r}: rows lack column {missing[0]!r}")
        rows = [
            {column: row.get(column) for column in spec.columns}
            for row in self.rows
        ]
        if spec.sort_by is not None:
            if spec.sort_by not in spec.columns:
                raise ReportDefinitionError(
                    f"table {spec.name!r}: sort column "
                    f"{spec.sort_by!r} is not in the table")
            present = [row for row in rows
                       if row[spec.sort_by] is not None]
            absent = [row for row in rows if row[spec.sort_by] is None]
            present.sort(key=lambda row: row[spec.sort_by],
                         reverse=spec.descending)
            rows = present + absent  # NULLs always sort last
        if spec.limit is not None:
            rows = rows[:spec.limit]
        return RenderedTable(spec, rows)

    def data_table(self, name: str, columns: Sequence[str],
                   sort_by: Optional[str] = None,
                   descending: bool = False,
                   limit: Optional[int] = None) -> RenderedTable:
        return self.table(DataTableSpec(
            name, list(columns), sort_by, descending, limit))
