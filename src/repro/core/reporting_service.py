"""RS — the reporting service.

Per the paper (§3.3) the reporting service provides: (i) report-group
and report management; (ii) a BIRT module that uploads and executes
report designs; (iii) an ad-hoc module for chart reports, data-table
reports and dashboards.  All three are implemented here, with report
designs persisted in the tenant's operational database and all data
flowing through the metadata service's data sets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis import dataset_columns_from_sql, lint_dashboard
from repro.core.metadata_service import MetadataService, ensure_tables
from repro.core.subscription import BillingService
from repro.core.tenancy import TenantManager
from repro.engine.database import Database
from repro.errors import ServiceError
import json

from repro.reporting import (
    AdhocReportBuilder,
    BirtRunner,
    Dashboard,
    DashboardDefinition,
    parse_report_design,
)
from repro.reporting.birt import ReportOutput

_TABLES = (
    ("rs_report_groups",
     "CREATE TABLE IF NOT EXISTS rs_report_groups ("
     "tenant TEXT NOT NULL, name TEXT NOT NULL)"),
    ("rs_reports",
     "CREATE TABLE IF NOT EXISTS rs_reports ("
     "tenant TEXT NOT NULL, report_group TEXT NOT NULL, "
     "name TEXT NOT NULL, design TEXT NOT NULL, "
     "datasource TEXT NOT NULL)"),
    ("rs_dashboards",
     "CREATE TABLE IF NOT EXISTS rs_dashboards ("
     "tenant TEXT NOT NULL, name TEXT NOT NULL, "
     "definition TEXT NOT NULL)"),
)


class ReportingService:
    """BIRT-style and ad-hoc reporting per tenant."""

    def __init__(self, tenants: TenantManager,
                 metadata: MetadataService,
                 billing: Optional[BillingService] = None):
        self.tenants = tenants
        self.metadata = metadata
        self.billing = billing
        self._dashboards: Dict[tuple, Dashboard] = {}

    def _db(self, tenant_id: str) -> Database:
        context = self.tenants.require_active(tenant_id)
        database = context.operational_db
        ensure_tables(database, _TABLES)
        return database

    # -- report groups ------------------------------------------------------------------

    def create_report_group(self, tenant_id: str, name: str) -> None:
        database = self._db(tenant_id)
        existing = database.query(
            "SELECT name FROM rs_report_groups "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if existing:
            raise ServiceError(
                f"tenant {tenant_id!r} already has report group "
                f"{name!r}")
        database.execute(
            "INSERT INTO rs_report_groups VALUES (?, ?)",
            (tenant_id, name))

    def report_groups(self, tenant_id: str) -> List[str]:
        database = self._db(tenant_id)
        rows = database.query(
            "SELECT name FROM rs_report_groups WHERE tenant = ? "
            "ORDER BY name", (tenant_id,))
        return [row["name"] for row in rows]

    # -- BIRT-style reports --------------------------------------------------------------

    def upload_report(self, tenant_id: str, report_group: str,
                      design_xml: str, datasource: str) -> str:
        """Upload a report design; returns the report name."""
        if report_group not in self.report_groups(tenant_id):
            raise ServiceError(
                f"tenant {tenant_id!r} has no report group "
                f"{report_group!r}")
        self.metadata.resolve_datasource(tenant_id, datasource)
        design = parse_report_design(design_xml)  # validates
        database = self._db(tenant_id)
        existing = database.query(
            "SELECT name FROM rs_reports "
            "WHERE tenant = ? AND name = ?", (tenant_id, design.name))
        if existing:
            raise ServiceError(
                f"tenant {tenant_id!r} already has report "
                f"{design.name!r}")
        database.execute(
            "INSERT INTO rs_reports VALUES (?, ?, ?, ?, ?)",
            (tenant_id, report_group, design.name, design_xml,
             datasource))
        return design.name

    def reports(self, tenant_id: str,
                report_group: Optional[str] = None) -> List[str]:
        database = self._db(tenant_id)
        if report_group is None:
            rows = database.query(
                "SELECT name FROM rs_reports WHERE tenant = ? "
                "ORDER BY name", (tenant_id,))
        else:
            rows = database.query(
                "SELECT name FROM rs_reports "
                "WHERE tenant = ? AND report_group = ? ORDER BY name",
                (tenant_id, report_group))
        return [row["name"] for row in rows]

    def run_report(self, tenant_id: str, name: str,
                   parameters: Optional[Dict[str, Any]] = None) \
            -> ReportOutput:
        """Execute an uploaded report under the integrated viewer."""
        database = self._db(tenant_id)
        rows = database.query(
            "SELECT design, datasource FROM rs_reports "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if not rows:
            raise ServiceError(
                f"tenant {tenant_id!r} has no report {name!r}")
        design = parse_report_design(rows[0]["design"])
        target = self.metadata.resolve_datasource(
            tenant_id, rows[0]["datasource"])
        output = BirtRunner(target).run(design, parameters)
        if self.billing is not None:
            self.billing.meter(tenant_id, "report", 1)
        return output

    # -- ad-hoc reporting ----------------------------------------------------------------

    def adhoc_builder(self, tenant_id: str,
                      dataset: str) -> AdhocReportBuilder:
        """An ad-hoc builder over a metadata-service data set."""
        rows = self.metadata.dataset_rows(tenant_id, dataset)
        if self.billing is not None:
            self.billing.meter(tenant_id, "query", 1)
        return AdhocReportBuilder(rows)

    def define_dashboard(self, tenant_id: str,
                         definition: DashboardDefinition) -> None:
        """Persist a dashboard definition (re-rendered on access).

        The definition is linted against the output columns of the
        tenant's data sets and rejected when any element reads an
        unknown data set or a column its data set does not produce.
        """
        if not definition.rows:
            raise ServiceError(
                f"dashboard {definition.name!r} has no rows")
        for dataset in definition.datasets():
            known = {entry["name"]
                     for entry in self.metadata.datasets(tenant_id)}
            if dataset not in known:
                raise ServiceError(
                    f"dashboard {definition.name!r} references "
                    f"unknown data set {dataset!r}")
        collector = lint_dashboard(
            definition, self._dataset_shapes(tenant_id),
            source=definition.name)
        collector.raise_if_errors(
            ServiceError,
            prefix=f"dashboard {definition.name!r} rejected")
        database = self._db(tenant_id)
        existing = database.query(
            "SELECT name FROM rs_dashboards "
            "WHERE tenant = ? AND name = ?",
            (tenant_id, definition.name))
        if existing:
            raise ServiceError(
                f"tenant {tenant_id!r} already has dashboard "
                f"definition {definition.name!r}")
        database.execute(
            "INSERT INTO rs_dashboards VALUES (?, ?, ?)",
            (tenant_id, definition.name,
             json.dumps(definition.to_dict())))

    def _dataset_shapes(self, tenant_id: str) -> Dict[str, Any]:
        """Output columns of each tenant data set (None = unknown)."""
        shapes: Dict[str, Any] = {}
        for record in self.metadata.datasets(tenant_id):
            target = self.metadata.resolve_datasource(
                tenant_id, record["datasource"])
            shapes.update(dataset_columns_from_sql(
                {record["name"]: record["sql"]},
                target.catalog, target.views))
        return shapes

    def dashboard_definitions(self, tenant_id: str) -> List[str]:
        database = self._db(tenant_id)
        rows = database.query(
            "SELECT name FROM rs_dashboards WHERE tenant = ? "
            "ORDER BY name", (tenant_id,))
        return [row["name"] for row in rows]

    def render_dashboard(self, tenant_id: str,
                         name: str) -> Dashboard:
        """Re-render a stored definition from the live data sets."""
        database = self._db(tenant_id)
        rows = database.query(
            "SELECT definition FROM rs_dashboards "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if not rows:
            raise ServiceError(
                f"tenant {tenant_id!r} has no dashboard definition "
                f"{name!r}")
        definition = DashboardDefinition.from_dict(
            json.loads(rows[0]["definition"]))
        rendered = definition.render(
            lambda dataset: self.metadata.dataset_rows(
                tenant_id, dataset))
        if self.billing is not None:
            self.billing.meter(tenant_id, "dashboard", 1)
        return rendered

    def save_dashboard(self, tenant_id: str,
                       dashboard: Dashboard) -> None:
        self.tenants.require_active(tenant_id)
        key = (tenant_id, dashboard.name)
        if key in self._dashboards:
            raise ServiceError(
                f"tenant {tenant_id!r} already has dashboard "
                f"{dashboard.name!r}")
        self._dashboards[key] = dashboard
        if self.billing is not None:
            self.billing.meter(tenant_id, "dashboard", 1)

    def dashboards(self, tenant_id: str) -> List[str]:
        return sorted(name for (tenant, name) in self._dashboards
                      if tenant == tenant_id)

    def dashboard(self, tenant_id: str, name: str) -> Dashboard:
        dashboard = self._dashboards.get((tenant_id, name))
        if dashboard is None:
            raise ServiceError(
                f"tenant {tenant_id!r} has no dashboard {name!r}")
        return dashboard
