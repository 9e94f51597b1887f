"""RS — the reporting service.

Per the paper (§3.3) the reporting service provides: (i) report-group
and report management; (ii) a BIRT module that uploads and executes
report designs; (iii) an ad-hoc module for chart reports, data-table
reports and dashboards.  All three are implemented here.  Report
groups, report designs and dashboard definitions are platform state,
persisted in the platform database, and all data flows through the
metadata service's data sets.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.analysis import dataset_columns_from_sql, lint_dashboard
from repro.core.metadata_service import MetadataService, insert_artefact
from repro.core.subscription import BillingService
from repro.core.tenancy import TenantManager
from repro.errors import ServiceError
from repro.reporting import (
    AdhocReportBuilder,
    BirtRunner,
    Dashboard,
    DashboardDefinition,
    parse_report_design,
)
from repro.reporting.birt import ReportOutput

_TABLES = (
    "CREATE TABLE rs_report_groups (tenant TEXT NOT NULL, "
    "name TEXT NOT NULL)",
    "CREATE UNIQUE INDEX rs_report_groups_name "
    "ON rs_report_groups (tenant, name)",
    "CREATE TABLE rs_reports (tenant TEXT NOT NULL, name TEXT NOT NULL, "
    "report_group TEXT NOT NULL, design TEXT NOT NULL, "
    "datasource TEXT NOT NULL)",
    "CREATE UNIQUE INDEX rs_reports_name ON rs_reports (tenant, name)",
    "CREATE TABLE rs_dashboards (tenant TEXT NOT NULL, "
    "name TEXT NOT NULL, definition TEXT NOT NULL)",
    "CREATE UNIQUE INDEX rs_dashboards_name "
    "ON rs_dashboards (tenant, name)",
)


class ReportingService:
    """BIRT-style and ad-hoc reporting per tenant."""

    def __init__(self, tenants: TenantManager,
                 metadata: MetadataService,
                 billing: Optional[BillingService] = None):
        self.tenants = tenants
        self.metadata = metadata
        self.billing = billing
        self.database = tenants.platform_db
        if "rs_report_groups" not in self.database.table_names():
            with self.database.transaction():
                for ddl in _TABLES:
                    self.database.execute(ddl)

    # -- report groups ------------------------------------------------------------------

    def create_report_group(self, tenant_id: str, name: str) -> None:
        self.tenants.require_active(tenant_id)
        insert_artefact(self.database, "report group", "rs_report_groups",
                        (tenant_id, name))

    def report_groups(self, tenant_id: str) -> List[str]:
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
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
        insert_artefact(self.database, "report", "rs_reports",
                        (tenant_id, design.name, report_group,
                         design_xml, datasource))
        return design.name

    def reports(self, tenant_id: str,
                report_group: Optional[str] = None) -> List[str]:
        self.tenants.require_active(tenant_id)
        if report_group is None:
            rows = self.database.query(
                "SELECT name FROM rs_reports WHERE tenant = ? "
                "ORDER BY name", (tenant_id,))
        else:
            rows = self.database.query(
                "SELECT name FROM rs_reports "
                "WHERE tenant = ? AND report_group = ? ORDER BY name",
                (tenant_id, report_group))
        return [row["name"] for row in rows]

    def run_report(self, tenant_id: str, name: str,
                   parameters: Optional[Dict[str, Any]] = None) \
            -> ReportOutput:
        """Execute an uploaded report under the integrated viewer."""
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
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
        shapes = self._dataset_shapes(tenant_id)
        for dataset in definition.datasets():
            if dataset not in shapes:
                raise ServiceError(
                    f"dashboard {definition.name!r} references "
                    f"unknown data set {dataset!r}")
        collector = lint_dashboard(definition, shapes,
                                   source=definition.name)
        collector.raise_if_errors(
            ServiceError,
            prefix=f"dashboard {definition.name!r} rejected")
        insert_artefact(self.database, "dashboard", "rs_dashboards",
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

    def dashboards(self, tenant_id: str) -> List[str]:
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
            "SELECT name FROM rs_dashboards WHERE tenant = ? "
            "ORDER BY name", (tenant_id,))
        return [row["name"] for row in rows]

    def render_dashboard(self, tenant_id: str,
                         name: str) -> Dashboard:
        """Re-render a stored definition from the live data sets."""
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
            "SELECT definition FROM rs_dashboards "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if not rows:
            raise ServiceError(
                f"tenant {tenant_id!r} has no dashboard {name!r}")
        definition = DashboardDefinition.from_dict(
            json.loads(rows[0]["definition"]))
        rendered = definition.render(
            lambda dataset: self.metadata.dataset_rows(
                tenant_id, dataset))
        if self.billing is not None:
            self.billing.meter(tenant_id, "dashboard", 1)
        return rendered
