"""Tenant provisioning: on-boarding a customer across every layer."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis import (
    DiagnosticCollector,
    analyze_script,
    dataset_columns_from_sql,
    lint_cube_schema,
    lint_dashboard,
    lint_model,
    lint_rules,
)
from repro.core.admin_service import AdminService
from repro.core.metadata_service import MetadataService
from repro.core.resources import TechnicalResourcesLayer
from repro.core.subscription import BillingService
from repro.core.tenancy import TenantContext, TenantManager
from repro.errors import ProvisioningError

#: artifact kinds register_artifact() knows how to validate.
ARTIFACT_KINDS = ("sql", "rules", "model", "dashboard", "cube")


class ProvisioningService:
    """Creates everything a new tenant needs to start working."""

    def __init__(self, tenants: TenantManager,
                 resources: TechnicalResourcesLayer,
                 billing: BillingService,
                 admin: AdminService,
                 metadata: MetadataService):
        self.tenants = tenants
        self.resources = resources
        self.billing = billing
        self.admin = admin
        self.metadata = metadata
        self.provision_log: List[Dict[str, Any]] = []
        self.artifact_log: List[Dict[str, Any]] = []

    def provision(self, tenant_id: str, display_name: str,
                  plan: str = "starter",
                  admin_username: Optional[str] = None,
                  admin_password: str = "changeme",
                  exist_ok: bool = False) -> TenantContext:
        """On-board one tenant across all platform layers.

        Steps: validate the plan, register the tenancy, attach the
        warehouse database to the technical-resources layer, register
        the default data source, and create the tenant-admin account.

        ``exist_ok=True`` is the crash-recovery replay mode: the
        tenant's recovered databases may already hold the datasource
        row and the admin account (they were WAL-committed before the
        crash), so those steps are skipped instead of failing.
        """
        self.billing.plan(plan)  # unknown plan fails before any change
        context = self.tenants.register(tenant_id, display_name, plan)
        steps: List[str] = ["tenancy-registered"]

        self.resources.register_database(
            tenant_id, "warehouse", context.warehouse_db)
        steps.append("warehouse-attached")

        existing_sources = ()
        if exist_ok:
            existing_sources = [source["name"] for source in
                                self.metadata.datasources(tenant_id)]
        if "warehouse" not in existing_sources:
            self.metadata.create_datasource(
                tenant_id, "warehouse", "repro://warehouse")
            steps.append("default-datasource")

        username = admin_username or f"admin@{tenant_id}"
        if not (exist_ok and
                self.admin.security.find_user(username) is not None):
            self.admin.create_account(
                username, admin_password, tenant=tenant_id,
                roles=["tenant-admin"])
            steps.append("admin-account")

        self.resources.publish_event(tenant_id, "provisioned",
                                     display_name)
        self.provision_log.append({
            "tenant": tenant_id,
            "plan": plan,
            "steps": steps,
        })
        return context

    # -- artifact registration -------------------------------------------------

    def register_artifact(self, tenant_id: str, kind: str,
                          payload: Any, *,
                          name: Optional[str] = None,
                          database: str = "warehouse"
                          ) -> DiagnosticCollector:
        """Statically validate and record one tenant artifact.

        ``kind`` is one of :data:`ARTIFACT_KINDS`; ``payload`` is the
        artifact itself (SQL/rule text, a model extent, a dashboard
        definition or a cube definition dict).  Any *error*-level
        diagnostic rejects the artifact with a
        :class:`~repro.errors.ProvisioningError`; warnings are returned
        to the caller in the collector.
        """
        self.tenants.require_active(tenant_id)
        if kind not in ARTIFACT_KINDS:
            raise ProvisioningError(
                f"unknown artifact kind {kind!r}; expected one of "
                f"{', '.join(ARTIFACT_KINDS)}")
        label = name or f"{kind}-artifact"
        collector = DiagnosticCollector(label)
        target = self.resources.database(tenant_id, database)

        if kind == "sql":
            analyze_script(payload, target.catalog, collector,
                           source=label, views=dict(target.views))
        elif kind == "rules":
            lint_rules(payload, collector, source=label)
        elif kind == "model":
            lint_model(payload, collector, source=label)
        elif kind == "dashboard":
            shapes = self._dataset_shapes(tenant_id)
            lint_dashboard(payload, shapes, collector, source=label)
        elif kind == "cube":
            lint_cube_schema(payload, target.catalog, collector,
                             source=label)

        collector.raise_if_errors(
            ProvisioningError, prefix=f"artifact {label!r} rejected")
        self.artifact_log.append({
            "tenant": tenant_id,
            "kind": kind,
            "name": label,
            "errors": len(collector.errors),
            "warnings": len(collector.warnings),
        })
        self.resources.publish_event(tenant_id, "artifact-registered",
                                     f"{kind}:{label}")
        return collector

    def _dataset_shapes(self, tenant_id: str) -> Dict[str, Any]:
        """Output columns of every data set the tenant has defined."""
        shapes: Dict[str, Any] = {}
        for record in self.metadata.datasets(tenant_id):
            target = self.metadata.resolve_datasource(
                tenant_id, record["datasource"])
            shapes.update(dataset_columns_from_sql(
                {record["name"]: record["sql"]},
                target.catalog, target.views))
        return shapes

    def deprovision(self, tenant_id: str) -> None:
        """Deactivate a tenant (data retained, access revoked)."""
        context = self.tenants.context(tenant_id)
        if not context.active:
            raise ProvisioningError(
                f"tenant {tenant_id!r} is already deactivated")
        self.tenants.deactivate(tenant_id)
        self.resources.publish_event(tenant_id, "deprovisioned")
