"""The administration and configuration layer.

"A web-based tool for administrators to manage users accounts, to
customize services configuration and to report some information on
platform usage and performance" (paper §3.1), plus the admin service's
authorities/roles/users/groups management and search (§3.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.subscription import BillingService
from repro.core.tenancy import TenantManager
from repro.errors import ServiceError
from repro.security import (
    AuthenticationManager,
    SecurityStore,
    SecuritySession,
)

#: The authorities the platform pre-installs.
DEFAULT_AUTHORITIES = (
    "PLATFORM_ADMIN", "TENANT_ADMIN", "DW_DESIGN",
    "ETL_MANAGE", "CUBE_QUERY", "REPORT_VIEW", "REPORT_EDIT",
)

#: Default roles with their authority bundles.
DEFAULT_ROLES = {
    "platform-admin": list(DEFAULT_AUTHORITIES),
    "tenant-admin": ["TENANT_ADMIN", "DW_DESIGN", "ETL_MANAGE",
                     "CUBE_QUERY", "REPORT_VIEW", "REPORT_EDIT"],
    "analyst": ["CUBE_QUERY", "REPORT_VIEW", "REPORT_EDIT"],
    "viewer": ["REPORT_VIEW"],
}


class AdminService:
    """Account management, configuration and usage reporting."""

    def __init__(self, tenants: TenantManager,
                 billing: BillingService):
        self.tenants = tenants
        self.billing = billing
        self.security = SecurityStore(tenants.platform_db)
        self.authentication = AuthenticationManager(self.security)
        self._config: Dict[str, Dict[str, Any]] = {}
        self._install_defaults()

    def _install_defaults(self) -> None:
        # Idempotent: a platform recovered from a data directory hands
        # this service a platform database that already holds the
        # defaults (they were WAL-committed before the crash).
        for authority in DEFAULT_AUTHORITIES:
            if not self.security.has_authority(authority):
                self.security.create_authority(authority)
        for role, authorities in DEFAULT_ROLES.items():
            if not self.security.has_role(role):
                self.security.create_role(role, authorities)

    # -- account management -----------------------------------------------------------

    def create_account(self, username: str, password: str,
                       tenant: Optional[str] = None,
                       roles: List[str] = ("viewer",),
                       groups: List[str] = ()) -> None:
        """Create a user account (tenant=None → platform operator)."""
        if tenant is not None:
            self.tenants.require_active(tenant)
        self.authentication.register_user(
            username, password, tenant=tenant,
            roles=list(roles), groups=list(groups))

    def login(self, username: str, password: str) -> SecuritySession:
        return self.authentication.authenticate(username, password)

    def accounts_of_tenant(self, tenant_id: str) -> List[str]:
        return [user.username for user in self.security.list_users()
                if user.tenant == tenant_id]

    # -- service configuration -----------------------------------------------------------

    def configure(self, tenant_id: str, service: str,
                  **settings: Any) -> None:
        """Store per-tenant service configuration overrides."""
        self.tenants.require_active(tenant_id)
        bucket = self._config.setdefault(tenant_id, {})
        bucket.setdefault(service, {}).update(settings)

    def configuration(self, tenant_id: str,
                      service: str) -> Dict[str, Any]:
        return dict(self._config.get(tenant_id, {}).get(service, {}))

    # -- usage and performance reporting ---------------------------------------------------

    def usage_report(self, period: str = "current") -> Dict[str, Any]:
        """Platform-wide usage: per-tenant metered units + invoices."""
        per_tenant = self.billing.platform_usage(period)
        invoices = {}
        for tenant_id in self.tenants.tenant_ids():
            context = self.tenants.context(tenant_id)
            invoice = self.billing.invoice(
                tenant_id, context.plan, period)
            invoices[tenant_id] = invoice.total
        return {
            "period": period,
            "tenants": len(self.tenants),
            "usage": per_tenant,
            "invoice_totals": invoices,
        }

    def performance_report(self) -> Dict[str, Any]:
        """Engine-level statistics for the shared platform database."""
        database = self.tenants.platform_db
        return {
            "statements": database.statistics["statements"],
            "rows_returned": database.statistics["rows_returned"],
            "tables": len(database.table_names()),
            "active_sessions": self.authentication.active_sessions(),
        }
