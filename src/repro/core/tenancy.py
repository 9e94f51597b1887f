"""Multi-tenancy: tenant registry and data isolation.

The paper's §2: "the physical backend hardware infrastructure is shared
among many different customers but logically is unique for each
customer ... one database is used to store all customers' data, so this
makes the overall system scalable at a far lower cost."

Two isolation modes are implemented so experiment E7 can compare them:

* ``SHARED`` — one shared operational database holds every tenant's
  rows, discriminated by a ``tenant`` column (the paper's choice);
* ``ISOLATED`` — a dedicated database per tenant (the classical
  alternative the paper argues against on cost).

Each tenant additionally gets its own *warehouse* database — the
deployed DW the BI services query — in both modes, because analytic
workloads are tenant-private by construction.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.engine.database import Database
from repro.errors import TenantError


class TenancyMode(enum.Enum):
    SHARED = "shared"
    ISOLATED = "isolated"


@dataclass
class TenantContext:
    """Everything tenant-scoped the services need."""

    tenant_id: str
    display_name: str
    plan: str
    operational_db: Database  # shared or private, per mode
    warehouse_db: Database    # always private
    active: bool = True

    def __repr__(self) -> str:
        return f"<TenantContext {self.tenant_id!r} plan={self.plan}>"


class TenantManager:
    """Registers tenants and hands out their contexts.

    ``database_factory`` is the durability hook: when the platform
    runs against a data directory it supplies a factory that recovers
    each database from its snapshot + WAL instead of creating it
    blank.  :attr:`platform_db` holds platform-wide state, the
    registry's ``platform_tenants`` table included, in every mode; it
    is never a tenant's operational database, so tenant SQL cannot
    name a platform table.
    """

    def __init__(self, mode: TenancyMode = TenancyMode.SHARED,
                 database_factory: Optional[
                     Callable[[str], Database]] = None,
                 operational_router: Optional[
                     Callable[[str], Database]] = None):
        self.mode = mode
        self._factory = database_factory or (
            lambda name: Database(name))
        # Sharded deployments place each tenant's operational data by
        # consistent hash: the router (e.g. ``ShardMap.primary_for``)
        # overrides the SHARED/ISOLATED operational choice.  Kept as a
        # duck-typed callable so tenancy never imports sharding (the
        # gateway imports tenancy, and sharding sits above both).
        self._operational_router = operational_router
        # Registration is control-plane work that may run concurrently
        # with request dispatch; guard the check-then-insert.
        self._tenants: Dict[str, TenantContext] = {}  # guarded-by: _registry_lock
        self._registry_lock = threading.Lock()
        # SHARED mode's one operational database, built by the first
        # registration that needs it.
        self._shared_db: Optional[Database] = None  # guarded-by: _registry_lock
        self.platform_db = self._factory("platform")
        self.platform_db.execute(
            "CREATE TABLE IF NOT EXISTS platform_tenants ("
            "tenant TEXT PRIMARY KEY, display_name TEXT NOT NULL, "
            "plan TEXT NOT NULL, active BOOLEAN NOT NULL)")

    def register(self, tenant_id: str, display_name: str,
                 plan: str = "starter") -> TenantContext:
        with self._registry_lock:
            if tenant_id in self._tenants:
                raise TenantError(
                    f"tenant {tenant_id!r} already registered")
            if self._operational_router is not None:
                operational = self._operational_router(tenant_id)
            elif self.mode is TenancyMode.SHARED:
                if self._shared_db is None:
                    self._shared_db = self._factory("shared")
                operational = self._shared_db
            else:
                operational = self._factory(f"op-{tenant_id}")
            context = TenantContext(
                tenant_id=tenant_id,
                display_name=display_name,
                plan=plan,
                operational_db=operational,
                warehouse_db=self._factory(f"dw-{tenant_id}"),
            )
            self._tenants[tenant_id] = context
            # A recovered platform re-registers the tenants its
            # registry already holds; their rows stay as they are.
            if not self.platform_db.query_value(
                    "SELECT COUNT(*) FROM platform_tenants "
                    "WHERE tenant = ?", (tenant_id,)):
                self.platform_db.execute(
                    "INSERT INTO platform_tenants VALUES (?, ?, ?, TRUE)",
                    (tenant_id, display_name, plan))
            return context

    def deactivate(self, tenant_id: str) -> None:
        with self._registry_lock:
            context = self._tenants.get(tenant_id)
            if context is None:
                raise TenantError(f"unknown tenant {tenant_id!r}")
            context.active = False
            # Re-store through the guarded mapping so the flip is a
            # locked registry state transition, serialized against
            # register() and visible to the lock-discipline check.
            self._tenants[tenant_id] = context
            self.platform_db.execute(
                "UPDATE platform_tenants SET active = FALSE "
                "WHERE tenant = ? AND active", (tenant_id,))

    def repoint_operational(self, old: Database,
                            new: Database) -> List[str]:
        """Swap every context on ``old`` over to ``new`` (failover).

        Runs under the registry lock so a repoint is atomic against
        registration: a tenant registered concurrently either routed
        to the new primary already or is repointed here, never split.
        Returns the moved tenant ids.
        """
        with self._registry_lock:
            moved: List[str] = []
            for tenant_id, context in self._tenants.items():
                if context.operational_db is old:
                    context.operational_db = new
                    self._tenants[tenant_id] = context
                    moved.append(tenant_id)
            return moved

    def context(self, tenant_id: str) -> TenantContext:
        context = self._tenants.get(tenant_id)
        if context is None:
            raise TenantError(f"unknown tenant {tenant_id!r}")
        return context

    def require_active(self, tenant_id: str) -> TenantContext:
        context = self.context(tenant_id)
        if not context.active:
            raise TenantError(f"tenant {tenant_id!r} is deactivated")
        return context

    def tenant_ids(self) -> List[str]:
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def database_count(self) -> int:
        """Distinct operational database objects (the E7 metric)."""
        seen = {id(context.operational_db)
                for context in self._tenants.values()}
        return len(seen)
