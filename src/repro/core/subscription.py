"""Pay-as-you-go metering and billing.

"On-Demand and pay-as-you-go models mean that in a SaaS model, costs
are directly aligned with usage" (paper §2).  The billing service
meters every chargeable action (queries, reports, ETL rows), and turns
a month's meter readings plus the tenant's plan into an invoice.

Metering must not tax the metered operation, so a meter call only adds
its units to an in-memory total per ``(tenant, period, kind)``.  The
totals are written as one ``usage_events`` row per key, in one
transaction, by the meter call that finds :data:`METER_FLUSH_SECONDS`
elapsed since the oldest unwritten unit, and by every reader of usage
(:meth:`BillingService.usage`, ``platform_usage``, ``invoice``) and
the platform's ``checkpoint()`` and ``close()``.  A crash loses what
was not yet written: at most one interval of metering, always as an
undercount.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.resilience import Clock, MonotonicClock
from repro.engine.database import Database
from repro.errors import SubscriptionError

#: Chargeable usage kinds and their unit labels.
USAGE_KINDS = ("query", "report", "etl_rows", "dashboard", "storage_mb")

#: Seconds of metering held in memory before it is written — the most
#: usage a crash can lose.
METER_FLUSH_SECONDS = 1.0


@dataclass(frozen=True)
class Plan:
    """A subscription plan: monthly fee + included units + overage."""

    name: str
    monthly_fee: float
    included: Dict[str, int] = field(default_factory=dict)
    overage_price: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind in list(self.included) + list(self.overage_price):
            if kind not in USAGE_KINDS:
                raise SubscriptionError(
                    f"plan {self.name!r}: unknown usage kind {kind!r}")


DEFAULT_PLANS = {
    "starter": Plan(
        "starter", monthly_fee=49.0,
        included={"query": 1000, "report": 100, "etl_rows": 50_000},
        overage_price={"query": 0.01, "report": 0.25,
                       "etl_rows": 0.0002}),
    "team": Plan(
        "team", monthly_fee=249.0,
        included={"query": 10_000, "report": 1_000,
                  "etl_rows": 1_000_000},
        overage_price={"query": 0.005, "report": 0.15,
                       "etl_rows": 0.0001}),
    "enterprise": Plan(
        "enterprise", monthly_fee=999.0,
        included={"query": 100_000, "report": 20_000,
                  "etl_rows": 20_000_000},
        overage_price={"query": 0.002, "report": 0.10,
                       "etl_rows": 0.00005}),
}


@dataclass
class InvoiceLine:
    kind: str
    used: int
    included: int
    overage_units: int
    amount: float


@dataclass
class Invoice:
    tenant: str
    period: str
    plan: str
    base_fee: float
    lines: List[InvoiceLine]

    @property
    def total(self) -> float:
        return round(self.base_fee
                     + sum(line.amount for line in self.lines), 2)


class BillingService:
    """Meters usage into the platform database and issues invoices."""

    def __init__(self, platform_db: Database,
                 plans: Optional[Dict[str, Plan]] = None):
        self.database = platform_db
        self.plans = dict(plans or DEFAULT_PLANS)
        self.database.execute(
            "CREATE TABLE IF NOT EXISTS usage_events ("
            "id INTEGER, tenant TEXT NOT NULL, period TEXT NOT NULL, "
            "kind TEXT NOT NULL, units INTEGER NOT NULL)")
        #: Time source of the flush interval; the platform installs
        #: its own injectable clock here.
        self.clock: Clock = MonotonicClock()
        # Gateway workers meter concurrently: the unwritten totals and
        # the id counter change only under the mutex, and no database
        # call ever runs under it.
        self._pending: Dict[Tuple[str, str, str], int] = {}  # guarded-by: _meter_lock
        self._pending_since = 0.0  # guarded-by: _meter_lock
        # Ids continue after the rows a recovered database holds.
        last_id = self.database.query_value(
            "SELECT MAX(id) FROM usage_events")
        self._next_id = (last_id or 0) + 1  # guarded-by: _meter_lock
        self._meter_lock = threading.Lock()

    def plan(self, name: str) -> Plan:
        plan = self.plans.get(name)
        if plan is None:
            raise SubscriptionError(f"unknown plan {name!r}")
        return plan

    # -- metering ------------------------------------------------------------------

    def meter(self, tenant: str, kind: str, units: int = 1,
              period: str = "current") -> None:
        """Add usage to the unwritten totals; write them once the
        oldest is :data:`METER_FLUSH_SECONDS` old."""
        if kind not in USAGE_KINDS:
            raise SubscriptionError(f"unknown usage kind {kind!r}")
        if units < 0:
            raise SubscriptionError("usage units cannot be negative")
        now = self.clock.now()
        key = (tenant, period, kind)
        with self._meter_lock:
            if not self._pending:
                self._pending_since = now
            self._pending[key] = self._pending.get(key, 0) + units
            due = now - self._pending_since >= METER_FLUSH_SECONDS
        if due:
            self.flush()

    def flush(self) -> int:
        """Write the unwritten totals, one ``usage_events`` row per
        ``(tenant, period, kind)`` in one transaction; returns the
        number of rows written."""
        with self._meter_lock:
            pending, self._pending = self._pending, {}
            first_id = self._next_id
            self._next_id += len(pending)
        if pending:
            self.database.executemany(
                "INSERT INTO usage_events VALUES (?, ?, ?, ?, ?)",
                [(first_id + offset, tenant, period, kind, units)
                 for offset, ((tenant, period, kind), units)
                 in enumerate(pending.items())])
        return len(pending)

    def usage(self, tenant: str,
              period: str = "current") -> Dict[str, int]:
        """Total units per kind for one tenant and period."""
        self.flush()
        rows = self.database.query(
            "SELECT kind, SUM(units) AS total FROM usage_events "
            "WHERE tenant = ? AND period = ? GROUP BY kind",
            (tenant, period))
        return {row["kind"]: int(row["total"]) for row in rows}

    def platform_usage(self, period: str = "current") \
            -> Dict[str, Dict[str, int]]:
        """Usage per tenant — the administration layer's view."""
        self.flush()
        rows = self.database.query(
            "SELECT tenant, kind, SUM(units) AS total FROM usage_events "
            "WHERE period = ? GROUP BY tenant, kind", (period,))
        out: Dict[str, Dict[str, int]] = {}
        for row in rows:
            out.setdefault(row["tenant"], {})[row["kind"]] = \
                int(row["total"])
        return out

    # -- invoicing -------------------------------------------------------------------

    def invoice(self, tenant: str, plan_name: str,
                period: str = "current") -> Invoice:
        """Pay-as-you-go invoice: base fee + metered overage."""
        plan = self.plan(plan_name)
        usage = self.usage(tenant, period)
        lines: List[InvoiceLine] = []
        for kind, used in sorted(usage.items()):
            included = plan.included.get(kind, 0)
            overage = max(0, used - included)
            price = plan.overage_price.get(kind, 0.0)
            lines.append(InvoiceLine(
                kind=kind, used=used, included=included,
                overage_units=overage,
                amount=round(overage * price, 4)))
        return Invoice(tenant=tenant, period=period, plan=plan.name,
                       base_fee=plan.monthly_fee, lines=lines)
