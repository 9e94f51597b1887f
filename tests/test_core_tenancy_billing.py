"""Tests for tenancy, subscription metering/billing and provisioning."""

import pytest

from repro.core import OdbisPlatform
from repro.core.resilience import FakeClock
from repro.core.subscription import METER_FLUSH_SECONDS, BillingService, Plan
from repro.core.tenancy import TenancyMode, TenantManager
from repro.engine import Database
from repro.errors import (
    ProvisioningError,
    SubscriptionError,
    TenantError,
)


class TestTenantManager:
    def test_shared_mode_shares_one_operational_db(self):
        manager = TenantManager(TenancyMode.SHARED)
        first = manager.register("a", "A")
        second = manager.register("b", "B")
        assert first.operational_db is second.operational_db
        assert manager.database_count() == 1

    def test_isolated_mode_gives_private_dbs(self):
        manager = TenantManager(TenancyMode.ISOLATED)
        first = manager.register("a", "A")
        second = manager.register("b", "B")
        assert first.operational_db is not second.operational_db
        assert manager.database_count() == 2

    def test_warehouse_always_private(self):
        manager = TenantManager(TenancyMode.SHARED)
        first = manager.register("a", "A")
        second = manager.register("b", "B")
        assert first.warehouse_db is not second.warehouse_db

    def test_duplicate_registration_rejected(self):
        manager = TenantManager()
        manager.register("a", "A")
        with pytest.raises(TenantError):
            manager.register("a", "A again")

    def test_unknown_tenant_rejected(self):
        with pytest.raises(TenantError):
            TenantManager().context("ghost")

    def test_deactivation_blocks_require_active(self):
        manager = TenantManager()
        manager.register("a", "A")
        manager.deactivate("a")
        with pytest.raises(TenantError):
            manager.require_active("a")
        assert manager.context("a").active is False

    def test_platform_db_exists_in_both_modes(self):
        assert TenantManager(TenancyMode.SHARED).platform_db is not None
        assert TenantManager(TenancyMode.ISOLATED).platform_db is not None


class TestBilling:
    @pytest.fixture
    def billing(self):
        return BillingService(Database())

    def test_meter_and_aggregate(self, billing):
        billing.meter("acme", "query", 5)
        billing.meter("acme", "query", 3)
        billing.meter("acme", "report", 1)
        assert billing.usage("acme") == {"query": 8, "report": 1}

    def test_periods_are_separate(self, billing):
        billing.meter("acme", "query", 5, period="2010-01")
        billing.meter("acme", "query", 7, period="2010-02")
        assert billing.usage("acme", "2010-01") == {"query": 5}
        assert billing.usage("acme", "2010-02") == {"query": 7}

    def test_unknown_kind_rejected(self, billing):
        with pytest.raises(SubscriptionError):
            billing.meter("acme", "teleport", 1)

    def test_negative_units_rejected(self, billing):
        with pytest.raises(SubscriptionError):
            billing.meter("acme", "query", -1)

    def test_invoice_within_included_units(self, billing):
        billing.meter("acme", "query", 100)
        invoice = billing.invoice("acme", "starter")
        assert invoice.total == 49.0  # base fee only

    def test_invoice_with_overage(self, billing):
        billing.meter("acme", "query", 1500)  # 500 over starter's 1000
        invoice = billing.invoice("acme", "starter")
        line = invoice.lines[0]
        assert line.overage_units == 500
        assert invoice.total == pytest.approx(49.0 + 500 * 0.01)

    def test_cost_is_usage_aligned(self, billing):
        """The paper's pay-as-you-go claim: more usage, higher bill."""
        billing.meter("light", "query", 1200)
        billing.meter("heavy", "query", 12_000)
        light = billing.invoice("light", "starter").total
        heavy = billing.invoice("heavy", "starter").total
        assert heavy > light

    def test_unknown_plan_rejected(self, billing):
        with pytest.raises(SubscriptionError):
            billing.invoice("acme", "diamond")

    def test_plan_validates_usage_kinds(self):
        with pytest.raises(SubscriptionError):
            Plan("bad", 1.0, included={"mana": 10})

    def test_platform_usage_rollup(self, billing):
        billing.meter("a", "query", 1)
        billing.meter("b", "report", 2)
        rollup = billing.platform_usage()
        assert rollup == {"a": {"query": 1}, "b": {"report": 2}}

    def test_crash_loses_only_usage_since_the_last_flush(self, tmp_path):
        clock = FakeClock()
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 clock=clock)
        billing = platform.billing
        billing.meter("acme", "query", 3)
        clock.advance(METER_FLUSH_SECONDS)
        billing.meter("acme", "query", 4)  # the interval is up: writes 7
        billing.meter("acme", "report", 1)
        clock.advance(METER_FLUSH_SECONDS / 2)
        billing.meter("acme", "query", 5)  # still inside the new interval
        # Crash: the platform is dropped without close().
        platform.gateway.shutdown()
        recovered = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                  clock=FakeClock())
        try:
            assert recovered.billing.usage("acme") == {"query": 7}
            recovered.billing.meter("acme", "query", 1)
            assert recovered.billing.usage("acme") == {"query": 8}
            ids = recovered.billing.database.query(
                "SELECT id FROM usage_events")
            assert len({row["id"] for row in ids}) == len(ids) == 2
        finally:
            recovered.close()


class TestProvisioning:
    @pytest.fixture
    def platform(self):
        return OdbisPlatform()

    def test_provision_wires_all_layers(self, platform):
        context = platform.provisioning.provision(
            "acme", "Acme", plan="team")
        assert context.plan == "team"
        assert platform.resources.database("acme", "warehouse") \
            is context.warehouse_db
        sources = platform.metadata.datasources("acme")
        assert sources[0]["name"] == "warehouse"
        assert "admin@acme" in platform.admin.accounts_of_tenant("acme")
        assert platform.provisioning.provision_log[0]["steps"][-1] == \
            "admin-account"

    def test_unknown_plan_fails_before_any_change(self, platform):
        with pytest.raises(SubscriptionError):
            platform.provisioning.provision("acme", "Acme",
                                            plan="diamond")
        assert platform.tenants.tenant_ids() == []

    def test_admin_login_works_after_provision(self, platform):
        platform.provisioning.provision("acme", "Acme")
        session = platform.admin.login("admin@acme", "changeme")
        assert session.principal.tenant == "acme"
        assert session.principal.has_authority("TENANT_ADMIN")

    def test_deprovision_blocks_service_access(self, platform):
        platform.provisioning.provision("acme", "Acme")
        platform.provisioning.deprovision("acme")
        with pytest.raises(TenantError):
            platform.metadata.datasources("acme")
        with pytest.raises(ProvisioningError):
            platform.provisioning.deprovision("acme")


from hypothesis import given, settings
from hypothesis import strategies as st


class TestBillingProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5000),
                    min_size=0, max_size=20))
    def test_invoice_total_is_monotone_in_usage(self, increments):
        billing = BillingService(Database())
        previous = billing.invoice("t", "starter").total
        running = 0
        for units in increments:
            billing.meter("t", "query", units)
            running += units
            total = billing.invoice("t", "starter").total
            assert total >= previous
            previous = total
        # And the final usage aggregate is exact.
        assert billing.usage("t").get("query", 0) == running

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_plan_hierarchy_never_inverts_for_heavy_usage(self, units):
        """A bigger plan never charges more overage than a smaller
        one for identical usage."""
        billing = BillingService(Database())
        billing.meter("t", "query", units)
        starter = billing.invoice("t", "starter")
        team = billing.invoice("t", "team")
        starter_overage = sum(line.amount for line in starter.lines)
        team_overage = sum(line.amount for line in team.lines)
        assert team_overage <= starter_overage

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["query", "report", "etl_rows"]),
                  st.integers(min_value=0, max_value=1000)),
        max_size=15))
    def test_platform_rollup_equals_per_tenant_sums(self, events):
        billing = BillingService(Database())
        expected = {}
        for index, (kind, units) in enumerate(events):
            tenant = f"t{index % 3}"
            billing.meter(tenant, kind, units)
            expected.setdefault(tenant, {}).setdefault(kind, 0)
            expected[tenant][kind] += units
        rollup = billing.platform_usage()
        trimmed = {
            tenant: {kind: total for kind, total in usage.items()
                     if total > 0 or kind in rollup.get(tenant, {})}
            for tenant, usage in expected.items()
        }
        for tenant, usage in rollup.items():
            for kind, total in usage.items():
                assert expected[tenant][kind] == total
