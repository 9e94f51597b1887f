"""Tests for persisted dashboard definitions (live re-rendering)."""

import pytest

from repro.core import OdbisPlatform
from repro.errors import ReportDefinitionError, ServiceError
from repro.reporting import DashboardDefinition, ElementDefinition


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    context = platform.provisioning.provision("acme", "Acme")
    context.warehouse_db.execute(
        "CREATE TABLE sales (region TEXT, revenue REAL)")
    context.warehouse_db.executemany(
        "INSERT INTO sales VALUES (?, ?)",
        [("N", 10.0), ("S", 20.0)])
    platform.metadata.create_dataset(
        "acme", "sales", "warehouse", "SELECT * FROM sales")
    return platform


def sales_definition():
    definition = DashboardDefinition("exec", "executive overview")
    definition.add_row(
        definition.chart("sales", "rev", "bar", "region", "revenue"),
        definition.table("sales", "detail", ["region", "revenue"],
                         sort_by="revenue", descending=True))
    return definition


class TestDefinitionModel:
    def test_dict_roundtrip(self):
        definition = sales_definition()
        payload = definition.to_dict()
        restored = DashboardDefinition.from_dict(payload)
        assert restored.name == "exec"
        assert restored.to_dict() == payload

    def test_datasets_deduplicated(self):
        definition = sales_definition()
        assert definition.datasets() == ["sales"]

    def test_empty_row_rejected(self):
        with pytest.raises(ReportDefinitionError):
            DashboardDefinition("d").add_row()

    def test_render_requires_rows(self):
        with pytest.raises(ReportDefinitionError):
            DashboardDefinition("d").render(lambda name: [])

    def test_bad_element_kind_rejected(self):
        with pytest.raises(ReportDefinitionError):
            ElementDefinition.from_dict({"kind": "hologram"})

    def test_render_with_resolver(self):
        definition = sales_definition()
        dashboard = definition.render(
            lambda name: [{"region": "X", "revenue": 5.0}])
        assert dashboard.element("rev").series == [("X", 5.0)]


class TestReportingServiceDefinitions:
    def test_define_and_render(self, platform):
        platform.reporting.define_dashboard("acme", sales_definition())
        assert platform.reporting.dashboards("acme") == \
            ["exec"]
        dashboard = platform.reporting.render_dashboard("acme", "exec")
        assert dict(dashboard.element("rev").series) == \
            {"N": 10.0, "S": 20.0}

    def test_rerender_reflects_new_data(self, platform):
        platform.reporting.define_dashboard("acme", sales_definition())
        platform.reporting.render_dashboard("acme", "exec")
        warehouse = platform.tenants.context("acme").warehouse_db
        warehouse.execute("INSERT INTO sales VALUES ('N', 90.0)")
        dashboard = platform.reporting.render_dashboard("acme", "exec")
        assert dict(dashboard.element("rev").series)["N"] == 100.0

    def test_unknown_dataset_rejected_at_definition(self, platform):
        definition = DashboardDefinition("bad")
        definition.add_row(
            definition.chart("ghost", "c", "bar", "x", "y"))
        with pytest.raises(ServiceError):
            platform.reporting.define_dashboard("acme", definition)

    def test_duplicate_definition_rejected(self, platform):
        platform.reporting.define_dashboard("acme", sales_definition())
        with pytest.raises(ServiceError):
            platform.reporting.define_dashboard(
                "acme", sales_definition())

    def test_unknown_definition_rejected_at_render(self, platform):
        with pytest.raises(ServiceError):
            platform.reporting.render_dashboard("acme", "ghost")

    def test_renders_are_metered(self, platform):
        platform.reporting.define_dashboard("acme", sales_definition())
        platform.reporting.render_dashboard("acme", "exec")
        platform.reporting.render_dashboard("acme", "exec")
        assert platform.billing.usage("acme")["dashboard"] == 2

    def test_definition_survives_in_platform_db(self, platform):
        """Definitions live in the platform database, not process
        memory: a second service instance over the same tenancy sees
        them."""
        from repro.core.reporting_service import ReportingService

        platform.reporting.define_dashboard("acme", sales_definition())
        fresh = ReportingService(platform.tenants, platform.metadata)
        assert fresh.dashboards("acme") == ["exec"]
        dashboard = fresh.render_dashboard("acme", "exec")
        assert len(dashboard) == 2


class TestDashboardWebApi:
    @pytest.fixture
    def client(self, platform):
        response = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme", "password": "changeme"})
        return platform, {"X-Auth-Token": response.json()["token"]}

    def test_publish_and_deliver_via_web(self, client):
        platform, headers = client
        payload = sales_definition().to_dict()
        response = platform.web.request(
            "POST", "/tenants/acme/dashboards",
            headers=headers, body=payload)
        assert response.status == 201

        delivered = platform.web.request(
            "GET", "/tenants/acme/dashboards/exec", headers=headers)
        assert delivered.json()["dashboard"] == "exec"
        chart = delivered.json()["elements"][0]
        assert {entry["category"] for entry in chart["series"]} == \
            {"N", "S"}

    def test_published_definition_is_listed(self, client):
        platform, headers = client
        platform.web.request(
            "POST", "/tenants/acme/dashboards",
            headers=headers, body=sales_definition().to_dict())
        listed = platform.web.request(
            "GET", "/tenants/acme/dashboards", headers=headers)
        assert listed.json() == ["exec"]

    def test_unknown_dashboard_is_a_400(self, client):
        platform, headers = client
        response = platform.web.request(
            "GET", "/tenants/acme/dashboards/ghost", headers=headers)
        assert response.status == 400
        assert "no dashboard 'ghost'" in response.json()["error"]

    def test_publish_requires_report_edit(self, client):
        platform, _headers = client
        platform.admin.create_account(
            "viewer@acme", "pw", tenant="acme", roles=["viewer"])
        session = platform.admin.login("viewer@acme", "pw")
        response = platform.web.request(
            "POST", "/tenants/acme/dashboards",
            headers={"X-Auth-Token": session.token},
            body=sales_definition().to_dict())
        assert response.status == 403
