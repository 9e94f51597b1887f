"""Tests for MDDWS (model-driven DW design) and the assembled platform."""

import pytest

from repro.core import OdbisPlatform
from repro.errors import ServiceError
from repro.mda import (
    BusinessRequirement,
    CimModel,
    DimensionSpec,
    MeasureSpec,
)
from repro.workloads import RetailWorkload


def retail_cim():
    return CimModel("retail", [
        BusinessRequirement(
            subject="Sales",
            goal="analyse revenue by product, store and time",
            measures=[MeasureSpec("revenue"), MeasureSpec("quantity")],
            dimensions=[
                DimensionSpec("Time", ["year", "quarter", "month"],
                              is_time=True),
                DimensionSpec("Product", ["category", "sku"]),
                DimensionSpec("Store", ["region", "city"]),
            ]),
    ])


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    platform.provisioning.provision("acme", "Acme Corp", plan="team")
    return platform


class TestMddws:
    def test_project_lifecycle(self, platform):
        project = platform.mddws.create_project("acme", "retail-dw")
        assert project.open_risks()
        status = platform.mddws.project_status("acme")
        assert status["complete"] is False
        with pytest.raises(ServiceError):
            platform.mddws.create_project("acme", "second")

    def test_project_required_before_design(self, platform):
        with pytest.raises(ServiceError):
            platform.mddws.design_warehouse("acme", retail_cim())

    def test_design_runs_full_2tup_iteration(self, platform):
        platform.mddws.create_project("acme", "retail-dw")
        summary = platform.mddws.design_warehouse("acme", retail_cim())
        iteration = platform.mddws.project("acme") \
            .process.iterations[0]
        assert iteration.is_complete
        assert summary["layer"] == "warehouse"
        assert len(summary["pim"].cubes()) == 1
        assert len(summary["psm"].tables()) == 4  # 3 dims + 1 fact

    def test_design_deploys_tables_and_cubes(self, platform):
        platform.mddws.create_project("acme", "retail-dw")
        summary = platform.mddws.design_warehouse("acme", retail_cim())
        warehouse = platform.tenants.context("acme").warehouse_db
        assert "fact_sales" in warehouse.table_names()
        assert "dim_time" in warehouse.table_names()
        assert summary["deployed"]["cubes"] == ["Sales"]
        assert platform.analysis.cubes("acme") == ["Sales"]

    def test_designed_cube_answers_queries_after_etl(self, platform):
        """Full on-demand loop: design -> deploy -> load -> analyse."""
        from repro.etl import RowsSource

        platform.mddws.create_project("acme", "retail-dw")
        platform.mddws.design_warehouse("acme", retail_cim())

        platform.integration.define_job(
            "acme", "load-time",
            RowsSource([{"time_key": 1, "year": "2009",
                         "quarter": "Q1", "month": "Jan"}]),
            target_table="dim_time")
        platform.integration.define_job(
            "acme", "load-product",
            RowsSource([{"product_key": 1, "category": "Food",
                         "sku": "bread"}]),
            target_table="dim_product")
        platform.integration.define_job(
            "acme", "load-store",
            RowsSource([{"store_key": 1, "region": "North",
                         "city": "Lille"}]),
            target_table="dim_store")
        platform.integration.define_job(
            "acme", "load-fact",
            RowsSource([{"time_key": 1, "product_key": 1,
                         "store_key": 1, "revenue": 99.0,
                         "quantity": 3}]),
            target_table="fact_sales")
        platform.integration.run_graph("acme", {
            "load-time": [], "load-product": [], "load-store": [],
            "load-fact": ["load-time", "load-product", "load-store"],
        })
        cells = platform.analysis.query(
            "acme", "Sales", ["revenue"], [("Store", "region")])
        assert cells.cell(["North"], "revenue") == 99.0

    def test_artifacts_registered_on_project(self, platform):
        platform.mddws.create_project("acme", "retail-dw")
        platform.mddws.design_warehouse("acme", retail_cim())
        project = platform.mddws.project("acme")
        assert "warehouse/iter1/pim" in project.artifacts
        assert "warehouse/iter1/psm" in project.artifacts
        assert "warehouse/iter1/code" in project.artifacts

    def test_multiple_layers_multiple_iterations(self, platform):
        platform.mddws.create_project("acme", "retail-dw")
        platform.mddws.design_warehouse(
            "acme", retail_cim(), layer="warehouse")
        datamart_cim = CimModel("datamart", [
            BusinessRequirement(
                subject="TopStores",
                measures=[MeasureSpec("revenue")],
                dimensions=[DimensionSpec("Region", ["region"])]),
        ])
        platform.mddws.design_warehouse(
            "acme", datamart_cim, layer="datamart")
        process = platform.mddws.project("acme").process
        assert process.layer_complete("warehouse")
        assert process.layer_complete("datamart")
        assert not process.layer_complete("staging")


class TestPlatformWebApi:
    @pytest.fixture
    def client(self, platform):
        workload = RetailWorkload()
        workload.build(
            platform.tenants.context("acme").warehouse_db,
            fact_rows=200)
        platform.analysis.define_cube(
            "acme", workload.cube_definition())
        platform.metadata.create_dataset(
            "acme", "stores", "warehouse",
            "SELECT region, city FROM dim_store")
        response = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme", "password": "changeme"})
        token = response.json()["token"]
        return platform, {"X-Auth-Token": token}

    def test_ping_is_public(self, platform):
        assert platform.web.request("GET", "/ping").json() == \
            {"status": "up"}

    def test_login_failure_is_401(self, platform):
        response = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme", "password": "wrong"})
        assert response.status == 401

    def test_missing_token_is_401(self, platform):
        response = platform.web.request("GET", "/tenants/acme/cubes")
        assert response.status == 401

    def test_cubes_endpoint(self, client):
        platform, headers = client
        response = platform.web.request(
            "GET", "/tenants/acme/cubes", headers=headers)
        assert response.json() == ["RetailSales"]

    def test_dataset_rows_endpoint(self, client):
        platform, headers = client
        response = platform.web.request(
            "GET", "/tenants/acme/datasets/stores/rows",
            headers=headers)
        assert len(response.json()["rows"]) == 6

    def test_mdx_endpoint(self, client):
        platform, headers = client
        response = platform.web.request(
            "POST", "/tenants/acme/mdx",
            body={"statement":
                  "SELECT {[Measures].[revenue]} ON COLUMNS "
                  "FROM [RetailSales]"},
            headers=headers)
        assert response.status == 200
        assert response.json()["rows"][0]["revenue"] > 0

    def test_mdx_requires_statement(self, client):
        platform, headers = client
        response = platform.web.request(
            "POST", "/tenants/acme/mdx", body={}, headers=headers)
        assert response.status == 400

    def test_mdx_statement_must_be_text(self, client):
        platform, headers = client
        for statement in (["SELECT"], 5, {"text": "SELECT"}):
            response = platform.web.request(
                "POST", "/tenants/acme/mdx",
                body={"statement": statement}, headers=headers)
            assert response.status == 400, response.body

    def test_cross_tenant_access_is_403(self, client):
        platform, headers = client
        platform.provisioning.provision("globex", "Globex")
        response = platform.web.request(
            "GET", "/tenants/globex/cubes", headers=headers)
        assert response.status == 403

    def test_usage_endpoint_needs_platform_admin(self, client):
        platform, headers = client
        response = platform.web.request(
            "GET", "/admin/usage", headers=headers)
        assert response.status == 403

        platform.admin.create_account(
            "root", "s3cret", roles=["platform-admin"])
        session = platform.admin.login("root", "s3cret")
        response = platform.web.request(
            "GET", "/admin/usage",
            headers={"X-Auth-Token": session.token})
        assert response.status == 200
        assert response.json()["tenants"] == 1

    def test_layer_trace_covers_fig1_path(self, client):
        platform, headers = client
        platform.web.request(
            "GET", "/tenants/acme/datasets/stores/rows",
            headers=headers)
        assert platform.last_trace[0] == "end-user-access"
        assert "administration" in platform.last_trace
        assert "core-bi-services" in platform.last_trace
        assert "technical-resources" in platform.last_trace

    def test_dashboard_delivery_channels(self, client):
        from repro.reporting import DashboardDefinition

        platform, headers = client
        definition = DashboardDefinition("geo")
        definition.add_row(
            definition.table("stores", "cities", ["region", "city"]))
        platform.reporting.define_dashboard("acme", definition)

        web = platform.web.request(
            "GET", "/tenants/acme/dashboards/geo",
            headers=headers, query={"channel": "web"})
        assert web.body.startswith("<!DOCTYPE html>")

        ws = platform.web.request(
            "GET", "/tenants/acme/dashboards/geo", headers=headers)
        assert ws.json()["dashboard"] == "geo"

        mobile = platform.web.request(
            "GET", "/tenants/acme/dashboards/geo",
            headers=headers, query={"channel": "mobile"})
        assert mobile.body.startswith("[geo]")

        office = platform.web.request(
            "GET", "/tenants/acme/dashboards/geo",
            headers=headers, query={"channel": "office"})
        assert "# cities" in office.body

        bad = platform.web.request(
            "GET", "/tenants/acme/dashboards/geo",
            headers=headers, query={"channel": "fax"})
        assert bad.status == 400

    def test_admin_usage_reflects_metering(self, client):
        platform, headers = client
        platform.web.request(
            "GET", "/tenants/acme/datasets/stores/rows",
            headers=headers)
        report = platform.admin.usage_report()
        assert report["usage"]["acme"]["query"] >= 1
        assert report["invoice_totals"]["acme"] >= 249.0


class TestDesignEndpoint:
    """POST /tenants/{t}/design — the MDDWS web design environment."""

    @pytest.fixture
    def ready(self, platform):
        platform.mddws.create_project("acme", "dw")
        response = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme", "password": "changeme"})
        return platform, {"X-Auth-Token": response.json()["token"]}

    CIM_PAYLOAD = {
        "cim": {
            "name": "retail",
            "requirements": [{
                "subject": "Sales",
                "measures": [{"name": "revenue"}],
                "dimensions": [
                    {"name": "Time", "levels": ["year", "month"],
                     "is_time": True},
                    {"name": "Store", "levels": ["region"]},
                ],
            }],
        },
        "layer": "warehouse",
    }

    def test_design_via_web_creates_warehouse(self, ready):
        platform, headers = ready
        response = platform.web.request(
            "POST", "/tenants/acme/design", headers=headers,
            body=self.CIM_PAYLOAD)
        assert response.status == 201
        body = response.json()
        assert body["cubes"] == ["Sales"]
        assert "fact_sales" in body["tables"]
        warehouse = platform.tenants.context("acme").warehouse_db
        assert "fact_sales" in warehouse.table_names()
        assert "design-management" in platform.last_trace

    def test_design_requires_dw_design_authority(self, ready):
        platform, _headers = ready
        platform.admin.create_account(
            "viewer@acme", "pw", tenant="acme", roles=["viewer"])
        session = platform.admin.login("viewer@acme", "pw")
        response = platform.web.request(
            "POST", "/tenants/acme/design",
            headers={"X-Auth-Token": session.token},
            body=self.CIM_PAYLOAD)
        assert response.status == 403

    def test_bad_cim_payload_is_400(self, ready):
        platform, headers = ready
        response = platform.web.request(
            "POST", "/tenants/acme/design", headers=headers,
            body={"cim": {"no_name": True}})
        assert response.status == 400

    def test_designed_cube_queryable_via_mdx_endpoint(self, ready):
        platform, headers = ready
        platform.web.request("POST", "/tenants/acme/design",
                             headers=headers, body=self.CIM_PAYLOAD)
        warehouse = platform.tenants.context("acme").warehouse_db
        warehouse.execute(
            "INSERT INTO dim_time (time_key, year, month) "
            "VALUES (1, '2009', 'Jan')")
        warehouse.execute(
            "INSERT INTO dim_store (store_key, region) "
            "VALUES (1, 'North')")
        warehouse.execute(
            "INSERT INTO fact_sales VALUES (1, 1, 42.0)")
        response = platform.web.request(
            "POST", "/tenants/acme/mdx", headers=headers,
            body={"statement":
                  "SELECT {[Measures].[revenue]} ON COLUMNS "
                  "FROM [Sales]"})
        assert response.json()["rows"][0]["revenue"] == 42.0
