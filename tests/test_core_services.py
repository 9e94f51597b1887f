"""Tests for the five core BI services (MDS, IS, AS, RS, IDS)."""

import json

import pytest

from repro.core import Channel, OdbisPlatform
from repro.errors import ServiceError
from repro.etl import Filter, RowsSource, Schedule, TypeCast
from repro.reporting import Dashboard, DashboardDefinition
from repro.workloads import RetailWorkload


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    platform.provisioning.provision("acme", "Acme Corp", plan="team")
    return platform


@pytest.fixture
def warehouse(platform):
    workload = RetailWorkload()
    context = platform.tenants.context("acme")
    workload.build(context.warehouse_db, fact_rows=400)
    return workload


class TestMetadataService:
    def test_datasource_crud(self, platform):
        sources = platform.metadata.datasources("acme")
        assert [source["name"] for source in sources] == ["warehouse"]
        with pytest.raises(ServiceError):
            platform.metadata.create_datasource(
                "acme", "warehouse", "repro://warehouse")

    def test_datasource_url_scheme_enforced(self, platform):
        with pytest.raises(ServiceError):
            platform.metadata.create_datasource(
                "acme", "pg", "postgres://somewhere")

    def test_dataset_requires_existing_datasource(self, platform):
        with pytest.raises(ServiceError):
            platform.metadata.create_dataset(
                "acme", "d", "ghost-source", "SELECT 1")

    def test_dataset_rows_execute_sql(self, platform, warehouse):
        platform.metadata.create_dataset(
            "acme", "stores", "warehouse",
            "SELECT region, city FROM dim_store ORDER BY city")
        rows = platform.metadata.dataset_rows("acme", "stores")
        assert len(rows) == 6
        assert set(rows[0]) == {"region", "city"}

    def test_dataset_rows_with_params(self, platform, warehouse):
        platform.metadata.create_dataset(
            "acme", "by-region", "warehouse",
            "SELECT city FROM dim_store WHERE region = ?")
        rows = platform.metadata.dataset_rows(
            "acme", "by-region", ("North",))
        assert len(rows) == 2

    def test_duplicate_dataset_rejected(self, platform, warehouse):
        platform.metadata.create_dataset(
            "acme", "d", "warehouse", "SELECT 1 AS one")
        with pytest.raises(ServiceError):
            platform.metadata.create_dataset(
                "acme", "d", "warehouse", "SELECT 2 AS two")

    def test_glossary_is_tenant_scoped(self, platform):
        platform.provisioning.provision("globex", "Globex")
        acme = platform.metadata.glossary("acme")
        glossary = acme.glossary("finance")
        acme.term(glossary, "Revenue", definition="money in")
        assert platform.metadata.glossary_terms("acme") == ["Revenue"]
        assert platform.metadata.glossary_terms("globex") == []


class TestIntegrationService:
    def test_define_and_run_job(self, platform, warehouse):
        context = platform.tenants.context("acme")
        context.warehouse_db.execute(
            "CREATE TABLE staging_costs (item TEXT, amount REAL)")
        platform.integration.define_job(
            "acme", "load-costs",
            RowsSource([{"item": "a", "amount": "10.5"},
                        {"item": "b", "amount": "oops"}]),
            [TypeCast({"amount": "float"})],
            target_table="staging_costs")
        result = platform.integration.run_job("acme", "load-costs")
        assert result.rows_written == 1
        assert result.rows_rejected == 1
        assert context.warehouse_db.query_value(
            "SELECT COUNT(*) FROM staging_costs") == 1

    def test_runs_are_metered_and_journalled(self, platform):
        context = platform.tenants.context("acme")
        context.warehouse_db.execute("CREATE TABLE t (x INTEGER)")
        platform.integration.define_job(
            "acme", "j", RowsSource([{"x": 1}, {"x": 2}]),
            target_table="t")
        platform.integration.run_job("acme", "j")
        assert platform.billing.usage("acme")["etl_rows"] == 2
        history = platform.integration.run_history("acme")
        assert history[0]["job"] == "j"

    def test_duplicate_job_name_rejected(self, platform):
        platform.integration.define_job(
            "acme", "j", RowsSource([]))
        with pytest.raises(ServiceError):
            platform.integration.define_job(
                "acme", "j", RowsSource([]))

    def test_table_copy_between_databases(self, platform):
        from repro.engine import Database

        staging = Database("staging")
        staging.execute("CREATE TABLE src (x INTEGER)")
        staging.execute("INSERT INTO src VALUES (1), (2), (3)")
        platform.resources.register_database("acme", "staging", staging)
        context = platform.tenants.context("acme")
        context.warehouse_db.execute("CREATE TABLE dst (x INTEGER)")
        platform.integration.define_table_copy(
            "acme", "copy", "staging", "src", "warehouse", "dst",
            operators=[Filter(lambda row: row["x"] > 1)])
        result = platform.integration.run_job("acme", "copy")
        assert result.rows_written == 2

    def test_job_graph_runs_in_dependency_order(self, platform):
        context = platform.tenants.context("acme")
        context.warehouse_db.execute("CREATE TABLE a (x INTEGER)")
        context.warehouse_db.execute("CREATE TABLE b (x INTEGER)")
        platform.integration.define_job(
            "acme", "load-a", RowsSource([{"x": 1}]), target_table="a")
        platform.integration.define_job(
            "acme", "load-b", RowsSource([{"x": 2}]), target_table="b")
        results = platform.integration.run_graph(
            "acme", {"load-b": ["load-a"], "load-a": []})
        assert set(results) == {"load-a", "load-b"}

    def test_scheduling_via_virtual_clock(self, platform):
        context = platform.tenants.context("acme")
        context.warehouse_db.execute("CREATE TABLE ticks (x INTEGER)")
        platform.integration.define_job(
            "acme", "tick", RowsSource([{"x": 1}]),
            target_table="ticks")
        platform.integration.schedule_job(
            "acme", "tick", Schedule(every_minutes=30))
        fired = platform.integration.advance_clock(95)
        assert fired == 3
        assert context.warehouse_db.query_value(
            "SELECT COUNT(*) FROM ticks") == 3


class TestAnalysisService:
    def test_define_and_query_cube(self, platform, warehouse):
        platform.analysis.define_cube(
            "acme", warehouse.cube_definition())
        cells = platform.analysis.query(
            "acme", "RetailSales", ["revenue"], [("Store", "region")])
        assert len(cells.rows) == 3
        assert platform.billing.usage("acme")["query"] == 1

    def test_duplicate_cube_rejected(self, platform, warehouse):
        platform.analysis.define_cube(
            "acme", warehouse.cube_definition())
        with pytest.raises(ServiceError):
            platform.analysis.define_cube(
                "acme", warehouse.cube_definition())

    def test_mdx_round_trip(self, platform, warehouse):
        platform.analysis.define_cube(
            "acme", warehouse.cube_definition())
        cells = platform.analysis.execute_mdx(
            "acme",
            "SELECT {[Measures].[quantity]} ON COLUMNS, "
            "{[Product].[category].Members} ON ROWS "
            "FROM [RetailSales]")
        assert {row["Product.category"] for row in cells.rows} == \
            {"Food", "Electronics", "Clothing"}

    def test_navigator_session(self, platform, warehouse):
        platform.analysis.define_cube(
            "acme", warehouse.cube_definition())
        navigator = platform.analysis.navigator(
            "acme", "RetailSales", measures=["revenue"])
        navigator.drill_down("Time")
        view = navigator.current_view()
        assert view.axes == [("Time", "year")]
        assert len(view.rows) == 2  # 2009 and 2010

    def test_members_listing(self, platform, warehouse):
        platform.analysis.define_cube(
            "acme", warehouse.cube_definition())
        assert platform.analysis.members(
            "acme", "RetailSales", "Store", "region") == \
            ["North", "South", "West"]

    def test_unknown_cube_rejected(self, platform):
        with pytest.raises(ServiceError):
            platform.analysis.query("acme", "Ghost", ["x"])


REPORT_DESIGN = """
<report name="store-revenue">
  <parameter name="region" type="str" default="North"/>
  <data-set name="sales" query="SELECT s.city AS city,
    SUM(f.revenue) AS revenue FROM fact_sales f
    JOIN dim_store s ON f.store_key = s.store_key
    WHERE s.region = :region GROUP BY s.city"/>
  <table name="cities" data-set="sales" columns="city,revenue"/>
  <chart name="rev" kind="bar" data-set="sales"
         category="city" value="revenue"/>
</report>
"""


class TestReportingService:
    def test_report_group_management(self, platform):
        platform.reporting.create_report_group("acme", "finance")
        assert platform.reporting.report_groups("acme") == ["finance"]
        with pytest.raises(ServiceError):
            platform.reporting.create_report_group("acme", "finance")

    def test_upload_and_run_birt_report(self, platform, warehouse):
        platform.reporting.create_report_group("acme", "finance")
        name = platform.reporting.upload_report(
            "acme", "finance", REPORT_DESIGN, "warehouse")
        assert name == "store-revenue"
        output = platform.reporting.run_report("acme", name)
        cities = output.element("cities")
        assert len(cities.rows) == 2  # North region has 2 cities
        assert platform.billing.usage("acme")["report"] == 1

    def test_run_report_with_parameter(self, platform, warehouse):
        platform.reporting.create_report_group("acme", "finance")
        platform.reporting.upload_report(
            "acme", "finance", REPORT_DESIGN, "warehouse")
        output = platform.reporting.run_report(
            "acme", "store-revenue", {"region": "South"})
        assert output.parameters["region"] == "South"

    def test_run_report_over_the_web(self, platform, warehouse):
        platform.reporting.create_report_group("acme", "finance")
        name = platform.reporting.upload_report(
            "acme", "finance", REPORT_DESIGN, "warehouse")
        login = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme", "password": "changeme"})
        headers = {"X-Auth-Token": login.json()["token"]}
        path = f"/tenants/acme/reports/{name}/run"
        first, again = [platform.web.request(
            "POST", path, headers=headers, body={"region": "South"})
            for _ in range(2)]
        assert first.status == 200, first.body
        assert again.json() == first.json()
        output = platform.reporting.run_report(
            "acme", name, {"region": "South"})
        expected = {"report": name, "elements": [
            {"name": "cities", "rows": output.element("cities").rows},
            {"name": "rev", "series": output.element("rev").series}]}
        assert first.json() == json.loads(json.dumps(expected))
        assert len(first.json()["elements"][0]["rows"]) == 2

    def test_upload_requires_existing_group(self, platform):
        with pytest.raises(ServiceError):
            platform.reporting.upload_report(
                "acme", "ghost-group", REPORT_DESIGN, "warehouse")

    def test_adhoc_dashboard_flow(self, platform, warehouse):
        platform.metadata.create_dataset(
            "acme", "sales", "warehouse",
            "SELECT s.region AS region, f.revenue AS revenue "
            "FROM fact_sales f "
            "JOIN dim_store s ON f.store_key = s.store_key")
        builder = platform.reporting.adhoc_builder("acme", "sales")
        assert builder.bar_chart("rev", "region", "revenue").series
        definition = DashboardDefinition("overview")
        definition.add_row(definition.chart(
            "sales", "rev", "bar", "region", "revenue"))
        platform.reporting.define_dashboard("acme", definition)
        assert platform.reporting.dashboards("acme") == ["overview"]
        assert platform.reporting.render_dashboard(
            "acme", "overview").element("rev") is not None

    def test_duplicate_dashboard_rejected(self, platform):
        platform.metadata.create_dataset(
            "acme", "one", "warehouse", "SELECT 1 AS one")
        definition = DashboardDefinition("d")
        definition.add_row(definition.table("one", "t", ["one"]))
        platform.reporting.define_dashboard("acme", definition)
        with pytest.raises(ServiceError,
                           match="tenant 'acme' already has dashboard 'd'"):
            platform.reporting.define_dashboard("acme", definition)


class TestDeliveryService:
    @pytest.fixture
    def dashboard(self, platform, warehouse):
        platform.metadata.create_dataset(
            "acme", "sales", "warehouse",
            "SELECT s.region AS region, f.revenue AS revenue "
            "FROM fact_sales f "
            "JOIN dim_store s ON f.store_key = s.store_key")
        builder = platform.reporting.adhoc_builder("acme", "sales")
        dashboard = Dashboard("overview", "regional revenue")
        dashboard.add_row(
            builder.bar_chart("rev", "region", "revenue"),
            builder.data_table("detail", ["region", "revenue"],
                               limit=5))
        return dashboard

    def test_web_channel_is_html(self, platform, dashboard):
        html = platform.delivery.deliver_dashboard(
            dashboard, Channel.WEB)
        assert html.startswith("<!DOCTYPE html>")
        assert "overview" in html

    def test_mobile_channel_is_compact(self, platform, dashboard):
        text = platform.delivery.deliver_dashboard(
            dashboard, Channel.MOBILE)
        assert text.startswith("[overview]")
        assert "rev" in text and "detail" in text

    def test_office_channel_is_csv(self, platform, dashboard):
        export = platform.delivery.deliver_dashboard(
            dashboard, Channel.OFFICE)
        assert "# rev" in export
        assert "category,value" in export

    def test_webservice_channel_is_structured(self, platform, dashboard):
        payload = platform.delivery.deliver_dashboard(
            dashboard, Channel.WEB_SERVICE)
        assert payload["dashboard"] == "overview"
        kinds = {element["type"] for element in payload["elements"]}
        assert kinds == {"chart", "table"}


class TestServiceConfiguration:
    """The admin layer stores per-tenant service settings."""

    def test_configuration_readback(self, platform):
        platform.admin.configure("acme", "reporting", max_rows=500)
        platform.admin.configure("acme", "reporting", theme="dark")
        config = platform.admin.configuration("acme", "reporting")
        assert config == {"max_rows": 500, "theme": "dark"}
        assert platform.admin.configuration("acme", "analysis") == {}


class TestMetadataInterchange:
    """XMI metadata interchange between tenants (paper §3.3)."""

    def test_glossary_roundtrips_between_tenants(self, platform):
        platform.provisioning.provision("globex", "Globex")
        source = platform.metadata.glossary("acme")
        glossary = source.glossary("finance")
        source.term(glossary, "Revenue", definition="money in")
        source.term(glossary, "Margin")

        document = platform.metadata.export_glossary_xmi("acme")
        imported = platform.metadata.import_glossary_xmi(
            "globex", document)
        assert imported == 3  # glossary + 2 terms
        assert platform.metadata.glossary_terms("globex") == \
            ["Margin", "Revenue"]

    def test_ontology_survives_interchange(self, platform):
        platform.provisioning.provision("globex", "Globex")
        odm = platform.metadata.ontology("acme")
        ontology = odm.ontology("commerce")
        odm.ont_class(ontology, "Revenue", synonyms=["turnover"])

        document = platform.metadata.export_glossary_xmi("acme")
        platform.metadata.import_glossary_xmi("globex", document)
        other = platform.metadata.ontology("globex")
        revenue = other.extent.find_by_name("OntClass", "Revenue")
        assert "turnover" in other.vocabulary_of(revenue)

    def test_malformed_document_rejected(self, platform):
        from repro.errors import XmiError

        with pytest.raises(XmiError):
            platform.metadata.import_glossary_xmi("acme", "<broken")


class TestDatamartMaterialization:
    def test_ctas_into_warehouse(self, platform, warehouse):
        rows = platform.integration.materialize_datamart(
            "acme", "mart_region",
            "SELECT s.region AS region, SUM(f.revenue) AS revenue "
            "FROM fact_sales f "
            "JOIN dim_store s ON f.store_key = s.store_key "
            "GROUP BY s.region")
        assert rows == 3
        target = platform.tenants.context("acme").warehouse_db
        assert target.query_value(
            "SELECT COUNT(*) FROM mart_region") == 3
        assert platform.billing.usage("acme")["etl_rows"] == 3

    def test_refresh_rebuilds(self, platform, warehouse):
        platform.integration.materialize_datamart(
            "acme", "mart", "SELECT region FROM dim_store")
        target = platform.tenants.context("acme").warehouse_db
        target.execute("INSERT INTO dim_store VALUES (99, 'X', 'Y')")
        rows = platform.integration.materialize_datamart(
            "acme", "mart", "SELECT region FROM dim_store",
            refresh=True)
        assert rows == 7

    def test_failed_refresh_keeps_the_old_datamart(self, platform,
                                                   warehouse):
        from repro.errors import EngineError

        platform.integration.materialize_datamart(
            "acme", "mart", "SELECT region FROM dim_store")
        target = platform.tenants.context("acme").warehouse_db
        before = target.query("SELECT region FROM mart")
        with pytest.raises(EngineError):
            platform.integration.materialize_datamart(
                "acme", "mart", "SELECT no_such_column FROM dim_store",
                refresh=True)
        assert target.query("SELECT region FROM mart") == before
        assert not target.in_transaction

    def test_existing_table_without_refresh_fails(self, platform,
                                                  warehouse):
        from repro.errors import CatalogError

        platform.integration.materialize_datamart(
            "acme", "mart", "SELECT region FROM dim_store")
        with pytest.raises(CatalogError):
            platform.integration.materialize_datamart(
                "acme", "mart", "SELECT region FROM dim_store")


class TestReportDelivery:
    def test_report_output_delivered_on_all_channels(self, platform,
                                                     warehouse):
        platform.reporting.create_report_group("acme", "finance")
        platform.reporting.upload_report(
            "acme", "finance", REPORT_DESIGN, "warehouse")
        output = platform.reporting.run_report("acme", "store-revenue")

        html = platform.delivery.deliver_report(output, Channel.WEB)
        assert html.startswith("<!DOCTYPE html>")
        assert "store-revenue" in html

        mobile = platform.delivery.deliver_report(
            output, Channel.MOBILE)
        assert mobile.startswith("[store-revenue]")

        office = platform.delivery.deliver_report(
            output, Channel.OFFICE)
        assert "# cities" in office

        payload = platform.delivery.deliver_report(
            output, Channel.WEB_SERVICE)
        assert payload["dashboard"] == "store-revenue"
        assert len(payload["elements"]) == 2
