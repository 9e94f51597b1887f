"""Grand integration tests: the full ODBIS story across all layers.

These tests intentionally cross every module boundary: provisioning →
model-driven design → integration (incl. SCD2 and scheduling) →
analysis → reporting → delivery → metering → invoicing, for multiple
tenants at once, plus orchestration via BPM + rules and ESB events.
"""

import datetime

import pytest

from repro import OdbisPlatform, TenancyMode
from repro.bpm import (
    ExclusiveGateway,
    ProcessDefinition,
    ProcessEngine,
    RuleTask,
    ServiceTask,
)
from repro.core import Channel
from repro.core.resources import EVENTS_CHANNEL
from repro.etl import RowsSource, Schedule, SurrogateKey
from repro.etl.scd import ScdType2Load
from repro.mda import (
    BusinessRequirement,
    CimModel,
    DimensionSpec,
    MeasureSpec,
)
from repro.reporting import DashboardDefinition
from repro.rules import Fact, parse_rules


def sales_cim():
    return CimModel("retail", [
        BusinessRequirement(
            subject="Sales",
            measures=[MeasureSpec("revenue")],
            dimensions=[
                DimensionSpec("Time", ["year", "month"], is_time=True),
                DimensionSpec("Store", ["region", "city"]),
            ]),
    ])


class TestFullPlatformStory:
    @pytest.fixture
    def platform(self):
        return OdbisPlatform(mode=TenancyMode.SHARED)

    def test_design_load_analyse_report_bill(self, platform):
        """One tenant, the complete on-demand BI loop."""
        # 1. Provision + project + model-driven design.
        platform.provisioning.provision("acme", "Acme", plan="team")
        platform.mddws.create_project("acme", "dw")
        summary = platform.mddws.design_warehouse("acme", sales_cim())
        assert summary["deployed"]["cubes"] == ["Sales"]

        # 2. Integration: load dimensions and facts on a schedule.
        platform.integration.define_job(
            "acme", "load-time",
            RowsSource([{"year": "2009", "month": "Jan"},
                        {"year": "2009", "month": "Feb"}]),
            [SurrogateKey("time_key")], target_table="dim_time")
        platform.integration.define_job(
            "acme", "load-store",
            RowsSource([{"region": "North", "city": "Lille"},
                        {"region": "South", "city": "Nice"}]),
            [SurrogateKey("store_key")], target_table="dim_store")
        platform.integration.define_job(
            "acme", "load-fact",
            RowsSource([
                {"time_key": 1, "store_key": 1, "revenue": 100.0},
                {"time_key": 1, "store_key": 2, "revenue": 50.0},
                {"time_key": 2, "store_key": 1, "revenue": 70.0},
            ]),
            target_table="fact_sales")
        platform.integration.run_graph("acme", {
            "load-time": [], "load-store": [],
            "load-fact": ["load-time", "load-store"],
        })

        # 3. Analysis: MDX over the generated cube.
        cells = platform.analysis.execute_mdx(
            "acme",
            "SELECT {[Measures].[revenue]} ON COLUMNS, "
            "{[Store].[region].Members} ON ROWS FROM [Sales]")
        assert cells.cell(["North"], "revenue") == 170.0
        assert cells.cell(["South"], "revenue") == 50.0

        # 4. Reporting: dataset -> dashboard -> delivery channels.
        platform.metadata.create_dataset(
            "acme", "by-region", "warehouse",
            "SELECT s.region AS region, SUM(f.revenue) AS revenue "
            "FROM fact_sales f "
            "JOIN dim_store s ON f.store_key = s.store_key "
            "GROUP BY s.region")
        builder = platform.reporting.adhoc_builder("acme", "by-region")
        assert dict(builder.bar_chart("rev", "region", "revenue").series) \
            == {"North": 170.0, "South": 50.0}
        definition = DashboardDefinition("exec")
        definition.add_row(definition.chart(
            "by-region", "rev", "bar", "region", "revenue"))
        platform.reporting.define_dashboard("acme", definition)
        assert platform.reporting.dashboards("acme") == ["exec"]
        delivered = platform.delivery.deliver_dashboard(
            platform.reporting.render_dashboard("acme", "exec"),
            Channel.WEB_SERVICE)
        series = {entry["category"]: entry["value"]
                  for entry in delivered["elements"][0]["series"]}
        assert series == {"North": 170.0, "South": 50.0}

        # 5. Everything was metered; the invoice reflects it.
        usage = platform.billing.usage("acme")
        assert usage["etl_rows"] == 7
        assert usage["query"] >= 2
        assert usage["dashboard"] == 1
        invoice = platform.billing.invoice("acme", "team")
        assert invoice.total >= 249.0

    def test_two_tenants_full_isolation(self, platform):
        """Same design for two tenants; data never crosses."""
        for tenant, revenue in (("acme", 100.0), ("globex", 999.0)):
            platform.provisioning.provision(tenant, tenant.title())
            platform.mddws.create_project(tenant, f"{tenant}-dw")
            platform.mddws.design_warehouse(tenant, sales_cim())
            platform.integration.define_job(
                tenant, "load-time",
                RowsSource([{"year": "2009", "month": "Jan"}]),
                [SurrogateKey("time_key")], target_table="dim_time")
            platform.integration.define_job(
                tenant, "load-store",
                RowsSource([{"region": "R", "city": "C"}]),
                [SurrogateKey("store_key")], target_table="dim_store")
            platform.integration.define_job(
                tenant, "load-fact",
                RowsSource([{"time_key": 1, "store_key": 1,
                             "revenue": revenue}]),
                target_table="fact_sales")
            platform.integration.run_graph(tenant, {
                "load-time": [], "load-store": [],
                "load-fact": ["load-time", "load-store"],
            })
        acme_total = platform.analysis.engine(
            "acme", "Sales").grand_total("revenue")
        globex_total = platform.analysis.engine(
            "globex", "Sales").grand_total("revenue")
        assert acme_total == 100.0
        assert globex_total == 999.0
        # Shared operational DB, separate warehouses.
        assert platform.tenants.context("acme").operational_db is \
            platform.tenants.context("globex").operational_db
        assert platform.tenants.context("acme").warehouse_db is not \
            platform.tenants.context("globex").warehouse_db

    def test_scd2_history_in_designed_warehouse(self, platform):
        """History tracking from TCIM through to SCD2 loads."""
        from repro.mda import TechnicalRequirement

        platform.provisioning.provision("acme", "Acme")
        platform.mddws.create_project("acme", "dw")
        cim = sales_cim()
        cim.technical = TechnicalRequirement(history_tracking=True)
        platform.mddws.design_warehouse("acme", cim)
        warehouse = platform.tenants.context("acme").warehouse_db
        # The PSM emitted validity columns; add the SCD2 housekeeping
        # columns the load strategy needs.
        warehouse.execute(
            "ALTER TABLE dim_store ADD COLUMN is_current BOOLEAN")
        warehouse.execute(
            "ALTER TABLE dim_store ADD COLUMN city_id INTEGER")

        def scd_load(rows, when):
            from repro.etl import EtlJob, JobRunner

            job = EtlJob("scd", RowsSource(rows),
                         load=ScdType2Load(
                             warehouse, "dim_store",
                             natural_key=["city_id"],
                             tracked=["region", "city"],
                             effective_date=when,
                             surrogate="store_key"))
            return JobRunner().run(job)

        scd_load([{"city_id": 1, "region": "North", "city": "Lille"}],
                 datetime.date(2009, 1, 1))
        scd_load([{"city_id": 1, "region": "North", "city": "Dunkerque"}],
                 datetime.date(2009, 6, 1))
        history = warehouse.query(
            "SELECT city, is_current FROM dim_store "
            "WHERE city_id = 1 ORDER BY valid_from")
        assert [row["city"] for row in history] == \
            ["Lille", "Dunkerque"]
        assert [row["is_current"] for row in history] == [False, True]

    @staticmethod
    def design_and_seed_dimensions(platform):
        """Tenant acme with the generated Sales star, one member per
        dimension and no facts yet."""
        platform.provisioning.provision("acme", "Acme")
        platform.mddws.create_project("acme", "dw")
        platform.mddws.design_warehouse("acme", sales_cim())
        warehouse = platform.tenants.context("acme").warehouse_db
        warehouse.execute(
            "INSERT INTO dim_time (time_key, year, month) "
            "VALUES (1, '2009', 'Jan')")
        warehouse.execute(
            "INSERT INTO dim_store (store_key, region, city) "
            "VALUES (1, 'North', 'Lille')")

    def test_scheduled_loads_keep_cube_fresh_after_invalidation(
            self, platform):
        self.design_and_seed_dimensions(platform)
        platform.integration.define_job(
            "acme", "nightly-fact",
            RowsSource([{"time_key": 1, "store_key": 1,
                         "revenue": 10.0}]),
            target_table="fact_sales")
        platform.integration.schedule_job(
            "acme", "nightly-fact", Schedule(daily_at="02:00"))
        engine = platform.analysis.engine("acme", "Sales")
        assert engine.grand_total("revenue") is None
        platform.integration.advance_clock(3 * 24 * 60)  # 3 nights
        assert engine.grand_total("revenue") == 30.0

    def test_job_run_shows_in_the_next_mdx_request(self, platform):
        """integration.run_job -> POST /mdx, nothing in between."""
        self.design_and_seed_dimensions(platform)
        platform.integration.define_job(
            "acme", "append-fact",
            RowsSource([{"time_key": 1, "store_key": 1,
                         "revenue": 10.0}]),
            target_table="fact_sales")
        token = platform.web.request(
            "POST", "/login",
            body={"username": "admin@acme",
                  "password": "changeme"}).json()["token"]

        def north_revenue():
            response = platform.web.request(
                "POST", "/tenants/acme/mdx",
                headers={"X-Auth-Token": token},
                body={"statement":
                      "SELECT {[Measures].[revenue]} ON COLUMNS, "
                      "{[Store].[region].Members} ON ROWS "
                      "FROM [Sales]"})
            assert response.status == 200
            return [row["revenue"] for row in response.json()["rows"]]

        platform.integration.run_job("acme", "append-fact")
        assert north_revenue() == [10.0]
        assert north_revenue() == [10.0]
        platform.integration.run_job("acme", "append-fact")
        assert north_revenue() == [20.0]
        assert platform.analysis.execute_mdx(
            "acme", "SELECT {[Measures].[revenue]} ON COLUMNS "
            "FROM [Sales]").rows[0]["revenue"] == 20.0
        assert platform.analysis.engine(
            "acme", "Sales").statistics["cache_hits"] == 1

    def test_esb_carries_platform_events(self, platform):
        events = []
        platform.resources.bus.wiretap(
            EVENTS_CHANNEL, lambda message: events.append(
                (message.payload["tenant"], message.payload["kind"])))
        platform.provisioning.provision("acme", "Acme")
        platform.mddws.create_project("acme", "dw")
        platform.mddws.design_warehouse("acme", sales_cim())
        kinds = [kind for _tenant, kind in events]
        assert "provisioned" in kinds
        assert "cube-defined" in kinds
        assert "dw-deployed" in kinds


class TestBpmOrchestration:
    def test_plan_upgrade_process_with_rules_decision(self):
        """BPM defines the process logic, BRM the decision logic —
        the paper's §3.3 split, used to upgrade heavy tenants."""
        platform = OdbisPlatform()
        platform.provisioning.provision("acme", "Acme", plan="starter")
        platform.billing.meter("acme", "query", 50_000)

        upgrade_rules = parse_rules('''
rule "needs-upgrade"
when
    usage: Usage(queries > 10000)
then
    insert(Upgrade(plan="team"))
end
''')

        def read_usage(variables):
            variables["queries"] = platform.billing.usage(
                "acme").get("query", 0)

        def apply_upgrade(variables):
            context = platform.tenants.context("acme")
            context.plan = variables["new_plan"]

        definition = ProcessDefinition("plan-review", [
            ServiceTask("read-usage", read_usage,
                        next_node="decide"),
            RuleTask(
                "decide", upgrade_rules,
                publish=lambda v: [Fact("Usage",
                                        queries=v["queries"])],
                harvest=lambda memory, v: v.update(
                    new_plan=(memory.by_type("Upgrade")[0]["plan"]
                              if memory.by_type("Upgrade")
                              else None)),
                next_node="route"),
            ExclusiveGateway("route", [
                (lambda v: v["new_plan"] is not None, "apply"),
            ], default="done"),
            ServiceTask("apply", apply_upgrade, next_node="done"),
            ServiceTask("done", lambda v: None),
        ], "read-usage")

        instance = ProcessEngine().start(definition)
        assert instance.history == [
            "read-usage", "decide", "route", "apply", "done"]
        assert platform.tenants.context("acme").plan == "team"
        # The new plan's invoice absorbs the usage overage better.
        starter = platform.billing.invoice("acme", "starter").total
        team = platform.billing.invoice("acme", "team").total
        assert team < starter
