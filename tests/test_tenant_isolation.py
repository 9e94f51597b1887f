"""Tenant isolation at the SQL front door: platform state is out of reach.

Platform state — accounts (``sec_*``), metering (``usage_events``), the
tenant registry, the ETL run history, job postures and clock, the ESB
dead letters, and the BI artefacts (the meta-data service's data
sources and data sets, the reporting service's report groups, reports
and dashboard definitions) — lives in the platform database, which is
never a tenant's operational database.  So SQL a tenant sends to
``POST /tenants/{tenant}/sql`` cannot read, change or drop it: each
statement below fails with a 4xx saying there is no such table, the
platform database is left byte-for-byte as it was, and the other
tenant's admin still logs in.  Checked in SHARED, ISOLATED and sharded
(``shards=2``) deployments.

Out of scope: in SHARED mode (and on a shard that hosts several
tenants) the tenants' *operational* tables — the ones tenants create
through ``/sql`` themselves — are still one set of tables, so tenant
A's SQL can read tenant B's rows there.  Closing that needs table
names resolved per tenant, which this battery does not cover.
"""

import pytest

from repro.core import OdbisPlatform, TenancyMode
from repro.core.resilience import FakeClock
from repro.etl import RowsSource, Schedule
from repro.reporting import DashboardDefinition

pytestmark = pytest.mark.isolation

TENANTS = ("acme", "globex")

PLATFORM_TABLES = ("platform_tenants", "etl_runs", "etl_jobs",
                   "etl_clock", "esb_dead_letters")

ARTEFACT_TABLES = ("mds_datasources", "mds_datasets", "rs_report_groups",
                   "rs_reports", "rs_dashboards")

STATEMENTS = (
    "SELECT username, tenant FROM sec_users",
    "UPDATE sec_users SET enabled = FALSE WHERE tenant = 'globex'",
    "DROP TABLE usage_events",
    "SELECT tenant, name, password FROM mds_datasources",
    "UPDATE mds_datasources SET url = 'repro://elsewhere' "
    "WHERE tenant = 'globex'",
    # Would bypass define_dashboard's lint gate.
    "INSERT INTO rs_dashboards VALUES ('acme', 'rogue', '{}')",
) + tuple(f"SELECT * FROM {table}"
          for table in PLATFORM_TABLES + ARTEFACT_TABLES) + (
    "DROP TABLE mds_datasets",
)

REPORT_DESIGN = """
<report name="headcount">
  <data-set name="one" query="SELECT 1 AS n"/>
  <table name="t" data-set="one" columns="n"/>
</report>
"""


def fill_platform_state(platform):
    """Put a row in every platform table the statements aim at."""
    integration = platform.integration
    integration.define_job("globex", "nightly", RowsSource([{"x": 1}]))
    integration.schedule_job("globex", "nightly",
                             Schedule(every_minutes=10))
    integration.advance_clock(10)
    bus = platform.resources.bus
    bus.create_channel("orders")

    def broken(message):
        raise RuntimeError("handler down")

    bus.service_activator("orders", broken)
    bus.send("orders", {"order": 1})
    platform.billing.flush()
    platform.metadata.create_dataset(
        "globex", "staff", "warehouse", "SELECT 1 AS n")
    reporting = platform.reporting
    reporting.create_report_group("globex", "hr")
    reporting.upload_report("globex", "hr", REPORT_DESIGN, "warehouse")
    definition = DashboardDefinition("people")
    definition.add_row(definition.table("staff", "t", ["n"]))
    reporting.define_dashboard("globex", definition)


@pytest.fixture(scope="module", params=["shared", "isolated", "shards"])
def deployment(request, tmp_path_factory):
    """(platform, acme's auth headers) for one deployment shape."""
    if request.param == "shards":
        platform = OdbisPlatform(
            data_dir=tmp_path_factory.mktemp("isolation"), fsync="off",
            shards=2, clock=FakeClock())
    else:
        platform = OdbisPlatform(mode=TenancyMode(request.param),
                                 clock=FakeClock())
    for tenant in TENANTS:
        platform.provisioning.provision(tenant, tenant.title(),
                                        plan="team")
    fill_platform_state(platform)
    login = platform.web.request(
        "POST", "/login",
        body={"username": "admin@acme", "password": "changeme"})
    yield platform, {"X-Auth-Token": login.json()["token"]}
    if platform.data_dir is not None:
        platform.close()
    platform.gateway.shutdown()


def test_every_platform_table_holds_state(deployment):
    platform, _ = deployment
    database = platform.tenants.platform_db
    for table in PLATFORM_TABLES + ARTEFACT_TABLES + ("sec_users",
                                                      "usage_events"):
        assert database.query_value(f"SELECT COUNT(*) FROM {table}"), \
            table


@pytest.mark.parametrize("sql", STATEMENTS)
def test_tenant_sql_cannot_name_a_platform_table(deployment, sql):
    platform, headers = deployment
    database = platform.tenants.platform_db
    before = database.state_fingerprint()

    response = platform.web.request(
        "POST", "/tenants/acme/sql", headers=headers, body={"sql": sql})

    assert 400 <= response.status < 500, response.body
    assert "no such table" in response.json()["error"]
    assert database.state_fingerprint() == before
    platform.admin.login("admin@globex", "changeme")
