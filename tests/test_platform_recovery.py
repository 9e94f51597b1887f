"""Platform-wide crash recovery: the data-directory mode.

An :class:`OdbisPlatform` built with ``data_dir=`` persists every
database through a WAL, its own platform database included, and keeps
its platform state (tenant registry, ETL run history, scheduler posture
and clock, ESB dead letters, BI artefacts) as tables there.  Constructing a second
platform over the same directory *is* crash recovery — these tests
kill platforms (politely and mid-write) and assert the successor
serves the same tenants, data, views, quarantine postures and dead
letters.

Also hosts the gateway stale-cache LRU tests (satellite b): the
degraded-serving cache is bounded, evicts least-recently-used, and a
stale hit counts as a use.
"""

import pytest

from repro.core import OdbisPlatform, RequestGateway, TenancyMode
from repro.core import gateway as gateway_module
from repro.core.gateway import DEFAULT_STALE_CACHE_CAPACITY
from repro.core.integration_service import RUN_HISTORY_PER_JOB
from repro.core.tenancy import TenantManager
from repro.errors import TenantError
from repro.etl import CallableSource, RowsSource, Schedule
from repro.reporting import DashboardDefinition
from repro.web import JsonResponse, WebApplication

TENANT = "acme"


def build_platform(data_dir, fsync="off"):
    return OdbisPlatform(mode=TenancyMode.ISOLATED, data_dir=data_dir,
                         fsync=fsync)


def populate(platform):
    """Exercise every durable stream; return the facts to re-check."""
    platform.provisioning.provision(TENANT, "Acme Corp", plan="team")
    platform.provisioning.provision("globex", "Globex", plan="starter")
    warehouse = platform.tenants.context(TENANT).warehouse_db
    warehouse.execute("CREATE TABLE sales (id INTEGER PRIMARY KEY, "
                      "region TEXT, amount INTEGER)")
    warehouse.executemany(
        "INSERT INTO sales (id, region, amount) VALUES (?, ?, ?)",
        [(i, "emea" if i % 2 else "apac", i * 10)
         for i in range(1, 21)])
    warehouse.execute("CREATE VIEW big_sales AS SELECT id, amount "
                      "FROM sales WHERE amount > 100")

    # A dead letter: a broken channel handler.
    bus = platform.resources.bus
    bus.create_channel("orders")

    def broken(message):
        raise RuntimeError("handler down")

    bus.service_activator("orders", broken)
    bus.send("orders", {"order": 1})

    # ETL: one healthy scheduled job, one that quarantines.
    integration = platform.integration
    warehouse.execute("CREATE TABLE ticks (x INTEGER)")
    integration.define_job(TENANT, "tick", RowsSource([{"x": 1}]),
                           target_table="ticks")
    integration.schedule_job(TENANT, "tick", Schedule(every_minutes=30))

    def always_down():
        raise OSError("upstream gone")

    integration.define_job(TENANT, "doomed",
                           CallableSource(always_down),
                           target_table="ticks")
    integration.schedule_job(TENANT, "doomed",
                             Schedule(every_minutes=10))
    integration.advance_clock(60)  # quarantines "doomed", runs "tick"
    assert integration.quarantined_jobs(TENANT) == ["doomed"]

    # A platform operator account (to hit /admin/health later).
    platform.admin.create_account("root", "s3cret",
                                  roles=["platform-admin"])
    return {
        "warehouse_fingerprint": warehouse.state_fingerprint(),
        "dead_letter_ids": [message.message_id
                            for message in bus.dead_letters],
        "run_history": integration.run_history(TENANT),
        "clock": integration.scheduler.now,
    }


def redefine_jobs(platform):
    """Re-register the job *code* after a restart (callables cannot be
    stored); recovered scheduler state re-attaches by name."""
    integration = platform.integration
    integration.define_job(TENANT, "tick", RowsSource([{"x": 1}]),
                           target_table="ticks")
    integration.schedule_job(TENANT, "tick", Schedule(every_minutes=30))

    def always_down():
        raise OSError("upstream gone")

    integration.define_job(TENANT, "doomed",
                           CallableSource(always_down),
                           target_table="ticks")
    integration.schedule_job(TENANT, "doomed",
                             Schedule(every_minutes=10))


class TestPlatformRoundTrip:
    def test_everything_survives_a_restart(self, tmp_path):
        first = build_platform(tmp_path)
        facts = populate(first)
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            # Tenants, plans and their warehouse state.
            assert sorted(second.tenants.tenant_ids()) \
                == ["acme", "globex"]
            assert second.tenants.context(TENANT).plan == "team"
            warehouse = second.tenants.context(TENANT).warehouse_db
            assert warehouse.state_fingerprint() \
                == facts["warehouse_fingerprint"]
            assert warehouse.query_value(
                "SELECT COUNT(*) FROM big_sales") == 10

            # Dead letters, identity preserved.
            recovered_ids = [message.message_id for message
                             in second.resources.bus.dead_letters]
            assert recovered_ids == facts["dead_letter_ids"]

            # ETL: clock, run history and quarantine posture.
            integration = second.integration
            assert integration.scheduler.now == facts["clock"]
            assert integration.run_history(TENANT) \
                == facts["run_history"]
            redefine_jobs(second)
            assert integration.quarantined_jobs(TENANT) == ["doomed"]

            # The recovered security store authenticates both the
            # tenant admin and the operator account.
            second.admin.login(f"admin@{TENANT}", "changeme")
            second.admin.login("root", "s3cret")
        finally:
            second.close()
            second.gateway.shutdown()

    def test_unquarantine_survives_a_restart(self, tmp_path):
        first = build_platform(tmp_path)
        populate(first)
        first.integration.unquarantine_job(TENANT, "doomed")
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            redefine_jobs(second)
            assert second.integration.quarantined_jobs(TENANT) == []
        finally:
            second.close()
            second.gateway.shutdown()

    def test_checkpoint_then_snapshot_recovery(self, tmp_path):
        first = build_platform(tmp_path)
        facts = populate(first)
        ordinals = first.checkpoint()
        assert ordinals["dw-acme"] == 1
        # Post-checkpoint delta: one more committed row.
        warehouse = first.tenants.context(TENANT).warehouse_db
        warehouse.execute("INSERT INTO sales (id, region, amount) "
                          "VALUES (99, 'apac', 990)")
        delta_fingerprint = warehouse.state_fingerprint()
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            recovered = second.tenants.context(TENANT).warehouse_db
            assert recovered.recovery_info["snapshot_loaded"] is True
            assert recovered.recovery_info[
                "transactions_replayed"] == 1
            assert recovered.state_fingerprint() == delta_fingerprint
        finally:
            second.close()
            second.gateway.shutdown()

    def test_checkpoint_requires_a_data_dir(self):
        platform = OdbisPlatform(mode=TenancyMode.ISOLATED)
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            platform.checkpoint()
        platform.gateway.shutdown()

    def test_repeated_restarts_are_stable(self, tmp_path):
        """Recovery replay must be idempotent: three generations of
        the same platform converge, never duplicating defaults,
        datasources, accounts or registry rows."""
        first = build_platform(tmp_path)
        facts = populate(first)
        first.close()
        first.gateway.shutdown()
        for _ in range(2):
            platform = build_platform(tmp_path)
            warehouse = platform.tenants.context(TENANT).warehouse_db
            assert warehouse.state_fingerprint() \
                == facts["warehouse_fingerprint"]
            sources = platform.metadata.datasources(TENANT)
            assert [entry["name"] for entry in sources] \
                == ["warehouse"]
            accounts = platform.admin.accounts_of_tenant(TENANT)
            assert accounts.count(f"admin@{TENANT}") == 1
            platform.close()
            platform.gateway.shutdown()


class TestPlatformStateTables:
    def test_deactivation_survives_a_restart(self, tmp_path):
        first = build_platform(tmp_path)
        first.provisioning.provision(TENANT, "Acme Corp", plan="team")
        first.provisioning.provision("globex", "Globex")
        first.provisioning.deprovision("globex")
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            second.tenants.require_active(TENANT)
            with pytest.raises(TenantError):
                second.tenants.require_active("globex")
        finally:
            second.close()
            second.gateway.shutdown()

    def test_dead_letters_round_trip_exactly(self, tmp_path):
        first = build_platform(tmp_path)
        first.provisioning.provision(TENANT, "Acme Corp", plan="team")
        bus = first.resources.bus

        def broken(message):
            raise RuntimeError("subscriber down")

        bus.service_activator("platform-events", broken)
        first.resources.publish_event(TENANT, "etl-run", "tick: 1 rows")
        parked = [(message.message_id, message.payload, message.headers)
                  for message in bus.dead_letters]
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            assert parked and [
                (message.message_id, message.payload, message.headers)
                for message in second.resources.bus.dead_letters] \
                == parked
        finally:
            second.close()
            second.gateway.shutdown()

    def test_a_restart_replays_state_not_ticks(self, tmp_path):
        first = build_platform(tmp_path)
        first.provisioning.provision(TENANT, "Acme Corp", plan="team")
        integration = first.integration
        integration.define_job(TENANT, "tick", RowsSource([]))
        integration.schedule_job(TENANT, "tick",
                                 Schedule(every_minutes=1))
        for _ in range(10_000):
            integration.advance_clock(1)
        first.checkpoint()
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            database = second.tenants.platform_db
            assert database.recovery_info["transactions_replayed"] == 0
            assert database.query_value(
                "SELECT COUNT(*) FROM etl_runs WHERE job = 'tick'") \
                <= RUN_HISTORY_PER_JOB
            assert second.integration.scheduler.now == 10_000
            assert not list(tmp_path.rglob("*.journal"))
        finally:
            second.close()
            second.gateway.shutdown()


REPORT_DESIGN = """
<report name="by-region">
  <data-set name="totals" query="SELECT region, SUM(amount) AS total
    FROM sales GROUP BY region"/>
  <table name="t" data-set="totals" columns="region,total"/>
</report>
"""


class TestBiArtefacts:
    def test_every_artefact_comes_back_from_the_platform_log(
            self, tmp_path):
        first = build_platform(tmp_path)
        first.provisioning.provision(TENANT, "Acme Corp", plan="team")
        first.provisioning.provision("globex", "Globex")
        warehouse = first.tenants.context(TENANT).warehouse_db
        warehouse.execute("CREATE TABLE sales (region TEXT, amount REAL)")
        warehouse.execute("INSERT INTO sales VALUES ('emea', 5.0)")
        first.metadata.create_datasource(TENANT, "archive",
                                         "repro://warehouse")
        first.metadata.create_dataset(
            TENANT, "totals", "archive",
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region")
        reporting = first.reporting
        reporting.create_report_group(TENANT, "finance")
        reporting.upload_report(TENANT, "finance", REPORT_DESIGN,
                                "warehouse")
        definition = DashboardDefinition("overview")
        definition.add_row(
            definition.chart("totals", "c", "bar", "region", "total"))
        reporting.define_dashboard(TENANT, definition)
        first.close()
        first.gateway.shutdown()

        second = build_platform(tmp_path)
        try:
            assert second.tenants.platform_db.recovery_info[
                "transactions_replayed"] > 0
            # Replaying provisioning with exist_ok=True found the
            # recovered default data source and added no second one.
            assert [source["name"] for source in
                    second.metadata.datasources(TENANT)] \
                == ["archive", "warehouse"]
            assert [entry["name"] for entry in
                    second.metadata.datasets(TENANT)] == ["totals"]
            assert second.metadata.dataset_rows(TENANT, "totals") \
                == [{"region": "emea", "total": 5.0}]
            reporting = second.reporting
            assert reporting.report_groups(TENANT) == ["finance"]
            assert reporting.reports(TENANT, "finance") == ["by-region"]
            assert reporting.run_report(TENANT, "by-region") \
                .element("t").rows == [{"region": "emea", "total": 5.0}]
            assert reporting.dashboards(TENANT) == ["overview"]
            assert reporting.render_dashboard(TENANT, "overview") \
                .element("c").series == [("emea", 5.0)]
            for tenant in second.tenants.tenant_ids():
                context = second.tenants.context(tenant)
                for database in (context.operational_db,
                                 context.warehouse_db):
                    assert not [name for name in database.table_names()
                                if name.startswith(("mds_", "rs_"))]
        finally:
            second.close()
            second.gateway.shutdown()


class TestTornPlatformLogs:
    def setup_dir(self, tmp_path):
        platform = build_platform(tmp_path)
        platform.provisioning.provision(TENANT, "Acme", plan="team")
        warehouse = platform.tenants.context(TENANT).warehouse_db
        warehouse.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        warehouse.execute("INSERT INTO t (id, v) VALUES (1, 'safe')")
        committed = warehouse.wal.commit_offsets[-1]
        warehouse.execute("INSERT INTO t (id, v) VALUES (2, 'torn')")
        platform.close()
        platform.gateway.shutdown()
        return tmp_path / "tenants" / "dw-acme.wal", committed

    def test_truncated_wal_tail_rolls_back_to_the_commit(
            self, tmp_path):
        wal_path, _ = self.setup_dir(tmp_path)
        wal_path.write_bytes(wal_path.read_bytes()[:-5])

        platform = build_platform(tmp_path)
        try:
            warehouse = platform.tenants.context(TENANT).warehouse_db
            assert warehouse.recovery_info["tail_reason"] in (
                "torn-header", "torn-record")
            rows = warehouse.query("SELECT id, v FROM t ORDER BY id")
            assert rows == [{"id": 1, "v": "safe"}]
        finally:
            platform.close()
            platform.gateway.shutdown()

    def test_bad_checksum_mid_log_keeps_the_prefix(self, tmp_path):
        wal_path, committed = self.setup_dir(tmp_path)
        data = bytearray(wal_path.read_bytes())
        data[committed + 9] ^= 0xFF  # corrupt the next frame's bytes
        wal_path.write_bytes(bytes(data))

        platform = build_platform(tmp_path)
        try:
            warehouse = platform.tenants.context(TENANT).warehouse_db
            assert warehouse.recovery_info["tail_reason"] \
                == "bad-checksum"
            assert warehouse.query_value("SELECT COUNT(*) FROM t") == 1
            # The healed log keeps accepting commits.
            warehouse.execute(
                "INSERT INTO t (id, v) VALUES (3, 'after')")
        finally:
            platform.close()
            platform.gateway.shutdown()


class TestHealthEndpoint:
    def test_admin_health_reports_wal_lag_and_checkpoints(
            self, tmp_path):
        platform = build_platform(tmp_path)
        try:
            populate(platform)
            session = platform.admin.login("root", "s3cret")
            headers = {"X-Auth-Token": session.token}

            response = platform.web.request("GET", "/admin/health",
                                            headers=headers)
            assert response.status == 200
            before = response.json()["tenants"][TENANT]
            assert before["wal_lag"] > 0
            assert before["last_checkpoint"] is None

            platform.checkpoint()
            response = platform.web.request("GET", "/admin/health",
                                            headers=headers)
            after = response.json()["tenants"][TENANT]
            assert after["wal_lag"] == 0
            assert after["last_checkpoint"] == 1
        finally:
            platform.close()
            platform.gateway.shutdown()

    def test_health_omits_wal_fields_without_a_data_dir(self):
        platform = OdbisPlatform(mode=TenancyMode.ISOLATED)
        try:
            platform.provisioning.provision(TENANT, "Acme",
                                            plan="team")
            report = platform.health_report().to_dict()
            entry = report["tenants"].get(TENANT, {})
            assert "wal_lag" not in entry
        finally:
            platform.gateway.shutdown()


class TestStaleCacheLru:
    """Satellite (b): the degraded-serving cache is LRU-bounded."""

    def build(self, monkeypatch, capacity):
        monkeypatch.setattr(gateway_module, "DEFAULT_STALE_CACHE_CAPACITY",
                            capacity)
        web = WebApplication("lru")
        for i in range(5):
            path, n = f"/tenants/{TENANT}/item{i}", i
            web.get(path,
                    (lambda n: lambda request:
                     JsonResponse({"n": n}))(n))
        tenants = TenantManager()
        tenants.register(TENANT, "Acme", "team")
        return RequestGateway(web, tenants, max_workers=2)

    def fetch(self, gateway, i):
        response = gateway.submit(
            "GET", f"/tenants/{TENANT}/item{i}").result(30)
        assert response.status == 200
        return response

    def degraded(self, gateway, i):
        return gateway.submit(
            "GET", f"/tenants/{TENANT}/item{i}").result(30)

    def test_default_capacity(self):
        assert DEFAULT_STALE_CACHE_CAPACITY == 1024

    def test_oldest_entry_is_evicted(self, monkeypatch):
        gateway = self.build(monkeypatch, 3)
        for i in range(4):
            self.fetch(gateway, i)   # item0 filled first, evicted last
        breaker = gateway.breaker(TENANT)
        for _ in range(gateway.breaker_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        # item0 fell off the LRU end: degraded serving has no body
        # for it, but items 1-3 still serve stale.
        assert not self.degraded(gateway, 0).stale
        for i in (1, 2, 3):
            response = self.degraded(gateway, i)
            assert response.stale
            assert response.json()["data"] == {"n": i}
        gateway.shutdown()

    def test_a_stale_hit_counts_as_a_use(self, monkeypatch):
        gateway = self.build(monkeypatch, 3)
        for i in range(3):
            self.fetch(gateway, i)
        breaker = gateway.breaker(TENANT)
        for _ in range(gateway.breaker_threshold):
            breaker.record_failure()
        # Hitting item0 while degraded refreshes its recency...
        assert self.degraded(gateway, 0).stale
        breaker.record_success()
        # ...so the next insertion evicts item1, not item0.
        self.fetch(gateway, 3)
        for _ in range(gateway.breaker_threshold):
            breaker.record_failure()
        assert self.degraded(gateway, 0).stale
        assert not self.degraded(gateway, 1).stale
        assert self.degraded(gateway, 3).stale
        gateway.shutdown()
