"""The response store and the one-snapshot render.

A rendered dashboard (or a data set's rows) is kept by the platform's
response store with what it read, and served again while that stands
(the fresh policy); degraded traffic is answered from the same store
(the stale policy).  Both answer only after authentication and the
tenant wall.  Every render reads one snapshot per database.
"""

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OdbisPlatform
from repro.core.delivery_service import Channel
from repro.core.resilience import FakeClock
from repro.engine import Database
from repro.reporting import DashboardDefinition
from repro.web import JsonResponse

TENANTS = ("clinic-0", "clinic-1")
DASHBOARD = "/tenants/clinic-0/dashboards/overview"
ROWS = "/tenants/clinic-0/datasets/by-severity/rows"
DATASETS = {
    "by-department":
        "SELECT department, COUNT(*) AS admissions, SUM(cost) AS cost "
        "FROM admissions GROUP BY department ORDER BY department",
    "by-severity":
        "SELECT severity, COUNT(*) AS admissions FROM admissions "
        "GROUP BY severity ORDER BY severity",
}


def admission(rng):
    return (rng.choice("ABCD"), rng.choice(("low", "mid", "high")),
            float(rng.randint(1, 500)))


def clinic(seed=0, rows=30, overload=False):
    """Two provisioned tenants; clinic-0 has an ``admissions`` table,
    an unrelated ``other`` table, two GROUP BY data sets and a
    dashboard charting both.  Returns the platform and each tenant's
    auth headers."""
    platform = OdbisPlatform(clock=FakeClock(), overload=overload or None)
    headers = {}
    for tenant in TENANTS:
        platform.provisioning.provision(tenant, tenant, plan="team")
        login = platform.web.request(
            "POST", "/login", body={"username": f"admin@{tenant}",
                                    "password": "changeme"})
        headers[tenant] = {"X-Auth-Token": login.json()["token"]}
    warehouse = platform.tenants.context("clinic-0").warehouse_db
    warehouse.execute("CREATE TABLE admissions (department TEXT, "
                      "severity TEXT, cost REAL)")
    rng = random.Random(seed)
    warehouse.executemany("INSERT INTO admissions VALUES (?, ?, ?)",
                          [admission(rng) for _ in range(rows)])
    warehouse.execute("CREATE TABLE other (n INTEGER)")
    for name, sql in DATASETS.items():
        platform.metadata.create_dataset("clinic-0", name, "warehouse",
                                         sql)
    definition = DashboardDefinition("overview")
    definition.add_row(
        definition.chart("by-department", "by-department", "bar",
                         "department", "admissions"),
        definition.chart("by-severity", "by-severity", "pie",
                         "severity", "admissions"))
    platform.reporting.define_dashboard("clinic-0", definition)
    return platform, headers


def get(platform, path, headers=None, query=None):
    return platform.gateway.submit("GET", path, headers=headers,
                                   query=query).result(30)


def fresh_dashboard(platform):
    """What a fresh render at the current commit delivers."""
    dashboard = platform.reporting.render_dashboard("clinic-0", "overview")
    return JsonResponse(platform.delivery.deliver_dashboard(
        dashboard, Channel.WEB_SERVICE)).json()


def fresh_rows(platform):
    return JsonResponse({"rows": platform.metadata.dataset_rows(
        "clinic-0", "by-severity")}).json()


def totals(delivered):
    """Admissions counted by each chart of the dashboard."""
    return [sum(point["value"] for point in element["series"])
            for element in delivered["elements"]]


# -- satellite: stale answers pass authentication and the tenant wall --------


def degrade(platform, trigger):
    if trigger == "breaker":
        breaker = platform.gateway.breaker("clinic-0")
        for _ in range(platform.gateway.breaker_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
    else:
        brownout = platform.overload.brownout
        for _ in range(200):
            if brownout.level >= 3:
                break
            brownout.observe(0.95)
        assert brownout.level >= 3


@pytest.mark.parametrize("trigger, path", [
    ("breaker", DASHBOARD), ("brownout", "/tenants/clinic-0/reports")])
def test_a_stale_answer_is_given_only_past_the_wall(trigger, path):
    platform, headers = clinic(overload=True)
    try:
        warm = get(platform, path, headers["clinic-0"])
        assert warm.status == 200, warm.body
        degrade(platform, trigger)
        assert get(platform, path).status == 401
        wrong = get(platform, path, headers["clinic-1"])
        assert wrong.status == 403 and "data" not in wrong.json()
        served = get(platform, path, headers["clinic-0"])
        assert served.status == 200 and served.stale
        assert served.json()["data"] == warm.json()
    finally:
        platform.close()


def test_a_stale_sql_answer_is_kept_per_parameters():
    """Under an open breaker a read-only ``/sql`` is answered from what
    the same statement with the same parameters returned, never from
    another parameter's rows."""
    platform, headers = clinic()

    def ask(sql, *params):
        return platform.gateway.submit(
            "POST", "/tenants/clinic-0/sql",
            body={"sql": sql, "params": list(params)},
            headers=headers["clinic-0"]).result(30)

    try:
        ask("CREATE TABLE t (id INTEGER, v TEXT)")
        ask("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        read = "SELECT v FROM t WHERE id = ?"
        warm = ask(read, 1)
        assert warm.status == 200, warm.body
        degrade(platform, "breaker")
        assert ask(read, 1).json()["data"] == warm.json()
        other = ask(read, 2)
        assert other.status == 503 and "data" not in other.json()
    finally:
        platform.close()


# -- satellite: a bad channel is refused before it is rendered or billed ------


def test_an_unknown_channel_meters_nothing():
    platform, headers = clinic()
    renders = []
    render = platform.reporting.render_dashboard
    platform.reporting.render_dashboard = \
        lambda *args: renders.append(args) or render(*args)
    try:
        refused = get(platform, DASHBOARD, headers["clinic-0"],
                      {"channel": "bogus"})
        assert refused.status == 400
        assert "bogus" in refused.json()["error"]
        assert renders == []
        assert platform.billing.usage("clinic-0") == {}
    finally:
        platform.close()


# -- item 12: one render reads one commit ---------------------------------------


def render_with_a_commit_between(seed):
    """Render the dashboard while another thread commits one INSERT
    into ``admissions`` between its two data-set resolutions; returns
    (each chart's total, rows before, rows after)."""
    platform, _headers = clinic(seed=seed, rows=10 + seed % 40)
    warehouse = platform.tenants.context("clinic-0").warehouse_db
    before = warehouse.query_value("SELECT COUNT(*) FROM admissions")
    resolve = platform.metadata.dataset_rows
    resolved = []

    def resolve_then_commit(*args, **kwargs):
        rows = resolve(*args, **kwargs)
        resolved.append(args[1])
        if len(resolved) == 1:
            writer = threading.Thread(target=warehouse.execute, args=(
                "INSERT INTO admissions VALUES ('A', 'low', 1.0)",))
            writer.start()
            writer.join(30)
            assert not writer.is_alive()
        return rows

    platform.metadata.dataset_rows = resolve_then_commit
    try:
        delivered = platform.delivery.deliver_dashboard(
            platform.reporting.render_dashboard("clinic-0", "overview"),
            Channel.WEB_SERVICE)
    finally:
        platform.close()
    assert len(resolved) == 2
    after = warehouse.query_value("SELECT COUNT(*) FROM admissions")
    return totals(delivered), before, after


def test_both_elements_of_a_render_show_one_commit():
    charts, before, after = render_with_a_commit_between(seed=0)
    assert after == before + 1
    assert charts == [before, before]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_both_elements_show_one_commit_for_any_data(seed):
    charts, before, _after = render_with_a_commit_between(seed)
    assert charts == [before, before]


# -- the fresh policy: a served response equals a fresh render ----------------


# Columns named: ADD COLUMN steps widen the table.
INSERT = "INSERT INTO admissions (department, severity, cost) " \
    "VALUES (?, ?, ?)"
STEPS = ("write-read", "update-read", "delete-read", "write-other",
         "create-index", "add-column", "recreate", "open-transaction")


class Clinic:
    """One platform driven by steps; :meth:`check` compares what the
    front door serves with a fresh pass at the same commit."""

    def __init__(self, seed):
        self.platform, self.headers = clinic(seed=seed)
        self.warehouse = self.platform.tenants.context(
            "clinic-0").warehouse_db
        self.rng = random.Random(seed)
        self.count = 0

    def served(self, path):
        response = get(self.platform, path, self.headers["clinic-0"])
        assert response.status == 200, response.body
        return response.json()

    def check(self):
        # Twice: the second GET is a fresh-policy hit when nothing moved.
        for _ in range(2):
            assert self.served(DASHBOARD) == fresh_dashboard(self.platform)
            assert self.served(ROWS) == fresh_rows(self.platform)

    def step(self, name):
        self.count += 1
        execute = self.warehouse.execute
        if name == "write-read":
            execute(INSERT, admission(self.rng))
        elif name == "update-read":
            execute("UPDATE admissions SET severity = 'high' "
                    "WHERE department = ?", (self.rng.choice("ABCD"),))
        elif name == "delete-read":
            execute("DELETE FROM admissions WHERE department = ?",
                    (self.rng.choice("ABCD"),))
        elif name == "write-other":
            execute("INSERT INTO other VALUES (?)", (self.count,))
        elif name == "create-index":
            execute(f"CREATE INDEX ix{self.count} ON admissions (severity)")
        elif name == "add-column":
            execute(f"ALTER TABLE admissions ADD COLUMN c{self.count} "
                    f"INTEGER")
        elif name == "recreate":
            execute("DROP TABLE admissions")
            execute("CREATE TABLE admissions (department TEXT, "
                    "severity TEXT, cost REAL)")
            self.warehouse.executemany(INSERT, [
                admission(self.rng) for _ in range(self.rng.randint(0, 9))])
        else:
            self.open_transaction(commit=self.rng.random() < 0.5)
        self.check()

    def open_transaction(self, commit):
        """Another thread writes ``admissions`` in an open transaction:
        served answers leave it out until it commits."""
        opened, release = threading.Event(), threading.Event()

        def writer():
            self.warehouse.execute("BEGIN")
            try:
                self.warehouse.execute(INSERT, ("Z", "mid", 7.0))
                opened.set()
                release.wait(30)
            finally:
                self.warehouse.execute("COMMIT" if commit else "ROLLBACK")

        thread = threading.Thread(target=writer)
        thread.start()
        assert opened.wait(30)
        try:
            self.check()
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()

    def close(self):
        self.platform.close()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000),
       steps=st.lists(st.sampled_from(STEPS), max_size=8),
       end=st.sampled_from(("none", "deactivate", "deprovision")))
def test_served_responses_equal_a_fresh_render(seed, steps, end):
    driven = Clinic(seed)
    try:
        driven.check()
        for name in steps:
            driven.step(name)
        platform = driven.platform
        if end == "deactivate":
            platform.tenants.deactivate("clinic-0")
        elif end == "deprovision":
            platform.provisioning.deprovision("clinic-0")
        if end != "none":
            assert get(platform, DASHBOARD,
                       driven.headers["clinic-0"]).status == 403
            # Past the gateway, the handler still refuses the tenant.
            assert platform.web.request(
                "GET", DASHBOARD, headers=driven.headers["clinic-0"]
            ).status == 400
    finally:
        driven.close()


def test_warm_requests_are_served_from_the_store(monkeypatch):
    """A repeat GET renders nothing; a write to a read table renders
    once more; a write elsewhere renders nothing."""
    renders = []
    real = DashboardDefinition.render
    monkeypatch.setattr(DashboardDefinition, "render",
                        lambda self, resolve: renders.append(1)
                        or real(self, resolve))
    driven = Clinic(seed=4)
    try:
        driven.check()
        assert len(renders) == 1 + 2   # one served, two fresh passes
        driven.step("write-other")
        assert len(renders) == 3 + 2
        driven.step("write-read")
        assert len(renders) == 5 + 3
    finally:
        driven.close()


def test_deprovisioning_forgets_the_tenants_responses():
    driven = Clinic(seed=1)
    try:
        driven.check()
        other = get(driven.platform, "/tenants/clinic-1/dashboards",
                    driven.headers["clinic-1"])
        assert other.status == 200
        store = driven.platform.responses
        assert len(store._entries) == 3
        driven.platform.provisioning.deprovision("clinic-0")
        assert len(store._entries) == 1
    finally:
        driven.close()


def test_metering_counts_every_request_served():
    """Kept responses are billed as renders are: one ``dashboard`` per
    dashboard GET and one ``query`` per data-set GET, in the same
    ``usage_events`` rows a pass without the store writes."""
    driven = Clinic(seed=2)
    try:
        for _ in range(5):
            driven.served(DASHBOARD)
        # check() GETs each path twice, and renders the dashboard
        # twice itself (metered) and reads the rows twice (not).
        driven.step("write-read")
        driven.served(ROWS)
        platform = driven.platform
        assert platform.billing.usage("clinic-0") == {
            "dashboard": 5 + 2 + 2, "query": 2 + 1}
        rows = platform.billing.database.query(
            "SELECT tenant, period, kind, units FROM usage_events "
            "ORDER BY id")
        assert rows == [
            {"tenant": "clinic-0", "period": "current",
             "kind": "dashboard", "units": 9},
            {"tenant": "clinic-0", "period": "current",
             "kind": "query", "units": 3}]
    finally:
        driven.close()


# -- the engine's pin ----------------------------------------------------------------


def pinned_db():
    database = Database()
    database.execute("CREATE TABLE t (k TEXT, n INTEGER)")
    database.executemany("INSERT INTO t VALUES (?, ?)",
                         [("a", 1), ("b", 2), ("a", 3)])
    return database


GROUPED = "SELECT k, SUM(n) AS n FROM t GROUP BY k ORDER BY k"


def test_a_reading_pins_one_snapshot_for_the_thread():
    database = pinned_db()
    with database.reading() as seen:
        first = database.query(GROUPED)
        writer = threading.Thread(target=database.execute,
                                  args=("INSERT INTO t VALUES ('c', 9)",))
        writer.start()
        writer.join(30)
        assert not writer.is_alive()
        assert database.query(GROUPED) == first
        with database.reading() as nested:
            assert nested is seen
        # The second read scanned a table stamped past the pin.
        assert not seen.keep and not seen.current()
    assert len(database.query(GROUPED)) == 3


@pytest.mark.parametrize("sql", [
    "SELECT k, n FROM t",                             # not cacheable
    "SELECT k FROM t UNION SELECT k FROM t",          # compound
    "EXPLAIN SELECT k FROM t",
    "SELECT k, SUM(n) AS n FROM v GROUP BY k",        # over a view
])
def test_a_reading_not_remembered_by_the_engine_is_not_kept(sql):
    database = pinned_db()
    database.execute("CREATE VIEW v AS SELECT k, n FROM t")
    with database.reading() as seen:
        database.query(sql)
    assert not seen.keep and not seen.current()


def test_a_reading_in_the_threads_own_transaction_is_not_kept():
    database = pinned_db()
    with database.transaction():
        with database.reading() as seen:
            database.query(GROUPED)
    assert not seen.current()


def test_a_reading_past_the_row_bound_is_not_kept():
    from repro.engine.planner import RESULT_CACHE_MAX_ROWS

    database = pinned_db()
    database.executemany("INSERT INTO t VALUES (?, ?)",
                         [(str(i), i) for i in range(RESULT_CACHE_MAX_ROWS)])
    with database.reading() as seen:
        database.query(GROUPED)
    assert not seen.keep


@pytest.mark.parametrize("change", [
    "INSERT INTO t VALUES ('a', 5)",
    "DELETE FROM t WHERE k = 'b'",
    "CREATE INDEX tk ON t (k)",
    "ALTER TABLE t ADD COLUMN extra INTEGER",
    "DROP TABLE t",
])
def test_a_reading_stands_until_what_it_read_moves(change):
    database = pinned_db()
    database.execute("CREATE TABLE u (x INTEGER)")
    with database.reading() as seen:
        database.query(GROUPED)
    database.execute("INSERT INTO u VALUES (1)")
    assert seen.current()
    database.execute(change)
    assert not seen.current()


@pytest.mark.sanitize
def test_pinned_renders_run_clean_under_the_sanitizer():
    from repro.analysis.concurrency import (
        default_sanitizer,
        reset_default_sanitizer,
    )

    reset_default_sanitizer()
    database = Database(sanitize=True)
    database.execute("CREATE TABLE t (k TEXT, n INTEGER)")
    stop = threading.Event()

    def writer():
        count = 0
        while not stop.is_set() and count < 200:
            database.execute("INSERT INTO t VALUES (?, ?)", ("a", count))
            count += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(50):
            with database.reading() as seen:
                first = database.query(GROUPED)
                assert database.query(GROUPED) == first
            seen.current()
    finally:
        stop.set()
        thread.join(30)
    assert not thread.is_alive()
    sanitizer = default_sanitizer()
    sanitizer.assert_clean()
    assert sanitizer.acquisitions > 0
    reset_default_sanitizer()
