"""Performance smoke tests (``pytest -m perfsmoke``).

A fast sanity layer between the unit tests and ``bench/``: plan
compilation still beats the reference interpreter
(``tests/reference.py``) on the two E12 shapes, the E12 join and E9 index ablations hold, and the analysis CLI
runs clean over the example artifacts.

Standing rule: no tier-1 wall-clock assert with less than 2x headroom
over what was measured (asserted / measured: compiled vs interpreted
1.5x / 4-6x, reuse vs recompute 5x / ~130x, hash join vs nested loop
5x / ~110x, index vs scan 2x / ~20x).  What a fast path must *not do*
is asserted as a count — plans compiled, log frames decoded, tables
scanned and WHERE clauses evaluated by keyed DML, rows a fold re-reads,
dimension rows a warm MDX request reads, version chains kept and
collections run, usage rows written,
platform-database statements per dashboard delivery, the thread a
closed-loop gateway request runs on — which
repeats exactly on any host; what a
statement *costs* is a ``bench/``
metric (``engine.read_self_ms_per_stmt``).
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Database
from tests.reference import ReferenceDatabase

pytestmark = pytest.mark.perfsmoke

REPO_ROOT = Path(__file__).resolve().parent.parent


def build(fact_rows, engine=Database):
    database = engine()
    database.execute(
        "CREATE TABLE dim (k INTEGER PRIMARY KEY, label TEXT)")
    database.executemany(
        "INSERT INTO dim VALUES (?, ?)",
        [(key, f"l{key % 10}") for key in range(1, 201)])
    database.execute("CREATE TABLE fact (k INTEGER, amount REAL)")
    database.executemany(
        "INSERT INTO fact VALUES (?, ?)",
        [(index % 200 + 1, float(index % 50))
         for index in range(fact_rows)])
    return database


def best_ms(fn, repeats=3, before=None):
    """Best wall time of ``fn``; ``before`` runs untimed each round."""
    timings = []
    for _ in range(repeats):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings) * 1000.0


def spy(monkeypatch, owner, name):
    """Rebind ``owner.name`` to itself plus a record of every result;
    returns the (live) list of results."""
    results = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recording)
    return results


def touch_fact(database):
    """Commit a write to ``fact`` (net effect: none), so the next
    aggregate over it is recomputed, not reused."""
    database.execute("INSERT INTO fact VALUES (0, 0.0)")
    database.execute("DELETE FROM fact WHERE k = 0")


STAR_JOIN = ("SELECT d.label, SUM(f.amount) AS total FROM fact f "
             "JOIN dim d ON f.k = d.k GROUP BY d.label ORDER BY d.label")


@pytest.mark.parametrize("sql", [
    STAR_JOIN,
    "SELECT k, amount FROM fact WHERE amount > 25.0 AND k < 150 "
    "ORDER BY amount",
])
def test_compiled_plans_still_fast(sql):
    """Compiled execution beats the interpreter with margin to spare."""
    compiled = build(4_000)
    interpreted = build(4_000, ReferenceDatabase)
    assert compiled.query(sql) == interpreted.query(sql)
    # The table moves between rounds: this measures execution, not
    # the reuse of an aggregate's remembered result.
    compiled_ms = best_ms(lambda: compiled.query(sql),
                          before=lambda: touch_fact(compiled))
    interpreted_ms = best_ms(lambda: interpreted.query(sql),
                             before=lambda: touch_fact(interpreted))
    assert interpreted_ms > 1.5 * compiled_ms, (
        f"compiled {compiled_ms:.2f}ms vs "
        f"interpreted {interpreted_ms:.2f}ms")


def test_hash_join_beats_nested_loop():
    """E12's join ablation: the same star join written as CROSS JOIN +
    WHERE misses the equi-join path and runs as a nested loop."""
    database = build(500)
    nested = ("SELECT d.label, SUM(f.amount) AS total "
              "FROM fact f CROSS JOIN dim d WHERE f.k = d.k "
              "GROUP BY d.label ORDER BY d.label")
    rows = database.query(STAR_JOIN)
    assert len(rows) == 10 and rows == database.query(nested)
    hash_ms = best_ms(lambda: database.query(STAR_JOIN),
                      before=lambda: touch_fact(database))
    nested_ms = best_ms(lambda: database.query(nested), repeats=1,
                        before=lambda: touch_fact(database))
    assert nested_ms > 5 * hash_ms, (
        f"hash join {hash_ms:.2f}ms vs nested loop {nested_ms:.2f}ms")


def test_index_beats_full_scan_on_point_lookups():
    """E9's index ablation: drill-through lookups by key."""
    database = build(4_000)

    def drill_through():
        for key in range(1, 21):
            database.query("SELECT amount FROM fact WHERE k = ?", (key,))

    scan_ms = best_ms(drill_through, repeats=2,
                      before=lambda: touch_fact(database))
    database.execute("CREATE INDEX fact_k ON fact (k)")
    index_ms = best_ms(drill_through, repeats=2,
                       before=lambda: touch_fact(database))
    assert scan_ms > 2 * index_ms, (
        f"full scans {scan_ms:.2f}ms vs indexed {index_ms:.2f}ms")


GROUPED = ("SELECT k, COUNT(*) AS n, SUM(amount) AS total FROM fact "
           "GROUP BY k ORDER BY k")


@pytest.fixture(scope="module")
def big():
    return build(20_000)


def test_unchanged_table_reuses_the_aggregate(big):
    """Ratio, not milliseconds: the second execution of a GROUP BY
    over an unchanged 20 000-row table skips the scan."""
    expected = big.query(GROUPED)
    first_ms = best_ms(lambda: big.query(GROUPED),
                       before=lambda: touch_fact(big))
    again_ms = best_ms(lambda: big.query(GROUPED))
    assert big.query(GROUPED) == expected
    assert first_ms >= 5 * again_ms, (
        f"recomputed {first_ms:.2f}ms vs reused {again_ms:.3f}ms")


def test_moving_table_pays_nothing_for_the_cache(big, monkeypatch):
    """With a write between executions every read misses, and a miss
    is the compiled plan executed once — nothing is planned again."""
    from repro.engine import planner

    big.execute(GROUPED)
    planned = spy(monkeypatch, planner, "plan_select")
    misses = big.statistics["result_cache_misses"]
    for _ in range(7):
        touch_fact(big)
        big.execute(GROUPED)
    assert big.statistics["result_cache_misses"] == misses + 7
    assert planned == []


def test_sharded_reads_decode_only_new_log_bytes(tmp_path, monkeypatch):
    """The fence for on-demand shipping, in counts: a routed read with
    nothing to fetch decodes no log frame, a read after one write
    decodes that one transaction, and a checkpoint costs one re-read
    of the (new, short) log — never a snapshot load."""
    from repro.core import OdbisPlatform
    from repro.engine import wal

    platform = OdbisPlatform(data_dir=tmp_path, fsync="off", shards=2,
                             replicas_per_shard=1)
    by_shard = {}
    for index in range(16):  # enough names to land on both shards
        by_shard.setdefault(platform.shards.place(f"org-{index}"),
                            f"org-{index}")
    assert len(by_shard) == 2
    headers = {}
    for tenant in by_shard.values():
        platform.provisioning.provision(tenant, tenant, plan="team")
        login = platform.web.request(
            "POST", "/login", body={"username": f"admin@{tenant}",
                                    "password": "changeme"})
        headers[tenant] = {"x-auth-token": login.json()["token"]}

    def sql(tenant, statement):
        response = platform.gateway.submit(
            "POST", f"/tenants/{tenant}/sql", headers=headers[tenant],
            body={"sql": statement}).result(30)
        assert response.status == 200, response.body
        return response.json()

    rows = {}
    for tenant in headers:
        log = platform.shards.primary_for(tenant).wal
        sql(tenant, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
        rows[tenant] = 0
        while log.commits < 50:  # provisioning wrote a few already
            sql(tenant, f"INSERT INTO t VALUES ({rows[tenant]})")
            rows[tenant] += 1
        assert sql(tenant, "SELECT COUNT(*) AS n FROM t")["rows"] \
            == [{"n": rows[tenant]}]

    decoded = spy(monkeypatch, wal, "scan_frames")
    loads = spy(monkeypatch, Database, "load")
    try:
        for _ in range(100):
            for tenant in headers:
                answer = sql(tenant, "SELECT COUNT(*) AS n FROM t")
                assert answer["served_by"].endswith("-replica-0")
                assert answer["replica_lag"] == 0
        assert decoded == []

        tenant = next(iter(headers))
        sql(tenant, "INSERT INTO t VALUES (100)")
        assert sql(tenant, "SELECT COUNT(*) AS n FROM t")["rows"] \
            == [{"n": rows[tenant] + 1}]
        assert [[record[0] for record, _ in entries]
                for entries, _, _ in decoded] == [["op", "commit"]]

        del decoded[:]
        platform.checkpoint()
        sql(tenant, "INSERT INTO t VALUES (101)")
        answer = sql(tenant, "SELECT COUNT(*) AS n FROM t")
        assert answer["rows"] == [{"n": rows[tenant] + 2}]
        assert answer["served_by"].endswith("-replica-0")
        assert [[record[0] for record, _ in entries]
                for entries, _, _ in decoded] == [["op", "commit"]]
        shipping = platform.shards.shard_for(tenant).health()[
            "replica_shipping"]
        assert [counters["log_restarts"]
                for counters in shipping.values()] == [1]
        assert loads == []
    finally:
        platform.close()


def orders(database, rows=20_000):
    database.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, "
                     "status TEXT, amount REAL)")
    database.executemany("INSERT INTO orders VALUES (?, ?, ?)",
                         [(key, "new", 1.0) for key in range(rows)])
    return database


def counting_where(database, sql):
    """Wrap the WHERE filter of ``sql``'s cached DML plan in a counter;
    returns the (live) list of rows it was evaluated on."""
    seen = []
    plan = database.plan_for(database._parse(sql))
    (where, text), = plan.filters

    def counted(row, params):
        seen.append(row)
        return where(row, params)

    plan.filters[0] = (counted, text)
    return seen


@pytest.mark.parametrize("sql, params", [
    ("UPDATE orders SET status = ?, amount = ? WHERE id = ?",
     ("paid", 2.0, 12_345)),
    ("DELETE FROM orders WHERE id = ?", (12_345,)),
])
def test_keyed_dml_touches_one_row(sql, params, monkeypatch):
    """The fence for keyed DML, in counts: a keyed UPDATE or DELETE on
    a 20 000-row table makes no table scan and evaluates its WHERE on
    at most the one row its key names; the reference
    scans once."""
    from repro.engine.storage import TableStorage

    database = orders(Database())
    reference = orders(ReferenceDatabase())
    where_rows = counting_where(database, sql)
    scans = spy(monkeypatch, TableStorage, "scan")
    assert database.execute(sql, params) == 1
    assert scans == [] and len(where_rows) <= 1
    assert reference.execute(sql, params) == 1
    assert len(scans) == 1
    assert database.query("SELECT * FROM orders WHERE id = 12345") \
        == reference.query("SELECT * FROM orders WHERE id = 12345")


def tenant_orders(database, rows=20_000):
    """``oltp_wal``'s shape: four tenants interleaved over the ids."""
    database.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, "
                     "tenant TEXT NOT NULL, amount REAL)")
    database.executemany("INSERT INTO orders VALUES (?, ?, ?)",
                         [(key, f"shop-{key % 4}", 1.0)
                          for key in range(rows)])
    return database


def counting(monkeypatch, owner, name):
    """Rebind ``owner.name`` to itself plus a record of each call's
    first argument after ``self``; returns the (live) list."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def fetched_rowids(monkeypatch):
    """Spy ``TableStorage.fetch``, the one call a snapshot read fetches
    rows by rowid through: the table and the number of rowids of each
    call; returns the (live) list."""
    from repro.engine.storage import TableStorage

    calls = []
    real = TableStorage.fetch

    def recording(self, rowids, cn):
        rowids = list(rowids)
        calls.append((self.schema.name, len(rowids)))
        return real(self, rowids, cn)

    monkeypatch.setattr(TableStorage, "fetch", recording)
    return calls


def test_range_read_fetches_only_its_span(monkeypatch):
    """The fence for range seeks, in counts: a 100-of-400-id range
    over 20 000 rows scans nothing and fetches at most the span plus
    the index tail; a keyed point lookup still fetches one row.  Rows
    are counted where they are fetched, ``TableStorage.fetch``: with
    no newer change it reads the live rows and walks no chain."""
    from repro.engine.storage import TableStorage

    database = tenant_orders(Database())
    reference = tenant_orders(ReferenceDatabase())
    for key in range(30_000, 30_050):  # a tail, all outside the range
        database.execute("INSERT INTO orders VALUES (?, 'shop-0', 1.0)",
                         (key,))
    _keys, _rowids, tail, _nulls = \
        database.storage("orders").indexes["__uniq_orders_id"]._state
    assert len(tail) >= 50
    sql = ("SELECT COUNT(*) AS n, SUM(amount) AS total FROM orders "
           "WHERE tenant = ? AND id >= ? AND id < ?")
    scans = spy(monkeypatch, TableStorage, "scan")
    snapshots = spy(monkeypatch, TableStorage, "snapshot_rows")
    fetched = fetched_rowids(monkeypatch)
    answer = database.query(sql, ("shop-1", 8_000, 8_400))
    assert scans == [] and snapshots == []
    assert 400 <= sum(n for _table, n in fetched) <= 400 + len(tail)
    assert answer == reference.query(sql, ("shop-1", 8_000, 8_400)) \
        == [{"n": 100, "total": 100.0}]

    del fetched[:]
    assert database.query("SELECT * FROM orders WHERE id = ?", (12_345,)) \
        == [{"id": 12_345, "tenant": "shop-1", "amount": 1.0}]
    assert fetched == [("orders", 1)]


def test_index_builds_sort_each_run_once(tmp_path, monkeypatch):
    """CREATE INDEX and Database.load build each run with one sort and
    no merge, however many rows the table holds."""
    from repro.engine import indexes

    database = tenant_orders(Database())
    sorted_runs = counting(monkeypatch, indexes, "_sorted_run")
    merges = counting(monkeypatch, indexes.Index, "_merge")
    database.execute("CREATE INDEX orders_tenant ON orders (tenant, id)")
    assert [len(keys) for keys in sorted_runs] == [20_000]
    database.save(tmp_path / "orders.snap")
    del sorted_runs[:]
    loaded = Database.load(tmp_path / "orders.snap")
    assert sorted(len(keys) for keys in sorted_runs if keys) \
        == [20_000, 20_000]
    assert merges == []
    assert loaded.query_value(
        "SELECT COUNT(*) FROM orders WHERE tenant = ? AND id < ?",
        ("shop-2", 1_000)) == 250


def test_checkpoint_leaves_no_version_chains(tmp_path):
    """After a checkpoint every row of a 20 000-row table is settled:
    no version chain, one version per live row.  The bulk load settled
    itself at its commit; rows appended below the settle threshold
    carry chains until the checkpoint."""
    database = orders(Database.recover(tmp_path, "main", fsync="off"))
    storage = database.storage("orders")
    assert len(storage._versions) == 0
    for key in range(20_000, 20_100):
        database.execute("INSERT INTO orders VALUES (?, 'new', 1.0)",
                         (key,))
    assert len(storage._versions) == 100
    database.execute("DELETE FROM orders WHERE id >= 20000")
    database.checkpoint()
    assert len(storage._versions) == 0
    assert database.version_count("orders") == 20_000
    database.execute("UPDATE orders SET amount = 3.0 WHERE id = 7")
    assert len(storage._versions) == 1
    assert database.version_count("orders") == 20_001
    database.vacuum()
    assert len(storage._versions) == 0
    assert database.version_count("orders") == 20_000
    database.close()


def per_table(monkeypatch, owner, name):
    """Rebind ``owner.name`` (a TableStorage method) to itself plus a
    record of the table each call was made on; returns the list."""
    tables = []
    real = getattr(owner, name)

    def recording(self, *args, **kwargs):
        tables.append(self.schema.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return tables


def test_appended_facts_fold_without_a_scan(monkeypatch):
    """The fence for folding, in counts: after 50 facts are appended, a
    re-run star join reads none of the 4 000 older facts — no
    ``snapshot_rows`` call on ``fact``, 50 rows fetched — and no row of
    the unchanged dimension, whose hash the join keeps, and answers
    what the reference does.  A DELETE, or a change to
    the dimension, costs exactly one full scan of ``fact``."""
    from repro.engine.storage import TableStorage

    database, reference = build(4_000), build(4_000, ReferenceDatabase)
    database.query(STAR_JOIN)
    appended = [(key % 200 + 1, key * 0.5) for key in range(50)]
    for target in (database, reference):
        target.executemany("INSERT INTO fact VALUES (?, ?)", appended)
    expected = reference.query(STAR_JOIN)
    scans = per_table(monkeypatch, TableStorage, "snapshot_rows")
    fetched = fetched_rowids(monkeypatch)
    assert database.query(STAR_JOIN) == expected
    assert scans.count("fact") == 0 and scans.count("dim") == 0
    assert fetched == [("fact", 50)]
    assert database.statistics["result_cache_folds"] == 1

    for write in ("DELETE FROM fact WHERE k = 3",
                  "UPDATE dim SET label = 'moved' WHERE k = 7"):
        database.execute(write)
        reference.execute(write)
        expected = reference.query(STAR_JOIN)
        del scans[:]
        assert database.query(STAR_JOIN) == expected
        assert scans.count("fact") == 1
    assert database.statistics["result_cache_folds"] == 1


def test_sliced_mdx_reads_no_dimension_once_warm(monkeypatch):
    """The fence for a warm MDX request, in counts: a sliced query on
    the retail star schema — its ``members`` lookup (a remembered
    DISTINCT) and its star join (a fold probing kept dimension hashes)
    — makes no ``snapshot_rows`` call on any ``dim_*`` table once warm,
    nor after 50 facts are appended, and its cells equal the
    reference's."""
    from repro.engine.storage import TableStorage
    from repro.olap import CubeSchema, OlapEngine, parse_mdx
    from repro.workloads.retail import RetailWorkload

    workload = RetailWorkload(seed=5)
    engines = []
    for cls in (Database, ReferenceDatabase):
        database = cls()
        workload.build(database, fact_rows=2_000)
        engines.append(OlapEngine(database, CubeSchema.from_definition(
            workload.cube_definition())))
    mdx = parse_mdx(
        "SELECT {[Measures].[revenue], [Measures].[quantity]} ON COLUMNS, "
        "{[Time].[year].Members} ON ROWS FROM [RetailSales] "
        "WHERE ([Store].[region].[North])")
    engine, reference = engines
    mdx.execute(engine)
    scans = per_table(monkeypatch, TableStorage, "snapshot_rows")
    for appended in (0, 50):
        if appended:
            facts = [(1 + key % 700, 1 + key % 10, 1 + key % 6,
                      key * 1.5, 1) for key in range(appended)]
            for target in engines:
                target.database.executemany(
                    "INSERT INTO fact_sales VALUES (?, ?, ?, ?, ?)", facts)
        expected = mdx.execute(reference).rows
        del scans[:]
        assert mdx.execute(engine).rows == expected
        assert [table for table in scans if table.startswith("dim_")] \
            == []
    assert engine.database.statistics["result_cache_folds"] == 1


def test_bulk_load_settles_at_its_commit():
    """The committing writer settles what it wrote: after a 10 000-row
    ``executemany`` at most ``rows/8 + 256`` rows carry a chain."""
    from repro.engine.storage import SETTLE_FLOOR, SETTLE_FRACTION

    database = orders(Database(), rows=10_000)
    storage = database.storage("orders")
    assert len(storage._versions) \
        <= len(storage) * SETTLE_FRACTION + SETTLE_FLOOR
    assert database.version_count("orders") == 10_000


def test_pinned_snapshot_does_not_collect_on_every_commit(monkeypatch):
    """With a snapshot pinned nothing can be reclaimed, and collection
    restarts its count anyway: 2 000 single-row commits on a 100-row
    table collect a handful of times, not 2 000."""
    from repro.engine.storage import SETTLE_FLOOR, TableStorage

    database = orders(Database(), rows=100)
    collections = per_table(monkeypatch, TableStorage, "collect")
    with database.open_snapshot() as pinned:
        for update in range(2_000):
            database.execute("UPDATE orders SET amount = ? WHERE id = ?",
                             (float(update), update % 100))
        assert 0 < len(collections) <= 2_000 // SETTLE_FLOOR
        old = database.storage("orders").snapshot_rows(pinned.cn)
        assert {row[2] for _, row in old} == {1.0}
    assert database.version_count("orders") > 2_000


def test_metered_reads_write_one_row_per_key():
    """Metering leaves the read path: 50 metered reads inside one flush
    interval write no usage row; the flush writes one per (tenant,
    period, kind); a meter call past the interval flushes itself."""
    from repro.core import OdbisPlatform
    from repro.core.resilience import FakeClock
    from repro.core.subscription import METER_FLUSH_SECONDS

    clock = FakeClock()
    platform = OdbisPlatform(clock=clock)
    headers = {}
    for tenant in ("acme", "globex"):
        platform.provisioning.provision(tenant, tenant, plan="team")
        login = platform.web.request(
            "POST", "/login", body={"username": f"admin@{tenant}",
                                    "password": "changeme"})
        headers[tenant] = {"x-auth-token": login.json()["token"]}
    platform.tenants.context("acme").operational_db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY)")
    written = platform.billing.database

    def events():
        return written.query_value("SELECT COUNT(*) FROM usage_events")

    for read in range(50):
        tenant = ("acme", "globex")[read % 2]
        response = platform.web.request(
            "POST", f"/tenants/{tenant}/sql", headers=headers[tenant],
            body={"sql": "SELECT COUNT(*) AS n FROM t"})
        assert response.status == 200, response.body
    assert events() == 0
    assert platform.billing.flush() == 2
    assert events() == 2
    assert platform.billing.usage("acme") == {"query": 25}
    platform.billing.meter("acme", "report")
    assert events() == 2
    clock.advance(METER_FLUSH_SECONDS)
    platform.billing.meter("acme", "report")
    assert events() == 3
    assert platform.billing.usage("acme") == {"query": 25, "report": 2}


@pytest.mark.parametrize("datasets", [1, 3])
def test_dashboard_delivery_statement_count(monkeypatch, datasets):
    """Delivering a stored dashboard over k data sets issues 1 + 2k
    platform-database statements: the definition is one seek, and each
    data set is a data-set seek plus a data-source seek."""
    from repro.core import OdbisPlatform
    from repro.core.resilience import FakeClock
    from repro.reporting import DashboardDefinition

    platform = OdbisPlatform(clock=FakeClock())
    context = platform.provisioning.provision("acme", "Acme", plan="team")
    context.warehouse_db.execute("CREATE TABLE s (region TEXT, n REAL)")
    context.warehouse_db.execute("INSERT INTO s VALUES ('N', 1.0)")
    definition = DashboardDefinition("dash")
    for index in range(datasets):
        platform.metadata.create_dataset(
            "acme", f"d{index}", "warehouse", "SELECT region, n FROM s")
    definition.add_row(*[
        definition.chart(f"d{index}", f"c{index}", "bar", "region", "n")
        for index in range(datasets)])
    platform.reporting.define_dashboard("acme", definition)
    login = platform.web.request(
        "POST", "/login",
        body={"username": "admin@acme", "password": "changeme"})
    headers = {"X-Auth-Token": login.json()["token"]}

    statements = spy(monkeypatch, platform.tenants.platform_db, "execute")
    response = platform.web.request(
        "GET", "/tenants/acme/dashboards/dash", headers=headers)
    assert response.status == 200, response.body
    assert len(statements) == 1 + 2 * datasets
    platform.gateway.shutdown()


def test_closed_loop_requests_run_on_the_calling_thread(monkeypatch):
    """A caller that submits a request and waits on it runs it itself:
    no hand-off to a pool worker and back.  Counted on thread idents.
    The pool thread is started by a warm-up request first (starting a
    thread yields the interpreter lock to it), and a long switch
    interval keeps the interpreter from handing the lock to the woken
    worker in the few bytecodes between hand-off and claim."""
    from repro.core import OdbisPlatform, RequestGateway
    from repro.web import WebApplication

    platform = OdbisPlatform()
    platform.provisioning.provision("acme", "Acme", plan="team")
    login = platform.web.request(
        "POST", "/login",
        body={"username": "admin@acme", "password": "changeme"})
    headers = {"X-Auth-Token": login.json()["token"]}
    gateway = RequestGateway(platform.web, platform.tenants,
                             max_workers=1)
    ran = []
    handle = WebApplication.handle

    def recording(self, request):
        ran.append(threading.get_ident())
        return handle(self, request)

    interval = sys.getswitchinterval()
    try:
        assert gateway.submit("GET", "/ping").result(30).ok
        monkeypatch.setattr(WebApplication, "handle", recording)
        sys.setswitchinterval(1.0)
        for path in ("/tenants/acme/datasources", "/ping") * 25:
            response = gateway.submit("GET", path,
                                      headers=headers).result(30)
            assert response.status == 200, response.body
    finally:
        sys.setswitchinterval(interval)
        gateway.shutdown()
        platform.close()
    assert ran == [threading.get_ident()] * 50


def test_analysis_cli_runs_clean():
    """The static-analysis CLI still validates the example artifacts."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli",
         "examples/artifacts"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=60)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 error(s)" in completed.stdout
