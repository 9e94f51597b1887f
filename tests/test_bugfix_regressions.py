"""Regression tests for the serving-layer correctness fixes.

Each test here fails on the pre-fix code:

* ``Database.executemany`` left rows 1..N-1 applied when row N failed;
* ``Database.load`` reset the statistics and never revalidated views
  against the restored catalog;
* ``Message.with_payload`` minted a fresh ``message_id`` with no
  correlation back to the originating message;
* a handler failure on the final permitted hop raised the
  routing-loop ``EsbError`` from the nested dead-letter delivery
  instead of recording the original error.
"""

import pickle

import pytest

from repro.engine import Database
from repro.esb import MessageBus
from repro.esb.bus import DEAD_LETTER_CHANNEL
from repro.errors import CatalogError, ConstraintViolation, EsbError


def _inventory_db():
    database = Database("inv")
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
    database.execute("INSERT INTO items VALUES (1, 'widget')")
    return database


class TestExecutemanyAtomicity:
    def test_failed_batch_applies_no_rows(self):
        database = _inventory_db()
        # Row 3 collides with the existing primary key 1: the whole
        # batch must roll back, not stop with rows 10 and 11 applied.
        with pytest.raises(ConstraintViolation):
            database.executemany(
                "INSERT INTO items VALUES (?, ?)",
                [(10, "a"), (11, "b"), (1, "dup"), (12, "c")])
        assert database.query_value("SELECT COUNT(*) FROM items") == 1
        assert not database.in_transaction

    def test_successful_batch_commits_as_a_unit(self):
        database = _inventory_db()
        total = database.executemany(
            "INSERT INTO items VALUES (?, ?)",
            [(2, "a"), (3, "b"), (4, "c")])
        assert total == 3
        assert database.query_value("SELECT COUNT(*) FROM items") == 4
        assert not database.in_transaction

    def test_batch_joins_open_transaction(self):
        """Inside a caller's transaction the caller owns the boundary."""
        database = _inventory_db()
        database.begin()
        database.executemany(
            "INSERT INTO items VALUES (?, ?)", [(2, "a"), (3, "b")])
        assert database.in_transaction
        database.rollback()
        assert database.query_value("SELECT COUNT(*) FROM items") == 1

    def test_failure_in_open_transaction_leaves_it_to_caller(self):
        database = _inventory_db()
        database.begin()
        database.execute("INSERT INTO items VALUES (2, 'kept')")
        with pytest.raises(ConstraintViolation):
            database.executemany(
                "INSERT INTO items VALUES (?, ?)",
                [(3, "a"), (1, "dup")])
        # The surrounding transaction is still open; the caller
        # decides whether its earlier work survives.
        assert database.in_transaction
        database.rollback()
        assert database.query_value("SELECT COUNT(*) FROM items") == 1


class TestSnapshotLoad:
    def _saved(self, tmp_path):
        database = Database("snap")
        database.execute(
            "CREATE TABLE users (id INTEGER PRIMARY KEY, email TEXT "
            "UNIQUE)")
        database.executemany(
            "INSERT INTO users VALUES (?, ?)",
            [(key, f"u{key}@x.io") for key in range(1, 6)])
        database.execute(
            "CREATE VIEW mails AS SELECT email FROM users")
        database.query("SELECT email FROM users WHERE id = 3")
        path = tmp_path / "snap.db"
        database.save(path)
        return database, path

    def test_an_old_compile_false_payload_loads_and_plans(self, tmp_path):
        """A snapshot written while the engine still had a ``compile``
        option may carry ``"compile": False``; it loads as any other
        and its SELECTs run their plans, reuse included."""
        _, path = self._saved(tmp_path)
        payload = pickle.loads(path.read_bytes())
        payload["compile"] = False
        path.write_bytes(pickle.dumps(payload))
        loaded = Database.load(path)
        sql = "SELECT COUNT(*) AS n FROM users GROUP BY email LIMIT 1"
        lines = [row[0] for row in loaded.execute("EXPLAIN " + sql).rows]
        assert lines[-1] == "result cache: eligible (tables: users)"
        assert loaded.query(sql) == [{"n": 1}]
        assert loaded.query("SELECT * FROM mails WHERE email = 'u2@x.io'") \
            == [{"email": "u2@x.io"}]
        with pytest.raises(TypeError):
            Database("snap", compile=False)

    def test_statistics_survive_the_round_trip(self, tmp_path):
        original, path = self._saved(tmp_path)
        loaded = Database.load(path)
        assert loaded.statistics == original.statistics

    def test_loaded_db_rejects_unique_duplicates(self, tmp_path):
        _, path = self._saved(tmp_path)
        loaded = Database.load(path)
        with pytest.raises(ConstraintViolation):
            loaded.execute(
                "INSERT INTO users VALUES (9, 'u3@x.io')")
        with pytest.raises(ConstraintViolation):
            loaded.execute(
                "INSERT INTO users VALUES (3, 'new@x.io')")

    def test_loaded_db_serves_compiled_point_scans(self, tmp_path):
        _, path = self._saved(tmp_path)
        loaded = Database.load(path)
        plan = loaded.query(
            "EXPLAIN SELECT email FROM users WHERE id = ?")
        text = " ".join(line["plan"] for line in plan)
        assert "interpreted execution" not in text
        rows = loaded.query(
            "SELECT email FROM users WHERE id = ?", (4,))
        assert rows == [{"email": "u4@x.io"}]

    def test_views_survive_and_are_revalidated(self, tmp_path):
        _, path = self._saved(tmp_path)
        loaded = Database.load(path)
        assert len(loaded.query("SELECT email FROM mails")) == 5
        # Tamper with the snapshot so the view's table is gone: the
        # load itself must fail, not the view's first use.
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["tables"] = []
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CatalogError):
            Database.load(path)


class TestEsbMessageIdentity:
    def test_transformed_message_carries_correlation_id(self):
        bus = MessageBus()
        bus.create_channel("in")
        bus.create_channel("out")
        bus.transformer("in", str.upper, "out")
        seen = []
        bus.service_activator("out", seen.append)
        origin = bus.send("in", "payload")
        assert len(seen) == 1
        transformed = seen[0]
        assert transformed.message_id != origin.message_id
        assert transformed.headers["correlation_id"] == origin.message_id
        assert transformed.correlation_id == origin.message_id

    def test_correlation_id_preserved_across_hops(self):
        bus = MessageBus()
        for name in ("a", "b", "c"):
            bus.create_channel(name)
        bus.transformer("a", lambda p: p + 1, "b")
        bus.transformer("b", lambda p: p * 2, "c")
        seen = []
        bus.service_activator("c", seen.append)
        origin = bus.send("a", 1)
        assert seen[0].payload == 4
        # The second hop must keep the *origin's* id, not rebase the
        # correlation onto the intermediate message.
        assert seen[0].headers["correlation_id"] == origin.message_id

    def test_dead_letter_correlates_with_origin(self):
        bus = MessageBus()
        bus.create_channel("in")
        bus.create_channel("out")
        bus.transformer("in", str.upper, "out")

        def explode(message):
            raise ValueError("boom")

        bus.service_activator("out", explode)
        origin = bus.send("in", "payload")
        assert len(bus.dead_letters) == 1
        dead = bus.dead_letters[0]
        assert dead.headers["error"] == "boom"
        assert dead.headers["correlation_id"] == origin.message_id


class TestEsbDeadLetterAtHopBudget:
    def test_failure_on_final_hop_reaches_dead_letters(self):
        bus = MessageBus(max_hops=1)
        bus.create_channel("a")
        bus.create_channel("b")
        bus.transformer("a", str.upper, "b")

        def explode(message):
            raise ValueError("boom at the budget")

        bus.service_activator("b", explode)
        # Pre-fix this raised the routing-loop EsbError out of the
        # nested dead-letter delivery instead of recording the error.
        bus.send("a", "payload")
        assert len(bus.dead_letters) == 1
        dead = bus.dead_letters[0]
        assert dead.headers["error"] == "boom at the budget"
        assert dead.headers["failed_channel"] == "b"

    def test_routing_loops_still_trip_the_guard(self):
        bus = MessageBus(max_hops=5)
        bus.create_channel("loop")
        bus.router("loop", lambda message: "loop")
        with pytest.raises(EsbError):
            bus.send("loop", "spin")

    def test_failing_dead_letter_handler_cannot_recurse_forever(self):
        bus = MessageBus(max_hops=3)
        bus.create_channel("in")

        def explode(message):
            raise ValueError("always")

        bus.service_activator("in", explode)
        bus.service_activator(DEAD_LETTER_CHANNEL, explode)
        # The dead-letter handler fails too; nested failures consume
        # the hop budget instead of recursing unboundedly.
        with pytest.raises(EsbError):
            bus.send("in", "payload")
        assert len(bus.dead_letters) >= 1


# -- PR 8 serving-path regressions ------------------------------------------------
#
# * the gateway's stale-response cache was keyed by ``(tenant, path)``
#   alone and cached *every* OK payload, so while a breaker was open a
#   request with a different method/query/body could be answered with
#   another request's payload as a 200;
# * ``OdbisPlatform.close()`` closed WALs and journals while gateway
#   workers could still be mid-dispatch, so an accepted in-flight write
#   could die against a closed log and be lost;
# * ``TenantRegistry.deactivate`` flipped ``context.active`` without
#   the registry lock that ``register`` uses.

import textwrap
import threading

from repro.analysis.concurrency import analyze_concurrency
from repro.core import OdbisPlatform, RequestGateway
from repro.core.tenancy import TenantManager
from repro.errors import GatewayShutdownError, TenantError
from repro.web import JsonResponse, WebApplication

TENANT = "acme"


def _tripped_gateway(web):
    """A gateway for ``TENANT`` whose breaker can be tripped at will."""
    tenants = TenantManager()
    tenants.register(TENANT, "Acme", "team")
    return RequestGateway(web, tenants, max_workers=2)


def _trip(gateway):
    breaker = gateway.breaker(TENANT)
    for _ in range(gateway.breaker_threshold):
        breaker.record_failure()
    assert breaker.state == "open"


class TestStaleCacheKeying:
    """Degraded serving must never alias distinct requests."""

    def _web(self):
        web = WebApplication("cachekey")
        web.get(f"/tenants/{TENANT}/rows",
                lambda request: JsonResponse(
                    {"table": request.query.get("table", "none")}))
        web.post(f"/tenants/{TENANT}/rows",
                 lambda request: JsonResponse(
                     {"written": "mutation-result"}))
        web.post(f"/tenants/{TENANT}/jobs",
                 lambda request: JsonResponse({"job": "started"}))
        return web

    def test_mutation_responses_are_never_cached(self):
        gateway = _tripped_gateway(self._web())
        ok = gateway.submit(
            "POST", f"/tenants/{TENANT}/jobs").result(30)
        assert ok.status == 200
        _trip(gateway)
        degraded = gateway.submit(
            "POST", f"/tenants/{TENANT}/jobs").result(30)
        assert degraded.degraded
        # A POST is not an idempotent read: replaying its old payload
        # as a fresh 200 would fake a mutation that never ran.
        assert not degraded.stale
        assert degraded.status == 503
        gateway.shutdown()

    def test_distinct_queries_do_not_share_payloads(self):
        gateway = _tripped_gateway(self._web())
        path = f"/tenants/{TENANT}/rows"
        ok = gateway.submit("GET", path,
                            query={"table": "ledger"}).result(30)
        assert ok.json() == {"table": "ledger"}
        _trip(gateway)
        other = gateway.submit("GET", path,
                               query={"table": "audit"}).result(30)
        assert other.degraded
        assert not other.stale, \
            "a different query string was served another query's payload"
        same = gateway.submit("GET", path,
                              query={"table": "ledger"}).result(30)
        assert same.stale
        assert same.json()["data"] == {"table": "ledger"}
        gateway.shutdown()

    def test_method_does_not_alias_into_the_read_cache(self):
        gateway = _tripped_gateway(self._web())
        path = f"/tenants/{TENANT}/rows"
        ok = gateway.submit("POST", path).result(30)
        assert ok.json() == {"written": "mutation-result"}
        _trip(gateway)
        read = gateway.submit("GET", path).result(30)
        assert read.degraded
        assert not read.stale, \
            "a GET was served a cached POST payload"
        gateway.shutdown()

    def test_query_order_is_canonicalized(self):
        gateway = _tripped_gateway(self._web())
        path = f"/tenants/{TENANT}/rows"
        gateway.submit("GET", path,
                       query={"table": "ledger", "limit": 5}).result(30)
        _trip(gateway)
        hit = gateway.submit(
            "GET", path,
            query={"limit": 5, "table": "ledger"}).result(30)
        assert hit.stale  # same request, different dict order
        gateway.shutdown()


class TestShutdownDrainsBeforeDurableClose:
    """close() must drain the gateway before closing WALs/journals."""

    def _login(self, platform):
        response = platform.web.request(
            "POST", "/login",
            body={"username": f"admin@{TENANT}",
                  "password": "changeme"})
        assert response.status == 200
        return {"x-auth-token": response.json()["token"]}

    def test_in_flight_write_completes_and_survives_recovery(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path)
        platform.provisioning.provision(TENANT, "Acme", plan="team")
        database = platform.tenants.context(TENANT).operational_db
        database.execute(
            "CREATE TABLE audit (id INTEGER PRIMARY KEY, note TEXT)")
        headers = self._login(platform)
        started = threading.Event()
        release = threading.Event()

        def slow_write(request):
            started.set()
            assert release.wait(30)
            database.execute(
                "INSERT INTO audit VALUES (1, 'inflight')")
            return JsonResponse({"ok": True})

        platform.web.post(f"/tenants/{TENANT}/slow-write", slow_write)
        future = platform.gateway.submit(
            "POST", f"/tenants/{TENANT}/slow-write", headers=headers)
        assert started.wait(30)
        # Release the worker shortly *after* close() begins: a close
        # that does not drain first will have shut the WAL underneath
        # the still-running commit.
        releaser = threading.Timer(0.2, release.set)
        releaser.start()
        try:
            platform.close()
        finally:
            releaser.join()
        response = future.result(30)
        assert response.status == 200, response.body
        # The accepted write is durable: recovery sees it.
        recovered = OdbisPlatform(data_dir=tmp_path)
        try:
            rows = recovered.tenants.context(
                TENANT).operational_db.query(
                    "SELECT note FROM audit WHERE id = 1")
            assert rows == [{"note": "inflight"}]
        finally:
            recovered.close()

    def test_submissions_after_close_are_rejected_not_lost(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path)
        platform.provisioning.provision(TENANT, "Acme", plan="team")
        platform.close()
        with pytest.raises(GatewayShutdownError):
            platform.gateway.submit("GET", "/ping")


class TestDeactivateHoldsRegistryLock:
    """deactivate must serialize with register/require_active."""

    class _RecordingLock:
        def __init__(self, inner):
            self._inner = inner
            self.acquisitions = 0

        def __enter__(self):
            self.acquisitions += 1
            return self._inner.__enter__()

        def __exit__(self, exc_type, exc, tb):
            return self._inner.__exit__(exc_type, exc, tb)

        def acquire(self, *args, **kwargs):
            self.acquisitions += 1
            return self._inner.acquire(*args, **kwargs)

        def release(self):
            return self._inner.release()

    def test_deactivate_acquires_the_registry_lock(self):
        manager = TenantManager()
        manager.register(TENANT, "Acme")
        recorder = self._RecordingLock(manager._registry_lock)
        manager._registry_lock = recorder
        manager.deactivate(TENANT)
        assert recorder.acquisitions >= 1, \
            "deactivate mutated registry state without the lock"
        assert manager.context(TENANT).active is False
        with pytest.raises(TenantError):
            manager.require_active(TENANT)

    def test_deactivate_still_rejects_unknown_tenants(self):
        manager = TenantManager()
        with pytest.raises(TenantError):
            manager.deactivate("ghost")

    def test_unlocked_deactivate_shape_is_flagged_by_odb502(
            self, tmp_path):
        """The self-lint enforces the guard non-vacuously: the exact
        pre-fix shape (guarded registry mutated lock-free) is ODB502."""
        source = textwrap.dedent("""\
            import threading


            class Registry:
                def __init__(self):
                    self._tenants = {}  # guarded-by: _registry_lock
                    self._registry_lock = threading.Lock()

                def register(self, tenant_id, context):
                    with self._registry_lock:
                        self._tenants[tenant_id] = context

                def deactivate(self, tenant_id):
                    context = self._tenants[tenant_id]
                    context.active = False
                    self._tenants[tenant_id] = context
            """)
        path = tmp_path / "registry.py"
        path.write_text(source)
        collector = analyze_concurrency(path)
        codes = {diagnostic.code
                 for diagnostic in collector.diagnostics}
        assert "ODB502" in codes


# -- a request cancelled before it started --------------------------------------
#
# The pool never runs a cancelled work item, so the gateway's release
# step (bulkhead, limiter slot, in-flight count) never ran for one:
# the slots leaked and ``shutdown`` waited for the in-flight count
# forever.


class TestCancelledRequestReleasesItsSlots:
    @pytest.mark.parametrize("overload", [False, True],
                             ids=["static", "overload"])
    def test_cancel_while_waiting_for_a_worker(self, overload):
        from repro.core.overload import OverloadController

        web = WebApplication("cancel")
        entered, release = threading.Event(), threading.Event()

        def block(request):
            entered.set()
            assert release.wait(30)
            return JsonResponse({"ok": True})

        web.get(f"/tenants/{TENANT}/block", block)
        tenants = TenantManager()
        tenants.register(TENANT, "Acme", "team")
        controller = OverloadController(
            initial_limit=4, min_limit=4, max_limit=4) \
            if overload else None
        gateway = RequestGateway(web, tenants, max_workers=1,
                                 bulkhead_capacity=4, overload=controller)
        first = gateway.submit("GET", f"/tenants/{TENANT}/block")
        assert entered.wait(10)
        second = gateway.submit("GET", f"/tenants/{TENANT}/block")
        assert second.cancel()
        release.set()
        assert first.result(10).status == 200
        stopper = threading.Thread(target=gateway.shutdown, daemon=True)
        stopper.start()
        stopper.join(5)
        assert not stopper.is_alive(), "shutdown never drained"
        assert gateway.bulkhead(TENANT).in_use == 0
        assert gateway._inflight == 0
        if overload:
            assert controller.limiter.in_flight == 0


# -- a half-open breaker let every request through as its probe --------------
#
# ``CircuitBreaker.allow`` answered True to every caller once the
# cooldown had passed, so a recovering tenant's whole backlog hit the
# backend it had just stopped hammering.  Half-open now admits one
# probe at a time; a probe that ends with no outcome (shed, cancelled,
# expired, displaced) is handed back by the gateway's exit step.


class TestHalfOpenAdmitsOneProbe:
    def gateway(self, **kwargs):
        from repro.core.resilience import FakeClock

        web = WebApplication("probe")
        state = {"mode": "fail", "calls": 0}
        entered, release = threading.Event(), threading.Event()

        def handler(request):
            state["calls"] += 1
            if state["mode"] == "fail":
                raise RuntimeError("backend down")
            entered.set()
            assert release.wait(30)
            return JsonResponse({"ok": True})

        web.get(f"/tenants/{TENANT}/rows", handler)
        tenants = TenantManager()
        tenants.register(TENANT, "Acme", "team")
        clock = FakeClock()
        gateway = RequestGateway(web, tenants, clock=clock, **kwargs)
        return gateway, clock, state, entered, release

    def test_one_probe_while_the_rest_are_degraded(self):
        gateway, clock, state, entered, release = self.gateway()
        path = f"/tenants/{TENANT}/rows"
        try:
            for _ in range(gateway.breaker_threshold):
                assert gateway.submit("GET", path).result(10).status == 500
            assert gateway.breaker(TENANT).state == "open"
            clock.advance(gateway.breaker_cooldown + 1)
            state["mode"], state["calls"] = "block", 0
            futures = [gateway.submit("GET", path) for _ in range(6)]
            assert entered.wait(10)
            decisions = [decision for _, decision
                         in list(gateway.dispatch_log)[-6:]]
            assert decisions == ["accepted"] + ["degraded"] * 5
            assert state["calls"] == 1
            for future in futures[1:]:
                assert future.result(10).degraded
        finally:
            release.set()
            gateway.shutdown()
        assert futures[0].result(10).status == 200
        assert gateway.breaker(TENANT).state == "closed"

    def test_a_probe_shed_by_a_full_bulkhead_is_handed_back(self):
        gateway, clock, state, entered, release = self.gateway(
            bulkhead_capacity=1)
        path = f"/tenants/{TENANT}/rows"
        breaker, bulkhead = gateway.breaker(TENANT), gateway.bulkhead(TENANT)
        try:
            _trip(gateway)
            clock.advance(gateway.breaker_cooldown + 1)
            assert bulkhead.try_acquire()   # the tenant's one slot
            shed = gateway.submit("GET", path).result(10)
            assert shed.status == 429
            assert gateway.dispatch_log[-1] == (path, "shed")
            bulkhead.release()
            # The shed probe went back: the next request probes, and
            # the one after it waits on that probe's outcome.
            state["mode"] = "block"
            probe = gateway.submit("GET", path)
            assert entered.wait(10)
            assert gateway.submit("GET", path).result(10).degraded
            assert [d for _, d in list(gateway.dispatch_log)[-2:]] == \
                ["accepted", "degraded"]
        finally:
            release.set()
            gateway.shutdown()
        assert probe.result(10).status == 200
        assert breaker.state == "closed" and state["calls"] == 1
