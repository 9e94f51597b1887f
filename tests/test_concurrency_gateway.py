"""The request gateway: concurrent dispatch and tenant admission.

Covers the serving-layer tentpole at the platform level — overlapping
tenant requests through the worker pool — and the
``TenantManager.deactivate``/``require_active`` interplay: a
deactivated tenant's request is rejected at dispatch (it never reaches
the web stack, let alone a database), not mid-query.
"""

import concurrent.futures
import random
import sys
import threading

import pytest

from repro.core import OdbisPlatform, RequestGateway, TenancyMode, overload
from repro.core.overload import OverloadController, read_only_statement
from repro.core.resilience import FakeClock
from repro.core.tenancy import TenantManager
from repro.errors import TenantError
from repro.web import JsonResponse, WebApplication
from tests.test_perfsmoke import spy

TENANTS = ("acme", "globex")


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    for tenant in TENANTS:
        platform.provisioning.provision(tenant, tenant.title(),
                                        plan="team")
    yield platform
    platform.gateway.shutdown()


def login(platform, tenant):
    response = platform.web.request(
        "POST", "/login",
        body={"username": f"admin@{tenant}", "password": "changeme"})
    assert response.status == 200
    return {"x-auth-token": response.json()["token"]}


class TestDispatch:
    def test_public_path_needs_no_tenant(self, platform):
        response = platform.gateway.submit("GET", "/ping").result(30)
        assert response.status == 200
        assert response.json() == {"status": "up"}

    def test_parallel_tenant_requests_stay_tenant_correct(
            self, platform):
        headers = {tenant: login(platform, tenant)
                   for tenant in TENANTS}
        requests = []
        for repeat in range(8):
            for tenant in TENANTS:
                requests.append({
                    "method": "GET",
                    "path": f"/tenants/{tenant}/datasources",
                    "headers": headers[tenant],
                })
        responses = platform.gateway.dispatch_all(requests)
        assert len(responses) == 16
        for spec, response in zip(requests, responses):
            assert response.status == 200
            tenant = spec["path"].split("/")[2]
            names = [entry["name"] for entry in response.json()]
            assert names == ["warehouse"]
        assert all(decision == "accepted"
                   for _, decision in platform.gateway.dispatch_log)

    def test_pool_really_overlaps_requests(self, platform):
        """All workers must be inside a handler simultaneously."""
        inside = threading.Barrier(platform.gateway.max_workers)

        def rendezvous(request):
            inside.wait(timeout=30)
            from repro.web import JsonResponse
            return JsonResponse({"ok": True})

        platform.web.get("/rendezvous", rendezvous)
        headers = login(platform, "acme")
        futures = [platform.gateway.submit("GET", "/rendezvous",
                                           headers=headers)
                   for _ in range(platform.gateway.max_workers)]
        responses = [future.result(30) for future in futures]
        assert all(response.status == 200 for response in responses)


class TestReadWriteClassification:
    """Shared-mode dispatch classifies SQL on the outermost statement.

    Under MVCC, read-only statements run on the engine's lock-free
    snapshot path; the dispatch log records which side each accepted
    SQL-bearing request landed on.  ``EXPLAIN <dml>`` only renders a
    plan, so it must classify as a read.
    """

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t",
        "SELECT a FROM t UNION SELECT a FROM u",
        "EXPLAIN SELECT * FROM t",
        "EXPLAIN UPDATE t SET a = 1",
        "EXPLAIN DELETE FROM t",
        "EXPLAIN INSERT INTO t VALUES (1)",
    ])
    def test_read_only_statements(self, sql):
        assert read_only_statement(sql)

    @pytest.mark.parametrize("sql", [
        "INSERT INTO t VALUES (1)",
        "UPDATE t SET a = 1",
        "DELETE FROM t",
        "CREATE TABLE t (id INTEGER)",
        "BEGIN",
        "this is not sql at all",
    ])
    def test_write_or_unparseable_statements(self, sql):
        assert not read_only_statement(sql)

    def test_dispatch_log_refines_accepted_for_sql_bodies(
            self, platform):
        from repro.web import JsonResponse

        def echo(request):
            return JsonResponse({"ok": True})

        platform.web.post("/echo-sql", echo)
        headers = login(platform, "acme")
        for body in ({"sql": "EXPLAIN UPDATE t SET a = 1"},
                     {"sql": "INSERT INTO t VALUES (1)"},
                     {"query": "SELECT 1"},
                     {"payload": "no sql here"}):
            response = platform.gateway.submit(
                "POST", "/echo-sql", body=body,
                headers=headers).result(30)
            assert response.status == 200
        decisions = [decision for path, decision
                     in platform.gateway.dispatch_log
                     if path == "/echo-sql"]
        assert decisions == ["accepted-read", "accepted-write",
                             "accepted-read", "accepted"]

    @pytest.mark.parametrize("config", [
        {},
        {"overload": True},
        {"shards": 2, "replicas_per_shard": 1},
    ], ids=["default", "overload", "sharded"])
    def test_a_repeated_statement_is_parsed_for_class_at_most_once(
            self, config, tmp_path, monkeypatch):
        """Admission, QoS class, ``/sql`` routing and the stale-cache
        fill all ask "is this a read?" of the same text; fifty
        requests carrying it cost the front door one parse, not 150."""
        if "shards" in config:
            config = dict(config, data_dir=tmp_path, fsync="off")
        platform = OdbisPlatform(**config)
        try:
            platform.provisioning.provision("acme", "Acme", plan="team")
            headers = login(platform, "acme")

            def sql(statement):
                response = platform.gateway.submit(
                    "POST", "/tenants/acme/sql", headers=headers,
                    body={"sql": statement}).result(30)
                assert response.status == 200, response.body
                return response.json()

            sql("CREATE TABLE parsed_once (id INTEGER PRIMARY KEY)")
            sql("INSERT INTO parsed_once VALUES (1)")
            read_only_statement.cache_clear()
            parses = spy(monkeypatch, overload, "parse_sql")
            for _ in range(50):
                assert sql("SELECT COUNT(*) AS n FROM parsed_once")[
                    "rows"] == [{"n": 1}]
            assert len(parses) <= 1
        finally:
            platform.close()


class TestSqlBodyValidation:
    """A malformed ``/sql`` body is the client's 400, never a 500
    charged to the tenant's breaker, and never a silent rebinding."""

    @staticmethod
    def post(platform, headers, **body):
        return platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body=body).result(30)

    def test_params_must_be_a_json_array(self, platform):
        headers = login(platform, "acme")
        for params in (5, "abc", {"k": 1}) * 2:  # > breaker threshold
            response = self.post(platform, headers,
                                 sql="SELECT ? AS v", params=params)
            assert response.status == 400
            assert "'params'" in response.json()["error"]
        assert platform.gateway.breaker("acme") \
            .consecutive_failures == 0
        bound = self.post(platform, headers, sql="SELECT ? AS v",
                          params=["abc"])
        assert bound.json()["rows"] == [{"v": "abc"}]

    def test_max_staleness_rejects_booleans(self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=2, replicas_per_shard=1)
        try:
            platform.provisioning.provision("acme", "Acme", plan="team")
            headers = login(platform, "acme")
            response = self.post(platform, headers, sql="SELECT 1 AS v",
                                 max_staleness=True)
            assert response.status == 400
            assert "'max_staleness'" in response.json()["error"]
            assert platform.gateway.breaker("acme") \
                .consecutive_failures == 0
            assert self.post(platform, headers, sql="SELECT 1 AS v",
                             max_staleness=1).status == 200
        finally:
            platform.close()


class TestAdmissionControl:
    def test_deactivated_tenant_rejected_at_dispatch(self, platform):
        headers = login(platform, "globex")
        ok = platform.gateway.submit(
            "GET", "/tenants/globex/datasets",
            headers=headers).result(30)
        assert ok.status == 200
        platform.tenants.deactivate("globex")
        with pytest.raises(TenantError):
            platform.tenants.require_active("globex")
        handled_before = platform.web.requests_handled
        response = platform.gateway.submit(
            "GET", "/tenants/globex/datasets",
            headers=headers).result(30)
        assert response.status == 403
        assert "deactivated" in response.json()["error"]
        # Rejected at dispatch: the web stack never saw the request.
        assert platform.web.requests_handled == handled_before
        assert platform.gateway.dispatch_log[-1] == \
            ("/tenants/globex/datasets", "rejected")
        # The other tenant is unaffected.
        acme = platform.gateway.submit(
            "GET", "/tenants/acme/datasets",
            headers=login(platform, "acme")).result(30)
        assert acme.status == 200

    def test_unknown_tenant_rejected_at_dispatch(self, platform):
        response = platform.gateway.submit(
            "GET", "/tenants/nobody/datasets",
            headers=login(platform, "acme")).result(30)
        assert response.status == 404
        assert "unknown tenant" in response.json()["error"]

    def test_reactivation_restores_dispatch(self, platform):
        platform.tenants.deactivate("acme")
        headers = login(platform, "acme")
        assert platform.gateway.submit(
            "GET", "/tenants/acme/datasets",
            headers=headers).result(30).status == 403
        platform.tenants.context("acme").active = True
        assert platform.tenants.require_active("acme")
        assert platform.gateway.submit(
            "GET", "/tenants/acme/datasets",
            headers=headers).result(30).status == 200


class TestIsolatedModeGateway:
    def test_isolated_tenants_use_private_databases(self):
        platform = OdbisPlatform(mode=TenancyMode.ISOLATED)
        try:
            for tenant in TENANTS:
                platform.provisioning.provision(tenant,
                                                tenant.title())
            assert platform.tenants.database_count() == len(TENANTS)
            headers = {tenant: login(platform, tenant)
                       for tenant in TENANTS}
            requests = [{
                "method": "GET",
                "path": f"/tenants/{tenant}/datasources",
                "headers": headers[tenant],
            } for tenant in TENANTS for _ in range(6)]
            responses = platform.gateway.dispatch_all(requests)
            assert all(r.status == 200 for r in responses)
        finally:
            platform.gateway.shutdown()


class TestConcurrentControlPlane:
    def test_concurrent_registration_is_race_free(self):
        manager = TenantManager(TenancyMode.ISOLATED)
        winners = []

        def worker(wid):
            try:
                manager.register("dup", f"from-{wid}")
                winners.append(wid)
            except TenantError:
                pass

        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(winners) == 1
        assert len(manager) == 1

    def test_concurrent_metering_mints_unique_event_ids(self, platform):
        def worker(wid):
            for count in range(20):
                platform.billing.meter("acme", "query", 1)
                if count % 5 == 4:  # flushes race the meters and each other
                    platform.billing.flush()

        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert platform.billing.usage("acme")["query"] == 160
        ids = platform.billing.database.query(
            "SELECT id FROM usage_events WHERE tenant = 'acme'")
        values = [row["id"] for row in ids]
        assert values and len(set(values)) == len(values)


class TestGatewayUnit:
    def test_tenant_of(self):
        assert RequestGateway.tenant_of("/tenants/acme/datasets") == \
            "acme"
        assert RequestGateway.tenant_of("/ping") is None
        assert RequestGateway.tenant_of("/tenants") is None

    def test_context_manager_shuts_pool_down(self):
        platform = OdbisPlatform()
        platform.provisioning.provision("acme", "Acme")
        with platform.gateway as gateway:
            assert gateway.submit("GET", "/ping").result(30).ok
        assert gateway._pool is None


class TestClaimableFutures:
    """A request's future is run by the pool worker that dequeues it or
    by the first thread that waits on it, whichever claims it first —
    exactly once either way."""

    @staticmethod
    def gateway(max_workers, **kwargs):
        """A bare gateway whose ``/block`` parks its thread until
        ``gate`` is set, and whose ``/who`` and ``/fail`` record the
        thread that ran them in ``ran``."""
        web = WebApplication("claims")
        gate, entered, ran = threading.Event(), threading.Event(), []

        def block(request):
            entered.set()
            assert gate.wait(30)
            return JsonResponse({"ok": True})

        def who(request):
            ran.append((request.query.get("n"), threading.get_ident()))
            return JsonResponse({"n": request.query.get("n")})

        def fail(request):
            ran.append(("fail", threading.get_ident()))
            raise RuntimeError("handler broke")

        for prefix in ("", "/tenants/acme"):
            web.get(prefix + "/block", block)
            web.get(prefix + "/who", who)
            web.get(prefix + "/fail", fail)
        tenants = TenantManager()
        tenants.register("acme", "Acme", "team")
        gateway = RequestGateway(web, tenants, max_workers=max_workers,
                                 **kwargs)
        return gateway, gate, entered, ran

    def test_waiting_caller_runs_its_request_when_every_worker_is_busy(
            self):
        gateway, gate, entered, ran = self.gateway(max_workers=1)
        blocker = gateway.submit("GET", "/block")
        try:
            assert entered.wait(10)
            response = gateway.submit("GET", "/who").result(timeout=2)
            assert response.status == 200
            assert ran == [(None, threading.get_ident())]
        finally:
            gate.set()
            assert blocker.result(10).status == 200
            gateway.shutdown()

    def test_racing_waiters_run_each_request_and_callback_once(self):
        gateway, gate, _, ran = self.gateway(max_workers=3)
        gate.set()
        fired = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            futures = []
            for n in range(300):
                future = gateway.submit("GET", "/who", query={"n": n})
                future.add_done_callback(lambda _f, n=n: fired.append(n))
                futures.append(future)

            def waiter(seed):
                order = list(futures)
                random.Random(seed).shuffle(order)
                for future in order:
                    assert future.result(30).status == 200

            threads = [threading.Thread(target=waiter, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            gateway.shutdown()
        assert sorted(n for n, _ in ran) == list(range(300))
        assert sorted(fired) == list(range(300))
        assert [f.result().json()["n"] for f in futures] == \
            list(range(300))
        assert gateway._inflight == 0

    def test_dispatch_all_overlaps_a_batch_one_wider_than_the_pool(
            self):
        size = 4
        inside = threading.Barrier(size)
        web = WebApplication("fan-out")

        def rendezvous(request):
            inside.wait(timeout=5)
            return JsonResponse({"ok": True})

        web.get("/rendezvous", rendezvous)
        gateway = RequestGateway(web, TenantManager(),
                                 max_workers=size - 1)
        try:
            responses = gateway.dispatch_all(
                [{"method": "GET", "path": "/rendezvous"}] * size)
            assert [r.status for r in responses] == [200] * size
        finally:
            gateway.shutdown()

    def test_parked_request_is_not_run_by_its_waiting_caller(self):
        controller = OverloadController(
            clock=FakeClock(), queue_capacity=4, initial_limit=1,
            min_limit=1, max_limit=1)
        gateway, gate, entered, ran = self.gateway(
            max_workers=2, overload=controller)
        blocker = gateway.submit("GET", "/block")
        try:
            assert entered.wait(10)
            parked = gateway.submit("GET", "/who")
            assert len(controller.queue) == 1
            tried = threading.Event()
            claim = parked.claim

            def watched_claim():
                claim()
                tried.set()

            parked.claim = watched_claim
            answers = []
            waiter = threading.Thread(
                target=lambda: answers.append(parked.result(30)))
            waiter.start()
            # The waiter's one claim found nothing armed: the limiter
            # slot is still the blocker's.
            assert tried.wait(10)
            assert ran == [] and not parked.done()
            gate.set()
            waiter.join(30)
            assert not waiter.is_alive()
            assert answers[0].status == 200
            assert [ident for _, ident in ran] != [waiter.ident]
            assert ("/who", "queued") in gateway.dispatch_log
        finally:
            gate.set()
            blocker.result(10)
            gateway.shutdown()

    def test_a_failing_handler_answers_alike_on_either_thread(self):
        gateway, gate, entered, ran = self.gateway(
            max_workers=1, bulkhead_capacity=4)
        path = "/tenants/acme/fail"
        breaker = gateway.breaker("acme")
        try:
            on_worker = gateway.submit("GET", path)
            concurrent.futures.wait([on_worker], timeout=10)
            assert on_worker.done()
            after_worker = breaker.consecutive_failures

            blocker = gateway.submit("GET", "/tenants/acme/block")
            assert entered.wait(10)
            on_caller = gateway.submit("GET", path).result(timeout=2)
            assert breaker.consecutive_failures == after_worker + 1 == 2
        finally:
            gate.set()
            gateway.shutdown()
        assert blocker.result(10).status == 200
        first = on_worker.result()
        assert ran[0][1] != threading.get_ident()
        assert ran[1] == ("fail", threading.get_ident())
        for response in (first, on_caller):
            assert response.status == 500
            assert response.json() == {"error": "handler broke",
                                       "code": "internal_failure"}


class TestAdmissionConservation:
    """Whatever way each request leaves, admission gets back all it took.

    A seeded mix of tenants (active, deactivated, unknown), handlers
    that answer, raise or block, one service per QoS class, cancels,
    waits that claim a request on the calling thread, clock jumps past
    the deadline or the breaker cooldown (then ``pump``) and brownout
    pressure pushed up and down runs through one gateway on a fake
    clock.  Once the blocked handlers are released and every future has
    answered, no bulkhead slot, limiter slot, in-flight count, queue
    entry or half-open probe may still be held.
    """

    TENANTS = ("acme", "globex", "initech", "asleep", "ghost")
    SERVICES = ("datasets", "reports", "etl")   # one per QoS class
    HANDLERS = ("answer", "answer", "raise", "raise", "block")

    def run(self, seed, with_overload):
        rng = random.Random(seed)
        clock = FakeClock()
        released = threading.Event()
        blocked = []    # one gate per handler call told to block

        def handler(request):
            how = request.path_params["how"]
            if how == "raise":
                raise RuntimeError("handler broke")
            if how == "block":
                gate = threading.Event()
                blocked.append(gate)
                while not gate.wait(0.01) and not released.is_set():
                    pass
            return JsonResponse({"ok": True})

        web = WebApplication("conservation")
        web.get("/tenants/{tenant}/{service}/{how}", handler)
        tenants = TenantManager()
        for tenant in self.TENANTS[:4]:
            tenants.register(tenant, tenant.title(), "team")
        tenants.deactivate("asleep")
        controller = OverloadController(
            clock=clock, queue_capacity=2, initial_limit=2, min_limit=2,
            max_limit=2) if with_overload else None
        gateway = RequestGateway(
            web, tenants, max_workers=2, clock=clock, deadline_seconds=1.0,
            bulkhead_capacity=2, overload=controller)
        gateway.breaker_threshold = 2   # so the mix opens breakers
        submitted = []
        try:
            for _ in range(80):
                roll = rng.random()
                if roll < 0.5 or not submitted:
                    how = rng.choice(self.HANDLERS)
                    submitted.append((how, gateway.submit(
                        "GET", f"/tenants/{rng.choice(self.TENANTS)}/"
                               f"{rng.choice(self.SERVICES)}/{how}")))
                elif roll < 0.6:
                    rng.choice(submitted)[1].cancel()
                elif roll < 0.7:
                    how, future = rng.choice(submitted)
                    if how != "block":
                        try:
                            future.exception(timeout=0)
                        except (concurrent.futures.TimeoutError,
                                concurrent.futures.CancelledError):
                            pass
                elif roll < 0.75 and blocked:
                    blocked.pop(0).set()
                elif roll < 0.85:
                    clock.advance(rng.choice((0.4, 1.5, 31.0)))
                    gateway.pump()
                elif controller is not None:
                    pressure = rng.choice((0.0, 1.0))
                    for _ in range(rng.randint(1, 8)):
                        controller.brownout.observe(pressure)
        finally:
            released.set()
        futures = [future for _, future in submitted]
        # Each completion pumps the queue; this pump only hurries
        # entries parked while the last limiter slots were freeing.
        for _ in range(200):
            gateway.pump()
            if not concurrent.futures.wait(futures, timeout=0.05).not_done:
                break
        stopper = threading.Thread(target=gateway.shutdown, daemon=True)
        stopper.start()
        stopper.join(10)

        assert not stopper.is_alive(), "shutdown never drained"
        assert all(future.done() for future in futures)
        assert gateway._inflight == 0
        health = gateway.tenant_health()
        assert all(h.bulkhead_in_use == 0 for h in health.values())
        assert all(gateway.breaker(tenant)._probe is None
                   for tenant in health)
        if controller is not None:
            assert controller.limiter.in_flight == 0
            assert len(controller.queue) == 0
        return gateway.decision_counts

    @pytest.mark.parametrize("with_overload", [False, True],
                             ids=["static", "overload"])
    def test_every_token_comes_back_at_quiescence(self, with_overload):
        seen = set()
        for seed in range(30):
            try:
                seen |= set(self.run(seed, with_overload))
            except AssertionError as exc:
                raise AssertionError(f"seed {seed}: {exc}") from exc
        # The mix is not vacuous: it reached the exits that hand
        # something back, not only the early rejections.
        assert {"rejected", "shed", "degraded", "accepted"} <= seen
        if with_overload:
            assert {"queued", "expired", "queue-shed", "queue-displaced",
                    "brownout-shed", "brownout-degraded"} <= seen
