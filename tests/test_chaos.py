"""The deterministic chaos battery (marker: ``chaos``).

Every test drives the assembled platform with a seeded
:class:`FaultInjector` and asserts *exact* outcomes: same seed ⇒ same
injected fault sites ⇒ same final platform state.  All clocks are
fake, so breaker cooldowns and retry backoff never sleep for real, and
the battery runs in tier-1.
"""

import pytest

from repro.core import OdbisPlatform
from repro.core.gateway import DegradedResponse
from repro.core.resilience import FakeClock, FaultInjector, RetryPolicy
from repro.engine.database import Database
from repro.errors import InjectedFault, SnapshotError
from repro.etl import RowsSource, Schedule

pytestmark = pytest.mark.chaos

TENANTS = ("acme", "globex")


def build_platform(**kwargs):
    platform = OdbisPlatform(clock=FakeClock(), **kwargs)
    for tenant in TENANTS:
        platform.provisioning.provision(tenant, tenant.title(),
                                        plan="team")
    return platform


def login(platform, tenant):
    response = platform.web.request(
        "POST", "/login",
        body={"username": f"admin@{tenant}", "password": "changeme"})
    assert response.status == 200
    return {"x-auth-token": response.json()["token"]}


def run_chaos_session(seed):
    """One fully seeded platform lifetime; returns its fingerprint.

    The workload covers every instrumented layer: gateway requests
    whose handler publishes on the ESB (``esb.publish`` +
    ``esb.deliver`` sites), scheduled ETL ticks (``etl.job`` site) and
    request handling itself (``gateway.handle`` site) — all at a 30%
    injected fault rate.
    """
    platform = build_platform()
    delivered = []
    platform.resources.bus.service_activator(
        "platform-events", delivered.append)

    def touch(request):
        platform.resources.publish_event(request.tenant, "touch")
        return_payload = {"tenant": request.tenant, "ok": True}
        from repro.web import JsonResponse
        return JsonResponse(return_payload)

    platform.web.get("/tenants/{tenant}/touch", touch)
    headers = {tenant: login(platform, tenant) for tenant in TENANTS}

    # A flaky nightly job per tenant: the etl.job fault site decides
    # whether a given run fails.
    for tenant in TENANTS:
        platform.integration.define_job(
            tenant, "nightly", RowsSource([{"x": 1}]))
        platform.integration.schedule_job(
            tenant, "nightly", Schedule(every_minutes=10))

    # Chaos goes live only after clean provisioning.
    platform.faults.inject("esb.publish", rate=0.3, seed=seed)
    platform.faults.inject("esb.deliver", rate=0.3, seed=seed + 1)
    platform.faults.inject("etl.job", rate=0.3, seed=seed + 2)
    platform.faults.inject("gateway.handle", rate=0.3, seed=seed + 3)

    statuses = []
    # Sequential submits keep the fault-draw order deterministic.
    for round_number in range(15):
        for tenant in TENANTS:
            future = platform.gateway.submit(
                "GET", f"/tenants/{tenant}/touch",
                headers=headers[tenant])
            response = future.result(30)
            statuses.append((tenant, response.status,
                             bool(getattr(response, "degraded",
                                          False))))
        platform.integration.advance_clock(10)

    fingerprint = {
        "fault_history": list(platform.faults.history),
        "statuses": statuses,
        "dead_letters": len(platform.resources.bus.dead_letters),
        "delivered": len(delivered),
        # Message ids come from a process-wide counter, so normalize
        # them out of the fingerprint: order + attempts is the state.
        "retry_log": [(channel, attempts) for channel, _mid, attempts
                      in platform.resources.bus.retry_log],
        "health": platform.health_report().to_dict(),
        "run_history": [
            {key: entry[key] for key in ("tenant", "job",
                                         "rows_written")}
            for tenant in TENANTS
            for entry in platform.integration.run_history(tenant)
        ],
    }
    platform.gateway.shutdown()
    return fingerprint


class TestDeterminism:
    def test_same_seed_same_faults_same_final_state(self):
        first = run_chaos_session(seed=7)
        second = run_chaos_session(seed=7)
        assert first["fault_history"] == second["fault_history"]
        assert first == second

    def test_different_seed_different_chaos(self):
        first = run_chaos_session(seed=7)
        other = run_chaos_session(seed=8)
        assert first["fault_history"] != other["fault_history"]


class TestGatewayKeepsServing:
    def test_thirty_percent_faults_zero_unhandled_escapes(self):
        fingerprint = run_chaos_session(seed=42)
        # Chaos really happened...
        assert fingerprint["fault_history"]
        # ...yet every single request resolved to a response: a
        # success, a typed error (500 internal_failure from the
        # injected gateway fault) or a degraded answer — nothing
        # raised out of a future.
        assert len(fingerprint["statuses"]) == 15 * len(TENANTS)
        for _tenant, status, _degraded in fingerprint["statuses"]:
            assert status in (200, 429, 500, 503, 504)
        # The breaker/quarantine state is observable in the report.
        health = fingerprint["health"]
        assert set(health["tenants"]) == set(TENANTS)
        for tenant in TENANTS:
            assert health["tenants"][tenant]["breaker"] in (
                "closed", "open", "half-open")
        assert health["fault_sites"]  # chaos is visible, per site

    def test_exhausted_esb_retries_park_in_dead_letters(self):
        fingerprint = run_chaos_session(seed=42)
        # With a 30% fault rate and 3 attempts, some publishes and
        # deliveries exhausted their retries: the messages are parked,
        # not lost, and some retries recovered (retry_log non-empty).
        assert fingerprint["dead_letters"] > 0
        assert fingerprint["retry_log"]
        # But most deliveries still landed.
        assert fingerprint["delivered"] > 0


class TestBreakerDegradedMode:
    def test_open_breaker_serves_stale_with_marker(self):
        platform = build_platform()
        headers = login(platform, "acme")
        path = "/tenants/acme/datasources"
        # Prime the stale cache with one good response.
        good = platform.gateway.submit("GET", path,
                                       headers=headers).result(30)
        assert good.status == 200
        baseline = good.json()

        # Now the backend "breaks": every handled request fails until
        # the breaker trips.
        platform.faults.inject("gateway.handle", rate=1.0, seed=0)
        threshold = platform.gateway.breaker_threshold
        for _ in range(threshold):
            response = platform.gateway.submit(
                "GET", path, headers=headers).result(30)
            assert response.status == 500
            assert response.json()["code"] == "internal_failure"

        assert platform.gateway.breaker("acme").state == "open"
        degraded = platform.gateway.submit(
            "GET", path, headers=headers).result(30)
        assert isinstance(degraded, DegradedResponse)
        assert degraded.degraded and degraded.stale
        body = degraded.json()
        assert body["stale"] is True
        assert "stale_as_of" in body
        assert body["data"] == baseline  # the cached report
        # Degraded answers never occupy a worker or touch the backend:
        # the dispatch log shows the short-circuit.
        assert platform.gateway.dispatch_log[-1] == (path, "degraded")

        # Past cooldown (fake clock!) the half-open probe runs; with
        # the faults cleared it closes the breaker again.
        platform.faults.clear()
        platform.clock.advance(platform.gateway.breaker_cooldown + 1)
        recovered = platform.gateway.submit(
            "GET", path, headers=headers).result(30)
        assert recovered.status == 200
        assert platform.gateway.breaker("acme").state == "closed"
        assert platform.health_report().tenants["acme"].healthy
        platform.gateway.shutdown()

    def test_open_breaker_without_cache_is_typed_503(self):
        platform = build_platform()
        headers = login(platform, "acme")
        platform.faults.inject("gateway.handle", rate=1.0, seed=0)
        path = "/tenants/acme/datasets"
        for _ in range(platform.gateway.breaker_threshold):
            platform.gateway.submit("GET", path,
                                    headers=headers).result(30)
        degraded = platform.gateway.submit(
            "GET", path, headers=headers).result(30)
        assert isinstance(degraded, DegradedResponse)
        assert degraded.status == 503
        assert not degraded.stale
        platform.gateway.shutdown()


class TestQuarantineVisibility:
    def test_failing_job_quarantines_and_reports(self):
        platform = build_platform()

        def always_down():
            raise OSError("source system unreachable")

        from repro.etl.sources import CallableSource
        platform.integration.define_job(
            "acme", "doomed", CallableSource(always_down))
        platform.integration.schedule_job(
            "acme", "doomed", Schedule(every_minutes=10))
        quarantine_after = platform.integration.QUARANTINE_AFTER
        platform.integration.advance_clock(10 * (quarantine_after + 2))

        assert platform.integration.quarantined_jobs("acme") == \
            ["doomed"]
        report = platform.health_report()
        assert report.tenants["acme"].quarantined_jobs == ["doomed"]
        assert not report.healthy
        # Skips are recorded ("reported, not dropped").
        history = platform.integration.run_history("acme")
        assert any(entry.get("status") == "quarantined"
                   for entry in history)
        # A manual run is refused with a typed error until readmitted.
        from repro.errors import JobQuarantinedError
        with pytest.raises(JobQuarantinedError):
            platform.integration.run_job("acme", "doomed")
        platform.integration.unquarantine_job("acme", "doomed")
        assert platform.integration.quarantined_jobs("acme") == []
        platform.gateway.shutdown()


class TestSnapshotTornWrite:
    def test_torn_write_leaves_previous_snapshot_intact(self, tmp_path):
        database = Database("wh")
        database.execute("CREATE TABLE t (x INTEGER)")
        database.execute("INSERT INTO t (x) VALUES (1)")
        target = tmp_path / "wh.snap"
        database.save(target)

        database.execute("INSERT INTO t (x) VALUES (2)")
        faults = FaultInjector()
        faults.inject("storage.write", rate=1.0, seed=3)
        with pytest.raises(InjectedFault):
            database.save(target, faults=faults)

        # The torn write hit only the temp file (cleaned up), and the
        # previous snapshot still loads.
        assert list(tmp_path.iterdir()) == [target]
        restored = Database.load(target)
        assert restored.query("SELECT x FROM t ORDER BY x") == \
            [{"x": 1}]

    def test_truncated_snapshot_is_a_typed_error(self, tmp_path):
        database = Database("wh")
        database.execute("CREATE TABLE t (x INTEGER)")
        target = tmp_path / "wh.snap"
        database.save(target)
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])  # torn on disk
        with pytest.raises(SnapshotError):
            Database.load(target)

    def test_save_retried_past_injected_faults_recovers(self, tmp_path):
        database = Database("wh")
        database.execute("CREATE TABLE t (x INTEGER)")
        database.execute("INSERT INTO t (x) VALUES (7)")
        target = tmp_path / "wh.snap"
        faults = FaultInjector()
        # Fires on the first two draws with this seed, then passes.
        faults.inject("storage.write", rate=1.0, seed=0, limit=2)
        policy = RetryPolicy(attempts=4)
        policy.call(lambda: database.save(target, faults=faults),
                    clock=FakeClock())
        assert len(faults.history) == 2
        restored = Database.load(target)
        assert restored.query("SELECT x FROM t") == [{"x": 7}]
