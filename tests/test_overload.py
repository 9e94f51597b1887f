"""Adaptive overload control: the battery behind DESIGN.md §8.

Covers the overload kernel (:mod:`repro.core.overload`) unit by unit
— QoS classification, the bounded priority admission queue, the AIMD
limiter, per-tenant retry budgets, the brownout ladder, hedged calls
— and the gateway/platform integration: deadline-in-queue aging
answered 504 without ever invoking a handler, Retry-After on every
shed/degraded/timeout response, the dispatch-log ring buffer, the
deterministic decision log (same seed ⇒ identical log), and zero
unhandled escapes under 30% fault injection with the limiter active.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gateway as gateway_module
from repro.core.gateway import RequestGateway
from repro.core.overload import (
    QOS_BATCH,
    QOS_INTERACTIVE,
    QOS_REPORTING,
    AIMDLimiter,
    AdmissionQueue,
    BrownoutController,
    LatencyTracker,
    OverloadController,
    RetryBudget,
    classify_request,
    hedged_call,
    read_only_statement,
)
from repro.core.platform import OdbisPlatform
from repro.core.resilience import (
    Bulkhead,
    CircuitBreaker,
    Deadline,
    FakeClock,
    FaultInjector,
    RetryPolicy,
)
from repro.core.tenancy import TenancyMode, TenantManager
from repro.engine.parser import READ_ONLY_STATEMENTS, parse_sql
from repro.errors import BulkheadReleaseError, RetryExhaustedError
from repro.web import JsonResponse, WebApplication

pytestmark = pytest.mark.overload


# -- QoS classification -----------------------------------------------------------

_NAMES = st.sampled_from(["t", "u", "orders", "select_", "v1"])
_SELECTS = st.builds("SELECT {} FROM {} WHERE a = {}".format,
                     st.sampled_from(["*", "a", "COUNT(*)", "a, b"]),
                     _NAMES, st.integers(-3, 3))
_WRITES = st.one_of(
    st.builds("INSERT INTO {} VALUES ({})".format, _NAMES,
              st.integers(0, 9)),
    st.builds("UPDATE {} SET a = {}".format, _NAMES, st.integers(0, 9)),
    st.builds("DELETE FROM {}".format, _NAMES),
    st.builds("CREATE TABLE {} (id INTEGER)".format, _NAMES),
    st.builds("DROP TABLE {}".format, _NAMES),
    st.sampled_from(["BEGIN", "COMMIT", "ROLLBACK"]))
#: Generated statements of every class, bare and under EXPLAIN, plus
#: compounds and texts a stray prefix or suffix makes unparseable.
STATEMENTS = st.one_of(
    _SELECTS, _WRITES,
    st.builds("{} UNION {}".format, _SELECTS, _SELECTS),
    st.builds("EXPLAIN {}".format, st.one_of(_SELECTS, _WRITES)),
    st.builds("{} {}".format, st.one_of(_SELECTS, _WRITES),
              st.sampled_from([")", "SELECT", ";;", "'"])))


class TestClassification:
    @pytest.mark.parametrize("method,path,sql,expected", [
        ("GET", "/tenants/acme/dashboards", None, QOS_INTERACTIVE),
        ("GET", "/tenants/acme/datasets", None, QOS_INTERACTIVE),
        ("POST", "/tenants/acme/mdx", None, QOS_INTERACTIVE),
        ("POST", "/tenants/acme/sql", "SELECT 1", QOS_INTERACTIVE),
        ("POST", "/tenants/acme/sql", "EXPLAIN UPDATE t SET a = 1",
         QOS_INTERACTIVE),
        ("GET", "/tenants/acme/reports", None, QOS_REPORTING),
        ("POST", "/tenants/acme/reports/r/run", None, QOS_REPORTING),
        ("POST", "/tenants/acme/sql", "INSERT INTO t VALUES (1)",
         QOS_BATCH),
        ("POST", "/tenants/acme/sql", "not really sql", QOS_BATCH),
        ("POST", "/tenants/acme/design", None, QOS_BATCH),
        ("GET", "/admin/health", None, QOS_BATCH),
        ("GET", "/ping", None, QOS_INTERACTIVE),
    ])
    def test_classes(self, method, path, sql, expected):
        assert classify_request(method, path, sql) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(STATEMENTS, st.text(max_size=40)),
                    min_size=1, max_size=8))
    def test_memoised_answer_is_the_parsed_class(self, texts):
        """The memo is a pure function of the text: whatever was asked
        before, and however often, the answer is the class of the
        parsed statement — and a parse error is a write."""
        def expected(sql):
            try:
                return isinstance(parse_sql(sql), READ_ONLY_STATEMENTS)
            except Exception:
                return False

        for sql in texts + texts[::-1]:
            assert read_only_statement(sql) is expected(sql)


# -- AIMD limiter -----------------------------------------------------------------


class TestAimdLimiter:
    def test_additive_increase_on_success(self):
        limiter = AIMDLimiter(initial_limit=4, clock=FakeClock())
        for _ in range(5):
            limiter.on_success(0.01)
        # increase/limit per success: ~one full window per unit gained.
        assert limiter.limit == 5

    def test_multiplicative_decrease_on_failure(self):
        limiter = AIMDLimiter(initial_limit=16, decrease=0.5,
                              clock=FakeClock())
        limiter.on_failure("5xx")
        assert limiter.limit == 8

    def test_floor_and_ceiling_hold(self):
        clock = FakeClock()
        limiter = AIMDLimiter(initial_limit=2, min_limit=2,
                              max_limit=4, clock=clock)
        for _ in range(100):
            limiter.on_failure()
            clock.advance(10.0)
        assert limiter.limit == 2
        for _ in range(1000):
            limiter.on_success(0.01)
        assert limiter.limit == 4

    def test_decrease_cooldown_bounds_a_burst_to_one_halving(self):
        clock = FakeClock()
        limiter = AIMDLimiter(initial_limit=16, decrease=0.5,
                              decrease_cooldown=1.0, clock=clock)
        for _ in range(5):  # one burst of misses, same instant
            limiter.on_failure()
        assert limiter.limit == 8  # halved once, not five times
        clock.advance(1.5)
        limiter.on_failure()
        assert limiter.limit == 4

    def test_latency_gradient_backs_off_before_errors(self):
        clock = FakeClock()
        limiter = AIMDLimiter(initial_limit=8,
                              gradient_tolerance=2.0,
                              baseline_smoothing=0.05,
                              observed_smoothing=0.5, clock=clock)
        for _ in range(50):
            limiter.on_success(0.01)  # establish the baseline
        before = limiter.limit
        clock.advance(10.0)
        for _ in range(20):
            limiter.on_success(0.2)  # 20x the baseline, no errors
        snap = limiter.snapshot()
        assert snap["gradient_decreases"] >= 1
        assert limiter.limit < before

    def test_try_acquire_enforces_the_limit(self):
        limiter = AIMDLimiter(initial_limit=2, clock=FakeClock())
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()
        limiter.release()
        assert limiter.try_acquire()


# -- priority admission queue -----------------------------------------------------


class TestAdmissionQueue:
    def test_poll_serves_by_class_then_fifo(self):
        queue = AdmissionQueue(8, clock=FakeClock())
        queue.offer(QOS_BATCH, payload="b1")
        queue.offer(QOS_INTERACTIVE, payload="i1")
        queue.offer(QOS_REPORTING, payload="r1")
        queue.offer(QOS_INTERACTIVE, payload="i2")
        order = [queue.poll().payload for _ in range(4)]
        assert order == ["i1", "i2", "r1", "b1"]
        assert queue.poll() is None

    def test_full_queue_displaces_newest_lower_class(self):
        queue = AdmissionQueue(2, clock=FakeClock())
        queue.offer(QOS_BATCH, payload="b1")
        queue.offer(QOS_BATCH, payload="b2")
        entry, displaced = queue.offer(QOS_INTERACTIVE, payload="i1")
        assert entry is not None
        assert displaced.payload == "b2"  # newest batch, not oldest
        assert queue.snapshot()["displaced"] == 1

    def test_full_queue_refuses_equal_or_lower_class(self):
        queue = AdmissionQueue(2, clock=FakeClock())
        queue.offer(QOS_INTERACTIVE, payload="i1")
        queue.offer(QOS_INTERACTIVE, payload="i2")
        entry, displaced = queue.offer(QOS_INTERACTIVE, payload="i3")
        assert entry is None and displaced is None
        entry, displaced = queue.offer(QOS_BATCH, payload="b1")
        assert entry is None and displaced is None
        assert queue.snapshot()["refused"] == 2

    def test_take_expired_harvests_aged_entries_in_order(self):
        clock = FakeClock()
        queue = AdmissionQueue(8, clock=clock)
        first, _ = queue.offer(
            QOS_INTERACTIVE, deadline=Deadline(1.0, clock=clock),
            payload="short")
        queue.offer(QOS_INTERACTIVE,
                    deadline=Deadline(10.0, clock=clock),
                    payload="long")
        clock.advance(2.0)
        expired = queue.take_expired()
        assert [entry.payload for entry in expired] == ["short"]
        assert expired[0] is first
        assert len(queue) == 1
        assert queue.poll().payload == "long"

    def test_estimated_drain_scales_with_depth(self):
        queue = AdmissionQueue(16, clock=FakeClock())
        for _ in range(8):
            queue.offer(QOS_BATCH)
        assert queue.estimated_drain(0.1, 4) == pytest.approx(0.2)
        assert queue.estimated_drain(0.1, 1) == pytest.approx(0.8)


# -- retry budgets ----------------------------------------------------------------


class TestRetryBudget:
    def test_spend_until_empty_then_denied(self):
        budget = RetryBudget(capacity=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.snapshot()["denied"] == 1

    def test_successes_refill_up_to_capacity(self):
        budget = RetryBudget(capacity=1.0, refill_per_success=0.5)
        assert budget.try_spend()
        assert not budget.try_spend()
        budget.record_success()
        budget.record_success()
        assert budget.try_spend()
        for _ in range(100):
            budget.record_success()
        assert budget.tokens == pytest.approx(1.0)  # capped

    def test_retry_policy_stops_when_budget_is_exhausted(self):
        calls = []

        def always_down():
            calls.append(1)
            raise OSError("down")

        policy = RetryPolicy(attempts=5, base_delay=0.0)
        budget = RetryBudget(capacity=2.0, refill_per_success=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            policy.call(always_down, clock=FakeClock(), budget=budget)
        # 1 first attempt + 2 budgeted retries, not 5 attempts.
        assert len(calls) == 3
        assert "retry budget exhausted" in str(info.value)

    def test_first_attempt_success_refills_the_budget(self):
        policy = RetryPolicy(attempts=3)
        budget = RetryBudget(capacity=10.0, refill_per_success=1.0,
                             initial=0.0)
        assert policy.call(lambda: "ok", clock=FakeClock(),
                           budget=budget) == "ok"
        assert budget.tokens == pytest.approx(1.0)

    def test_budgets_are_per_tenant_on_the_controller(self):
        controller = OverloadController(clock=FakeClock())
        acme = controller.budget("acme")
        assert controller.budget("acme") is acme
        assert controller.budget("globex") is not acme
        acme.try_spend(acme.capacity)
        assert controller.budget("globex").try_spend()


# -- brownout ladder --------------------------------------------------------------


class TestBrownoutLadder:
    def test_ladder_steps_up_in_contract_order(self):
        clock = FakeClock()
        brownout = BrownoutController(thresholds=(0.5, 0.75, 0.9),
                                      smoothing=1.0, clock=clock)
        assert brownout.level == 0
        assert brownout.allows_cache_fill()
        brownout.observe(0.6)
        assert brownout.stage == "no-cache-fill"
        assert not brownout.allows_cache_fill()
        assert not brownout.sheds(QOS_BATCH)
        brownout.observe(0.8)
        assert brownout.stage == "shed-batch"
        assert brownout.sheds(QOS_BATCH)
        assert not brownout.degrades(QOS_REPORTING)
        brownout.observe(0.95)
        assert brownout.stage == "degrade-reporting"
        assert brownout.degrades(QOS_REPORTING)
        # Interactive is never shed or degraded by the ladder.
        assert not brownout.sheds(QOS_INTERACTIVE)
        assert not brownout.degrades(QOS_INTERACTIVE)

    def test_step_down_needs_hysteresis_and_dwell(self):
        clock = FakeClock()
        brownout = BrownoutController(thresholds=(0.5, 0.75, 0.9),
                                      smoothing=1.0, hysteresis=0.1,
                                      min_dwell=5.0, clock=clock)
        brownout.observe(0.6)
        assert brownout.level == 1
        # Just under the threshold: inside the hysteresis band.
        brownout.observe(0.45)
        assert brownout.level == 1
        # Clear of the band but before the dwell elapses.
        brownout.observe(0.1)
        assert brownout.level == 1
        clock.advance(6.0)
        brownout.observe(0.1)
        assert brownout.level == 0

    def test_steps_down_one_rung_at_a_time(self):
        clock = FakeClock()
        brownout = BrownoutController(thresholds=(0.5, 0.75, 0.9),
                                      smoothing=1.0, min_dwell=1.0,
                                      clock=clock)
        brownout.observe(1.0)
        assert brownout.level == 3
        clock.advance(2.0)
        brownout.observe(0.0)
        assert brownout.level == 2
        clock.advance(2.0)
        brownout.observe(0.0)
        assert brownout.level == 1


# -- Retry-After and typed guard errors -------------------------------------------


class TestRetryAfterAndGuards:
    def test_breaker_retry_after_is_never_negative(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(4.999)
        assert breaker.retry_after() >= 0.0
        # At and past the open→half-open boundary: exactly 0.0, never
        # a negative remainder.
        clock.advance(0.002)
        assert breaker.retry_after() == 0.0
        clock.advance(1000.0)
        assert breaker.retry_after() == 0.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_unmatched_bulkhead_release_raises_typed_error(
            self, monkeypatch):
        # The typed-error path is the non-sanitized contract; pin the
        # env so a REPRO_SANITIZE=1 rerun still tests it.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        bulkhead = Bulkhead(2, name="t")
        with pytest.raises(BulkheadReleaseError):
            bulkhead.release()
        # The counter was not driven negative by the attempt.
        assert bulkhead.in_use == 0
        assert bulkhead.try_acquire()
        bulkhead.release()

    def test_sanitize_mode_floors_at_zero_and_reports(self, monkeypatch):
        from repro.analysis.concurrency.sanitizer import (
            default_sanitizer,
            reset_default_sanitizer,
        )

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_default_sanitizer()
        try:
            bulkhead = Bulkhead(2, name="t")
            bulkhead.release()  # no raise under the sanitizer
            assert bulkhead.in_use == 0
            reports = default_sanitizer().reports
            assert any(report.kind == "bulkhead-overrelease"
                       for report in reports)
        finally:
            reset_default_sanitizer()


# -- hedged calls -----------------------------------------------------------------


class TestHedgedCalls:
    def test_fast_primary_wins_without_hedging(self):
        result, info = hedged_call(lambda: "fast", lambda: "backup",
                                   hedge_after=1.0)
        assert result == "fast"
        assert info == {"winner": "primary", "hedged": False}

    def test_slow_primary_loses_to_the_backup(self):
        release = threading.Event()

        def slow():
            release.wait(5.0)
            return "slow"

        result, info = hedged_call(slow, lambda: "backup",
                                   hedge_after=0.01)
        release.set()
        assert result == "backup"
        assert info["hedged"] and info["winner"] == "backup"

    def test_empty_budget_denies_the_hedge(self):
        release = threading.Event()
        backup_calls = []

        def slow():
            release.wait(5.0)
            return "slow"

        def backup():
            backup_calls.append(1)
            return "backup"

        budget = RetryBudget(capacity=1.0, initial=0.0)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        result, info = hedged_call(slow, backup, hedge_after=0.01,
                                   budget=budget)
        timer.cancel()
        assert result == "slow"
        assert info.get("hedge_denied") is True
        assert backup_calls == []

    def test_hedge_spends_a_budget_token(self):
        release = threading.Event()

        def slow():
            release.wait(5.0)
            return "slow"

        budget = RetryBudget(capacity=2.0)
        result, _ = hedged_call(slow, lambda: "backup",
                                hedge_after=0.01, budget=budget)
        release.set()
        assert result == "backup"
        assert budget.tokens == pytest.approx(1.0)

    def test_failed_primary_falls_through_to_backup(self):
        def bad():
            raise OSError("replica gone")

        result, info = hedged_call(bad, lambda: "backup",
                                   hedge_after=0.01)
        assert result == "backup"

    def test_both_failing_raises_the_primary_error(self):
        def bad_primary():
            raise OSError("primary down")

        def bad_backup():
            raise ValueError("backup down")

        with pytest.raises(OSError):
            hedged_call(bad_primary, bad_backup, hedge_after=0.01)


# -- gateway integration ----------------------------------------------------------


def build_gateway(clock, controller, deadline_seconds=5.0,
                  handler=None, **kwargs):
    """A minimal gateway over one `/work` route with a call counter."""
    web = WebApplication("overload-test")
    calls = []

    def default_handler(request):
        calls.append(request.path)
        return JsonResponse({"ok": True})

    web.get("/work", handler or default_handler)
    gateway = RequestGateway(
        web, TenantManager(TenancyMode.SHARED), clock=clock,
        deadline_seconds=deadline_seconds, overload=controller,
        **kwargs)
    return gateway, calls


class TestDeadlineInQueueAging:
    def test_expired_queued_request_is_504_and_never_runs(self):
        clock = FakeClock()
        controller = OverloadController(
            clock=clock, queue_capacity=8, initial_limit=1,
            min_limit=1, max_limit=1)
        block = threading.Event()
        entered = threading.Event()
        calls = []

        def blocking_handler(request):
            calls.append(request.path)
            entered.set()
            block.wait(30)
            return JsonResponse({"ok": True})

        gateway, _ = build_gateway(clock, controller,
                                   deadline_seconds=2.0,
                                   handler=blocking_handler)
        try:
            running = gateway.submit("GET", "/work")
            assert entered.wait(10)
            queued = gateway.submit("GET", "/work")
            assert not queued.done()
            assert controller.queue.depths()[QOS_INTERACTIVE] == 1

            clock.advance(3.0)  # past the 2s deadline, still queued
            gateway.pump()
            response = queued.result(10)
            assert response.status == 504
            payload = response.json()
            assert payload["code"] == "deadline_exceeded"
            assert payload["retry_after"] >= 0.0
            assert "retry-after" in response.headers
            # The handler ran exactly once — for the blocking request,
            # never for the one that aged out in the queue.
            assert len(calls) == 1
            assert ("/work", "expired") in gateway.dispatch_log
        finally:
            block.set()
            running.result(10)
            gateway.shutdown()

    def test_aging_under_a_full_queue_ahead_of_it(self):
        clock = FakeClock()
        controller = OverloadController(
            clock=clock, queue_capacity=3, initial_limit=1,
            min_limit=1, max_limit=1)
        block = threading.Event()
        entered = threading.Event()
        calls = []

        def blocking_handler(request):
            calls.append(request.path)
            entered.set()
            block.wait(30)
            return JsonResponse({"ok": True})

        gateway, _ = build_gateway(clock, controller,
                                   deadline_seconds=2.0,
                                   handler=blocking_handler)
        try:
            running = gateway.submit("GET", "/work")
            assert entered.wait(10)
            queued = [gateway.submit("GET", "/work")
                      for _ in range(3)]  # fills the queue
            overflow = gateway.submit("GET", "/work")
            response = overflow.result(10)
            assert response.status == 503
            assert response.json()["code"] == "queue_full"
            assert response.json()["retry_after"] > 0.0

            clock.advance(3.0)
            gateway.pump()
            for future in queued:
                response = future.result(10)
                assert response.status == 504
                assert response.json()["code"] == "deadline_exceeded"
            assert len(calls) == 1  # only the blocker ever ran
        finally:
            block.set()
            running.result(10)
            gateway.shutdown()


class TestQueuePriorityAtTheGateway:
    def test_interactive_displaces_queued_batch(self):
        clock = FakeClock()
        controller = OverloadController(
            clock=clock, queue_capacity=1, initial_limit=1,
            min_limit=1, max_limit=1)
        block = threading.Event()
        entered = threading.Event()

        def blocking_handler(request):
            entered.set()
            block.wait(30)
            return JsonResponse({"ok": True})

        web = WebApplication("qos-test")
        web.get("/admin/work", blocking_handler)   # batch class
        web.get("/work", blocking_handler)         # interactive
        gateway = RequestGateway(
            web, TenantManager(TenancyMode.SHARED), clock=clock,
            overload=controller)
        try:
            running = gateway.submit("GET", "/admin/work")
            assert entered.wait(10)
            parked_batch = gateway.submit("GET", "/admin/work")
            interactive = gateway.submit("GET", "/work")
            displaced = parked_batch.result(10)
            assert displaced.status == 503
            assert displaced.json()["code"] == "queue_displaced"
            assert not interactive.done()
            assert controller.queue.depths()[QOS_INTERACTIVE] == 1
        finally:
            block.set()
            running.result(10)
            gateway.shutdown()
            assert interactive.result(10).status in (200, 503)


class TestDispatchLogRingBuffer:
    def test_ring_caps_length_but_counts_stay_exact(self, monkeypatch):
        monkeypatch.setattr(gateway_module,
                            "DEFAULT_DISPATCH_LOG_CAPACITY", 4)
        clock = FakeClock()
        gateway, calls = build_gateway(
            clock, None, deadline_seconds=None)
        try:
            for _ in range(10):
                assert gateway.submit(
                    "GET", "/work").result(10).status == 200
            assert len(gateway.dispatch_log) == 4
            assert list(gateway.dispatch_log) == \
                [("/work", "accepted")] * 4
            assert gateway.decision_counts == {"accepted": 10}
            assert len(calls) == 10
        finally:
            gateway.shutdown()

    def test_log_keeps_the_tuple_shape(self):
        gateway, _ = build_gateway(FakeClock(), None,
                                   deadline_seconds=None)
        try:
            gateway.submit("GET", "/work").result(10)
            path, decision = gateway.dispatch_log[-1]
            assert path == "/work" and decision == "accepted"
        finally:
            gateway.shutdown()


class TestDeterministicDecisions:
    @staticmethod
    def run_seeded_simulation(seed):
        """A single-threaded seeded overload episode; returns the
        controller's decision log."""
        import random

        rng = random.Random(seed)
        clock = FakeClock()
        controller = OverloadController(
            clock=clock, queue_capacity=4, initial_limit=2,
            min_limit=1, max_limit=4)
        paths = [("/tenants/t/dashboards", None),
                 ("/tenants/t/reports", None),
                 ("/admin/usage", None),
                 ("/tenants/t/sql", "SELECT 1"),
                 ("/tenants/t/sql", "INSERT INTO t VALUES (1)")]
        inflight = []
        for step in range(200):
            clock.advance(0.01)
            path, sql = paths[rng.randrange(len(paths))]
            qos = controller.classify("GET", path, sql)
            controller.observe()
            if controller.brownout.sheds(qos):
                controller.record(path, qos, "brownout-shed")
            elif controller.brownout.degrades(qos):
                controller.record(path, qos, "brownout-degraded")
            elif controller.limiter.try_acquire():
                controller.record(path, qos, "accepted")
                inflight.append((path, qos))
            else:
                entry, displaced = controller.queue.offer(
                    qos, deadline=Deadline(0.5, clock=clock),
                    payload=path)
                if displaced is not None:
                    controller.record(displaced.payload,
                                      displaced.qos,
                                      "queue-displaced")
                controller.record(
                    path, qos,
                    "queued" if entry is not None else "queue-shed")
            # Slow completions: each step finishes at most one
            # in-flight request, so pressure builds.
            if inflight and rng.random() < 0.4:
                done_path, done_qos = inflight.pop(0)
                controller.limiter.release()
                latency = 0.02 + 0.08 * rng.random()
                controller.note_result(latency, rng.random() > 0.3)
            for expired in controller.queue.take_expired():
                controller.record(expired.payload, expired.qos,
                                  "expired")
        return list(controller.decision_log)

    def test_same_seed_same_decision_log(self):
        first = self.run_seeded_simulation(42)
        second = self.run_seeded_simulation(42)
        assert first == second
        assert len(first) >= 200  # every step decided something

    def test_decision_log_exercises_the_overload_paths(self):
        log = self.run_seeded_simulation(42)
        decisions = {decision for _, _, decision in log}
        assert "accepted" in decisions
        assert "queued" in decisions
        # Saturation showed up as at least one shedding decision.
        assert decisions & {"queue-shed", "queue-displaced",
                            "expired", "brownout-shed",
                            "brownout-degraded"}


class TestChaosWithLimiter:
    def test_no_unhandled_escapes_under_30pct_faults(self):
        faults = FaultInjector()
        faults.inject("gateway.handle", rate=0.3, seed=7)
        clock = FakeClock()
        controller = OverloadController(
            clock=clock, queue_capacity=16, initial_limit=4)
        web = WebApplication("chaos")
        web.get("/work", lambda r: JsonResponse({"ok": True}))
        gateway = RequestGateway(
            web, TenantManager(TenancyMode.SHARED), clock=clock,
            faults=faults, deadline_seconds=30.0,
            overload=controller)
        try:
            futures = [gateway.submit("GET", "/work")
                       for _ in range(120)]
            statuses = [future.result(30).status
                        for future in futures]
            # Every request resolved to a typed response — injected
            # faults became 500s, overload became 503/504, nothing
            # escaped as an exception.
            assert all(status in (200, 500, 503, 504)
                       for status in statuses)
            assert statuses.count(500) > 0  # the chaos really fired
            assert statuses.count(200) > 0
            snap = controller.limiter.snapshot()
            assert snap["failures"] > 0  # 500s fed the limiter
            assert snap["in_flight"] == 0  # every slot released
        finally:
            gateway.shutdown()


# -- platform integration ---------------------------------------------------------


TENANTS = ("acme", "globex")


@pytest.fixture
def platform():
    platform = OdbisPlatform(overload=True, deadline_seconds=30.0)
    for tenant in TENANTS:
        platform.provisioning.provision(tenant, tenant.title(),
                                        plan="team")
    yield platform
    platform.gateway.shutdown()


def login(platform, username, password="changeme"):
    response = platform.web.request(
        "POST", "/login",
        body={"username": username, "password": password})
    assert response.status == 200
    return {"x-auth-token": response.json()["token"]}


class TestPlatformIntegration:
    def force_brownout(self, platform, level):
        targets = {1: 0.6, 2: 0.8, 3: 0.95}
        brownout = platform.overload.brownout
        for _ in range(200):
            if brownout.level >= level:
                break
            brownout.observe(targets[level])
        assert brownout.level >= level

    def test_brownout_sheds_batch_but_serves_interactive(
            self, platform):
        headers = login(platform, "admin@acme")
        self.force_brownout(platform, 2)
        shed = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "CREATE TABLE t (a INTEGER)"}).result(30)
        assert shed.status == 503
        payload = shed.json()
        assert payload["code"] == "brownout_shed"
        assert payload["retry_after"] > 0.0
        assert shed.headers.get("retry-after") is not None
        interactive = platform.gateway.submit(
            "GET", "/tenants/acme/dashboards",
            headers=headers).result(30)
        assert interactive.status == 200
        assert ("/tenants/acme/sql", "brownout-shed") in \
            platform.gateway.dispatch_log

    def test_brownout_degrades_reporting_to_stale(self, platform):
        headers = login(platform, "admin@acme")
        # Warm the stale cache with a fresh reports listing.
        fresh = platform.gateway.submit(
            "GET", "/tenants/acme/reports", headers=headers).result(30)
        assert fresh.status == 200
        self.force_brownout(platform, 3)
        degraded = platform.gateway.submit(
            "GET", "/tenants/acme/reports", headers=headers).result(30)
        assert degraded.status == 200  # stale hit
        payload = degraded.json()
        assert payload["degraded"] is True
        assert payload["stale"] is True
        assert payload["data"] == fresh.json()
        assert ("/tenants/acme/reports", "brownout-degraded") in \
            platform.gateway.dispatch_log

    def test_brownout_stops_stale_cache_fills(self, platform):
        headers = login(platform, "admin@acme")
        self.force_brownout(platform, 1)
        assert not platform.overload.brownout.allows_cache_fill()
        response = platform.gateway.submit(
            "GET", "/tenants/acme/datasets",
            headers=headers).result(30)
        assert response.status == 200
        # Nothing was cached during the brownout.
        assert len(platform.gateway._stale_cache) == 0

    def test_health_report_exposes_overload_state(self, platform):
        platform.admin.create_account("root", "s3cret",
                                      roles=["platform-admin"])
        headers = login(platform, "root", "s3cret")
        response = platform.gateway.submit(
            "GET", "/admin/health", headers=headers).result(30)
        assert response.status == 200
        overload = response.json()["overload"]
        assert {"limiter", "queue", "brownout", "retry_budgets",
                "latency_p95"} <= set(overload)
        assert overload["limiter"]["limit"] >= 1
        assert overload["queue"]["capacity"] == \
            platform.overload.queue.capacity
        assert overload["brownout"]["stage"] == "normal"

    def test_bulkhead_shed_carries_retry_after(self):
        platform = OdbisPlatform(overload=True, bulkhead_capacity=1)
        try:
            platform.provisioning.provision("acme", "Acme",
                                            plan="team")
            headers = login(platform, "admin@acme")
            block = threading.Event()
            entered = threading.Event()

            def slow(request):
                entered.set()
                block.wait(30)
                return JsonResponse({"ok": True})

            platform.web.get("/tenants/{tenant}/slow", slow)
            first = platform.gateway.submit(
                "GET", "/tenants/acme/slow", headers=headers)
            assert entered.wait(10)
            shed = platform.gateway.submit(
                "GET", "/tenants/acme/dashboards",
                headers=headers).result(30)
            block.set()
            assert first.result(30).status == 200
            assert shed.status == 429
            assert shed.json()["code"] == "bulkhead_rejected"
            assert shed.json()["retry_after"] > 0.0
            assert "retry-after" in shed.headers
        finally:
            platform.gateway.shutdown()

    def test_breaker_degraded_response_carries_retry_after(self):
        clock = FakeClock()
        faults = FaultInjector()
        platform = OdbisPlatform(clock=clock, faults=faults,
                                 overload=True)
        try:
            platform.provisioning.provision("acme", "Acme",
                                            plan="team")
            headers = login(platform, "admin@acme")
            faults.inject("gateway.handle", rate=1.0, seed=1)
            for _ in range(platform.gateway.breaker_threshold):
                response = platform.gateway.submit(
                    "GET", "/tenants/acme/datasets",
                    headers=headers).result(30)
                assert response.status == 500
            degraded = platform.gateway.submit(
                "GET", "/tenants/acme/datasets",
                headers=headers).result(30)
            assert degraded.status == 503
            payload = degraded.json()
            assert payload["degraded"] is True
            assert payload["retry_after"] > 0.0
            assert "retry-after" in degraded.headers
        finally:
            faults.clear()
            platform.gateway.shutdown()


class TestSchedulerDeferral:
    def test_batch_shed_defers_etl_without_failure_pressure(self):
        from repro.etl import EtlJob, RowsSource, Schedule, Scheduler

        admitted = {"allow": False}
        scheduler = Scheduler(
            quarantine_after=2,
            admission=lambda owner: admitted["allow"])
        ran = []

        def rows():
            ran.append(1)
            return [{"x": 1}]

        from repro.etl.sources import CallableSource

        scheduler.add(EtlJob("tick", CallableSource(rows)),
                      Schedule(every_minutes=10), owner="acme")
        records = scheduler.advance(10)
        assert [record.status for record in records] == ["deferred"]
        assert ran == []  # the job never executed
        entry = scheduler._entries["tick"]
        assert entry.consecutive_failures == 0  # no quarantine creep
        assert not entry.quarantined
        assert scheduler.runs_by_owner() == {}  # deferrals don't count

        admitted["allow"] = True
        records = scheduler.advance(10)
        assert [record.status for record in records] == ["ok"]
        assert ran == [1]

    def test_platform_wires_brownout_into_the_scheduler(self, platform):
        assert platform.integration.scheduler.admission is not None
        assert platform.integration.scheduler.admission("acme")
        brownout = platform.overload.brownout
        for _ in range(200):
            if brownout.level >= 2:
                break
            brownout.observe(0.8)
        assert not platform.integration.scheduler.admission("acme")


class TestHedgedShardReads:
    def test_replica_read_route_carries_hedge_fields(self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=1, replicas_per_shard=1,
                                 staleness_budget=4, overload=True)
        try:
            platform.provisioning.provision("acme", "Acme",
                                            plan="team")
            headers = login(platform, "admin@acme")
            for sql in ("CREATE TABLE kpis "
                        "(id INTEGER PRIMARY KEY, v INTEGER)",
                        "INSERT INTO kpis VALUES (1, 41)"):
                response = platform.gateway.submit(
                    "POST", "/tenants/acme/sql", headers=headers,
                    body={"sql": sql}).result(30)
                assert response.status == 200, response.body
            read = platform.gateway.submit(
                "POST", "/tenants/acme/sql", headers=headers,
                body={"sql": "SELECT v FROM kpis"}).result(30)
            payload = read.json()
            assert payload["rows"] == [{"v": 41}]
            # The replica served through the hedged dispatch: the
            # route records whether a hedge fired and who won.
            assert "hedged" in payload and "winner" in payload
        finally:
            platform.close()

    def test_dispatch_read_hedged_falls_back_to_primary(self, tmp_path):
        from repro.core.sharding import ShardMap

        shard_map = ShardMap(tmp_path / "shards", shards=1,
                             replicas=1, fsync="off",
                             staleness_budget=10)
        shard = shard_map.all_shards()[0]
        shard.primary.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY)")
        shard.primary.execute("INSERT INTO t VALUES (7)")
        shard.poll_replicas()
        replica_handle = shard.read_handle(10)
        primary_handle = shard.write_handle()
        budget = RetryBudget(capacity=5.0)
        rows, route = shard_map.dispatch_read_hedged(
            replica_handle, primary_handle, "SELECT id FROM t",
            hedge_after=0.5, budget=budget)
        assert rows == [{"id": 7}]
        assert route["hedged"] is False
        assert route["winner"] == "primary"
        shard_map.close()
