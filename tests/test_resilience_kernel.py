"""The resilience kernel: retry, breaker, deadline, bulkhead, faults.

Everything here runs on injectable clocks — no test ever sleeps for
real — and every stochastic element (retry jitter, fault injection) is
seeded, so the assertions are about *exact* sequences, not
distributions.
"""

import pytest

from repro.core.resilience import (
    Bulkhead,
    CircuitBreaker,
    Deadline,
    DegradedResult,
    FakeClock,
    FaultInjector,
    HealthReport,
    RetryPolicy,
    TenantHealth,
)
from repro.errors import (
    BulkheadRejectedError,
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFault,
    ResilienceError,
    RetryExhaustedError,
)


class TestRetryPolicy:
    def test_succeeds_first_try_without_sleeping(self):
        clock = FakeClock()
        policy = RetryPolicy(attempts=5, base_delay=1.0)
        assert policy.call(lambda: 42, clock=clock) == 42
        assert clock.slept == []

    def test_retries_until_success(self):
        clock = FakeClock()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=1.0)
        assert policy.call(flaky, clock=clock) == "ok"
        assert len(calls) == 3
        # Exponential backoff on the fake clock: 1s then 2s.
        assert clock.slept == [1.0, 2.0]

    def test_exhaustion_raises_with_last_error_chained(self):
        clock = FakeClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5)

        def always_fails():
            raise ValueError("broken")

        with pytest.raises(RetryExhaustedError) as info:
            policy.call(always_fails, clock=clock)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, ValueError)
        assert isinstance(info.value.__cause__, ValueError)
        assert len(clock.slept) == 2  # no sleep after the final try

    def test_seeded_jitter_is_deterministic(self):
        first = RetryPolicy(attempts=5, base_delay=1.0, jitter=0.5,
                            seed=7)
        second = RetryPolicy(attempts=5, base_delay=1.0, jitter=0.5,
                             seed=7)
        other = RetryPolicy(attempts=5, base_delay=1.0, jitter=0.5,
                            seed=8)
        assert first.delays() == second.delays()
        assert first.delays() == first.delays()  # re-seeded per call
        assert first.delays() != other.delays()

    def test_backoff_is_capped_by_max_delay(self):
        policy = RetryPolicy(attempts=6, base_delay=1.0,
                             multiplier=10.0, max_delay=5.0)
        assert policy.delays() == [1.0, 5.0, 5.0, 5.0, 5.0]

    def test_non_retryable_errors_propagate_raw(self):
        policy = RetryPolicy(attempts=5,
                             non_retryable=(KeyError,))
        calls = []

        def fails():
            calls.append(1)
            raise KeyError("fatal")

        with pytest.raises(KeyError):
            policy.call(fails, clock=FakeClock())
        assert len(calls) == 1

    def test_retryable_filter(self):
        policy = RetryPolicy(attempts=3, retryable=(ValueError,))
        with pytest.raises(TypeError):
            policy.call(lambda: (_ for _ in ()).throw(TypeError()),
                        clock=FakeClock())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay=-1.0)


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 cooldown=cooldown, clock=clock,
                                 name="test")
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_opens_after_cooldown_on_injected_clock(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens_for_full_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_half_open_admits_one_probe_until_an_outcome(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow() is True
        assert breaker.allow() is False
        assert breaker.allow() is False
        breaker.record_failure()            # the probe failed: reopen
        clock.advance(11.0)
        probe = object()
        assert breaker.allow(probe) is True
        breaker.release_probe(object())     # not the holder: no effect
        assert breaker.allow() is False
        breaker.release_probe(probe)        # ended with no outcome
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() is True and breaker.allow() is True

    def test_call_raises_typed_error_while_open(self):
        breaker, _ = self.make(threshold=1, cooldown=10.0)
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError()))
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(lambda: "never runs")
        assert info.value.retry_after == pytest.approx(10.0)


class TestDeadline:
    def test_budget_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        deadline.check()  # still inside budget
        clock.advance(2.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.check("report render")

    def test_negative_budget_rejected(self):
        with pytest.raises(ResilienceError):
            Deadline(-1.0, clock=FakeClock())


class TestBulkhead:
    def test_caps_concurrency_and_sheds_excess(self):
        bulkhead = Bulkhead(2, name="acme")
        assert bulkhead.try_acquire()
        assert bulkhead.try_acquire()
        assert not bulkhead.try_acquire()
        bulkhead.release()
        assert bulkhead.try_acquire()

    def test_context_manager_raises_typed_error_when_full(self):
        bulkhead = Bulkhead(1)
        with bulkhead:
            with pytest.raises(BulkheadRejectedError):
                with bulkhead:
                    pass
        assert bulkhead.in_use == 0

    def test_over_release_is_a_programming_error(self):
        bulkhead = Bulkhead(1)
        with pytest.raises(ResilienceError):
            bulkhead.release()


class TestFaultInjector:
    def test_no_rules_is_a_noop(self):
        faults = FaultInjector()
        for _ in range(100):
            faults.fire("storage.write")
        assert faults.history == []

    def test_rate_one_always_fires_with_typed_error(self):
        faults = FaultInjector()
        faults.inject("storage.write", rate=1.0, seed=1)
        with pytest.raises(InjectedFault) as info:
            faults.fire("storage.write")
        assert info.value.site == "storage.write"
        assert faults.history == [("storage.write", 1)]

    def test_same_seed_same_decision_sequence(self):
        def run(seed):
            faults = FaultInjector()
            faults.inject("esb.deliver", rate=0.3, seed=seed)
            outcomes = []
            for _ in range(200):
                try:
                    faults.fire("esb.deliver")
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fault")
            return outcomes, list(faults.history)

        first = run(42)
        second = run(42)
        different = run(43)
        assert first == second
        assert first != different
        # Rate is honoured approximately even at n=200.
        faults_fired = first[0].count("fault")
        assert 30 <= faults_fired <= 90

    def test_site_targeting_and_wildcards(self):
        faults = FaultInjector()
        faults.inject("storage.*", rate=1.0, seed=0)
        faults.fire("esb.publish")  # no match, no fault
        with pytest.raises(InjectedFault):
            faults.fire("storage.write")
        with pytest.raises(InjectedFault):
            faults.fire("storage.read")

    def test_limit_caps_total_faults(self):
        faults = FaultInjector()
        faults.inject("etl.job", rate=1.0, seed=0, limit=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.fire("etl.job")
        faults.fire("etl.job")  # limit reached: passes
        assert len(faults.history) == 2

    def test_custom_error_factory(self):
        faults = FaultInjector()
        faults.inject("storage.write", rate=1.0, seed=0,
                      error=lambda site, seq: IOError(
                          f"disk gone at {site}"))
        with pytest.raises(IOError):
            faults.fire("storage.write")

    def test_disabled_injector_never_fires(self):
        faults = FaultInjector()
        faults.inject("storage.write", rate=1.0, seed=0)
        faults.enabled = False
        faults.fire("storage.write")
        assert faults.history == []

    def test_summary_counts_per_site(self):
        faults = FaultInjector()
        faults.inject("a", rate=1.0, seed=0, limit=2)
        faults.inject("b", rate=1.0, seed=0, limit=1)
        for site in ("a", "a", "b"):
            with pytest.raises(InjectedFault):
                faults.fire(site)
        assert faults.summary() == {"a": 2, "b": 1}


class TestDegradedAndHealth:
    def test_degraded_result_is_first_class(self):
        degraded = DegradedResult(payload={"rows": []},
                                  reason="breaker open", stale=True,
                                  stale_as_of=12.5)
        assert degraded.degraded
        assert degraded.stale
        assert degraded.stale_as_of == 12.5

    def test_health_report_aggregates_and_serializes(self):
        report = HealthReport(dead_letters=2,
                              fault_sites={"esb.deliver": 3})
        report.tenants["acme"] = TenantHealth(
            tenant="acme", breaker_state=CircuitBreaker.OPEN,
            consecutive_failures=5, bulkhead_in_use=1,
            bulkhead_capacity=4, quarantined_jobs=["nightly"])
        report.tenant("globex")  # healthy default entry
        assert not report.healthy
        assert not report.tenants["acme"].healthy
        assert report.tenants["globex"].healthy
        payload = report.to_dict()
        assert payload["dead_letters"] == 2
        assert payload["tenants"]["acme"]["breaker"] == "open"
        assert payload["tenants"]["acme"]["quarantined_jobs"] == \
            ["nightly"]
