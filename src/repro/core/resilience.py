"""The reliability kernel: retries, breakers, deadlines, bulkheads.

ODBIS sells BI as an always-on multi-tenant service, so partial
failure is the normal case, not the exception: an ETL source flakes,
an ESB endpoint throws, a snapshot write is torn mid-flight.  This
module is the one place failure policy lives; every layer composes the
same small parts:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic seeded jitter* (same seed ⇒ same delay sequence),
* :class:`CircuitBreaker` — closed/open/half-open on an injectable
  clock, so cooldowns never need a real ``time.sleep`` under test,
* :class:`Deadline` — a per-request time budget that propagates,
* :class:`Bulkhead` — a per-tenant concurrency cap that sheds load
  instead of queueing it,
* :class:`FaultInjector` — the seeded, rate- and site-targeted chaos
  harness that makes all of the above testable deterministically,
* :class:`DegradedResult` / :class:`HealthReport` — degraded modes as
  first-class, observable values rather than exceptions.

Everything here is pure-Python, thread-safe where it is shared across
gateway workers, and clock-injectable so the chaos battery replays
byte-for-byte.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import (
    BulkheadRejectedError,
    BulkheadReleaseError,
    CircuitOpenError,
    CrashPoint,
    DeadlineExceededError,
    InjectedFault,
    ResilienceError,
    RetryExhaustedError,
)

__all__ = [
    "Bulkhead",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "DegradedResult",
    "FakeClock",
    "FaultInjector",
    "FaultRule",
    "HealthReport",
    "MonotonicClock",
    "RetryPolicy",
    "TenantHealth",
]


# -- clocks ---------------------------------------------------------------------------


class Clock:
    """Injectable time source: ``now()`` seconds plus ``sleep()``."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real monotonic clock (production default)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """A manual clock for tests: ``sleep`` advances virtual time.

    ``slept`` records every requested sleep so tests can assert the
    exact backoff schedule without ever waiting for real time.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self.slept: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self._now += seconds


# -- retry ----------------------------------------------------------------------------


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` is the *total* number of tries (1 means no retry).
    The delay before retry *k* (1-based) is
    ``min(max_delay, base_delay * multiplier**(k-1))`` plus a jitter
    drawn from ``random.Random(seed)`` — the generator is re-seeded
    per :meth:`call`, so every invocation sees the identical delay
    sequence and chaos runs replay exactly.

    ``retryable`` limits which exception classes are retried;
    ``non_retryable`` carves exceptions out of that set (checked
    first).  Anything non-retryable propagates raw on first failure,
    and so does a :class:`~repro.errors.CrashPoint` (a simulated
    process death is never retried past).
    """

    def __init__(self, attempts: int = 3, base_delay: float = 0.0,
                 multiplier: float = 2.0, max_delay: float = 60.0,
                 jitter: float = 0.0, seed: int = 0,
                 retryable: Sequence[Type[BaseException]] = (Exception,),
                 non_retryable: Sequence[Type[BaseException]] = ()):
        if attempts < 1:
            raise ResilienceError("RetryPolicy needs attempts >= 1")
        if base_delay < 0 or max_delay < 0 or jitter < 0:
            raise ResilienceError("RetryPolicy delays must be >= 0")
        self.attempts = attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retryable = tuple(retryable)
        self.non_retryable = tuple(non_retryable)

    def delays(self) -> List[float]:
        """The deterministic backoff schedule (one entry per retry)."""
        rng = random.Random(self.seed)
        schedule: List[float] = []
        for retry in range(self.attempts - 1):
            delay = min(self.max_delay,
                        self.base_delay * (self.multiplier ** retry))
            if self.jitter:
                delay += rng.uniform(0.0, self.jitter)
            schedule.append(delay)
        return schedule

    def should_retry(self, error: BaseException) -> bool:
        if isinstance(error, (CrashPoint,) + self.non_retryable):
            return False
        return isinstance(error, self.retryable)

    def call(self, fn: Callable[[], Any],
             clock: Optional[Clock] = None,
             on_retry: Optional[Callable[[int, BaseException], None]]
             = None, budget: Optional[Any] = None) -> Any:
        """Run ``fn`` under this policy; sleeps go through ``clock``.

        ``budget`` is an optional retry budget (duck-typed to
        :class:`repro.core.overload.RetryBudget`): each retry must
        first win a ``try_spend()`` token, and a success on the very
        first attempt calls ``record_success()`` to refill it.  An
        exhausted budget ends the attempt loop immediately — under a
        real overload that is the retry *storm* being extinguished,
        not a lost request.

        Raises :class:`RetryExhaustedError` (last error chained) when
        every attempt fails with a retryable exception, or early when
        the budget denies a retry.
        """
        clock = clock or MonotonicClock()
        schedule = self.delays()
        last: Optional[BaseException] = None
        for attempt in range(1, self.attempts + 1):
            try:
                result = fn()
            except BaseException as exc:
                if not self.should_retry(exc):
                    raise
                last = exc
                if attempt < self.attempts:
                    if budget is not None and not budget.try_spend():
                        raise RetryExhaustedError(
                            f"retry budget exhausted after attempt "
                            f"{attempt}: {last}",
                            attempts=attempt,
                            last_error=last) from last
                    if on_retry is not None:
                        on_retry(attempt, exc)
                    clock.sleep(schedule[attempt - 1])
            else:
                if attempt == 1 and budget is not None:
                    budget.record_success()
                return result
        raise RetryExhaustedError(
            f"all {self.attempts} attempts failed: {last}",
            attempts=self.attempts, last_error=last) from last


# -- circuit breaker ------------------------------------------------------------------


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    While open, :meth:`allow` returns False until ``cooldown`` seconds
    elapse on the injected clock; the first call after cooldown is the
    half-open probe — its success closes the breaker, its failure
    re-opens it for another full cooldown.  Only one probe is out at a
    time: later calls are refused until an outcome is recorded or the
    probe's owner hands it back (:meth:`release_probe`).  Thread-safe.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 30.0,
                 clock: Optional[Clock] = None,
                 name: str = ""):
        if failure_threshold < 1:
            raise ResilienceError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock or MonotonicClock()
        self.name = name
        self._state = self.CLOSED          # guarded-by: _lock
        self._consecutive_failures = 0     # guarded-by: _lock
        self._opened_at = 0.0              # guarded-by: _lock
        self._probe: Any = None            # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def _maybe_half_open(self) -> None:  # requires: _lock
        if self._state == self.OPEN and \
                self.clock.now() - self._opened_at >= self.cooldown:
            self._state = self.HALF_OPEN

    def allow(self, owner: Any = True) -> bool:
        """May a call proceed right now?  Half-open, only as the probe,
        which ``owner`` then holds."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.HALF_OPEN:
                if self._probe is not None:
                    return False
                self._probe = owner
            return self._state != self.OPEN

    def release_probe(self, owner: Any) -> None:
        """Hand back ``owner``'s probe if it ended without an outcome."""
        with self._lock:
            if self._probe is owner:
                self._probe = None

    def retry_after(self) -> float:
        """Cooldown remaining before the breaker half-opens.

        Transitions to half-open first, so a breaker sitting exactly
        at (or past) the cooldown boundary reports 0.0 — never a
        negative value — and the clamp covers clock skew inside the
        window too.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state != self.OPEN:
                return 0.0
            elapsed = self.clock.now() - self._opened_at
            return max(0.0, self.cooldown - elapsed)

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = self.CLOSED
            self._probe = None

    def record_failure(self) -> None:
        with self._lock:
            self._probe = None
            self._maybe_half_open()
            if self._state == self.HALF_OPEN:
                # The probe failed: straight back to open.
                self._state = self.OPEN
                self._opened_at = self.clock.now()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = self.clock.now()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` through the breaker, recording the outcome."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'} is open",
                retry_after=self.retry_after())
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


# -- deadlines ------------------------------------------------------------------------


class Deadline:
    """A time budget measured on an injectable clock.

    Created once at the edge (the gateway) and handed down, so every
    layer shares the *same* remaining budget instead of each holding
    its own timeout.
    """

    def __init__(self, budget_seconds: float,
                 clock: Optional[Clock] = None):
        if budget_seconds < 0:
            raise ResilienceError("deadline budget must be >= 0")
        self.clock = clock or MonotonicClock()
        self.budget_seconds = budget_seconds
        self._started = self.clock.now()

    @classmethod
    def after(cls, seconds: float,
              clock: Optional[Clock] = None) -> "Deadline":
        return cls(seconds, clock=clock)

    def elapsed(self) -> float:
        return self.clock.now() - self._started

    def remaining(self) -> float:
        return self.budget_seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` when the budget is gone."""
        if self.expired:
            raise DeadlineExceededError(
                f"{what} exceeded its {self.budget_seconds:.3f}s budget "
                f"({self.elapsed():.3f}s elapsed)")


# -- bulkheads ------------------------------------------------------------------------


class Bulkhead:
    """A concurrency cap that sheds excess load immediately.

    Unlike a queue, a full bulkhead rejects: under overload the tenant
    gets a fast typed error instead of unbounded latency, and one hot
    tenant cannot occupy every gateway worker.
    """

    def __init__(self, capacity: int, name: str = ""):
        if capacity < 1:
            raise ResilienceError("bulkhead capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._in_use = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    def try_acquire(self) -> bool:
        with self._lock:
            if self._in_use >= self.capacity:
                return False
            self._in_use += 1
            return True

    def release(self) -> None:
        """Release one slot; a release without a matching acquire is a
        caller bug.  Under ``REPRO_SANITIZE=1`` the counter floors at
        zero and the sanitizer records the violation (so a long chaos
        run keeps going with honest health numbers); otherwise the
        typed :class:`~repro.errors.BulkheadReleaseError` surfaces the
        bug at the call site.
        """
        with self._lock:
            if self._in_use <= 0:
                from repro.analysis.concurrency.sanitizer import (
                    default_sanitizer,
                    sanitize_enabled,
                )
                if sanitize_enabled():
                    default_sanitizer().report(
                        "bulkhead-overrelease",
                        f"bulkhead {self.name or 'slot'} released "
                        f"more than acquired; flooring at 0",
                        bulkhead=self.name, capacity=self.capacity)
                    self._in_use = 0
                    return
                raise BulkheadReleaseError(
                    f"bulkhead {self.name or 'slot'} released more "
                    f"than acquired")
            self._in_use -= 1

    def __enter__(self) -> "Bulkhead":
        if not self.try_acquire():
            raise BulkheadRejectedError(
                f"bulkhead {self.name or 'slot'} is full "
                f"({self.capacity} in use)")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


# -- fault injection ------------------------------------------------------------------


@dataclass
class FaultRule:
    """One targeted chaos rule: fire at ``site`` with ``rate``.

    Each rule owns its own ``random.Random(seed)`` stream, so the
    decision sequence at a site depends only on (seed, number of
    draws) — never on wall time or other sites.  ``limit`` caps how
    many faults the rule may raise in total.
    """

    site: str
    rate: float
    seed: int
    error: Optional[Callable[[str, int], BaseException]] = None
    limit: Optional[int] = None
    draws: int = 0
    fired: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ResilienceError("fault rate must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def matches(self, site: str) -> bool:
        if self.site.endswith(".*"):
            return site.startswith(self.site[:-1]) \
                or site == self.site[:-2]
        return site == self.site

    def decide(self) -> bool:
        """Draw once; True when a fault should fire."""
        self.draws += 1
        if self.limit is not None and self.fired >= self.limit:
            return False
        if self._rng.random() < self.rate:
            self.fired += 1
            return True
        return False


class FaultInjector:
    """Seeded, rate- and site-targeted fault injection.

    Production code calls ``faults.fire("storage.write")`` at each
    instrumented site; with no rules registered this is a cheap no-op,
    and under chaos the registered rules decide *deterministically*
    whether that particular call fails.  ``history`` records every
    injected fault as ``(site, sequence)`` so two runs with the same
    seed can be asserted byte-identical.
    """

    def __init__(self) -> None:
        self._rules: List[FaultRule] = []          # guarded-by: _lock
        self.history: List[Tuple[str, int]] = []   # guarded-by: _lock
        self._sequence = 0                         # guarded-by: _lock
        self._lock = threading.Lock()
        self.enabled = True
        # site -> absolute byte offset at which the next log write
        # must "kill the process" (one-shot; see crash_cut/crash).
        self._crash_points: Dict[str, int] = {}    # guarded-by: _lock

    def inject(self, site: str, rate: float = 1.0, seed: int = 0,
               error: Optional[Callable[[str, int], BaseException]]
               = None, limit: Optional[int] = None) -> FaultRule:
        """Register a chaos rule; returns it for later inspection."""
        rule = FaultRule(site=site, rate=rate, seed=seed,
                         error=error, limit=limit)
        with self._lock:
            self._rules.append(rule)
        return rule

    def clear(self) -> None:
        with self._lock:
            self._rules.clear()
            self.history.clear()
            self._crash_points.clear()
            self._sequence = 0

    # -- crash points (write-ahead-log process death) -----------------------------

    def crash_at(self, site: str, offset: int) -> None:
        """Arm a one-shot crash at byte ``offset`` of ``site``'s log.

        The next append whose byte window reaches ``offset`` writes
        exactly the bytes before it, then dies with
        :class:`~repro.errors.CrashPoint` — the torn-tail shape of a
        real ``kill -9`` mid-write.  One crash point per site; arming
        again replaces it.
        """
        if offset < 0:
            raise ResilienceError("crash offset must be >= 0")
        with self._lock:
            self._crash_points[site] = offset

    def crash_cut(self, site: str, start: int,
                  end: int) -> Optional[int]:
        """Where (if anywhere) this ``[start, end)`` write must cut.

        Returns the absolute offset to stop at, or None when the write
        may complete.  An armed offset at or before ``start`` cuts
        immediately (the process should already be dead); one beyond
        ``end`` leaves this write alone.
        """
        if not self.enabled:
            return None
        with self._lock:
            offset = self._crash_points.get(site)
        if offset is None or offset > end:
            return None
        return max(offset, start)

    def crash(self, site: str, offset: int) -> None:
        """Record and raise the armed crash (disarming it)."""
        with self._lock:
            self._crash_points.pop(site, None)
            self._sequence += 1
            sequence = self._sequence
            self.history.append((site, sequence))
        raise CrashPoint(site, sequence, offset)

    @property
    def active(self) -> bool:
        return self.enabled and bool(self._rules)

    def fire(self, site: str) -> None:
        """Raise an injected fault at ``site`` when a rule says so."""
        if not self.enabled:
            return
        with self._lock:
            for rule in self._rules:
                if not rule.matches(site):
                    continue
                if rule.decide():
                    self._sequence += 1
                    self.history.append((site, self._sequence))
                    if rule.error is not None:
                        raise rule.error(site, self._sequence)
                    raise InjectedFault(site, self._sequence)

    def summary(self) -> Dict[str, int]:
        """Faults fired per site (for :class:`HealthReport`)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for site, _ in self.history:
                counts[site] = counts.get(site, 0) + 1
        return counts


# -- degraded modes and health --------------------------------------------------------


@dataclass
class DegradedResult:
    """A first-class "here is the best I could do" value.

    Returned instead of raising when a layer can still serve
    something useful — typically a stale cached artefact — while its
    backend is broken.  ``stale_as_of`` marks how old the payload is
    (an opaque marker: a virtual-clock reading or a request counter).
    """

    payload: Any
    reason: str
    stale: bool = False
    stale_as_of: Optional[float] = None

    @property
    def degraded(self) -> bool:
        return True


@dataclass
class TenantHealth:
    """One tenant's resilience posture."""

    tenant: str
    breaker_state: str = CircuitBreaker.CLOSED
    consecutive_failures: int = 0
    bulkhead_in_use: int = 0
    bulkhead_capacity: int = 0
    quarantined_jobs: List[str] = field(default_factory=list)
    #: Committed transactions in the tenant warehouse WAL since its
    #: last checkpoint (None when the platform runs without a data
    #: directory — nothing durable to lag behind).
    wal_lag: Optional[int] = None
    #: How many checkpoints the tenant warehouse has taken (0 =
    #: recovery would replay the whole log); None without a data dir.
    last_checkpoint: Optional[int] = None

    @property
    def healthy(self) -> bool:
        return self.breaker_state == CircuitBreaker.CLOSED \
            and not self.quarantined_jobs

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "tenant": self.tenant,
            "breaker": self.breaker_state,
            "consecutive_failures": self.consecutive_failures,
            "bulkhead": {"in_use": self.bulkhead_in_use,
                         "capacity": self.bulkhead_capacity},
            "quarantined_jobs": list(self.quarantined_jobs),
            "healthy": self.healthy,
        }
        if self.wal_lag is not None:
            payload["wal_lag"] = self.wal_lag
            payload["last_checkpoint"] = self.last_checkpoint
        return payload


@dataclass
class HealthReport:
    """The platform-level aggregate the admin layer exposes."""

    tenants: Dict[str, TenantHealth] = field(default_factory=dict)
    dead_letters: int = 0
    fault_sites: Dict[str, int] = field(default_factory=dict)
    # Per-shard posture (primary, generation, breaker, replica lag)
    # when the platform runs a shard map; empty otherwise.  Duck-typed
    # dicts so the resilience kernel never imports sharding.
    shards: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # Supervisor posture (detector watches, incidents, quarantined
    # replicas) when the platform runs a shard supervisor; same
    # duck-typing rationale.
    supervision: Dict[str, Any] = field(default_factory=dict)
    # Overload-control posture (AIMD limiter, admission queue depths,
    # brownout level, per-tenant retry budgets) when the platform runs
    # an OverloadController; same duck-typing rationale.
    overload: Dict[str, Any] = field(default_factory=dict)

    def tenant(self, tenant_id: str) -> TenantHealth:
        if tenant_id not in self.tenants:
            self.tenants[tenant_id] = TenantHealth(tenant=tenant_id)
        return self.tenants[tenant_id]

    @property
    def healthy(self) -> bool:
        return self.dead_letters == 0 and \
            all(entry.healthy for entry in self.tenants.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "healthy": self.healthy,
            "dead_letters": self.dead_letters,
            "fault_sites": dict(sorted(self.fault_sites.items())),
            "tenants": {tenant_id: entry.to_dict()
                        for tenant_id, entry
                        in sorted(self.tenants.items())},
            "shards": {shard_id: dict(entry)
                       for shard_id, entry
                       in sorted(self.shards.items())},
            "supervision": dict(self.supervision),
            "overload": dict(self.overload),
        }
