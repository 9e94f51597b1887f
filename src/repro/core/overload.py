"""Adaptive overload control: degrade gracefully, never collapse.

The ODBIS pitch is many tenants sharing one platform; the failure mode
that breaks the pitch is *congestion collapse* — past saturation a
statically-admitted system spends its workers on requests that have
already missed their deadlines, retries amplify the very overload that
caused them, and goodput falls off a cliff for every tenant at once.
This module is the platform's overload-control kernel, composed by the
request gateway (see :mod:`repro.core.gateway`) and driven entirely on
injectable clocks so every admission decision replays deterministically:

* **QoS classes** — every request is classified ``interactive``
  (dashboards, SQL reads) > ``reporting`` (report runs) > ``batch``
  (ETL, admin, SQL writes) from its path and statement class;
* :class:`AdmissionQueue` — a bounded priority queue; requests carry
  their :class:`~repro.core.resilience.Deadline` into the queue, and
  anything that ages out is answered 504 *without ever burning a
  worker*.  A full queue displaces the newest lowest-class entry
  before it refuses a higher-class arrival;
* :class:`AIMDLimiter` — the true admission limit: additive-increase
  on success, multiplicative-decrease on deadline misses and 5xx, and
  a latency gradient (observed EWMA vs. a slow baseline) that backs
  off *before* errors appear;
* :class:`RetryBudget` — a per-tenant token bucket wired into
  :meth:`~repro.core.resilience.RetryPolicy.call`: retries spend
  tokens, successful first attempts refill them, so a retry storm
  self-extinguishes instead of amplifying an outage;
* :class:`BrownoutController` — the degradation ladder.  As measured
  pressure rises the platform first stops stale-cache fills, then
  sheds ``batch``, then degrades ``reporting`` to stale answers —
  keeping ``interactive`` goodput flat through 4x offered load
  (benchmark E19);
* :func:`hedged_call` — tail-latency hedging for replica reads: fire
  a backup after the p95 delay, first response wins, the loser is
  cancelled — and the hedge itself spends a retry-budget token, so
  hedging can never become its own storm.

The contract (invariants, ladder order, limiter behaviour) is
DESIGN.md §8; EXPERIMENTS.md E19 records the goodput-vs-offered-load
curves this module exists to bend.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.core.resilience import Clock, Deadline, MonotonicClock
from repro.engine.database import STATEMENT_CACHE_CAPACITY
from repro.engine.parser import READ_ONLY_STATEMENTS, parse_sql
from repro.errors import ResilienceError

__all__ = [
    "QOS_BATCH",
    "QOS_CLASSES",
    "QOS_INTERACTIVE",
    "QOS_REPORTING",
    "AIMDLimiter",
    "AdmissionQueue",
    "BrownoutController",
    "LatencyTracker",
    "OverloadController",
    "QueuedRequest",
    "RetryBudget",
    "classify_request",
    "hedged_call",
    "read_only_statement",
]

#: QoS classes, highest priority first.  ``interactive`` is the
#: dashboard/SQL-read traffic whose goodput the brownout ladder
#: protects; ``batch`` is the first thing shed.
QOS_INTERACTIVE = "interactive"
QOS_REPORTING = "reporting"
QOS_BATCH = "batch"
QOS_CLASSES: Tuple[str, ...] = (QOS_INTERACTIVE, QOS_REPORTING,
                                QOS_BATCH)

#: Path segments (after ``/tenants/{id}/``) that classify as
#: reporting-class work.
_REPORTING_SEGMENTS = frozenset({"reports"})

#: Path segments that classify as batch-class work (ETL, design and
#: other admin-shaped mutations).
_BATCH_SEGMENTS = frozenset({"design", "etl", "jobs"})


@lru_cache(maxsize=STATEMENT_CACHE_CAPACITY)
def read_only_statement(sql: str) -> bool:
    """True when ``sql`` dispatches as a lock-free snapshot read.

    The front door's one answer to "is this a read?": admission, QoS
    class, stale-cache identity and ``/sql`` routing all ask here.
    The decision is made on the *outermost* statement class
    (:data:`~repro.engine.parser.READ_ONLY_STATEMENTS`), so
    ``EXPLAIN UPDATE ...`` is a read — EXPLAIN renders a plan, it
    never executes the wrapped DML.  Unparseable SQL is conservatively
    classified as a write (the engine will reject it under the
    exclusive lock with a proper error).

    The answer is a pure function of the text — no catalog, tenant or
    clock enters it — so it is memoised per distinct text, bounded
    like the engine's statement cache, and a request costs a parse
    only the first time its text is seen.  ``parse_sql`` is reached
    through this module's global so a tracer that rebinds it still
    counts those first parses.
    """
    try:
        statement = parse_sql(sql)
    except Exception:
        return False
    return isinstance(statement, READ_ONLY_STATEMENTS)


def classify_request(method: str, path: str,
                     sql: Optional[str] = None) -> str:
    """The QoS class of one request, from path + statement class.

    ``interactive``: dashboards, datasets, MDX, cubes and read-only
    SQL — the latency-sensitive traffic a human is waiting on.
    ``reporting``: report listing and report runs.  ``batch``:
    ``/admin`` surfaces, warehouse design, ETL jobs, and SQL writes —
    work that tolerates deferral.
    """
    parts = [part for part in path.split("/") if part]
    if parts and parts[0] == "admin":
        return QOS_BATCH
    if len(parts) >= 3 and parts[0] == "tenants":
        service = parts[2]
        if service in _REPORTING_SEGMENTS:
            return QOS_REPORTING
        if service in _BATCH_SEGMENTS:
            return QOS_BATCH
        if service == "sql":
            if sql is not None and read_only_statement(sql):
                return QOS_INTERACTIVE
            return QOS_BATCH
    return QOS_INTERACTIVE


# -- latency observation ----------------------------------------------------------


class LatencyTracker:
    """A windowed latency sample set with mean and p95 estimates.

    The window is a ring of the most recent ``window`` samples, so the
    estimates track the *current* regime, not the whole run.  Used for
    the hedged-read trigger delay (p95) and the queue's estimated
    drain time (mean).  Thread-safe.
    """

    def __init__(self, window: int = 256):
        if window < 1:
            raise ResilienceError("latency window must be >= 1")
        self._samples: Deque[float] = deque(maxlen=window)  # guarded-by: _lock
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(max(0.0, seconds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def mean(self) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            return sum(self._samples) / len(self._samples)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank) of the window, 0 empty."""
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = min(len(ordered) - 1,
                   max(0, int(q * len(ordered))))
        return ordered[rank]

    def p95(self) -> float:
        return self.quantile(0.95)


# -- AIMD concurrency limiter -----------------------------------------------------


class AIMDLimiter:
    """An adaptive concurrency limit: probe up gently, back off hard.

    The limit replaces a fixed worker count as the platform's true
    admission bound.  Per successful completion the limit grows by
    ``increase / limit`` (classic additive increase: ~+1 per full
    window of successes); a deadline miss or 5xx multiplies it by
    ``decrease``.  A *latency gradient* backs off early: when the fast
    EWMA of observed latency exceeds ``gradient_tolerance`` times the
    slow baseline EWMA, the limiter treats it as congestion even
    though nothing has failed yet.  Multiplicative decreases are
    rate-limited to one per ``decrease_cooldown`` seconds on the
    injected clock, so a single burst of misses (one RTT's worth)
    costs one halving, not a collapse to the floor.  Thread-safe and
    fully deterministic given the same event sequence and clock.
    """

    def __init__(self, initial_limit: int = 8, min_limit: int = 1,
                 max_limit: int = 256, increase: float = 1.0,
                 decrease: float = 0.5,
                 gradient_tolerance: float = 2.0,
                 baseline_smoothing: float = 0.05,
                 observed_smoothing: float = 0.3,
                 decrease_cooldown: float = 1.0,
                 clock: Optional[Clock] = None):
        if not (1 <= min_limit <= initial_limit <= max_limit):
            raise ResilienceError(
                "need 1 <= min_limit <= initial_limit <= max_limit")
        if not (0.0 < decrease < 1.0):
            raise ResilienceError("decrease must be in (0, 1)")
        if gradient_tolerance <= 1.0:
            raise ResilienceError("gradient_tolerance must be > 1")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.decrease = decrease
        self.gradient_tolerance = gradient_tolerance
        self.baseline_smoothing = baseline_smoothing
        self.observed_smoothing = observed_smoothing
        self.decrease_cooldown = decrease_cooldown
        self.clock = clock or MonotonicClock()
        self._limit = float(initial_limit)     # guarded-by: _lock
        self._in_flight = 0                    # guarded-by: _lock
        self._baseline: Optional[float] = None  # guarded-by: _lock
        self._observed: Optional[float] = None  # guarded-by: _lock
        self._last_decrease: Optional[float] = None  # guarded-by: _lock
        self._successes = 0                    # guarded-by: _lock
        self._failures = 0                     # guarded-by: _lock
        self._gradient_decreases = 0           # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def limit(self) -> int:
        """The current admission limit (whole slots)."""
        with self._lock:
            return max(self.min_limit, int(self._limit))

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def try_acquire(self) -> bool:
        """Claim an admission slot; False when the limit is reached."""
        with self._lock:
            if self._in_flight >= max(self.min_limit, int(self._limit)):
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._in_flight > 0:
                self._in_flight -= 1

    def _decrease_locked(self) -> bool:  # requires: _lock
        now = self.clock.now()
        if self._last_decrease is not None and \
                now - self._last_decrease < self.decrease_cooldown:
            return False
        self._limit = max(float(self.min_limit),
                          self._limit * self.decrease)
        self._last_decrease = now
        return True

    def on_success(self, latency: float) -> None:
        """A completion inside its deadline: grow, unless the latency
        gradient says the backend is already congested."""
        with self._lock:
            self._successes += 1
            latency = max(0.0, latency)
            if self._observed is None:
                self._observed = latency
                self._baseline = latency
            else:
                self._observed += self.observed_smoothing * \
                    (latency - self._observed)
                self._baseline += self.baseline_smoothing * \
                    (latency - self._baseline)
            if self._baseline and self._baseline > 0 and \
                    self._observed > self.gradient_tolerance \
                    * self._baseline:
                if self._decrease_locked():
                    self._gradient_decreases += 1
                return
            self._limit = min(
                float(self.max_limit),
                self._limit + self.increase / max(1.0, self._limit))

    def on_failure(self, kind: str = "error") -> None:
        """A deadline miss or 5xx: multiplicative decrease."""
        with self._lock:
            self._failures += 1
            self._decrease_locked()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "limit": max(self.min_limit, int(self._limit)),
                "in_flight": self._in_flight,
                "successes": self._successes,
                "failures": self._failures,
                "gradient_decreases": self._gradient_decreases,
                "latency_observed": self._observed,
                "latency_baseline": self._baseline,
            }


# -- bounded priority admission queue ---------------------------------------------


@dataclass
class QueuedRequest:
    """One parked admission: QoS class, deadline, opaque payload.

    ``payload`` is whatever the caller needs to resume the request
    (the gateway parks its whole work item there); the queue itself
    only reads ``qos`` and ``deadline``.
    """

    qos: str
    seq: int
    enqueued_at: float
    deadline: Optional[Deadline] = None
    payload: Any = None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired


class AdmissionQueue:
    """A bounded, deadline-aware priority queue over the QoS classes.

    ``poll`` serves strictly by class (interactive before reporting
    before batch), FIFO within a class.  ``offer`` on a full queue
    *displaces* the newest entry of a strictly lower class before it
    refuses the arrival — priority means something exactly when the
    queue is full.  Entries whose deadline ages out while parked are
    harvested by :meth:`take_expired` so the caller can answer them
    504 without a worker ever seeing them.  Thread-safe.
    """

    def __init__(self, capacity: int = 64,
                 clock: Optional[Clock] = None):
        if capacity < 1:
            raise ResilienceError("queue capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or MonotonicClock()
        self._queues: Dict[str, Deque[QueuedRequest]] = {
            qos: deque() for qos in QOS_CLASSES}  # guarded-by: _lock
        self._seq = 0          # guarded-by: _lock
        self._displaced = 0    # guarded-by: _lock
        self._refused = 0      # guarded-by: _lock
        self._expired = 0      # guarded-by: _lock
        # Entries that aged out under poll(); drained by take_expired()
        # so no 504 is ever silently dropped.
        self._graveyard: List[QueuedRequest] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def depths(self) -> Dict[str, int]:
        with self._lock:
            return {qos: len(q) for qos, q in self._queues.items()}

    def offer(self, qos: str, deadline: Optional[Deadline] = None,
              payload: Any = None) \
            -> Tuple[Optional[QueuedRequest],
                     Optional[QueuedRequest]]:
        """Park one admission; returns ``(entry, displaced)``.

        ``entry`` is None when the queue refused the arrival (full of
        same-or-higher-class work); ``displaced`` is the lower-class
        entry that was evicted to make room, for the caller to answer
        with a typed shed.
        """
        if qos not in QOS_CLASSES:
            raise ResilienceError(f"unknown QoS class {qos!r}")
        with self._lock:
            displaced: Optional[QueuedRequest] = None
            total = sum(len(q) for q in self._queues.values())
            if total >= self.capacity:
                # Evict the newest entry of the lowest class strictly
                # below the arrival — shedding old work would waste
                # the wait it has already endured.
                for lower in reversed(QOS_CLASSES):
                    if QOS_CLASSES.index(lower) <= QOS_CLASSES.index(qos):
                        break
                    if self._queues[lower]:
                        displaced = self._queues[lower].pop()
                        self._displaced += 1
                        break
                if displaced is None:
                    self._refused += 1
                    return None, None
            self._seq += 1
            entry = QueuedRequest(qos=qos, seq=self._seq,
                                  enqueued_at=self.clock.now(),
                                  deadline=deadline, payload=payload)
            self._queues[qos].append(entry)
            return entry, displaced

    def poll(self) -> Optional[QueuedRequest]:
        """The next live entry, highest class first, FIFO within."""
        with self._lock:
            for qos in QOS_CLASSES:
                queue = self._queues[qos]
                while queue:
                    entry = queue.popleft()
                    if entry.expired:
                        self._expired += 1
                        # Hand it back through take_expired's contract:
                        # the caller polls expired separately, so stash
                        # it for the next harvest.
                        self._graveyard.append(entry)
                        continue
                    return entry
            return None

    def take_expired(self) -> List[QueuedRequest]:
        """Remove and return every entry whose deadline has aged out."""
        with self._lock:
            harvested: List[QueuedRequest] = list(self._graveyard)
            self._graveyard.clear()
            for qos in QOS_CLASSES:
                queue = self._queues[qos]
                live = deque(entry for entry in queue
                             if not entry.expired)
                expired_here = len(queue) - len(live)
                if expired_here:
                    harvested.extend(entry for entry in queue
                                     if entry.expired)
                    self._expired += expired_here
                    self._queues[qos] = live
            return sorted(harvested, key=lambda entry: entry.seq)

    def estimated_drain(self, service_seconds: float,
                        concurrency: int) -> float:
        """Seconds until a new arrival would reach a worker."""
        depth = len(self)
        if depth == 0 or service_seconds <= 0:
            return 0.0
        return depth * service_seconds / max(1, concurrency)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "depths": {qos: len(q)
                           for qos, q in self._queues.items()},
                "displaced": self._displaced,
                "refused": self._refused,
                "expired": self._expired,
            }


# -- per-tenant retry budgets -----------------------------------------------------


class RetryBudget:
    """A token bucket bounding how much retry traffic a tenant adds.

    Every retry (and every hedged request) spends one token; every
    successful *first* attempt refills ``refill_per_success`` of a
    token, up to ``capacity``.  When the bucket is empty, retries stop
    — which is exactly when they were amplifying an overload rather
    than papering over a blip: a healthy backend refills the bucket
    faster than transient failures drain it, a collapsed backend
    cannot refill it at all.  Thread-safe.
    """

    def __init__(self, capacity: float = 10.0,
                 refill_per_success: float = 0.1,
                 initial: Optional[float] = None, name: str = ""):
        if capacity <= 0:
            raise ResilienceError("retry budget capacity must be > 0")
        if refill_per_success < 0:
            raise ResilienceError("refill_per_success must be >= 0")
        self.capacity = capacity
        self.refill_per_success = refill_per_success
        self.name = name
        self._tokens = capacity if initial is None \
            else min(capacity, max(0.0, initial))  # guarded-by: _lock
        self._spent = 0      # guarded-by: _lock
        self._denied = 0     # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def try_spend(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens for one retry/hedge; False = denied."""
        with self._lock:
            if self._tokens < cost:
                self._denied += 1
                return False
            self._tokens -= cost
            self._spent += 1
            return True

    def record_success(self) -> None:
        """A successful first attempt refills the bucket."""
        with self._lock:
            self._tokens = min(self.capacity,
                               self._tokens + self.refill_per_success)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"tokens": round(self._tokens, 3),
                    "capacity": self.capacity,
                    "spent": self._spent,
                    "denied": self._denied}


# -- brownout ladder --------------------------------------------------------------

#: The degradation ladder, mildest first.  Order is the contract:
#: stale-cache fills stop before anything is shed, batch sheds before
#: reporting degrades, and interactive is never touched.
BROWNOUT_STAGES: Tuple[str, ...] = (
    "normal",             # level 0: everything runs
    "no-cache-fill",      # level 1: stop refreshing the stale cache
    "shed-batch",         # level 2: batch answered 503 + Retry-After
    "degrade-reporting",  # level 3: reporting answered stale
)


class BrownoutController:
    """Maps measured pressure onto the degradation ladder.

    ``observe(pressure)`` feeds a smoothed pressure signal (0 = idle,
    1 = saturated); the level steps *up* the moment the smoothed value
    crosses a threshold and steps *down* only ``hysteresis`` below it
    and after ``min_dwell`` seconds at the current level — so the
    ladder cannot flap at a threshold boundary.  Deterministic on the
    injected clock.
    """

    def __init__(self, thresholds: Tuple[float, float, float] =
                 (0.5, 0.75, 0.9),
                 smoothing: float = 0.3, hysteresis: float = 0.1,
                 min_dwell: float = 1.0,
                 clock: Optional[Clock] = None):
        if len(thresholds) != len(BROWNOUT_STAGES) - 1 or \
                list(thresholds) != sorted(thresholds):
            raise ResilienceError(
                "brownout needs one ascending threshold per rung")
        self.thresholds = tuple(thresholds)
        self.smoothing = smoothing
        self.hysteresis = hysteresis
        self.min_dwell = min_dwell
        self.clock = clock or MonotonicClock()
        self._pressure = 0.0       # guarded-by: _lock
        self._level = 0            # guarded-by: _lock
        self._changed_at = self.clock.now()  # guarded-by: _lock
        self._transitions: List[Tuple[float, int]] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def stage(self) -> str:
        return BROWNOUT_STAGES[self.level]

    @property
    def pressure(self) -> float:
        with self._lock:
            return self._pressure

    def observe(self, pressure: float) -> int:
        """Feed one pressure sample; returns the (new) level."""
        pressure = min(1.0, max(0.0, pressure))
        with self._lock:
            self._pressure += self.smoothing * \
                (pressure - self._pressure)
            target = 0
            for index, threshold in enumerate(self.thresholds):
                if self._pressure >= threshold:
                    target = index + 1
            now = self.clock.now()
            if target > self._level:
                self._level = target
                self._changed_at = now
                self._transitions.append((now, target))
            elif target < self._level:
                # Step down one rung at a time, only once the smoothed
                # pressure has cleared the rung's threshold by the
                # hysteresis margin and the dwell time has passed.
                threshold = self.thresholds[self._level - 1]
                if self._pressure < threshold - self.hysteresis and \
                        now - self._changed_at >= self.min_dwell:
                    self._level -= 1
                    self._changed_at = now
                    self._transitions.append((now, self._level))
            return self._level

    # -- what the current level permits ------------------------------------------

    def allows_cache_fill(self) -> bool:
        return self.level < 1

    def sheds(self, qos: str) -> bool:
        """True when the ladder says this class is answered 503."""
        return qos == QOS_BATCH and self.level >= 2

    def degrades(self, qos: str) -> bool:
        """True when the ladder says this class is answered stale."""
        return qos == QOS_REPORTING and self.level >= 3

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"level": self._level,
                    "stage": BROWNOUT_STAGES[self._level],
                    "pressure": round(self._pressure, 4),
                    "transitions": len(self._transitions)}


# -- hedged calls -----------------------------------------------------------------

#: Lazily-built shared pool for hedge backups.  Small on purpose: a
#: hedge is a tail-latency patch, not a second serving fleet.
_hedge_pool: Optional[ThreadPoolExecutor] = None
_hedge_pool_lock = threading.Lock()


def _hedge_executor() -> ThreadPoolExecutor:
    global _hedge_pool
    with _hedge_pool_lock:
        if _hedge_pool is None:
            _hedge_pool = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="odbis-hedge")
        return _hedge_pool


def hedged_call(primary: Callable[[], Any],
                backup: Callable[[], Any],
                hedge_after: float,
                budget: Optional[RetryBudget] = None) \
        -> Tuple[Any, Dict[str, Any]]:
    """Run ``primary``; fire ``backup`` if it is slow.  First wins.

    Waits ``hedge_after`` real seconds for the primary; past that, if
    ``budget`` grants a token (a hedge is a speculative retry — it
    must not escape the retry budget), the backup launches and the
    first *successful* completion is returned.  The loser is cancelled
    when still queued; a running loser's result is discarded.  If both
    fail, the primary's error propagates.

    A primary that *errors* before the timer fires fails over to the
    backup immediately — that path is not speculative (the primary is
    already dead), so it never spends a budget token.

    Returns ``(result, info)`` where info carries ``winner``
    (``"primary"``/``"backup"``) and ``hedged`` (whether the backup
    launched).
    """
    pool = _hedge_executor()
    first = pool.submit(primary)
    done, _ = wait([first], timeout=max(0.0, hedge_after))
    if done:
        error = first.exception()
        if error is None:
            return first.result(), {"winner": "primary",
                                    "hedged": False}
        try:
            return backup(), {"winner": "backup", "hedged": True,
                              "failover": True}
        except BaseException:
            raise error from None
    if budget is not None and not budget.try_spend():
        return first.result(), {"winner": "primary", "hedged": False,
                                "hedge_denied": True}
    second = pool.submit(backup)
    futures = {first: "primary", second: "backup"}
    errors: Dict[str, BaseException] = {}
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            label = futures[future]
            try:
                result = future.result()
            except BaseException as exc:  # first success wins; keep
                errors[label] = exc       # errors in case both fail
                continue
            for loser in pending:
                loser.cancel()
            return result, {"winner": label, "hedged": True}
    raise errors.get("primary") or errors["backup"]


# -- the controller façade --------------------------------------------------------

#: Entries kept in the controller's ``decision_log`` ring.
DECISION_LOG_CAPACITY = 100_000


class OverloadController:
    """Everything the gateway needs, behind one object.

    Owns the admission queue, the AIMD limiter, the brownout ladder,
    the latency window and the per-tenant retry budgets, and keeps the
    ``decision_log`` — one ``(path, qos, decision)`` triple per
    admission decision, the observable that makes overload behaviour
    replayable: the same seeded workload produces the identical log.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 queue_capacity: int = 64,
                 limiter: Optional[AIMDLimiter] = None,
                 brownout: Optional[BrownoutController] = None,
                 retry_budget_capacity: float = 10.0,
                 retry_budget_refill: float = 0.1,
                 hedge_floor: float = 0.001,
                 **limiter_kwargs: Any):
        self.clock = clock or MonotonicClock()
        self.queue = AdmissionQueue(queue_capacity, clock=self.clock)
        self.limiter = limiter or AIMDLimiter(clock=self.clock,
                                              **limiter_kwargs)
        self.brownout = brownout or BrownoutController(clock=self.clock)
        self.latency = LatencyTracker()
        self.retry_budget_capacity = retry_budget_capacity
        self.retry_budget_refill = retry_budget_refill
        self.hedge_floor = hedge_floor
        self._budgets: Dict[str, RetryBudget] = {}  # guarded-by: _lock
        self.decision_log: Deque[Tuple[str, str, str]] = deque(
            maxlen=DECISION_LOG_CAPACITY)  # guarded-by: _lock
        self._lock = threading.Lock()

    # -- classification and budgets ----------------------------------------------

    def classify(self, method: str, path: str,
                 sql: Optional[str] = None) -> str:
        return classify_request(method, path, sql)

    def budget(self, tenant_id: str) -> RetryBudget:
        """The tenant's retry budget (created on first use)."""
        with self._lock:
            if tenant_id not in self._budgets:
                self._budgets[tenant_id] = RetryBudget(
                    capacity=self.retry_budget_capacity,
                    refill_per_success=self.retry_budget_refill,
                    name=f"tenant:{tenant_id}")
            return self._budgets[tenant_id]

    # -- pressure -----------------------------------------------------------------

    def pressure(self) -> float:
        """The saturation signal the brownout ladder watches.

        Limiter utilisation alone tops out at 0.5 of the scale; queue
        fill carries the other half — so "limiter saturated, queue
        empty" reads 0.5 (first rung) while a filling queue walks the
        signal toward 1.0 (shedding rungs).
        """
        limit = self.limiter.limit
        utilisation = self.limiter.in_flight / limit if limit else 1.0
        fill = len(self.queue) / self.queue.capacity
        return 0.5 * min(1.0, utilisation) + 0.5 * min(1.0, fill)

    def observe(self) -> int:
        """Sample pressure into the ladder; returns the level."""
        return self.brownout.observe(self.pressure())

    # -- outcomes and the decision log --------------------------------------------

    def record(self, path: str, qos: str, decision: str) -> None:
        with self._lock:
            self.decision_log.append((path, qos, decision))

    def note_result(self, latency: float, ok: bool,
                    deadline_missed: bool = False) -> None:
        """Feed one completion into the limiter and latency window."""
        self.latency.record(latency)
        if deadline_missed:
            self.limiter.on_failure("deadline")
        elif ok:
            self.limiter.on_success(latency)
        else:
            self.limiter.on_failure("5xx")
        self.observe()

    def hedge_after(self) -> float:
        """The hedge trigger delay: p95 of the latency window."""
        return max(self.hedge_floor, self.latency.p95())

    def estimated_drain(self) -> float:
        """Seconds a new arrival would wait for a worker right now."""
        service = self.latency.mean() or 0.05
        return self.queue.estimated_drain(service, self.limiter.limit)

    # -- observability -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            budgets = {tenant: budget.snapshot()
                       for tenant, budget in sorted(
                           self._budgets.items())}
        return {
            "limiter": self.limiter.snapshot(),
            "queue": self.queue.snapshot(),
            "brownout": self.brownout.snapshot(),
            "retry_budgets": budgets,
            "latency_p95": round(self.latency.p95(), 6),
        }
