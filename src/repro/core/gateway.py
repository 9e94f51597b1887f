"""Concurrent request dispatch: the multi-tenant serving layer.

The paper's §2 economics rest on one shared physical backend serving
many tenants *at once*.  :class:`RequestGateway` puts a worker pool in
front of the web application so overlapping tenant requests really
overlap: each request is admission-checked against the tenant registry
— a deactivated or unknown tenant is rejected at dispatch, before any
worker thread or database time is spent — and then run through the
middleware chain by a pool worker or, if it claims the request first,
by the caller waiting on its future (a closed loop makes no thread hop).

The gateway is also where the resilience kernel meets traffic:

* every accepted request carries a :class:`Deadline` (its remaining
  budget is checked after queue wait, so a request that aged out in
  the queue is answered 504 without burning a backend call),
* each tenant has a :class:`Bulkhead` concurrency cap — a hot tenant
  sheds load with a typed 429 instead of occupying every worker,
* each tenant has a :class:`CircuitBreaker`; while it is open the
  gateway answers past the tenant wall from the :class:`ResponseStore`
  with a typed :class:`DegradedResponse` (staleness marker included)
  instead of hammering the broken backend, and once half-open it lets
  one probe through at a time,
* no exception escapes to callers: worker failures become typed 500
  responses and count against the tenant's breaker.

Each request is one admission record.  What admission takes for it —
the breaker's admission (the probe, when half-open), a bulkhead slot,
an AIMD limiter slot — is written into the record as it is taken, and
every way out (rejected, shed, degraded, expired, displaced, shutdown,
cancelled before it started, or run) goes through one step that hands
back exactly what the record holds.

Data-plane serialization is the engine's job, not the gateway's: every
:class:`~repro.engine.database.Database` serializes its writers on one
lock and serves reads lock-free from MVCC snapshots, so ISOLATED-mode
tenants (private operational databases) run truly in parallel while
SHARED-mode tenants serialize only on writes to the shared operational
database — reads overlap in both modes.
"""

from __future__ import annotations

import atexit
import queue
import sys
import threading
import weakref
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.overload import (
    OverloadController,
    read_only_statement,
)
from repro.core.resilience import (
    Bulkhead,
    CircuitBreaker,
    Clock,
    Deadline,
    FaultInjector,
    MonotonicClock,
    TenantHealth,
)
from repro.core.tenancy import TenantCache, TenantManager
from repro.engine.locking import writer_locks_held
from repro.errors import GatewayShutdownError, TenantError, TransactionError
from repro.web import JsonResponse, Request, Response, WebApplication

#: Default worker-pool width (the paper's "many concurrent tenants").
DEFAULT_WORKERS = 8

#: Per-tenant consecutive 5xx/exception count that opens the breaker.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds (on the gateway clock) an open breaker stays open.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Entries kept in the response store before LRU eviction.
DEFAULT_STALE_CACHE_CAPACITY = 1024

#: Entries kept in the dispatch-log ring buffer.  The log is an
#: observable, not an audit trail: the ring keeps recent decisions for
#: tests and debugging while ``decision_counts`` stays exact forever.
DEFAULT_DISPATCH_LOG_CAPACITY = 10_000

#: Retry-After floor (seconds) when neither the breaker cooldown nor
#: the queue drain estimate suggests a better number — "come back
#: shortly", never "come back in 0s".
DEFAULT_RETRY_AFTER = 1.0


class DegradedResponse(JsonResponse):
    """A typed "serving degraded" answer — never an exception.

    When a tenant's breaker is open the gateway returns the last
    known-good body for the path with ``stale=True`` and a staleness
    marker (the gateway-clock time the cache entry was written), or a
    503-status degraded notice when nothing is cached.  ``degraded``
    is always True so callers can branch without parsing the body.
    """

    degraded = True

    def __init__(self, reason: str, payload: Any = None,
                 stale: bool = False,
                 stale_as_of: Optional[float] = None,
                 status: Optional[int] = None,
                 retry_after: Optional[float] = None):
        self.reason = reason
        self.stale = stale
        self.stale_as_of = stale_as_of
        body = {"degraded": True, "reason": reason, "stale": stale}
        if stale:
            body["stale_as_of"] = stale_as_of
            body["data"] = payload
        headers = None
        if retry_after is not None:
            retry_after = max(0.0, retry_after)
            self.retry_after = retry_after
            body["retry_after"] = round(retry_after, 3)
            headers = {"retry-after": f"{retry_after:.3f}"}
        super().__init__(
            body, status=status if status is not None
            else (200 if stale else 503), headers=headers)


class ClaimableFuture(Future):
    """An admitted request's future, run by whoever claims it first.

    Once armed, the pool worker that dequeues :meth:`claim` and the
    first thread to wait on ``result``/``exception`` race for one
    claim; the loser does nothing.  A request cancelled before it
    started runs its ``abandon`` step instead.  An unarmed future
    (parked in the admission queue) gives a waiter nothing to claim.
    A thread holding a database writer lock (inside a transaction)
    may not wait: it would run the request inside its own transaction,
    or block the worker that needs the lock.
    """

    def __init__(self) -> None:
        super().__init__()
        self._armed: Optional[tuple] = None  # guarded-by: _claim_lock
        self._claim_lock = threading.Lock()

    def arm(self, run: Callable, abandon: Callable) -> None:
        with self._claim_lock:
            self._armed = (run, abandon)

    def take(self) -> Optional[tuple]:
        """The armed work, to exactly one caller; None once taken."""
        with self._claim_lock:
            armed, self._armed = self._armed, None
        return armed

    def claim(self) -> None:
        """Run the armed work here unless another thread took it."""
        armed = self.take()
        if armed is None:
            return
        run, abandon = armed
        if not self.set_running_or_notify_cancel():
            return abandon()
        try:
            result = run()
        except BaseException as exc:  # an interrupt also goes on up
            self.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
        else:
            self.set_result(result)

    def _wait_here(self) -> None:
        if writer_locks_held():
            raise TransactionError(
                "cannot wait on a gateway request while holding a "
                "database writer lock")
        self.claim()

    def result(self, timeout: Optional[float] = None) -> Any:
        self._wait_here()
        return super().result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Any:
        self._wait_here()
        return super().exception(timeout)


def _drain(claims: "queue.SimpleQueue", idle: "queue.SimpleQueue") -> None:
    """A pool worker: run claims until the stop sentinel (None), which
    it passes on so one sentinel stops every worker."""
    while True:
        claim = claims.get()
        if claim is None:
            claims.put(None)
            return
        try:
            claim()
        except BaseException:  # the claim has answered its own future
            pass
        del claim  # hold no request while blocked on the queue
        idle.put(True)


class _ClaimPool:
    """Gateway-owned worker threads draining one queue of claims.

    A thread starts only when no started worker is idle, up to
    ``max_workers``, as a standard-library executor starts them; but
    what is queued is the request's own :meth:`ClaimableFuture.claim`,
    so no second future is built to hold a result nobody reads.
    Workers hold the queues, not the pool: once the pool is collected
    a finalizer posts the stop sentinel.  Workers are daemon threads,
    and at interpreter exit every live pool is shut down and joined,
    so claims queued before exit still run, as an executor's do.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self._claims: "queue.SimpleQueue" = queue.SimpleQueue()
        self._idle: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []  # guarded-by: _lock
        self._shut = False  # guarded-by: _lock
        self._lock = threading.Lock()
        weakref.finalize(self, self._claims.put, None)
        _LIVE_POOLS.add(self)

    def submit(self, claim: Callable[[], None]) -> None:
        """Queue ``claim``; RuntimeError once the pool is shut down."""
        with self._lock:
            if self._shut:
                raise RuntimeError("cannot queue a claim after shutdown")
            self._claims.put(claim)
            if not self._idle.empty():
                self._idle.get_nowait()
            elif len(self._threads) < self.max_workers:
                thread = threading.Thread(
                    target=_drain, args=(self._claims, self._idle),
                    name=f"odbis-gateway_{len(self._threads)}",
                    daemon=True)
                thread.start()
                self._threads.append(thread)

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new claims; the queued ones still run, then the
        workers stop (joined when ``wait``)."""
        with self._lock:
            self._shut = True
            threads = list(self._threads)
        self._claims.put(None)
        if wait:
            for thread in threads:
                thread.join()


_LIVE_POOLS: "weakref.WeakSet[_ClaimPool]" = weakref.WeakSet()


@atexit.register
def _shut_pools_at_exit() -> None:
    for pool in list(_LIVE_POOLS):
        pool.shutdown(wait=True)


class ResponseStore(TenantCache):
    """The last 2xx response to each idempotent read (:meth:`key`) and
    when it was kept.  Read only past the tenant wall: fresh while its
    ``seen`` stands, or stale for degraded traffic (DESIGN §5b)."""

    @staticmethod
    def key(tenant_id: Optional[str], method: str, path: str,
            query: Optional[Dict[str, Any]], body: Any) \
            -> Optional[Tuple[Any, ...]]:
        """The identity of an idempotent read: tenant, method, path,
        canonical (sorted) query and, for a POST of read-only SQL, its
        text and parameters.  None for a mutation (a kept POST replayed
        as a 200 would fake a write) and for a path outside a tenant."""
        if tenant_id is None:
            return None
        method = method.upper()
        canonical = tuple(sorted(
            (str(name), str(value))
            for name, value in (query or {}).items()))
        if method in ("GET", "HEAD"):
            return (tenant_id, method, path, canonical)
        sql = RequestGateway._sql_of(body)
        if sql is not None and read_only_statement(sql):
            return (tenant_id, method, path, canonical + (
                ("sql", sql), ("params", repr(body.get("params")))))
        return None


class RequestGateway:
    """Dispatches tenant requests onto a worker pool.

    ``submit`` returns a :class:`~concurrent.futures.Future` resolving
    to the :class:`~repro.web.Response`; ``dispatch_all`` fans a batch
    out and gathers responses in request order.  The ``dispatch_log``
    records one ``(path, decision)`` pair per submission — the
    observable that admission control happened at dispatch time; it is
    a bounded ring (``DEFAULT_DISPATCH_LOG_CAPACITY``) whose exact
    per-decision tally survives in ``decision_counts``.  The decisions
    are ``accepted`` (plus the ``accepted-read`` / ``accepted-write``
    refinements when the body carries SQL), ``rejected`` (admission),
    ``shed`` (bulkhead full) and ``degraded`` (breaker open, or
    half-open with its probe out); with an
    :class:`~repro.core.overload.OverloadController` attached the
    overload path adds ``queued`` (parked behind the AIMD limit),
    ``queue-shed`` / ``queue-displaced`` (priority queue full),
    ``expired`` (deadline aged out while parked — answered 504 without
    ever touching a worker) and ``brownout-shed`` /
    ``brownout-degraded`` (the degradation ladder).

    Every request is one work record from admission to answer, and
    :meth:`_finish` is its only way out: it releases what the record
    holds, so no exit hands back a slot by hand.

    An admitted request's future is a :class:`ClaimableFuture`, so a
    waiting caller lends its own thread: ``max_workers`` bounds pool
    threads; the bulkhead and the AIMD limiter bound admission.  A
    thread holding a database transaction must not wait on a request.

    Read/write classification matters under MVCC: a read-only
    statement — including ``EXPLAIN <anything>``, which only *plans*
    — runs on the engine's lock-free snapshot path and never queues
    behind an open write transaction, so the gateway no longer has a
    reason to treat it as contended work.
    """

    def __init__(self, web: WebApplication, tenants: TenantManager,
                 max_workers: int = DEFAULT_WORKERS,
                 clock: Optional[Clock] = None,
                 faults: Optional[FaultInjector] = None,
                 deadline_seconds: Optional[float] = None,
                 bulkhead_capacity: Optional[int] = None,
                 overload: Optional[OverloadController] = None):
        self.web = web
        self.tenants = tenants
        self.max_workers = max_workers
        self.clock = clock or MonotonicClock()
        self.faults = faults or FaultInjector()
        self.deadline_seconds = deadline_seconds
        self.bulkhead_capacity = bulkhead_capacity or max_workers
        self.breaker_threshold = DEFAULT_BREAKER_THRESHOLD
        self.breaker_cooldown = DEFAULT_BREAKER_COOLDOWN
        #: The overload-control kernel (None = legacy static
        #: admission): AIMD limiter as the true concurrency bound, the
        #: QoS priority queue behind it, the brownout ladder above it.
        self.overload = overload
        # The dispatch log is a bounded ring: a long-running gateway
        # must not grow a Python list forever.  The tuple shape stays
        # (path, decision); decision_counts keeps the exact tally even
        # after the ring has wrapped.
        self.dispatch_log: Deque[Tuple[str, str]] = deque(
            maxlen=DEFAULT_DISPATCH_LOG_CAPACITY)  # guarded-by: _log_lock
        self.decision_counts: Dict[str, int] = {}  # guarded-by: _log_lock
        self._log_lock = threading.Lock()
        self._pool: Optional[_ClaimPool] = None  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}  # guarded-by: _guard_lock
        self._bulkheads: Dict[str, Bulkhead] = {}  # guarded-by: _guard_lock
        self._guard_lock = threading.Lock()
        self.responses = ResponseStore()
        self._draining = False  # guarded-by: _drain
        self._inflight = 0  # guarded-by: _drain
        self._drain = threading.Condition()

    # -- pool lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> _ClaimPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _ClaimPool(self.max_workers)
            return self._pool

    def shutdown(self, wait: bool = True,
                 permanent: bool = False) -> None:
        """Drain in-flight requests, then tear the pool down.

        New submissions observe the draining flag *before* the pool is
        touched and are rejected with a typed
        :class:`~repro.errors.GatewayShutdownError` — they can no
        longer race the teardown.  With ``permanent=True`` the gateway
        stays in the draining state forever: platform shutdown uses
        this so nothing can be accepted after the WALs close.
        """
        with self._drain:
            self._draining = True
        # Parked queue entries hold in-flight counts but no worker;
        # answer them now (typed 503) or the drain below never ends.
        self._flush_queue()
        if wait:
            with self._drain:
                while self._inflight > 0:
                    self._drain.wait(timeout=0.1)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        if not permanent:
            with self._drain:
                self._draining = False

    def __enter__(self) -> "RequestGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- admission control ------------------------------------------------------

    @staticmethod
    def tenant_of(path: str) -> Optional[str]:
        """The tenant id of a ``/tenants/{id}/...`` path, else None."""
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] == "tenants":
            return parts[1]
        return None

    def _admit(self, path: str) -> Optional[Response]:
        """None when the request may proceed, else the rejection."""
        tenant_id = self.tenant_of(path)
        if tenant_id is None:
            return None
        try:
            context = self.tenants.context(tenant_id)
        except TenantError as exc:
            return JsonResponse({"error": str(exc)}, status=404)
        if not context.active:
            return JsonResponse(
                {"error": f"tenant {tenant_id!r} is deactivated"},
                status=403)
        return None

    # -- per-tenant resilience state ---------------------------------------------

    def breaker(self, tenant_id: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created on first use)."""
        with self._guard_lock:
            if tenant_id not in self._breakers:
                self._breakers[tenant_id] = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown=self.breaker_cooldown,
                    clock=self.clock, name=f"tenant:{tenant_id}")
            return self._breakers[tenant_id]

    def bulkhead(self, tenant_id: str) -> Bulkhead:
        """The tenant's concurrency cap (created on first use)."""
        with self._guard_lock:
            if tenant_id not in self._bulkheads:
                self._bulkheads[tenant_id] = Bulkhead(
                    self.bulkhead_capacity, name=f"tenant:{tenant_id}")
            return self._bulkheads[tenant_id]

    def tenant_health(self) -> Dict[str, TenantHealth]:
        """Breaker + bulkhead posture per tenant seen so far."""
        with self._guard_lock:
            tenant_ids = set(self._breakers) | set(self._bulkheads)
        health: Dict[str, TenantHealth] = {}
        for tenant_id in sorted(tenant_ids):
            breaker = self.breaker(tenant_id)
            bulkhead = self.bulkhead(tenant_id)
            health[tenant_id] = TenantHealth(
                tenant=tenant_id,
                breaker_state=breaker.state,
                consecutive_failures=breaker.consecutive_failures,
                bulkhead_in_use=bulkhead.in_use,
                bulkhead_capacity=bulkhead.capacity)
        return health

    # -- dispatch ---------------------------------------------------------------

    def submit(self, method: str, path: str, body: Any = None,
               headers: Optional[Dict[str, str]] = None,
               query: Optional[Dict[str, Any]] = None) -> "Future[Response]":
        """Admission-check one request and hand it to the pool."""
        with self._drain:
            if self._draining:
                raise GatewayShutdownError(
                    f"gateway is shutting down; rejected "
                    f"{method} {path}")
            self._inflight += 1
        try:
            return self._submit_guarded(method, path, body, headers,
                                        query)
        except BaseException:
            self._request_done()
            raise

    def _request_done(self) -> None:
        with self._drain:
            self._inflight -= 1
            self._drain.notify_all()

    def _log(self, path: str, decision: str,
             qos: Optional[str] = None) -> None:
        with self._log_lock:
            # Interned: a full ring holds a handful of distinct paths,
            # not one string per request.
            self.dispatch_log.append((sys.intern(path), decision))
            self.decision_counts[decision] = \
                self.decision_counts.get(decision, 0) + 1
        if self.overload is not None and qos is not None:
            self.overload.record(path, qos, decision)

    # -- Retry-After --------------------------------------------------------------

    def _retry_after(self, breaker: Optional[CircuitBreaker] = None) \
            -> float:
        """Seconds a shed caller should wait before trying again.

        The larger of the breaker's remaining cooldown and the
        admission queue's estimated drain time, floored at
        ``DEFAULT_RETRY_AFTER`` so a shed response never advises an
        instant (thundering-herd) retry.
        """
        value = 0.0
        if breaker is not None:
            value = max(value, breaker.retry_after())
        if self.overload is not None:
            value = max(value, self.overload.estimated_drain())
        return value if value > 0 else DEFAULT_RETRY_AFTER

    @staticmethod
    def _shed(code: str, error: str, status: int,
              retry_after: float) -> JsonResponse:
        retry_after = max(0.0, retry_after)
        return JsonResponse(
            {"error": error, "code": code,
             "retry_after": round(retry_after, 3)},
            status=status, headers={"retry-after": f"{retry_after:.3f}"})

    def _deadline_exceeded(self, work: Dict[str, Any], where: str,
                           breaker: Optional[CircuitBreaker]) \
            -> JsonResponse:
        deadline = work["deadline"]
        budget = deadline.budget_seconds if deadline is not None else 0.0
        return self._shed(
            "deadline_exceeded",
            f"request exceeded its {budget:.3f}s budget{where}", 504,
            self._retry_after(breaker))

    def _shut_out(self, work: Dict[str, Any]) -> None:
        """End an admitted request that lost the race with shutdown."""
        self._finish(work, "queue-shed", self._shed(
            "gateway_shutdown", "gateway is shutting down", 503,
            DEFAULT_RETRY_AFTER))

    @staticmethod
    def _sql_of(body: Any) -> Optional[str]:
        """The SQL text a request body carries, if any."""
        if isinstance(body, dict):
            for key in ("sql", "query"):
                value = body.get(key)
                if isinstance(value, str):
                    return value
        return None

    def _submit_guarded(self, method: str, path: str, body: Any,
                        headers: Optional[Dict[str, str]],
                        query: Optional[Dict[str, Any]]) \
            -> "Future[Response]":
        tenant_id = self.tenant_of(path)
        # The admission record: each guard below writes what it took
        # into it (breaker, bulkhead, limiter), and _finish hands back
        # exactly that, whichever way the request ends.
        work: Dict[str, Any] = {
            "method": method, "path": path, "body": body,
            "headers": headers, "query": query, "tenant_id": tenant_id,
            "qos": None, "deadline": None, "breaker": None,
            "bulkhead": None, "limiter": False,
            "future": ClaimableFuture()}
        sql = self._sql_of(body)
        overload = self.overload
        if overload is not None:
            work["qos"] = qos = overload.classify(method, path, sql)
            overload.observe()

        rejection = self._admit(path)
        if rejection is not None:
            return self._finish(work, "rejected", rejection)

        breaker = None
        if tenant_id is not None:
            breaker = self.breaker(tenant_id)

        # The brownout ladder gates *before* per-tenant guards: a shed
        # class is shed for every tenant alike — brownout is platform
        # pressure, not tenant fault, so it must not trip breakers or
        # occupy bulkhead slots.
        if overload is not None:
            brownout = overload.brownout
            if brownout.sheds(qos):
                return self._finish(work, "brownout-shed", self._shed(
                    "brownout_shed", f"{qos} traffic is shed under "
                    f"overload (brownout level {brownout.level})", 503,
                    self._retry_after(breaker)))
            if brownout.degrades(qos):
                return self._finish(
                    work, "brownout-degraded", self._stale_answer(
                        work, f"served stale under overload (brownout "
                              f"level {brownout.level})", breaker))

        if breaker is not None:
            if not breaker.allow(work):
                return self._finish(work, "degraded", self._stale_answer(
                    work, f"tenant {tenant_id!r} breaker is "
                          f"{breaker.state}; retry in "
                          f"{breaker.retry_after():.1f}s", breaker))
            work["breaker"] = breaker
            bulkhead = self.bulkhead(tenant_id)
            if not bulkhead.try_acquire():
                return self._finish(work, "shed", self._shed(
                    "bulkhead_rejected", f"tenant {tenant_id!r} is over "
                    f"its concurrency cap of {bulkhead.capacity}", 429,
                    self._retry_after(breaker)))
            work["bulkhead"] = bulkhead

        if sql is None:
            decision = "accepted"
        elif read_only_statement(sql):
            decision = "accepted-read"
        else:
            decision = "accepted-write"
        if self.deadline_seconds is not None:
            work["deadline"] = Deadline(self.deadline_seconds,
                                        clock=self.clock)

        if overload is not None:
            # Overload path: the AIMD limit — not the worker pool — is
            # the true admission bound.  A free slot dispatches now; a
            # full limiter parks the request in the priority queue,
            # where its deadline keeps ticking and its future stays
            # unarmed.
            self._expire_queued()
            if overload.limiter.try_acquire():
                work["limiter"] = True
            else:
                entry, displaced = overload.queue.offer(
                    qos, deadline=work["deadline"], payload=work)
                if displaced is not None:
                    self._finish(
                        displaced.payload, "queue-displaced", self._shed(
                            "queue_displaced", "displaced from the "
                            "admission queue by higher-priority traffic",
                            503, self._retry_after()))
                if entry is None:
                    return self._finish(work, "queue-shed", self._shed(
                        "queue_full", "admission queue is full", 503,
                        self._retry_after(breaker)))
                self._log(path, "queued", qos)
                overload.observe()
                return work["future"]
        self._log(path, decision, work["qos"])
        return self._start(work)

    def _stale_answer(self, work: Dict[str, Any], reason: str,
                      breaker: Optional[CircuitBreaker]) -> Response:
        """The last known-good body for ``work``, marked stale, or a 503
        notice — once authentication and the tenant wall let it by."""
        key = ResponseStore.key(work["tenant_id"], work["method"],
                                work["path"], work["query"], work["body"])
        retry_after = self._retry_after(breaker)

        def answer(request: Request) -> Response:
            kept = None if key is None else self.responses.get(key)
            if kept is None:
                return DegradedResponse(reason, retry_after=retry_after)
            response, written_at = kept
            try:
                payload = response.json()
            except ValueError:
                payload = response.body  # non-JSON output
            return DegradedResponse(reason, payload=payload, stale=True,
                                    stale_as_of=written_at,
                                    retry_after=retry_after)

        try:
            return self.web.handle(Request(
                work["method"], work["path"], dict(work["headers"] or {}),
                dict(work["query"] or {}), work["body"], answer=answer))
        except Exception:
            # Not even a refusal came back: the notice, never kept data.
            return DegradedResponse(reason, retry_after=retry_after)

    @staticmethod
    def _stale_epoch_response(response: Response) -> bool:
        """True for the web layer's typed stale-epoch 503."""
        if response.status != 503:
            return False
        try:
            payload = response.json()
        except (TypeError, ValueError):
            return False
        return isinstance(payload, dict) \
            and payload.get("code") == "stale_epoch"

    def _run_request(self, method: str, path: str, body: Any,
                     headers: Optional[Dict[str, str]],
                     work: Dict[str, Any]) -> Response:
        """The worker-side wrapper: budget, faults, typed failures."""
        breaker, deadline = work["breaker"], work["deadline"]
        started = self.clock.now()
        ok = False
        deadline_missed = False
        try:
            if deadline is not None and deadline.expired:
                deadline_missed = True
                return self._deadline_exceeded(
                    work, " waiting for a worker", breaker)
            try:
                self.faults.fire("gateway.handle")
                response = self.web.request(method, path, body,
                                            headers, work["query"])
            except Exception as exc:
                if breaker is not None:
                    breaker.record_failure()
                return JsonResponse(
                    {"error": str(exc),
                     "code": "internal_failure"}, status=500)
            if deadline is not None and deadline.expired:
                deadline_missed = True
                if breaker is not None:
                    breaker.record_failure()
                return self._deadline_exceeded(work, "", breaker)
            if breaker is not None:
                if response.status >= 500:
                    # A stale-epoch 503 is retryable routing back-
                    # pressure from a promotion in flight, not a
                    # tenant-scoped fault — tripping the tenant's
                    # breaker over it would turn a failover blip
                    # into an outage for that tenant.
                    if not self._stale_epoch_response(response):
                        breaker.record_failure()
                else:
                    breaker.record_success()
            # The same reasoning exempts stale-epoch 503s from the
            # AIMD limiter: routing backpressure is not capacity.
            ok = response.status < 500 \
                or self._stale_epoch_response(response)
            if response.ok and (self.overload is None or
                                self.overload.brownout.allows_cache_fill()):
                key = ResponseStore.key(
                    work["tenant_id"], work["method"], work["path"],
                    work["query"], work["body"])
                if key is not None:
                    self.responses.put(key, (response, self.clock.now()),
                                       DEFAULT_STALE_CACHE_CAPACITY)
            return response
        finally:
            self._finish(work, outcome=(self.clock.now() - started, ok,
                                        deadline_missed))

    def _finish(self, work: Dict[str, Any], decision: Optional[str] = None,
                response: Optional[Response] = None,
                outcome: Optional[tuple] = None) -> ClaimableFuture:
        """The one way out of the gateway, taken once per request.

        Hands back exactly what ``work`` holds — the breaker's probe
        (when this request took it and recorded no outcome), the
        bulkhead slot, the limiter slot (``outcome`` feeds the AIMD
        limiter) — logs ``decision``, answers with ``response`` a
        future nobody ran, and drops the in-flight count.  A freed
        limiter slot then pumps the queue.
        """
        future = work["future"]
        if work["breaker"] is not None:
            work["breaker"].release_probe(work)
        if work["bulkhead"] is not None:
            work["bulkhead"].release()
        if work["limiter"]:
            self.overload.limiter.release()
            if outcome is not None:
                self.overload.note_result(*outcome)
        if decision is not None:
            self._log(work["path"], decision, work["qos"])
        if response is not None and future.set_running_or_notify_cancel():
            future.set_result(response)
        self._request_done()
        if work["limiter"]:
            self.pump()
        return future

    def _start(self, work: Dict[str, Any]) -> ClaimableFuture:
        """Arm an admitted request's future; queue its claim on the pool.

        Arming is what makes the future claimable: a caller waiting on
        a parked request gets to run it only once ``pump`` starts it.
        """
        future = work["future"]
        future.arm(
            lambda: self._run_request(work["method"], work["path"],
                                      work["body"], work["headers"],
                                      work),
            lambda: self._finish(work))
        try:
            self._ensure_pool().submit(future.claim)
        except RuntimeError:
            # Lost the race with pool teardown: unless its caller
            # claimed it, answer a typed shutdown shed.
            if future.take() is not None:
                self._shut_out(work)
        return future

    # -- the overload path: queue pump, expiry, flush ------------------------------

    def _expire_queued(self) -> None:
        """Answer every queue entry whose deadline aged out with 504.

        The 504 is produced here, on the control path — the handler is
        never invoked for an expired entry, which is the whole point:
        under overload, work that already missed its deadline must not
        burn a worker.  Each expiry also feeds the AIMD limiter a
        deadline-miss signal.
        """
        if self.overload is None:
            return
        for entry in self.overload.queue.take_expired():
            self._finish(entry.payload, "expired", self._deadline_exceeded(
                entry.payload, " waiting in the admission queue", None))
            self.overload.limiter.on_failure("deadline")

    def pump(self) -> int:
        """Expire aged entries, then fill free limiter slots from the
        queue (highest QoS class first).  Called automatically after
        every completion; public so fake-clock tests can advance time
        and then flush the consequences deterministically.  Returns
        the number of entries dispatched.
        """
        if self.overload is None:
            return 0
        self._expire_queued()
        dispatched = 0
        while True:
            with self._drain:
                if self._draining:
                    break
            if not self.overload.limiter.try_acquire():
                break
            entry = self.overload.queue.poll()
            if entry is None:
                self.overload.limiter.release()
                break
            entry.payload["limiter"] = True
            self._start(entry.payload)
            dispatched += 1
        self._expire_queued()
        self.overload.observe()
        return dispatched

    def _flush_queue(self) -> None:
        """Shutdown path: answer everything still parked, typed 503."""
        if self.overload is None:
            return
        self._expire_queued()
        while True:
            entry = self.overload.queue.poll()
            if entry is None:
                break
            self._shut_out(entry.payload)
        self._expire_queued()

    def dispatch_all(self, requests: List[Dict[str, Any]]) \
            -> List[Response]:
        """Dispatch a batch concurrently; responses in request order.

        Each request is a dict with ``method`` and ``path`` plus
        optional ``body``/``headers``/``query`` — the same shape
        :meth:`~repro.web.WebApplication.request` takes.  The caller
        waits from the back of the batch, so it claims what the pool
        has not reached yet while the workers take the front.
        """
        futures = [
            self.submit(spec["method"], spec["path"],
                        spec.get("body"), spec.get("headers"),
                        spec.get("query"))
            for spec in requests
        ]
        return [future.result() for future in reversed(futures)][::-1]
