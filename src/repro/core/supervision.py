"""Shard supervision: failure detection, auto-failover, anti-entropy.

PR 8 gave the platform the *mechanisms* of fault tolerance — fencing,
promotion, WAL-shipped replicas — but a human had to call them.  This
module is the layer that notices, decides and heals on its own, built
entirely on the injectable :class:`~repro.core.resilience.Clock` /
:class:`~repro.core.resilience.FaultInjector` substrate so every
behaviour is deterministic under test:

* **Failure detector** — each supervision ``tick`` probes every shard
  primary (:meth:`~repro.core.sharding.Shard.probe`: no write, no
  disk).  A probe that raises, exceeds the ``probe_timeout`` deadline
  on the supervisor's clock, or hits the injected
  ``supervision.probe.<shard>`` fault site counts as one *miss*;
  ``miss_threshold`` consecutive misses — or the shard's breaker
  standing open — makes the shard *suspect*.

* **Failover orchestration** — a suspect shard is failed over through
  the PR 8 sequence (fence → trip → catch up → promote) via the
  injected ``failover`` callable (the platform's, which also re-points
  tenant contexts), and every attempt is recorded as a structured
  :class:`Incident`.  *Flap damping* bounds the blast radius of a
  noisy detector: at least ``min_failover_interval`` between attempts
  per shard and at most ``max_failovers_per_window`` attempts per
  ``failover_window``; a damped attempt raises a typed
  :class:`~repro.errors.SupervisionError` (recorded, never escaped,
  when the detector itself asked).

* **Anti-entropy audit** — every ``audit_every`` ticks each replica is
  polled to the primary's committed prefix and, once both stand at a
  common commit number, their :func:`~repro.core.sharding.content_checksum`
  digests are compared.  A mismatch is *silent divergence* (commit
  numbers agree, content does not): the replica is quarantined —
  visible in :class:`~repro.core.resilience.HealthReport` and excluded
  from routing — and healed on a later pass by checkpointing the
  primary and forcing a snapshot resync, then re-verified before the
  quarantine lifts.  Corrupt/unpollable replicas (replication gap with
  no snapshot) take the same quarantine-and-heal path; partitioned
  replicas (injected ``replica.partition.<replica>``) are recorded and
  retried, never escalated.

MTTR is measured on the supervisor's clock: an incident's
``detected_at`` is the first miss, ``resolved_at`` the promotion — so
a :class:`~repro.core.resilience.FakeClock` chaos run asserts exact
fake-second recovery times.  The supervision contract is DESIGN.md §7;
E18 prices MTTR against the probe interval.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.resilience import Clock, FaultInjector, MonotonicClock
from repro.core.sharding import ReadReplica, Shard, ShardMap, \
    content_checksum
from repro.errors import EngineError, InjectedFault, ShardError, \
    SupervisionError

#: Seconds between supervision cycles (what :meth:`ShardSupervisor.run`
#: sleeps on the injected clock between ticks).
DEFAULT_PROBE_INTERVAL = 1.0

#: A probe slower than this (on the supervisor's clock) is a miss even
#: if it eventually returned — a deadline-miss detector, not an
#: exception counter.
DEFAULT_PROBE_TIMEOUT = 0.5

#: Consecutive misses before a shard is suspect.
DEFAULT_MISS_THRESHOLD = 3

#: Flap damping: minimum seconds between failover attempts per shard.
DEFAULT_MIN_FAILOVER_INTERVAL = 30.0

#: Flap damping: the sliding window and the attempts it admits.
DEFAULT_FAILOVER_WINDOW = 300.0
DEFAULT_MAX_FAILOVERS_PER_WINDOW = 2

#: Anti-entropy: run the audit every N ticks (0 disables).
DEFAULT_AUDIT_EVERY = 5


@dataclass
class Incident:
    """One structured failover record (the supervisor's flight log).

    ``detected_at`` is the clock time of the *first* miss of the
    episode, ``resolved_at`` the completed promotion; their difference
    is the measured MTTR.  ``outcome`` is ``promoted`` (a replica took
    over), ``damped`` (flap damping refused the attempt) or ``failed``
    (the promotion itself raised — e.g. no healthy replica).
    """

    shard: str
    reason: str
    detected_at: float
    outcome: str
    resolved_at: Optional[float] = None
    promoted: Optional[str] = None
    from_generation: Optional[int] = None
    to_generation: Optional[int] = None
    misses: int = 0
    error: Optional[str] = None

    @property
    def mttr(self) -> Optional[float]:
        """Detection-to-promotion time in clock seconds."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.detected_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "reason": self.reason,
            "outcome": self.outcome,
            "detected_at": self.detected_at,
            "resolved_at": self.resolved_at,
            "mttr": self.mttr,
            "promoted": self.promoted,
            "from_generation": self.from_generation,
            "to_generation": self.to_generation,
            "misses": self.misses,
            "error": self.error,
        }


@dataclass
class _ShardWatch:
    """Per-shard detector state (owned by the supervisor)."""

    misses: int = 0
    suspected_at: Optional[float] = None
    attempts: List[float] = field(default_factory=list)
    status: str = "healthy"
    last_error: Optional[str] = None


class ShardSupervisor:
    """Watches a :class:`~repro.core.sharding.ShardMap` and keeps it
    serving through primary failure and replica divergence.

    ``failover`` is the promotion callable — ``shard_id -> promoted``
    — defaulting to the shard map's own; the platform passes its
    :meth:`~repro.core.platform.OdbisPlatform.failover`, which also
    re-points tenant contexts.  ``pump=True`` turns the supervisor
    into the replication pump: routed reads stop polling
    (``shards.route_polling = False``) and every tick ships pending
    frames instead, trading bounded staleness (one probe interval)
    for a read path that never touches the log (on-demand shipping
    touches it only on a read that finds its replica behind).

    Single-threaded by design — ticks are *driven* (by a scheduler,
    a test loop or :meth:`run`), never self-timed — so determinism is
    the default: same seed, same fault schedule, same tick cadence ⇒
    identical incident log, promotion order and health report.
    """

    def __init__(self, shards: ShardMap,
                 clock: Optional[Clock] = None,
                 faults: Optional[FaultInjector] = None,
                 failover: Optional[Callable[[str], Any]] = None,
                 probe_interval: float = DEFAULT_PROBE_INTERVAL,
                 probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
                 miss_threshold: int = DEFAULT_MISS_THRESHOLD,
                 min_failover_interval: float
                 = DEFAULT_MIN_FAILOVER_INTERVAL,
                 failover_window: float = DEFAULT_FAILOVER_WINDOW,
                 max_failovers_per_window: int
                 = DEFAULT_MAX_FAILOVERS_PER_WINDOW,
                 audit_every: int = DEFAULT_AUDIT_EVERY,
                 pump: bool = False):
        if probe_interval <= 0:
            raise SupervisionError("probe_interval must be > 0")
        if miss_threshold < 1:
            raise SupervisionError("miss_threshold must be >= 1")
        if max_failovers_per_window < 1:
            raise SupervisionError(
                "max_failovers_per_window must be >= 1")
        self.shards = shards
        self.clock = clock or MonotonicClock()
        self.faults = faults or FaultInjector()
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.miss_threshold = miss_threshold
        self.min_failover_interval = min_failover_interval
        self.failover_window = failover_window
        self.max_failovers_per_window = max_failovers_per_window
        self.audit_every = audit_every
        self.pump = pump
        self._failover = failover if failover is not None \
            else shards.failover
        self._lock = threading.Lock()
        self.incidents: List[Incident] = []  # guarded-by: _lock
        self.audit_log: List[Dict[str, Any]] = []  # guarded-by: _lock
        self._watches: Dict[str, _ShardWatch] = {}  # guarded-by: _lock
        self._ticks = 0  # guarded-by: _lock
        if pump:
            shards.route_polling = False

    # -- the supervision cycle ----------------------------------------------------

    def tick(self) -> Dict[str, Any]:
        """One supervision cycle over every shard.

        Probes each primary, escalates suspects through damped
        failover, pumps replication when configured, and runs the
        anti-entropy audit on its cadence.  Nothing escapes: every
        failure mode resolves to detector state, an
        :class:`Incident`, or an audit-log entry.
        """
        report: Dict[str, Any] = {"probes": {}, "incidents": [],
                                  "audited": False}
        for shard_id in self.shards.shard_ids():
            shard = self.shards.shard(shard_id)
            watch = self._watch(shard_id)
            if self.pump:
                shard.poll_replicas()
            report["probes"][shard_id] = \
                self._probe(shard_id, shard, watch)
            if self._is_suspect(shard, watch):
                incident = self._respond(shard_id, shard, watch)
                report["incidents"].append(incident.to_dict())
        with self._lock:
            self._ticks += 1
            ticks = self._ticks
        if self.audit_every and ticks % self.audit_every == 0:
            report["audit"] = self.audit()
            report["audited"] = True
        return report

    def run(self, cycles: int) -> List[Dict[str, Any]]:
        """Drive ``cycles`` ticks, sleeping ``probe_interval`` on the
        supervisor's clock between them (a FakeClock advances
        deterministically; wall time actually waits)."""
        reports = []
        for _ in range(cycles):
            reports.append(self.tick())
            self.clock.sleep(self.probe_interval)
        return reports

    def _watch(self, shard_id: str) -> _ShardWatch:
        with self._lock:
            watch = self._watches.get(shard_id)
            if watch is None:
                watch = _ShardWatch()
                self._watches[shard_id] = watch
            return watch

    # -- failure detection --------------------------------------------------------

    def _probe(self, shard_id: str, shard: Shard,
               watch: _ShardWatch) -> Dict[str, Any]:
        started = self.clock.now()
        try:
            self.faults.fire(f"supervision.probe.{shard_id}")
            probed = shard.probe()
        except (InjectedFault, ShardError, EngineError) as exc:
            return self._miss(watch, started, str(exc))
        elapsed = self.clock.now() - started
        if elapsed > self.probe_timeout:
            return self._miss(
                watch, started,
                f"probe took {elapsed:.3f}s against a "
                f"{self.probe_timeout:.3f}s deadline")
        watch.misses = 0
        watch.suspected_at = None
        watch.last_error = None
        if watch.status == "suspect":
            watch.status = "healthy"
        return {"ok": True, "generation": probed["generation"],
                "committed_cn": probed["committed_cn"]}

    def _miss(self, watch: _ShardWatch, at: float,
              error: str) -> Dict[str, Any]:
        watch.misses += 1
        watch.last_error = error
        if watch.suspected_at is None:
            watch.suspected_at = at
        if watch.misses >= self.miss_threshold:
            watch.status = "suspect"
        return {"ok": False, "misses": watch.misses, "error": error}

    def _is_suspect(self, shard: Shard, watch: _ShardWatch) -> bool:
        if watch.misses >= self.miss_threshold:
            return True
        # An open breaker means the resilience layer already declared
        # this primary down — suspect immediately, no miss counting.
        return shard.breaker.state == "open"

    # -- failover orchestration ---------------------------------------------------

    def _respond(self, shard_id: str, shard: Shard,
                 watch: _ShardWatch) -> Incident:
        """Escalate a suspect shard; damping never escapes a tick."""
        now = self.clock.now()
        detected = watch.suspected_at \
            if watch.suspected_at is not None else now
        reason = ("probe-misses"
                  if watch.misses >= self.miss_threshold
                  else "breaker-open")
        try:
            return self._attempt_failover(shard_id, shard, watch,
                                          reason, detected)
        except SupervisionError as exc:
            watch.status = "damped"
            incident = Incident(
                shard=shard_id, reason=reason, detected_at=detected,
                outcome="damped", misses=watch.misses,
                error=str(exc))
            self._record(incident)
            return incident

    def failover(self, shard_id: str,
                 reason: str = "manual") -> Incident:
        """Orchestrate a failover now (flap damping still applies —
        raises :class:`~repro.errors.SupervisionError` when it says
        no, because a *caller* can retry later; the detector path
        records the refusal instead)."""
        shard = self.shards.shard(shard_id)
        watch = self._watch(shard_id)
        detected = watch.suspected_at \
            if watch.suspected_at is not None else self.clock.now()
        return self._attempt_failover(shard_id, shard, watch,
                                      reason, detected)

    def _attempt_failover(self, shard_id: str, shard: Shard,
                          watch: _ShardWatch, reason: str,
                          detected: float) -> Incident:
        now = self.clock.now()
        self._admit(shard_id, watch, now)
        watch.attempts.append(now)
        from_generation = shard.generation
        try:
            promoted = self._failover(shard_id)
        except (ShardError, EngineError) as exc:
            watch.status = "failed"
            watch.last_error = str(exc)
            incident = Incident(
                shard=shard_id, reason=reason, detected_at=detected,
                outcome="failed", misses=watch.misses,
                from_generation=from_generation, error=str(exc))
            self._record(incident)
            return incident
        if isinstance(promoted, dict):
            promoted = promoted.get("promoted")
        incident = Incident(
            shard=shard_id, reason=reason, detected_at=detected,
            outcome="promoted", resolved_at=self.clock.now(),
            promoted=promoted, misses=watch.misses,
            from_generation=from_generation,
            to_generation=shard.generation)
        watch.misses = 0
        watch.suspected_at = None
        watch.status = "healthy"
        watch.last_error = None
        self._record(incident)
        return incident

    def _admit(self, shard_id: str, watch: _ShardWatch,
               now: float) -> None:
        """Flap damping: refuse attempts that come too hot."""
        if watch.attempts:
            since_last = now - watch.attempts[-1]
            if since_last < self.min_failover_interval:
                raise SupervisionError(
                    f"shard {shard_id!r} attempted a failover "
                    f"{since_last:.3f}s ago; damping requires "
                    f"{self.min_failover_interval:.3f}s between "
                    f"attempts",
                    shard=shard_id, reason="flap-damped",
                    retry_after=self.min_failover_interval
                    - since_last)
        recent = [moment for moment in watch.attempts
                  if now - moment <= self.failover_window]
        if len(recent) >= self.max_failovers_per_window:
            raise SupervisionError(
                f"shard {shard_id!r} already attempted "
                f"{len(recent)} failovers inside the "
                f"{self.failover_window:.0f}s window (max "
                f"{self.max_failovers_per_window})",
                shard=shard_id, reason="window-exhausted",
                retry_after=self.failover_window - (now - recent[0]))

    def _record(self, incident: Incident) -> None:
        with self._lock:
            self.incidents.append(incident)

    # -- anti-entropy audit -------------------------------------------------------

    def audit(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """One anti-entropy pass over every replica of every shard.

        Healthy replicas are content-verified against their primary
        at a common commit number; quarantined replicas are healed
        (checkpoint → forced snapshot resync → re-verify).  Returns
        ``{shard: {replica: verdict-entry}}``; every non-``consistent``
        verdict is also appended to :attr:`audit_log`.
        """
        report: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for shard in self.shards.all_shards():
            entries: Dict[str, Dict[str, Any]] = {}
            for replica in list(shard.replicas):
                if replica.quarantined is not None:
                    entries[replica.replica_id] = \
                        self._heal(shard, replica)
                else:
                    entries[replica.replica_id] = \
                        self._audit_replica(shard, replica)
            report[shard.shard_id] = entries
        return report

    def _audit_replica(self, shard: Shard,
                       replica: ReadReplica) -> Dict[str, Any]:
        now = self.clock.now()
        entry = {"shard": shard.shard_id,
                 "replica": replica.replica_id, "at": now}
        try:
            replica.poll()
        except InjectedFault as exc:
            entry.update(verdict="unreachable", error=str(exc))
            return self._log_audit(entry)
        except (ShardError, EngineError) as exc:
            # The replica cannot even apply the log (gap with no
            # snapshot, corrupt frames): quarantine; the heal pass
            # checkpoints the primary, which mints the snapshot the
            # resync needs.
            replica.quarantine(f"corrupt: {exc}", now)
            entry.update(verdict="quarantined",
                         reason="corrupt", error=str(exc))
            return self._log_audit(entry)
        primary_cn = shard.primary.committed_cn
        lag = primary_cn - replica.applied_cn
        if lag != 0:
            # No common commit number to compare at; the next pass
            # (or the next poll) converges first.
            entry.update(verdict="lagging", lag=lag)
            return self._log_audit(entry)
        if content_checksum(replica.database) \
                != content_checksum(shard.primary):
            replica.quarantine(
                f"divergence: content checksum mismatch at "
                f"cn {primary_cn}", now)
            entry.update(verdict="quarantined", reason="divergence",
                         checksum_cn=primary_cn)
            return self._log_audit(entry)
        entry.update(verdict="consistent", checksum_cn=primary_cn)
        return entry

    def _heal(self, shard: Shard,
              replica: ReadReplica) -> Dict[str, Any]:
        """Self-heal a quarantined replica via snapshot resync."""
        now = self.clock.now()
        entry = {"shard": shard.shard_id,
                 "replica": replica.replica_id, "at": now}
        quarantined = dict(replica.quarantined or {})
        try:
            # A fresh checkpoint puts the primary's exact current
            # state on disk; the forced resync discards whatever the
            # replica diverged into.
            shard.primary.checkpoint()
            replica.resync(force=True)
            replica.poll()
        except (InjectedFault, ShardError, EngineError) as exc:
            entry.update(verdict="heal-deferred", error=str(exc),
                         reason=quarantined.get("reason"))
            return self._log_audit(entry)
        if content_checksum(replica.database) \
                != content_checksum(shard.primary):
            entry.update(verdict="heal-failed",
                         reason=quarantined.get("reason"))
            return self._log_audit(entry)
        replica.release_quarantine()
        entry.update(
            verdict="healed", reason=quarantined.get("reason"),
            quarantined_for=now - quarantined.get("since", now))
        return self._log_audit(entry)

    def _log_audit(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self.audit_log.append(entry)
        return entry

    # -- observability ------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The supervisor's posture for ``HealthReport.supervision``."""
        with self._lock:
            watches = {
                shard_id: {
                    "status": watch.status,
                    "misses": watch.misses,
                    "suspected_at": watch.suspected_at,
                    "failover_attempts": len(watch.attempts),
                    "last_error": watch.last_error,
                }
                for shard_id, watch in sorted(self._watches.items())
            }
            incidents = [incident.to_dict()
                         for incident in self.incidents]
            ticks = self._ticks
        quarantined: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards.all_shards():
            for replica in list(shard.replicas):
                if replica.quarantined is not None:
                    quarantined[replica.replica_id] = \
                        dict(replica.quarantined)
        return {
            "ticks": ticks,
            "watches": watches,
            "incidents": incidents,
            "quarantined_replicas": quarantined,
            "config": {
                "probe_interval": self.probe_interval,
                "probe_timeout": self.probe_timeout,
                "miss_threshold": self.miss_threshold,
                "min_failover_interval": self.min_failover_interval,
                "failover_window": self.failover_window,
                "max_failovers_per_window":
                    self.max_failovers_per_window,
                "audit_every": self.audit_every,
                "pump": self.pump,
            },
        }
