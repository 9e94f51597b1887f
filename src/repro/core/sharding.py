"""Tenant sharding: consistent-hash placement + WAL-shipped replicas.

The paper's economics ("one database is used to store all customers'
data") cap out at one engine instance; the ROADMAP's millions-of-users
north star needs horizontal capacity.  This module shards the shared
operational store across N engine instances and gives each shard
WAL-shipped read replicas:

* :class:`HashRing` — consistent hashing with virtual nodes, so adding
  or removing a shard moves only ~1/N of the tenants (bounded
  reshuffle) instead of rehashing the world;
* :class:`ReadReplica` — a follower that tails its primary's
  write-ahead log, applies every *committed* transaction to a local
  MVCC engine via :meth:`~repro.engine.database.Database.apply_committed`,
  and falls back to a snapshot resync when the primary has
  checkpointed past it.  ``replica_lag`` is measured in MVCC commit
  numbers — the same clock the WAL stamps — so "how stale is this
  read" has an exact, testable answer.  A replica the anti-entropy
  auditor caught diverging is *quarantined*: it serves no routed read
  until a forced snapshot resync heals it;
* :class:`Shard` — one primary engine plus its replicas, with failover
  that fences the old primary (closing its log turns a straggler
  commit into a typed :class:`~repro.errors.WalError`), trips its
  circuit breaker, and promotes the most caught-up healthy replica
  onto the log's committed prefix — exactly the prefix crash recovery
  would keep.  Every promotion bumps the shard ``generation`` (its
  *epoch*); routed dispatches carry the epoch they were resolved at
  and are re-checked at execute time, so a straggler racing the
  promotion window gets a typed, retryable
  :class:`~repro.errors.StaleEpochError` instead of an incidental
  log-level failure;
* :class:`ShardMap` — the tenant-facing façade: ``place`` a tenant,
  ``primary_for`` writes, ``route_read`` to a replica when a staleness
  budget allows, ``read_handle``/``write_handle`` +
  ``dispatch_read``/``dispatch_write`` for epoch-fenced serving,
  ``failover`` a shard, ``add_shard``/``remove_shard`` to rescale.

Replication is pull-based and synchronous-on-demand: a replica applies
frames when polled, so tests and benchmarks control exactly how far it
lags.  Shipping costs nothing when there is nothing to ship and O(new
bytes) when there is: a routed read polls only the replicas whose
commit number is behind the primary's, and a poll decodes only what
was appended to the log since the last one.  The map's ``_lock``
guards only membership (ring + shard registry); each shard and each
replica has its own lock, and WAL disk I/O (``poll``) always runs
*outside* any of them — one shard's slow disk can never stall routing
for the rest of the fleet.  The contract for what a replica may serve
is DESIGN.md §6; the supervision layer on top (failure detection,
auto-failover, anti-entropy audit) is §7.
"""

from __future__ import annotations

import bisect
import pickle
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.resilience import CircuitBreaker, Clock, MonotonicClock
from repro.engine.database import Database
from repro.engine.wal import (
    TAIL_START,
    WriteAheadLog,
    committed_prefix,
    committed_since,
)
from repro.errors import InjectedFault, ShardError, StaleEpochError, WalError

#: Virtual nodes per shard on the hash ring.  More vnodes smooth the
#: tenant distribution; 64 keeps the worst shard within ~2x of the
#: mean for realistic tenant counts.
DEFAULT_VNODES = 64

#: Read replicas created per shard.
DEFAULT_REPLICAS = 1

#: Commit numbers a replica may trail the primary by and still serve
#: a routed read.  0 = only a fully caught-up replica.
DEFAULT_STALENESS_BUDGET = 0


def content_checksum(database: Database) -> int:
    """Order-independent digest of a database's committed content.

    Built on :meth:`~repro.engine.database.Database.state_fingerprint`
    (rows, rowid watermarks, indexes, views — not the engine name), so
    a primary and its replica agree exactly when their durable state
    does.  The anti-entropy auditor compares these at a common commit
    number; a mismatch there is silent divergence by definition.
    """
    return zlib.crc32(pickle.dumps(database.state_fingerprint()))


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node owns ``vnodes`` points on a 32-bit ring (CRC32, the same
    hash the WAL frames use); a key belongs to the owner of the first
    point at or after its own hash.  The ring is rebuilt from the full
    node set on every membership change, so point ownership is a pure
    function of the membership — placement never depends on the order
    shards were added or removed in.

    Not thread-safe on its own: :class:`ShardMap` serializes access.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ShardError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: List[str] = []
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}

    @staticmethod
    def _hash(key: str) -> int:
        return zlib.crc32(key.encode("utf-8"))

    def _rebuild(self) -> None:
        self._points = []
        self._owners = {}
        # Sorted iteration + first-wins makes collisions (different
        # nodes hashing onto one point) deterministic.
        for node in sorted(self._nodes):
            for index in range(self.vnodes):
                point = self._hash(f"{node}#{index}")
                if point not in self._owners:
                    self._owners[point] = node
        self._points = sorted(self._owners)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ShardError(f"node {node!r} is already on the ring")
        self._nodes.append(node)
        self._rebuild()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ShardError(f"node {node!r} is not on the ring")
        self._nodes.remove(node)
        self._rebuild()

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def node_for(self, key: str) -> str:
        if not self._points:
            raise ShardError("the hash ring has no nodes")
        index = bisect.bisect_right(self._points, self._hash(key))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[self._points[index]]

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass
class RouteHandle:
    """One resolved dispatch target, pinned to a shard epoch.

    The handle is the *fence token*: ``generation`` is the shard epoch
    the route was resolved at, and every
    :meth:`ShardMap.dispatch_read` / :meth:`ShardMap.dispatch_write`
    re-checks it, so a handle that outlives a promotion fails with a
    typed, retryable :class:`~repro.errors.StaleEpochError` instead of
    executing against a fenced engine.
    """

    shard: str
    generation: int
    database: Database
    served_by: str = "primary"
    replica_lag: int = 0

    @property
    def route(self) -> Dict[str, Any]:
        """The routing record returned alongside a served read."""
        return {
            "shard": self.shard,
            "generation": self.generation,
            "served_by": self.served_by,
            "replica_lag": self.replica_lag,
        }


class ReadReplica:
    """A follower database fed by its primary's write-ahead log.

    ``poll`` *tails* the log: it remembers the byte just past the last
    commit record it consumed (and that record's frame), reads only
    what :func:`~repro.engine.wal.committed_since` finds appended
    after it, and applies every transaction numbered past what the
    replica already holds — a poll costs O(new bytes), not O(log).  A
    position that no longer verifies (checkpoint reset, truncation, a
    replaced file) is a *log restart*: the tail rewinds and reads the
    log in full, and — because a restart means the primary has just
    checkpointed and reclaimed its own dead row versions — the replica
    reclaims its own.  When the primary has checkpointed (snapshot +
    log reset) past the replica's position, the needed transactions
    are gone from the log — the replica reloads the primary's snapshot
    instead (cheap detection via the snapshot file's stat signature)
    and continues tailing from there.  Dangling ops and torn tails are
    invisible by construction: only committed transactions ship, and
    the tail never advances past the last commit record.

    Two :class:`~repro.core.resilience.FaultInjector` sites model the
    infrastructure failures the supervision battery injects, both
    scoped per replica:

    * ``replica.partition.<replica_id>`` — the poll raises
      :class:`~repro.errors.InjectedFault` (the replica is
      unreachable; callers treat it as a failed shipment);
    * ``replica.divergence.<replica_id>`` — the poll *succeeds* but
      silently corrupts one applied row in place, leaving every commit
      number intact.  Only a content checksum (the anti-entropy
      auditor) can see it — exactly the bit-rot shape the quarantine
      machinery exists for.
    """

    def __init__(self, shard_id: str, replica_id: str,
                 wal_path: Union[str, Path],
                 snapshot_path: Union[str, Path],
                 faults=None):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.wal_path = Path(wal_path)
        self.snapshot_path = Path(snapshot_path)
        self._faults = faults
        self._lock = threading.Lock()
        self.database = Database(replica_id)  # guarded-by: _lock
        self.polls = 0  # guarded-by: _lock
        self.resyncs = 0  # guarded-by: _lock
        self.log_restarts = 0  # guarded-by: _lock
        self._tail: Tuple[int, bytes] = TAIL_START  # guarded-by: _lock
        self.quarantined: Optional[Dict[str, Any]] = None  # guarded-by: _lock
        self.closed = False  # guarded-by: _lock
        self._snapshot_signature: Optional[Tuple[int, int]] \
            = None  # guarded-by: _lock

    def __repr__(self) -> str:
        return (f"<ReadReplica {self.replica_id!r} "
                f"applied_cn={self.applied_cn}>")

    @property
    def applied_cn(self) -> int:
        """Highest primary commit number applied locally."""
        return self.database.committed_cn

    def _snapshot_stat(self) -> Optional[Tuple[int, int]]:
        try:
            stat = self.snapshot_path.stat()
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _resync_from_snapshot(self, force: bool = False) -> None:  # requires: _lock
        signature = self._snapshot_stat()
        if signature is None:
            raise ShardError(
                f"replica {self.replica_id!r} has a replication gap "
                f"and {str(self.snapshot_path)!r} does not exist to "
                f"resync from")
        loaded = Database.load(self.snapshot_path)
        loaded.name = self.replica_id
        # A checkpoint can land while the replica is already current;
        # only swap engines when the snapshot is genuinely ahead —
        # unless the caller *forces* the swap (quarantine healing must
        # discard diverged state even at an equal commit number).
        if force or loaded.committed_cn > self.applied_cn:
            retired = self.database
            self.database = loaded
            self.resyncs += 1
            # A forced swap may land *behind* the tail; the next poll
            # must see the whole log again.
            self._tail = TAIL_START
            retired.close()
        self._snapshot_signature = signature

    def resync(self, force: bool = False) -> None:  # blocking: loads the primary's snapshot from disk
        """Reload from the primary's snapshot (``force`` discards the
        local engine even when commit numbers say it is current)."""
        with self._lock:
            self._resync_from_snapshot(force=force)

    def poll(self) -> int:  # blocking: tails the primary's on-disk WAL
        """Ship newly committed primary transactions; returns count."""
        with self._lock:
            return self._poll_locked()

    def _poll_locked(self) -> int:  # requires: _lock
        self.polls += 1
        if self._faults is not None:
            self._faults.fire(f"replica.partition.{self.replica_id}")
        transactions, offset, anchor, restarted = committed_since(
            self.wal_path, *self._tail)
        fresh = [(number, ops) for number, ops in transactions
                 if number > self.applied_cn]
        gap = fresh and fresh[0][0] != self.applied_cn + 1
        behind_snapshot = False
        if not fresh:
            # Stat once: two stats here is a TOCTOU — a checkpoint
            # landing between them makes the comparison incoherent.
            signature = self._snapshot_stat()
            behind_snapshot = (signature is not None
                               and signature != self._snapshot_signature)
        if gap or behind_snapshot:
            self._resync_from_snapshot()
            fresh = [(number, ops) for number, ops in transactions
                     if number > self.applied_cn]
        applied = self.database.apply_committed(fresh)
        self._tail = (offset, anchor)
        if restarted:
            # The primary checkpointed since the last poll.  A replica
            # is never checkpointed; applying settles it as committing
            # settles its primary (Database._publish_commit).
            self.log_restarts += 1
        if self._faults is not None:
            try:
                self._faults.fire(
                    f"replica.divergence.{self.replica_id}")
            except InjectedFault:
                self._corrupt_silently()
        return applied

    def _corrupt_silently(self) -> None:  # requires: _lock
        """Flip one applied row in place without touching any commit
        number — the silent-divergence shape only a content checksum
        (the anti-entropy audit) can detect."""
        for name in sorted(self.database.table_names()):
            storage = self.database.storage(name)
            for rowid in sorted(storage.rows):
                row = storage.rows[rowid]
                if row:
                    row[-1] = "\x00bitrot"
                    return

    def shipping_counters(self) -> Dict[str, int]:
        """How often this replica polled, resynced from a snapshot and
        saw its primary's log restart."""
        with self._lock:
            return {"polls": self.polls, "resyncs": self.resyncs,
                    "log_restarts": self.log_restarts}

    def quarantine(self, reason: str, at: float) -> None:
        """Pull the replica out of routing until it is healed."""
        with self._lock:
            if self.quarantined is None:
                self.quarantined = {"reason": reason, "since": at}

    def release_quarantine(self) -> None:
        with self._lock:
            self.quarantined = None

    def close(self) -> None:
        """Release the follower engine (idempotent)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            database = self.database
        database.close()


class Shard:
    """One engine instance of the shard map: primary + replicas.

    The primary is built with
    :meth:`~repro.engine.database.Database.recover`, so constructing a
    shard over an existing directory IS crash recovery.  Every replica
    tails the primary's log file directly — there is no second copy of
    the log to diverge from the one the primary fsyncs.

    ``generation`` is the shard's *epoch*: it advances exactly once
    per promotion, never backwards.  Routing resolves handles at an
    epoch; :meth:`check_epoch` is the fence every dispatch runs
    through.  ``_lock`` (reentrant) guards the mutable identity of the
    shard — who is primary, which replicas exist, what epoch we are
    in — and is never held across disk I/O: polls, log truncation and
    WAL reopening all happen between lock sections, with the
    ``_promoting`` flag fencing routing for the duration.
    """

    def __init__(self, shard_id: str, directory: Union[str, Path],
                 replicas: int = DEFAULT_REPLICAS,
                 fsync: str = "always",
                 clock: Optional[Clock] = None,
                 faults=None):
        self.shard_id = shard_id
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._clock = clock or MonotonicClock()
        self._faults = faults
        self._lock = threading.RLock()
        self.generation = 0  # guarded-by: _lock
        self.primary = Database.recover(
            self.directory, shard_id, fsync=fsync,
            faults=faults)  # guarded-by: _lock
        self.breaker = self._new_breaker()  # guarded-by: _lock
        self.fenced_breaker: Optional[CircuitBreaker] \
            = None  # guarded-by: _lock
        self.replicas: List[ReadReplica] = [
            ReadReplica(shard_id, f"{shard_id}-replica-{index}",
                        self.wal_path, self.snapshot_path,
                        faults=faults)
            for index in range(replicas)
        ]  # guarded-by: _lock
        self._retired: List[Database] = []  # guarded-by: _lock
        self._promoting = False  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def __repr__(self) -> str:
        return (f"<Shard {self.shard_id!r} gen={self.generation} "
                f"replicas={len(self.replicas)}>")

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=1, clock=self._clock,
            name=f"shard:{self.shard_id}:gen{self.generation}")

    @property
    def wal_path(self) -> Path:
        return self.directory / f"{self.shard_id}.wal"

    @property
    def snapshot_path(self) -> Path:
        return self.directory / f"{self.shard_id}.snapshot"

    # -- epoch fencing ------------------------------------------------------------

    def check_epoch(self, generation: int) -> None:
        """The dispatch-time fence: raise when ``generation`` is no
        longer the shard's current epoch (or a promotion is mid-
        flight, in which case *no* epoch is safe to execute under)."""
        with self._lock:
            current = self.generation
            promoting = self._promoting
        if promoting:
            raise StaleEpochError(self.shard_id, generation, current,
                                  "a promotion is in flight")
        if generation != current:
            raise StaleEpochError(self.shard_id, generation, current,
                                  "the primary changed")

    def write_handle(self) -> RouteHandle:
        """The epoch-pinned write target (always the primary)."""
        with self._lock:
            if self._promoting:
                raise StaleEpochError(
                    self.shard_id, self.generation, self.generation,
                    "a promotion is in flight")
            return RouteHandle(self.shard_id, self.generation,
                               self.primary)

    def read_handle(self, staleness_budget: int,
                    ship: bool = False) -> RouteHandle:  # blocking: ships WAL frames to replicas that are behind (disk reads)
        """The epoch-pinned read target: freshest healthy replica
        within budget, else the primary (never a wrong-er answer,
        just no offload).

        With ``ship`` every replica whose applied commit number is
        below the primary's published one is polled first.  Equal
        numbers mean every acknowledged commit is already applied —
        the poll would find nothing — so a read with nothing to fetch
        touches no file.  Lag is measured against the number compared.
        """
        with self._lock:
            if self._promoting:
                raise StaleEpochError(
                    self.shard_id, self.generation, self.generation,
                    "a promotion is in flight")
            generation = self.generation
            primary = self.primary
            replicas = list(self.replicas)
        primary_cn = primary.committed_cn
        best: Optional[Tuple[int, ReadReplica]] = None
        for replica in replicas:
            if ship and replica.applied_cn < primary_cn:
                self._safe_poll(replica)
            if replica.quarantined is not None:
                continue
            lag = max(0, primary_cn - replica.applied_cn)
            if lag <= staleness_budget and \
                    (best is None or lag < best[0]):
                best = (lag, replica)
        if best is not None:
            return RouteHandle(self.shard_id, generation,
                               best[1].database, best[1].replica_id,
                               best[0])
        return RouteHandle(self.shard_id, generation, primary)

    # -- liveness and replication -------------------------------------------------

    def probe(self) -> Dict[str, Any]:
        """A cheap liveness probe of the primary (no write, no disk).

        Raises :class:`~repro.errors.ShardError` when the primary
        cannot accept commits — fenced (attached-but-closed log),
        detached, or mid-promotion.  The supervisor counts a raise or
        a deadline miss as one detector miss.
        """
        with self._lock:
            primary = self.primary
            promoting = self._promoting
            generation = self.generation
        if promoting:
            raise ShardError(
                f"shard {self.shard_id!r} is mid-promotion")
        wal = primary.wal
        if wal is None or wal.closed:
            raise ShardError(
                f"shard {self.shard_id!r} primary {primary.name!r} "
                f"has no live write-ahead log")
        return {"generation": generation,
                "committed_cn": primary.committed_cn}

    def poll_replicas(self) -> Dict[str, int]:  # blocking: ships WAL frames to replicas (disk reads)
        """Ship pending commits to every replica; returns lag map.

        Partitioned replicas (injected faults) are skipped, not
        escalated — an unreachable follower just stays behind."""
        with self._lock:
            replicas = list(self.replicas)
        for replica in replicas:
            self._safe_poll(replica)
        return self.replica_lag()

    @staticmethod
    def _safe_poll(replica: ReadReplica) -> bool:
        try:
            replica.poll()
            return True
        except InjectedFault:
            return False

    def replica_lag(self) -> Dict[str, int]:
        """Commit numbers each replica trails the primary by."""
        with self._lock:
            primary_cn = self.primary.committed_cn
            replicas = list(self.replicas)
        return {replica.replica_id:
                max(0, primary_cn - replica.applied_cn)
                for replica in replicas}

    # -- failover -----------------------------------------------------------------

    def failover(self) -> str:
        """Fence the primary and promote the most caught-up replica.

        The sequence is the correctness argument:

        1. *Fence*: close the old primary's log.  A straggler writer
           still holding the old primary gets a typed ``WalError``
           instead of a commit the promoted side would never see —
           and a straggler holding a routed handle gets the friendlier
           :class:`~repro.errors.StaleEpochError` from the dispatch
           fence, because ``_promoting`` is up for the whole window
           and the generation moves at the end of it.
        2. *Trip*: the shard's breaker opens (threshold 1), so the
           resilience layer reports the old primary as down.
        3. *Catch up*: every healthy replica polls the fenced log one
           last time — the committed prefix is complete and final now.
        4. *Promote*: the replica with the highest applied commit
           number takes over.  The log is truncated to its committed
           prefix (dropping dangling ops and any torn tail, exactly
           as crash recovery would) and reopened as the promoted
           engine's live WAL, numbering onward from the commit number
           the replica actually holds.  The generation advances and a
           fresh breaker represents the new primary; the fenced
           engine is retired (released at :meth:`close`).

        Returns the promoted replica's id.
        """
        with self._lock:
            if self._promoting:
                raise ShardError(
                    f"shard {self.shard_id!r} already has a "
                    f"promotion in flight")
            if not self.replicas:
                raise ShardError(
                    f"shard {self.shard_id!r} has no replica to "
                    f"promote")
            candidates = [replica for replica in self.replicas
                          if replica.quarantined is None]
            if not candidates:
                raise ShardError(
                    f"shard {self.shard_id!r} has no healthy replica "
                    f"to promote (all quarantined)")
            self._promoting = True
            old_primary = self.primary
        try:
            # Close the log but leave it *attached*: detaching (what
            # Database.close does) would let a straggler commit
            # succeed silently in memory — attached-but-closed makes
            # it raise.
            if old_primary.wal is not None:
                old_primary.wal.close()
            self.breaker.record_failure()
            for replica in candidates:
                self._safe_poll(replica)
            promoted = max(candidates,
                           key=lambda replica: replica.applied_cn)
            _, committed_length, _, _ = committed_prefix(self.wal_path)
            if self.wal_path.exists() and \
                    self.wal_path.stat().st_size > committed_length:
                with open(self.wal_path, "r+b") as handle:
                    handle.truncate(committed_length)
            wal = WriteAheadLog(self.wal_path, fsync=self.fsync,
                                faults=self._faults)
            wal.last_number = max(wal.last_number,
                                  promoted.database.committed_cn)
            promoted.database.attach_wal(wal, self.snapshot_path)
            with self._lock:
                self.fenced_breaker = self.breaker
                self.replicas.remove(promoted)
                self._retired.append(old_primary)
                self.primary = promoted.database
                self.generation += 1
                self.breaker = self._new_breaker()
            return promoted.replica_id
        finally:
            with self._lock:
                self._promoting = False

    # -- observability and shutdown -----------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._lock:
            primary = self.primary
            generation = self.generation
            breaker = self.breaker.state
            fenced = (None if self.fenced_breaker is None
                      else self.fenced_breaker.state)
            replicas = list(self.replicas)
            promoting = self._promoting
        return {
            "primary": primary.name,
            "generation": generation,
            "promoting": promoting,
            "breaker": breaker,
            "fenced_breaker": fenced,
            "committed_cn": primary.committed_cn,
            "replica_lag": {replica.replica_id:
                            max(0, primary.committed_cn
                                - replica.applied_cn)
                            for replica in replicas},
            "replica_shipping": {replica.replica_id:
                                 replica.shipping_counters()
                                 for replica in replicas},
            "quarantined_replicas": {
                replica.replica_id: dict(replica.quarantined)
                for replica in replicas
                if replica.quarantined is not None},
        }

    def close(self) -> None:
        """Release the primary, every replica engine and every fenced
        ex-primary (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            primary = self.primary
            replicas = list(self.replicas)
            retired = list(self._retired)
        for replica in replicas:
            replica.close()
        for database in retired:
            database.close()
        primary.close()


class ShardMap:
    """Consistent-hash placement of tenants across engine shards.

    The map's lock guards *membership only* (the ring and the shard
    registry); per-shard state has per-shard locks, and replica disk
    I/O always runs outside both — a routed read on one shard never
    waits behind another shard's WAL scan.  A read routed mid-
    promotion does not observe a half-promoted shard either: the
    shard's ``_promoting`` fence turns it into a typed, retryable
    :class:`~repro.errors.StaleEpochError`.

    ``route_polling`` is the shipment policy for routed reads: True
    (default) ships on demand — every ``route_read`` /
    ``read_handle`` compares commit numbers and polls exactly the
    replicas that are behind the primary's published one, so a read
    after an acknowledged write sees it and a read with nothing to
    fetch opens no file; the supervision layer's background pump sets
    it False and ships frames once per supervision tick instead,
    taking the WAL read off the read path entirely.  Only the route
    skips on equal numbers: :meth:`poll`, :meth:`Shard.poll_replicas`,
    the supervisor's pump and audit, and failover's catch-up poll
    unconditionally, because a commit that is durable but whose number
    was never published (a crash between fsync and publish) is
    invisible to the comparison and must still reach the replicas.
    """

    def __init__(self, directory: Union[str, Path],
                 shards: int = 1,
                 replicas: int = DEFAULT_REPLICAS,
                 vnodes: int = DEFAULT_VNODES,
                 fsync: str = "always",
                 clock: Optional[Clock] = None,
                 faults=None,
                 staleness_budget: int = DEFAULT_STALENESS_BUDGET):
        if shards < 1:
            raise ShardError("a shard map needs at least one shard")
        if staleness_budget < 0:
            raise ShardError("staleness_budget must be >= 0")
        self.directory = Path(directory)
        self.replicas_per_shard = replicas
        self.fsync = fsync
        self.staleness_budget = staleness_budget
        self.route_polling = True
        self._clock = clock or MonotonicClock()
        self._faults = faults
        self._ring = HashRing(vnodes)  # guarded-by: _lock
        self._shards: Dict[str, Shard] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        for index in range(shards):
            self.add_shard(f"shard-{index}")

    # -- membership -------------------------------------------------------------

    def add_shard(self, shard_id: str) -> Shard:
        """Bring up a new shard (recovering its directory if present)
        and claim its ring points.  Only ~1/N of tenants move to it."""
        with self._lock:
            if shard_id in self._shards:
                raise ShardError(
                    f"shard {shard_id!r} already exists")
            shard = Shard(shard_id, self.directory / shard_id,
                          replicas=self.replicas_per_shard,
                          fsync=self.fsync, clock=self._clock,
                          faults=self._faults)
            self._shards[shard_id] = shard
            self._ring.add_node(shard_id)
            return shard

    def remove_shard(self, shard_id: str) -> List[str]:
        """Retire a shard; its tenants re-place onto the survivors.

        Returns the surviving shard ids.  Data migration is the
        caller's concern — the shard's directory stays on disk, so
        re-adding the same id recovers it.
        """
        with self._lock:
            shard = self._shards.pop(shard_id, None)
            if shard is None:
                raise ShardError(f"unknown shard {shard_id!r}")
            self._ring.remove_node(shard_id)
            survivors = sorted(self._shards)
        shard.close()  # engine shutdown fsyncs — not under the map lock
        return survivors

    def shard_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    def all_shards(self) -> List[Shard]:
        with self._lock:
            return [self._shards[shard_id]
                    for shard_id in sorted(self._shards)]

    def shard(self, shard_id: str) -> Shard:
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                raise ShardError(f"unknown shard {shard_id!r}")
            return shard

    # -- placement and routing --------------------------------------------------

    def place(self, tenant_id: str) -> str:
        """The shard id the tenant's operational data lives on."""
        with self._lock:
            return self._ring.node_for(tenant_id)

    def shard_for(self, tenant_id: str) -> Shard:
        with self._lock:
            return self._shards[self._ring.node_for(tenant_id)]

    def primary_for(self, tenant_id: str) -> Database:
        """The write target for a tenant (its shard's primary)."""
        return self.shard_for(tenant_id).primary

    def write_handle(self, tenant_id: str) -> RouteHandle:
        """Resolve the epoch-pinned write target for a tenant."""
        return self.shard_for(tenant_id).write_handle()

    def read_handle(self, tenant_id: str,
                    max_staleness: Optional[int] = None,
                    poll: Optional[bool] = None) -> RouteHandle:
        """Resolve the epoch-pinned read target for a tenant.

        ``poll`` overrides :attr:`route_polling` for this call; the
        shipment (WAL disk I/O, and only to replicas that are behind)
        runs outside every lock.
        """
        budget = (self.staleness_budget if max_staleness is None
                  else max_staleness)
        if budget < 0:
            raise ShardError("max_staleness must be >= 0")
        ship = self.route_polling if poll is None else poll
        return self.shard_for(tenant_id).read_handle(budget, ship=ship)

    def route_read(self, tenant_id: str,
                   max_staleness: Optional[int] = None,
                   poll: Optional[bool] = None) \
            -> Tuple[Database, Dict[str, Any]]:
        """Pick the engine a read-only statement should run on.

        Ships pending commits to the replicas of the tenant's shard
        that are behind (unless background pumping is on), then serves
        from the freshest healthy replica whose lag fits the budget;
        when none qualifies the primary serves.  Returns the database
        and a routing record: shard id, generation, who served, and
        the lag in commit numbers the caller accepted.
        """
        handle = self.read_handle(tenant_id, max_staleness, poll=poll)
        return handle.database, handle.route

    # -- epoch-fenced dispatch ----------------------------------------------------

    def dispatch_read(self, handle: RouteHandle, sql: str,
                      params: Tuple[Any, ...] = ()) -> Any:
        """Run a read on a resolved handle, re-checking its epoch."""
        shard = self.shard(handle.shard)
        shard.check_epoch(handle.generation)
        return handle.database.query(sql, params)

    def dispatch_read_hedged(self, handle: RouteHandle,
                             backup: RouteHandle, sql: str,
                             params: Tuple[Any, ...] = (),
                             hedge_after: float = 0.05,
                             budget: Any = None) \
            -> Tuple[Any, Dict[str, Any]]:
        """A replica read with a tail-latency hedge to the primary.

        Runs the read on ``handle`` (normally a replica); if it has
        not answered within ``hedge_after`` seconds — the caller
        passes its observed p95 — a backup read fires on ``backup``
        (normally the primary's epoch-pinned handle) and the first
        completion wins, with the loser cancelled where possible.
        The hedge spends a token from ``budget`` (a duck-typed
        :class:`~repro.core.overload.RetryBudget`) before launching,
        so speculative reads stay inside the tenant's retry budget
        and can never become their own storm.

        Both attempts are epoch-fenced exactly like
        :meth:`dispatch_read`.  Returns ``(rows, route)`` where the
        route records who actually served (``hedged`` / ``winner``
        fields added).
        """
        from repro.core.overload import hedged_call

        def read_primary_handle() -> Any:
            return self.dispatch_read(handle, sql, params)

        def read_backup_handle() -> Any:
            return self.dispatch_read(backup, sql, params)

        rows, info = hedged_call(read_primary_handle,
                                 read_backup_handle,
                                 hedge_after=hedge_after,
                                 budget=budget)
        winner = handle if info["winner"] == "primary" else backup
        route = dict(winner.route)
        route["hedged"] = info["hedged"]
        route["winner"] = info["winner"]
        return rows, route

    def dispatch_write(self, handle: RouteHandle, sql: str,
                       params: Tuple[Any, ...] = ()) -> Any:
        """Run a write on a resolved handle, re-checking its epoch.

        A write that loses the race anyway — the fence closed the log
        between the epoch check and the commit — comes back as the
        same typed :class:`~repro.errors.StaleEpochError`, not a
        log-level ``WalError``: the epoch is re-checked on failure so
        the straggler learns *why* its commit could not land.
        """
        shard = self.shard(handle.shard)
        shard.check_epoch(handle.generation)
        try:
            return handle.database.execute(sql, params)
        except WalError as exc:
            try:
                shard.check_epoch(handle.generation)
            except StaleEpochError as stale:
                raise stale from exc
            raise

    # -- failover and observability ---------------------------------------------

    def failover(self, shard_id: str) -> str:
        """Fence the shard's primary and promote a replica.

        Returns the promoted replica's id; the caller re-points
        whatever held the old primary (the platform re-points tenant
        contexts).
        """
        return self.shard(shard_id).failover()

    def poll(self) -> Dict[str, Dict[str, int]]:
        """Ship pending commits everywhere; lag map per shard."""
        return {shard.shard_id: shard.poll_replicas()
                for shard in self.all_shards()}

    def health(self) -> Dict[str, Dict[str, Any]]:
        return {shard.shard_id: shard.health()
                for shard in self.all_shards()}

    def close(self) -> None:
        for shard in self.all_shards():
            shard.close()
