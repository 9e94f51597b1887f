"""The :class:`Database` facade: the public entry point of the engine.

A Database owns the catalog, the per-table storages and the statement
cache, and exposes ``execute``/``query`` plus explicit transactions.
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.executor import Executor, ResultSet
from repro.engine.locking import WriterLock
from repro.engine.parser import (
    READ_ONLY_STATEMENTS,
    CompoundSelect,
    ExplainStatement,
    SelectStatement,
    TransactionStatement,
    parse_sql,
)
from repro.engine.planner import RESULT_CACHE_MAX_ROWS
from repro.engine.schema import Catalog, TableSchema
from repro.engine.storage import TableStorage
from repro.engine.wal import (
    WriteAheadLog,
    _fsync_directory,
    committed_prefix,
)
from repro.errors import (
    CatalogError,
    EngineError,
    SnapshotError,
    TransactionError,
    WalError,
)


#: Parsed statements (and their compiled plans) kept per database; the
#: least recently used pair is evicted beyond this.
STATEMENT_CACHE_CAPACITY = 512

# Redo op shapes, the one write-log vocabulary: logged to the WAL,
# replayed by Database._apply_redo, undone by Database._unwind.
#   ("insert", table, rowid, row)
#   ("delete", table, rowid)
#   ("update", table, rowid, new_row)
#   ("create_table", schema)               -> a copy of the TableSchema
#   ("drop_table", table)
#   ("create_index", table, name, columns, unique)
#   ("add_column", table, column)
#   ("create_view", name, select)          -> the parsed SELECT
#   ("drop_view", name)

#: Redo records that name the table whose rows they change.
_ROW_EFFECTS = frozenset(("insert", "delete", "update"))


def _params_key(params: Sequence[Any]) -> Optional[tuple]:
    """A type-sensitive identity of one parameter tuple.

    ``1``, ``1.0`` and ``True`` compare (and hash) equal in Python but
    are different SQL values, so each parameter is keyed with its
    class; floats key on their ``repr`` because ``0.0 == -0.0``.
    ``None`` when a parameter is unhashable: such a call is never
    looked up or remembered.
    """
    key = tuple([(value.__class__,
                  repr(value) if value.__class__ is float else value)
                 for value in params])
    try:
        hash(key)
    except TypeError:
        return None
    return key


class Snapshot:
    """An immutable read view pinned at one WAL commit number.

    Opened by :meth:`Database.open_snapshot` (or implicitly per
    read-only statement), a snapshot sees exactly the row versions
    whose ``(created_cn, deleted_cn)`` lifetime covers its commit
    number — no lock is held while it is read, so writers appending
    new versions under the exclusive lock never block it and it never
    observes them.  Closing the snapshot (it is a context manager)
    unpins it, letting the version garbage collector reclaim the
    superseded versions it was holding alive.
    """

    def __init__(self, database: "Database", handle: int, cn: int):
        self._db = database
        self._handle = handle
        #: The commit number this snapshot is pinned at.
        self.cn = cn
        self._closed = False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Snapshot cn={self.cn} {state}>"

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._db._release_snapshot(self._handle)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


@dataclass(eq=False)
class Reading:
    """What the reads of one :meth:`Database.reading` block saw: one
    snapshot, the plan generation and each scanned table's two stamps.
    ``keep`` is False once a read broke the result cache's rule."""

    _db: "Database"
    snapshot: Snapshot
    generation: int
    keep: bool
    stamps: List[Tuple[Any, int, int]] = field(default_factory=list)

    def current(self) -> bool:
        return self.keep and self._db._plan_generation == self.generation \
            and all(storage._last_version_cn == stamp
                    and storage._rewritten_cn == rewritten
                    for storage, stamp, rewritten in self.stamps)


class _Pinned(threading.local):
    reading: Optional[Reading] = None


class Database:
    """An embedded SQL database.

    Safe for concurrent use from many threads, with MVCC snapshot
    isolation on the read side: committed transactions stamp their row
    effects with the WAL's monotone commit number, and a read-only
    statement (SELECT/EXPLAIN, including ``EXPLAIN <dml>``) runs
    lock-free against a :class:`Snapshot` pinned at the current
    committed number — readers never block on writers.  Anything that
    may mutate takes the per-database writer lock; an explicit
    transaction holds it from BEGIN to COMMIT/ROLLBACK, and statements
    *inside* a transaction read the live uncommitted state under that
    hold.  Statements are parsed once and cached by SQL text.

    ``sanitize`` opts this database into the runtime concurrency
    sanitizer (``repro.analysis.concurrency``): the lock is swapped
    for a recording variant and storage access is checked against it.
    ``None`` (the default) defers to the ``REPRO_SANITIZE``
    environment variable, so whole test batteries can run sanitized
    without touching call sites.
    """

    def __init__(self, name: str = "main", sanitize: Optional[bool] = None):
        self.name = name
        self.catalog = Catalog()
        self._storages: Dict[str, TableStorage] = {}  # guarded-by: _lock
        self.views: Dict[str, Any] = {}  # name -> SelectStatement
        self._executor = Executor(self)
        # Parsed statements by SQL text, least recently used first.
        self._statement_cache: "OrderedDict[str, Any]" = OrderedDict()  # guarded-by: _state_lock
        # Compiled plans keyed by statement identity; each entry keeps a
        # strong reference to its statement so ids cannot be recycled.
        # Same LRU order and capacity as the statement cache, and an
        # evicted statement takes its plan (and the results remembered
        # on it) along.
        self._plan_cache: "OrderedDict[int, Any]" = OrderedDict()  # guarded-by: _state_lock
        # Small tables hashed by one column for the snapshot reads whose
        # joins probe them (``join_hash``): (table, column) -> (storage,
        # its two stamps when built, {key: rows}).  Dropped with the
        # plans.
        self._join_hashes: Dict[Tuple[str, str], Any] = {}  # guarded-by: engine-state
        self.statistics = {  # guarded-by: _state_lock
            "statements": 0, "rows_returned": 0,
            "result_cache_hits": 0, "result_cache_misses": 0,
            "result_cache_folds": 0}
        if sanitize is None:
            sanitize = os.environ.get(
                "REPRO_SANITIZE", "").strip().lower() in (
                    "1", "true", "yes", "on")
        # The writer lock plus a short mutex over the statement/plan
        # caches and the statistics counters.
        if sanitize:
            from repro.analysis.concurrency.sanitizer import (
                SanitizedWriterLock,
                StorageMonitor,
                default_sanitizer,
            )
            self._sanitizer = default_sanitizer()
            self._lock = SanitizedWriterLock(
                f"db:{name}", self._sanitizer)
            self._storage_monitor = StorageMonitor(
                self, self._sanitizer)
        else:
            self._sanitizer = None
            self._lock = WriterLock()
            self._storage_monitor = None
        self._state_lock = threading.Lock()
        self._plan_generation = 0  # guarded-by: _state_lock
        # MVCC: the highest *published* commit number.  Writers stamp
        # their effects with committed + 1 (they are serialized by the
        # exclusive lock, so the number is known before commit) and
        # publish under _state_lock, atomically with the snapshot
        # registry below — so a snapshot can never open in the gap
        # between a commit and the GC horizon moving past it.
        self._committed_cn = 0  # guarded-by: _state_lock
        self._open_snapshots: Dict[int, int] = {}  # guarded-by: _state_lock
        self._snapshot_counter = 0  # guarded-by: _state_lock
        self._pinned = _Pinned()
        # Durability: the WriteAheadLog this database took over
        # (take_over_log, run by recover and by a shard's failover)
        # receives one commit record per transaction.  The one
        # write log is _pending, the redo ops of the open transaction
        # (or of the one statement running outside any): COMMIT, or
        # the statement's end, hands it to the WAL, and a failed scope
        # unwinds it newest first to its mark (_unwind_to).  Beside
        # it, by op position, sits what a DROP detached.
        # _suppress_redo silences recording while recovery replays the
        # log into this database.
        self._wal: Optional[WriteAheadLog] = None
        self._snapshot_path: Optional[Path] = None
        self._pending: List[Any] = []  # guarded-by: _lock
        self._detached: Dict[int, Any] = {}  # guarded-by: _lock
        self._in_transaction = False  # guarded-by: _lock
        # transaction() scopes open on the lock-holding thread: while
        # one is, COMMIT and ROLLBACK would end the transaction under
        # it, so they raise.
        self._scopes = 0  # guarded-by: _lock
        self._suppress_redo = False
        self._checkpoints = 0
        self.recovery_info: Optional[Dict[str, Any]] = None

    def __repr__(self) -> str:
        return f"<Database {self.name!r} tables={self.catalog.table_names()}>"

    # -- storage management ------------------------------------------------------

    def create_storage(self, schema: TableSchema) -> TableStorage:  # requires: _lock
        if schema.name.lower() in self.views:
            raise CatalogError(
                f"a view named {schema.name!r} already exists")
        self.catalog.add_table(schema)
        storage = TableStorage(schema)
        storage.attach_clock(self._stamp_cn)
        if self._storage_monitor is not None:
            storage.attach_monitor(self._storage_monitor)
        self._storages[schema.name.lower()] = storage
        # Deep-copy the schema into the redo record: a later ALTER in
        # the same transaction mutates the live schema in place, and
        # replay must see the table as it was at CREATE time.
        self.record_redo(("create_table", copy.deepcopy(schema)))
        self.invalidate_plans()
        return storage

    def drop_storage(self, name: str, record: bool = True) -> None:  # requires: _lock
        self.catalog.drop_table(name)
        storage = self._storages.pop(name.lower())
        if record:
            self.detach(storage)
            self.record_redo(("drop_table", name))
        self.invalidate_plans()

    def attach_storage(self, storage: TableStorage) -> None:  # requires: _lock
        """Re-attach a dropped storage (the rollback of its DROP)."""
        self.catalog.add_table(storage.schema)
        storage.attach_clock(self._stamp_cn)
        if self._storage_monitor is not None:
            storage.attach_monitor(self._storage_monitor)
        self._storages[storage.schema.name.lower()] = storage
        self.invalidate_plans()

    def storage(self, name: str) -> TableStorage:
        storage = self._storages.get(name.lower())
        if storage is None:
            raise CatalogError(f"no such table: {name!r}")
        return storage

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def view_names(self) -> List[str]:
        return sorted(self.views)

    def row_count(self, table: str) -> int:
        return len(self.storage(table))

    # -- MVCC snapshots -----------------------------------------------------------

    def _stamp_cn(self) -> int:
        """The commit number the in-flight writer's effects commit as.

        Writers are serialized by the exclusive lock, so the next
        commit number is known before the commit happens; every effect
        of the current statement/transaction is stamped with it.
        """
        return self._committed_cn + 1

    def _publish_commit(self, ops: Sequence[Any]) -> None:  # requires: _lock
        """Make one committed transaction's effects (its redo ``ops``)
        visible to new snapshots, then settle the tables it wrote.

        The one post-publish hook: commit, autocommit, recovery replay
        and ``apply_committed`` all come through here.  The writer still
        holds the lock, so it collects each written table whose row
        effects since its last collection passed the settle threshold
        (``storage.SETTLE_FRACTION`` of its rows plus ``SETTLE_FLOOR``).
        """
        with self._state_lock:
            self._committed_cn += 1
        horizon = None
        for name in {op[1] for op in ops if op[0] in _ROW_EFFECTS}:
            storage = self._storages.get(name.lower())
            if storage is not None and storage.wants_collection():
                if horizon is None:
                    horizon = self._reclaim_horizon()
                storage.collect(horizon)

    @property
    def committed_cn(self) -> int:
        """The highest published commit number (new snapshots pin it)."""
        return self._committed_cn

    def open_snapshot(self) -> Snapshot:
        """Pin a read view at the current committed commit number.

        Lock-free with respect to writers; registration happens under
        the same mutex that publishes commits, so the garbage
        collector's horizon can never pass a snapshot mid-open.
        """
        with self._state_lock:
            self._snapshot_counter += 1
            handle = self._snapshot_counter
            cn = self._committed_cn
            self._open_snapshots[handle] = cn
        return Snapshot(self, handle, cn)

    @contextmanager
    def reading(self) -> Iterator[Reading]:
        """Pin one snapshot for the calling thread's reads in the block
        (a nested block shares it); yield the :class:`Reading`."""
        outer = self._pinned.reading
        if outer is not None:
            yield outer
            return
        generation = self._plan_generation
        with self.open_snapshot() as snapshot:
            seen = self._pinned.reading = Reading(
                self, snapshot, generation, keep=not self.in_transaction)
            try:
                yield seen
            finally:
                self._pinned.reading = None

    def _release_snapshot(self, handle: int) -> None:
        with self._state_lock:
            self._open_snapshots.pop(handle, None)

    def version_horizon(self) -> int:
        """The oldest commit number any live (or future) snapshot may
        read at — versions dead at or before it are reclaimable."""
        return min(self._reclaim_horizon(), self._committed_cn)

    def _reclaim_horizon(self) -> int:
        """:meth:`version_horizon`, but one past the committed number
        when no snapshot is open: an aborted insert's version dies at
        that in-flight stamp, and no reader can still hold its row."""
        with self._state_lock:
            if self._open_snapshots:
                return min(min(self._open_snapshots.values()),
                           self._committed_cn)
            return self._committed_cn + 1

    def collect_versions(self) -> int:  # requires: _lock
        """Reclaim row versions older than the oldest live snapshot.

        Returns the number of versions collected.  Runs as part of
        :meth:`checkpoint` and :meth:`vacuum`.
        """
        horizon = self._reclaim_horizon()
        reclaimed = 0
        for storage in list(self._storages.values()):
            reclaimed += storage.collect(horizon)
        return reclaimed

    def vacuum(self) -> int:
        """Run version garbage collection under the exclusive lock."""
        with self._lock.exclusive():
            if self.in_transaction:
                raise TransactionError(
                    "cannot vacuum during a transaction")
            return self.collect_versions()

    def version_count(self, table: str) -> int:
        """Retained versions for one table (GC observability)."""
        return self.storage(table).version_count()

    # -- statement execution ------------------------------------------------------

    def _parse(self, sql: str):
        with self._state_lock:
            statement = self._statement_cache.get(sql)
            if statement is not None:
                self._statement_cache.move_to_end(sql)
        if statement is None:
            # Parse outside the mutex (parsing is pure); on a race the
            # first inserted statement wins so every thread shares one
            # object — the plan cache is keyed by statement identity.
            parsed = parse_sql(sql)
            with self._state_lock:
                statement = self._statement_cache.setdefault(sql, parsed)
                if len(self._statement_cache) > STATEMENT_CACHE_CAPACITY:
                    _sql, evicted = self._statement_cache.popitem(
                        last=False)
                    self._plan_cache.pop(id(evicted), None)
        return statement

    @staticmethod
    def _is_read(statement: Any) -> bool:
        """True for a statement that cannot mutate, and so must not
        take (or wait for) the writer lock — the rule is spelled at
        :data:`~repro.engine.parser.READ_ONLY_STATEMENTS`."""
        return isinstance(statement, READ_ONLY_STATEMENTS)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run any statement.

        Returns a :class:`ResultSet` for SELECT (and EXPLAIN), the
        affected row count for DML, and 0 for DDL and transaction
        control.
        """
        statement = self._parse(sql)
        with self._state_lock:
            self.statistics["statements"] += 1
        if isinstance(statement, TransactionStatement):
            return self._execute_transaction(statement.action)
        if self._is_read(statement) \
                and not self._lock.owned_exclusively():
            # MVCC read path: no lock at all.  The statement runs
            # against a snapshot pinned at the committed commit
            # number (or the thread's reading() pin), so an in-flight
            # writer (even a long open transaction on another thread)
            # never delays it.  A thread inside its own transaction
            # reads its uncommitted effects on the live path below.
            seen = self._pinned.reading
            with self.open_snapshot() if seen is None \
                    else nullcontext(seen.snapshot) as snapshot:
                if isinstance(statement, ExplainStatement):
                    if seen is not None:
                        seen.keep = False  # estimates move with rows
                    result: Any = self._explain(statement.statement)
                else:
                    result = self._run_read(statement, tuple(params),
                                            snapshot)
        else:
            # Every statement is one transaction() scope, spelled
            # inline on this hot path: atomic inside a transaction or
            # out, and its own commit outside one.
            with self._lock.exclusive():
                mark = len(self._pending)
                try:
                    if isinstance(statement, ExplainStatement):
                        result = self._explain(statement.statement)
                    else:
                        # DDL that changes a schema, an index or a view
                        # drops the compiled plans where it makes the
                        # change; ``IF [NOT] EXISTS`` that finds nothing
                        # to do changes and invalidates nothing.
                        result = self._executor.execute(
                            statement, tuple(params))
                except BaseException:
                    self._unwind_to(mark)
                    raise
                if not self._in_transaction:
                    self._commit_pending()
        if isinstance(result, ResultSet):
            with self._state_lock:
                self.statistics["rows_returned"] += len(result)
        return result

    def _run_read(self, statement: Any, params: Sequence[Any],
                  snapshot: Snapshot) -> ResultSet:
        """Run a SELECT or UNION against a pinned snapshot."""
        if isinstance(statement, SelectStatement):
            return self._run_select(statement, params, snapshot)
        return self._executor.execute_compound(statement, params,
                                               snapshot)

    # -- compiled plans ----------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop all compiled plans, and with them every result
        remembered on one (called by any DDL that changes something)."""
        with self._state_lock:
            self._plan_generation += 1
            self._plan_cache.clear()
            self._drop_join_hashes()

    def join_hash(self, key: Tuple[str, str], storage, slot: int,
                  cn: int) -> Dict[Any, List[list]]:
        """``storage``'s rows visible at ``cn`` by their non-NULL value
        in column ``slot``, in scan order: a hash join's build over a
        full scan of it, with no filter.

        The hash kept under ``key`` serves while the table's
        ``_last_version_cn`` and ``_rewritten_cn`` both equal their
        values when it was built and the first is ``<= cn`` — no effect
        and no re-sort separates it from the rows at ``cn``.  A hash is
        kept only when neither stamp moved while it was built from
        ``snapshot_rows(cn)`` and the first was ``<= cn``; one built
        across DDL is not kept.
        """
        # Both stamps before the rows: a writer stamps before it
        # touches them (storage rule (1)).
        stamps = (storage._last_version_cn, storage._rewritten_cn)
        with self._state_lock:
            kept = self._join_hashes.get(key)
            generation = self._plan_generation
        if kept is not None and kept[0] is storage and kept[1] == stamps \
                and stamps[0] <= cn:
            return kept[2]
        buckets: Dict[Any, List[list]] = {}
        for _rowid, row in storage.snapshot_rows(cn):
            if row[slot] is not None:
                buckets.setdefault(row[slot], []).append(row)
        if stamps[0] <= cn and stamps == (storage._last_version_cn,
                                          storage._rewritten_cn):
            with self._state_lock:
                if self._plan_generation == generation:
                    self._keep_join_hash(key, (storage, stamps, buckets))
        return buckets

    def _keep_join_hash(self, key, entry) -> None:  # requires: engine-state
        self._join_hashes[key] = entry

    def _drop_join_hashes(self) -> None:  # requires: engine-state
        self._join_hashes.clear()

    def plan_for(self, statement: Any):
        """The cached plan of one parsed SELECT, INSERT, UPDATE or DELETE.

        A SELECT plans to a :class:`~repro.engine.planner.SelectPlan`;
        an INSERT to its compiled VALUES rows, an UPDATE or DELETE to
        the scan node that chooses its target rows, carrying an
        UPDATE's compiled SET list
        (:func:`~repro.engine.planner.plan_dml`).  Planning raises the
        statement's name and aggregate errors.
        """
        key = id(statement)
        with self._state_lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
            generation = self._plan_generation
        if entry is None:
            from repro.engine import planner

            if isinstance(statement, SelectStatement):
                plan = planner.plan_select(self, statement)
            else:
                plan = planner.plan_dml(self, statement)
            fresh = (statement, plan)
            with self._state_lock:
                if self._plan_generation != generation:
                    # DDL invalidated the cache while we planned; the
                    # plan may reference dropped schema state, so hand
                    # it to the caller but do not cache it.
                    return plan
                entry = self._plan_cache.setdefault(key, fresh)
                if len(self._plan_cache) > STATEMENT_CACHE_CAPACITY:
                    # Plans of sub-statements (UNION parts, view and
                    # CTAS bodies) have no statement-cache entry to be
                    # evicted with, so the bound is enforced here too.
                    self._plan_cache.popitem(last=False)
        return entry[1]

    def _run_select(self, statement: SelectStatement,
                    params: Sequence[Any],
                    snapshot: Optional[Snapshot] = None) -> ResultSet:
        """Execute one SELECT: its compiled plan.

        ``snapshot`` pins every scan to one commit number; None means
        the live read path (inside a transaction, under the exclusive
        lock).  Compiled plans stay valid across concurrent DML — the
        snapshot is a per-execution argument, and the plan cache's
        invalidation generation only moves on DDL.  A :meth:`reading`
        block's :class:`Reading` records the stamps of what it scans.
        """
        plan = self.plan_for(statement)
        seen = self._pinned.reading
        if snapshot is None or not plan.cacheable:
            if seen is not None:
                seen.keep = False
            return plan.execute(params, snapshot)
        if seen is not None:
            for storage in (scan.storage for scan in plan.scans):
                stamp = storage._last_version_cn
                seen.keep = seen.keep and stamp <= seen.snapshot.cn
                seen.stamps.append((storage, stamp, storage._rewritten_cn))
        result = self._run_reusable(plan, params, snapshot)
        if seen is not None and len(result.rows) > RESULT_CACHE_MAX_ROWS:
            seen.keep = False
        return result

    def _run_reusable(self, plan, params: Sequence[Any],
                      snapshot: Snapshot) -> ResultSet:
        """Run an aggregate plan, reusing its last result for these
        parameters while every table it scans stands still, and
        continuing its group state while rows are only appended to the
        table it is driven by.

        Validity is checked at read time from the per-table commit
        stamps MVCC already maintains (``TableStorage._stamp`` bumps
        ``_last_version_cn`` *before* the first mutation of any
        statement): a remembered result may serve a reader at snapshot
        ``S`` iff every scanned table's current stamp equals the
        remembered one and is ``<= S.cn`` — then no effect, committed
        or in flight, separates the remembered execution from ``S``.
        The stamps remembered are those read *before* executing, and
        only when none exceeded the executing snapshot (the tables
        were quiescent at it); stamps never decrease, so a writer that
        stamps while the statement runs leaves an entry no reader can
        match.  The mutex is never held while executing.

        A *fold* (``SelectPlan.reusable_result``): when only the driving
        table's stamp moved, every stamp is ``<= S.cn``, and nothing but
        appends happened to that table since the remembered stamp
        (``_rewritten_cn``), the rows it gained since the remembered
        rowid watermark are read at ``S`` and folded into the
        remembered group state.  Accumulation stays in scan order, so
        the answer equals a rescan bit for bit.  If any stamp moved
        while folding, the statement runs in full instead.  A fold is
        a miss, not a reuse; ``result_cache_folds`` counts them.
        """
        key = _params_key(params)
        if key is None:
            return plan.execute(params, snapshot)
        # The watermark before the stamps: storage.py rule (3).
        watermark = plan.watermark()
        stamps = plan.stamps()
        with self._state_lock:
            remembered, base = plan.reusable_result(key, stamps,
                                                    snapshot.cn)
            outcome = "result_cache_misses" if remembered is None \
                else "result_cache_hits"
            self.statistics[outcome] += 1
        if remembered is not None:
            columns, rows = remembered
            # A fresh ResultSet over copied lists (rows are tuples):
            # no caller can alias what is remembered.
            result = ResultSet(list(columns), list(rows))
            result.reused = True
            return result
        result = None
        if base is not None:
            start, groups = base
            result, groups = plan.run(params, snapshot,
                                      range(start, watermark), groups)
            if plan.stamps() != stamps:
                result = None
            else:
                with self._state_lock:
                    self.statistics["result_cache_folds"] += 1
        if result is None:
            result, groups = plan.run(params, snapshot)
        if len(result.rows) <= RESULT_CACHE_MAX_ROWS \
                and all(stamp <= snapshot.cn for stamp in stamps):
            with self._state_lock:
                plan.remember_result(
                    key, stamps, watermark,
                    (tuple(result.columns), tuple(result.rows)), groups)
        return result

    def _explain(self, statement: Any) -> ResultSet:
        """Render the plan of a SELECT/UNION as a one-column result."""
        if isinstance(statement, SelectStatement):
            lines = self._plan_lines(statement)
        elif isinstance(statement, CompoundSelect):
            lines = []
            for position, part in enumerate(statement.parts):
                lines.append(f"union part {position + 1}:")
                lines.extend(
                    "  " + line for line in self._plan_lines(part))
        else:
            raise EngineError("EXPLAIN supports SELECT statements only")
        return ResultSet(["plan"], [(line,) for line in lines])

    def _plan_lines(self, statement: SelectStatement) -> List[str]:
        plan = self.plan_for(statement)
        lines = plan.explain_lines()
        if plan.cacheable:
            tables = ", ".join(scan.table for scan in plan.scans)
            lines.append(f"result cache: eligible (tables: {tables})")
        return lines

    def query(self, sql: str, params: Sequence[Any] = ()) \
            -> List[Dict[str, Any]]:
        """Run a SELECT and return its rows as dictionaries."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise EngineError("query() requires a SELECT statement")
        return result.to_dicts()

    def query_value(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run a SELECT that yields exactly one value and return it."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise EngineError("query_value() requires a SELECT statement")
        return result.scalar()

    def executemany(self, sql: str,
                    param_rows: Sequence[Sequence[Any]]) -> int:
        """Run one parameterized DML statement for each parameter row.

        The batch is one :meth:`transaction` scope: a constraint
        violation on row N leaves none of rows 1..N applied, and inside
        the calling thread's own transaction the batch nests in it.
        """
        total = 0
        with self.transaction():
            for params in param_rows:
                result = self.execute(sql, params)
                if isinstance(result, int):
                    total += result
        return total

    # -- transactions ----------------------------------------------------------------

    def _execute_transaction(self, action: str) -> int:
        if action == "BEGIN":
            self.begin()
        elif action == "COMMIT":
            self.commit()
        else:
            self.rollback()
        return 0

    @property
    def in_transaction(self) -> bool:
        """Whether the *calling thread* has a transaction open: a
        transaction belongs to the thread holding the writer lock."""
        return self._in_transaction and self._lock.owned_exclusively()

    def begin(self) -> None:
        # The transaction holds the writer lock from BEGIN to
        # COMMIT/ROLLBACK so no other thread can observe (or disturb)
        # uncommitted state; statements inside it nest as scopes.
        self._lock.acquire_write()
        if self._in_transaction:
            self._lock.release_write()
            raise TransactionError("transaction already in progress")
        self._in_transaction = True

    def _require_transaction(self, action: str) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        if self._scopes:
            raise TransactionError(
                f"cannot {action} inside a transaction() scope")

    def commit(self) -> None:
        self._require_transaction("COMMIT")
        try:
            self._in_transaction = False
            self._commit_pending()
        finally:
            self._lock.release_write()

    def rollback(self) -> None:
        self._require_transaction("ROLLBACK")
        try:
            self._in_transaction = False
            # Nothing of an aborted transaction reaches the WAL.
            self._unwind_to(0)
        finally:
            self._lock.release_write()

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """The engine's one unit of atomic work: under the writer lock,
        mark the write log; if the body raises, unwind back to the mark.
        The outermost scope commits; inside the calling thread's open
        transaction it nests.  A write statement is one scope, and
        ROLLBACK is the unwind to mark 0.  COMMIT and ROLLBACK inside a
        scope raise :class:`~repro.errors.TransactionError`: only the
        scope ends what it opened."""
        with self._lock.exclusive():
            outermost = not self._in_transaction
            mark = len(self._pending)
            self._in_transaction = True
            self._scopes += 1
            try:
                yield self
            except BaseException:
                self._unwind_to(mark)
                raise
            finally:
                self._scopes -= 1
                if outermost:
                    self._in_transaction = False
            if outermost:
                self._commit_pending()

    def record_redo(self, entry) -> None:  # requires: _lock
        """Queue the forward image of one mutation on the write log.

        Recorded even without a WAL attached: ROLLBACK unwinds the
        list, and a non-empty list is also how commit publication
        knows the statement/transaction had effects and must advance
        the MVCC commit number.
        """
        if not self._suppress_redo:
            self._pending.append(entry)

    def detach(self, body: Any) -> None:  # requires: _lock
        """Keep what the DROP about to be recorded detached (a table's
        storage, a view's SELECT), for an unwind to put back."""
        self._detached[len(self._pending)] = body

    def _unwind_to(self, mark: int) -> None:  # requires: _lock
        """Undo the write log newest first back to ``mark`` entries
        (taken off the log first: a failed undo never commits)."""
        undone = self._pending[mark:]
        del self._pending[mark:]
        for position in reversed(range(len(undone))):
            self._unwind(undone[position],
                         self._detached.pop(mark + position, None))

    def _commit_pending(self) -> None:  # requires: _lock
        if not self._pending:
            return
        ops, self._pending = self._pending, []
        self._detached.clear()
        self._lock.require_exclusive("WAL commit")
        if self._wal is not None:
            # One atomic commit record for the whole transaction,
            # while the exclusive lock still serializes the log; the
            # commit number published below is the one the WAL just
            # assigned.
            self._wal.commit(ops)
        self._publish_commit(ops)

    # -- persistence ------------------------------------------------------------------

    def save(self, path: Union[str, Path], faults=None) -> None:
        """Snapshot the whole database to ``path``, atomically.

        The payload is written to a sibling temp file and then
        renamed over the target, so a crash (or an injected fault at
        the ``storage.write`` site) mid-write can never leave a torn
        snapshot behind: either the old snapshot survives intact or
        the new one is complete.  ``faults`` is an optional
        :class:`~repro.core.resilience.FaultInjector` (duck-typed);
        when its ``storage.write`` rule fires, the write is torn
        half-way through the temp file to simulate a crashed writer,
        and the temp file is discarded.
        """
        if self.in_transaction:
            raise TransactionError("cannot snapshot during a transaction")
        with self._lock.exclusive():
            payload = {
                "name": self.name,
                # The snapshot records how much of the log it already
                # contains (the WAL numbers commits as this database
                # does), so recovery replays only commits numbered
                # beyond it — even when the crash hit between a
                # checkpoint's snapshot and its log reset.
                "wal_commit_number": self._committed_cn,
                "statistics": dict(self.statistics),
                "views": dict(self.views),
                "tables": [
                    {
                        "schema": storage.schema,
                        # The live dict itself, not a copy: nothing
                        # mutates it under this hold, and a copy is an
                        # O(rows) dict built under the writer lock.
                        "rows": storage.rows,
                        "next_rowid": storage._next_rowid,
                        "indexes": [
                            (index.name, index.column_names, index.unique)
                            for index in storage.indexes.values()
                        ],
                    }
                    for storage in self._storages.values()
                ],
            }
            # Serialized under the hold: the payload references the
            # live schemas and row lists, which ALTER TABLE ADD COLUMN
            # widens in place.
            data = pickle.dumps(payload)
        target = Path(path)
        scratch = target.with_name(target.name + ".tmp")
        try:
            with open(scratch, "wb") as handle:
                if faults is not None:
                    try:
                        faults.fire("storage.write")
                    except BaseException:
                        # Simulate the torn write the rename protects
                        # against: half the bytes land, then the
                        # writer dies.
                        handle.write(data[: len(data) // 2])
                        raise
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, target)
            # The rename lives in the directory inode; without this
            # (best-effort) fsync a power cut could forget the swap
            # even though the data blocks were synced above.
            _fsync_directory(target.parent)
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Union[str, Path], faults=None) -> "Database":
        """Restore a database from a snapshot produced by :meth:`save`.

        The statistics counters are restored rather than reset, and
        every view is revalidated against the restored catalog so a
        snapshot whose views no longer resolve fails here, not on first
        use; an old snapshot's ``"compile"`` key is ignored.  A
        truncated or corrupt snapshot raises
        :class:`~repro.errors.SnapshotError`, not a raw pickle error.
        """
        if faults is not None:
            faults.fire("storage.read")
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                IndexError) as exc:
            raise SnapshotError(
                f"snapshot {str(path)!r} is truncated or corrupt: "
                f"{exc}") from exc
        if not isinstance(payload, dict) or "name" not in payload \
                or "tables" not in payload:
            raise SnapshotError(
                f"snapshot {str(path)!r} has no database payload")
        database = cls(payload["name"])
        base_cn = payload.get("wal_commit_number") or 0
        for entry in payload["tables"]:
            schema: TableSchema = entry["schema"]
            database.catalog.add_table(schema)
            storage = TableStorage(schema)
            storage.indexes.clear()
            # Unpickled lists carry growth slack, and every text value
            # arrives as its own string however often it repeats (a
            # category, a status, a customer).  Each row is copied to
            # its exact size as it leaves the payload, so the table is
            # never held twice, and equal texts share one string.
            # Rowid order, whatever order a rolled-back delete left
            # the saved dict in (TableStorage.in_rowid_order).
            saved = entry["rows"]
            texts: Dict[str, str] = {}
            for rowid in sorted(saved):
                row = saved.pop(rowid)[:]
                for position, value in enumerate(row):
                    if value.__class__ is str:
                        row[position] = texts.setdefault(value, value)
                storage.rows[rowid] = row
            storage._next_rowid = entry["next_rowid"]
            for index_name, column_names, unique in entry["indexes"]:
                storage.add_index(index_name, column_names, unique=unique)
            # The flat format persists only live rows, all committed
            # at or before the snapshot's WAL commit number: settled.
            storage.settle_all(base_cn)
            storage.attach_clock(database._stamp_cn)
            database._storages[schema.name.lower()] = storage
        database._committed_cn = base_cn
        if database._storage_monitor is not None:
            # Attach only after rows and indexes are rebuilt: the
            # restore loop runs before the database is shared, so its
            # raw writes are not lock-contract violations.
            for storage in database._storages.values():
                storage.attach_monitor(database._storage_monitor)
        database.views.update(payload.get("views", {}))
        for select in database.views.values():
            database._run_select(select, ())
        database.statistics.update(payload.get("statistics", {}))
        return database

    # -- write-ahead logging / crash recovery -------------------------------------

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

    @property
    def sanitizer(self):
        """The attached runtime concurrency sanitizer (or None)."""
        return self._sanitizer

    @property
    def wal_lag(self) -> Optional[int]:
        """Committed transactions in the log since the last checkpoint
        (``None`` when no WAL is attached)."""
        return None if self._wal is None else self._wal.commits

    @property
    def last_checkpoint(self) -> Optional[int]:
        """Ordinal of the last checkpoint taken (``None`` if never)."""
        return self._checkpoints or None

    def checkpoint(self, path: Optional[Union[str, Path]] = None) -> int:
        """Snapshot atomically, then truncate the WAL.

        Returns the checkpoint ordinal.  Runs under the exclusive
        lock so the snapshot and the log reset observe the same
        state.  Crashing between the two is safe: the snapshot
        records the WAL commit number it contains, so recovery skips
        the logged transactions the snapshot already holds instead of
        double-applying them.
        """
        if self._wal is None:
            raise WalError("no write-ahead log attached")
        target = Path(path) if path is not None else self._snapshot_path
        if target is None:
            raise WalError(
                "checkpoint needs a snapshot path (take_over_log or "
                "checkpoint(path=...))")
        with self._lock.exclusive():
            if self.in_transaction:
                raise TransactionError(
                    "cannot checkpoint during a transaction")
            self.save(target)
            self._snapshot_path = target
            self._wal.reset()
            self._checkpoints += 1
            # Checkpoint doubles as the version garbage collector:
            # versions superseded before the oldest live snapshot can
            # never be read again and are reclaimed here.
            self.collect_versions()
            return self._checkpoints

    def _apply_redo(self, ops: Sequence[Any]) -> None:
        """Replay one committed transaction's forward images."""
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, table, rowid, row = op
                self.storage(table).restore(rowid, list(row))
            elif kind == "delete":
                _, table, rowid = op
                self.storage(table).delete(rowid)
            elif kind == "update":
                _, table, rowid, new_row = op
                self.storage(table).update(rowid, list(new_row))
            elif kind == "create_table":
                self.create_storage(op[1])
            elif kind == "drop_table":
                self.drop_storage(op[1], record=False)
            elif kind == "create_index":
                _, table, index_name, columns, unique = op
                self.storage(table).add_index(
                    index_name, list(columns), unique=unique)
                self.invalidate_plans()
            elif kind == "add_column":
                _, table, column = op
                self.storage(table).add_column(column)
                self.invalidate_plans()
            elif kind == "create_view":
                _, key, select = op
                self.views[key] = select
                self.invalidate_plans()
            elif kind == "drop_view":
                self.views.pop(op[1], None)
                self.invalidate_plans()
            else:
                raise WalError(f"unknown redo op {kind!r}")

    def _unwind(self, op: Any, detached: Any) -> None:  # requires: _lock
        """Undo one op of a rolled-back transaction: the inverse of
        :meth:`_apply_redo`, run newest op first.

        DML *unwinds* the MVCC version chains (pops the aborted
        versions, clears their death stamps) rather than running the
        forward primitives, which would append yet more versions — an
        aborted effect has to vanish from every snapshot, not merely be
        superseded.  ``detached`` is what the op's DROP detached.
        """
        kind = op[0]
        if kind == "insert":
            storage = self.storage(op[1])
            storage.undo_insert(op[2])
            storage.unallocate(op[2])
        elif kind == "delete":
            self.storage(op[1]).undo_delete(op[2])
        elif kind == "update":
            self.storage(op[1]).undo_update(op[2])
        elif kind == "create_table":
            self.drop_storage(op[1].name, record=False)
        elif kind == "drop_table":
            self.attach_storage(detached)
        elif kind == "create_index":
            self.storage(op[1]).drop_index(op[2])
        elif kind == "add_column":
            self.storage(op[1]).undo_add_column(op[2])
        elif kind == "create_view":
            del self.views[op[1]]
        elif kind == "drop_view":
            self.views[op[1]] = detached
        else:
            raise TransactionError(f"unknown redo op {kind!r}")
        if kind not in _ROW_EFFECTS:
            self.invalidate_plans()

    @classmethod
    def recover(cls, directory: Union[str, Path], name: str = "main", *,
                fsync: str = "always", faults=None) -> "Database":
        """Rebuild a database from its data directory after a crash.

        Loads the last snapshot (``<name>.snapshot``) when one exists,
        else starts empty, then takes the log (``<name>.wal``) over
        (:meth:`take_over_log`): every committed transaction past the
        snapshot replays, and torn/corrupt frames and intact but
        uncommitted trailing ops are truncated away.  Views are
        revalidated against the recovered catalog; compiled plans start
        cold.
        """
        directory = Path(directory)
        snapshot = directory / f"{name}.snapshot"
        snapshot_loaded = snapshot.exists()
        database = cls.load(snapshot, faults=faults) if snapshot_loaded \
            else cls(name)
        found = database.take_over_log(directory / f"{name}.wal",
                                       snapshot, fsync=fsync,
                                       faults=faults)
        for select in database.views.values():
            database._run_select(select, ())
        database.recovery_info = {"snapshot_loaded": snapshot_loaded,
                                  **found}
        database.invalidate_plans()
        return database

    def take_over_log(self, wal_path: Union[str, Path],  # blocking: replays, truncates and reopens a log on disk
                      snapshot_path: Union[str, Path], *,
                      fsync: str = "always",
                      faults=None) -> Dict[str, Any]:
        """Bring this database to the committed prefix of the log at
        ``wal_path`` and make that log its own: the one step of crash
        recovery (onto a snapshot or nothing) and failover (onto a warm
        replica).

        Every committed transaction past :attr:`committed_cn` goes
        through :meth:`apply_committed`, whose gap check refuses a log
        that skips numbers (a lost checkpoint snapshot) before anything
        changes.  The dangling op run and torn tail behind the last
        commit record are truncated, and the log reopens as the live
        WAL, numbering on from the commit number.  ``snapshot_path`` is
        where :meth:`checkpoint` writes.  Returns the log's
        ``transactions_replayed``, ``dangling_ops``, ``tail_reason`` and
        ``discarded_bytes``.
        """
        wal_path = Path(wal_path)
        transactions, committed_length, dangling, tail_reason = \
            committed_prefix(wal_path)
        replayed = self.apply_committed(transactions)
        discarded = 0
        if wal_path.exists():
            discarded = wal_path.stat().st_size - committed_length
            if discarded:
                with open(wal_path, "r+b") as handle:
                    handle.truncate(committed_length)
        wal = WriteAheadLog(wal_path, fsync=fsync, faults=faults)
        wal.last_number = self._committed_cn
        self._wal = wal
        self._snapshot_path = Path(snapshot_path)
        return {"transactions_replayed": replayed,
                "dangling_ops": dangling,
                "tail_reason": tail_reason,
                "discarded_bytes": discarded}

    def apply_committed(
            self, transactions: Sequence[Tuple[int, Sequence[Any]]]) \
            -> int:
        """Apply committed transactions read from a log.

        The one replay path: a read replica hands its primary's newly
        committed transactions here, and :meth:`take_over_log` (crash
        recovery, failover) the log's committed prefix.  Effects are
        stamped with the logged commit number and each commit is
        published atomically, under the exclusive statement lock,
        because a live replica keeps serving snapshot reads while it
        applies.  Transactions at or below the current commit number
        are skipped (re-shipping a prefix is idempotent); a numbering
        gap raises :class:`~repro.errors.WalError` (a replica's shipper
        then falls back to a snapshot resync).  Returns how many
        transactions were applied.
        """
        with self._lock.exclusive():
            if self.in_transaction:
                raise TransactionError(
                    "cannot apply shipped transactions while a local "
                    "transaction is open")
            applied = 0
            self._suppress_redo = True
            try:
                for number, ops in transactions:
                    if number <= self._committed_cn:
                        continue
                    if number != self._committed_cn + 1:
                        raise WalError(
                            f"commit gap: {self.name!r} is at "
                            f"#{self._committed_cn} but the next "
                            f"transaction it is given is #{number}; "
                            f"the ones between are only in a "
                            f"checkpoint snapshot it does not hold")
                    self._apply_redo(ops)
                    self._publish_commit(ops)
                    applied += 1
            finally:
                self._suppress_redo = False
            return applied

    def state_fingerprint(self) -> Tuple[Any, ...]:
        """A hashable identity of the full durable state.

        Two databases with equal fingerprints hold identical tables
        (rows, rowids, indexes) and identical views — the invariant
        the crash-chaos battery asserts between a committed prefix
        and its recovery.
        """
        with self._lock.exclusive():
            return (
                tuple(sorted(storage.fingerprint()
                             for storage in self._storages.values())),
                tuple(sorted(
                    (key, zlib.crc32(pickle.dumps(select)))
                    for key, select in self.views.items())),
            )

    def close(self) -> None:
        """Flush and close the attached WAL (if any)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

