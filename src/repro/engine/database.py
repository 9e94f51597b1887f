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
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.engine.transactions import Transaction
from repro.engine.wal import (
    MAGIC,
    WriteAheadLog,
    _fsync_directory,
    committed_transactions,
    read_log,
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

    def __init__(self, name: str = "main", compile: bool = True,
                 sanitize: Optional[bool] = None):
        self.name = name
        self.catalog = Catalog()
        self._storages: Dict[str, TableStorage] = {}  # guarded-by: _lock
        self.views: Dict[str, Any] = {}  # name -> SelectStatement
        self._executor = Executor(self)
        self._transaction: Optional[Transaction] = None  # guarded-by: _lock
        # Parsed statements by SQL text, least recently used first.
        self._statement_cache: "OrderedDict[str, Any]" = OrderedDict()  # guarded-by: _state_lock
        # Compiled plans keyed by statement identity; each entry keeps a
        # strong reference to its statement so ids cannot be recycled.
        # Same LRU order and capacity as the statement cache, and an
        # evicted statement takes its plan (and the results remembered
        # on it) along.  ``compile=False`` is the ablation knob: plans
        # are never used and every SELECT runs through the interpreted
        # executor.
        self._compile_enabled = bool(compile)
        self._plan_cache: "OrderedDict[int, Any]" = OrderedDict()  # guarded-by: _state_lock
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
        # Durability: a WriteAheadLog attached via attach_wal (or
        # recover) receives one commit record per transaction.  The
        # autocommit buffer collects redo ops of a single statement
        # outside any explicit transaction; _suppress_redo silences
        # recording while recovery replays the log into this database.
        self._wal: Optional[WriteAheadLog] = None
        self._snapshot_path: Optional[Path] = None
        self._autocommit_redo: List[Any] = []  # guarded-by: _lock
        self._suppress_redo = False
        self._checkpoints = 0
        # Highest WAL commit number already contained in the snapshot
        # this database was loaded from (0 = everything must replay).
        self._snapshot_wal_number = 0
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
        self.record_undo(("create_table", schema.name))
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
            self.record_undo(("drop_table", name, storage))
            self.record_redo(("drop_table", name))
        self.invalidate_plans()

    def attach_storage(self, storage: TableStorage) -> None:  # requires: _lock
        """Re-attach a previously dropped storage (transaction rollback)."""
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

    def _release_snapshot(self, handle: int) -> None:
        with self._state_lock:
            self._open_snapshots.pop(handle, None)

    def open_snapshot_count(self) -> int:
        with self._state_lock:
            return len(self._open_snapshots)

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
            # number, so an in-flight writer (even a long open
            # transaction on another thread) never delays it.  A
            # thread that *is* inside its own transaction falls
            # through to the live path below and reads its own
            # uncommitted effects under the reentrant exclusive hold.
            with self.open_snapshot() as snapshot:
                if isinstance(statement, ExplainStatement):
                    result: Any = self._explain(statement.statement)
                else:
                    result = self._run_read(statement, tuple(params),
                                            snapshot)
        else:
            with self._lock.exclusive():
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
                finally:
                    # Outside an explicit transaction every statement
                    # is its own commit: flush whatever redo it
                    # produced as one WAL commit record — and publish
                    # its commit number — before the lock is released,
                    # even on error, so the log and the snapshot
                    # visibility horizon mirror the in-memory effects
                    # of a partially applied statement.
                    self._flush_autocommit_redo()
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

    def plan_for(self, statement: Any):
        """The cached ``(plan, reason)`` pair for one parsed SELECT,
        UPDATE or DELETE.

        A SELECT plans to a :class:`~repro.engine.planner.SelectPlan`;
        an UPDATE or DELETE to the scan node that chooses its target
        rows (:func:`~repro.engine.planner.plan_dml`).  ``plan`` is
        None when the statement must run interpreted, in which case
        ``reason`` says why.
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
                plan, reason = planner.plan_select(self, statement)
            else:
                plan, reason = planner.plan_dml(self, statement)
            fresh = (statement, plan, reason)
            with self._state_lock:
                if self._plan_generation != generation:
                    # DDL invalidated the cache while we planned; the
                    # plan may reference dropped schema state, so hand
                    # it to the caller but do not cache it.
                    return plan, reason
                entry = self._plan_cache.setdefault(key, fresh)
                if len(self._plan_cache) > STATEMENT_CACHE_CAPACITY:
                    # Plans of sub-statements (UNION parts, view and
                    # CTAS bodies) have no statement-cache entry to be
                    # evicted with, so the bound is enforced here too.
                    self._plan_cache.popitem(last=False)
        return entry[1], entry[2]

    def _run_select(self, statement: SelectStatement,
                    params: Sequence[Any],
                    snapshot: Optional[Snapshot] = None) -> ResultSet:
        """Execute one SELECT: compiled when possible, else interpreted.

        ``snapshot`` pins every scan to one commit number; None means
        the live read path (inside a transaction, under the exclusive
        lock).  Compiled plans stay valid across concurrent DML — the
        snapshot is a per-execution argument, and the plan cache's
        invalidation generation only moves on DDL.
        """
        if self._compile_enabled:
            plan, _reason = self.plan_for(statement)
            if plan is not None:
                if snapshot is not None and plan.cacheable:
                    return self._run_reusable(plan, params, snapshot)
                return plan.execute(params, snapshot)
        return self._executor.execute_select(statement, params, snapshot)

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
        plan, reason = self.plan_for(statement)
        if plan is None:
            return [f"interpreted execution: {reason}"]
        lines = plan.explain_lines()
        if self._compile_enabled and plan.cacheable:
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

        The batch is atomic: when no transaction is open, one is begun
        and committed around the rows, and rolled back on the first
        failure — a constraint violation on row N no longer leaves
        rows 1..N-1 applied.  Inside a caller's transaction the rows
        simply join it, so the caller keeps control of the boundary.
        """
        if self.in_transaction:
            return self._executemany_rows(sql, param_rows)
        with self.transaction():
            return self._executemany_rows(sql, param_rows)

    def _executemany_rows(self, sql: str,
                          param_rows: Sequence[Sequence[Any]]) -> int:
        total = 0
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
        return self._transaction is not None and self._transaction.active

    def begin(self) -> None:
        # The transaction scope holds the exclusive lock from BEGIN to
        # COMMIT/ROLLBACK so no other thread can observe (or disturb)
        # uncommitted state; statements inside the scope re-acquire it
        # reentrantly.
        self._lock.acquire_write()
        started = False
        try:
            if self.in_transaction:
                raise TransactionError("transaction already in progress")
            self._transaction = Transaction()
            started = True
        finally:
            if not started:
                self._lock.release_write()

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        try:
            redo = self._transaction.take_redo()
            self._transaction.commit()
            self._transaction = None
            if redo:
                if self._wal is not None:
                    # One atomic commit record for the whole scope,
                    # while the exclusive lock still serializes the
                    # log; the commit number published below is the
                    # one the WAL just assigned.
                    self._wal.commit(redo)
                self._publish_commit(redo)
        finally:
            self._lock.release_write()

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        try:
            self._transaction.rollback(self)
            self._transaction = None
        finally:
            self._lock.release_write()

    def record_undo(self, entry) -> None:
        if self.in_transaction:
            self._transaction.record(entry)

    def record_redo(self, entry) -> None:  # requires: _lock
        """Queue the forward image of one mutation for the WAL.

        Recorded even without a WAL attached: a non-empty redo list is
        also how commit publication knows the statement/transaction
        had effects and must advance the MVCC commit number.
        """
        if self._suppress_redo:
            return
        if self.in_transaction:
            self._transaction.record_redo(entry)
        else:
            self._autocommit_redo.append(entry)

    def _flush_autocommit_redo(self) -> None:
        if self.in_transaction:
            return
        if not self._autocommit_redo:
            return
        ops, self._autocommit_redo = self._autocommit_redo, []
        self._lock.require_exclusive("WAL commit")
        if self._wal is not None:
            self._wal.commit(ops)
        self._publish_commit(ops)

    def transaction(self) -> "_TransactionScope":
        """Context manager: commit on success, roll back on exception."""
        return _TransactionScope(self)

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
                # With a WAL attached the snapshot records how much of
                # the log it already contains, so recovery replays only
                # commits numbered beyond it — even when the crash hit
                # between a checkpoint's snapshot and its log reset.
                "wal_commit_number": (
                    self._wal.last_number if self._wal is not None
                    else self._snapshot_wal_number),
                "compile": self._compile_enabled,
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

        Constructor state survives the round trip: the ``compile``
        flag and the statistics counters are restored rather than
        reset to defaults, and every view is revalidated against the
        restored catalog so a snapshot whose views no longer resolve
        fails here, not on first use.  A truncated or corrupt snapshot
        raises :class:`~repro.errors.SnapshotError` instead of a raw
        pickle error.
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
        database = cls(payload["name"],
                       compile=payload.get("compile", True))
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
            database._executor.execute_select(select, ())
        database.statistics.update(payload.get("statistics", {}))
        database._snapshot_wal_number = \
            payload.get("wal_commit_number") or 0
        return database

    # -- write-ahead logging / crash recovery -------------------------------------

    def attach_wal(self, wal: WriteAheadLog,
                   snapshot_path: Optional[Union[str, Path]] = None) -> None:
        """Start logging every committed mutation to ``wal``.

        ``snapshot_path`` is where :meth:`checkpoint` writes the
        snapshot that lets the log be truncated.
        """
        self._wal = wal
        # Keep the MVCC clock in lockstep with the WAL numbering: new
        # effects are stamped committed + 1, which from here on is
        # exactly the number the WAL assigns their commit record.
        with self._state_lock:
            if wal.last_number > self._committed_cn:
                self._committed_cn = wal.last_number
        if snapshot_path is not None:
            self._snapshot_path = Path(snapshot_path)

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
                "checkpoint needs a snapshot path (attach_wal or "
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

    @classmethod
    def recover(cls, directory: Union[str, Path], name: str = "main", *,
                fsync: str = "always", compile: Optional[bool] = None,
                faults=None) -> "Database":
        """Rebuild a database from its data directory after a crash.

        Loads the last snapshot (``<name>.snapshot``) when one exists,
        replays every *committed* transaction from the WAL tail
        (``<name>.wal``), discards torn/corrupt frames and intact but
        uncommitted trailing ops, truncates the log back to the last
        commit record (so later appends cannot resurrect them), then
        re-attaches a live WAL so the database keeps logging.  Views
        are revalidated against the recovered catalog; compiled plans
        start cold.  ``compile=None`` keeps the snapshot's setting.
        """
        directory = Path(directory)
        snapshot = directory / f"{name}.snapshot"
        wal_path = directory / f"{name}.wal"
        snapshot_loaded = snapshot.exists()
        if snapshot_loaded:
            database = cls.load(snapshot, faults=faults)
            if compile is not None:
                database._compile_enabled = bool(compile)
        else:
            database = cls(name, compile=True if compile is None
                           else bool(compile))
        entries, good_length, tail_reason = read_log(wal_path)
        transactions, committed_length, dangling = \
            committed_transactions(entries)
        base = database._snapshot_wal_number
        replayable = [(number, ops) for number, ops in transactions
                      if number > base]
        database._suppress_redo = True
        try:
            # Replay stamps each transaction's effects with its actual
            # WAL commit number, rebuilding the same version lifetimes
            # the pre-crash database had published; publishing settles
            # as a live commit does.
            for number, ops in replayable:
                database._committed_cn = number - 1
                database._apply_redo(ops)
                database._publish_commit(ops)
        finally:
            database._suppress_redo = False
        for select in database.views.values():
            database._executor.execute_select(select, ())
        discarded = 0
        if wal_path.exists():
            # Keep exactly the committed prefix: behind it may sit an
            # intact-but-uncommitted op run and/or a torn tail, and
            # both must go before new commits are appended.
            keep = committed_length
            if keep == 0 and good_length >= len(MAGIC):
                keep = len(MAGIC)
            size = wal_path.stat().st_size
            if size > keep:
                discarded = size - keep
                with open(wal_path, "r+b") as handle:
                    handle.truncate(keep)
        wal = WriteAheadLog(wal_path, fsync=fsync, faults=faults)
        wal.last_number = max(wal.last_number, base)
        database.attach_wal(wal, snapshot)
        database.recovery_info = {
            "snapshot_loaded": snapshot_loaded,
            "transactions_replayed": len(replayable),
            "dangling_ops": dangling,
            "tail_reason": tail_reason,
            "discarded_bytes": discarded,
        }
        database.invalidate_plans()
        return database

    def apply_committed(
            self, transactions: Sequence[Tuple[int, Sequence[Any]]]) \
            -> int:
        """Apply committed transactions shipped from another log.

        The replication entry point: a read replica tails its
        primary's WAL and hands the committed prefix here.  Each
        transaction is applied exactly as :meth:`recover` replays it —
        effects stamped with the shipping commit number, the commit
        published atomically — but under the exclusive statement lock,
        because a live replica keeps serving snapshot reads while it
        applies.  Transactions at or below the current commit number
        are skipped (re-shipping a prefix is idempotent); a numbering
        gap raises :class:`~repro.errors.WalError` so the shipper can
        fall back to a snapshot resync.  Returns how many transactions
        were applied.
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
                            f"replication gap: next shipped "
                            f"transaction is #{number} but "
                            f"{self.name!r} is at "
                            f"#{self._committed_cn}")
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


class _TransactionScope:
    def __init__(self, database: Database):
        self._db = database

    def __enter__(self) -> Database:
        self._db.begin()
        return self._db

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._db.commit()
        else:
            self._db.rollback()
        return False
