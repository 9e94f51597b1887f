"""Versioned row storage for the embedded engine (MVCC).

Each table keeps two synchronized representations:

* ``rows`` — the *live* dict keyed by a monotonically increasing
  rowid, exactly the pre-MVCC shape.  Writers (always serialized by
  the database's exclusive lock) and in-transaction reads use it.
* ``_versions`` — per-rowid chains of :class:`RowVersion` records,
  each carrying a ``(created_cn, deleted_cn)`` lifetime stamped with
  the WAL's monotone commit numbers.  Snapshot readers pinned at a
  commit number ``cn`` see exactly the versions with
  ``created_cn <= cn < deleted_cn`` (``None`` meaning "still live"),
  so they never take the lock and never observe a writer's
  in-progress effects.

Only rows that some snapshot may see differently from the live row
carry a chain.  A row whose one version every snapshot can see is
*settled*: garbage collection (:meth:`TableStorage.collect`) and
snapshot load drop its chain, and the live row in ``rows`` is its
version.  A writer gives a settled row its chain on the first update
or delete, *before* it touches ``rows``; a new row gets its chain
before it enters ``rows``.

The lock-free read protocol relies on CPython/GIL atomicity of whole
C-level operations (``dict.copy``, ``dict.get``, tuple loads) plus two
ordering rules.  (1) A writer bumps ``_last_version_cn`` *before*
touching ``rows``: a snapshot reader copies the live dict and then
re-checks the counter — if it is still at or below the snapshot's
commit number, no writer stamped a newer effect during the copy and
the copy *is* the snapshot.  (2) Otherwise the reader reads ``rows``
*before* ``_versions``: a row it finds with no chain had none when its
live value was read, so no writer had touched it since and that value
is visible at every open snapshot's commit number.  (3) A reader that
remembers which rows a result covers reads ``_next_rowid`` *before*
the stamps: an insert stamps before it allocates its rowid, so every
row below the watermark read is either visible at a snapshot no newer
than the stamps then read or was stamped past it — and only a result
whose stamps are at or below its snapshot is remembered.  Every row a
later snapshot sees at or above the watermark was appended since.

Appending is the one effect that keeps a remembered aggregate
continuable: ``_rewritten_cn`` records the commit number of every other
effect — delete, update, each ``undo_*``, ``unallocate``, a ``restore``
below the watermark — and, past every stamp so far, of a collection
that re-sorts ``rows`` (which moves no stamp but changes scan order).
A result remembered at a stamp below it is neither reused nor
continued; one at or above it may fold in the rows appended since
instead of rescanning (``Database._run_reusable``).

Settling is the writer's job.  Each row effect adds at most one
version, and ``_since_collect`` counts the effects stamped since the
table's last collection.  After publishing a commit, the writer (still
holding the lock) collects each table it wrote whose count exceeds
:data:`SETTLE_FRACTION` of its live rows plus :data:`SETTLE_FLOOR`.
So with no snapshot open a table retains at most ``rows * 9/8 + 256``
versions, and since collection restarts the count whatever it could
reclaim, a pinned snapshot cannot make every commit collect.

Mutations are funnelled through three primitives (insert, delete,
update) which report enough information for the transaction layer to
undo them; the ``undo_*`` methods *unwind* version chains instead of
appending new versions, so a rolled-back transaction leaves no trace
in any snapshot.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.indexes import Index
from repro.engine.schema import TableSchema
from repro.errors import ConstraintViolation

_ROWID = itemgetter(0)

#: A committing writer collects a table it wrote once the row effects
#: stamped since the table's last collection exceed this share of its
#: live rows plus :data:`SETTLE_FLOOR` (``Database._publish_commit``).
SETTLE_FRACTION = 1 / 8
SETTLE_FLOOR = 256


class RowVersion:
    """One generation of a row: its values and its commit lifetime."""

    __slots__ = ("created_cn", "deleted_cn", "row")

    def __init__(self, created_cn: int, deleted_cn: Optional[int],
                 row: List[Any]):
        self.created_cn = created_cn
        self.deleted_cn = deleted_cn
        self.row = row

    def __repr__(self) -> str:
        return (f"<RowVersion [{self.created_cn}, "
                f"{self.deleted_cn if self.deleted_cn is not None else '∞'}) "
                f"{self.row!r}>")


def _visible(chain: List[RowVersion], cn: int) -> Optional[List[Any]]:
    """The row of the version in ``chain`` visible at ``cn`` (or None)."""
    for version in reversed(tuple(chain)):
        deleted = version.deleted_cn
        if version.created_cn <= cn and (deleted is None or cn < deleted):
            return version.row
    return None


class TableStorage:
    """Rows plus version chains plus secondary indexes for one table."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: Dict[int, List[Any]] = {}
        self._next_rowid = 1
        self.indexes: Dict[str, Index] = {}
        # Version chains of the rows that are not settled, keyed by
        # rowid.  Guarded by the *owning database's* exclusive lock
        # (the analyzer's "engine-exclusive" virtual guard): only
        # mutated while that lock (or single-threaded recovery)
        # serializes writers; snapshot readers walk it lock-free.
        self._versions: Dict[int, List[RowVersion]] = {}  # guarded-by: engine-exclusive
        # Whether ``rows`` iterates in rowid order.  Only a rolled-back
        # delete (or a replayed insert) can put a rowid behind a larger
        # one; keyed DML reads index candidates in rowid order and
        # uses them only while it equals the live-scan order.
        self.in_rowid_order = True  # guarded-by: engine-exclusive
        # Highest commit number any effect on this table was stamped
        # with.  Bumped BEFORE the first mutation of a statement so
        # the snapshot fast path's copy-then-recheck is race-free.
        self._last_version_cn = 0  # guarded-by: engine-exclusive
        # Highest commit number of an effect other than an append
        # (module docstring): a result remembered at a stamp below it
        # is neither reused nor continued.
        self._rewritten_cn = 0  # guarded-by: engine-exclusive
        # Row effects stamped since the last collection (the settle
        # mark the committing writer compares with the table's size).
        self._since_collect = 0  # guarded-by: engine-exclusive
        # The commit-number clock: attached by the owning Database
        # (returns committed_cn + 1, the number the in-flight
        # transaction will commit as).  Stand-alone storages fall back
        # to a local counter so unit tests of this class still get
        # coherent lifetimes.
        self._clock: Optional[Callable[[], int]] = None
        self._local_cn = 0
        # Optional concurrency-sanitizer hook (duck-typed
        # StorageMonitor); None in production, so the per-mutation
        # cost is one attribute test.
        self._monitor = None
        # Unique constraints (incl. the primary key) get an implicit index.
        for column in schema.columns:
            if column.unique:
                self.add_index(
                    f"__uniq_{schema.name}_{column.name}".lower(),
                    [column.name],
                    unique=True,
                )

    def __len__(self) -> int:
        return len(self.rows)

    def attach_monitor(self, monitor) -> None:
        """Start reporting reads/mutations to a sanitizer monitor."""
        self._monitor = monitor

    def attach_clock(self, clock: Callable[[], int]) -> None:
        """Stamp future effects with commit numbers from ``clock``."""
        self._clock = clock

    def _stamp(self) -> int:  # requires: engine-exclusive
        """The commit number for this mutation's effects.

        Publishes the bump to ``_last_version_cn`` *before* the caller
        touches ``rows`` — the ordering the lock-free snapshot fast
        path depends on.
        """
        if self._clock is not None:
            cn = self._clock()
        else:
            self._local_cn += 1
            cn = self._local_cn
        if cn > self._last_version_cn:
            self._last_version_cn = cn
        self._since_collect += 1
        return cn

    def _rewrite(self, cn: int) -> None:  # requires: engine-exclusive
        """Note an effect at ``cn`` that is not an append."""
        if cn > self._rewritten_cn:
            self._rewritten_cn = cn

    # -- indexes ------------------------------------------------------------

    def add_index(self, name: str, column_names: List[str],
                  unique: bool = False) -> Index:
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        positions = [self.schema.column_index(c) for c in column_names]
        index = Index(name, column_names, positions, unique=unique)
        # Retained (superseded) versions are indexed too, so a snapshot
        # pinned before this DDL can still reach its rows through the
        # new index.
        index.rebuild(self.rows, self._versions)
        self.indexes[name.lower()] = index
        return index

    def drop_index(self, name: str) -> None:
        self.indexes.pop(name.lower(), None)

    def add_column(self, column) -> None:
        """Extend the schema and backfill existing rows.

        Existing rows take the column default; a NOT NULL column
        without a default is rejected when rows already exist.  DDL is
        not snapshot-isolated: retained versions are widened in place
        so older snapshots keep reading positionally-valid rows.
        """
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        if column.default is None and not column.nullable and self.rows:
            raise ConstraintViolation(
                f"cannot add NOT NULL column {column.name!r} without "
                f"a default to non-empty table {self.schema.name!r}")
        old_width = len(self.schema.columns)
        self.schema.add_column(column)
        # Live rows and version rows share list objects; the width
        # check appends the default exactly once per distinct object.
        for row in self.rows.values():
            if len(row) == old_width:
                row.append(column.default)
        for chain in self._versions.values():
            for version in chain:
                if len(version.row) == old_width:
                    version.row.append(column.default)
        if column.unique:
            self.add_index(
                f"__uniq_{self.schema.name}_{column.name}".lower(),
                [column.name], unique=True)

    # -- mutations ----------------------------------------------------------

    def _put_row(self, rowid: int, row: List[Any]) -> None:  # requires: engine-exclusive
        """Add ``rowid`` to ``rows``, noting when it lands behind a
        larger rowid (the dict keeps insertion order)."""
        rows = self.rows
        if rows and next(reversed(rows)) > rowid:
            self.in_rowid_order = False
        rows[rowid] = row

    def _add_live(self, rowid: int, row: List[Any], cn: int) -> None:  # requires: engine-exclusive
        """Enter a new live row: chain first, then ``rows``, then the
        indexes — so no reader can find it without its lifetime."""
        chain = self._versions.get(rowid)
        if chain is None:
            self._versions[rowid] = [RowVersion(cn, None, row)]
        else:
            chain.append(RowVersion(cn, None, row))
        self._put_row(rowid, row)
        for index in self.indexes.values():
            index.insert(rowid, row)

    def insert(self, row: List[Any]) -> int:  # requires: engine-exclusive
        """Insert a coerced row, returning its rowid."""
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        rowid = self._next_rowid
        for index in self.indexes.values():
            index.check_unique(rowid, row, self.schema.name,
                               live_rows=self.rows)
        cn = self._stamp()
        self._next_rowid += 1
        self._add_live(rowid, row, cn)
        return rowid

    def delete(self, rowid: int) -> List[Any]:  # requires: engine-exclusive
        """Delete a row by rowid, returning the old row (for undo).

        The index entries and the superseded version stay behind for
        snapshot readers; the version is merely stamped dead at this
        commit number.
        """
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        row = self.rows[rowid]
        cn = self._stamp()
        self._rewrite(cn)
        chain = self._versions.get(rowid)
        if chain is None:
            # Settled until now: visible to every snapshot from 0.
            self._versions[rowid] = [RowVersion(0, cn, row)]
        else:
            chain[-1].deleted_cn = cn
        del self.rows[rowid]
        return row

    def update(self, rowid: int, new_row: List[Any]) -> List[Any]:  # requires: engine-exclusive
        """Replace a row in place, returning the old row (for undo)."""
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        old_row = self.rows[rowid]
        # Only an index whose key the update moves gains an entry; the
        # live row already holds its unchanged key in every other one.
        moved = [index for index in self.indexes.values()
                 if index.changed(old_row, new_row)]
        for index in moved:
            index.check_unique(rowid, new_row, self.schema.name,
                               live_rows=self.rows)
        cn = self._stamp()
        self._rewrite(cn)
        chain = self._versions.get(rowid)
        if chain is None:
            # Settled until now: the chain is published whole, before
            # ``rows`` changes.
            self._versions[rowid] = [RowVersion(0, cn, old_row),
                                     RowVersion(cn, None, new_row)]
        else:
            chain[-1].deleted_cn = cn
            chain.append(RowVersion(cn, None, new_row))
        self.rows[rowid] = new_row
        # The old-key entries stay as tombstones; only the new key is
        # added.  Readers verify candidates against the fetched row.
        for index in moved:
            index.insert(rowid, new_row)
        return old_row

    def restore(self, rowid: int, row: List[Any]) -> None:  # requires: engine-exclusive
        """Re-insert a previously deleted row under its original rowid
        (WAL replay of a committed insert)."""
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        if rowid in self.rows:
            raise ConstraintViolation(
                f"rowid {rowid} already present in {self.schema.name}")
        cn = self._stamp()
        if rowid < self._next_rowid:
            self._rewrite(cn)
        self._next_rowid = max(self._next_rowid, rowid + 1)
        self._add_live(rowid, row, cn)

    def unallocate(self, rowid: int) -> None:  # requires: engine-exclusive
        """Roll the rowid counter back past an undone insert.

        Rollback replays insert-undos in reverse allocation order, so
        winding the counter to the lowest undone rowid restores the
        pre-transaction value — keeping the live state identical to
        what WAL recovery (which never sees the aborted inserts)
        would rebuild.
        """
        self._rewrite(self._last_version_cn)
        self._next_rowid = min(self._next_rowid, rowid)

    # -- rollback unwinding ---------------------------------------------------

    def undo_insert(self, rowid: int) -> None:  # requires: engine-exclusive
        """Unwind an aborted insert: drop the row, kill its version.

        Unlike :meth:`delete` the version dies at its own stamp, so it
        is visible at *no* commit number — an aborted effect must be
        invisible everywhere.
        """
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        # The undone effect carried the in-flight number, which no
        # later stamp can have passed yet.
        self._rewrite(self._last_version_cn)
        self.rows.pop(rowid, None)
        chain = self._versions.get(rowid)
        if chain:
            # The dead version stays until collection: a reader that
            # read the row before the pop must still find a chain, and
            # collection keeps it while such a reader's snapshot is open.
            chain[-1].deleted_cn = chain[-1].created_cn

    def undo_delete(self, rowid: int, row: List[Any]) -> None:  # requires: engine-exclusive
        """Unwind an aborted delete: clear the death stamp."""
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        self._rewrite(self._last_version_cn)
        # A delete always leaves a chain, and no collection runs
        # inside a transaction.
        self._versions[rowid][-1].deleted_cn = None
        self._put_row(rowid, row)

    def undo_update(self, rowid: int, old_row: List[Any]) -> None:  # requires: engine-exclusive
        """Unwind an aborted update: pop the new version, revive the old."""
        if self._monitor is not None:
            self._monitor.on_write(self.schema.name)
        self._rewrite(self._last_version_cn)
        self.rows[rowid] = old_row
        # An update always leaves the old and the new version.
        chain = self._versions[rowid]
        chain.pop()
        chain[-1].deleted_cn = None

    # -- snapshot visibility --------------------------------------------------

    def visible_row(self, rowid: int, cn: int) -> Optional[List[Any]]:
        """The row version visible at commit number ``cn`` (or None)."""
        row = self.rows.get(rowid)  # before _versions: rule (2)
        chain = self._versions.get(rowid)
        if chain is None:
            return row
        return _visible(chain, cn)

    def fetch(self, rowids: Sequence[int], cn: int) -> List[List[Any]]:
        """The rows of ``rowids`` visible at commit number ``cn``, in
        that order, the invisible ones left out.

        Lock-free, with :meth:`snapshot_rows`'s fast path: when no
        effect newer than ``cn`` was stamped before or after the live
        rows are read, they *are* the versions visible at ``cn`` and no
        chain is walked.  Otherwise each row goes through
        :meth:`visible_row`.
        """
        if self._monitor is not None:
            self._monitor.on_snapshot_read(self.schema.name, cn)
        if self._last_version_cn <= cn:
            get = self.rows.get
            fetched = [get(rowid) for rowid in rowids]
            if self._last_version_cn <= cn:
                return [row for row in fetched if row is not None]
        visible = self.visible_row
        fetched = [visible(rowid, cn) for rowid in rowids]
        return [row for row in fetched if row is not None]

    def snapshot_rows(self, cn: int) -> List[Tuple[int, List[Any]]]:
        """All ``(rowid, row)`` pairs visible at commit number ``cn``.

        Lock-free.  Fast path: when no effect newer than ``cn`` has
        been stamped, the live dict *is* the snapshot — copy it and
        re-check the stamp counter to close the copy-during-write
        race.  Slow path: settled live rows as they are, chained rows
        through their chains, in rowid order when deleted rows are
        among them.
        """
        if self._monitor is not None:
            self._monitor.on_snapshot_read(self.schema.name, cn)
        if self._last_version_cn <= cn:
            items = list(self.rows.items())
            if self._last_version_cn <= cn:
                return items
        live = self.rows.copy()
        versions = self._versions  # loaded after rows: rule (2)
        visible: List[Tuple[int, List[Any]]] = []
        append = visible.append
        get = versions.get
        for rowid, row in live.items():
            chain = get(rowid)
            if chain is not None:
                row = _visible(chain, cn)
                if row is None:
                    continue
            append((rowid, row))
        deleted = [(rowid, old) for rowid, chain in list(versions.items())
                   if rowid not in live
                   and (old := _visible(chain, cn)) is not None]
        if deleted:
            visible.extend(deleted)
            visible.sort(key=_ROWID)
        return visible

    def version_count(self) -> int:
        """Retained versions, a settled row counting as one (GC
        observability)."""
        live = self.rows.copy()
        return len(live) + sum(len(chain) - (rowid in live)
                               for rowid, chain
                               in list(self._versions.items()))

    def settle_all(self, cn: int) -> None:  # requires: engine-exclusive
        """Mark every live row settled (snapshot load).

        Flat snapshots persist only the live rows, and the loaded
        database's commit number starts at the snapshot's ``cn``, so
        every snapshot it can open sees each row as it is.
        """
        self._versions = {}
        if cn > self._last_version_cn:
            self._last_version_cn = cn

    def wants_collection(self) -> bool:
        """Whether the row effects since the last collection passed the
        settle threshold (module docstring)."""
        return self._since_collect \
            > len(self.rows) * SETTLE_FRACTION + SETTLE_FLOOR

    def collect(self, horizon: int) -> int:  # requires: engine-exclusive
        """Reclaim versions no snapshot at or beyond ``horizon`` can see.

        A version is dead once ``deleted_cn <= horizon``: every open
        snapshot is pinned at ``>= horizon`` and new snapshots only
        pin later numbers (with none open it may pass the committed
        number, the stamp of aborted inserts).  A chain left holding
        one live version created at or before ``horizon`` is dropped:
        the row is settled.  Chains and every index's run are rebuilt into
        fresh structures and swapped in with single stores, so readers
        mid-walk keep the old (still correct) structures; a live dict
        out of rowid order is re-stored in order.  Returns the number
        of reclaimed versions.
        """
        fresh: Dict[int, List[RowVersion]] = {}
        reclaimed = 0
        for rowid, chain in self._versions.items():
            kept = [version for version in chain
                    if version.deleted_cn is None
                    or version.deleted_cn > horizon]
            reclaimed += len(chain) - len(kept)
            if len(kept) == 1 and kept[0].deleted_cn is None \
                    and kept[0].created_cn <= horizon:
                continue
            if kept:
                fresh[rowid] = kept
        if not self.in_rowid_order:
            # Scan order changes: nothing remembered before this may
            # be reused or continued (marked past every stamp so far).
            self._rewrite(self._last_version_cn + 1)
            self.rows = dict(sorted(self.rows.items(), key=_ROWID))
            self.in_rowid_order = True
        self._versions = fresh
        self._since_collect = 0
        for index in self.indexes.values():
            index.rebuild(self.rows, fresh)
        return reclaimed

    # -- state identity -------------------------------------------------------

    def fingerprint(self) -> Tuple[Any, ...]:
        """A hashable identity of this table's full durable state.

        Covers rows (with rowids), the rowid watermark and the index
        inventory — everything a crash/recover round trip must
        reproduce exactly.  The chaos battery compares fingerprints
        instead of re-querying so a torn row can never hide behind a
        lenient SELECT.  Retained versions are deliberately excluded:
        they are reclaimable cache, not durable state.
        """
        return (
            self.schema.name.lower(),
            tuple(sorted(
                (rowid, tuple(row))
                for rowid, row in self.rows.items())),
            self._next_rowid,
            tuple(sorted(
                (name, tuple(index.column_names), index.unique)
                for name, index in self.indexes.items())),
        )

    # -- scans ---------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[int, List[Any]]]:
        """Iterate live ``(rowid, row)`` pairs in insertion order.

        This is the *live* scan — writers and in-transaction reads
        under the exclusive lock.  Snapshot readers use
        :meth:`snapshot_rows` instead.
        """
        if self._monitor is not None:
            self._monitor.on_read(self.schema.name)
        # Copy the id list so callers may mutate during iteration.
        for rowid in list(self.rows):
            row = self.rows.get(rowid)
            if row is not None:
                yield rowid, row
