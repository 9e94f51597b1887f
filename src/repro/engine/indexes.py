"""Hash indexes with optional uniqueness enforcement.

MVCC makes the buckets *append-mostly*: deleting or updating a row does
not remove its rowid from the bucket of its old key, because a snapshot
reader pinned at an older commit number may still need to find that row
through the index.  Instead every reader verifies a candidate against
the row version it actually fetched (``key_for(row) == key``), so stale
entries are filtered at read time, and uniqueness checks filter by
liveness against the table's live-row dict.  Superseded entries are
physically reclaimed when the storage's version garbage collector
rebuilds the buckets.

Buckets are kept small because most keys hold one row: a single-column
index is keyed on the bare column value (a composite one on the value
tuple), and a bucket is a bare rowid until its key gains a second
rowid, then an immutable *tuple* of rowids.  Buckets are only ever
replaced whole, so lock-free snapshot readers can look keys up while a
writer appends — they see either the old bucket or the new one, never
a half-mutated set.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConstraintViolation

_Key = Tuple[Any, ...]
#: One rowid, or a tuple of two or more.
_Bucket = Union[int, Tuple[int, ...]]


def _rowids(bucket: Optional[_Bucket]) -> Tuple[int, ...]:
    if bucket is None:
        return ()
    if bucket.__class__ is tuple:
        return bucket
    return (bucket,)


def _add(buckets: Dict[Any, _Bucket], key: Any, rowid: int) -> bool:
    """Put ``rowid`` in ``key``'s bucket; False when already there."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = rowid
    elif bucket.__class__ is tuple:
        if rowid in bucket:
            return False
        # Whole-bucket replacement keeps concurrent lookups atomic.
        buckets[key] = bucket + (rowid,)
    elif bucket == rowid:
        return False
    else:
        buckets[key] = (bucket, rowid)
    return True


class Index:
    """A hash index over one or more columns of a table.

    The index maps column values to the rowids that hold (or once
    held) those values.  NULL keys are indexed but never participate
    in uniqueness checks (mirroring SQL semantics where NULL != NULL).
    """

    def __init__(self, name: str, column_names: List[str],
                 positions: List[int], unique: bool = False):
        self.name = name
        self.column_names = list(column_names)
        self.positions = list(positions)
        self.unique = unique
        # Single-column buckets are keyed on the value, not a 1-tuple.
        self._single = len(self.positions) == 1
        self._buckets: Dict[Any, _Bucket] = {}
        # Maintained entry count: ``__len__`` feeds planner cardinality
        # estimates from lock-free readers, which must never iterate
        # the bucket dict while a writer resizes it.
        self._entries = 0

    def __repr__(self) -> str:
        kind = "UNIQUE " if self.unique else ""
        return f"<{kind}Index {self.name} on ({', '.join(self.column_names)})>"

    def key_for(self, row: List[Any]) -> _Key:
        return tuple(row[position] for position in self.positions)

    def _bucket_key(self, row: List[Any]) -> Any:
        if self._single:
            return row[self.positions[0]]
        return tuple(row[position] for position in self.positions)

    def _probe(self, key: _Key) -> Any:
        """The bucket key of a full key tuple."""
        return key[0] if self._single else tuple(key)

    def check_unique(self, rowid: int, row: List[Any], table: str,
                     live_rows: Optional[Dict[int, List[Any]]] = None) \
            -> None:
        """Raise if writing ``row`` as ``rowid`` would violate uniqueness.

        ``live_rows`` is the owning table's live-row dict; bucket
        entries whose rowid is absent from it are MVCC tombstones and
        do not count.  ``None`` falls back to the pre-MVCC rule (every
        entry counts).
        """
        if not self.unique:
            return
        key = self.key_for(row)
        if any(part is None for part in key):
            return
        for existing in _rowids(self._buckets.get(self._probe(key))):
            if existing == rowid:
                continue
            if live_rows is not None:
                other = live_rows.get(existing)
                if other is None or self.key_for(other) != key:
                    continue
            columns = ", ".join(self.column_names)
            raise ConstraintViolation(
                f"UNIQUE constraint failed: {table}({columns}) = {key!r}")

    def insert(self, rowid: int, row: List[Any]) -> None:
        if _add(self._buckets, self._bucket_key(row), rowid):
            self._entries += 1

    def rebuild(self, rows: Iterable[Tuple[int, List[Any]]]) -> None:
        """Swap in fresh buckets built from ``(rowid, row)`` pairs.

        The new dict is built on the side and published with one
        attribute store, so readers mid-lookup keep the old buckets.
        """
        fresh: Dict[Any, _Bucket] = {}
        count = 0
        for rowid, row in rows:
            if _add(fresh, self._bucket_key(row), rowid):
                count += 1
        self._buckets = fresh
        self._entries = count

    def lookup(self, key: _Key) -> Tuple[int, ...]:
        """Rowids whose indexed columns equal (or once equalled) ``key``.

        Callers must verify each candidate against the row version they
        fetch — entries may be MVCC tombstones for superseded versions.
        """
        return _rowids(self._buckets.get(self._probe(key)))

    def lookup_prefix(self, prefix: _Key) -> Tuple[int, ...]:
        """Rowids whose leading indexed columns equal ``prefix``.

        A hash index cannot seek on a prefix, so this walks the buckets;
        it still wins over a table scan when the residual predicates are
        expensive or the matching fraction is small.
        """
        wanted = tuple(prefix)
        width = len(wanted)
        if width == len(self.positions):
            return self.lookup(wanted)
        out: List[int] = []
        # list() over items() is a single C-level copy, safe against a
        # concurrent writer resizing the dict under a lock-free reader.
        # (A prefix is shorter than the key, so keys here are tuples.)
        for key, bucket in list(self._buckets.items()):
            if key[:width] == wanted:
                out.extend(_rowids(bucket))
        return tuple(dict.fromkeys(out))

    def bucket_count(self) -> int:
        """Number of distinct keys (the planner's cardinality estimate)."""
        return len(self._buckets)

    def __len__(self) -> int:
        return self._entries
