"""Ordered indexes with optional uniqueness enforcement.

Each index is one sorted *run* — parallel tuples of keys and rowids,
ordered by key — plus a small unsorted *tail* dict (key -> rowids) of
the entries added since the run was last built.  A point lookup, a
composite-prefix lookup and a range are each a bisect on the run plus
a filter of the tail; the writer whose insert grows the tail past
:data:`MERGE_FRACTION` of the run merges it in.  Building a run from a
table (CREATE INDEX, snapshot load, garbage collection) is one sort.

Keys are the bare column value for a single-column index and the value
tuple for a composite one.  A key part that is NULL (or NaN) compares
with nothing, so it never sits in the run: a single-column index, or a
composite one whose *first* part is NULL, has no use for such an entry
(no seek ever matches it), and a composite key with a NULL further in
goes to a side bucket that prefix seeks filter — ``tag = 'a'`` must
still find ``(tag='a', k=NULL)``; a range never matches NULL.

MVCC makes the index *append-mostly*: deleting or updating a row does
not remove its old key's entry, because a snapshot reader pinned at an
older commit number may still need to find that row through it.
Seeks therefore return candidates, which every reader verifies against
the row version it fetched (the planner applies the whole WHERE), and
uniqueness checks filter by liveness against the table's live rows.
Superseded entries are reclaimed when the storage's version garbage
collector rebuilds the run.

Publication: the run, the tail and the side bucket are published as
one tuple in one attribute store, and replaced whole by a merge or a
rebuild.  Lock-free snapshot readers load that tuple once and see
either the old state or the new one.  The writer adds to the current
tail and side dicts in place, whole bucket tuple per key, so a reader
sees a key's old rowids or its new ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter, le
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConstraintViolation

_Key = Tuple[Any, ...]
#: ``(value, inclusive)``: one end of a range, or None for an open end.
Bound = Optional[Tuple[Any, bool]]

#: The tail is merged into the run once it holds more entries than this
#: fraction of the run's (and at least :data:`MERGE_MIN_TAIL`):
#: a merge copies the run, so its cost per insert stays constant while
#: every range read filters a tail at most this share of the index.
MERGE_FRACTION = 1 / 32
MERGE_MIN_TAIL = 64


def unordered(value: Any) -> bool:
    """NULL, or NaN: a value no equality or range ever matches."""
    return value is None or value != value


def _sorted_run(keys: List[Any], rowids: List[int]) \
        -> Tuple[Tuple[Any, ...], Tuple[int, ...]]:
    """``keys`` and ``rowids`` as parallel tuples ordered by key: one
    sort of positions, never a list of ``(key, rowid)`` pairs."""
    if not all(map(le, keys, islice(keys, 1, None))):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return (tuple(map(keys.__getitem__, order)),
                tuple(map(rowids.__getitem__, order)))
    return tuple(keys), tuple(rowids)


def _add(bucket_dict: Dict[Any, Tuple[int, ...]], key: Any,
         rowid: int) -> bool:
    """Put ``rowid`` under ``key``; False when already there."""
    fresh = (rowid,)
    bucket = bucket_dict.setdefault(key, fresh)
    if bucket is fresh:
        return True
    if rowid in bucket:
        return False
    # Whole-bucket replacement keeps concurrent lookups atomic.
    bucket_dict[key] = bucket + fresh
    return True


def _in_bounds(value: Any, low: Bound, high: Bound) -> bool:
    if low is not None:
        bound, inclusive = low
        if value < bound if inclusive else value <= bound:
            return False
    if high is not None:
        bound, inclusive = high
        if value > bound if inclusive else value >= bound:
            return False
    return True


class Index:
    """An ordered index over one or more columns of a table.

    NULL keys never participate in uniqueness checks (mirroring SQL
    semantics where NULL != NULL).
    """

    def __init__(self, name: str, column_names: List[str],
                 positions: List[int], unique: bool = False):
        self.name = name
        self.column_names = list(column_names)
        self.positions = list(positions)
        self.unique = unique
        self._single = len(self.positions) == 1
        # A row's key: the bare value, or the tuple of a composite key.
        self._entry = itemgetter(*self.positions)
        # (run keys, run rowids, tail, side bucket); readers load it
        # once per seek.
        self._state: Tuple[Tuple[Any, ...], Tuple[int, ...],
                           Dict[Any, Tuple[int, ...]],
                           Dict[_Key, Tuple[int, ...]]] = \
            ((), (), {}, {})  # guarded-by: engine-exclusive
        # Entries the tail may still take before a merge.
        self._room = MERGE_MIN_TAIL  # guarded-by: engine-exclusive

    def __repr__(self) -> str:
        kind = "UNIQUE " if self.unique else ""
        return f"<{kind}Index {self.name} on ({', '.join(self.column_names)})>"

    def changed(self, old_row: List[Any], new_row: List[Any]) -> bool:
        """Whether an update from ``old_row`` to ``new_row`` moves the key."""
        return self._entry(old_row) != self._entry(new_row)

    def check_unique(self, rowid: int, row: List[Any], table: str,
                     live_rows: Optional[Dict[int, List[Any]]] = None) \
            -> None:
        """Raise if writing ``row`` as ``rowid`` would violate uniqueness.

        ``live_rows`` is the owning table's live-row dict; entries
        whose rowid is absent from it are MVCC tombstones and do not
        count.  ``None`` falls back to the pre-MVCC rule (every entry
        counts).
        """
        if not self.unique:
            return
        entry = self._entry
        key = entry(row)
        whole = (key,) if self._single else key
        if any(map(unordered, whole)):
            return
        run, buckets = self._parts(whole, None, None)
        for existing in chain(run, *buckets):
            if existing == rowid:
                continue
            if live_rows is not None:
                other = live_rows.get(existing)
                if other is None or entry(other) != key:
                    continue
            columns = ", ".join(self.column_names)
            raise ConstraintViolation(
                f"UNIQUE constraint failed: {table}({columns}) = {whole!r}")

    # -- writes ---------------------------------------------------------------

    def _place(self, key: Any) -> Optional[bool]:
        """Where ``key`` is filed: True in the run (through the tail),
        False in the side bucket, None nowhere."""
        if self._single:
            return None if unordered(key) else True
        if unordered(key[0]):
            return None
        return not any(map(unordered, key))

    def insert(self, rowid: int, row: List[Any]) -> None:  # requires: engine-exclusive
        key = self._entry(row)
        place = self._place(key)
        if place is None:
            return
        _keys, _rowids, tail, nulls = self._state
        if not place:
            _add(nulls, key, rowid)
        elif _add(tail, key, rowid):
            self._room -= 1
            if self._room < 0:
                self._merge()

    def _merge(self) -> None:  # requires: engine-exclusive
        """Fold the tail into a fresh run: the run is copied in slices
        between the tail's keys, which are the only ones sorted."""
        keys, rowids, tail, nulls = self._state
        merged_keys: List[Any] = []
        merged_rowids: List[int] = []
        start = 0
        for key in sorted(tail):
            cut = bisect_right(keys, key, start)
            merged_keys += keys[start:cut]
            merged_rowids += rowids[start:cut]
            bucket = tail[key]
            merged_keys += (key,) * len(bucket)
            merged_rowids += bucket
            start = cut
        merged_keys += keys[start:]
        merged_rowids += rowids[start:]
        self._publish(tuple(merged_keys), tuple(merged_rowids), nulls)

    def rebuild(self, rows: Dict[int, List[Any]], chains) -> None:  # requires: engine-exclusive
        """Build the run from the live ``rows`` plus the retained
        versions in ``chains`` (rowid -> row versions), with one sort.

        A version whose key its rowid already has adds nothing.  The
        fresh state is published with one attribute store, so readers
        mid-seek keep the old one.
        """
        entry = self._entry
        place_of = self._place
        keys: List[Any] = []
        rowids: List[int] = []
        nulls: Dict[_Key, Tuple[int, ...]] = {}

        def file(key: Any, rowid: int) -> None:
            place = place_of(key)
            if place:
                keys.append(key)
                rowids.append(rowid)
            elif place is not None:
                _add(nulls, key, rowid)

        for rowid, row in rows.items():
            file(entry(row), rowid)
        for rowid, versions in chains.items():
            live = rows.get(rowid)
            seen = set() if live is None else {entry(live)}
            for version in versions:
                key = entry(version.row)
                if key not in seen:
                    seen.add(key)
                    file(key, rowid)
        self._publish(*_sorted_run(keys, rowids), nulls)

    def _publish(self, keys, rowids, nulls) -> None:  # requires: engine-exclusive
        """Swap in a fresh run with an empty tail, in one store."""
        self._state = (keys, rowids, {}, nulls)
        self._room = max(MERGE_MIN_TAIL, int(len(keys) * MERGE_FRACTION))

    # -- seeks --------------------------------------------------------------------

    def _span(self, keys: Tuple[Any, ...], prefix: _Key, low: Bound,
              high: Bound) -> Tuple[int, int]:
        """The run positions ``[start, stop)`` a prefix or range seek
        covers."""
        width = len(prefix)
        start, stop = 0, len(keys)
        if self._single:
            # Bare keys compare whole with a bound's value.
            head = None
            probes = [None if bound is None else bound[0]
                      for bound in (low, high)]
        else:
            if width:
                group = itemgetter(slice(0, width))
                start = bisect_left(keys, prefix, key=group)
                stop = bisect_right(keys, prefix, start, key=group)
            # Key tuples cut to the prefix plus the bounded part.
            head = itemgetter(slice(0, width + 1))
            probes = [None if bound is None else prefix + (bound[0],)
                      for bound in (low, high)]
        if low is not None:
            seek = bisect_left if low[1] else bisect_right
            start = seek(keys, probes[0], start, stop, key=head)
        if high is not None:
            seek = bisect_right if high[1] else bisect_left
            stop = seek(keys, probes[1], start, stop, key=head)
        return start, stop

    def _buckets(self, tail: Dict[Any, Tuple[int, ...]],
                 nulls: Dict[_Key, Tuple[int, ...]], prefix: _Key,
                 low: Bound, high: Bound) -> Iterator[Tuple[int, ...]]:
        """The tail and side buckets a prefix or range seek takes.

        The published tail and side dicts are copied with ``dict.copy``
        (one C call) before iterating: a writer may add to them, and a
        per-entry copy allocates tuples that can start a collection,
        which can switch threads mid-copy."""
        if self._single:
            for key, bucket in tail.copy().items():
                if _in_bounds(key, low, high):
                    yield bucket
            return
        width = len(prefix)
        ranged = low is not None or high is not None
        for key, bucket in chain(tail.copy().items(),
                                 nulls.copy().items()):
            if key[:width] != prefix:
                continue
            if ranged and (unordered(key[width])
                           or not _in_bounds(key[width], low, high)):
                continue
            yield bucket

    def _parts(self, prefix: _Key, low: Bound, high: Bound) \
            -> Tuple[Tuple[int, ...], Iterable[Tuple[int, ...]]]:
        """The run slice and the tail buckets a seek takes, from one
        load of the published state.  A prefix part whose type does
        not compare with its column equals no key."""
        keys, rowids, tail, nulls = self._state
        try:
            if len(prefix) == len(self.positions):
                key = prefix[0] if self._single else prefix
                start = bisect_left(keys, key)
                bucket = tail.get(key)
                return (rowids[start:bisect_right(keys, key, start)],
                        (bucket,) if bucket else ())
            start, stop = self._span(keys, prefix, low, high)
        except TypeError:
            return (), ()
        return (rowids[start:stop],
                self._buckets(tail, nulls, prefix, low, high))

    def seek(self, prefix: _Key, low: Bound = None,
             high: Bound = None) -> List[int]:
        """Rowids (ascending, each once) whose key starts with
        ``prefix`` and, given bounds, whose next key part lies within
        them: a point lookup when ``prefix`` is the whole key.

        ``prefix`` holds no NULL and each bound value compares with the
        column (callers check).  Candidates may be MVCC tombstones:
        callers verify each against the row they fetch.
        """
        run, buckets = self._parts(prefix, low, high)
        found = list(run)
        for bucket in buckets:
            found += bucket
        if len(found) > 1:
            # One rowid under two keys in the range (an update moved
            # it) is one candidate.
            found = sorted(set(found))
        return found

    def estimate(self, prefix: _Key, low: Bound = None,
                 high: Bound = None) -> int:
        """The entries :meth:`seek` would return before de-duplication,
        counted from its bisect positions and the matching tail."""
        run, buckets = self._parts(prefix, low, high)
        return len(run) + sum(map(len, buckets))

    def sample(self) -> Optional[_Key]:
        """A key the index holds, as a tuple (the run's median when it
        has one), or None when it holds none."""
        keys, _rowids, tail, _nulls = self._state
        if keys:
            key = keys[len(keys) // 2]
        elif tail:
            key = next(iter(list(tail)))
        else:
            return None
        return (key,) if self._single else key

    def __len__(self) -> int:
        keys, _rowids, tail, nulls = self._state
        return len(keys) + sum(map(len, chain(list(tail.values()),
                                              list(nulls.values()))))
