"""Opt-in runtime race/deadlock sanitizer for the serving stack.

The static pass (:mod:`repro.analysis.concurrency.static`) checks the
*source*; this module checks *executions*.  With ``REPRO_SANITIZE=1``
in the environment (or ``Database(sanitize=True)``), every engine
database swaps its :class:`~repro.engine.locking.WriterLock` for a
:class:`SanitizedWriterLock` and attaches a
:class:`StorageMonitor` to its table storages.  The sanitizer then
watches three invariants while real workloads run:

* **lock ordering** — each successful acquisition made while other
  sanitized locks are held adds an edge to a process-wide runtime
  lock-order graph; a cycle means two threads can deadlock, even if
  this run happened to get away with it;
* **write-without-exclusive-lock** — every
  :class:`~repro.engine.storage.TableStorage` mutation must run on a
  thread that holds its database's writer lock (recovery replay,
  which is single-threaded by construction, is exempt via the
  database's ``_suppress_redo`` flag);
* **reader-sees-writer** — a *raw* scan while *another* thread holds
  the writer lock has observed state mid-mutation (MVCC snapshot
  reads are exempt: they read version chains, not the live rows);
* **snapshot-sees-future** — an MVCC snapshot read pinned at a commit
  number the database has not yet published would observe effects of
  an uncommitted (or unborn) transaction.

Violations never raise into the workload: they accumulate as
structured :class:`SanitizerReport` records on a
:class:`ConcurrencySanitizer`, and the test batteries assert the
report list is empty.  The lock state needed for the checks comes
from the public :meth:`~repro.engine.locking.WriterLock.owner`
introspection API — the sanitizer never reaches into lock privates.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.locking import WriterLock

#: Environment variable that turns the sanitizer on platform-wide.
SANITIZE_ENV = "REPRO_SANITIZE"
_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for sanitized databases."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class SanitizerReport:
    """One observed violation of a runtime concurrency invariant."""

    kind: str       # lock-order-inversion | unsynchronized-write |
                    # reader-sees-writer | snapshot-sees-future
    message: str
    thread: str
    #: Extra context: lock labels, table/database names.
    details: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        extra = "".join(f" {key}={value}"
                        for key, value in self.details)
        return f"[{self.kind}] {self.message} (thread {self.thread}" \
               f"{extra})"


class ConcurrencySanitizer:
    """Collects acquisition history and invariant violations.

    One sanitizer spans every database opted into it (the module
    default spans the process), because deadlocks live *between*
    locks: a cycle across two databases' locks is exactly the bug a
    per-database view would miss.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.reports: List[SanitizerReport] = []   # guarded-by: _mutex
        #: Lock id -> human label for reports.
        self._labels: Dict[int, str] = {}          # guarded-by: _mutex
        #: Runtime lock-order edges with a first-witness description.
        self._edges: Dict[Tuple[int, int], str] = {}  # guarded-by: _mutex
        self._reported_cycles: Set[Tuple[int, ...]] = set()  # guarded-by: _mutex
        #: Thread ident -> stack of lock ids it holds (with reentry).
        self._held = threading.local()
        #: Total acquisitions observed (cheap liveness signal for
        #: "the battery really ran sanitized" assertions).
        self.acquisitions = 0                      # guarded-by: _mutex
        #: Total MVCC snapshot reads validated (liveness signal: under
        #: MVCC the read path takes no lock, so acquisitions alone
        #: would undercount how much the sanitizer actually watched).
        self.snapshot_reads = 0                    # guarded-by: _mutex

    # -- bookkeeping ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def register_lock(self, lock: "SanitizedWriterLock",
                      label: str) -> None:
        with self._mutex:
            self._labels[id(lock)] = label

    def _label(self, lock_id: int) -> str:
        return self._labels.get(lock_id, f"lock@{lock_id:#x}")

    def report(self, kind: str, message: str,
               **details: str) -> SanitizerReport:
        entry = SanitizerReport(
            kind=kind, message=message,
            thread=threading.current_thread().name,
            details=tuple(sorted(details.items())))
        with self._mutex:
            self.reports.append(entry)
        return entry

    # -- lock events ---------------------------------------------------------

    def before_acquire(self, lock: "SanitizedWriterLock") -> None:
        """Record order edges from every held lock to this one.

        Called *before* blocking: a pair of threads about to deadlock
        still contributes both edges, so the inversion is on record
        even when the run hangs (the batteries' join timeouts turn
        that into a failure with the graph available post-mortem).
        """
        stack = self._stack()
        if not stack:
            return
        target = id(lock)
        if target in stack:
            return  # reentrant re-acquisition, not an ordering event
        new_edges = []
        for source in dict.fromkeys(stack):
            if source != target:
                new_edges.append((source, target))
        with self._mutex:
            for edge in new_edges:
                if edge not in self._edges:
                    self._edges[edge] = (
                        f"{threading.current_thread().name} acquired "
                        f"{self._label(edge[1])} while "
                        f"holding {self._label(edge[0])}")
            cycle = self._find_cycle_locked()
        if cycle is not None:
            self._report_cycle(cycle)

    def after_acquire(self, lock: "SanitizedWriterLock") -> None:
        self._stack().append(id(lock))
        with self._mutex:
            self.acquisitions += 1

    def count_snapshot_read(self) -> None:
        with self._mutex:
            self.snapshot_reads += 1

    def after_release(self, lock: "SanitizedWriterLock") -> None:
        stack = self._stack()
        target = id(lock)
        # Pop the most recent hold of this lock (reentrant holds
        # release innermost-first).
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == target:
                del stack[position]
                return

    # -- cycle detection -----------------------------------------------------

    def _find_cycle_locked(self) -> Optional[List[int]]:  # requires: _mutex
        """A cycle in the edge graph, if any (mutex already held)."""
        graph: Dict[int, List[int]] = {}
        for source, target in self._edges:
            graph.setdefault(source, []).append(target)
            graph.setdefault(target, [])
        visiting: Set[int] = set()
        done: Set[int] = set()
        path: List[int] = []

        def visit(node: int) -> Optional[List[int]]:
            visiting.add(node)
            path.append(node)
            for successor in graph[node]:
                if successor in visiting:
                    return path[path.index(successor):]
                if successor not in done:
                    found = visit(successor)
                    if found is not None:
                        return found
            visiting.discard(node)
            done.add(node)
            path.pop()
            return None

        for node in graph:
            if node not in done:
                found = visit(node)
                if found is not None:
                    cycle = tuple(sorted(found))
                    if cycle in self._reported_cycles:
                        return None
                    self._reported_cycles.add(cycle)
                    return found
        return None

    def _report_cycle(self, cycle: List[int]) -> None:
        labels = [self._label(lock_id) for lock_id in cycle]
        with self._mutex:
            witnesses = [
                description
                for (source, target), description
                in sorted(self._edges.items())
                if source in cycle and target in cycle]
        self.report(
            "lock-order-inversion",
            f"cyclic acquisition order between "
            f"{', '.join(sorted(labels))}: " + "; ".join(witnesses),
            locks=",".join(sorted(labels)))

    # -- results -------------------------------------------------------------

    def render(self) -> str:
        with self._mutex:
            reports = list(self.reports)
        lines = [str(report) for report in reports]
        lines.append(f"{len(reports)} sanitizer report(s), "
                     f"{self.acquisitions} acquisition(s) observed")
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise AssertionError when any violation was recorded."""
        with self._mutex:
            count = len(self.reports)
        if count:
            raise AssertionError(self.render())


class SanitizedWriterLock(WriterLock):
    """A :class:`WriterLock` that narrates to a sanitizer.

    Same semantics, same fairness: only the acquisition/release
    events are mirrored into the sanitizer's per-thread history.
    """

    def __init__(self, label: str,
                 sanitizer: ConcurrencySanitizer) -> None:
        super().__init__()
        self.label = label
        self.sanitizer = sanitizer
        sanitizer.register_lock(self, label)

    def acquire_write(self) -> None:
        self.sanitizer.before_acquire(self)
        super().acquire_write()
        self.sanitizer.after_acquire(self)

    def release_write(self) -> None:
        super().release_write()
        self.sanitizer.after_release(self)


class StorageMonitor:
    """Checks storage access against the owning database's lock."""

    def __init__(self, database, sanitizer: ConcurrencySanitizer):
        self._database = database
        self._sanitizer = sanitizer

    def on_write(self, table: str) -> None:
        database = self._database
        if database._suppress_redo:
            # Recovery replay runs single-threaded before the
            # database is shared; the lock contract starts after.
            return
        if not database._lock.owned_exclusively():
            self._sanitizer.report(
                "unsynchronized-write",
                f"table {table!r} of database {database.name!r} "
                f"mutated without the exclusive lock",
                database=database.name, table=table)

    def on_read(self, table: str) -> None:
        if self._database._lock.owner() not in (
                None, threading.get_ident()):
            self._sanitizer.report(
                "reader-sees-writer",
                f"table {table!r} of database "
                f"{self._database.name!r} scanned while another "
                f"thread holds the exclusive lock",
                database=self._database.name, table=table)

    def on_snapshot_read(self, table: str, cn: int) -> None:
        """Validate an MVCC snapshot read against the commit horizon.

        Snapshot reads take no lock, so the pre-MVCC
        reader-sees-writer check does not apply; what must hold
        instead is that the snapshot is pinned at a commit number the
        database has actually published — a snapshot "from the
        future" would admit rows whose transaction has not committed.
        """
        self._sanitizer.count_snapshot_read()
        if cn > self._database.committed_cn:
            self._sanitizer.report(
                "snapshot-sees-future",
                f"table {table!r} of database "
                f"{self._database.name!r} read through a snapshot "
                f"pinned at cn={cn} beyond the committed horizon "
                f"cn={self._database.committed_cn}",
                database=self._database.name, table=table,
                cn=str(cn))


# -- the process-wide default sanitizer ----------------------------------------

_default: Optional[ConcurrencySanitizer] = None
_default_mutex = threading.Lock()


def default_sanitizer() -> ConcurrencySanitizer:
    """The process-wide sanitizer ``REPRO_SANITIZE=1`` databases use."""
    global _default
    with _default_mutex:
        if _default is None:
            _default = ConcurrencySanitizer()
        return _default


def reset_default_sanitizer() -> ConcurrencySanitizer:
    """Install (and return) a fresh default sanitizer.

    Tests call this between scenarios so one battery's acquisition
    graph cannot leak edges into the next.
    """
    global _default
    with _default_mutex:
        _default = ConcurrencySanitizer()
        return _default
