"""The writer lock of the embedded engine.

The ODBIS economics (paper §2) hinge on one shared physical backend
serving many tenants at once, so the engine must admit overlapping
statements safely.  Readers need no lock for that: a SELECT / EXPLAIN
outside a transaction runs against an MVCC snapshot pinned at the
committed commit number.  What is left to serialize is mutation, and
each :class:`~repro.engine.database.Database` carries one
:class:`WriterLock` for it: DML, DDL, transaction scopes, checkpoints,
whole-database snapshots and replica apply take it — one writer at a
time, while snapshot readers proceed untouched.

The lock is reentrant per thread, which is what lets an explicit
transaction hold it across every statement it runs (``BEGIN``
acquires, ``COMMIT``/``ROLLBACK`` release), so no other thread can
disturb uncommitted state; a SELECT inside the transaction reads the
live rows under that hold.

:meth:`WriterLock.owner` is the introspection the runtime concurrency
sanitizer (``repro.analysis.concurrency``) builds its checks on, so
tooling never has to reach into the private state.
:func:`writer_locks_held` counts, per thread, the writer locks the
thread holds, so code that must never block or run foreign work
under one (a gateway wait) can refuse for one thread-local read.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

_held = threading.local()


def writer_locks_held() -> int:
    """How many database writer locks the calling thread holds."""
    return getattr(_held, "count", 0)


class WriterLock:
    """A mutex that its holding thread may re-acquire.

    Invariant: ``_writer`` names the one thread holding the lock
    ``_writer_depth`` times, or is None with depth 0.  The hold is
    released when its depth returns to zero.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._writer: Optional[int] = None    # guarded-by: _cond
        self._writer_depth = 0                # guarded-by: _cond

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            while self._writer is not None:
                self._cond.wait()
            self._writer = me
            self._writer_depth = 1
            _held.count = writer_locks_held() + 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError(
                    "release_write by a thread that does not hold "
                    "the lock")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()
                _held.count -= 1

    @contextmanager
    def exclusive(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection -------------------------------------------------------

    def owner(self) -> Optional[int]:
        """Ident of the thread holding the lock, or None (idle)."""
        with self._cond:
            return self._writer

    def owned_exclusively(self) -> bool:
        """True when the calling thread holds the lock."""
        return self.owner() == threading.get_ident()

    def require_exclusive(self, what: str) -> None:
        """Assert the calling thread holds the lock.

        The durability layer leans on this: a WAL commit is only
        correct while the writer lock serializes mutations, so the
        flush path asserts the invariant instead of trusting every
        caller to have taken it.
        """
        if not self.owned_exclusively():
            raise RuntimeError(
                f"{what} requires the database's writer lock")
