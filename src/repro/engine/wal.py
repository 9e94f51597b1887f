"""Write-ahead logging: crash-consistent durability for the engine.

PR 4 made whole-database snapshots atomic; this module closes the
durability gap *between* snapshots.  Every committed mutation is
appended to a per-database redo log before the commit is acknowledged,
so a process that dies at any byte of any write can be recovered to
exactly the prefix of transactions whose commit record reached the
file — never a torn row, never a lost acknowledged commit (at
``fsync='always'``).

The on-disk format is deliberately boring:

* an 8-byte magic header (``ODBISWAL``);
* then framed records — a 4-byte big-endian payload length, a 4-byte
  CRC32 of the payload, and the pickled payload itself.

A reader walks frames until it runs out of intact bytes; a short
header, a short payload or a checksum mismatch ends the scan *there*
(everything before it is trusted, everything from it on is the torn
tail a crash left).  Two record vocabularies share the framing:

* the engine WAL (:class:`WriteAheadLog`) writes ``("op", redo_op)``
  records followed by one ``("commit", n)`` record per transaction —
  an ``executemany`` batch or an explicit BEGIN…COMMIT scope is one
  commit record, so recovery replays all of it or none of it;
* a journal (:class:`JournalLog`) appends one self-contained record
  per event and reads back whatever prefix survives.

What counts as *committed* has one definition —
:func:`scan_frames` then :func:`committed_transactions` — and two
readers built on it: :func:`committed_prefix` decodes the whole file
(crash recovery, failover), :func:`committed_since` decodes only what
was appended after a remembered commit record (a read replica tailing
its primary), falling back to the whole file when that record is no
longer where it was.

The ``fsync`` policy knob trades latency for the durability window:
``always`` fsyncs every commit (nothing acknowledged is ever lost),
``batch`` fsyncs every ``batch_size`` commits (a crash may lose the
unsynced suffix, but what the OS wrote back survives), ``off`` never
fsyncs (crash consistency still holds — the log is self-validating —
but an OS-level power cut may roll further back).

Crash-point injection rides the same write path: when a
:class:`~repro.core.resilience.FaultInjector` with a registered crash
point is attached, the append writes exactly the bytes up to the
crash offset and raises :class:`~repro.errors.CrashPoint`, so the
chaos battery can kill the "process" at every byte of the log and
assert the recovery invariant deterministically.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from repro.errors import WalError

#: File magic: identifies (and versions) the framed-log format.
MAGIC = b"ODBISWAL"

#: Frame header: payload length then CRC32, both unsigned big-endian.
_FRAME = struct.Struct(">II")

#: The three fsync-on-commit policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "off")

#: Commits between fsyncs under the ``batch`` policy.  Calibrated so
#: the amortized fsync cost stays well under the per-statement work of
#: even the cheapest autocommit insert (the E15 bound is 3x).
DEFAULT_BATCH_SIZE = 16


def _fsync_directory(directory: Union[str, Path]) -> None:
    """Best-effort fsync of a directory (persists renames/creates).

    ``os.replace`` makes a snapshot swap atomic, but the *rename
    itself* lives in the directory inode and can be lost on power
    failure unless the directory is fsynced too.  Platforms without
    directory file descriptors (or filesystems that refuse to fsync
    them) are forgiven — the call is then a no-op, which is the best
    the platform offers.
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX platforms
        return
    try:
        fd = os.open(str(directory), flags)
    except OSError:  # pragma: no cover - unreadable parent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs refuses dir fsync
        pass
    finally:
        os.close(fd)


def frame_record(payload: Any) -> bytes:
    """One framed record: length + CRC32 + pickled payload."""
    data = pickle.dumps(payload)
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


def scan_frames(data: bytes) \
        -> Tuple[List[Tuple[Any, int]], int, Optional[str]]:
    """Walk framed records in ``data`` (which includes the magic).

    Returns ``(entries, good_length, tail_reason)`` where ``entries``
    pairs each intact record with the byte offset just past its frame,
    ``good_length`` is the last trustworthy byte offset, and
    ``tail_reason`` says why the scan stopped early (``None`` when the
    whole file is intact): ``torn-header``, ``torn-record`` or
    ``bad-checksum``.  A file whose first bytes are not the magic is a
    format error, not a crash artifact, and raises
    :class:`~repro.errors.WalError`.
    """
    if len(data) < len(MAGIC):
        # The magic itself was torn: nothing in the file is usable.
        return [], 0, "torn-header" if data else None
    if data[: len(MAGIC)] != MAGIC:
        raise WalError(
            f"bad log magic {data[:len(MAGIC)]!r}; not a "
            f"repro write-ahead log")
    entries: List[Tuple[Any, int]] = []
    offset = len(MAGIC)
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return entries, offset, "torn-header"
        length, checksum = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            return entries, offset, "torn-record"
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            return entries, offset, "bad-checksum"
        try:
            record = pickle.loads(payload)
        except Exception:
            # A checksummed-but-unloadable payload means the writer
            # died mid-pickle semantics cannot produce; still treat
            # it as the start of the untrusted tail.
            return entries, offset, "bad-checksum"
        offset = end
        entries.append((record, offset))
    return entries, offset, None


def _read_from(path: Union[str, Path], start: int) -> bytes:
    """The file's bytes from ``start`` on; a missing file is empty."""
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            return handle.read()
    except FileNotFoundError:
        return b""


def read_log(path: Union[str, Path]) \
        -> Tuple[List[Tuple[Any, int]], int, Optional[str]]:
    """:func:`scan_frames` over a file; a missing file is empty."""
    return scan_frames(_read_from(path, 0))


class _AppendLog:
    """Shared machinery: a framed append-only file with fsync policy.

    Opening the log scans the existing file, remembers the intact
    records, and truncates the torn tail away so new appends continue
    from the last trustworthy byte.  All writes funnel through
    :meth:`_write`, which is where crash-point injection cuts the
    byte stream.
    """

    def __init__(self, path: Union[str, Path], fsync: str = "always",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 faults=None, site: str = "wal.append"):
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{', '.join(FSYNC_POLICIES)}")
        if batch_size < 1:
            raise WalError("batch_size must be >= 1")
        self.path = Path(path)
        self.fsync = fsync
        self.batch_size = batch_size
        self.faults = faults
        self.site = site
        entries, good_length, tail_reason = read_log(self.path)
        self.recovered: List[Any] = [record for record, _ in entries]
        self.recovered_entries: List[Tuple[Any, int]] = entries
        self.tail_reason = tail_reason
        self.discarded_tail_bytes = 0
        self._open_at(good_length)
        self._unsynced = 0

    def _open_at(self, good_length: int) -> None:
        """Truncate the torn tail and position for appends."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = good_length == 0
        self._handle = open(self.path, "r+b" if self.path.exists()
                            else "w+b")
        if fresh:
            self._handle.truncate(0)
            self._handle.write(MAGIC)
            self._handle.flush()
            self._offset = len(MAGIC)
        else:
            size = self.path.stat().st_size
            if size > good_length:
                self.discarded_tail_bytes = size - good_length
                self._handle.truncate(good_length)
            self._handle.seek(good_length)
            self._offset = good_length

    @property
    def offset(self) -> int:
        """Bytes of trusted log written so far (crash survivors)."""
        return self._offset

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (appends now raise WalError).

        A *fenced* shard primary is exactly an attached-but-closed
        log, so liveness probes read this instead of poking a write.
        """
        return self._handle is None

    def _write(self, chunk: bytes) -> None:
        """Append raw bytes, honouring any registered crash point."""
        if self._handle is None:
            raise WalError(f"log {str(self.path)!r} is closed")
        if self.faults is not None:
            cut = self.faults.crash_cut(
                self.site, self._offset, self._offset + len(chunk))
            if cut is not None:
                kept = chunk[: cut - self._offset]
                if kept:
                    self._handle.write(kept)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._offset = cut
                self.faults.crash(self.site, cut)  # raises CrashPoint
        self._handle.write(chunk)
        self._offset += len(chunk)

    def _commit_written(self) -> None:
        """Flush (always) and fsync (per policy) one commit/record."""
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
            self._unsynced = 0
        elif self.fsync == "batch":
            self._unsynced += 1
            if self._unsynced >= self.batch_size:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
        # "off": the flush above hands bytes to the OS; a process
        # crash loses nothing, only an OS/power crash may.

    def sync(self) -> None:
        """Force an fsync now, whatever the policy."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None


class WriteAheadLog(_AppendLog):
    """The engine's per-database redo log.

    :meth:`commit` appends one framed ``("op", redo_op)`` record per
    mutation and a single ``("commit", n)`` record, as one contiguous
    write, then applies the fsync policy.  ``commits`` counts commit
    records appended since the last :meth:`reset` (checkpoint) — the
    WAL-lag figure the platform health report exposes.
    """

    def __init__(self, path: Union[str, Path], fsync: str = "always",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 faults=None, site: str = "wal.append"):
        super().__init__(path, fsync=fsync, batch_size=batch_size,
                         faults=faults, site=site)
        self.commits = 0
        #: Highest commit number ever written.  Monotone across
        #: :meth:`reset`, so a snapshot that stores it can tell
        #: recovery exactly which logged transactions it already
        #: contains — the guard against double-apply when a crash
        #: lands between a checkpoint's snapshot and its log reset.
        self.last_number = 0
        #: End offset of each commit record (for boundary schedules).
        self.commit_offsets: List[int] = []
        for record, end in self.recovered_entries:
            if record and record[0] == "commit":
                self.commits += 1
                self.last_number = max(self.last_number, record[1])
                self.commit_offsets.append(end)

    @property
    def next_number(self) -> int:
        """The commit number the next :meth:`commit` will assign.

        MVCC stamps row-version lifetimes with this number *while* the
        transaction is still running (the writer is serialized, so the
        number is fixed the moment the transaction starts mutating);
        publishing it as the committed horizon happens only after the
        commit record is durable.
        """
        return self.last_number + 1

    def commit(self, ops: List[Any]) -> int:
        """Durably log one committed transaction; returns its number."""
        number = self.last_number + 1
        chunk = b"".join(frame_record(("op", op)) for op in ops)
        chunk += frame_record(("commit", number))
        self._write(chunk)
        self.last_number = number
        self.commits += 1
        self.commit_offsets.append(self._offset)
        self._commit_written()
        return number

    def reset(self) -> None:
        """Truncate the log after a checkpoint snapshot landed.

        ``last_number`` survives, so post-checkpoint commits keep
        numbering from where the snapshot left off.
        """
        self.sync()
        self._handle.truncate(len(MAGIC))
        self._handle.seek(len(MAGIC))
        self._offset = len(MAGIC)
        self.commits = 0
        self.commit_offsets = []
        self.sync()
        _fsync_directory(self.path.parent)


def committed_transactions(entries: List[Tuple[Any, int]]) \
        -> Tuple[List[Tuple[int, List[Any]]], int, int]:
    """Group intact WAL entries into committed transactions.

    Returns ``(transactions, committed_length, dangling_ops)``:
    ``transactions`` pairs each commit record's number with its
    op-list, in log order; ``committed_length`` is the byte offset
    just past the last commit record (ops after it are *uncommitted*
    — intact on disk but never acknowledged — and must be discarded);
    ``dangling_ops`` counts them for recovery reporting.
    """
    transactions: List[Tuple[int, List[Any]]] = []
    current: List[Any] = []
    committed_length = 0
    for record, end in entries:
        kind = record[0]
        if kind == "op":
            current.append(record[1])
        elif kind == "commit":
            transactions.append((record[1], current))
            current = []
            committed_length = end
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
    return transactions, committed_length, len(current)


def committed_prefix(path: Union[str, Path]) \
        -> Tuple[List[Tuple[int, List[Any]]], int, int, Optional[str]]:
    """The committed transactions a log file holds, and where they end.

    The replication-side view of a primary's log: a shipper (a read
    replica tailing the file, or a failover promotion) must act only
    on transactions whose commit record is intact on disk — never on
    the dangling op run or torn tail a crash may have left behind.
    Returns ``(transactions, committed_length, dangling_ops,
    tail_reason)``; ``committed_length`` is clamped up to the magic
    header so truncating to it always leaves a well-formed log.
    """
    entries, good_length, tail_reason = read_log(path)
    transactions, committed_length, dangling = \
        committed_transactions(entries)
    if committed_length < len(MAGIC) and good_length >= len(MAGIC):
        committed_length = len(MAGIC)
    return transactions, committed_length, dangling, tail_reason


#: Where a tailing reader that has consumed nothing stands: just past
#: the magic, anchored on it.
TAIL_START: Tuple[int, bytes] = (len(MAGIC), MAGIC)


def committed_since(path: Union[str, Path], offset: int,
                    anchor: bytes) \
        -> Tuple[List[Tuple[int, List[Any]]], int, bytes, bool]:
    """The committed transactions appended after a remembered position.

    The tailing view of a primary's log: where :func:`committed_prefix`
    decodes the whole file, a reader that polls the same log again and
    again remembers how far it got — ``offset``, the byte just past the
    last commit record it consumed, and ``anchor``, that record's frame
    bytes (:data:`TAIL_START` for a reader that has consumed nothing)
    — and decodes only what was appended since.  The position is trusted only
    when the file still holds ``anchor`` ending at ``offset``.  Commit
    numbers never repeat in a log's life (``last_number`` survives
    :meth:`WriteAheadLog.reset`, and a promotion numbers onward), so
    the same ``("commit", n)`` frame at the same place means the bytes
    before it are the prefix already consumed.  Anything else — the log
    was reset by a checkpoint (even if it has since regrown past
    ``offset``), truncated, replaced or removed — *restarts* the
    reader: it rewinds to the magic and reads the file in full.

    Returns ``(transactions, offset, anchor, restarted)``.  The new
    position ends at the last commit record read — never past a
    dangling op run or a torn tail, which the next call therefore reads
    again.  Frames are walked by :func:`scan_frames` and grouped by
    :func:`committed_transactions`, the same two functions recovery
    uses, so "committed" has one definition.
    """
    data = _read_from(path, offset - len(anchor))
    restarted = offset > len(MAGIC) and not data.startswith(anchor)
    if restarted:
        offset, anchor = TAIL_START
        data = _read_from(path, 0)
    if offset > len(MAGIC):
        data = MAGIC + data[len(anchor):]
    entries, _, _ = scan_frames(data)
    transactions, committed_length, _ = committed_transactions(entries)
    if transactions:
        ends = [len(MAGIC)] + [end for _, end in entries]
        frame_start = ends[ends.index(committed_length) - 1]
        anchor = data[frame_start:committed_length]
        offset += committed_length - len(MAGIC)
    return transactions, offset, anchor, restarted


class JournalLog(_AppendLog):
    """A journal: one self-contained record per event.

    ``recovered`` holds the intact prefix found at open time.  The
    platform keeps its own state in tables of its database, so nothing
    in the platform opens one; the class stays because the benchmark's
    tracer binds :meth:`append`.
    """

    def append(self, record: Any) -> None:
        self._write(frame_record(record))
        self._commit_written()
