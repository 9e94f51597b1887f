"""The tailing log reader against the full-read oracle.

Markers ``recovery`` + ``shard``.  A read replica polls its primary's
log through :func:`~repro.engine.wal.committed_since`, which decodes
only the bytes appended after a remembered position.  The oracle is
what the replica did before: :func:`~repro.engine.wal.committed_prefix`
over the whole file, filtered to the numbers it does not hold yet.  At
every poll, whatever happened to the log in between — commits, a
checkpoint reset, a crash that tore a frame or left a dangling op run,
a recovery or failover truncating to the committed prefix — the two
must hand the replica the same transactions, and the remembered
position must sit on a commit record inside the committed prefix.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resilience import FaultInjector
from repro.engine.wal import (
    MAGIC,
    TAIL_START,
    WriteAheadLog,
    committed_prefix,
    committed_since,
    frame_record,
)
from repro.errors import CrashPoint

pytestmark = [pytest.mark.recovery, pytest.mark.shard]


def ops_for(number, count):
    return [("insert", "t", number * 10 + index,
             [number * 10 + index, "x"])
            for index in range(count)]


class Follower:
    """What a replica remembers between polls: the tail position and
    the highest commit number it holds."""

    def __init__(self, path):
        self.path = path
        self.position = TAIL_START
        self.have = 0
        self.restarts = 0

    def poll(self):
        """One poll; returns what the tail shipped after checking it
        against the full-read oracle."""
        transactions, offset, anchor, restarted = committed_since(
            self.path, *self.position)
        everything, committed_length, _, _ = committed_prefix(self.path)
        shipped = [(number, ops) for number, ops in transactions
                   if number > self.have]
        assert shipped == [(number, ops) for number, ops in everything
                           if number > self.have]
        assert offset <= max(committed_length, len(MAGIC))
        if offset > len(MAGIC):
            assert self.path.read_bytes()[:offset].endswith(anchor)
            assert anchor == frame_record(
                ("commit", everything[-1][0]))
        self.position = (offset, anchor)
        self.restarts += restarted
        if shipped:
            self.have = shipped[-1][0]
        return shipped


class LogDriver:
    """One log file taken through a primary's life: commits,
    checkpoints, crashes, recoveries and promotions."""

    def __init__(self, path):
        self.path = path
        self.faults = FaultInjector()
        self.wal = WriteAheadLog(path, fsync="off", faults=self.faults)

    def commit(self, count):
        self.wal.commit(ops_for(self.wal.next_number, count))

    def crash(self, count, where):
        """Die while appending one transaction.  ``where`` in [0, 1]
        places the cut inside the chunk: 1.0 leaves the commit record
        durable but unacknowledged, anything less tears a frame or
        leaves a dangling op run."""
        number = self.wal.next_number
        chunk = sum(len(frame_record(("op", op)))
                    for op in ops_for(number, count))
        chunk += len(frame_record(("commit", number)))
        self.faults.crash_at("wal.append",
                             self.wal.offset + round(where * chunk))
        with pytest.raises(CrashPoint):
            self.commit(count)
        self.wal.close()

    def reopen(self):
        """What recovery and failover both do: keep exactly the
        committed prefix, number onward."""
        last = self.wal.last_number
        self.wal.close()
        _, committed_length, _, _ = committed_prefix(self.path)
        with open(self.path, "r+b") as handle:
            handle.truncate(committed_length)
        self.wal = WriteAheadLog(self.path, fsync="off",
                                 faults=self.faults)
        self.wal.last_number = max(self.wal.last_number, last)


STEPS = st.one_of(
    st.tuples(st.just("commit"), st.integers(0, 3)),
    st.tuples(st.just("commit"), st.integers(0, 3)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("poll")),
    st.tuples(st.just("reset")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("crash"), st.integers(0, 3),
              st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
              st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(STEPS, max_size=30))
def test_tail_ships_what_a_full_read_would(steps):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "primary.wal"
        log = LogDriver(path)
        follower = Follower(path)
        for step in steps:
            if step[0] == "commit":
                log.commit(step[1])
            elif step[0] == "poll":
                follower.poll()
            elif step[0] == "reset":
                log.wal.reset()
            elif step[0] == "reopen":
                log.reopen()
            else:
                _, count, where, poll_the_wreck = step
                log.crash(count, where)
                if poll_the_wreck:
                    follower.poll()
                log.reopen()
        follower.poll()
        log.wal.close()


@pytest.fixture
def log(tmp_path):
    driver = LogDriver(tmp_path / "primary.wal")
    yield driver
    driver.wal.close()


def test_a_poll_decodes_only_what_is_new(log, monkeypatch):
    from repro.engine import wal

    decoded = []

    def counting(data):
        result = wal_scan(data)
        decoded.append(len(result[0]))
        return result

    wal_scan = wal.scan_frames
    monkeypatch.setattr(wal, "scan_frames", counting)
    follower = Follower(log.path)
    for _ in range(5):
        log.commit(2)
    assert [number for number, _ in follower.poll()] == [1, 2, 3, 4, 5]
    log.commit(2)
    assert [number for number, _ in follower.poll()] == [6]
    assert follower.poll() == []
    # Follower.poll also runs the full-read oracle: every other entry.
    assert decoded[::2] == [15, 3, 0]
    assert follower.restarts == 0


def test_reset_then_regrown_past_the_offset_rewinds(log):
    """The trap a length check alone falls into: after a checkpoint
    the log regrows *past* the remembered offset before the next poll.
    Frames of equal size put a commit record at the very same place —
    only its number differs."""
    follower = Follower(log.path)
    for _ in range(3):
        log.commit(1)
    follower.poll()
    offset, _ = follower.position
    log.wal.reset()
    for _ in range(5):
        log.commit(1)
    assert log.wal.offset > offset
    assert offset in log.wal.commit_offsets  # same place, new record
    assert [number for number, _ in follower.poll()] == [4, 5, 6, 7, 8]
    assert follower.restarts == 1


def test_missing_file(tmp_path):
    follower = Follower(tmp_path / "never-written.wal")
    assert follower.poll() == []
    assert follower.position == TAIL_START
    assert follower.restarts == 0


def test_file_removed_under_the_tail(log):
    follower = Follower(log.path)
    log.commit(2)
    follower.poll()
    log.wal.close()
    log.path.unlink()
    assert follower.poll() == []
    assert follower.position == TAIL_START
    assert follower.restarts == 1


def test_file_shorter_than_the_offset(log):
    follower = Follower(log.path)
    for _ in range(4):
        log.commit(2)
    follower.poll()
    log.wal.reset()
    log.commit(0)
    assert log.path.stat().st_size < follower.position[0]
    assert [number for number, _ in follower.poll()] == [5]
    assert follower.restarts == 1


def test_torn_tail_that_later_completes(log):
    """A reader can catch a commit half-written; it must neither ship
    it nor step over it, and ship it whole once the rest lands."""
    follower = Follower(log.path)
    log.commit(1)
    follower.poll()
    resting = follower.position
    chunk = b"".join(frame_record(("op", op)) for op in ops_for(2, 2))
    chunk += frame_record(("commit", 2))
    op_boundary = len(frame_record(("op", ops_for(2, 2)[0])))
    with open(log.path, "ab") as handle:
        for upto in (5, op_boundary, len(chunk) - 1):
            handle.write(chunk[handle.tell() - resting[0]:upto])
            handle.flush()
            assert follower.poll() == []
            assert follower.position == resting
        handle.write(chunk[-1:])
    assert follower.poll() == [(2, ops_for(2, 2))]
    assert follower.position[0] == resting[0] + len(chunk)
    assert follower.restarts == 0
