"""Write-ahead logging and crash-consistent recovery (engine level).

PR 5's durability contract: every committed mutation reaches the
per-database redo log before the commit returns, and
``Database.recover`` rebuilds exactly the committed prefix from the
last snapshot plus the surviving WAL tail — discarding torn frames,
corrupt frames and intact-but-uncommitted trailing ops.
"""

import pickle
import struct
import threading
import zlib

import pytest

from repro.engine.database import Database
from repro.engine.wal import (
    DEFAULT_BATCH_SIZE,
    MAGIC,
    JournalLog,
    WriteAheadLog,
    committed_transactions,
    frame_record,
    read_log,
    scan_frames,
)
from repro.errors import WalError
from tests.reference import ReferenceDatabase


# ---------------------------------------------------------------------------
# the framed-log format
# ---------------------------------------------------------------------------

class TestFraming:
    def test_round_trip(self):
        data = MAGIC + frame_record(("op", 1)) + frame_record(("commit", 1))
        entries, good, reason = scan_frames(data)
        assert [record for record, _ in entries] \
            == [("op", 1), ("commit", 1)]
        assert good == len(data)
        assert reason is None

    def test_torn_header_tail(self):
        data = MAGIC + frame_record("a") + b"\x00\x01"
        entries, good, reason = scan_frames(data)
        assert [record for record, _ in entries] == ["a"]
        assert good == len(MAGIC) + len(frame_record("a"))
        assert reason == "torn-header"

    def test_torn_record_tail(self):
        whole = frame_record("payload")
        data = MAGIC + frame_record("a") + whole[:-3]
        entries, good, reason = scan_frames(data)
        assert [record for record, _ in entries] == ["a"]
        assert reason == "torn-record"

    def test_bad_checksum_tail(self):
        payload = pickle.dumps("b")
        corrupt = struct.pack(">II", len(payload),
                              zlib.crc32(payload) ^ 0xFF) + payload
        data = MAGIC + frame_record("a") + corrupt + frame_record("c")
        entries, good, reason = scan_frames(data)
        # Everything from the corrupt frame on is untrusted, even the
        # intact-looking record behind it.
        assert [record for record, _ in entries] == ["a"]
        assert reason == "bad-checksum"

    def test_bad_magic_is_a_format_error_not_a_crash(self):
        with pytest.raises(WalError):
            scan_frames(b"NOTAWAL!" + frame_record("a"))

    def test_truncated_magic_is_an_empty_torn_file(self):
        entries, good, reason = scan_frames(MAGIC[:3])
        assert entries == [] and good == 0 and reason == "torn-header"

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_log(tmp_path / "none.wal") == ([], 0, None)

    def test_committed_transactions_grouping(self):
        entries, _, reason = scan_frames(
            MAGIC
            + frame_record(("op", "a")) + frame_record(("op", "b"))
            + frame_record(("commit", 1))
            + frame_record(("op", "c")) + frame_record(("commit", 2))
            + frame_record(("op", "dangling")))
        assert reason is None
        transactions, committed_length, dangling = \
            committed_transactions(entries)
        assert transactions == [(1, ["a", "b"]), (2, ["c"])]
        assert dangling == 1
        # committed_length stops exactly after commit #2's frame.
        assert committed_length == entries[-2][1]


# ---------------------------------------------------------------------------
# the WriteAheadLog object
# ---------------------------------------------------------------------------

class TestWriteAheadLog:
    def test_commit_numbers_are_monotone_across_reset(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", fsync="off")
        assert wal.commit([("x",)]) == 1
        assert wal.commit([("y",)]) == 2
        wal.reset()
        assert wal.commits == 0 and wal.commit_offsets == []
        # Numbering continues; a snapshot holding "up to #2" can tell
        # transaction #3 apart from a replayed #1.
        assert wal.commit([("z",)]) == 3
        wal.close()

    def test_reopen_recovers_commit_state(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "t.wal", fsync="off")
        wal.commit([("a",), ("b",)])
        wal.commit([("c",)])
        wal.close()
        again = WriteAheadLog(tmp_path / "t.wal", fsync="off")
        assert again.commits == 2
        assert again.last_number == 2
        assert len(again.commit_offsets) == 2
        again.close()

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(path, fsync="off")
        wal.commit([("a",)])
        wal.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(frame_record(("op", ("b",)))[:-2])
        again = WriteAheadLog(path, fsync="off")
        assert again.tail_reason == "torn-record"
        assert again.discarded_tail_bytes > 0
        assert path.stat().st_size == intact
        # And the log keeps working past the healed tail.
        again.commit([("c",)])
        again.close()
        entries, _, reason = read_log(path)
        assert reason is None
        transactions, _, _ = committed_transactions(entries)
        assert [number for number, _ in transactions] == [1, 2]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "t.wal", fsync="sometimes")
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "t.wal", batch_size=0)

    def test_batch_policy_defers_fsync(self, tmp_path, monkeypatch):
        import os as os_module
        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr("repro.engine.wal.os.fsync",
                            lambda fd: synced.append(fd) or
                            real_fsync(fd))
        wal = WriteAheadLog(tmp_path / "t.wal", fsync="batch",
                            batch_size=4)
        for _ in range(3):
            wal.commit([("x",)])
        assert synced == []          # under the batch threshold
        wal.commit([("x",)])
        assert len(synced) == 1      # the 4th commit syncs the batch
        wal.close()

    def test_journal_append_and_reopen(self, tmp_path):
        journal = JournalLog(tmp_path / "j.journal", fsync="off")
        journal.append(("tenant", "acme"))
        journal.close()
        again = JournalLog(tmp_path / "j.journal", fsync="off")
        assert again.recovered == [("tenant", "acme")]
        again.close()


# ---------------------------------------------------------------------------
# Database.recover round trips
# ---------------------------------------------------------------------------

def workload(db):
    """A representative mutation mix: DML, DDL, txns, views."""
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, "
               "n INTEGER)")
    db.executemany("INSERT INTO t (id, v, n) VALUES (?, ?, ?)",
                   [(i, f"row{i}", i * 2) for i in range(1, 11)])
    db.execute("CREATE INDEX idx_n ON t (n)")
    db.execute("UPDATE t SET v = 'even' WHERE n % 4 = 0")
    db.execute("DELETE FROM t WHERE id = 3")
    with db.transaction():
        db.execute("INSERT INTO t (id, v, n) VALUES (11, 'txn', 22)")
        db.execute("UPDATE t SET n = 100 WHERE id = 11")
    db.execute("ALTER TABLE t ADD COLUMN extra TEXT")
    db.execute("CREATE VIEW big AS SELECT id, n FROM t WHERE n > 10")
    db.execute("CREATE TABLE copied AS SELECT id, v FROM t WHERE id < 5")


class TestDatabaseRecover:
    def test_fresh_directory_round_trip(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        workload(db)
        fingerprint = db.state_fingerprint()
        rows = db.query("SELECT id, n FROM big ORDER BY id")
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.recovery_info["snapshot_loaded"] is False
        assert recovered.recovery_info["transactions_replayed"] > 0
        assert recovered.state_fingerprint() == fingerprint
        assert recovered.query("SELECT id, n FROM big ORDER BY id") \
            == rows
        recovered.close()

    def test_fsync_policy_moves_the_window_not_the_data(self, tmp_path):
        """E15: every policy logs, and recovers, the same state."""
        fingerprints = set()
        for fsync in ("off", "batch", "always"):
            home = tmp_path / fsync
            home.mkdir()
            db = Database.recover(home, "main", fsync=fsync)
            workload(db)
            live = db.state_fingerprint()
            db.close()
            recovered = Database.recover(home, "main", fsync=fsync)
            assert recovered.state_fingerprint() == live
            recovered.close()
            fingerprints.add(live)
        assert len(fingerprints) == 1

    def test_rolled_back_transaction_never_reaches_the_log(
            self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        db.begin()
        db.execute("INSERT INTO t (id) VALUES (2)")
        db.rollback()
        fingerprint = db.state_fingerprint()
        db.close()
        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.state_fingerprint() == fingerprint
        assert recovered.query_value("SELECT COUNT(*) FROM t") == 1
        recovered.close()

    def test_checkpoint_then_incremental_recovery(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        workload(db)
        assert db.checkpoint() == 1
        assert db.wal_lag == 0 and db.last_checkpoint == 1
        db.execute("INSERT INTO t (id, v, n) VALUES (50, 'post', 1)")
        fingerprint = db.state_fingerprint()
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        info = recovered.recovery_info
        assert info["snapshot_loaded"] is True
        assert info["transactions_replayed"] == 1  # just the insert
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()

    def test_crash_between_snapshot_and_log_reset_does_not_double_apply(
            self, tmp_path):
        """The checkpoint double-apply hole.

        If the process dies after ``save()`` but before the WAL
        truncation, the snapshot already holds every logged
        transaction.  Recovery must skip them (by commit number), or
        replayed inserts would collide with their own rows.
        """
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.executemany("INSERT INTO t (id, v) VALUES (?, ?)",
                       [(i, "x") for i in range(5)])
        fingerprint = db.state_fingerprint()
        # Simulate the torn checkpoint: snapshot lands, log survives.
        db.save(tmp_path / "main.snapshot")
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.recovery_info["snapshot_loaded"] is True
        assert recovered.recovery_info["transactions_replayed"] == 0
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()

    def test_a_lost_checkpoint_snapshot_is_refused_not_skipped(
            self, tmp_path):
        """After a checkpoint the log starts past commit 1.  Without
        the snapshot that holds the commits before it, recovery must
        refuse, not replay the tail onto an empty database."""
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO a VALUES (1)")
        db.checkpoint()
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO b VALUES (1)")
        db.close()
        (tmp_path / "main.snapshot").unlink()
        size = (tmp_path / "main.wal").stat().st_size
        with pytest.raises(WalError, match=r"is at #0 .* is #3"):
            Database.recover(tmp_path, "main", fsync="off")
        # Refused before anything was truncated.
        assert (tmp_path / "main.wal").stat().st_size == size

    def test_save_racing_add_column_stays_recoverable(
            self, tmp_path, monkeypatch):
        """``save`` serializes the live schemas and row lists, which
        ALTER TABLE ADD COLUMN widens in place.  The DDL must wait for
        the snapshot: otherwise the file holds the new column under
        the pre-DDL WAL commit number and recovery replays
        ``add_column`` onto it."""
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.executemany("INSERT INTO t (id, v) VALUES (?, ?)",
                       [(i, "x") for i in range(5)])
        altered = threading.Event()
        altered_while_serializing = []
        threads = []

        def alter():
            db.execute("ALTER TABLE t ADD COLUMN n INTEGER DEFAULT 7")
            altered.set()

        real_dumps = pickle.dumps

        def racing_dumps(payload, *args, **kwargs):
            if not threads:  # the snapshot payload, not a WAL frame
                threads.append(threading.Thread(target=alter))
                threads[0].start()
                altered_while_serializing.append(
                    altered.wait(timeout=0.5))
            return real_dumps(payload, *args, **kwargs)

        monkeypatch.setattr("repro.engine.database.pickle.dumps",
                            racing_dumps)
        db.save(tmp_path / "main.snapshot")
        threads[0].join(timeout=30)
        assert altered_while_serializing == [False]
        assert altered.is_set()
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.query("SELECT id, v, n FROM t ORDER BY id") \
            == [{"id": i, "v": "x", "n": 7} for i in range(5)]
        assert {len(row) for row in
                recovered.storage("t").rows.values()} == {3}
        recovered.close()

    def test_truncated_wal_tail_recovers_committed_prefix(
            self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        prefix_fingerprint = db.state_fingerprint()
        db.execute("INSERT INTO t (id) VALUES (2)")
        db.close()
        wal_path = tmp_path / "main.wal"
        # Chop mid-way through the final transaction's frames.
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-7])

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.recovery_info["tail_reason"] in (
            "torn-header", "torn-record")
        assert recovered.recovery_info["discarded_bytes"] > 0
        assert recovered.state_fingerprint() == prefix_fingerprint
        recovered.close()

    def test_bad_checksum_mid_log_discards_from_there(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        prefix_fingerprint = db.state_fingerprint()
        boundary = db.wal.commit_offsets[-1]
        db.execute("INSERT INTO t (id) VALUES (2)")
        db.close()
        wal_path = tmp_path / "main.wal"
        data = bytearray(wal_path.read_bytes())
        # Flip one payload byte of the first frame after the boundary.
        data[boundary + 9] ^= 0xFF
        wal_path.write_bytes(bytes(data))

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.recovery_info["tail_reason"] == "bad-checksum"
        assert recovered.state_fingerprint() == prefix_fingerprint
        assert recovered.query_value("SELECT COUNT(*) FROM t") == 1
        recovered.close()

    def test_uncommitted_trailing_ops_are_discarded_and_truncated(
            self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        fingerprint = db.state_fingerprint()
        committed_size = db.wal.commit_offsets[-1]
        db.close()
        wal_path = tmp_path / "main.wal"
        # An intact op frame with no commit record behind it: the
        # transaction never acknowledged, so recovery must not apply
        # it — and must truncate it so a later commit record cannot
        # retroactively commit it.
        with open(wal_path, "ab") as handle:
            handle.write(frame_record(
                ("op", ("insert", "t", 2, [2]))))

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.recovery_info["dangling_ops"] == 1
        assert recovered.state_fingerprint() == fingerprint
        assert wal_path.stat().st_size == committed_size
        recovered.close()

    def test_recovered_database_keeps_logging(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        db.close()
        middle = Database.recover(tmp_path, "main", fsync="off")
        middle.execute("INSERT INTO t (id) VALUES (2)")
        fingerprint = middle.state_fingerprint()
        middle.close()
        final = Database.recover(tmp_path, "main", fsync="off")
        assert final.state_fingerprint() == fingerprint
        assert final.query_value("SELECT COUNT(*) FROM t") == 2
        final.close()

    def test_compiled_and_interpreted_recoveries_agree(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        workload(db)
        db.close()
        compiled = Database.recover(tmp_path, "main", fsync="off")
        interpreted = ReferenceDatabase.recover(tmp_path, "main",
                                                fsync="off")
        sql = ("SELECT id, v, n FROM t WHERE n > 4 "
               "ORDER BY n DESC, id")
        assert compiled.query(sql) == interpreted.query(sql)
        assert compiled.state_fingerprint() \
            == interpreted.state_fingerprint()
        compiled.close()
        interpreted.close()


# ---------------------------------------------------------------------------
# satellite (a): snapshot rename durability
# ---------------------------------------------------------------------------

class TestSnapshotDirectoryFsync:
    def test_save_fsyncs_the_parent_directory(self, tmp_path,
                                              monkeypatch):
        """``os.replace`` swaps atomically but the rename lives in the
        directory inode; ``save`` must fsync the parent too or the
        snapshot can vanish on power loss."""
        synced = []
        monkeypatch.setattr(
            "repro.engine.database._fsync_directory",
            lambda directory: synced.append(directory))
        db = Database("main")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.save(tmp_path / "main.snapshot")
        assert synced == [tmp_path]


# ---------------------------------------------------------------------------
# satellite (c): DROP TABLE inside a rolled-back transaction
# ---------------------------------------------------------------------------

class TestDropTableRollbackCoherence:
    def seed(self, compiled):
        db = (Database if compiled else ReferenceDatabase)("coherence")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                   "n INTEGER)")
        db.execute("CREATE UNIQUE INDEX idx_n ON t (n)")
        db.executemany("INSERT INTO t (id, n) VALUES (?, ?)",
                       [(i, i * 10) for i in range(1, 6)])
        return db

    @pytest.mark.parametrize("compiled", [True, False])
    def test_index_survives_and_still_enforces(self, compiled):
        db = self.seed(compiled)
        db.begin()
        db.execute("DROP TABLE t")
        db.rollback()
        # The restored table must carry its index, not a shell of it:
        # lookups go through it and uniqueness still holds.
        assert db.query_value(
            "SELECT id FROM t WHERE n = 30") == 3
        from repro.errors import ConstraintViolation
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO t (id, n) VALUES (99, 30)")
        db.execute("INSERT INTO t (id, n) VALUES (6, 60)")
        assert db.query_value("SELECT COUNT(*) FROM t") == 6

    def test_compiled_plans_stay_coherent(self):
        db = self.seed(compiled=True)
        sql = "SELECT id, n FROM t WHERE n >= 20 ORDER BY id"
        before = db.query(sql)  # warms the plan cache
        db.begin()
        db.execute("DROP TABLE t")
        db.rollback()
        assert db.query(sql) == before
        db.execute("INSERT INTO t (id, n) VALUES (6, 60)")
        after = db.query(sql)
        assert len(after) == len(before) + 1

    def test_compiled_matches_interpreted_after_rollback(self):
        compiled, interpreted = (self.seed(True), self.seed(False))
        for db in (compiled, interpreted):
            db.query("SELECT n FROM t WHERE n = 20")
            db.begin()
            db.execute("DROP TABLE t")
            db.rollback()
        sql = "SELECT id, n FROM t ORDER BY n DESC"
        assert compiled.query(sql) == interpreted.query(sql)


# ---------------------------------------------------------------------------
# every DDL kind inside a rolled-back transaction
# ---------------------------------------------------------------------------

class TestDdlRollbackCoherence:
    """ROLLBACK unwinds DDL as it unwinds DML: after BEGIN, DML, one
    DDL statement, more DML and ROLLBACK, the live database equals its
    pre-BEGIN self and a recovery of its directory (which never saw
    the transaction)."""

    DDL = {
        "index": "CREATE INDEX t_v ON t (v)",
        "unique_index": "CREATE UNIQUE INDEX t_v ON t (v)",
        "add_column": "ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 7",
        "add_unique_column": "ALTER TABLE t ADD COLUMN w INTEGER UNIQUE",
        "create_view": "CREATE VIEW tv2 AS SELECT id, v FROM t",
        "drop_view": "DROP VIEW tv",
    }

    @staticmethod
    def state(db):
        return (db.state_fingerprint(), db.view_names(),
                {name: db.storage(name).schema.column_names
                 for name in db.table_names()})

    @pytest.mark.parametrize("kind", sorted(DDL))
    def test_rollback_restores_the_pre_begin_state(self, tmp_path, kind):
        db = Database.recover(tmp_path, "ddl", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany("INSERT INTO t (id, v) VALUES (?, ?)",
                       [(i, i * 10) for i in range(1, 6)])
        db.execute("CREATE VIEW tv AS SELECT id FROM t WHERE v > 20")
        before = self.state(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO t (id, v) VALUES (6, 60)")
        db.execute("UPDATE t SET v = v + 1 WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 3")
        db.execute(self.DDL[kind])
        db.execute("INSERT INTO t (id, v) VALUES (7, 70)")
        db.execute("UPDATE t SET v = v + 1 WHERE id = 4")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("ROLLBACK")
        assert self.state(db) == before
        db.close()
        recovered = Database.recover(tmp_path, "ddl", fsync="off")
        assert self.state(recovered) == before
        recovered.close()
        # Nothing of a rolled-back unique index is left to enforce.
        db.execute("INSERT INTO t (id, v) VALUES (8, 20)")
        assert db.query_value(
            "SELECT COUNT(*) FROM t WHERE v = 20") == 2

    def test_create_index_refuses_a_taken_name(self):
        # A replaced index could not be rolled back to; the name stays
        # with the first.
        from repro.errors import CatalogError
        db = Database("names")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE UNIQUE INDEX t_v ON t (v)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX T_V ON t (id)")
        assert db.storage("t").indexes["t_v"].unique

    def test_an_op_with_no_inverse_fails_its_rollback(self):
        from repro.errors import TransactionError
        db = Database("unknown")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.begin()
        db.record_redo(("truncate", "t"))
        with pytest.raises(TransactionError, match="unknown redo op"):
            db.rollback()
        # The transaction is over and its lock released.
        assert not db.in_transaction
        db.execute("INSERT INTO t VALUES (1)")


class TestStatementAtomicity:
    """A statement is one transaction scope: one that fails part-way
    leaves nothing behind, live or in the log.  A UNIQUE index or
    column over rows that already break it is refused that way."""

    state = staticmethod(TestDdlRollbackCoherence.state)

    def test_failed_multi_row_insert_leaves_no_row(self, tmp_path):
        from repro.errors import ConstraintViolation
        db = Database.recover(tmp_path, "stmt", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        before = self.state(db)
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (1, 3)")
        assert self.state(db) == before
        db.close()
        recovered = Database.recover(tmp_path, "stmt", fsync="off")
        assert self.state(recovered) == before
        assert recovered.query_value("SELECT COUNT(*) FROM t") == 0
        recovered.close()

    REFUSED = {
        "unique_index": "CREATE UNIQUE INDEX t_v ON t (v)",
        "unique_pair": "CREATE UNIQUE INDEX t_vg ON t (g, v)",
        "unique_column":
            "ALTER TABLE t ADD COLUMN w INTEGER UNIQUE DEFAULT 7",
    }

    @pytest.mark.parametrize("kind", sorted(REFUSED))
    def test_unique_over_duplicates_is_refused(self, tmp_path, kind):
        from repro.errors import ConstraintViolation
        db = Database.recover(tmp_path, "uniq", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g TEXT, "
                   "v INTEGER)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?)", [
            (1, "a", 5), (2, "a", 5), (3, "a", None), (4, "a", None)])
        before = self.state(db)
        with pytest.raises(ConstraintViolation,
                           match="UNIQUE constraint failed"):
            db.execute(self.REFUSED[kind])
        assert self.state(db) == before
        # Nothing is left to enforce.
        db.execute("INSERT INTO t VALUES (5, 'a', 5)")
        after = self.state(db)
        db.close()
        recovered = Database.recover(tmp_path, "uniq", fsync="off")
        assert self.state(recovered) == after
        recovered.close()

    def test_unique_over_distinct_or_null_keys_is_accepted(self, tmp_path):
        db = Database.recover(tmp_path, "uniq", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(1, 5), (2, None), (3, None)])
        db.execute("CREATE UNIQUE INDEX t_v ON t (v)")
        db.execute("ALTER TABLE t ADD COLUMN w INTEGER UNIQUE")
        # One row left: its default clashes with nothing.
        db.execute("DELETE FROM t WHERE id > 1")
        db.execute("ALTER TABLE t ADD COLUMN x INTEGER UNIQUE DEFAULT 7")
        live = self.state(db)
        db.close()
        recovered = Database.recover(tmp_path, "uniq", fsync="off")
        assert self.state(recovered) == live
        recovered.close()

    def test_an_older_log_with_such_an_index_still_recovers(
            self, tmp_path):
        """Replay never checks: a log that holds a UNIQUE index over
        duplicates (written before the refusal existed) recovers."""
        db = Database.recover(tmp_path, "old", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(1, 5), (2, 5)])
        with db.transaction():
            db.storage("t").add_index("t_v", ["v"], unique=True)
            db.record_redo(("create_index", "t", "t_v", ["v"], True))
        live = self.state(db)
        db.close()
        recovered = Database.recover(tmp_path, "old", fsync="off")
        assert self.state(recovered) == live
        assert recovered.storage("t").indexes["t_v"].unique
        recovered.close()
