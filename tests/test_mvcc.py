"""MVCC snapshot isolation: visibility, version GC, durability.

The battery pins the PR's contract from four sides:

* **visibility** — a snapshot opened at commit number ``cn`` sees
  exactly the rows committed at or before ``cn``, regardless of what
  writers do afterwards;
* **reader-under-writer** — a SELECT on one thread completes while
  another thread sits inside an open ``BEGIN``..``COMMIT`` write
  transaction (the pre-MVCC lock would have queued it until commit);
* **version GC** — a pinned snapshot keeps its versions alive across
  ``vacuum``/``checkpoint``; closing it makes superseded versions
  reclaimable;
* **durability migration** — ``save`` still writes the flat seed
  format byte-identically (versions are reclaimable cache, not
  durable state), ``load`` seeds base versions at the snapshot's WAL
  commit number, and WAL recovery restamps replayed commits with
  their real numbers.
"""

import threading

import pytest

from repro.engine import Database
from repro.engine.storage import _visible
from repro.engine.wal import WriteAheadLog
from tests.reference import ReferenceDatabase, execute_select

pytestmark = pytest.mark.mvcc

WAIT = 30.0


def make_db(engine=Database):
    db = engine("main")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for i in range(1, 6):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return db


def rows_of(db, sql="SELECT id, v FROM t ORDER BY id", params=()):
    return [tuple(row.values()) for row in db.query(sql, params)]


class TestSnapshotVisibility:
    def test_snapshot_pins_state_across_later_commits(self):
        db = make_db()
        with db.open_snapshot() as snapshot:
            before = db._run_select(
                db._parse("SELECT id, v FROM t ORDER BY id"), (),
                snapshot)
            db.execute("UPDATE t SET v = 'changed' WHERE id = 1")
            db.execute("DELETE FROM t WHERE id = 2")
            db.execute("INSERT INTO t VALUES (6, 'new')")
            after = db._run_select(
                db._parse("SELECT id, v FROM t ORDER BY id"), (),
                snapshot)
        # The pinned snapshot never moves...
        assert [tuple(r) for r in before.rows] \
            == [tuple(r) for r in after.rows]
        assert (1, "v1") in [tuple(r) for r in after.rows]
        # ...while a fresh read sees every commit.
        assert rows_of(db) == [(1, "changed"), (3, "v3"), (4, "v4"),
                               (5, "v5"), (6, "new")]

    def test_range_reads_hold_across_index_merges(self, monkeypatch):
        """A range read pinned at a snapshot keeps its answer while
        writers grow the index tail past a merge, move keys into and
        out of the range and delete rows; fresh reads match the
        full-scan reference throughout."""
        from repro.engine.indexes import Index

        merges = []
        merge = Index._merge
        monkeypatch.setattr(Index, "_merge", lambda index: (
            merges.append(index.name), merge(index)))
        compiled, reference = make_db(), make_db(ReferenceDatabase)
        sql = "SELECT id, v FROM t WHERE id BETWEEN ? AND ?"
        statement = compiled._parse(sql)

        def both(sql, params=()):
            compiled.execute(sql, params)
            reference.execute(sql, params)

        with compiled.open_snapshot() as snapshot:
            pinned = compiled._run_select(statement, (2, 150), snapshot)
            for key in range(6, 300):
                both("INSERT INTO t VALUES (?, ?)", (key, f"v{key}"))
            both("UPDATE t SET id = id + 1000 WHERE id BETWEEN 50 AND 60")
            both("UPDATE t SET id = id - 1000 WHERE id > 1050")
            both("DELETE FROM t WHERE id BETWEEN 100 AND 120")
            again = compiled._run_select(statement, (2, 150), snapshot)
            assert again.rows == pinned.rows == [
                (2, "v2"), (3, "v3"), (4, "v4"), (5, "v5")]
        assert merges
        for low, high in ((2, 150), (40, 70), (0, 10_000)):
            assert sorted(compiled.execute(sql, (low, high)).rows) \
                == sorted(reference.execute(sql, (low, high)).rows)

    def test_commit_number_advances_per_statement(self):
        db = make_db()
        base = db.committed_cn
        db.execute("UPDATE t SET v = 'x' WHERE id = 1")
        assert db.committed_cn == base + 1
        db.execute("SELECT * FROM t")  # reads publish nothing
        assert db.committed_cn == base + 1

    def test_transaction_commits_as_one_commit_number(self):
        db = make_db()
        base = db.committed_cn
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'a' WHERE id = 1")
        db.execute("UPDATE t SET v = 'b' WHERE id = 2")
        assert db.committed_cn == base  # nothing published yet
        db.execute("COMMIT")
        assert db.committed_cn == base + 1

    def test_rollback_leaves_no_trace_in_any_snapshot(self):
        db = make_db()
        base = db.committed_cn
        with db.open_snapshot() as snapshot:
            db.execute("BEGIN")
            db.execute("INSERT INTO t VALUES (7, 'ghost')")
            db.execute("UPDATE t SET v = 'ghost' WHERE id = 1")
            db.execute("DELETE FROM t WHERE id = 3")
            db.execute("ROLLBACK")
            assert db.committed_cn == base
            result = db._run_select(
                db._parse("SELECT id, v FROM t ORDER BY id"), (),
                snapshot)
        assert [tuple(r) for r in result.rows] == [
            (1, "v1"), (2, "v2"), (3, "v3"), (4, "v4"), (5, "v5")]
        assert rows_of(db) == [
            (1, "v1"), (2, "v2"), (3, "v3"), (4, "v4"), (5, "v5")]

    def test_compiled_and_interpreted_agree_on_a_snapshot(self):
        db = make_db()
        statement = db._parse("SELECT id, v FROM t WHERE id = 3")
        plan = db.plan_for(statement)
        with db.open_snapshot() as snapshot:
            db.execute("UPDATE t SET v = 'later' WHERE id = 3")
            compiled = plan.execute((), snapshot)
            interpreted = execute_select(db, statement, (), snapshot)
        assert [tuple(r) for r in compiled.rows] \
            == [tuple(r) for r in interpreted.rows] == [(3, "v3")]

    def test_index_scan_ignores_stale_key_tombstones(self):
        db = make_db()
        db.execute("CREATE INDEX t_v ON t (v)")
        db.execute("UPDATE t SET v = 'moved' WHERE id = 1")
        # The old key 'v1' stays in the index as a tombstone; neither
        # the live read nor a snapshot read may surface it.
        assert rows_of(db, "SELECT id, v FROM t WHERE v = 'v1'") == []
        assert rows_of(db, "SELECT id, v FROM t WHERE v = 'moved'") \
            == [(1, "moved")]


class TestReaderUnderWriter:
    def test_select_completes_while_write_txn_is_open(self):
        """The tentpole in one deterministic scenario.

        A writer thread opens BEGIN, mutates, and *stays open* until
        the reader is done.  Pre-MVCC the reader's shared acquisition
        would park behind the exclusive hold — deadlocking this exact
        interleaving (the writer only commits after the reader
        returns).  Under MVCC the reader must finish on its own.
        """
        db = make_db()
        writer_open = threading.Event()
        reader_done = threading.Event()
        failures = []

        def writer():
            db.begin()
            try:
                db.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
                db.execute("INSERT INTO t VALUES (99, 'dirty')")
                writer_open.set()
                if not reader_done.wait(timeout=WAIT):
                    failures.append("reader never finished")
                db.commit()
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))
                db.rollback()

        thread = threading.Thread(target=writer, name="writer")
        thread.start()
        try:
            assert writer_open.wait(timeout=WAIT)
            # Runs while the transaction is open; must not block and
            # must see only committed state.
            assert rows_of(db) == [(1, "v1"), (2, "v2"), (3, "v3"),
                                   (4, "v4"), (5, "v5")]
        finally:
            reader_done.set()
            thread.join(timeout=WAIT)
        assert not thread.is_alive()
        assert failures == []
        assert rows_of(db, "SELECT id, v FROM t WHERE id IN (1, 99)") \
            == [(1, "dirty"), (99, "dirty")]

    def test_explain_dml_never_queues_behind_a_writer(self):
        db = make_db()
        writer_open = threading.Event()
        reader_done = threading.Event()

        def writer():
            db.begin()
            db.execute("UPDATE t SET v = 'held' WHERE id = 1")
            writer_open.set()
            reader_done.wait(timeout=WAIT)
            db.rollback()

        thread = threading.Thread(target=writer, name="writer")
        thread.start()
        try:
            assert writer_open.wait(timeout=WAIT)
            result = db.execute("EXPLAIN SELECT * FROM t WHERE id = 1")
            assert result.rows  # a plan came back while the txn held
        finally:
            reader_done.set()
            thread.join(timeout=WAIT)
        assert not thread.is_alive()

    def test_own_transaction_still_reads_its_writes(self):
        db = make_db()
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'mine' WHERE id = 1")
        assert rows_of(db, "SELECT id, v FROM t WHERE id = 1") \
            == [(1, "mine")]
        db.execute("ROLLBACK")
        assert rows_of(db, "SELECT id, v FROM t WHERE id = 1") \
            == [(1, "v1")]


class TestVersionGC:
    def churn(self, db, rounds=4):
        for round_number in range(rounds):
            db.execute("UPDATE t SET v = ? WHERE id = 1",
                       (f"round{round_number}",))

    def test_pinned_snapshot_retains_its_versions(self):
        db = make_db()
        with db.open_snapshot() as snapshot:
            self.churn(db)
            assert db.version_count("t") > db.row_count("t")
            reclaimed = db.vacuum()
            # Intermediate versions between the snapshot and the head
            # may go, but the snapshot's own view must survive...
            result = db._run_select(
                db._parse("SELECT v FROM t WHERE id = 1"), (),
                snapshot)
            assert [tuple(r) for r in result.rows] == [("v1",)]
        # ...and once it closes, everything superseded is fair game.
        reclaimed = db.vacuum()
        assert reclaimed > 0
        assert db.version_count("t") == db.row_count("t")

    def test_closed_snapshots_move_the_horizon(self):
        db = make_db()
        snapshot = db.open_snapshot()
        assert db.version_horizon() == snapshot.cn
        self.churn(db)
        assert db.version_horizon() == snapshot.cn
        snapshot.close()
        assert snapshot.closed
        assert db.version_horizon() == db.committed_cn

    def test_an_aborted_insert_stays_dead_for_a_reader_that_saw_it(self):
        """A lock-free reader reads ``rows`` before ``_versions`` and
        takes a row without a chain as settled, so a rollback plus a
        collection landing between its two reads must leave the
        aborted row a chain that shows nothing at the reader's
        snapshot."""
        db = make_db()
        storage = db.storage("t")
        with db.open_snapshot() as snapshot:
            db.execute("BEGIN")
            db.execute("INSERT INTO t VALUES (7, 'ghost')")
            rowid = next(reversed(storage.rows))
            assert storage.rows.get(rowid) is not None  # first read
            db.execute("ROLLBACK")
            db.vacuum()
            chain = storage._versions.get(rowid)  # second read
            assert chain is not None
            assert _visible(chain, snapshot.cn) is None
        db.vacuum()
        assert len(storage._versions) == 0
        assert rows_of(db) == [
            (1, "v1"), (2, "v2"), (3, "v3"), (4, "v4"), (5, "v5")]

    def test_checkpoint_runs_version_gc(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'v1')")
        for round_number in range(5):
            db.execute("UPDATE t SET v = ? WHERE id = 1",
                       (f"round{round_number}",))
        assert db.version_count("t") > 1
        db.checkpoint()
        assert db.version_count("t") == 1
        db.close()

    def test_delete_versions_are_reclaimed_entirely(self):
        db = make_db()
        db.execute("DELETE FROM t WHERE id <= 3")
        assert db.version_count("t") == 5  # tombstoned, retained
        assert db.vacuum() == 3
        assert db.version_count("t") == 2
        assert rows_of(db) == [(4, "v4"), (5, "v5")]

    def test_vacuum_rebuilds_indexes_without_tombstones(self):
        db = make_db()
        db.execute("CREATE INDEX t_v ON t (v)")
        index = db.storage("t").indexes["t_v"]
        for round_number in range(3):
            db.execute("UPDATE t SET v = ? WHERE id = 1",
                       (f"round{round_number}",))
        tombstoned = len(index)
        db.vacuum()
        assert len(index) < tombstoned
        assert rows_of(db, "SELECT id, v FROM t WHERE v = 'round2'") \
            == [(1, "round2")]


class TestDurabilityMigration:
    def test_save_format_is_flat_and_byte_stable(self, tmp_path):
        import pickle

        db = make_db()
        for sql in ("UPDATE t SET v = 'a' WHERE id = 1",
                    "DELETE FROM t WHERE id = 2"):
            db.execute(sql)
        first = tmp_path / "first.snap"
        db.save(first)
        # The payload is the flat seed format: live rows only, no
        # version chains or commit-number cache anywhere in it.
        payload = pickle.loads(first.read_bytes())
        assert sorted(payload["tables"][0]) == [
            "indexes", "next_rowid", "rows", "schema"]
        # Round trip: load seeds versions from the flat rows, and a
        # re-save is byte-identical from then on (the first re-save
        # may only differ in pickle memo sharing, never in content).
        loaded = Database.load(first)
        second = tmp_path / "second.snap"
        loaded.save(second)
        reloaded = Database.load(second)
        assert reloaded.state_fingerprint() == db.state_fingerprint()
        third = tmp_path / "third.snap"
        reloaded.save(third)
        assert second.read_bytes() == third.read_bytes()

    def test_load_seeds_base_versions_at_the_snapshot_cn(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'v1')")
        db.execute("UPDATE t SET v = 'v2' WHERE id = 1")
        base = db.committed_cn
        db.checkpoint()
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.committed_cn == base
        assert recovered.version_count("t") == 1
        # A snapshot at the recovered horizon sees the saved state.
        with recovered.open_snapshot() as snapshot:
            assert snapshot.cn == base
            result = recovered._run_select(
                recovered._parse("SELECT v FROM t"), (), snapshot)
            assert [tuple(r) for r in result.rows] == [("v2",)]
        recovered.close()

    def test_recovery_restamps_replayed_commit_numbers(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'first')")
        db.execute("UPDATE t SET v = 'second' WHERE id = 1")
        wal_number = db.wal.last_number
        fingerprint = db.state_fingerprint()
        db.close()

        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.committed_cn == wal_number
        assert recovered.state_fingerprint() == fingerprint
        # Replay rebuilt real lifetimes: the version superseded by the
        # UPDATE is reclaimable, the live one is not.
        assert recovered.version_count("t") >= 1
        recovered.vacuum()
        assert recovered.version_count("t") == 1
        assert [tuple(row.values())
                for row in recovered.query("SELECT v FROM t")] \
            == [("second",)]
        recovered.close()

    def test_wal_next_number_matches_the_stamp_clock(self, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER)")
        assert isinstance(db.wal, WriteAheadLog)
        assert db.wal.next_number == db._stamp_cn()
        db.execute("INSERT INTO t VALUES (1)")
        assert db.wal.next_number == db._stamp_cn()
        assert db.wal.last_number == db.committed_cn
        db.close()
