"""The engine's result cache: reuse while the tables stand still.

A compiled aggregate SELECT whose base tables have not been stamped
since its last execution returns the remembered rows instead of
rescanning.  The contract (DESIGN.md §5b, invariant 7): *a reused
result is byte-equal to executing the statement at the reader's
snapshot*.  Validity is per-table stamp equality, checked at read
time — so every test here is a way the tables can move (or appear to
stand still) between two reads, and the oracle is always the same
statement on a reference interpreter twin (``tests/reference.py``) or
a forced re-execution.
"""

import threading

import pytest

from repro.core.sharding import ReadReplica
from repro.engine import Database
from repro.engine.database import STATEMENT_CACHE_CAPACITY
from repro.engine.planner import (
    RESULT_CACHE_MAX_ROWS,
    RESULT_CACHE_PARAM_SETS,
)
from repro.errors import EngineError
from tests.reference import ReferenceDatabase

pytestmark = pytest.mark.mvcc

WAIT = 30.0

BY_TAG = "SELECT tag, COUNT(*) AS n, SUM(v) AS total FROM t " \
         "GROUP BY tag ORDER BY tag"


def make_db(engine=Database, name="main"):
    db = engine(name)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, "
               "v INTEGER)")
    db.execute("CREATE TABLE tags (tag TEXT PRIMARY KEY, label TEXT)")
    for i in range(1, 7):
        db.execute("INSERT INTO t VALUES (?, ?, ?)",
                   (i, "ab"[i % 2], i * 10))
    db.execute("INSERT INTO tags VALUES ('a', 'Alpha'), ('b', 'Beta')")
    return db


def counters(db):
    return (db.statistics["result_cache_hits"],
            db.statistics["result_cache_misses"])


def uncached(db, sql, params=()):
    """The statement re-executed from scratch at a fresh snapshot."""
    with db.open_snapshot() as snapshot:
        plan = db.plan_for(db._parse(sql))
        return plan.execute(tuple(params), snapshot)


def racing_writer(db, plan, statements):
    """Make the next execution of ``plan`` commit ``statements`` after
    it has read its rows, before the reader is done; returns the list
    the hook appends each statement's row count to.

    ``SelectPlan.run`` is the one entry ``Database._run_reusable``
    executes through, full run and fold alike."""
    run = plan.run
    raced = []

    def racing(*args, **kwargs):
        answer = run(*args, **kwargs)
        if not raced:
            raced.extend(db.execute(sql) for sql in statements)
        return answer

    plan.run = racing
    return raced


class TestReuse:
    def test_hit_is_byte_equal_and_a_distinct_object(self):
        db = make_db()
        first = db.execute(BY_TAG)
        assert counters(db) == (0, 1)
        second = db.execute(BY_TAG)
        assert counters(db) == (1, 1)
        assert second.reused and not first.reused
        fresh = uncached(db, BY_TAG)
        assert second.columns == fresh.columns == first.columns
        assert second.rows == fresh.rows == first.rows
        assert repr(second.rows) == repr(fresh.rows)
        assert second is not first
        assert second.rows is not first.rows
        assert second.columns is not first.columns

    def test_callers_cannot_alias_what_is_remembered(self):
        db = make_db()
        first = db.execute(BY_TAG)
        expected = list(first.rows)
        first.rows.clear()
        first.columns.append("junk")
        second = db.execute(BY_TAG)
        assert second.rows == expected
        second.rows.reverse()
        second.columns.clear()
        third = db.execute(BY_TAG)
        assert third.rows == expected
        assert third.columns == ["tag", "n", "total"]
        assert counters(db) == (2, 1)

    def test_rows_returned_counts_hits_like_executions(self):
        db = make_db()
        before = db.statistics["rows_returned"]
        db.execute(BY_TAG)
        db.execute(BY_TAG)
        assert db.statistics["rows_returned"] == before + 4

    def test_point_reads_and_plain_selects_are_never_eligible(self):
        db = make_db()
        for _ in range(3):
            db.execute("SELECT v FROM t WHERE id = ?", (1,))
            db.execute("SELECT id, v FROM t ORDER BY id")
        assert counters(db) == (0, 0)

    def test_distinct_is_reused_until_its_table_moves(self):
        db = make_db()
        sql = "SELECT DISTINCT tag FROM t ORDER BY tag"
        assert db.execute(sql).rows == [("a",), ("b",)]
        second = db.execute(sql)
        assert second.reused and second.rows == [("a",), ("b",)]
        assert counters(db) == (1, 1)
        db.execute("INSERT INTO t VALUES (7, 'c', 70)")
        third = db.execute(sql)
        assert not third.reused
        assert third.rows == uncached(db, sql).rows \
            == [("a",), ("b",), ("c",)]
        assert counters(db) == (1, 2)
        # A DISTINCT plan keeps no group state: an append is no fold.
        assert db.statistics["result_cache_folds"] == 0

    def test_results_above_the_row_cap_are_not_remembered(self):
        db = Database()
        db.execute("CREATE TABLE wide (id INTEGER, v INTEGER)")
        db.executemany(
            "INSERT INTO wide VALUES (?, ?)",
            [(i, i) for i in range(RESULT_CACHE_MAX_ROWS + 1)])
        sql = "SELECT id, SUM(v) AS s FROM wide GROUP BY id"
        assert len(db.execute(sql)) == RESULT_CACHE_MAX_ROWS + 1
        db.execute(sql)
        assert counters(db) == (0, 2)
        db.execute("DELETE FROM wide WHERE id = 0")
        db.execute(sql)
        assert len(db.execute(sql)) == RESULT_CACHE_MAX_ROWS
        assert counters(db) == (1, 3)

    def test_param_sets_per_plan_are_bounded_lru(self):
        db = make_db()
        sql = "SELECT COUNT(*) FROM t WHERE v > ?"
        for bound in range(RESULT_CACHE_PARAM_SETS + 10):
            db.execute(sql, (bound,))
        plan = db.plan_for(db._parse(sql))
        assert len(plan.results) == RESULT_CACHE_PARAM_SETS
        hits, _misses = counters(db)
        db.execute(sql, (RESULT_CACHE_PARAM_SETS + 9,))  # newest: kept
        db.execute(sql, (0,))                            # oldest: gone
        assert counters(db)[0] == hits + 1

    def test_statistics_round_trip_through_save_and_load(self, tmp_path):
        db = make_db()
        db.execute(BY_TAG)
        db.execute(BY_TAG)
        db.save(tmp_path / "snap")
        loaded = Database.load(tmp_path / "snap")
        assert counters(loaded) == (1, 1)
        # The loaded database starts cold and is correct.
        assert loaded.execute(BY_TAG).rows == db.execute(BY_TAG).rows
        assert counters(loaded) == (1, 2)


class TestWritesInvalidate:
    def test_autocommit_write_forces_recompute(self):
        db = make_db()
        db.execute(BY_TAG)
        db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
        after = db.execute(BY_TAG)
        assert after.rows == uncached(db, BY_TAG).rows
        assert ("a", 4, 1000 + 20 + 40 + 60) in after.rows
        assert counters(db) == (0, 2)
        for statement in ("UPDATE t SET v = 1 WHERE id = 7",
                          "DELETE FROM t WHERE id = 7"):
            db.execute(statement)
            assert db.execute(BY_TAG).rows == uncached(db, BY_TAG).rows
        assert counters(db)[0] == 0

    def test_write_that_matches_no_row_keeps_the_result(self):
        db = make_db()
        db.execute(BY_TAG)
        assert db.execute("DELETE FROM t WHERE id = 99") == 0
        db.execute(BY_TAG)
        assert counters(db) == (1, 1)

    def test_uncommitted_writer_forces_miss_and_stays_invisible(self):
        db = make_db()
        committed = db.execute(BY_TAG).rows
        wrote = threading.Event()
        finish = threading.Event()

        def writer():
            db.execute("BEGIN")
            db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
            wrote.set()
            finish.wait(WAIT)
            db.execute("COMMIT")

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert wrote.wait(WAIT)
            hits, misses = counters(db)
            during = db.execute(BY_TAG)      # never blocks, never sees 7
            assert during.rows == committed
            assert counters(db) == (hits, misses + 1)
            # Nothing computed under the open writer is remembered.
            assert db.execute(BY_TAG).rows == committed
            assert counters(db) == (hits, misses + 2)
        finally:
            finish.set()
            thread.join(timeout=WAIT)
        assert not thread.is_alive()
        # COMMIT: the next read recomputes and sees the row ...
        after = db.execute(BY_TAG)
        assert after.rows != committed
        assert after.rows == uncached(db, BY_TAG).rows
        assert counters(db) == (hits, misses + 3)
        # ... and only then is the new result reusable.
        assert db.execute(BY_TAG).rows == after.rows
        assert counters(db) == (hits + 1, misses + 3)

    def test_commit_landing_mid_execution_is_not_remembered(self):
        db = make_db()
        plan = db.plan_for(db._parse(BY_TAG))
        raced = racing_writer(db, plan, [
            "UPDATE t SET v = v + 1000 WHERE id = 1"])
        at_snapshot = db.execute(BY_TAG).rows
        assert raced == [1]                   # the hook really ran
        assert ("b", 3, 90) in at_snapshot    # right for its snapshot
        assert ("b", 3, 1090) in db.execute(BY_TAG).rows
        assert counters(db) == (0, 2)

    def test_append_landing_mid_execution_is_folded_not_reused(self):
        db = make_db()
        plan = db.plan_for(db._parse(BY_TAG))
        raced = racing_writer(db, plan, [
            "INSERT INTO t VALUES (7, 'a', 1000)"])
        assert ("a", 3, 120) in db.execute(BY_TAG).rows
        assert raced == [1]
        # What was remembered at the older stamp is never served as
        # is; the appended row is folded into it.
        assert ("a", 4, 1120) in db.execute(BY_TAG).rows
        assert counters(db) == (0, 2)
        assert db.statistics["result_cache_folds"] == 1

    def test_commit_landing_mid_fold_runs_in_full(self):
        db = make_db()
        plan = db.plan_for(db._parse(BY_TAG))
        db.execute(BY_TAG)
        db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
        raced = racing_writer(db, plan, [
            "INSERT INTO t VALUES (8, 'b', 1)"])
        during = db.execute(BY_TAG).rows
        assert raced == [1]
        assert during == [("a", 4, 1120), ("b", 3, 90)]
        assert db.statistics["result_cache_folds"] == 0
        assert db.execute(BY_TAG).rows == uncached(db, BY_TAG).rows \
            == [("a", 4, 1120), ("b", 4, 91)]
        assert db.statistics["result_cache_folds"] == 1

    def test_rollback_is_a_conservative_miss_then_correct(self):
        db = make_db()
        committed = db.execute(BY_TAG).rows
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = v + 1")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("ROLLBACK")
        # The stamp stays bumped past every snapshot until the next
        # commit: misses, never a wrong answer.
        assert db.execute(BY_TAG).rows == committed
        assert db.execute(BY_TAG).rows == committed
        assert counters(db) == (0, 3)
        db.execute("INSERT INTO tags VALUES ('c', 'Gamma')")  # any commit
        assert db.execute(BY_TAG).rows == committed
        assert db.execute(BY_TAG).rows == committed
        assert counters(db) == (1, 4)

    def test_write_after_rollback_reusing_the_stamp_is_seen(self):
        """A rolled-back writer leaves the stamp at committed + 1; the
        next writer stamps the same number without moving it."""
        db = make_db()
        db.execute(BY_TAG)
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("ROLLBACK")
        db.execute("INSERT INTO t VALUES (7, 'b', 5)")
        assert db.execute(BY_TAG).rows == uncached(db, BY_TAG).rows
        assert ("b", 4, 10 + 30 + 50 + 5) in db.execute(BY_TAG).rows

    def test_in_transaction_reads_take_the_live_path(self):
        db = make_db()
        db.execute(BY_TAG)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
        own = db.execute(BY_TAG)             # read-your-writes
        assert ("a", 4, 1120) in own.rows
        assert counters(db) == (0, 1)        # neither looked up nor kept
        db.execute("ROLLBACK")
        assert ("a", 3, 120) in db.execute(BY_TAG).rows

    def test_pinned_snapshot_never_receives_a_later_result(self):
        db = make_db()
        sql = db._parse(BY_TAG)
        with db.open_snapshot() as pinned:
            old = db._run_select(sql, (), pinned).rows
            db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
            new = db.execute(BY_TAG).rows    # remembered at the new cn
            assert new != old
            assert db.execute(BY_TAG).rows == new
            hits, misses = counters(db)
            again = db._run_select(sql, (), pinned).rows
            assert again == old
            assert counters(db) == (hits, misses + 1)
        # And the pinned reader's execution displaced nothing.
        assert db.execute(BY_TAG).rows == new
        assert counters(db) == (hits + 1, misses + 1)

    def test_older_snapshot_may_reuse_a_result_it_could_have_computed(self):
        db = make_db()
        with db.open_snapshot() as older:
            db.execute("INSERT INTO tags VALUES ('c', 'Gamma')")
            new = db.execute(BY_TAG).rows    # t untouched since `older`
            hits, _misses = counters(db)
            assert db._run_select(db._parse(BY_TAG), (), older).rows \
                == new
            assert counters(db)[0] == hits + 1

    def test_join_is_invalidated_by_a_write_to_either_table(self):
        db = make_db()
        sql = ("SELECT g.label, SUM(t.v) AS total FROM t "
               "JOIN tags g ON t.tag = g.tag GROUP BY g.label "
               "ORDER BY g.label")
        base = db.execute(sql).rows
        assert db.execute(sql).rows == base
        assert counters(db) == (1, 1)
        db.execute("UPDATE tags SET label = 'Aleph' WHERE tag = 'a'")
        renamed = db.execute(sql).rows
        assert renamed == uncached(db, sql).rows != base
        db.execute("INSERT INTO t VALUES (7, 'b', 5)")
        grown = db.execute(sql).rows
        assert grown == uncached(db, sql).rows != renamed
        assert counters(db) == (1, 3)
        assert db.execute(sql).rows == grown
        assert counters(db) == (2, 3)

    def test_apply_committed_on_a_replica_invalidates(self, tmp_path):
        primary = Database.recover(tmp_path, "p", fsync="off")
        primary.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                        "tag TEXT, v INTEGER)")
        primary.execute("INSERT INTO t VALUES (1, 'a', 10)")
        replica = ReadReplica("p", "p-replica-0", tmp_path / "p.wal",
                              tmp_path / "p.snapshot")
        try:
            replica.poll()
            follower = replica.database
            assert follower.execute(BY_TAG).rows == [("a", 1, 10)]
            assert follower.execute(BY_TAG).rows == [("a", 1, 10)]
            assert counters(follower) == (1, 1)
            primary.execute("INSERT INTO t VALUES (2, 'a', 5)")
            assert replica.poll() == 1
            assert replica.database is follower
            assert follower.execute(BY_TAG).rows == [("a", 2, 15)]
            assert counters(follower) == (1, 2)
            assert follower.statistics["result_cache_folds"] == 1
        finally:
            replica.close()
            primary.close()


STAR = ("SELECT g.label, COUNT(*) AS n, SUM(t.v) AS total, "
        "AVG(t.x) AS mean, MIN(t.x) AS low, MAX(t.v) AS high FROM t "
        "JOIN tags g ON t.tag = g.tag GROUP BY g.label ORDER BY g.label")

#: REAL values whose sums expose any change of accumulation order.
AWKWARD = [1e16, 1.0, -0.0, 1e-9, -1e16, 0.1, None, 3.0, 2.5]


def folds(db):
    return db.statistics["result_cache_folds"]


class TestFolds:
    """Appends to the driving table fold into the remembered groups;
    every other change runs the statement in full.  The oracle is the
    reference interpreter twin, compared by ``repr``."""

    @staticmethod
    def pair():
        databases = []
        for engine in (Database, ReferenceDatabase):
            db = make_db(engine)
            db.execute("ALTER TABLE t ADD COLUMN x REAL")
            db.execute("UPDATE t SET x = v / 3.0")
            databases.append(db)
        return databases

    @staticmethod
    def both(pair, sql, params=()):
        for db in pair:
            db.execute(sql, params)

    @staticmethod
    def agree(pair, sql=STAR, params=()):
        db, twin = pair
        got = db.execute(sql, params)
        assert repr(got.rows) == repr(twin.execute(sql, params).rows)
        assert repr(got.rows) == repr(uncached(db, sql, params).rows)
        return got

    def test_appends_fold_bit_for_bit(self):
        pair = self.pair()
        db = pair[0]
        self.agree(pair)
        for round_number, x in enumerate(AWKWARD):
            for tag in ("a", "b", "c"):   # 'c' joins nothing
                self.both(pair, "INSERT INTO t VALUES (?, ?, ?, ?)",
                          (100 + 3 * round_number + "abc".index(tag),
                           tag, round_number, x))
            assert not self.agree(pair).reused
        assert folds(db) == len(AWKWARD)
        assert counters(db) == (0, 1 + len(AWKWARD))
        assert self.agree(pair).reused

    def test_new_groups_and_the_lone_group_fill_from_appended_rows(self):
        pair = self.pair()
        db = pair[0]
        statements = [
            "SELECT tag, COUNT(*) AS n, MAX(x) AS high FROM t "
            "GROUP BY tag HAVING COUNT(*) > 1 ORDER BY high DESC LIMIT 2",
            "SELECT COUNT(*) AS n, MIN(v) AS low, SUM(x) AS s FROM t "
            "WHERE v > 1000",
        ]
        # Reads a source column with no GROUP BY: on zero rows the
        # sources' null row, on both; once rows arrive, the first row's.
        represented = "SELECT tag, COUNT(*) AS n FROM t WHERE v > 1000"
        statements.append(represented)
        for sql in statements:
            self.agree(pair, sql)
        assert db.execute(represented).rows == [(None, 0)]
        self.both(pair, "INSERT INTO t VALUES (7, 'new', 2000, NULL)")
        self.both(pair, "INSERT INTO t VALUES (8, 'new', 3000, ?)",
                  (-0.0,))
        for sql in statements:
            self.agree(pair, sql)
        assert db.execute(represented).rows == [("new", 2)]
        assert folds(db) == len(statements)

    def test_parameters_fold_per_key(self):
        pair = self.pair()
        db = pair[0]
        sql = "SELECT tag, SUM(x) AS s FROM t WHERE v > ? GROUP BY tag " \
              "ORDER BY tag"
        for bound in (0, 30):
            self.agree(pair, sql, (bound,))
        self.both(pair, "INSERT INTO t VALUES (7, 'a', 70, 0.5)")
        for bound in (0, 30):
            self.agree(pair, sql, (bound,))
        assert folds(db) == 2

    @pytest.mark.parametrize("writes", [
        ["DELETE FROM t WHERE id = 1"],
        ["UPDATE t SET x = 0.25 WHERE id = 2"],
        ["UPDATE tags SET label = 'Aleph' WHERE tag = 'a'"],
        ["BEGIN", "INSERT INTO t VALUES (7, 'a', 1, 1.0)", "ROLLBACK",
         "INSERT INTO t VALUES (7, 'b', 2, 2.0)"],
        ["BEGIN", "DELETE FROM t WHERE id = 1", "ROLLBACK",
         "INSERT INTO t VALUES (7, 'b', 2, 2.0)"],
        ["BEGIN", "UPDATE t SET v = 0 WHERE id = 1", "ROLLBACK",
         "INSERT INTO t VALUES (7, 'b', 2, 2.0)"],
    ], ids=["delete", "update", "dimension", "rolled-back-insert",
            "rolled-back-delete", "rolled-back-update"])
    def test_anything_but_an_append_runs_in_full(self, writes):
        pair = self.pair()
        db = pair[0]
        self.agree(pair)
        for sql in writes:
            self.both(pair, sql)
        self.agree(pair)
        assert folds(db) == 0
        # The state computed in full folds the next append.
        self.both(pair, "INSERT INTO t VALUES (9, 'a', 9, 9.5)")
        self.agree(pair)
        assert folds(db) == 1

    def test_restore_below_the_watermark_runs_in_full(self):
        db = make_db()
        sql = "SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t " \
              "GROUP BY tag ORDER BY tag"
        db.execute(sql)

        def ship(rowid, row):
            db.apply_committed(
                [(db.committed_cn + 1, [("insert", "t", rowid, row)])])

        ship(10, [10, "a", 100])      # an append: rowid 10 >= 7
        assert db.execute(sql).rows == uncached(db, sql).rows
        assert folds(db) == 1
        ship(8, [8, "b", 80])         # below the watermark (11)
        assert db.execute(sql).rows == uncached(db, sql).rows \
            == [("a", 4, 220), ("b", 4, 170)]
        assert folds(db) == 1

    def test_a_collection_that_reorders_rows_is_neither_reused_nor_folded(
            self):
        pair = self.pair()
        db = pair[0]
        sql = "SELECT tag, MIN(id) AS first FROM t GROUP BY tag"
        self.both(pair, "BEGIN")
        self.both(pair, "DELETE FROM t WHERE id = 1")
        self.both(pair, "ROLLBACK")   # row 1 now scans last
        self.both(pair, "INSERT INTO tags VALUES ('c', 'Gamma')")
        self.agree(pair, sql)        # groups in scan order: a, b
        self.agree(pair, sql)
        hits = counters(db)[0]
        for database in pair:
            database.vacuum()         # rowid order again: b, a
        self.agree(pair, sql)
        self.both(pair, "INSERT INTO t VALUES (7, 'c', 1, 1.0)")
        self.agree(pair, sql)
        assert counters(db)[0] == hits and folds(db) == 0
        self.both(pair, "INSERT INTO t VALUES (8, 'c', 1, 1.0)")
        self.agree(pair, sql)
        assert folds(db) == 1

    @pytest.mark.parametrize("sql", [
        "SELECT tag, COUNT(DISTINCT v) AS n FROM t GROUP BY tag "
        "ORDER BY tag",
        "SELECT a.tag, COUNT(*) AS n FROM t a JOIN t b ON a.tag = b.tag "
        "GROUP BY a.tag ORDER BY a.tag",
    ], ids=["distinct-aggregate", "self-join"])
    def test_unfoldable_plans_run_in_full(self, sql):
        pair = self.pair()
        db = pair[0]
        self.agree(pair, sql)
        self.both(pair, "INSERT INTO t VALUES (7, 'a', 10, 1.0)")
        self.agree(pair, sql)
        assert folds(db) == 0
        assert counters(db) == (0, 2)

    def test_a_snapshot_older_than_the_stamps_runs_in_full(self):
        db = make_db()
        statement = db._parse(BY_TAG)
        with db.open_snapshot() as pinned:
            db.execute(BY_TAG)
            db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
            db.execute(BY_TAG)                # folded at the new cn
            assert folds(db) == 1
            old = db._run_select(statement, (), pinned).rows
            assert old == [("a", 3, 120), ("b", 3, 90)]
            assert folds(db) == 1

    def test_too_many_groups_keep_no_state(self):
        db = Database()
        db.execute("CREATE TABLE wide (id INTEGER, v INTEGER)")
        db.executemany(
            "INSERT INTO wide VALUES (?, ?)",
            [(i, i) for i in range(RESULT_CACHE_MAX_ROWS + 1)])
        sql = "SELECT id, SUM(v) AS s FROM wide GROUP BY id " \
              "ORDER BY s DESC LIMIT 2"
        db.execute(sql)
        db.execute("INSERT INTO wide VALUES (5000, 5000)")
        assert db.execute(sql).rows == [(5000, 5000), (1024, 1024)]
        assert folds(db) == 0

    def test_float_totals_do_not_resume_where_sum_compensates(
            self, monkeypatch):
        """From Python 3.12 ``sum`` compensates float rounding within
        one call, so only an int total may be continued there."""
        from repro.engine import planner

        monkeypatch.setattr(planner, "_FLOAT_SUMS_RESUME", False)
        pair = self.pair()
        db = pair[0]
        for sql in (STAR, BY_TAG):
            self.agree(pair, sql)
        self.both(pair, "INSERT INTO t VALUES (7, 'a', 1, ?)", (1e16,))
        for sql in (STAR, BY_TAG):
            self.agree(pair, sql)
        assert folds(db) == 1     # BY_TAG's int total only


class TestDdlFlushes:
    @pytest.mark.parametrize("ddl", [
        "ALTER TABLE t ADD COLUMN extra INTEGER",
        "CREATE INDEX idx_tag ON t (tag)",
        "CREATE VIEW tv AS SELECT tag FROM t",
        "CREATE TABLE other (x INTEGER)",
        "CREATE TABLE copy_t AS SELECT * FROM t",
        "DROP TABLE tags",
    ])
    def test_ddl_drops_remembered_results(self, ddl):
        db = make_db()
        expected = db.execute(BY_TAG).rows
        db.execute(ddl)
        assert not db._plan_cache
        assert db.execute(BY_TAG).rows == expected
        assert counters(db) == (0, 2)

    def test_drop_and_create_same_name_reads_the_new_table(self):
        db = make_db()
        db.execute(BY_TAG)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, "
                   "v INTEGER)")
        assert db.execute(BY_TAG).rows == []
        db.execute("INSERT INTO t VALUES (1, 'z', 1)")
        assert db.execute(BY_TAG).rows == [("z", 1, 1)]
        assert counters(db)[0] == 0

    def test_added_column_is_visible_to_the_recompiled_statement(self):
        db = make_db()
        sql = "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag ORDER BY tag"
        db.execute(sql)
        db.execute("ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 2")
        assert db.execute(sql).rows == [("a", 3), ("b", 3)]
        assert db.execute(
            "SELECT tag, SUM(w) AS s FROM t GROUP BY tag ORDER BY tag"
        ).rows == [("a", 6), ("b", 6)]

    def test_rolled_back_ddl_flushes(self):
        db = make_db()
        expected = db.execute(BY_TAG).rows
        db.execute("BEGIN")
        db.execute("CREATE TABLE temp_t (x INTEGER)")
        db.execute("ROLLBACK")
        assert not db._plan_cache
        assert db.execute(BY_TAG).rows == expected
        assert counters(db) == (0, 2)
        db.execute("BEGIN")
        db.execute("DROP TABLE t")
        db.execute("ROLLBACK")
        assert db.execute(BY_TAG).rows == expected

    def test_noop_ddl_changes_and_invalidates_nothing(self):
        db = make_db()
        db.execute("CREATE VIEW tv AS SELECT tag FROM t")
        db.execute(BY_TAG)
        generation = db._plan_generation
        cn = db.committed_cn
        db.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS t AS SELECT 1 AS x")
        db.execute("DROP TABLE IF EXISTS missing")
        db.execute("CREATE VIEW IF NOT EXISTS tv AS SELECT id FROM t")
        db.execute("DROP VIEW IF EXISTS missing_view")
        assert db._plan_generation == generation
        assert db.committed_cn == cn
        db.execute(BY_TAG)
        assert counters(db) == (1, 1)


class TestKeysAndEligibility:
    def test_params_of_equal_value_and_different_type_do_not_collide(self):
        db = Database()
        twin = ReferenceDatabase()
        sql = "SELECT ? AS echo, COUNT(*) AS n FROM u WHERE x = ?"
        for target in (db, twin):
            target.execute("CREATE TABLE u (x INTEGER)")
            target.execute("INSERT INTO u VALUES (1), (0), (NULL)")
        for _ in range(2):
            for value in (1, 1.0, True, None, 0, 0.0, -0.0, False, "1"):
                got = db.execute(sql, (value, value))
                want = twin.execute(sql, (value, value))
                assert repr(got.rows) == repr(want.rows), value
        hits, misses = counters(db)
        assert misses == 9 and hits == 9

    def test_unhashable_params_bypass(self):
        db = make_db()
        sql = "SELECT COUNT(*) FROM t WHERE v > ?"
        plan = db.plan_for(db._parse(sql))
        with db.open_snapshot() as snapshot:
            with pytest.raises(EngineError, match="cannot compare"):
                db._run_select(db._parse(sql), ([1],), snapshot)
        assert counters(db) == (0, 0)
        assert not plan.results

    def test_view_sources_never_cache(self):
        db = make_db()
        db.execute("CREATE VIEW tv AS SELECT tag, v FROM t")
        sql = "SELECT tag, SUM(v) AS s FROM tv GROUP BY tag ORDER BY tag"
        first = db.execute(sql).rows
        db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
        second = db.execute(sql).rows
        assert first != second
        assert counters(db) == (0, 0)

    def test_aggregating_view_body_is_reused_and_invalidated(self):
        db = make_db()
        db.execute("CREATE VIEW totals AS "
                   "SELECT tag, SUM(v) AS s FROM t GROUP BY tag")
        sql = "SELECT tag, s FROM totals ORDER BY tag"
        first = db.execute(sql).rows
        assert db.execute(sql).rows == first
        assert counters(db) == (1, 1)        # the view's own SELECT
        db.execute("INSERT INTO t VALUES (7, 'a', 1000)")
        assert db.execute(sql).rows == [("a", 1120), ("b", 90)]

    def test_union_parts_are_reused_independently(self):
        db = make_db()
        sql = ("SELECT COUNT(*) AS n FROM t UNION ALL "
               "SELECT COUNT(*) AS n FROM tags")
        assert db.execute(sql).rows == [(6,), (2,)]
        db.execute("INSERT INTO tags VALUES ('c', 'Gamma')")
        assert db.execute(sql).rows == [(6,), (3,)]
        assert counters(db) == (1, 3)

    def test_explain_names_the_tables_of_an_eligible_statement(self):
        db = make_db()
        lines = [row[0] for row in db.execute("EXPLAIN " + BY_TAG).rows]
        assert lines[-1] == "result cache: eligible (tables: t)"
        plain = [row[0] for row in db.execute(
            "EXPLAIN SELECT id FROM t").rows]
        assert not any(line.startswith("result cache") for line in plain)

    def test_explain_of_a_distinct_select(self):
        db = make_db()
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT DISTINCT g.label FROM t JOIN tags g "
            "ON t.tag = g.tag WHERE g.label > ? ORDER BY g.label").rows]
        assert lines == [
            "scan t t: full scan (~6 rows)",
            "hash join INNER tags g: t.tag = g.tag (build=right, "
            "~6 x ~2 rows)",
            "  scan tags g: full scan (~2 rows)",
            "    filter [pushed]: g.label > ?",
            "distinct",
            "order by: g.label asc",
            "project: label",
            "result cache: eligible (tables: t, tags)",
        ]


class TestBoundedCaches:
    def test_distinct_literal_selects_leave_both_caches_at_capacity(self):
        db = make_db()
        db.execute(BY_TAG)
        for n in range(10_000):
            sql = f"SELECT COUNT(*) FROM t WHERE v > {n}"
            expected = sum(1 for i in range(1, 7) if i * 10 > n)
            assert db.execute(sql).scalar() == expected
        assert len(db._statement_cache) == STATEMENT_CACHE_CAPACITY
        assert len(db._plan_cache) == STATEMENT_CACHE_CAPACITY
        # Every plan belongs to a statement that is still cached.
        cached = {id(statement)
                  for statement in db._statement_cache.values()}
        assert set(db._plan_cache) <= cached
        # An evicted statement is re-parsed, re-planned, and correct.
        assert ("a", 3, 120) in db.execute(BY_TAG).rows

    def test_recently_used_statements_survive_the_churn(self):
        db = make_db()
        db.execute(BY_TAG)
        kept = db._parse(BY_TAG)
        for n in range(STATEMENT_CACHE_CAPACITY * 2):
            db.execute(f"SELECT id FROM t WHERE v = {n}")
            if n % 100 == 0:
                db.execute(BY_TAG)
        assert db._parse(BY_TAG) is kept

    def test_union_parts_cannot_grow_the_plan_cache_unbounded(self):
        db = make_db()
        for n in range(STATEMENT_CACHE_CAPACITY):
            db.execute(f"SELECT id FROM t WHERE v = {n} UNION "
                       f"SELECT id FROM t WHERE v = {n + 1}")
        assert len(db._plan_cache) <= STATEMENT_CACHE_CAPACITY


class TestServicesIssueNoDdlPerCall:
    def test_plan_generation_unchanged_across_100_service_calls(self):
        from repro import OdbisPlatform

        platform = OdbisPlatform()
        try:
            platform.provisioning.provision("acme", "Acme", plan="team")
            context = platform.tenants.require_active("acme")
            warehouse = context.warehouse_db
            warehouse.execute("CREATE TABLE sales (region TEXT, "
                              "amount INTEGER)")
            warehouse.execute("INSERT INTO sales VALUES ('n', 1), "
                              "('s', 2)")
            metadata, reporting = platform.metadata, platform.reporting
            metadata.create_dataset(
                "acme", "by_region", "warehouse",
                "SELECT region, SUM(amount) AS total FROM sales "
                "GROUP BY region ORDER BY region")
            reporting.create_report_group("acme", "g")
            # The services' tables live in the platform database.
            platform_db = platform.tenants.platform_db
            generation = platform_db._plan_generation
            statements = platform_db.statistics["statements"]
            for _ in range(100):
                assert metadata.dataset_rows("acme", "by_region") == [
                    {"region": "n", "total": 1},
                    {"region": "s", "total": 2}]
                assert reporting.report_groups("acme") == ["g"]
                assert metadata.datasources("acme")[0]["name"] \
                    == "warehouse"
            assert platform_db._plan_generation == generation
            # No CREATE TABLE IF NOT EXISTS rides along any more: two
            # look-ups for dataset_rows, one for each of the others.
            issued = platform_db.statistics["statements"] - statements
            assert issued == 100 * 4, issued
            assert warehouse.statistics["result_cache_hits"] >= 99
        finally:
            platform.close()
