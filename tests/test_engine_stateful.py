"""Model-based stateful testing of the engine (hypothesis).

A random interleaving of inserts, updates, deletes, transactions and
rollbacks runs against both the SQL engine and a plain-Python oracle
(a list of dicts).  After every step the full table contents must
match the oracle — the strongest correctness net over the substrate
everything else stands on.

The machine also drives a reference interpreter twin
(``tests/reference.py``) through the same
steps: the interpreter never remembers a result, so after every step a
set of aggregates read from *another* thread (the lock-free snapshot
path, where the compiled database may reuse a remembered result) must
equal the twin's answers — with a transaction open, with one rolled
back, and with nothing having happened in between.  Only the compiled
database indexes ``t``, so its keyed UPDATEs and DELETEs choose their
rows by index point, prefix and range scans while the twin full-scans,
and a ``vacuum`` step settles rows between writes.  Range reads,
updates and deletes (``<``, ``<=``, ``>``, ``>=``, ``BETWEEN`` on ``k``
and under a ``tag`` prefix) run on both databases and must agree, with
NULL ``k`` rows, keys moved inside the range, and bounds of the wrong
type (which must raise the same error on both) in the mix.

A small star schema (facts ``f`` over dimension ``d``) takes appends —
single rows, and bulk commits large enough to make the committing
writer settle the table — deletes, updates, rolled-back appends and
dimension relabels, interleaved with star-join aggregates read from
the other thread, where an append is folded into the remembered
groups instead of rescanned: each answer must equal the twin's by
``repr``, REAL values like ``-0.0``, ``1e16`` and ``1e-9`` included.
A view whose body aggregates ``f``, joined with ``d`` on either side,
is read the same way, with a transaction open and appends pending in
it, and with none.  With no transaction open, no table retains more than ``rows * 9/8 +
256`` versions (the settle bound).
"""

import operator
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import Database
from repro.errors import ConstraintViolation, EngineError

from repro.engine.storage import SETTLE_FLOOR, SETTLE_FRACTION
from tests.reference import ReferenceDatabase

keys = st.integers(min_value=0, max_value=20)
values = st.integers(min_value=-100, max_value=100)
#: REAL values whose sums expose any change of accumulation order.
reals = st.sampled_from([None, 1e16, -1e16, 1.0, -0.0, 0.0, 1e-9, 0.1,
                         2.5, -3.0])
fact_tags = st.sampled_from([None, "a", "b", "c", "z"])
facts = st.lists(st.tuples(fact_tags, reals,
                           st.one_of(st.none(), values)),
                 min_size=1, max_size=4)
tags = st.sampled_from(["a", "b", "c"])
bounds = st.one_of(keys, st.floats(min_value=-1, max_value=21,
                                   allow_nan=False))
comparisons = st.sampled_from(["<", "<=", ">", ">="])
COMPARE = {"<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


def in_range(row, op, bound, tag=None):
    """The oracle's ``[tag = ? AND] k <op> ?``."""
    return row["k"] is not None and COMPARE[op](row["k"], bound) \
        and (tag is None or row["tag"] == tag)


class EngineModel(RuleBasedStateMachine):
    """The engine must stay equivalent to a list-of-dicts oracle."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.twin = ReferenceDatabase("twin")
        self.both("CREATE TABLE t (k INTEGER, v INTEGER, tag TEXT)")
        self.db.execute("CREATE INDEX t_k ON t (k)")
        self.db.execute("CREATE INDEX t_tag_k ON t (tag, k)")
        self.both("CREATE TABLE d (tag TEXT PRIMARY KEY, label TEXT)")
        self.both("INSERT INTO d VALUES ('a', 'Alpha'), ('b', 'Beta'), "
                  "('c', NULL)")
        self.both("CREATE TABLE f (tag TEXT, x REAL, n INTEGER)")
        self.both("CREATE VIEW f_by_tag AS SELECT tag, COUNT(*) AS c, "
                  "SUM(x) AS s, MAX(n) AS hi FROM f GROUP BY tag")
        self.widened = 0          # columns added to d since CREATE
        self.oracle = []          # committed + pending rows
        self.snapshot = None      # oracle at BEGIN, for rollback
        self.reader = ThreadPoolExecutor(max_workers=1)

    def both(self, sql, params=()):
        self.db.execute(sql, params)
        self.twin.execute(sql, params)

    # -- mutations -----------------------------------------------------------

    @rule(k=keys, v=values, tag=tags)
    def insert(self, k, v, tag):
        self.both("INSERT INTO t VALUES (?, ?, ?)", (k, v, tag))
        self.oracle.append({"k": k, "v": v, "tag": tag})

    @rule(k=keys, v=values)
    def update_by_key(self, k, v):
        self.both("UPDATE t SET v = ? WHERE k = ?", (v, k))
        for row in self.oracle:
            if row["k"] == k:
                row["v"] = v

    @rule(tag=tags, delta=values)
    def update_arithmetic(self, tag, delta):
        self.both("UPDATE t SET v = v + ? WHERE tag = ?", (delta, tag))
        for row in self.oracle:
            if row["tag"] == tag:
                row["v"] += delta

    @rule(k=keys)
    def delete_by_key(self, k):
        self.both("DELETE FROM t WHERE k = ?", (k,))
        self.oracle = [row for row in self.oracle if row["k"] != k]

    @rule(tag=tags, k=keys, v=values)
    def update_by_tag_and_key(self, tag, k, v):
        self.both("UPDATE t SET v = ? WHERE tag = ? AND k = ?",
                  (v, tag, k))
        for row in self.oracle:
            if row["tag"] == tag and row["k"] == k:
                row["v"] = v

    @rule(v=values, tag=tags)
    def insert_null_key(self, v, tag):
        self.both("INSERT INTO t VALUES (NULL, ?, ?)", (v, tag))
        self.oracle.append({"k": None, "v": v, "tag": tag})

    @rule(k=keys, to=keys)
    def move_key(self, k, to):
        # The old key's entry stays behind: a range over both keys
        # reaches the row twice and must return it once.
        self.both("UPDATE t SET k = ? WHERE k = ?", (to, k))
        for row in self.oracle:
            if row["k"] == k:
                row["k"] = to

    @rule(op=comparisons, bound=bounds, v=values,
          tag=st.one_of(st.none(), tags))
    def update_range(self, op, bound, v, tag):
        where = f"k {op} ?" if tag is None else f"tag = ? AND k {op} ?"
        params = (v, bound) if tag is None else (v, tag, bound)
        self.both(f"UPDATE t SET v = ? WHERE {where}", params)
        for row in self.oracle:
            if in_range(row, op, bound, tag):
                row["v"] = v

    @rule(low=bounds, high=bounds, tag=st.one_of(st.none(), tags))
    def delete_between(self, low, high, tag):
        if tag is None:
            self.both("DELETE FROM t WHERE k BETWEEN ? AND ?", (low, high))
        else:
            self.both("DELETE FROM t WHERE tag = ? AND k BETWEEN ? AND ?",
                      (tag, low, high))
        self.oracle = [row for row in self.oracle
                       if not (in_range(row, ">=", low, tag)
                               and in_range(row, "<=", high))]

    @rule(op=comparisons, bound=bounds, low=bounds, high=bounds, tag=tags)
    def range_reads_agree(self, op, bound, low, high, tag):
        """Every range shape reads the same rows on both databases
        (row order aside: index candidates come in rowid order)."""
        for sql, params in (
                (f"SELECT k, v, tag FROM t WHERE k {op} ?", (bound,)),
                (f"SELECT k, v, tag FROM t WHERE tag = ? AND k {op} ?",
                 (tag, bound)),
                ("SELECT k, v, tag FROM t WHERE k BETWEEN ? AND ?",
                 (low, high)),
                ("SELECT k, v, tag FROM t WHERE tag = ? "
                 "AND k BETWEEN ? AND ?", (tag, low, high)),
                ("SELECT k, v, tag FROM t WHERE tag = ?", (tag,))):
            assert sorted(self.db.execute(sql, params).rows, key=repr) \
                == sorted(self.twin.execute(sql, params).rows, key=repr)
        expected = [row for row in self.oracle
                    if in_range(row, op, bound, tag)]
        assert len(self.db.execute(
            f"SELECT v FROM t WHERE tag = ? AND k {op} ?",
            (tag, bound)).rows) == len(expected)

    @rule(op=comparisons, tag=tags)
    def mismatched_bound_agrees(self, op, tag):
        """A text bound on the integer ``k`` raises the interpreter's
        error on both databases (or, with no non-NULL ``k``, nothing),
        for a read and for an UPDATE that would change nothing."""
        for sql, params in (
                (f"SELECT k, v, tag FROM t WHERE k {op} ?", ("x",)),
                (f"UPDATE t SET v = v WHERE tag = ? AND k {op} ?",
                 (tag, "x"))):
            outcomes = []
            for database in (self.db, self.twin):
                try:
                    outcomes.append(repr(database.execute(sql, params)))
                except EngineError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]

    @rule(threshold=values)
    def delete_below(self, threshold):
        self.both("DELETE FROM t WHERE v < ?", (threshold,))
        self.oracle = [row for row in self.oracle
                       if row["v"] >= threshold]

    # -- the star schema (compared with the twin, not the oracle) -----------

    STAR = [
        ("SELECT d.label, COUNT(*) AS c, SUM(f.x) AS s, AVG(f.x) AS a, "
         "MIN(f.x) AS lo, MAX(f.n) AS hi FROM f JOIN d ON f.tag = d.tag "
         "GROUP BY d.label ORDER BY d.label", ()),
        ("SELECT d.label, SUM(f.n) AS s, COUNT(f.x) AS cx FROM f "
         "JOIN d ON f.tag = d.tag GROUP BY d.label HAVING COUNT(*) > 1 "
         "ORDER BY s DESC LIMIT 2", ()),
        ("SELECT COUNT(*) AS c, SUM(f.x) AS s, MIN(f.tag) AS t, "
         "MAX(f.x) AS m FROM f LEFT JOIN d ON f.tag = d.tag "
         "WHERE d.label IS NULL", ()),
        ("SELECT f.tag, AVG(f.n) AS a, SUM(f.x) AS s, MAX(f.x) AS m "
         "FROM f GROUP BY f.tag", ()),
        ("SELECT d.label, SUM(f.x) AS s, MIN(f.n) AS lo FROM f "
         "JOIN d ON f.tag = d.tag WHERE f.n > ? GROUP BY d.label "
         "ORDER BY d.label", (0,)),
    ]

    @rule(rows=facts)
    def append_facts(self, rows):
        for row in rows:
            self.both("INSERT INTO f VALUES (?, ?, ?)", row)

    @precondition(lambda self: self.snapshot is None
                  and self.db.row_count("f") < 100)
    @rule(x=reals)
    def bulk_append_facts(self, x):
        """One commit past the settle threshold: the committing writer
        collects ``f``, and folding goes on."""
        rows = [("abcz"[index % 4], x, index) for index in range(320)]
        for database in (self.db, self.twin):
            database.executemany("INSERT INTO f VALUES (?, ?, ?)", rows)
        assert len(self.db.storage("f")._versions) == 0

    @precondition(lambda self: self.snapshot is None)
    @rule(rows=facts)
    def rolled_back_append(self, rows):
        for database in (self.db, self.twin):
            database.begin()
            for row in rows:
                database.execute("INSERT INTO f VALUES (?, ?, ?)", row)
            database.rollback()

    @rule(x=reals)
    def delete_facts(self, x):
        self.both("DELETE FROM f WHERE x = ? OR x IS NULL", (x,))

    @rule(tag=fact_tags, n=values)
    def update_facts(self, tag, n):
        self.both("UPDATE f SET n = n + ? WHERE tag = ?", (n, tag))

    @rule(tag=tags, label=st.sampled_from([None, "Alpha", "Beta", "Q"]))
    def relabel(self, tag, label):
        self.both("UPDATE d SET label = ? WHERE tag = ?", (label, tag))

    def star_reads(self, database):
        """Every star aggregate, twice, as another thread sees them."""
        def read():
            return [repr(database.execute(sql, params).rows)
                    for _ in range(2) for sql, params in self.STAR]
        return self.reader.submit(read).result(30)

    @rule()
    def star_aggregates_agree(self):
        for sql, params in self.STAR:
            assert repr(self.db.execute(sql, params).rows) \
                == repr(self.twin.execute(sql, params).rows)
        assert self.star_reads(self.db) == self.star_reads(self.twin)

    VIEW_JOINS = [
        "SELECT d.label, v.c, v.s, v.hi FROM d JOIN f_by_tag v "
        "ON d.tag = v.tag ORDER BY d.tag",
        "SELECT v.tag, v.s, d.label FROM f_by_tag v LEFT JOIN d "
        "ON v.tag = d.tag WHERE v.c > 1 ORDER BY v.tag",
    ]

    def view_joins_agree(self):
        """Each view join answers as the twin's, on this thread (the
        live rows when a transaction is open) and on another."""
        def read(database):
            return [repr(database.execute(sql).rows)
                    for sql in self.VIEW_JOINS]
        assert read(self.db) == read(self.twin)
        assert self.reader.submit(read, self.db).result(30) \
            == self.reader.submit(read, self.twin).result(30)

    @rule(rows=facts)
    def view_joins_agree_in_and_out_of_a_transaction(self, rows):
        """As things stand, then with ``rows`` appended inside an open
        transaction: the machine's own, else one rolled back after."""
        self.view_joins_agree()
        opened = self.snapshot is None
        if opened:
            self.db.begin()
            self.twin.begin()
        self.append_facts(rows)
        self.view_joins_agree()
        if opened:
            self.db.rollback()
            self.twin.rollback()

    @precondition(lambda self: self.snapshot is None)
    @rule(rows=facts)
    def append_is_folded(self, rows):
        """Read, append, read: each star aggregate folds the appended
        rows (unless a collection re-sorted ``f`` since it was last
        stamped, which refuses until the next write) and still equals
        the twin."""
        committed = self.db.committed_cn

        def quiet(storage):
            # A rolled-back write leaves a stamp past every snapshot
            # (and marks the table rewritten) until the next commit; a
            # re-sort marks it past its stamp until the next write.
            return storage._rewritten_cn <= storage._last_version_cn \
                <= committed

        expected = sum(
            all(quiet(scan.storage) for scan in
                self.db.plan_for(self.db._parse(sql)).scans)
            for sql, _params in self.STAR)
        self.star_reads(self.db)
        before = self.db.statistics["result_cache_folds"]
        self.append_facts(rows)
        assert self.star_reads(self.db) == self.star_reads(self.twin)
        assert self.db.statistics["result_cache_folds"] - before \
            == expected

    # -- dimension reads: DISTINCT, a sliced star join, dimension DDL ------

    DISTINCT = [
        ("SELECT DISTINCT tag FROM f ORDER BY tag", ()),
        ("SELECT DISTINCT d.label FROM f JOIN d ON f.tag = d.tag", ()),
        ("SELECT DISTINCT label FROM d", ()),
    ]
    #: Star joins sliced by a parameter on the dimension: the filter is
    #: pushed into the scan of ``d`` and, where the join probes a kept
    #: hash of ``d``, runs on matched rows only — as the interpreter's
    #: WHERE does, raising where it raises (a number against a label).
    SLICED = [
        "SELECT d.label, COUNT(*) AS c, SUM(f.x) AS s FROM f "
        "JOIN d ON f.tag = d.tag WHERE d.label > ? GROUP BY d.label "
        "ORDER BY d.label",
        "SELECT f.tag, d.label, f.n FROM f JOIN d ON f.tag = d.tag "
        "WHERE d.label = ?",
    ]
    SLICERS = ("Beta", 1)

    @staticmethod
    def outcome(database, sql, params):
        """The rows' ``repr``, or the error when the statement raises."""
        try:
            return repr(database.execute(sql, params).rows)
        except EngineError as exc:
            return f"raises {exc}"

    def dimension_reads(self, database, slicers, repeats=1):
        reads = self.DISTINCT + [(sql, (slicer,)) for sql in self.SLICED
                                 for slicer in slicers]
        return [self.outcome(database, sql, params)
                for _ in range(repeats) for sql, params in reads]

    def dimension_reads_agree(self, slicers=SLICERS):
        """Every DISTINCT and sliced read answers as the twin's: on
        another thread twice (snapshot reads: reused, folded, probing
        kept hashes), and on this one when it holds a transaction open
        (the live rows, where the compiled join filters every row of
        ``d``, so only text slicers cannot raise there)."""
        compiled = self.reader.submit(self.dimension_reads, self.db,
                                      slicers, 2).result(30)
        assert compiled == 2 * self.reader.submit(
            self.dimension_reads, self.twin, slicers).result(30)
        if self.snapshot is not None:
            slicers = [slicer for slicer in slicers
                       if isinstance(slicer, str)]
            assert self.dimension_reads(self.db, slicers) \
                == self.dimension_reads(self.twin, slicers)

    @rule(slicer=st.sampled_from(["Alpha", "B", "Q", None, 2.5]))
    def sliced_reads_agree(self, slicer):
        self.dimension_reads_agree((slicer,))

    @precondition(lambda self: self.snapshot is None and self.widened < 2)
    @rule()
    def widen_dimension(self):
        """ADD COLUMN widens the rows of ``d`` in place; no kept hash
        outlives it."""
        self.widened += 1
        self.both(f"ALTER TABLE d ADD COLUMN w{self.widened} INTEGER "
                  f"DEFAULT {self.widened}")

    @precondition(lambda self: self.snapshot is None)
    @rule(swapped=st.booleans())
    def recreate_dimension(self, swapped):
        """DROP then CREATE of ``d``: a new table of the same name, its
        columns maybe in another order, one tag on two rows (so the
        order inside a hash bucket shows)."""
        columns = "label TEXT, tag TEXT" if swapped \
            else "tag TEXT, label TEXT"
        self.both("DROP TABLE d")
        self.both(f"CREATE TABLE d ({columns})")
        self.both("INSERT INTO d (tag, label) VALUES ('a', 'Alpha'), "
                  "('b', 'Beta'), ('c', NULL), ('a', 'Again')")
        self.widened = 0

    @precondition(lambda self: self.snapshot is None)
    @rule(tag=tags, rows=facts)
    def rolled_back_dimension_delete(self, tag, rows):
        """A rolled-back DELETE moves rows of ``d`` to the end of its
        scan; the next commit lets a join keep a hash in that order,
        and a vacuum re-sorts ``d`` (moving no stamp, only
        ``_rewritten_cn``).  Every read answers as the twin's at each
        stage."""
        for database in (self.db, self.twin):
            database.begin()
            database.execute("DELETE FROM d WHERE tag = ?", (tag,))
            database.rollback()
        self.dimension_reads_agree()
        self.append_facts(rows)
        self.dimension_reads_agree()
        self.db.vacuum()
        self.twin.vacuum()
        self.dimension_reads_agree()
        assert self.star_reads(self.db) == self.star_reads(self.twin)

    # -- transactions -----------------------------------------------------------

    @precondition(lambda self: self.snapshot is None)
    @rule()
    def begin(self):
        self.db.begin()
        self.twin.begin()
        self.snapshot = [dict(row) for row in self.oracle]

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def commit(self):
        self.db.commit()
        self.twin.commit()
        self.snapshot = None

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def rollback(self):
        self.db.rollback()
        self.twin.rollback()
        self.oracle = self.snapshot
        self.snapshot = None

    @precondition(lambda self: self.snapshot is None)
    @rule()
    def vacuum(self):
        self.db.vacuum()
        self.twin.vacuum()
        # No snapshot is open: every live row settles, every dead
        # version goes, and a settled row still counts as a version.
        assert len(self.db.storage("t")._versions) == 0
        assert self.db.version_count("t") == len(self.oracle)

    # -- invariants ----------------------------------------------------------------

    @precondition(lambda self: self.snapshot is None)
    @invariant()
    def versions_stay_settled(self):
        """With no snapshot or transaction open, the committing writers'
        settling bounds every table's versions."""
        for database in (self.db, self.twin):
            for table in ("t", "d", "f"):
                assert database.version_count(table) <= \
                    database.row_count(table) * (1 + SETTLE_FRACTION) \
                    + SETTLE_FLOOR

    @invariant()
    def table_matches_oracle(self):
        engine_rows = sorted(
            self.db.query("SELECT k, v, tag FROM t"), key=repr)
        oracle_rows = sorted(
            ({"k": r["k"], "v": r["v"], "tag": r["tag"]}
             for r in self.oracle), key=repr)
        assert engine_rows == oracle_rows

    @invariant()
    def dimension_reads_match_the_interpreter(self):
        self.dimension_reads_agree()

    @invariant()
    def aggregates_match_oracle(self):
        count = self.db.query_value("SELECT COUNT(*) FROM t")
        assert count == len(self.oracle)
        total = self.db.query_value("SELECT SUM(v) FROM t")
        expected = sum(row["v"] for row in self.oracle) \
            if self.oracle else None
        assert total == expected

    AGGREGATES = [
        ("SELECT tag, COUNT(*) AS n, SUM(v) AS total, MIN(k) AS low "
         "FROM t GROUP BY tag ORDER BY tag", ()),
        ("SELECT COUNT(*) AS n, MAX(v) AS high FROM t WHERE k >= ?", (10,)),
        ("SELECT COUNT(*) AS n, MAX(v) AS high FROM t WHERE k >= ?",
         (10.0,)),
        ("SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING COUNT(*) > 1 "
         "ORDER BY k LIMIT ?", (3,)),
    ]

    def committed_aggregates(self, database):
        """Every aggregate, twice, as another thread sees them."""
        def read():
            return [repr(database.execute(sql, params).rows)
                    for _ in range(2)
                    for sql, params in self.AGGREGATES]
        return self.reader.submit(read).result(30)

    @invariant()
    def reused_results_match_the_interpreter(self):
        # This thread may hold an open transaction: both databases
        # read their own uncommitted writes on the live path ...
        for sql, params in self.AGGREGATES:
            assert repr(self.db.execute(sql, params).rows) \
                == repr(self.twin.execute(sql, params).rows)
        # ... while another thread sees only what is committed, and
        # the compiled database may answer it from a remembered result.
        assert self.committed_aggregates(self.db) \
            == self.committed_aggregates(self.twin)

    def teardown(self):
        if self.snapshot is not None:
            self.db.rollback()
            self.twin.rollback()
        self.reader.shutdown()
        # Non-vacuous: whenever the machine took a step, the second
        # read of each aggregate was served from a remembered result
        # at least once.
        statistics = self.db.statistics
        assert statistics["result_cache_misses"] == 0 \
            or statistics["result_cache_hits"] > 0
        assert self.twin.statistics["result_cache_hits"] == 0


EngineModel.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)
TestEngineStateful = EngineModel.TestCase


@pytest.mark.parametrize("rolled_back_delete", [False, True])
def test_unique_violation_fails_on_the_same_row(rolled_back_delete):
    """A multi-row UPDATE that breaks UNIQUE part-way fails on the same
    row, with the same error and the same rows already written, whether
    its targets come from an index (compiled) or a full scan (twin).
    A rolled-back delete moves its row to the end of the live scan,
    and the compiled database must follow that order too."""
    outcomes = []
    compiled, twin = Database(), ReferenceDatabase("twin")
    for database in (compiled, twin):
        database.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, "
                         "grp TEXT, code INTEGER UNIQUE)")
        database.execute("CREATE INDEX u_grp ON u (grp)")
        database.executemany("INSERT INTO u VALUES (?, ?, ?)", [
            (1, "a", 10), (2, "a", 30), (3, "a", 40), (4, "b", 50)])
        if rolled_back_delete:
            database.execute("BEGIN")
            database.execute("DELETE FROM u WHERE id = 1")
            database.execute("ROLLBACK")
        with pytest.raises(ConstraintViolation) as failure:
            database.execute(
                "UPDATE u SET code = code + 10 WHERE grp = ?", ("a",))
        rows = database.execute("SELECT id, code FROM u").rows
        outcomes.append((str(failure.value), sorted(rows)))
    plan = compiled.plan_for(compiled._parse(
        "UPDATE u SET code = code + 10 WHERE grp = ?"))
    assert plan.index.name == "u_grp"
    (error, rows), (twin_error, twin_rows) = outcomes
    assert error == twin_error == \
        "UNIQUE constraint failed: u(code) = (40,)"
    # Live order 1, 2, 3 writes id 1 before id 2 fails; after the
    # rolled-back delete the order is 2, 3, 1 and nothing is written.
    first = 10 if rolled_back_delete else 20
    assert rows == twin_rows == [(1, first), (2, 30), (3, 40), (4, 50)]
