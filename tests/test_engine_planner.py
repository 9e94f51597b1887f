"""Tests for the plan/compile layer: parity, EXPLAIN, and the plan cache.

The planner compiles every statement into positional-slot closures;
the reference interpreter (``tests/reference.py``) runs the same SQL
the plain way.  Every behavioural test here runs the same SQL through
both and requires byte-identical results.
"""

import ast
from pathlib import Path

import pytest

from repro.engine import Database
from repro.errors import EngineError
from tests.reference import ReferenceDatabase

SRC = Path(__file__).resolve().parent.parent / "src"


def seed(database):
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
        "dept TEXT, salary REAL)")
    database.execute(
        "INSERT INTO emp (id, name, dept, salary) VALUES "
        "(1, 'ada', 'eng', 100.0), "
        "(2, 'bob', 'eng', 90.0), "
        "(3, 'cy', 'ops', 80.0), "
        "(4, 'dee', NULL, NULL), "
        "(5, 'eve', 'ops', 80.0)")
    database.execute(
        "CREATE TABLE dept (code TEXT PRIMARY KEY, label TEXT)")
    database.execute(
        "INSERT INTO dept VALUES ('eng', 'Engineering'), "
        "('ops', 'Operations'), ('hr', 'People')")
    return database


@pytest.fixture
def db():
    return seed(Database("compiled"))


@pytest.fixture
def interpreted():
    return seed(ReferenceDatabase("interpreted"))


PARITY_QUERIES = [
    ("SELECT * FROM emp", ()),
    ("SELECT name, salary FROM emp WHERE salary >= 80.0", ()),
    ("SELECT name FROM emp WHERE dept = ?", ("eng",)),
    ("SELECT name FROM emp WHERE salary > 50 AND dept = 'ops'", ()),
    ("SELECT e.name, d.label FROM emp e JOIN dept d "
     "ON e.dept = d.code ORDER BY e.id", ()),
    ("SELECT e.name, d.label FROM emp e LEFT JOIN dept d "
     "ON e.dept = d.code ORDER BY e.id", ()),
    ("SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp "
     "GROUP BY dept ORDER BY dept", ()),
    ("SELECT dept, AVG(salary) AS a FROM emp GROUP BY dept "
     "HAVING COUNT(*) > 1 ORDER BY dept", ()),
    ("SELECT DISTINCT salary FROM emp ORDER BY salary", ()),
    ("SELECT COUNT(*) FROM emp WHERE salary IS NULL", ()),
    ("SELECT name FROM emp WHERE salary BETWEEN 80 AND 95 "
     "ORDER BY name", ()),
    ("SELECT name FROM emp WHERE dept IN ('eng', 'hr')", ()),
    ("SELECT name FROM emp WHERE name LIKE 'a%'", ()),
    ("SELECT UPPER(name) AS shout FROM emp ORDER BY shout", ()),
    ("SELECT CASE WHEN salary >= 90 THEN 'high' ELSE 'low' END AS band "
     "FROM emp ORDER BY id", ()),
    ("SELECT 1 + 2 AS three", ()),
    ("SELECT name FROM emp WHERE id > 1 AND id <= 4", ()),
    ("SELECT name FROM emp WHERE id BETWEEN ? AND ?", (2, 4)),
    ("SELECT name FROM emp WHERE 3 > id", ()),
    ("SELECT COUNT(*) FROM emp WHERE id >= ? AND id < ?", (2.5, 99)),
    # An empty lone group reads its sources' null row.
    ("SELECT COUNT(*) AS n, name FROM emp WHERE id < 0", ()),
    # UNION removes the rows DISTINCT does: -0.0 = 0.0.
    ("SELECT -0.0 AS z UNION SELECT 0.0", ()),
    ("SELECT DISTINCT salary * -0.0 AS z FROM emp UNION SELECT 0.0", ()),
]

#: Row counts pinned for parity cases both paths could get wrong
#: together (UNION is one code path for both).
PINNED_ROW_COUNTS = {PARITY_QUERIES[-2][0]: 1, PARITY_QUERIES[-1][0]: 2}


@pytest.mark.parametrize("sql,params", PARITY_QUERIES)
def test_compiled_matches_interpreted(db, interpreted, sql, params):
    compiled_result = db.execute(sql, params)
    interpreted_result = interpreted.execute(sql, params)
    assert compiled_result.columns == interpreted_result.columns
    assert compiled_result.rows == interpreted_result.rows
    assert len(compiled_result.rows) \
        == PINNED_ROW_COUNTS.get(sql, len(compiled_result.rows))


def seed_rota(database):
    database.execute(
        "CREATE TABLE shift (id INTEGER PRIMARY KEY, name TEXT, "
        "dept TEXT, day DATE, hours INTEGER)")
    database.execute(
        "INSERT INTO shift VALUES "
        "(1, 'Ada', 'eng', '2024-01-05', 8), "
        "(2, 'Bob', 'ENG', '2024-01-05', 6), "
        "(3, 'Cy', 'ops', '2023-12-31', 4), "
        "(4, 'Dee', NULL, NULL, NULL), "
        "(5, 'Eve', 'ops', '2024-02-29', 7)")
    database.execute("CREATE TABLE rota (dept TEXT, day DATE, lead TEXT)")
    database.execute(
        "INSERT INTO rota VALUES ('eng', '2024-01-05', 'Ada'), "
        "('ops', '2023-12-31', 'Eve'), ('ops', '2024-02-29', 'Cy'), "
        "('ops', '2024-02-29', 'Eve'), (NULL, NULL, 'nobody'), "
        "('eng', '2024-01-06', 'Bob')")
    return database


#: Engine paths no other tier-1 test reaches: two-key hash joins
#: (``JoinNode._hash_multi``, both build sides) and the string and
#: date scalar functions.
REACH_QUERIES = [
    ("SELECT s.name, r.lead FROM shift s JOIN rota r "
     "ON s.dept = r.dept AND s.day = r.day", ()),
    ("SELECT s.name, r.lead FROM shift s LEFT JOIN rota r "
     "ON r.dept = s.dept AND r.day = s.day ORDER BY s.id, r.lead", ()),
    # One left row against six: the join builds on the left.
    ("SELECT s.name, r.lead FROM shift s LEFT JOIN rota r "
     "ON r.dept = s.dept AND r.day = s.day WHERE s.id = ?", (5,)),
    ("SELECT s.name, r.lead FROM shift s JOIN rota r "
     "ON s.dept = r.dept AND s.day = r.day WHERE s.id = ?", (3,)),
    ("SELECT SUBSTR(name, 2) AS tail, SUBSTR(name, 1, 2) AS head, "
     "LOWER(dept) AS low, DATE(day) AS d, YEAR(day) AS y, "
     "MONTH(day) AS m, DAY(day) AS dd FROM shift ORDER BY id", ()),
    ("SELECT LOWER(dept) AS low, COUNT(*) AS n FROM shift "
     "GROUP BY LOWER(dept) ORDER BY low", ()),
    ("SELECT name FROM shift WHERE YEAR(day) = ? AND MONTH(day) < 3 "
     "AND DAY(DATE(day)) >= 5 ORDER BY name", (2024,)),
    ("SELECT DATE('2024-02-29') AS d, SUBSTR('odbis', 2, 3) AS s, "
     "LOWER(NULL) AS n", ()),
]


@pytest.mark.parametrize("sql,params", REACH_QUERIES)
def test_reach_compiled_matches_interpreted(sql, params):
    compiled = seed_rota(Database("compiled")).execute(sql, params)
    interpreted = seed_rota(
        ReferenceDatabase("interpreted")).execute(sql, params)
    assert compiled.columns == interpreted.columns
    assert compiled.rows == interpreted.rows
    assert compiled.rows


def test_two_key_joins_hash_on_both_build_sides(monkeypatch):
    """Non-vacuous: the REACH_QUERIES joins run ``_hash_multi``, with
    the build on each side."""
    from repro.engine.planner import JoinNode
    sides = []
    hash_multi = JoinNode._hash_multi

    def spy(node, left_rows, right_rows, params):
        sides.append(node.build_side(len(left_rows), len(right_rows)))
        return hash_multi(node, left_rows, right_rows, params)

    monkeypatch.setattr(JoinNode, "_hash_multi", spy)
    database = seed_rota(Database("compiled"))
    for sql, params in REACH_QUERIES[:4]:
        database.execute(sql, params)
    assert sorted(set(sides)) == ["left", "right"]


class TestBindRules:
    """Both paths bind a SELECT's names alike: HAVING makes a query
    grouped, an unaliased aggregate is named from every node kind, and
    a FROM alias is given once."""

    @pytest.mark.parametrize("where", ["", "WHERE id < 0 "])
    def test_having_without_group_by_is_one_group(self, db, interpreted,
                                                  where):
        sql = f"SELECT 1 AS one FROM emp {where}HAVING 1 = 1"
        for database in (db, interpreted):
            assert database.execute(sql).rows == [(1,)]

    def test_unaliased_aggregates_are_named_from_every_node_kind(
            self, db, interpreted):
        sql = ("SELECT SUM(CASE WHEN salary IS NULL THEN 1 ELSE 0 END), "
               "COUNT(name LIKE 'a%'), MIN(dept NOT IN ('eng', 'hr')), "
               "MAX(id NOT BETWEEN 2 AND 4), SUM(salary * ?), "
               "SUM(salary * ?) FROM emp")
        compiled = db.execute(sql, (1, 2))
        assert compiled.columns == [
            "sum(case when (salary is null) then 1 else 0)",
            "count((name like 'a%'))",
            "min((dept not in ('eng','hr')))",
            "max((id not between 2 and 4))",
            "sum((salary*?1))", "sum((salary*?2))"]
        assert compiled.rows == [(1, 5, False, True, 350.0, 700.0)]
        interpreted_result = interpreted.execute(sql, (1, 2))
        assert interpreted_result.columns == compiled.columns
        assert interpreted_result.rows == compiled.rows

    @pytest.mark.parametrize("sql, error", [
        # Unchecked, t.code reads dept on both sides: a cross join.
        ("SELECT t.name, t.label FROM emp t JOIN dept t ON t.code = t.code",
         "duplicate table alias 't'"),
        ("SELECT * FROM emp JOIN emp ON emp.id = emp.id",
         "duplicate table alias 'emp'"),
        ("SELECT x.* FROM emp", "unknown table or alias 'x' in 'x.*'"),
    ])
    def test_from_names_are_checked_when_bound(self, db, interpreted, sql,
                                               error):
        for database in (db, interpreted):
            with pytest.raises(EngineError, match=error):
                database.execute(sql)


def test_set_reads_the_row_before_the_update(db, interpreted):
    sql = "UPDATE dept SET code = label, label = code WHERE code = ?"
    for database in (db, interpreted):
        assert database.execute(sql, ("hr",)) == 1
    read = "SELECT code, label FROM dept ORDER BY code"
    assert db.execute(read).rows == interpreted.execute(read).rows
    assert ("People", "hr") in db.execute(read).rows


def test_no_source_module_imports_the_tests():
    """The reference interpreter is a test oracle: no module under
    ``src/`` imports from ``tests``."""
    paths = sorted(SRC.rglob("*.py"))
    imported = [
        (path.name, name) for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        for name in ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])]
    assert len(paths) > 50 and len(imported) > 500
    assert [pair for pair in imported
            if pair[1].split(".")[0] == "tests"] == []


class TestOrderByEdges:
    """ORDER BY with NULLs and mixed directions, on both paths."""

    def both(self, db, interpreted, sql, params=()):
        compiled_rows = db.execute(sql, params).rows
        assert compiled_rows == interpreted.execute(sql, params).rows
        return compiled_rows

    def test_nulls_sort_first_ascending(self, db, interpreted):
        rows = self.both(
            db, interpreted,
            "SELECT name, salary FROM emp ORDER BY salary, name")
        assert rows[0] == ("dee", None)

    def test_nulls_sort_last_descending(self, db, interpreted):
        rows = self.both(
            db, interpreted,
            "SELECT name, salary FROM emp ORDER BY salary DESC, name")
        assert rows[-1] == ("dee", None)

    def test_mixed_asc_desc(self, db, interpreted):
        rows = self.both(
            db, interpreted,
            "SELECT dept, name FROM emp WHERE dept IS NOT NULL "
            "ORDER BY dept ASC, name DESC")
        assert rows == [("eng", "bob"), ("eng", "ada"),
                        ("ops", "eve"), ("ops", "cy")]

    def test_order_by_output_alias(self, db, interpreted):
        rows = self.both(
            db, interpreted,
            "SELECT name, salary * 2 AS twice FROM emp "
            "WHERE salary IS NOT NULL ORDER BY twice DESC")
        assert rows[0][0] == "ada"


class TestLimitOffsetEdges:
    def both(self, db, interpreted, sql):
        compiled_rows = db.execute(sql).rows
        assert compiled_rows == interpreted.execute(sql).rows
        return compiled_rows

    def test_limit_zero(self, db, interpreted):
        assert self.both(
            db, interpreted,
            "SELECT id FROM emp ORDER BY id LIMIT 0") == []

    def test_limit_beyond_rows(self, db, interpreted):
        assert len(self.both(
            db, interpreted,
            "SELECT id FROM emp ORDER BY id LIMIT 99")) == 5

    def test_offset_beyond_rows(self, db, interpreted):
        assert self.both(
            db, interpreted,
            "SELECT id FROM emp ORDER BY id LIMIT 10 OFFSET 99") == []

    def test_limit_offset_window(self, db, interpreted):
        assert self.both(
            db, interpreted,
            "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2") \
            == [(3,), (4,)]

    def test_offset_without_order(self, db, interpreted):
        assert len(self.both(
            db, interpreted,
            "SELECT id FROM emp LIMIT 3 OFFSET 1")) == 3


class TestExplain:
    def test_full_scan_before_index(self, db):
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT id, name FROM emp WHERE dept = 'eng'").rows]
        assert lines[0] == "scan emp emp: full scan (~5 rows)"
        assert lines[1] == "  filter [pushed]: dept = 'eng'"
        assert lines[-1] == "project: id, name"

    def test_index_scan_after_create_index(self, db):
        db.execute("CREATE INDEX idx_dept ON emp (dept)")
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT id, name FROM emp WHERE dept = 'eng'").rows]
        assert lines[0].startswith(
            "scan emp emp: index point scan idx_dept (dept = 'eng')")
        # The pushed predicate is still applied after the index probe.
        assert "  filter [pushed]: dept = 'eng'" in lines

    def explain(self, db, sql):
        return [row[0] for row in db.execute("EXPLAIN " + sql).rows]

    def test_range_scan_counts_rows_from_bisect_positions(self, db):
        db.execute("CREATE INDEX idx_salary ON emp (salary)")
        lines = self.explain(
            db, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 95")
        # 80, 80 and 90 lie in the range; the NULL salary never does.
        assert lines[0] == ("scan emp emp: index range scan idx_salary "
                            "(salary >= 80, salary <= 95) (~3 rows)")
        assert lines[1] == "  filter [pushed]: salary BETWEEN 80 AND 95"

    def test_range_scan_on_the_primary_key(self, db):
        lines = self.explain(
            db, "SELECT name FROM emp WHERE id >= 2 AND id < 4")
        assert lines[0] == ("scan emp emp: index range scan __uniq_emp_id "
                            "(id >= 2, id < 4) (~2 rows)")

    def test_prefix_and_prefix_range_scans(self, db):
        db.execute("CREATE INDEX idx_dept_salary ON emp (dept, salary)")
        assert self.explain(
            db, "SELECT name FROM emp WHERE dept = 'ops'")[0] == (
            "scan emp emp: index prefix scan idx_dept_salary "
            "(dept = 'ops') (~2 rows)")
        assert self.explain(
            db, "SELECT name FROM emp WHERE dept = 'eng' "
                "AND salary > 95")[0] == (
            "scan emp emp: index range scan idx_dept_salary "
            "(dept = 'eng', salary > 95) (~1 rows)")

    def test_oltp_range_statement_seeks_the_primary_key(self):
        database = Database()
        database.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, "
                         "tenant TEXT NOT NULL, amount REAL NOT NULL)")
        database.executemany(
            "INSERT INTO orders VALUES (?, ?, ?)",
            [(key, f"shop-{key % 4}", 1.0) for key in range(400)])
        lines = self.explain(
            database, "SELECT COUNT(*) AS n, SUM(amount) AS total "
                      "FROM orders WHERE tenant = ? AND id >= ? AND id < ?")
        # A parameter bound is an open end: the estimate is the index.
        assert lines[0] == ("scan orders orders: index range scan "
                            "__uniq_orders_id (id >= ?, id < ?) (~400 rows)")
        assert lines[1] == "  filter [pushed]: tenant = ?"

    def test_hash_join_and_grouping(self, db):
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT d.label, COUNT(*) AS n FROM emp e "
            "JOIN dept d ON e.dept = d.code GROUP BY d.label "
            "ORDER BY n DESC LIMIT 2").rows]
        assert any(line.startswith("hash join INNER dept d: "
                                   "e.dept = d.code") for line in lines)
        assert "group by: d.label  aggregates: COUNT(*)" in lines
        assert "order by: n desc" in lines
        assert "limit: 2" in lines
        # An aggregate over base tables may reuse its last result
        # while they stand still; the plan says which tables those are.
        assert lines[-2] == "project: label, n"
        assert lines[-1] == "result cache: eligible (tables: emp, dept)"

    def test_view_plans_as_a_view_scan(self, db):
        db.execute("CREATE VIEW ops_emp AS "
                   "SELECT * FROM emp WHERE dept = 'ops'")
        assert self.explain(db, "SELECT name FROM ops_emp") == [
            "scan ops_emp ops_emp: view scan (~5 rows)",
            "project: name"]
        # On the right of a join it is the build side of a hash join,
        # with the WHERE conjunct on it pushed into its scan.
        assert self.explain(
            db, "SELECT e.name, v.salary FROM emp e "
                "JOIN ops_emp v ON e.id = v.id WHERE v.salary > 50") == [
            "scan emp e: full scan (~5 rows)",
            "hash join INNER ops_emp v: e.id = v.id "
            "(build=right, ~5 x ~5 rows)",
            "  scan ops_emp v: view scan (~5 rows)",
            "    filter [pushed]: v.salary > 50",
            "project: name, salary"]

    def test_explain_union_labels_parts(self, db):
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT name FROM emp UNION "
            "SELECT label FROM dept").rows]
        assert lines[0] == "union part 1:"
        assert "union part 2:" in lines

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(EngineError):
            db.execute("EXPLAIN INSERT INTO dept VALUES ('x', 'X')")

    def test_explain_works_with_compile_disabled(self, interpreted):
        lines = [row[0] for row in interpreted.execute(
            "EXPLAIN SELECT id FROM emp").rows]
        assert lines[0].startswith("scan emp emp: full scan")
        # The interpreter never reuses a result, and says nothing.
        lines = [row[0] for row in interpreted.execute(
            "EXPLAIN SELECT dept, COUNT(*) FROM emp GROUP BY dept").rows]
        assert lines[-1] == "project: dept, count(*)"


class TestPlanCache:
    def test_repeated_statement_reuses_plan(self, db):
        sql = "SELECT name FROM emp WHERE id = ?"
        db._plan_cache.clear()  # the seed's INSERTs planned too
        db.execute(sql, (1,))
        assert len(db._plan_cache) == 1
        (cached_entry,) = db._plan_cache.values()
        db.execute(sql, (2,))
        assert len(db._plan_cache) == 1
        assert next(iter(db._plan_cache.values())) is cached_entry

    def test_ddl_invalidates_plans(self, db):
        db.execute("SELECT name FROM emp")
        assert db._plan_cache
        db.execute("CREATE INDEX idx_salary ON emp (salary)")
        assert not db._plan_cache

    def test_alter_table_invalidates_plans(self, db):
        db.execute("SELECT name FROM emp")
        assert db._plan_cache
        db.execute("ALTER TABLE emp ADD COLUMN bonus REAL")
        assert not db._plan_cache
        # The recompiled plan sees the new column.
        assert db.query("SELECT bonus FROM emp WHERE id = 1") \
            == [{"bonus": None}]

    def test_rollback_of_create_table_invalidates_plans(self, db):
        db.execute("SELECT name FROM emp")
        db.execute("BEGIN")
        db.execute("CREATE TABLE temp_t (x INTEGER)")
        db.execute("SELECT name FROM emp")
        db.execute("ROLLBACK")
        assert not db._plan_cache

    def test_executemany_plans_its_statement_once(self, db, monkeypatch):
        from repro.engine import planner
        from tests.test_perfsmoke import spy

        planned = spy(monkeypatch, planner, "plan_dml")
        db.executemany("INSERT INTO dept VALUES (?, ?)",
                       [(f"d{key}", "x") for key in range(50)])
        db.executemany("UPDATE dept SET label = ? WHERE code = ?",
                       [("y", f"d{key}") for key in range(50)])
        assert len(planned) == 2

    def test_compile_disabled_never_plans(self, interpreted):
        interpreted.execute("SELECT name FROM emp")
        assert not interpreted._plan_cache

    def test_dml_results_identical_after_plan_reuse(self, db):
        sql = "SELECT COUNT(*) FROM emp"
        before = db.query_value(sql)
        db.execute("INSERT INTO emp (id, name) VALUES (6, 'fin')")
        assert db.query_value(sql) == before + 1


class TestFallbackParity:
    """Invalid statements raise the same error on both paths."""

    def test_unknown_column_raises_same_error(self, db, interpreted):
        with pytest.raises(EngineError) as compiled_exc:
            db.execute("SELECT missing FROM emp")
        with pytest.raises(EngineError) as interpreted_exc:
            interpreted.execute("SELECT missing FROM emp")
        assert str(compiled_exc.value) == str(interpreted_exc.value)

    def test_ambiguous_column_raises_same_error(self, db, interpreted):
        sql = ("SELECT label FROM dept d1 JOIN dept d2 "
               "ON d1.code = d2.code")
        with pytest.raises(EngineError) as compiled_exc:
            db.execute(sql)
        with pytest.raises(EngineError) as interpreted_exc:
            interpreted.execute(sql)
        assert str(compiled_exc.value) == str(interpreted_exc.value)

    def test_view_query_matches(self, db, interpreted):
        for database in (db, interpreted):
            database.execute(
                "CREATE VIEW rich AS SELECT name, salary FROM emp "
                "WHERE salary >= 90")
        sql = "SELECT name FROM rich ORDER BY name"
        assert db.execute(sql).rows == interpreted.execute(sql).rows

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM emp WHERE id > 'x'",
        "SELECT name FROM emp WHERE id BETWEEN 1 AND TRUE",
        "UPDATE emp SET salary = 1.0 WHERE id < 'x'",
    ])
    def test_mismatched_range_bound_raises_same_error(
            self, db, interpreted, sql):
        """A bound that does not compare with the column scans the
        table, so the comparison error is the interpreter's."""
        with pytest.raises(EngineError) as compiled_exc:
            db.execute(sql)
        with pytest.raises(EngineError) as interpreted_exc:
            interpreted.execute(sql)
        assert str(compiled_exc.value) == str(interpreted_exc.value)
        assert str(compiled_exc.value).startswith("cannot compare int with")

    def test_missing_parameter_raises_same_error(self, db, interpreted):
        sql = "SELECT name FROM emp WHERE id = ?"
        with pytest.raises(EngineError) as compiled_exc:
            db.execute(sql, ())
        with pytest.raises(EngineError) as interpreted_exc:
            interpreted.execute(sql, ())
        assert str(compiled_exc.value) == str(interpreted_exc.value)


class TestPlanTimeErrors:
    """A compiled database raises name errors when it plans, even over
    zero rows; the interpreter meets a name only in a row, so over none
    it returns no rows.  The one divergence, and only for invalid SQL."""

    @pytest.fixture
    def empty(self, db, interpreted):
        for database in (db, interpreted):
            database.execute("CREATE TABLE empty_t (a INTEGER)")

    def test_unknown_column_over_no_rows(self, db, interpreted, empty):
        with pytest.raises(EngineError,
                           match="unknown column 'missing' in expression"):
            db.execute("SELECT missing FROM empty_t")
        assert interpreted.execute("SELECT missing FROM empty_t").rows == []

    def test_on_clause_naming_a_later_table(self, db, interpreted):
        sql = ("SELECT e.name FROM emp e JOIN dept d ON e.dept = x.code "
               "JOIN emp x ON x.id = e.id")
        for database in (db, interpreted):
            with pytest.raises(EngineError,
                               match="unknown column 'x.code' in expression"):
                database.execute(sql)

    @pytest.mark.parametrize("value, error", [
        ("nosuch", "unknown column 'nosuch' in expression"),
        ("SUM(salary)", "aggregate SUM used outside a grouped query")])
    def test_set_errors_raise_over_no_matching_row(self, db, interpreted,
                                                   value, error):
        """SET compiles when the UPDATE plans, so its errors raise even
        when the WHERE matches nothing; the interpreter evaluates SET on
        no row there, and over a matching row raises the same text."""
        sql = f"UPDATE emp SET salary = {value} WHERE id = ?"
        with pytest.raises(EngineError, match=error):
            db.execute(sql, (-1,))
        assert interpreted.execute(sql, (-1,)) == 0
        for database in (db, interpreted):
            with pytest.raises(EngineError, match=error):
                database.execute(sql, (1,))

    def test_values_name_an_unknown_column(self, db, interpreted):
        for database in (db, interpreted):
            with pytest.raises(EngineError,
                               match="unknown column 'nosuch' in expression"):
                database.execute("INSERT INTO dept VALUES ('x', nosuch)")
