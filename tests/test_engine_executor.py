"""Integration-level tests for SQL execution on the embedded engine."""

import datetime

import pytest

from repro.engine import Database
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    EngineError,
    TransactionError,
)


@pytest.fixture
def db():
    database = Database("test")
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
        "dept TEXT, salary REAL, hired DATE)")
    database.execute(
        "INSERT INTO emp (id, name, dept, salary, hired) VALUES "
        "(1, 'ada', 'eng', 100.0, '2020-01-01'), "
        "(2, 'bob', 'eng', 90.0, '2021-03-04'), "
        "(3, 'cy', 'ops', 80.0, '2019-07-01'), "
        "(4, 'dee', NULL, NULL, '2022-02-02')")
    database.execute("CREATE TABLE dept (code TEXT PRIMARY KEY, label TEXT)")
    database.execute(
        "INSERT INTO dept VALUES ('eng', 'Engineering'), ('ops', 'Operations')")
    return database


class TestProjection:
    def test_select_star_expands_all_columns(self, db):
        rows = db.query("SELECT * FROM emp WHERE id = 1")
        assert list(rows[0]) == ["id", "name", "dept", "salary", "hired"]

    def test_expression_projection(self, db):
        row = db.query("SELECT salary * 2 AS double FROM emp WHERE id = 1")[0]
        assert row["double"] == 200.0

    def test_constant_select_without_from(self, db):
        assert db.query_value("SELECT 1 + 2") == 3

    def test_string_concatenation(self, db):
        row = db.query(
            "SELECT name || '@' || dept AS addr FROM emp WHERE id = 1")[0]
        assert row["addr"] == "ada@eng"

    def test_default_output_names(self, db):
        result = db.execute("SELECT emp.name, salary + 1 FROM emp")
        assert result.columns[0] == "name"
        assert result.columns[1] == "column2"


class TestFiltering:
    def test_where_with_parameter(self, db):
        rows = db.query("SELECT name FROM emp WHERE dept = ?", ("eng",))
        assert {row["name"] for row in rows} == {"ada", "bob"}

    def test_null_never_matches_equality(self, db):
        rows = db.query("SELECT name FROM emp WHERE dept = dept")
        assert {row["name"] for row in rows} == {"ada", "bob", "cy"}

    def test_is_null(self, db):
        rows = db.query("SELECT name FROM emp WHERE dept IS NULL")
        assert [row["name"] for row in rows] == ["dee"]

    def test_in_list(self, db):
        rows = db.query("SELECT name FROM emp WHERE id IN (1, 3)")
        assert {row["name"] for row in rows} == {"ada", "cy"}

    def test_not_in_with_null_candidate_excludes_all(self, db):
        rows = db.query("SELECT name FROM emp WHERE dept NOT IN ('eng', NULL)")
        assert rows == []

    def test_between_dates(self, db):
        rows = db.query(
            "SELECT name FROM emp WHERE hired BETWEEN ? AND ?",
            (datetime.date(2020, 1, 1), datetime.date(2021, 12, 31)))
        assert {row["name"] for row in rows} == {"ada", "bob"}

    def test_like_is_case_insensitive(self, db):
        rows = db.query("SELECT name FROM emp WHERE name LIKE 'A%'")
        assert [row["name"] for row in rows] == ["ada"]

    def test_unknown_column_raises(self, db):
        with pytest.raises(EngineError):
            db.query("SELECT nope FROM emp")


class TestJoins:
    def test_inner_join(self, db):
        rows = db.query(
            "SELECT e.name, d.label FROM emp e "
            "JOIN dept d ON e.dept = d.code ORDER BY e.name")
        assert [row["label"] for row in rows] == \
            ["Engineering", "Engineering", "Operations"]

    def test_left_join_keeps_unmatched_rows(self, db):
        rows = db.query(
            "SELECT e.name, d.label FROM emp e "
            "LEFT JOIN dept d ON e.dept = d.code ORDER BY e.name")
        labels = {row["name"]: row["label"] for row in rows}
        assert labels["dee"] is None
        assert len(rows) == 4

    def test_cross_join_cardinality(self, db):
        rows = db.query("SELECT e.id, d.code FROM emp e CROSS JOIN dept d")
        assert len(rows) == 8

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE site (dept TEXT, city TEXT)")
        db.execute("INSERT INTO site VALUES ('eng', 'Paris'), ('ops', 'Lyon')")
        rows = db.query(
            "SELECT e.name, s.city FROM emp e "
            "JOIN dept d ON e.dept = d.code "
            "JOIN site s ON d.code = s.dept ORDER BY e.name")
        assert [row["city"] for row in rows] == ["Paris", "Paris", "Lyon"]

    def test_non_equi_join_condition(self, db):
        rows = db.query(
            "SELECT e.name FROM emp e JOIN dept d "
            "ON e.dept = d.code AND e.salary > 95")
        assert [row["name"] for row in rows] == ["ada"]

    def test_ambiguous_unqualified_column_raises(self, db):
        db.execute("CREATE TABLE emp2 (id INTEGER, name TEXT)")
        db.execute("INSERT INTO emp2 VALUES (1, 'zed')")
        with pytest.raises(EngineError):
            db.query("SELECT name FROM emp e JOIN emp2 x ON e.id = x.id")


class TestAggregation:
    def test_group_by_with_aggregates(self, db):
        rows = db.query(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total "
            "FROM emp GROUP BY dept ORDER BY dept")
        by_dept = {row["dept"]: row for row in rows}
        assert by_dept["eng"]["n"] == 2
        assert by_dept["eng"]["total"] == 190.0
        assert by_dept[None]["total"] is None

    def test_global_aggregate_without_group(self, db):
        assert db.query_value("SELECT COUNT(*) FROM emp") == 4

    def test_aggregate_over_empty_table(self, db):
        db.execute("CREATE TABLE empty (x INTEGER)")
        assert db.query_value("SELECT COUNT(*) FROM empty") == 0
        assert db.query_value("SELECT SUM(x) FROM empty") is None

    def test_count_ignores_nulls(self, db):
        assert db.query_value("SELECT COUNT(dept) FROM emp") == 3

    def test_count_distinct(self, db):
        assert db.query_value("SELECT COUNT(DISTINCT dept) FROM emp") == 2

    def test_min_max_avg(self, db):
        row = db.query(
            "SELECT MIN(salary) AS lo, MAX(salary) AS hi, "
            "AVG(salary) AS mean FROM emp")[0]
        assert row["lo"] == 80.0
        assert row["hi"] == 100.0
        assert row["mean"] == pytest.approx(90.0)

    def test_having_filters_groups(self, db):
        rows = db.query(
            "SELECT dept FROM emp WHERE dept IS NOT NULL "
            "GROUP BY dept HAVING COUNT(*) > 1")
        assert [row["dept"] for row in rows] == ["eng"]

    def test_aggregate_of_expression(self, db):
        value = db.query_value(
            "SELECT SUM(salary * 2) FROM emp WHERE dept = 'eng'")
        assert value == 380.0


class TestOrderingAndPaging:
    def test_order_by_desc(self, db):
        rows = db.query(
            "SELECT name FROM emp WHERE salary IS NOT NULL "
            "ORDER BY salary DESC")
        assert [row["name"] for row in rows] == ["ada", "bob", "cy"]

    def test_nulls_sort_first_ascending(self, db):
        rows = db.query("SELECT name FROM emp ORDER BY salary")
        assert rows[0]["name"] == "dee"

    def test_order_by_alias(self, db):
        rows = db.query(
            "SELECT name, salary * 2 AS double FROM emp "
            "WHERE salary IS NOT NULL ORDER BY double")
        assert rows[0]["name"] == "cy"

    def test_secondary_sort_key(self, db):
        db.execute("INSERT INTO emp (id, name, dept, salary) "
                   "VALUES (5, 'abe', 'eng', 90.0)")
        rows = db.query(
            "SELECT name FROM emp WHERE salary = 90 ORDER BY salary, name")
        assert [row["name"] for row in rows] == ["abe", "bob"]

    def test_limit_offset(self, db):
        rows = db.query("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert [row["id"] for row in rows] == [2, 3]

    def test_distinct_rows(self, db):
        rows = db.query("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert [row["dept"] for row in rows] == [None, "eng", "ops"]


class TestDml:
    def test_update_returns_affected_count(self, db):
        count = db.execute("UPDATE emp SET salary = 0 WHERE dept = 'eng'")
        assert count == 2

    def test_update_expression_references_old_value(self, db):
        db.execute("UPDATE emp SET salary = salary + 5 WHERE id = 3")
        assert db.query_value("SELECT salary FROM emp WHERE id = 3") == 85.0

    def test_delete_with_where(self, db):
        count = db.execute("DELETE FROM emp WHERE dept = 'ops'")
        assert count == 1
        assert db.query_value("SELECT COUNT(*) FROM emp") == 3

    def test_insert_applies_defaults(self, db):
        db.execute("CREATE TABLE cfg (k TEXT, v INTEGER DEFAULT 42)")
        db.execute("INSERT INTO cfg (k) VALUES ('a')")
        assert db.query_value("SELECT v FROM cfg") == 42

    def test_executemany(self, db):
        count = db.executemany(
            "INSERT INTO dept VALUES (?, ?)",
            [("fin", "Finance"), ("hr", "People")])
        assert count == 2
        assert db.query_value("SELECT COUNT(*) FROM dept") == 4


class TestConstraints:
    def test_primary_key_uniqueness(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_not_null_enforced(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO emp (id, name) VALUES (9, NULL)")

    def test_unique_column(self, db):
        db.execute("CREATE TABLE u (x INTEGER UNIQUE)")
        db.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO u VALUES (1)")

    def test_unique_allows_multiple_nulls(self, db):
        db.execute("CREATE TABLE u (x INTEGER UNIQUE)")
        db.execute("INSERT INTO u VALUES (NULL), (NULL)")
        assert db.query_value("SELECT COUNT(*) FROM u") == 2

    def test_update_cannot_break_uniqueness(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute("UPDATE emp SET id = 1 WHERE id = 2")

    def test_failed_insert_leaves_no_row(self, db):
        before = db.query_value("SELECT COUNT(*) FROM emp")
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")
        assert db.query_value("SELECT COUNT(*) FROM emp") == before


class TestDdl:
    def test_create_and_drop_table(self, db):
        db.execute("CREATE TABLE tmp (x INTEGER)")
        assert "tmp" in db.table_names()
        db.execute("DROP TABLE tmp")
        assert "tmp" not in db.table_names()

    def test_duplicate_create_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE emp (x INTEGER)")

    def test_if_not_exists_is_silent(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS emp (x INTEGER)")

    def test_drop_missing_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE missing")
        db.execute("DROP TABLE IF EXISTS missing")

    def test_index_accelerated_query_matches_scan(self, db):
        db.execute("CREATE INDEX emp_dept ON emp (dept)")
        rows = db.query("SELECT name FROM emp WHERE dept = 'eng'")
        assert {row["name"] for row in rows} == {"ada", "bob"}


class TestTransactions:
    def test_rollback_undoes_insert_update_delete(self, db):
        db.begin()
        db.execute("INSERT INTO emp (id, name) VALUES (10, 'tmp')")
        db.execute("UPDATE emp SET salary = 0 WHERE id = 1")
        db.execute("DELETE FROM emp WHERE id = 3")
        db.rollback()
        assert db.query_value("SELECT COUNT(*) FROM emp") == 4
        assert db.query_value("SELECT salary FROM emp WHERE id = 1") == 100.0
        assert db.query_value("SELECT COUNT(*) FROM emp WHERE id = 3") == 1

    def test_commit_keeps_changes(self, db):
        with db.transaction():
            db.execute("DELETE FROM emp WHERE id = 4")
        assert db.query_value("SELECT COUNT(*) FROM emp") == 3

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("DELETE FROM emp")
                raise RuntimeError("boom")
        assert db.query_value("SELECT COUNT(*) FROM emp") == 4

    def test_rollback_restores_dropped_table(self, db):
        db.begin()
        db.execute("DROP TABLE dept")
        db.rollback()
        assert db.query_value("SELECT COUNT(*) FROM dept") == 2

    def test_rollback_removes_created_table(self, db):
        db.begin()
        db.execute("CREATE TABLE tmp (x INTEGER)")
        db.rollback()
        assert "tmp" not in db.table_names()

    def test_nested_begin_raises(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin_raises(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_sql_level_transaction_control(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM emp")
        db.execute("ROLLBACK")
        assert db.query_value("SELECT COUNT(*) FROM emp") == 4


class TestPersistence:
    def test_save_and_load_roundtrip(self, db, tmp_path):
        path = tmp_path / "snapshot.db"
        db.save(path)
        restored = Database.load(path)
        assert restored.query("SELECT * FROM emp ORDER BY id") == \
            db.query("SELECT * FROM emp ORDER BY id")

    def test_loaded_database_enforces_constraints(self, db, tmp_path):
        path = tmp_path / "snapshot.db"
        db.save(path)
        restored = Database.load(path)
        with pytest.raises(ConstraintViolation):
            restored.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_loaded_database_continues_rowids(self, db, tmp_path):
        path = tmp_path / "snapshot.db"
        db.save(path)
        restored = Database.load(path)
        restored.execute("INSERT INTO emp (id, name) VALUES (99, 'new')")
        assert restored.query_value("SELECT COUNT(*) FROM emp") == 5

    def test_save_inside_transaction_raises(self, db, tmp_path):
        db.begin()
        with pytest.raises(TransactionError):
            db.save(tmp_path / "x.db")
        db.rollback()


class TestResultSet:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(EngineError):
            db.execute("SELECT id, name FROM emp").scalar()

    def test_column_accessor(self, db):
        result = db.execute("SELECT id FROM emp ORDER BY id")
        assert result.column("id") == [1, 2, 3, 4]
        with pytest.raises(EngineError):
            result.column("nope")

    def test_first_on_empty_result(self, db):
        assert db.execute("SELECT id FROM emp WHERE id = 0").first() is None

    def test_query_rejects_non_select(self, db):
        with pytest.raises(EngineError):
            db.query("DELETE FROM emp")
