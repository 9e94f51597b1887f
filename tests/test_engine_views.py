"""Tests for SQL views."""

import pytest

from repro.engine import Database
from repro.errors import CatalogError, EngineError, SqlSyntaxError
from tests.reference import ReferenceDatabase


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE sales (region TEXT, amount REAL)")
    database.execute(
        "INSERT INTO sales VALUES ('N', 10.0), ('N', 5.0), ('S', 7.0)")
    database.execute(
        "CREATE VIEW regional AS SELECT region, SUM(amount) AS total "
        "FROM sales GROUP BY region")
    return database


class TestViewDefinition:
    def test_view_listed(self, db):
        assert db.view_names() == ["regional"]

    def test_duplicate_view_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW regional AS SELECT 1 AS one")

    def test_if_not_exists_is_silent(self, db):
        db.execute(
            "CREATE VIEW IF NOT EXISTS regional AS SELECT 1 AS one")
        assert db.query_value(
            "SELECT COUNT(*) FROM regional") == 2  # original kept

    def test_view_cannot_shadow_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW sales AS SELECT 1 AS one")

    def test_table_cannot_shadow_view(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE regional (x INTEGER)")

    def test_broken_view_fails_at_creation(self, db):
        with pytest.raises(EngineError):
            db.execute("CREATE VIEW bad AS SELECT ghost FROM sales")

    def test_broken_view_over_no_rows_fails_at_creation(self, db):
        """The body is planned, so a bad name fails with no row to
        evaluate it on."""
        db.execute("CREATE TABLE empty_t (a INTEGER)")
        with pytest.raises(EngineError,
                           match="unknown column 'ghost' in expression"):
            db.execute("CREATE VIEW bad AS SELECT ghost FROM empty_t")
        assert db.view_names() == ["regional"]

    def test_drop_view(self, db):
        db.execute("DROP VIEW regional")
        assert db.view_names() == []
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM regional")
        with pytest.raises(CatalogError):
            db.execute("DROP VIEW regional")
        db.execute("DROP VIEW IF EXISTS regional")

    def test_drop_unknown_object_kind(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("DROP INDEX something")


class TestViewQuerying:
    def test_select_star(self, db):
        rows = db.query("SELECT * FROM regional ORDER BY region")
        assert rows == [{"region": "N", "total": 15.0},
                        {"region": "S", "total": 7.0}]

    def test_view_reflects_base_table_changes(self, db):
        db.execute("INSERT INTO sales VALUES ('S', 100.0)")
        assert db.query_value(
            "SELECT total FROM regional WHERE region = 'S'") == 107.0

    def test_where_on_view_output_columns(self, db):
        rows = db.query("SELECT region FROM regional WHERE total > 10")
        assert rows == [{"region": "N"}]

    def test_view_with_alias_and_qualified_columns(self, db):
        rows = db.query(
            "SELECT r.total FROM regional r WHERE r.region = 'S'")
        assert rows == [{"total": 7.0}]

    def test_join_view_with_table(self, db):
        rows = db.query(
            "SELECT DISTINCT r.region FROM regional r "
            "JOIN sales s ON r.region = s.region "
            "WHERE s.amount > 9 ORDER BY r.region")
        assert rows == [{"region": "N"}]

    def test_aggregate_over_view(self, db):
        assert db.query_value("SELECT SUM(total) FROM regional") == 22.0

    def test_view_over_view(self, db):
        db.execute(
            "CREATE VIEW big_regions AS "
            "SELECT region FROM regional WHERE total > 10")
        assert db.query("SELECT * FROM big_regions") == \
            [{"region": "N"}]

    def test_view_is_read_only(self, db):
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO regional (region) VALUES ('X')")
        with pytest.raises(CatalogError):
            db.execute("DELETE FROM regional")


def twins():
    """A compiled database and its reference interpreter twin, each with
    a view over a table, an aggregating view, a view over that and a
    view that names two columns alike."""
    databases = []
    for engine in (Database, ReferenceDatabase):
        database = engine()
        database.execute("CREATE TABLE emp (id INTEGER PRIMARY KEY, "
                         "name TEXT, dept TEXT)")
        database.execute("INSERT INTO emp VALUES (1, 'ada', 'eng'), "
                         "(2, 'bob', 'ops'), (3, 'cy', 'hr'), "
                         "(4, 'dee', NULL), (5, 'eve', 'ops')")
        database.execute("CREATE TABLE dept (code TEXT, label TEXT)")
        database.execute("INSERT INTO dept VALUES ('eng', 'Engineering'), "
                         "('ops', 'Operations'), ('fin', 'Finance')")
        database.execute("CREATE VIEW dv AS SELECT code, label FROM dept")
        database.execute("CREATE VIEW heads AS SELECT dept, COUNT(*) AS n "
                         "FROM emp GROUP BY dept")
        database.execute("CREATE VIEW busy AS "
                         "SELECT dept, n FROM heads WHERE n > 1")
        database.execute("CREATE VIEW staff AS SELECT e.name, "
                         "d.label AS name FROM emp e JOIN dept d "
                         "ON e.dept = d.code")
        databases.append(database)
    return databases


class TestViewJoinParity:
    """A view on either side of a join answers what the reference does."""

    @pytest.mark.parametrize("sql", [
        # A view on the left.
        "SELECT v.label, e.name FROM dv v JOIN emp e ON v.code = e.dept "
        "ORDER BY e.id",
        "SELECT v.label, e.name FROM dv v LEFT JOIN emp e "
        "ON v.code = e.dept ORDER BY v.code, e.id",
        # A view on the right.
        "SELECT e.name, v.label FROM emp e JOIN dv v ON e.dept = v.code "
        "ORDER BY e.id",
        "SELECT e.name, v.label FROM emp e LEFT JOIN dv v "
        "ON e.dept = v.code AND v.label > 'F' ORDER BY e.id",
        # A view over a view, joined with a table.
        "SELECT b.dept, b.n, d.label FROM busy b JOIN dept d "
        "ON b.dept = d.code ORDER BY b.dept",
        "SELECT d.label, h.n FROM dept d JOIN heads h ON h.dept = d.code "
        "WHERE h.n >= 1 ORDER BY d.label",
        # A view that repeats an output name: the later column wins.
        "SELECT name, s.name FROM staff s ORDER BY name",
    ])
    def test_compiled_matches_reference(self, sql):
        compiled, reference = twins()
        expected = reference.execute(sql)
        assert expected.rows
        result = compiled.execute(sql)
        assert (result.columns, result.rows) \
            == (expected.columns, expected.rows)


class TestUnion:
    @pytest.fixture
    def udb(self):
        database = Database()
        database.execute("CREATE TABLE a (x INTEGER, tag TEXT)")
        database.execute("CREATE TABLE b (x INTEGER, tag TEXT)")
        database.executemany("INSERT INTO a VALUES (?, ?)",
                             [(1, "a"), (2, "a")])
        database.executemany("INSERT INTO b VALUES (?, ?)",
                             [(2, "a"), (3, "b")])
        return database

    def test_union_all_keeps_duplicates(self, udb):
        rows = udb.query(
            "SELECT x FROM a UNION ALL SELECT x FROM b")
        assert sorted(row["x"] for row in rows) == [1, 2, 2, 3]

    def test_union_dedupes_whole_rows(self, udb):
        rows = udb.query(
            "SELECT x, tag FROM a UNION SELECT x, tag FROM b")
        assert len(rows) == 3  # (2, 'a') collapsed

    def test_three_way_union(self, udb):
        rows = udb.query(
            "SELECT x FROM a UNION ALL SELECT x FROM b "
            "UNION ALL SELECT x FROM a")
        assert len(rows) == 6

    def test_column_count_mismatch_rejected(self, udb):
        with pytest.raises(EngineError):
            udb.query("SELECT x FROM a UNION SELECT x, tag FROM b")

    def test_union_with_expressions_and_filters(self, udb):
        rows = udb.query(
            "SELECT x * 10 AS v FROM a WHERE x = 1 "
            "UNION ALL SELECT x * 100 AS v FROM b WHERE x = 3")
        assert sorted(row["v"] for row in rows) == [10, 300]

    def test_union_column_names_from_first_part(self, udb):
        result = udb.execute(
            "SELECT x AS left_x FROM a UNION ALL SELECT x FROM b")
        assert result.columns == ["left_x"]

    def test_union_of_view_and_table(self, udb):
        udb.execute("CREATE VIEW big AS SELECT x FROM a WHERE x > 1")
        rows = udb.query(
            "SELECT x FROM big UNION ALL SELECT x FROM b")
        assert sorted(row["x"] for row in rows) == [2, 2, 3]


class TestCreateTableAs:
    @pytest.fixture
    def cdb(self):
        database = Database()
        database.execute(
            "CREATE TABLE f (region TEXT, amount REAL, d DATE)")
        database.executemany(
            "INSERT INTO f VALUES (?, ?, ?)",
            [("N", 10.0, "2009-01-01"), ("N", 5.0, "2009-02-01"),
             ("S", 7.0, "2009-03-01")])
        return database

    def test_ctas_materializes_query(self, cdb):
        count = cdb.execute(
            "CREATE TABLE mart AS SELECT region, SUM(amount) AS total "
            "FROM f GROUP BY region")
        assert count == 2
        assert cdb.query_value(
            "SELECT total FROM mart WHERE region = 'N'") == 15.0

    def test_ctas_infers_types(self, cdb):
        from repro.engine.types import SqlType

        cdb.execute("CREATE TABLE mart AS SELECT region, amount, d, "
                    "COUNT(*) AS n FROM f GROUP BY region, amount, d")
        schema = cdb.storage("mart").schema
        assert schema.column("region").type is SqlType.TEXT
        assert schema.column("amount").type is SqlType.REAL
        assert schema.column("d").type is SqlType.DATE
        assert schema.column("n").type is SqlType.INTEGER

    def test_ctas_result_is_a_real_table(self, cdb):
        cdb.execute("CREATE TABLE mart AS SELECT region FROM f")
        cdb.execute("INSERT INTO mart VALUES ('W')")
        cdb.execute("DELETE FROM mart WHERE region = 'N'")
        assert cdb.query_value("SELECT COUNT(*) FROM mart") == 2

    def test_ctas_duplicate_name_rejected(self, cdb):
        with pytest.raises(CatalogError):
            cdb.execute("CREATE TABLE f AS SELECT 1 AS one")

    def test_ctas_if_not_exists(self, cdb):
        cdb.execute("CREATE TABLE mart AS SELECT region FROM f")
        assert cdb.execute(
            "CREATE TABLE IF NOT EXISTS mart AS SELECT 1 AS one") == 0

    def test_ctas_rolls_back(self, cdb):
        cdb.begin()
        cdb.execute("CREATE TABLE mart AS SELECT region FROM f")
        cdb.rollback()
        assert "mart" not in cdb.table_names()

    def test_ctas_all_null_column_defaults_to_text(self, cdb):
        cdb.execute("CREATE TABLE mart AS SELECT NULL AS nothing FROM f")
        from repro.engine.types import SqlType

        assert cdb.storage("mart").schema.column("nothing").type \
            is SqlType.TEXT


class TestViewPersistence:
    def test_views_survive_snapshot_roundtrip(self, db, tmp_path):
        path = tmp_path / "snap.db"
        db.save(path)
        restored = Database.load(path)
        assert restored.view_names() == ["regional"]
        assert restored.query(
            "SELECT total FROM regional WHERE region = 'N'") == \
            [{"total": 15.0}]
