"""Property-based tests for engine invariants (hypothesis)."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.types import SqlType, coerce_value, sort_key
from repro.errors import TypeMismatch
from tests.reference import ReferenceDatabase

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
ints = st.integers(min_value=-10**9, max_value=10**9)


@st.composite
def value_rows(draw):
    return (
        draw(ints),
        draw(st.one_of(st.none(), names)),
        draw(st.one_of(st.none(), st.floats(
            allow_nan=False, allow_infinity=False,
            min_value=-1e9, max_value=1e9))),
    )


class TestSortKeyProperties:
    @given(st.lists(st.one_of(st.none(), ints,
                              st.floats(allow_nan=False,
                                        allow_infinity=False),
                              names), max_size=30))
    def test_sort_key_gives_total_order(self, values):
        ordered = sorted(values, key=sort_key)
        keys = [sort_key(value) for value in ordered]
        assert keys == sorted(keys)

    @given(st.one_of(st.none(), ints, names))
    def test_null_sorts_before_everything(self, value):
        assert sort_key(None) <= sort_key(value)


class TestCoercionProperties:
    @given(ints)
    def test_integer_coercion_is_identity(self, value):
        assert coerce_value(value, SqlType.INTEGER) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_real_coercion_roundtrips(self, value):
        assert coerce_value(value, SqlType.REAL) == pytest.approx(value)

    @given(st.dates())
    def test_date_iso_roundtrip(self, value):
        assert coerce_value(value.isoformat(), SqlType.DATE) == value

    @given(names)
    def test_text_is_preserved_verbatim(self, value):
        assert coerce_value(value, SqlType.TEXT) == value


class TestEngineRelationalProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(value_rows(), min_size=0, max_size=40))
    def test_count_matches_inserted_rows(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in rows:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        assert db.query_value("SELECT COUNT(*) FROM t") == len(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(value_rows(), min_size=1, max_size=40))
    def test_where_partitions_the_table(self, rows):
        """Rows matching P plus rows matching NOT P plus NULL-P rows = all."""
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in rows:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        matching = db.query_value("SELECT COUNT(*) FROM t WHERE c > 0")
        complement = db.query_value("SELECT COUNT(*) FROM t WHERE NOT c > 0")
        nulls = db.query_value("SELECT COUNT(*) FROM t WHERE c IS NULL")
        assert matching + complement + nulls == len(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(value_rows(), min_size=1, max_size=40))
    def test_sum_by_group_equals_global_sum(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in rows:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        total = db.query_value("SELECT SUM(a) FROM t")
        groups = db.query("SELECT b, SUM(a) AS s FROM t GROUP BY b")
        assert sum(row["s"] for row in groups if row["s"] is not None) == total

    @settings(max_examples=25, deadline=None)
    @given(st.lists(value_rows(), min_size=0, max_size=30))
    def test_order_by_produces_sorted_output(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in rows:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        output = [row["a"] for row in db.query("SELECT a FROM t ORDER BY a")]
        assert output == sorted(output)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(value_rows(), min_size=0, max_size=25),
           st.lists(value_rows(), min_size=0, max_size=25))
    def test_rollback_is_exact_inverse(self, first_batch, second_batch):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in first_batch:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        before = db.query("SELECT * FROM t ORDER BY a, c, b")
        db.begin()
        for row in second_batch:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        db.execute("UPDATE t SET a = a + 1")
        db.execute("DELETE FROM t WHERE a % 2 = 0")
        db.rollback()
        assert db.query("SELECT * FROM t ORDER BY a, c, b") == before

    @settings(max_examples=20, deadline=None)
    @given(st.lists(ints, min_size=0, max_size=40, unique=True))
    def test_hash_join_agrees_with_nested_loop(self, keys):
        """The equality hash-join path must match a cross-join + filter."""
        db = Database()
        db.execute("CREATE TABLE l (k INTEGER, v TEXT)")
        db.execute("CREATE TABLE r (k INTEGER, w TEXT)")
        for key in keys:
            db.execute("INSERT INTO l VALUES (?, ?)", (key, f"l{key}"))
            if key % 2 == 0:
                db.execute("INSERT INTO r VALUES (?, ?)", (key, f"r{key}"))
        joined = db.query(
            "SELECT l.k FROM l JOIN r ON l.k = r.k ORDER BY l.k")
        filtered = db.query(
            "SELECT l.k FROM l CROSS JOIN r WHERE l.k = r.k ORDER BY l.k")
        assert joined == filtered

    @settings(max_examples=20, deadline=None)
    @given(st.lists(value_rows(), min_size=0, max_size=30))
    def test_snapshot_roundtrip_preserves_rows(self, rows):
        import tempfile
        from pathlib import Path

        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        for row in rows:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.bin"
            db.save(path)
            restored = Database.load(path)
        assert restored.query("SELECT * FROM t ORDER BY a, c, b") == \
            db.query("SELECT * FROM t ORDER BY a, c, b")


#: Leaves of generated expressions: NULL, booleans, numbers (signed
#: zero included), texts that are LIKE patterns, and a parameter.
LEAVES = ["NULL", "TRUE", "FALSE", "0", "1", "-2", "7", "0.0", "-0.0",
          "2.5", "'a'", "'ab'", "'%b'", "'A_'", "?"]
PARAMS = st.sampled_from([None, 0, 3, -1.5, -0.0, "a", "b%", True])
#: Expression shapes; each ``{}`` is a generated operand.
SHAPES = [f"({{}} {op} {{}})" for op in (
    "+", "-", "*", "/", "%", "||", "=", "<>", "<", ">=", "AND", "OR")] + [
    "(- {})", "(NOT {})", "({} IS NULL)", "({} IS NOT NULL)",
    "({} LIKE {})", "({} NOT LIKE {})", "({} IN ({}, {}))",
    "({} NOT IN ({}, NULL))", "({} BETWEEN {} AND {})",
    "({} NOT BETWEEN {} AND {})", "CASE WHEN {} THEN {} ELSE {} END",
    "UPPER({})", "LENGTH({})", "ABS({})", "ROUND({})", "TRIM({})",
    "COALESCE({}, {})", "NULLIF({}, {})"]


def sql_expressions(columns=()):
    """SQL text of an expression over ``columns``, :data:`LEAVES` and
    :data:`SHAPES`: NULL arithmetic, Kleene logic, CASE, LIKE, IN,
    BETWEEN and scalar functions, with type errors (unary minus on
    TEXT, LIKE on a number, ABS of a text) in the mix."""
    def extend(inner):
        return st.sampled_from(SHAPES).flatmap(lambda shape: st.lists(
            inner, min_size=shape.count("{}"),
            max_size=shape.count("{}")).map(lambda ops: shape.format(*ops)))
    # Numbers twice as often as the rest, so most statements succeed.
    leaves = st.one_of(st.sampled_from(["0", "1", "-2", "2.5", "?"]),
                       st.sampled_from(LEAVES + list(columns)))
    return st.recursive(leaves, extend, max_leaves=6)


class TestCompiledDmlMatchesTheReference:
    """INSERT VALUES and UPDATE SET run compiled closures; the
    reference interpreter evaluates the same expressions per row.
    After each statement of a run, stored rows (by ``repr``, so
    ``-0.0`` counts) and raised error text must agree, a parameter
    short included."""

    SEED = [(1, 10, 1.5, "ab"), (2, None, -0.0, None), (3, -4, None, "%b"),
            (None, 0, 2.0, "A_")]

    def logs(self, statements):
        logs = []
        for engine in (Database, ReferenceDatabase):
            db = engine()
            db.execute("CREATE TABLE t (k INTEGER, n INTEGER, x REAL, "
                       "s TEXT)")
            if engine is Database:
                db.execute("CREATE INDEX t_k ON t (k)")
            db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", self.SEED)
            logs.append([])
            for sql, params in statements:
                try:
                    result = db.execute(sql, params)
                except Exception as exc:  # noqa: BLE001 - compared below
                    result = (type(exc).__name__, str(exc))
                logs[-1].append(
                    (result, repr(db.execute("SELECT * FROM t").rows)))
        return logs

    @staticmethod
    def parameters(draw, sql):
        """One value per ``?``, now and then one short."""
        wanted = sql.count("?")
        if wanted and draw(st.integers(0, 9)) == 0:
            wanted -= 1
        return sql, draw(st.lists(PARAMS, min_size=wanted, max_size=wanted))

    @staticmethod
    def insert(draw):
        columns = draw(st.lists(st.sampled_from(["n", "x", "s"]),
                                min_size=1, max_size=2, unique=True))
        rows = draw(st.lists(st.lists(
            sql_expressions(), min_size=len(columns),
            max_size=len(columns)).map(", ".join), min_size=1, max_size=2))
        return f"INSERT INTO t ({', '.join(columns)}) VALUES " \
            + ", ".join(f"({row})" for row in rows)

    @staticmethod
    def update(draw):
        assignments = draw(st.lists(st.tuples(
            st.sampled_from(["n", "x", "s"]),
            sql_expressions(["k", "n", "x", "s", "t.n"])),
            min_size=1, max_size=3))
        return "UPDATE t SET " + ", ".join(
            f"{column} = {expr}" for column, expr in assignments) \
            + f" WHERE k >= {draw(st.sampled_from([0, 2, 99]))}"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_insert_values_and_update_set(self, data):
        statements = [
            self.parameters(data.draw, data.draw(
                st.sampled_from([self.insert, self.update]))(data.draw))
            for _ in range(data.draw(st.integers(1, 4)))]
        compiled, reference = self.logs(statements)
        assert compiled == reference, statements
