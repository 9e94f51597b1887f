"""Unit tests for the schema-aware SQL semantic analyzer."""

import pytest

from repro.analysis import (
    SqlAnalyzer,
    analyze_script,
    catalog_from_script,
    split_statements,
)
from repro.engine import Catalog, Database, make_schema, parse_sql
from repro.errors import EngineError


def sales_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_schema("sales", [
        ("id", "INTEGER", False),
        ("region", "TEXT"),
        ("amount", "REAL"),
        ("quantity", "INTEGER"),
        ("sold_on", "DATE"),
    ], primary_key="id"))
    catalog.add_table(make_schema("customers", [
        ("id", "INTEGER", False),
        ("name", "TEXT"),
        ("region", "TEXT"),
    ], primary_key="id"))
    return catalog


def analyze(sql, catalog=None):
    return SqlAnalyzer(catalog or sales_catalog()).analyze(sql)


def empty_database(catalog) -> Database:
    database = Database("empty")
    for schema in catalog:
        database.create_storage(schema)
    return database


class TestSelectAnalysis:
    def test_clean_query_has_no_findings(self):
        collector = analyze(
            "SELECT region, SUM(amount) AS total FROM sales "
            "WHERE quantity > 0 GROUP BY region ORDER BY total")
        assert collector.codes() == []

    def test_unknown_table(self):
        collector = analyze("SELECT * FROM ghosts")
        assert collector.codes() == ["ODB101"]
        assert "ghosts" in str(collector.errors[0])

    def test_unknown_column(self):
        collector = analyze("SELECT colour FROM sales")
        assert collector.codes() == ["ODB102"]

    def test_unknown_column_has_position(self):
        collector = analyze("SELECT\n  colour FROM sales")
        span = collector.errors[0].span
        assert (span.line, span.column) == (2, 3)

    def test_unknown_table_suppresses_cascading_column_errors(self):
        collector = analyze("SELECT a, b, c FROM ghosts")
        assert collector.codes() == ["ODB101"]

    def test_ambiguous_column_across_join(self):
        collector = analyze(
            "SELECT region FROM sales "
            "JOIN customers ON sales.id = customers.id")
        assert collector.codes() == ["ODB103"]

    def test_qualification_resolves_ambiguity(self):
        collector = analyze(
            "SELECT sales.region FROM sales "
            "JOIN customers ON sales.id = customers.id")
        assert collector.codes() == []

    def test_type_mismatched_comparison(self):
        collector = analyze("SELECT id FROM sales WHERE region = 5")
        assert collector.codes() == ["ODB104"]

    def test_text_vs_date_comparison_is_tolerated(self):
        collector = analyze(
            "SELECT id FROM sales WHERE sold_on > '2024-01-01'")
        assert collector.codes() == []

    def test_type_mismatched_arithmetic(self):
        collector = analyze("SELECT region + 1 FROM sales")
        assert collector.codes() == ["ODB105"]

    def test_concat_requires_text(self):
        collector = analyze("SELECT amount || 'x' FROM sales")
        assert collector.codes() == ["ODB105"]

    def test_aggregate_in_where(self):
        collector = analyze(
            "SELECT id FROM sales WHERE SUM(amount) > 10")
        assert collector.codes() == ["ODB106"]

    def test_non_grouped_column(self):
        collector = analyze(
            "SELECT region, quantity, SUM(amount) FROM sales "
            "GROUP BY region")
        assert collector.codes() == ["ODB107"]
        assert "quantity" in str(collector.errors[0])

    def test_grouping_by_select_alias_is_odb102(self):
        """GROUP BY sees the sources, not the select list's aliases:
        the engine refuses the alias, and so does the analyzer."""
        sql = "SELECT region AS r, COUNT(*) FROM sales GROUP BY r"
        assert analyze(sql).codes() == ["ODB102"]
        with pytest.raises(EngineError, match="unknown column 'r'"):
            empty_database(sales_catalog()).execute(sql)

    def test_star_argument_outside_count_is_odb105(self):
        sql = "SELECT MAX(*) FROM sales"
        assert analyze(sql).codes() == ["ODB105"]
        with pytest.raises(EngineError, match=r"MAX\(\*\) is not valid"):
            empty_database(sales_catalog()).execute(sql)

    def test_unknown_function(self):
        collector = analyze("SELECT SOUNDEX(region) FROM sales")
        assert collector.codes() == ["ODB109"]

    def test_duplicate_table_alias(self):
        collector = analyze(
            "SELECT s.id FROM sales s JOIN customers s "
            "ON s.id = s.id")
        assert "ODB110" in collector.codes()

    def test_constant_predicate_warns(self):
        collector = analyze("SELECT id FROM sales WHERE 1 = 2")
        assert collector.codes() == ["ODB112"]
        assert not collector.has_errors()

    def test_union_arity_mismatch(self):
        collector = analyze(
            "SELECT id, region FROM sales "
            "UNION SELECT id FROM customers")
        assert collector.codes() == ["ODB114"]

    def test_syntax_error_is_positioned(self):
        collector = analyze("SELECT FROM sales WHERE")
        assert collector.codes() == ["ODB115"]
        assert collector.errors[0].span is not None


class TestInsertAnalysis:
    def test_insert_arity_mismatch(self):
        collector = analyze("INSERT INTO sales VALUES (1, 'east')")
        assert "ODB108" in collector.codes()

    def test_insert_type_mismatch(self):
        collector = analyze(
            "INSERT INTO sales (id, region, amount, quantity, sold_on)"
            " VALUES ('oops', 'east', 1.5, 2, '2024-01-01')")
        assert collector.codes() == ["ODB113"]

    def test_insert_unknown_column(self):
        collector = analyze(
            "INSERT INTO sales (id, colour) VALUES (1, 'red')")
        assert "ODB102" in collector.codes()

    def test_null_into_not_null_column(self):
        collector = analyze(
            "INSERT INTO sales (id, region, amount, quantity, sold_on)"
            " VALUES (NULL, 'east', 1.5, 2, '2024-01-01')")
        assert "ODB113" in collector.codes()

    def test_valid_insert_is_clean(self):
        collector = analyze(
            "INSERT INTO sales (id, region, amount, quantity, sold_on)"
            " VALUES (1, 'east', 1.5, 2, '2024-01-01')")
        assert collector.codes() == []


class TestUpdateDelete:
    def test_update_unknown_column(self):
        collector = analyze("UPDATE sales SET colour = 'red'")
        assert collector.codes() == ["ODB102"]

    def test_update_type_mismatch(self):
        collector = analyze("UPDATE sales SET quantity = 'many'")
        assert collector.codes() == ["ODB113"]

    def test_delete_from_unknown_table(self):
        collector = analyze("DELETE FROM ghosts")
        assert collector.codes() == ["ODB101"]


class TestViewsAndScripts:
    def test_select_star_view_warns(self):
        collector = analyze("CREATE VIEW v AS SELECT * FROM sales")
        assert collector.codes() == ["ODB111"]
        assert not collector.has_errors()

    def test_query_through_view_columns(self):
        collector = analyze_script(
            "CREATE VIEW totals AS SELECT region, SUM(amount) AS t "
            "FROM sales GROUP BY region;\n"
            "SELECT region, t FROM totals;\n"
            "SELECT missing FROM totals;", sales_catalog())
        assert collector.codes() == ["ODB102"]

    def test_script_ddl_feeds_later_statements(self):
        collector = analyze_script(
            "CREATE TABLE t (id INTEGER, name TEXT);\n"
            "INSERT INTO t (id, name) VALUES (1, 'a');\n"
            "SELECT id, name FROM t;")
        assert collector.codes() == []

    def test_script_reports_each_statement(self):
        collector = analyze_script(
            "SELECT * FROM ghosts;\nSELECT nope FROM sales;",
            sales_catalog())
        assert collector.codes() == ["ODB101", "ODB102"]

    def test_script_does_not_mutate_caller_catalog(self):
        catalog = sales_catalog()
        analyze_script("DROP TABLE sales;", catalog)
        assert catalog.has_table("sales")

    def test_split_statements_respects_strings_and_comments(self):
        parts = split_statements(
            "SELECT 'a;b'; -- trailing; comment\nSELECT 2;")
        assert [text for text, _ in parts] == \
            ["SELECT 'a;b'", "SELECT 2"]

    def test_catalog_from_script(self):
        catalog, views = catalog_from_script(
            "CREATE TABLE t (id INTEGER);"
            "CREATE VIEW v AS SELECT id FROM t;")
        assert catalog.has_table("t")
        assert "v" in views


class TestOutputColumns:
    def test_shape_of_aggregate_query(self):
        analyzer = SqlAnalyzer(sales_catalog())
        statement = parse_sql(
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region")
        columns = analyzer.output_columns(statement)
        assert [name for name, _type in columns] == \
            ["region", "total"]

    def test_star_expands_to_table_columns(self):
        analyzer = SqlAnalyzer(sales_catalog())
        statement = parse_sql("SELECT * FROM customers")
        columns = analyzer.output_columns(statement)
        assert [name for name, _type in columns] == \
            ["id", "name", "region"]


ACCEPTED_QUERIES = [
    "SELECT id, region FROM sales",
    "SELECT * FROM customers",
    "SELECT s.region, c.name FROM sales s "
    "JOIN customers c ON s.id = c.id",
    "SELECT region, SUM(amount) AS total FROM sales GROUP BY region",
    "SELECT UPPER(name) FROM customers WHERE LENGTH(name) > 3",
    "SELECT id FROM sales WHERE sold_on BETWEEN '2024-01-01' "
    "AND '2024-12-31'",
    "SELECT region FROM sales UNION SELECT region FROM customers",
    "SELECT COUNT(*) FROM sales",
    # A GROUP BY expression matches its item whatever the case.
    "SELECT region IS NULL, COUNT(*) FROM sales GROUP BY REGION IS NULL",
    "SELECT amount BETWEEN 1 AND 2, COUNT(*) FROM sales "
    "GROUP BY Amount Between 1 And 2",
    "SELECT region IN ('east', 'west') AS r, COUNT(*) FROM sales "
    "GROUP BY REGION IN ('east', 'west')",
    "SELECT name LIKE 'a%', COUNT(*) FROM customers GROUP BY NAME LIKE 'a%'",
]

#: Statements the engine refuses when it plans them, over an empty
#: database: a name it cannot bind, or an aggregate where none may stand.
REJECTED_QUERIES = [
    # An ON clause sees only the tables joined so far.
    "SELECT s.id FROM sales s JOIN customers c ON s.id = o.id "
    "JOIN sales o ON c.id = o.id",
    # GROUP BY and HAVING see the sources, not the output aliases.
    "SELECT region AS r, COUNT(*) FROM sales GROUP BY r",
    "SELECT SUM(amount) AS total FROM sales HAVING total > 0",
    "SELECT t.id FROM sales t JOIN customers t ON t.id = t.id",
    "SELECT id FROM ghosts",
    "SELECT colour FROM sales",
    "SELECT region FROM sales JOIN customers ON sales.id = customers.id",
    "SELECT id FROM sales WHERE SUM(amount) > 10",
]

#: The analyzer's codes for a name, or where a name or aggregate
#: stands: the errors the engine raises when it plans.  ODB107 is not
#: one: the analyzer's GROUP BY rule is stricter than the engine's.
NAME_CODES = {"ODB101", "ODB102", "ODB103", "ODB106", "ODB110"}

#: Items the engine names itself: ``sum(amount)``, ``columnN``.
UNALIASED_QUERIES = [
    "SELECT region, SUM(amount) FROM sales GROUP BY region",
    "SELECT COUNT(DISTINCT region), AVG(amount) FROM sales",
    "SELECT amount * 2, quantity FROM sales",
    "SELECT UPPER(name), LENGTH(name) FROM customers",
    "SELECT c.*, s.amount * s.quantity FROM sales s "
    "JOIN customers c ON s.id = c.id",
    "SELECT *, amount + 1 FROM sales",
]


class TestAnalyzerExecutorAgreement:
    """Property-style check: SQL the analyzer accepts must execute.

    An analyzer-clean query running against an *empty* database built
    from the same catalog must never hit a catalog-resolution error —
    the analyzer's whole claim is that it resolves names statically
    exactly the way the executor would — and the columns the analyzer
    says it produces are the ones the executor returns.
    """

    @pytest.mark.parametrize("sql", ACCEPTED_QUERIES + UNALIASED_QUERIES)
    def test_accepted_queries_execute(self, sql):
        catalog = sales_catalog()
        analyzer = SqlAnalyzer(catalog)
        collector = analyzer.analyze(sql)
        assert not collector.has_errors(), collector.render()

        result = empty_database(catalog).execute(sql)  # must not raise
        assert [name for name, _type in
                analyzer.output_columns(parse_sql(sql))] == \
            [column.lower() for column in result.columns]

    @pytest.mark.parametrize(
        "sql", ACCEPTED_QUERIES + UNALIASED_QUERIES + REJECTED_QUERIES)
    def test_name_errors_are_exactly_the_engines(self, sql):
        """The analyzer reports a name or placement error exactly when
        the engine refuses the statement, and that error carries the
        engine's text."""
        catalog = sales_catalog()
        found = [diagnostic.message for diagnostic
                 in SqlAnalyzer(catalog).analyze(sql)
                 if diagnostic.code in NAME_CODES]
        try:
            empty_database(catalog).execute(sql)
        except EngineError as exc:
            assert sql in REJECTED_QUERIES
            assert any(str(exc) in message for message in found), found
        else:
            assert sql not in REJECTED_QUERIES
            assert found == []

    def test_for_database_sees_live_views(self):
        database = Database("live")
        database.execute("CREATE TABLE t (id INTEGER)")
        database.execute("CREATE VIEW v AS SELECT id FROM t")
        collector = SqlAnalyzer.for_database(database).analyze(
            "SELECT id FROM v")
        assert collector.codes() == []
