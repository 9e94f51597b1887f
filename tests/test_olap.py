"""Tests for the OLAP substrate: schemas, engine, MDX-lite, navigation."""

import threading

import pytest

from repro.engine import Database
from repro.errors import CubeDefinitionError, MdxSyntaxError, QueryError
from repro.olap import (
    CubeDimension,
    CubeNavigator,
    CubeSchema,
    Measure,
    OlapEngine,
    parse_mdx,
)


def build_star(db):
    db.execute("CREATE TABLE dim_time (time_key INTEGER PRIMARY KEY, "
               "year INTEGER, quarter TEXT, month TEXT)")
    db.execute("CREATE TABLE dim_store (store_key INTEGER PRIMARY KEY, "
               "region TEXT, city TEXT)")
    db.execute("CREATE TABLE fact_sales (time_key INTEGER, "
               "store_key INTEGER, revenue REAL, quantity INTEGER)")
    times = [
        (1, 2020, "Q1", "Jan"), (2, 2020, "Q1", "Feb"),
        (3, 2020, "Q2", "Apr"), (4, 2021, "Q1", "Jan"),
    ]
    for row in times:
        db.execute("INSERT INTO dim_time VALUES (?, ?, ?, ?)", row)
    stores = [(1, "North", "Lille"), (2, "North", "Paris"),
              (3, "South", "Nice")]
    for row in stores:
        db.execute("INSERT INTO dim_store VALUES (?, ?, ?)", row)
    facts = [
        (1, 1, 100.0, 10), (1, 2, 50.0, 5), (2, 1, 75.0, 7),
        (3, 3, 200.0, 20), (4, 2, 125.0, 12), (4, 3, 25.0, 2),
    ]
    for row in facts:
        db.execute("INSERT INTO fact_sales VALUES (?, ?, ?, ?)", row)


@pytest.fixture
def db():
    database = Database()
    build_star(database)
    return database


@pytest.fixture
def schema():
    return CubeSchema(
        "Sales", "fact_sales",
        measures=[Measure("revenue", "revenue", "sum"),
                  Measure("quantity", "quantity", "sum"),
                  Measure("avg_ticket", "revenue", "avg")],
        dimensions=[
            CubeDimension("Time", "dim_time", "time_key",
                          ["year", "quarter", "month"]),
            CubeDimension("Store", "dim_store", "store_key",
                          ["region", "city"]),
        ])


@pytest.fixture
def engine(db, schema):
    return OlapEngine(db, schema)


class TestCubeSchema:
    def test_requires_measures_and_dimensions(self):
        with pytest.raises(CubeDefinitionError):
            CubeSchema("c", "f", [], [CubeDimension("d", "t", "k", ["l"])])
        with pytest.raises(CubeDefinitionError):
            CubeSchema("c", "f", [Measure("m", "c")], [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CubeDefinitionError):
            CubeSchema("c", "f",
                       [Measure("m", "a"), Measure("m", "b")],
                       [CubeDimension("d", "t", "k", ["l"])])

    def test_bad_aggregator_rejected(self):
        with pytest.raises(CubeDefinitionError):
            Measure("m", "c", "stddev")

    def test_dimension_needs_levels(self):
        with pytest.raises(CubeDefinitionError):
            CubeDimension("d", "t", "k", [])

    def test_level_index(self, schema):
        time = schema.dimension("Time")
        assert time.level_index("quarter") == 1
        with pytest.raises(CubeDefinitionError):
            time.level_index("week")

    def test_validate_against_reports_problems(self, schema):
        empty = Database()
        problems = schema.validate_against(empty.catalog)
        assert any("fact table" in problem for problem in problems)

    def test_validate_against_detects_missing_level(self, db, schema):
        db.execute("DROP TABLE dim_store")
        db.execute("CREATE TABLE dim_store "
                   "(store_key INTEGER, region TEXT)")  # no city
        problems = schema.validate_against(db.catalog)
        assert any("city" in problem for problem in problems)

    def test_from_definition_roundtrip(self):
        definition = {
            "name": "Sales",
            "fact_table": "fact_sales",
            "measures": [{"name": "revenue", "column": "revenue",
                          "aggregator": "sum"}],
            "dimensions": [{"name": "Time", "table": "dim_time",
                            "key": "time_key",
                            "levels": ["year", "month"]}],
        }
        schema = CubeSchema.from_definition(definition)
        assert schema.fact_table == "fact_sales"
        assert schema.dimension("Time").levels == ["year", "month"]

    def test_from_definition_missing_key(self):
        with pytest.raises(CubeDefinitionError):
            CubeSchema.from_definition({"name": "x"})


class TestOlapEngine:
    def test_grand_total(self, engine):
        assert engine.grand_total("revenue") == 575.0

    def test_group_by_one_axis(self, engine):
        cells = engine.query(["revenue"], [("Time", "year")])
        assert cells.cell([2020], "revenue") == 425.0
        assert cells.cell([2021], "revenue") == 150.0

    def test_group_by_two_axes(self, engine):
        cells = engine.query(["revenue"],
                             [("Time", "year"), ("Store", "region")])
        assert cells.cell([2020, "North"], "revenue") == 225.0
        assert cells.cell([2020, "South"], "revenue") == 200.0

    def test_slicer_filters(self, engine):
        cells = engine.query(["revenue"], [("Time", "year")],
                             [("Store", "region", "North")])
        assert cells.cell([2020], "revenue") == 225.0
        assert cells.cell([2021], "revenue") == 125.0

    def test_dice_with_member_list(self, engine):
        cells = engine.query(["quantity"], [],
                             [("Store", "city", ["Lille", "Nice"])])
        assert cells.rows[0]["quantity"] == 39

    def test_avg_aggregator(self, engine):
        cells = engine.query(["avg_ticket"], [("Store", "region")])
        assert cells.cell(["South"], "avg_ticket") == \
            pytest.approx(112.5)

    def test_unknown_measure_rejected(self, engine):
        with pytest.raises(CubeDefinitionError):
            engine.query(["profit"])

    def test_unknown_level_rejected(self, engine):
        with pytest.raises(CubeDefinitionError):
            engine.query(["revenue"], [("Time", "week")])

    def test_empty_measure_list_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.query([])

    def test_members(self, engine):
        assert engine.members("Store", "region") == ["North", "South"]
        assert engine.members("Time", "year") == [2020, 2021]

    def test_cache_hit_on_repeat(self, engine):
        engine.query(["revenue"], [("Time", "year")])
        engine.query(["revenue"], [("Time", "year")])
        assert engine.statistics["cache_hits"] == 1

    def test_cache_respects_slicer_differences(self, engine):
        engine.query(["revenue"], [], [("Time", "year", 2020)])
        engine.query(["revenue"], [], [("Time", "year", 2021)])
        assert engine.statistics["cache_hits"] == 0

    def test_no_cache_hit_across_a_write(self, engine, db):
        engine.query(["revenue"], [("Time", "year")])
        db.execute("INSERT INTO fact_sales VALUES (1, 1, 1.0, 1)")
        engine.query(["revenue"], [("Time", "year")])
        assert engine.statistics == {"queries": 2, "cache_hits": 0}

    def test_cache_invalidation_after_load(self, engine, db):
        """A load is visible to the very next query, unasked."""
        before = engine.grand_total("revenue")
        db.execute("INSERT INTO fact_sales VALUES (1, 1, 1000.0, 1)")
        assert engine.grand_total("revenue") == before + 1000.0

    def test_uncommitted_load_is_invisible_until_commit(self, engine,
                                                        db):
        before = engine.grand_total("revenue")
        wrote, decide, decided = (threading.Event() for _ in range(3))

        def writer():
            for outcome in ("ROLLBACK", "COMMIT"):
                db.execute("BEGIN")
                db.execute(
                    "INSERT INTO fact_sales VALUES (1, 1, 1000.0, 1)")
                wrote.set()
                decide.wait(timeout=30)
                decide.clear()
                db.execute(outcome)
                decided.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for after in (before, before + 1000.0):
                assert wrote.wait(timeout=30)
                wrote.clear()
                # In flight on another thread: not visible.
                assert engine.grand_total("revenue") == before
                decide.set()
                assert decided.wait(timeout=30)
                decided.clear()
                # Rolled back: never shows.  Committed: shows.
                assert engine.grand_total("revenue") == after
                before = after
        finally:
            decide.set()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_renamed_member_moves_the_axis(self, engine, db):
        first = engine.query(["revenue"], [("Store", "region")])
        assert [row["Store.region"] for row in first.rows] \
            == ["North", "South"]
        db.execute(
            "UPDATE dim_store SET region = 'Midi' WHERE region = 'South'")
        second = engine.query(["revenue"], [("Store", "region")])
        assert [row["Store.region"] for row in second.rows] \
            == ["Midi", "North"]
        assert second.cell(["Midi"], "revenue") \
            == first.cell(["South"], "revenue")

    def test_every_query_returns_its_own_cell_set(self, engine):
        first = engine.query(["revenue"], [("Time", "year")])
        expected = [dict(row) for row in first.rows]
        first.rows[0]["revenue"] = -1.0
        first.rows.append({"Time.year": 1999, "revenue": 0.0})
        second = engine.query(["revenue"], [("Time", "year")])
        assert second is not first
        assert second.rows == expected

    def test_engine_validates_schema_at_construction(self, schema):
        with pytest.raises(CubeDefinitionError):
            OlapEngine(Database(), schema)


class TestCellSet:
    def test_totals(self, engine):
        cells = engine.query(["revenue", "quantity"], [("Time", "year")])
        totals = cells.totals()
        assert totals["revenue"] == 575.0
        assert totals["quantity"] == 56

    def test_to_table_has_header(self, engine):
        cells = engine.query(["revenue"], [("Store", "region")])
        table = cells.to_table()
        assert table[0] == ["Store.region", "revenue"]
        assert len(table) == 3

    def test_cell_errors(self, engine):
        cells = engine.query(["revenue"], [("Time", "year")])
        with pytest.raises(QueryError):
            cells.cell([2020], "profit")
        with pytest.raises(QueryError):
            cells.cell([1999], "revenue")
        with pytest.raises(QueryError):
            cells.cell([2020, "extra"], "revenue")


class TestMdx:
    def test_full_statement_parses(self):
        query = parse_mdx(
            "SELECT {[Measures].[revenue], [Measures].[quantity]} "
            "ON COLUMNS, {[Time].[year].Members} ON ROWS "
            "FROM [Sales] WHERE ([Store].[region].[North])")
        assert query.cube == "Sales"
        assert query.measures == ("revenue", "quantity")
        assert query.row_axes == (("Time", "year"),)
        assert query.slicers == (("Store", "region", "North"),)

    def test_execution_matches_engine_api(self, engine):
        query = parse_mdx(
            "SELECT {[Measures].[revenue]} ON COLUMNS, "
            "{[Time].[year].Members} ON ROWS FROM [Sales] "
            "WHERE ([Store].[region].[North])")
        cells = query.execute(engine)
        assert cells.cell([2020], "revenue") == 225.0

    def test_multiple_row_axes(self, engine):
        query = parse_mdx(
            "SELECT {[Measures].[revenue]} ON COLUMNS, "
            "{[Time].[year].Members, [Store].[region].Members} ON ROWS "
            "FROM [Sales]")
        cells = query.execute(engine)
        assert len(cells.rows) == 4

    def test_query_without_rows_axis(self, engine):
        query = parse_mdx(
            "SELECT {[Measures].[revenue]} ON COLUMNS FROM [Sales]")
        cells = query.execute(engine)
        assert cells.rows[0]["revenue"] == 575.0

    def test_wrong_cube_rejected_at_execution(self, engine):
        query = parse_mdx(
            "SELECT {[Measures].[revenue]} ON COLUMNS FROM [Other]")
        with pytest.raises(QueryError):
            query.execute(engine)

    @pytest.mark.parametrize("bad", [
        "SELECT FROM [Sales]",
        "SELECT {[Time].[year].Members} ON COLUMNS FROM [Sales]",
        "SELECT {[Measures].[x]} ON COLUMNS, "
        "{[Time].[year]} ON ROWS FROM [Sales]",
        "SELECT {[Measures].[x]} ON COLUMNS, "
        "{[Measures].[y]} ON COLUMNS FROM [Sales]",
        "SELECT {[Measures].[x]} ON COLUMNS FROM [Sales] WHERE ([Time])",
        "completely wrong",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(MdxSyntaxError):
            parse_mdx(bad)


class TestNavigation:
    def test_drill_down_path(self, engine):
        navigator = CubeNavigator(engine, measures=["revenue"])
        view = navigator.current_view()
        assert view.rows[0]["revenue"] == 575.0  # fully rolled up

        navigator.drill_down("Time")
        view = navigator.current_view()
        assert view.axes == [("Time", "year")]

        navigator.drill_down("Time")
        view = navigator.current_view()
        assert view.axes == [("Time", "quarter")]

    def test_drill_past_finest_level_rejected(self, engine):
        navigator = CubeNavigator(engine)
        navigator.drill_down("Store").drill_down("Store")
        with pytest.raises(QueryError):
            navigator.drill_down("Store")

    def test_roll_up(self, engine):
        navigator = CubeNavigator(engine, measures=["revenue"])
        navigator.drill_down("Time").drill_down("Time")
        navigator.roll_up("Time")
        assert navigator.visible_axes() == [("Time", "year")]
        navigator.roll_up("Time")
        assert navigator.visible_axes() == []
        with pytest.raises(QueryError):
            navigator.roll_up("Time")

    def test_slice_and_clear(self, engine):
        navigator = CubeNavigator(engine, measures=["revenue"])
        navigator.drill_down("Time")
        navigator.slice("Store", "region", "North")
        view = navigator.current_view()
        assert view.cell([2020], "revenue") == 225.0
        navigator.clear_slice("Store", "region")
        view = navigator.current_view()
        assert view.cell([2020], "revenue") == 425.0

    def test_dice(self, engine):
        navigator = CubeNavigator(engine, measures=["quantity"])
        navigator.dice("Store", "city", ["Lille", "Nice"])
        view = navigator.current_view()
        assert view.rows[0]["quantity"] == 39

    def test_reset(self, engine):
        navigator = CubeNavigator(engine)
        navigator.drill_down("Time").slice("Store", "region", "North")
        navigator.reset()
        assert navigator.visible_axes() == []
        assert navigator.active_slicers() == []

    def test_breadcrumbs_record_the_path(self, engine):
        navigator = CubeNavigator(engine)
        navigator.drill_down("Time").slice("Store", "region", "North")
        assert "drill-down Time -> year" in navigator.breadcrumbs
        assert any("slice Store.region" in crumb
                   for crumb in navigator.breadcrumbs)


class TestCalculatedMeasures:
    @pytest.fixture
    def calc_engine(self, db):
        from repro.olap.model import CalculatedMeasure

        schema = CubeSchema(
            "Sales", "fact_sales",
            measures=[Measure("revenue", "revenue", "sum"),
                      Measure("quantity", "quantity", "sum")],
            dimensions=[
                CubeDimension("Time", "dim_time", "time_key",
                              ["year", "quarter", "month"]),
                CubeDimension("Store", "dim_store", "store_key",
                              ["region", "city"]),
            ],
            calculated=[CalculatedMeasure(
                "unit_price", "revenue / quantity",
                ["revenue", "quantity"])])
        return OlapEngine(db, schema)

    def test_ratio_computed_per_cell(self, calc_engine):
        cells = calc_engine.query(["unit_price"], [("Store", "region")])
        north = cells.cell(["North"], "unit_price")
        assert north == pytest.approx(350.0 / 34)

    def test_base_and_calculated_together(self, calc_engine):
        cells = calc_engine.query(["revenue", "unit_price"],
                                  [("Time", "year")])
        row_2020 = [row for row in cells.rows
                    if row["Time.year"] == 2020][0]
        assert row_2020["unit_price"] == pytest.approx(
            row_2020["revenue"] / 42)

    def test_division_by_zero_yields_null(self, db):
        from repro.olap.model import CalculatedMeasure

        db.execute("INSERT INTO dim_store VALUES (9, 'Ghost', 'Nul')")
        db.execute("INSERT INTO fact_sales VALUES (1, 9, 10.0, 0)")
        schema = CubeSchema(
            "S", "fact_sales",
            measures=[Measure("revenue", "revenue"),
                      Measure("quantity", "quantity")],
            dimensions=[CubeDimension("Store", "dim_store",
                                      "store_key", ["city"])],
            calculated=[CalculatedMeasure(
                "unit_price", "revenue / quantity",
                ["revenue", "quantity"])])
        engine = OlapEngine(db, schema)
        cells = engine.query(["unit_price"], [("Store", "city")])
        assert cells.cell(["Nul"], "unit_price") is None

    def test_formula_validation(self):
        from repro.olap.model import CalculatedMeasure

        with pytest.raises(CubeDefinitionError):
            CalculatedMeasure("bad", "revenue +", ["revenue"])
        with pytest.raises(CubeDefinitionError):
            CalculatedMeasure("bad", "__import__('os')", ["revenue"])
        with pytest.raises(CubeDefinitionError):
            CalculatedMeasure("bad", "ghost + 1", ["revenue"])
        with pytest.raises(CubeDefinitionError):
            CalculatedMeasure("bad", "1 + 1", [])

    def test_calculated_name_clash_rejected(self):
        from repro.olap.model import CalculatedMeasure

        with pytest.raises(CubeDefinitionError):
            CubeSchema(
                "S", "f",
                measures=[Measure("revenue", "revenue")],
                dimensions=[CubeDimension("D", "t", "k", ["l"])],
                calculated=[CalculatedMeasure(
                    "revenue", "revenue * 2", ["revenue"])])

    def test_unknown_operand_rejected(self):
        from repro.olap.model import CalculatedMeasure

        with pytest.raises(CubeDefinitionError):
            CubeSchema(
                "S", "f",
                measures=[Measure("revenue", "revenue")],
                dimensions=[CubeDimension("D", "t", "k", ["l"])],
                calculated=[CalculatedMeasure(
                    "m", "ghost * 2", ["ghost"])])

    def test_from_definition_with_calculated(self):
        definition = {
            "name": "S", "fact_table": "f",
            "measures": [{"name": "revenue", "column": "revenue"}],
            "dimensions": [{"name": "D", "table": "t", "key": "k",
                            "levels": ["l"]}],
            "calculated": [{"name": "double", "formula": "revenue * 2",
                            "operands": ["revenue"]}],
        }
        schema = CubeSchema.from_definition(definition)
        assert schema.is_calculated("double")


class TestDrillThrough:
    def test_cell_to_fact_rows(self, engine):
        rows = engine.drill_through([("Store", "region", "North"),
                                     ("Time", "year", 2020)])
        assert len(rows) == 3
        assert all(row["store_region"] == "North" for row in rows)
        assert {row["revenue"] for row in rows} == {100.0, 50.0, 75.0}

    def test_limit(self, engine):
        rows = engine.drill_through([("Store", "region", "North")],
                                    limit=2)
        assert len(rows) == 2

    def test_requires_coordinates(self, engine):
        with pytest.raises(QueryError):
            engine.drill_through([])

    def test_unknown_level_rejected(self, engine):
        with pytest.raises(CubeDefinitionError):
            engine.drill_through([("Store", "galaxy", "X")])


class TestCountDistinct:
    def test_count_distinct_measure(self, db):
        schema = CubeSchema(
            "S", "fact_sales",
            measures=[Measure("stores", "store_key",
                              "count_distinct"),
                      Measure("rows_", "store_key", "count")],
            dimensions=[CubeDimension("Time", "dim_time", "time_key",
                                      ["year"])])
        engine = OlapEngine(db, schema)
        cells = engine.query(["stores", "rows_"], [("Time", "year")])
        assert cells.cell([2020], "stores") == 3  # distinct stores
        assert cells.cell([2020], "rows_") == 4   # fact rows
