"""E9 — analysis-service performance over the shared stack.

OLAP query latency vs fact-table size and grouping dimensionality,
plus the repeated-refresh comparison the DESIGN.md calls out: repeated
dashboard queries over an unchanged warehouse should be dominated by
reused results (the engine's stamp-validated reuse; the cube layer
keeps no cache of its own).
"""

import time

import pytest

from repro.engine import Database
from repro.olap import CubeSchema, OlapEngine
from repro.workloads import RetailWorkload

from _util import emit, format_table

FACT_SIZES = (1_000, 4_000, 16_000)


def build_engine(fact_rows, compile=True):
    database = Database(compile=compile)
    workload = RetailWorkload(seed=11)
    workload.build(database, fact_rows=fact_rows)
    schema = CubeSchema.from_definition(workload.cube_definition())
    return OlapEngine(database, schema)


def touch_fact(engine):
    """Commit a write to the fact table (net effect: none), so the
    next cube query is recomputed, not reused."""
    engine.database.execute(
        "INSERT INTO fact_sales VALUES (0, 0, 0, 0.0, 0)")
    engine.database.execute("DELETE FROM fact_sales WHERE time_key = 0")


def timed(fn, repeats=3, before=None):
    best = None
    for _ in range(repeats):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best * 1000.0


def test_bench_e9_olap_query(benchmark):
    engine = build_engine(4_000)

    def one_query():
        return engine.query(
            ["revenue"], [("Time", "year"), ("Store", "region")])

    # The fact table moves before every round: this times execution,
    # not the reuse of an unchanged result.
    cells = benchmark.pedantic(
        one_query, setup=lambda: touch_fact(engine), rounds=20)
    assert len(cells.rows) > 0

    # Latency vs fact size and number of grouping axes.
    rows = []
    for fact_rows in FACT_SIZES:
        engine = build_engine(fact_rows)

        def moved():
            touch_fact(engine)

        latency_0d = timed(lambda: engine.query(["revenue"]),
                           before=moved)
        latency_1d = timed(lambda: engine.query(
            ["revenue"], [("Store", "region")]), before=moved)
        latency_2d = timed(lambda: engine.query(
            ["revenue"], [("Time", "year"), ("Store", "region")]),
            before=moved)
        latency_3d = timed(lambda: engine.query(
            ["revenue"], [("Time", "month"), ("Store", "city"),
                          ("Product", "category")]), before=moved)
        rows.append((fact_rows, latency_0d, latency_1d,
                     latency_2d, latency_3d))
    emit("E9_olap_latency", format_table(
        ("fact rows", "0 axes ms", "1 axis ms",
         "2 axes ms", "3 axes ms"), rows))

    # Shape: latency grows with fact size (comparing the same query).
    assert rows[-1][2] > rows[0][2]


def test_e9_repeated_refresh_reuses_results():
    """Cold refresh vs repeated refreshes of a dashboard-style query
    mix on one engine over an unchanged warehouse."""
    queries = [
        (["revenue"], [("Store", "region")], ()),
        (["revenue", "quantity"], [("Time", "year")], ()),
        (["quantity"], [("Product", "category")], ()),
    ]

    def run_dashboard(engine, refreshes):
        for _ in range(refreshes):
            for measures, axes, slicers in queries:
                engine.query(measures, list(axes), list(slicers))

    engine = build_engine(8_000)
    cold_ms = timed(lambda: run_dashboard(engine, 1), repeats=1)
    cold_hits = engine.statistics["cache_hits"]
    repeated_ms = timed(lambda: run_dashboard(engine, 9), repeats=1)

    emit("E9_repeated_refresh", format_table(
        ("phase", "queries", "ms", "reused"),
        [("cold refresh", 3, cold_ms, cold_hits),
         ("9 repeated refreshes", 27, repeated_ms,
          engine.statistics["cache_hits"] - cold_hits)]))

    assert engine.statistics == {"queries": 30, "cache_hits": 27}
    assert repeated_ms < cold_ms


def test_e9_results_identical_with_and_without_reuse():
    reusing = build_engine(2_000)
    recomputing = build_engine(2_000, compile=False)  # never reuses
    for _ in range(2):
        a = reusing.query(["revenue"], [("Store", "region")])
        b = recomputing.query(["revenue"], [("Store", "region")])
        assert a.rows == b.rows
    assert reusing.statistics["cache_hits"] == 1
    assert recomputing.statistics["cache_hits"] == 0


def test_e9_index_ablation_point_lookups():
    """Index on vs off for selective point lookups on the fact table
    (drill-through queries), the second ablation DESIGN.md calls out."""
    database = Database()
    workload = RetailWorkload(seed=11)
    workload.build(database, fact_rows=16_000)

    def drill_through():
        for key in range(1, 101):
            database.query(
                "SELECT revenue FROM fact_sales WHERE time_key = ?",
                (key,))

    no_index_ms = timed(drill_through, repeats=2)
    database.execute(
        "CREATE INDEX fact_time ON fact_sales (time_key)")
    with_index_ms = timed(drill_through, repeats=2)

    emit("E9_index_ablation", format_table(
        ("configuration", "100 drill-through lookups ms"),
        [("no index (full scans)", no_index_ms),
         ("hash index on time_key", with_index_ms)]))
    assert with_index_ms < no_index_ms / 2
