"""Performance smoke tests (``pytest -m perfsmoke``).

A fast sanity layer between the unit tests and the full benchmark
suite: a ~2-second check that plan compilation still beats the
interpreted executor on the two E12 microbenchmark shapes, plus one
end-to-end run of the analysis CLI over the example artifacts.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import Database

pytestmark = pytest.mark.perfsmoke

REPO_ROOT = Path(__file__).resolve().parent.parent


def build(fact_rows, compile=True):
    database = Database(compile=compile)
    database.execute(
        "CREATE TABLE dim (k INTEGER PRIMARY KEY, label TEXT)")
    database.executemany(
        "INSERT INTO dim VALUES (?, ?)",
        [(key, f"l{key % 10}") for key in range(1, 201)])
    database.execute("CREATE TABLE fact (k INTEGER, amount REAL)")
    database.executemany(
        "INSERT INTO fact VALUES (?, ?)",
        [(index % 200 + 1, float(index % 50))
         for index in range(fact_rows)])
    return database


def best_ms(fn, repeats=3, before=None):
    """Best wall time of ``fn``; ``before`` runs untimed each round."""
    timings = []
    for _ in range(repeats):
        if before is not None:
            before()
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings) * 1000.0


def touch_fact(database):
    """Commit a write to ``fact`` (net effect: none), so the next
    aggregate over it is recomputed, not reused."""
    database.execute("INSERT INTO fact VALUES (0, 0.0)")
    database.execute("DELETE FROM fact WHERE k = 0")


@pytest.mark.parametrize("sql", [
    "SELECT d.label, SUM(f.amount) AS total FROM fact f "
    "JOIN dim d ON f.k = d.k GROUP BY d.label ORDER BY d.label",
    "SELECT k, amount FROM fact WHERE amount > 25.0 AND k < 150 "
    "ORDER BY amount",
])
def test_compiled_plans_still_fast(sql):
    """Compiled execution beats the interpreter with margin to spare.

    The full >= 3x claim lives in benchmarks/test_bench_e12_engine.py;
    this smoke check uses a small dataset and a loose 1.5x bar so it
    stays fast and never flakes on a loaded machine.
    """
    compiled = build(4_000)
    interpreted = build(4_000, compile=False)
    assert compiled.query(sql) == interpreted.query(sql)
    # The table moves between rounds: this measures execution, not
    # the reuse of an aggregate's remembered result.
    compiled_ms = best_ms(lambda: compiled.query(sql),
                          before=lambda: touch_fact(compiled))
    interpreted_ms = best_ms(lambda: interpreted.query(sql),
                             before=lambda: touch_fact(interpreted))
    assert interpreted_ms > 1.5 * compiled_ms, (
        f"compiled {compiled_ms:.2f}ms vs "
        f"interpreted {interpreted_ms:.2f}ms")


GROUPED = ("SELECT k, COUNT(*) AS n, SUM(amount) AS total FROM fact "
           "GROUP BY k ORDER BY k")


@pytest.fixture(scope="module")
def big():
    return build(20_000)


def test_unchanged_table_reuses_the_aggregate(big):
    """Ratio, not milliseconds: the second execution of a GROUP BY
    over an unchanged 20 000-row table skips the scan."""
    expected = big.query(GROUPED)
    first_ms = best_ms(lambda: big.query(GROUPED),
                       before=lambda: touch_fact(big))
    again_ms = best_ms(lambda: big.query(GROUPED))
    assert big.query(GROUPED) == expected
    assert first_ms >= 5 * again_ms, (
        f"recomputed {first_ms:.2f}ms vs reused {again_ms:.3f}ms")


def test_moving_table_pays_nothing_for_the_cache(big):
    """With a write between executions every read misses; the miss
    costs the same as executing the plan with no cache in the way."""
    statement = big._parse(GROUPED)
    plan, _reason = big.plan_for(statement)

    def bare():
        with big.open_snapshot() as snapshot:
            return plan.execute((), snapshot)

    misses = big.statistics["result_cache_misses"]
    through, without = [], []
    for _ in range(7):  # interleaved: host drift lands on both sides
        through.append(best_ms(lambda: big.execute(GROUPED), repeats=1,
                               before=lambda: touch_fact(big)))
        without.append(best_ms(bare, repeats=1,
                               before=lambda: touch_fact(big)))
    assert big.statistics["result_cache_misses"] == misses + 7
    through_ms, bare_ms = min(through), min(without)
    assert through_ms <= 1.15 * bare_ms, (
        f"through the cache {through_ms:.2f}ms vs bare plan "
        f"{bare_ms:.2f}ms")


def test_analysis_cli_runs_clean():
    """The static-analysis CLI still validates the example artifacts."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli",
         "examples/artifacts"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=60)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 error(s)" in completed.stdout
