"""What the frozen benchmark reaches for inside ``src/``.

``bench/`` may only be edited by a ``benchmark`` issue, and its own
self-tests (``bench/test_harness.py``) sit outside tier-1's
``testpaths`` — so a PR that renames or deletes one of the names below
would break ``bench/run.py --trace 1`` with tier-1 green.  These checks
start no platform and take milliseconds.
"""

from bench.trace import default_targets
from repro.core import overload
from repro.core.analysis_service import AnalysisService
from repro.engine import Database
from repro.olap import CubeDimension, CubeSchema, Measure, OlapEngine
from tests.test_perfsmoke import spy


def test_every_traced_function_is_where_the_tracer_rebinds_it():
    missing = [f"{target.owner.__name__}.{target.attr}"
               for target in default_targets()
               if target.attr not in vars(target.owner)]
    assert not missing


def test_analysis_service_surface_used_by_the_workloads():
    # bench/workloads.py calls invalidate_cube after every refresh;
    # bench/run.py walks cubes() and engine() for the hit share.
    for name in ("invalidate_cube", "engine", "cubes"):
        assert callable(vars(AnalysisService)[name])


def test_olap_engine_counters_read_by_the_traced_run():
    database = Database()
    database.execute("CREATE TABLE d (k INTEGER PRIMARY KEY, name TEXT)")
    database.execute("CREATE TABLE f (k INTEGER, amount REAL)")
    engine = OlapEngine(database, CubeSchema(
        "C", "f", [Measure("amount", "amount", "sum")],
        [CubeDimension("D", "d", "k", ["name"])]))
    assert {"queries", "cache_hits"} <= set(engine.statistics)


def test_a_new_text_is_parsed_through_the_name_the_tracer_rebinds(
        monkeypatch):
    # bench/trace.py counts the front door's parses by rebinding
    # overload.parse_sql; the memo in front of it must reach the
    # parser through that module global, and only for unseen text.
    overload.read_only_statement.cache_clear()
    parses = spy(monkeypatch, overload, "parse_sql")
    assert overload.read_only_statement("SELECT 23 AS pr")
    assert len(parses) == 1
    assert overload.read_only_statement("SELECT 23 AS pr")
    assert len(parses) == 1
