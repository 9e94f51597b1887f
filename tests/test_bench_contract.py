"""What the frozen benchmark reaches for inside ``src/``.

``bench/`` may only be edited by a ``benchmark`` issue, and its own
self-tests (``bench/test_harness.py``) sit outside tier-1's
``testpaths`` — so a PR that renames or deletes one of the names below
would break ``bench/run.py --trace 1`` with tier-1 green.  These checks
start no platform and take milliseconds.
"""

import inspect

import pytest

from bench.trace import default_targets
from repro.core import overload
from repro.core.analysis_service import AnalysisService
from repro.engine import Database
from repro.errors import ServiceError
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


def test_a_new_mdx_text_is_parsed_through_the_name_the_tracer_rebinds(
        monkeypatch):
    # bench/trace.py times MDX parses by rebinding
    # analysis_service.parse_mdx; execute_mdx must parse through that
    # module global, and only an unseen text may reach the parser body
    # behind its memo.
    from repro.core import analysis_service
    from repro.core.tenancy import TenantManager
    from repro.olap import parse_mdx

    parse_mdx.cache_clear()
    traced = spy(monkeypatch, analysis_service, "parse_mdx")
    service = AnalysisService(TenantManager(), resources=None)
    for _ in range(2):
        with pytest.raises(ServiceError, match="no cube 'C'"):
            service.execute_mdx(
                "t", "SELECT {[Measures].[amount]} ON COLUMNS FROM [C]")
    assert len(traced) == 2
    assert parse_mdx.cache_info().misses == 1


def test_the_traced_request_wrapper_takes_headers_fifth(monkeypatch):
    # bench/trace.py's _adopt_request reads the root span id from the
    # headers in RequestGateway._run_request's 5th positional argument
    # (self first), and the gateway must pass them there positionally.
    from bench.trace import REQUEST_ID_HEADER, _adopt_request
    from repro.core import RequestGateway
    from repro.core.tenancy import TenantManager
    from repro.web import JsonResponse, WebApplication

    names = list(inspect.signature(RequestGateway._run_request).parameters)
    assert names[:5] == ["self", "method", "path", "body", "headers"]
    web = WebApplication("contract")
    web.get("/ping", lambda request: JsonResponse({}))
    gateway = RequestGateway(web, TenantManager(), max_workers=1)
    adopted = []
    run = RequestGateway._run_request

    def recording(*args):
        adopted.append(_adopt_request(args))
        return run(*args)

    monkeypatch.setattr(RequestGateway, "_run_request", recording)
    try:
        assert gateway.submit("GET", "/ping", headers={
            REQUEST_ID_HEADER: "23"}).result(30).ok
    finally:
        gateway.shutdown()
    assert adopted == [23]


def test_the_request_client_dispatches_through_handle(monkeypatch):
    # bench/trace.py times the web layer by rebinding
    # WebApplication.handle; request() must go through that name.
    from repro.web import JsonResponse, WebApplication

    web = WebApplication("contract")
    web.get("/ping", lambda request: JsonResponse({}))
    handled = spy(monkeypatch, WebApplication, "handle")
    assert web.request("GET", "/ping").ok
    assert len(handled) == 1
