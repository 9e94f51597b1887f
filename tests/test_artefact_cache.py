"""The rules the compiled-artefact cache and the MDX memo rely on.

Stored dashboards, data sets, data sources and report designs are read
from their platform-database rows once and kept compiled
(``metadata_service.ArtefactCache``); MDX text is parsed once per
distinct text (``olap.query.parse_mdx``).  These checks hold the
cases where keeping something would give a wrong answer: a miss, a
deactivated tenant, a rolled-back definition, a syntax error, a
caller that alters a shared parse, and memory.
"""

import dataclasses

import pytest

from repro.core import OdbisPlatform, metadata_service
from repro.errors import MdxSyntaxError, ServiceError, TenantError
from repro.olap import parse_mdx
from repro.reporting import DashboardDefinition


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    for tenant in ("acme", "globex"):
        context = platform.provisioning.provision(
            tenant, tenant.title(), plan="team")
        context.warehouse_db.execute("CREATE TABLE s (region TEXT, n REAL)")
        context.warehouse_db.execute("INSERT INTO s VALUES ('N', 1.0)")
    yield platform
    platform.close()


def login(platform, tenant="acme"):
    response = platform.web.request(
        "POST", "/login",
        body={"username": f"admin@{tenant}", "password": "changeme"})
    return {"X-Auth-Token": response.json()["token"]}


def cached_tenants(platform):
    return {tenant for tenant, _table, _name
            in platform.metadata.artefacts._entries}


def test_a_miss_is_not_remembered(platform):
    headers = login(platform)
    path = "/tenants/acme/datasets/later/rows"
    for _ in range(2):
        missing = platform.web.request("GET", path, headers=headers)
        assert 400 <= missing.status < 500
    platform.metadata.create_dataset(
        "acme", "later", "warehouse", "SELECT region, n FROM s")
    found = platform.web.request("GET", path, headers=headers)
    assert found.status == 200, found.body
    assert found.json() == {"rows": [{"region": "N", "n": 1.0}]}


def test_a_deactivated_tenant_is_refused_with_the_cache_warm(platform):
    platform.metadata.create_dataset(
        "acme", "d", "warehouse", "SELECT region, n FROM s")
    definition = DashboardDefinition("dash")
    definition.add_row(definition.chart("d", "c", "bar", "region", "n"))
    platform.reporting.define_dashboard("acme", definition)
    headers = login(platform)
    path = "/tenants/acme/dashboards/dash"
    # Two deliveries: the second is served from the warm cache.
    for _ in range(2):
        assert platform.web.request(
            "GET", path, headers=headers).status == 200
    # Deactivate without deprovisioning, so the entries stay.
    platform.tenants.deactivate("acme")
    with pytest.raises(TenantError):
        platform.reporting.render_dashboard("acme", "dash")
    with pytest.raises(TenantError):
        platform.metadata.dataset_rows("acme", "d")
    assert 400 <= platform.web.request(
        "GET", path, headers=headers).status < 500


def test_a_definition_rolled_back_is_never_served(platform):
    database = platform.tenants.platform_db
    with pytest.raises(RuntimeError):
        with database.transaction():
            platform.metadata.create_datasource(
                "acme", "side", "repro://warehouse")
            platform.metadata.create_dataset(
                "acme", "temp", "side", "SELECT region FROM s")
            assert platform.metadata.dataset_rows("acme", "temp") == [
                {"region": "N"}]
            raise RuntimeError("roll back")
    with pytest.raises(ServiceError, match="no data set 'temp'"):
        platform.metadata.dataset_rows("acme", "temp")
    with pytest.raises(ServiceError, match="no data source 'side'"):
        platform.metadata.resolve_datasource("acme", "side")


def test_an_mdx_syntax_error_is_raised_on_every_repeat(platform):
    for _ in range(3):
        with pytest.raises(MdxSyntaxError):
            parse_mdx("SELECT {[Measures].[x]} ON COLUMNS FROM [C] "
                      "WHERE ([Time])")
        with pytest.raises(MdxSyntaxError):
            platform.analysis.execute_mdx("acme", "not mdx at all")


def test_a_shared_parse_cannot_be_altered():
    text = ("SELECT {[Measures].[revenue]} ON COLUMNS, "
            "{[T].[year].[2020], [T].[year].[2021]} ON ROWS FROM [Shared]")
    query = parse_mdx(text)
    assert parse_mdx(text) is query
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.cube = "Other"
    with pytest.raises(AttributeError):
        query.measures.append("quantity")
    with pytest.raises(TypeError):
        query.slicers[0][2][0] = "1999"
    assert parse_mdx(text).measures == ("revenue",)
    assert parse_mdx(text).slicers == (("T", "year", ("2020", "2021")),)


def test_the_cache_stays_within_its_bound(platform, monkeypatch):
    monkeypatch.setattr(metadata_service, "STATEMENT_CACHE_CAPACITY", 8)
    names = [f"d{index}" for index in range(20)]
    for name in names:
        platform.metadata.create_dataset(
            "acme", name, "warehouse", "SELECT region FROM s")
        assert platform.metadata.dataset_rows("acme", name) == [
            {"region": "N"}]
        assert len(platform.metadata.artefacts._entries) <= 8
    # An evicted entry is read again, and answers as before.
    assert platform.metadata.dataset_rows("acme", names[0]) == [
        {"region": "N"}]
    assert len(platform.metadata.artefacts._entries) == 8


def test_deprovision_drops_the_tenants_entries(platform):
    for tenant in ("acme", "globex"):
        platform.metadata.create_dataset(
            tenant, "d", "warehouse", "SELECT region FROM s")
        platform.metadata.dataset_rows(tenant, "d")
    assert cached_tenants(platform) == {"acme", "globex"}
    platform.provisioning.deprovision("acme")
    assert cached_tenants(platform) == {"globex"}
