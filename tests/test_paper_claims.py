"""The paper's qualitative claims, as checked tables (``-s`` prints them).

§2: one shared database serves every customer at far lower cost (E7);
subscription cost follows usage where licences follow servers (E8).
§3.2: one source model yields many consistent artefacts (E11).
"""

from repro import OdbisPlatform, TenancyMode
from repro.engine import Database
from repro.mda import (
    BusinessRequirement,
    CimModel,
    DimensionSpec,
    MeasureSpec,
    cim_to_pim,
    generate_code,
    pim_to_psm,
)
from repro.olap import CubeSchema
from repro.workloads import (
    OnPremisesCostModel,
    SaasCostModel,
    UsageProfile,
)
from repro.workloads.tco import tco_summary
from tests.test_paper_figures import show

# -- E7: multi-tenancy economies of scale ----------------------------------


#: The application table every tenant of the E7 fleet creates.
ORDERS_DDL = ("CREATE TABLE IF NOT EXISTS orders (tenant TEXT NOT NULL, "
              "id INTEGER NOT NULL, amount REAL)")


def fleet_footprint(mode, count):
    """(operational databases, tables in them and the platform's) once
    each tenant has created its application table through ``/sql``."""
    platform = OdbisPlatform(mode=mode)
    for index in range(count):
        tenant = f"t{index:03d}"
        platform.provisioning.provision(tenant, f"Tenant {index}")
        login = platform.web.request(
            "POST", "/login",
            body={"username": f"admin@{tenant}", "password": "changeme"})
        response = platform.web.request(
            "POST", f"/tenants/{tenant}/sql",
            headers={"X-Auth-Token": login.json()["token"]},
            body={"sql": ORDERS_DDL})
        assert response.status == 200, response.body
    distinct = {id(database): database for database in
                [platform.tenants.platform_db]
                + [platform.tenants.context(tenant).operational_db
                   for tenant in platform.tenants.tenant_ids()]}
    platform.gateway.shutdown()
    return platform.tenants.database_count(), sum(
        len(database.table_names()) for database in distinct.values())


def test_e7_shared_schema_footprint_stays_flat():
    rows = [(count,) + fleet_footprint(TenancyMode.SHARED, count)
            + fleet_footprint(TenancyMode.ISOLATED, count)
            for count in (1, 4, 16, 48)]
    show("E7: footprint, shared-schema vs database-per-tenant",
         ("tenants", "shared dbs", "shared tables",
          "isolated dbs", "isolated tables"), rows)
    for count, shared_dbs, shared_tables, isolated_dbs, \
            isolated_tables in rows:
        assert shared_dbs == 1
        assert isolated_dbs == count
        if count > 1:
            # Sharing amortizes the catalog; isolation duplicates it.
            assert shared_tables < isolated_tables


def test_e7_shared_schema_keeps_tenants_logically_separate():
    """The multi-tenant wall: shared physical store, private data."""
    platform = OdbisPlatform(mode=TenancyMode.SHARED)
    platform.provisioning.provision("a", "A")
    platform.provisioning.provision("b", "B")
    platform.metadata.create_dataset(
        "a", "private", "warehouse", "SELECT 1 AS one")
    assert "private" in [d["name"] for d in platform.metadata.datasets("a")]
    assert "private" not in [d["name"]
                             for d in platform.metadata.datasets("b")]


# -- E8: lower TCO, and cost that follows usage -----------------------------


def test_e8_saas_is_cheaper_over_36_months():
    rows = []
    for label, profile in (("small (10 users)", UsageProfile(10)),
                           ("mid (50 users)", UsageProfile(50)),
                           ("growing (50 +40%/yr)", UsageProfile(50, 0.4)),
                           ("large (400 users)", UsageProfile(400))):
        result = tco_summary(profile, months=36)
        rows.append((label, result["on_premises_total"],
                     result["saas_total"], result["saas_savings"],
                     result["crossover_month"]))
        # The paper's claim, for the customer profiles it targets.
        assert result["months"] == 36 and result["saas_cheaper"], label
    show("E8: 36-month cumulative cost",
         ("usage profile", "on-prem total", "SaaS total", "SaaS savings",
          "crossover month"), rows)


def test_e8_on_prem_step_costs_vs_saas_smooth_costs():
    """On-prem cost jumps at server boundaries; SaaS grows smoothly."""
    on_prem = OnPremisesCostModel(users_per_server=50)
    saas = SaasCostModel()
    just_below = sum(on_prem.monthly_costs(UsageProfile(50), 12))
    just_above = sum(on_prem.monthly_costs(UsageProfile(51), 12))
    saas_below = sum(saas.monthly_costs(UsageProfile(50), 12))
    saas_above = sum(saas.monthly_costs(UsageProfile(51), 12))
    # One extra user doubles the on-prem licence base…
    assert just_above > just_below * 1.5
    # …but moves the SaaS bill by roughly one seat.
    assert saas_above - saas_below < saas_below * 0.05


# -- E11: model-driven development reduces DW development complexity -------


def build_cim(subject_count):
    """``subject_count`` subject areas sharing one Time dimension."""
    shared_time = DimensionSpec("Time", ["year", "quarter", "month"],
                                is_time=True)
    return CimModel("grow", [
        BusinessRequirement(
            subject=f"Subject{index}",
            measures=[MeasureSpec(f"m{index}_a"),
                      MeasureSpec(f"m{index}_b", "avg")],
            dimensions=[shared_time,
                        DimensionSpec(f"Entity{index}", ["group", "unit"])])
        for index in range(subject_count)])


def test_e11_one_model_becomes_many_consistent_artefacts():
    """Leverage (generated DDL, columns, ETL skeletons and cubes per
    CIM input element), consistency (generated cubes validate against
    the deployed generated DDL) and conformed-dimension reuse."""
    rows = []
    for subjects in (1, 2, 4, 8):
        cim = build_cim(subjects)
        pim, _ = cim_to_pim(cim)
        psm, _ = pim_to_psm(pim, cim.technical)
        artifacts = generate_code(psm, pim)
        inputs = sum(1 + len(requirement.measures)
                     + sum(1 + len(dimension.levels)
                           for dimension in requirement.dimensions)
                     for requirement in cim.requirements)
        columns = sum(statement.count(",") + 1
                      for statement in artifacts.ddl
                      if statement.startswith("CREATE TABLE"))
        outputs = (len(artifacts.ddl) + columns + len(artifacts.etl_jobs)
                   + len(artifacts.cube_definitions))
        database = Database()
        for statement in artifacts.ddl:
            database.execute(statement)
        mismatches = [problem for definition in artifacts.cube_definitions
                      for problem in CubeSchema.from_definition(
                          definition).validate_against(database)]
        tables = [table.name for table in psm.tables()]
        rows.append((subjects, inputs, outputs, outputs / inputs,
                     len(tables), tables.count("dim_time"),
                     len(mismatches)))
    show("E11: what the model-driven chain generates",
         ("subject areas", "CIM input elements", "generated artefacts",
          "leverage", "PSM tables", "dim_time tables", "cube/DDL mismatches"),
         rows)
    for subjects, _inputs, outputs, leverage, tables, time_tables, \
            mismatches in rows:
        assert outputs > 0 and mismatches == 0
        # Leverage holds as the CIM grows (fact tables come to dominate).
        assert leverage >= 1.2
        # One shared Time dimension; a fact and an entity per subject.
        assert (time_tables, tables) == (1, 1 + 2 * subjects)
