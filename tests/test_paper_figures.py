"""The paper's Fig. 3-6, rebuilt and asserted (``-s`` prints them).

Fig. 1 (layer traces) and Fig. 2 (one MDDWS design run) are asserted in
``tests/test_core_mddws_platform.py``.  Nothing here reads a clock:
what a layer costs is ``bench/``'s to say.
"""

from repro import OdbisPlatform
from repro.core import Channel
from repro.cwm import RelationalBuilder, cwm_metamodel
from repro.engine import Database
from repro.mda import (
    BusinessRequirement,
    CimModel,
    DimensionSpec,
    MeasureSpec,
    TwoTrackProcess,
    cim_to_pim,
    generate_code,
    pim_to_psm,
)
from repro.mda.process import DISCIPLINES
from repro.mof import ModelExtent, write_xmi
from repro.orm import Entity, FieldSpec, Session, create_schema, entity
from repro.reporting import (
    Dashboard,
    DataTableSpec,
    RenderedTable,
    render_dashboard_text,
)
from repro.reporting.render import render_table_text
from repro.rules import Fact, RuleEngine, parse_rules
from repro.web import JsonResponse, WebApplication
from repro.workloads import HealthcareWorkload


def show(title, headers, rows):
    """Print one regenerated table with the platform's own renderer."""
    print("\n" + render_table_text(RenderedTable(
        DataTableSpec(title, list(headers)),
        [dict(zip(headers, row)) for row in rows])))


# -- Fig. 3: layer construction using MDA + 2TUP ---------------------------


def run_iteration(process, layer, component):
    """One 2TUP iteration whose realization branch hosts the MDA chain."""
    cim = CimModel(f"{layer}-{component}", [BusinessRequirement(
        subject=f"{layer}-{component}",
        measures=[MeasureSpec("amount")],
        dimensions=[DimensionSpec("Time", ["year", "month"], is_time=True),
                    DimensionSpec("Entity", ["group", "unit"])])])
    pim, _ = cim_to_pim(cim)
    psm, _ = pim_to_psm(pim, cim.technical)
    artifacts = generate_code(psm, pim)
    deliverables = {
        "business-requirements": cim, "analysis": cim,
        "technical-requirements": cim.technical,
        "preliminary-design": pim, "detailed-design": psm,
        "coding": artifacts,
        "code-completion": artifacts.completion_points}
    iteration = process.start_iteration(layer, component)
    for discipline in DISCIPLINES:
        iteration.complete(discipline.name,
                           deliverables.get(discipline.name))
    return artifacts


def test_fig3_disciplines_by_iterations_matrix():
    process = TwoTrackProcess("retail-dw",
                              ["staging", "warehouse", "datamart"])
    generated = [run_iteration(process, layer, component)
                 for layer, component in (
                     ("staging", "main"), ("warehouse", "sales"),
                     ("warehouse", "inventory"), ("datamart", "finance"))]
    matrix = process.discipline_matrix()
    show("Fig. 3: disciplines x iterations",
         ["discipline (branch)"] + [f"it{entry['iteration']}:{entry['layer']}"
                                    for entry in matrix],
         [[f"{discipline.name} ({discipline.branch})"]
          + ["x" if entry["disciplines"][discipline.name] else "."
             for entry in matrix]
          for discipline in DISCIPLINES])

    assert all(artifacts.artifact_count > 0 for artifacts in generated)
    assert process.is_complete
    # One iteration per component: the warehouse layer took two.
    assert len(process.iterations_for("warehouse")) == 2


# -- Fig. 4: the typical JEE application layering --------------------------


@entity(table="notes", fields=[
    FieldSpec("id", "INTEGER", primary_key=True, generated=True),
    FieldSpec("title", "TEXT", nullable=False),
])
class Note(Entity):
    """The domain-model entity of the Fig. 4 and Fig. 5 walkthroughs."""


class NoteService:
    """The services layer: transaction scripts over the ORM session."""

    def __init__(self, database):
        self.database = database
        self.calls = 0

    def create_note(self, title):
        self.calls += 1
        with Session(self.database) as session:
            return session.add(Note(title=title)).id

    def list_notes(self):
        self.calls += 1
        with Session(self.database) as session:
            return [{"id": note.id, "title": note.title}
                    for note in session.find(Note).order_by("id").list()]


def test_fig4_one_interaction_crosses_every_layer():
    database = Database("jee")
    create_schema(database, [Note])
    service = NoteService(database)
    app = WebApplication("jee-demo")
    app.post("/notes", lambda r: JsonResponse(
        {"id": service.create_note(r.body["title"])}, status=201))
    app.get("/notes", lambda r: JsonResponse(service.list_notes()))

    def statements(action):
        before = database.statistics["statements"]
        return action(), database.statistics["statements"] - before

    created, through_ui = statements(
        lambda: app.request("POST", "/notes", body={"title": "t"}))
    listed = app.request("GET", "/notes")
    _, through_service = statements(lambda: service.create_note("direct"))
    _, raw = statements(lambda: database.execute(
        "INSERT INTO notes (id, title) VALUES (3, 'raw')"))
    assert (created.status, listed.status) == (201, 200)
    assert app.requests_handled == 2                         # UI
    assert service.calls == 3                                # services
    assert listed.json() == [{"id": 1, "title": "t"}]        # domain model
    # Data access: the unit of work reads the key, then inserts; the
    # router above it adds no statement of its own.
    assert (through_ui, through_service, raw) == (2, 2, 1)
    assert database.query_value("SELECT COUNT(*) FROM notes") == 3  # data


# -- Fig. 5: the ODBIS technical architecture stack ------------------------


RULES = '''
rule "upgrade-heavy-tenant" salience 10
when
    usage: Usage(amount > 10000 and usage.flagged != True)
then
    modify(usage, flagged=True)
    insert(PlanChange(tenant=usage.tenant, to_plan="enterprise"))
end
'''


def test_fig5_every_stack_element_does_its_job():
    # PostgreSQL -> repro.engine; JPA+Hibernate -> repro.orm.
    database = Database("stack")
    create_schema(database, [Note])
    with Session(database) as session:
        session.add(Note(title="acme is on the team plan"))
    flushed = database.query_value("SELECT COUNT(*) FROM notes")

    # JMI/MDR + CWM -> repro.mof / repro.cwm.
    extent = ModelExtent(cwm_metamodel(), "stack-extent")
    relational = RelationalBuilder(extent)
    table = relational.table(relational.schema("dw"), "fact_usage")
    relational.column(table, "amount", "REAL")
    xmi = write_xmi(extent)

    # Drools -> repro.rules.
    engine = RuleEngine(parse_rules(RULES))
    engine.memory.insert(Fact("Usage", tenant="acme", amount=50_000))
    engine.run()
    changes = engine.memory.by_type("PlanChange")

    # JSF + Tomcat -> repro.web.
    app = WebApplication("stack")
    app.get("/plans/{tenant}", lambda r: JsonResponse(
        {"tenant": r.path_params["tenant"],
         "plan": changes[0]["to_plan"]}))
    response = app.request("GET", "/plans/acme")

    observed = [
        ("PostgreSQL (repro.engine)", database.table_names()),
        ("JPA+Hibernate (repro.orm)", f"flushed {flushed} entity row(s)"),
        ("JMI/MDR + CWM (repro.mof/cwm)",
         f"{len(extent)} model elements, fact_usage in XMI: "
         f"{'fact_usage' in xmi}"),
        ("Drools (repro.rules)",
         [change["to_plan"] for change in changes]),
        ("JSF+Tomcat (repro.web)", (response.status, response.json()))]
    show("Fig. 5: stack elements", ["paper element", "observed"], observed)
    assert [seen for _element, seen in observed] == [
        ["notes"], "flushed 1 entity row(s)",
        "3 model elements, fact_usage in XMI: True", ["enterprise"],
        (200, {"tenant": "acme", "plan": "enterprise"})]


# -- Fig. 6: the healthcare dashboard built with ad-hoc reporting ----------


def test_fig6_dashboard_shows_the_workload_structure():
    platform = OdbisPlatform()
    context = platform.provisioning.provision(
        "st-vincent", "St. Vincent Hospital", plan="team")
    HealthcareWorkload(seed=7).load(context.warehouse_db, count=2000)
    platform.metadata.create_dataset(
        "st-vincent", "by-department", "warehouse",
        "SELECT department, COUNT(*) AS admissions, "
        "SUM(cost) AS total_cost, AVG(length_of_stay) AS avg_stay "
        "FROM admissions GROUP BY department ORDER BY department")
    platform.metadata.create_dataset(
        "st-vincent", "by-severity", "warehouse",
        "SELECT severity, COUNT(*) AS admissions FROM admissions "
        "GROUP BY severity")
    by_department, by_severity = (
        platform.reporting.adhoc_builder("st-vincent", dataset)
        for dataset in ("by-department", "by-severity"))
    dashboard = Dashboard("healthcare-overview",
                          "Admissions and costs by department")
    dashboard.add_row(
        by_department.bar_chart("admissions-by-department",
                                "department", "admissions"),
        by_severity.pie_chart("admissions-by-severity",
                              "severity", "admissions"))
    dashboard.add_row(by_department.data_table(
        "department-detail",
        ["department", "admissions", "total_cost", "avg_stay"],
        sort_by="total_cost", descending=True))

    print("\n" + render_dashboard_text(dashboard) + "\n\n"
          + platform.delivery.deliver_dashboard(dashboard, Channel.MOBILE))

    assert len(dashboard) == 3

    def largest(chart):
        return max(dashboard.element(chart).series,
                   key=lambda pair: pair[1])[0]

    # The workload's built-in structure shows through the charts.
    assert largest("admissions-by-department") == "emergency"
    assert largest("admissions-by-severity") == "low"
