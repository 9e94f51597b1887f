"""The paper's Fig. 6: a healthcare dashboard via ad-hoc reporting.

Builds the hospital-admissions warehouse, defines data sets through
the meta-data service, publishes a dashboard definition over them
with the ad-hoc reporting module, and renders it for the terminal
and as HTML.

Run with::

    python examples/healthcare_dashboard.py [output.html]
"""

import sys

from repro import OdbisPlatform
from repro.core import Channel
from repro.reporting import DashboardDefinition
from repro.workloads import HealthcareWorkload


def main() -> None:
    platform = OdbisPlatform()
    context = platform.provisioning.provision(
        "st-vincent", "St. Vincent Hospital", plan="team")

    # Load a year of synthetic admissions into the tenant warehouse.
    workload = HealthcareWorkload(seed=7)
    count = workload.load(context.warehouse_db, count=2500)
    print(f"loaded {count} admissions")

    # Meta-data service: the data sets behind each dashboard widget.
    platform.metadata.create_dataset(
        "st-vincent", "by-department", "warehouse",
        "SELECT department, COUNT(*) AS admissions, "
        "SUM(cost) AS total_cost, AVG(length_of_stay) AS avg_stay "
        "FROM admissions GROUP BY department ORDER BY department")
    platform.metadata.create_dataset(
        "st-vincent", "by-severity", "warehouse",
        "SELECT severity, COUNT(*) AS admissions FROM admissions "
        "GROUP BY severity")
    platform.metadata.create_dataset(
        "st-vincent", "costly-departments", "warehouse",
        "SELECT department, region, SUM(cost) AS cost "
        "FROM admissions GROUP BY department, region")

    # Ad-hoc reporting: charts + data table, laid out in rows and
    # published; each delivery re-renders it from the live data sets.
    definition = DashboardDefinition(
        "healthcare-overview",
        "Admissions, costs and stays across departments")
    definition.add_row(
        definition.chart("by-department", "admissions-by-department",
                         "bar", "department", "admissions"),
        definition.chart("by-severity", "admissions-by-severity",
                         "pie", "severity", "admissions"),
    )
    definition.add_row(
        definition.chart("by-department", "avg-stay-by-department",
                         "line", "department", "avg_stay"),
        definition.table("costly-departments", "top-cost-centres",
                         ["department", "region", "cost"],
                         sort_by="cost", descending=True, limit=8),
    )
    platform.reporting.define_dashboard("st-vincent", definition)
    dashboard = platform.reporting.render_dashboard(
        "st-vincent", "healthcare-overview")

    # Deliver to the terminal (mobile channel) and print in full.
    print()
    print(platform.delivery.deliver_dashboard(dashboard,
                                              Channel.MOBILE))
    print()
    from repro.reporting import render_dashboard_text
    print(render_dashboard_text(dashboard))

    # And to a browser (web channel) when an output path is given.
    if len(sys.argv) > 1:
        html = platform.delivery.deliver_dashboard(dashboard,
                                                   Channel.WEB)
        with open(sys.argv[1], "w") as handle:
            handle.write(html)
        print(f"\nwrote {sys.argv[1]}")


if __name__ == "__main__":
    main()
