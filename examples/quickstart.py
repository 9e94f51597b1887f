"""Quickstart: provision a tenant and tour every ODBIS service.

Run with::

    python examples/quickstart.py
"""

from repro import OdbisPlatform
from repro.workloads import RetailWorkload


def main() -> None:
    # 1. Stand up the platform and on-board a customer.
    platform = OdbisPlatform()
    context = platform.provisioning.provision(
        "acme", "Acme Corp", plan="team")
    print(f"provisioned tenant {context.tenant_id!r} "
          f"on plan {context.plan!r}")

    # 2. Populate the tenant's warehouse (stand-in for a real DW load).
    workload = RetailWorkload(seed=11)
    counts = workload.build(context.warehouse_db, fact_rows=2000)
    print(f"warehouse loaded: {counts}")

    # 3. Meta-data service: declare a reusable data set.
    platform.metadata.create_dataset(
        "acme", "revenue-by-region", "warehouse",
        "SELECT s.region AS region, SUM(f.revenue) AS revenue "
        "FROM fact_sales f "
        "JOIN dim_store s ON f.store_key = s.store_key "
        "GROUP BY s.region ORDER BY s.region")

    # 4. Analysis service: define the cube and run an MDX query.
    platform.analysis.define_cube("acme", workload.cube_definition())
    cells = platform.analysis.execute_mdx(
        "acme",
        "SELECT {[Measures].[revenue], [Measures].[quantity]} "
        "ON COLUMNS, {[Product].[category].Members} ON ROWS "
        "FROM [RetailSales]")
    print("\nrevenue by product category (MDX):")
    for row in cells.rows:
        print(f"  {row['Product.category']:<12} "
              f"{row['revenue']:>12,.2f}  qty {row['quantity']}")

    # 5. Reporting service: publish a dashboard over the data set.
    from repro.reporting import DashboardDefinition

    definition = DashboardDefinition("regional-overview",
                                     "Revenue per region")
    definition.add_row(definition.chart(
        "revenue-by-region", "revenue", "bar", "region", "revenue"))
    platform.reporting.define_dashboard("acme", definition)

    # 6. Information delivery: re-render from live data and deliver.
    from repro.core import Channel

    dashboard = platform.reporting.render_dashboard(
        "acme", "regional-overview")
    print("\n" + platform.delivery.deliver_dashboard(
        dashboard, Channel.MOBILE))

    # 7. The web API: what a browser client actually calls.
    login = platform.web.request(
        "POST", "/login",
        body={"username": "admin@acme", "password": "changeme"})
    headers = {"X-Auth-Token": login.json()["token"]}
    cubes = platform.web.request(
        "GET", "/tenants/acme/cubes", headers=headers)
    print(f"\nGET /tenants/acme/cubes -> {cubes.json()}")
    print(f"layer trace: {platform.last_trace}")

    # 8. Pay-as-you-go: the invoice reflects exactly what we used.
    invoice = platform.billing.invoice("acme", "team")
    print(f"\ninvoice for 'acme' ({invoice.plan} plan): "
          f"{invoice.total:,.2f} "
          f"(base {invoice.base_fee:,.2f} + metered overage)")
    for line in invoice.lines:
        print(f"  {line.kind:<10} used={line.used} "
              f"included={line.included} overage={line.amount:.2f}")


if __name__ == "__main__":
    main()
