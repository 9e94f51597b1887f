"""Artifact validation wired into the platform services.

Every analyzer error class must cause provisioning to reject the
artifact, and every service gate rejects what its linter rejects.
"""

import pytest

from repro.core import OdbisPlatform
from repro.cwm import TransformationBuilder, cwm_metamodel
from repro.errors import ProvisioningError, ServiceError
from repro.mof import ModelExtent
from repro.reporting import DashboardDefinition


@pytest.fixture
def platform():
    platform = OdbisPlatform()
    platform.provisioning.provision("acme", "Acme Corp", plan="team")
    context = platform.tenants.context("acme")
    context.warehouse_db.execute(
        "CREATE TABLE sales (id INTEGER NOT NULL, region TEXT, "
        "region_id INTEGER, amount REAL, quantity INTEGER, "
        "sold_on DATE)")
    context.warehouse_db.execute(
        "CREATE TABLE dim_region (region_id INTEGER, region TEXT, "
        "country TEXT)")
    return platform


def register(platform, kind, payload, **kwargs):
    return platform.provisioning.register_artifact(
        "acme", kind, payload, **kwargs)


REJECTED_SQL = {
    "unknown-table": "SELECT * FROM ghosts",
    "unknown-column": "SELECT colour FROM sales",
    "ambiguous-column":
        "SELECT region FROM sales "
        "JOIN dim_region ON sales.id = dim_region.region_id",
    "type-mismatched-comparison":
        "SELECT id FROM sales WHERE region = 5",
    "aggregate-in-where":
        "SELECT id FROM sales WHERE SUM(amount) > 10",
    "insert-arity":
        "INSERT INTO sales VALUES (1, 'east')",
}


class TestSqlArtifacts:
    @pytest.mark.parametrize("label", sorted(REJECTED_SQL))
    def test_each_sql_error_class_is_rejected(self, platform, label):
        with pytest.raises(ProvisioningError):
            register(platform, "sql", REJECTED_SQL[label])

    def test_clean_sql_is_accepted(self, platform):
        collector = register(
            platform, "sql",
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region", name="totals.sql")
        assert not collector.has_errors()
        assert platform.provisioning.artifact_log[-1]["name"] == \
            "totals.sql"

    def test_unknown_kind_is_rejected(self, platform):
        with pytest.raises(ProvisioningError, match="artifact kind"):
            register(platform, "spreadsheet", "A1=B2")


class TestModelArtifacts:
    def test_dangling_reference_is_rejected(self, platform):
        extent = ModelExtent(cwm_metamodel(), "broken")
        other = ModelExtent(cwm_metamodel(), "elsewhere")
        TransformationBuilder(extent).transformation(
            "load", sources=[other.create("Package", name="alien")])
        with pytest.raises(ProvisioningError, match="ODB201"):
            register(platform, "model", extent)

    def test_transformation_cycle_is_rejected(self, platform):
        extent = ModelExtent(cwm_metamodel(), "cyclic")
        builder = TransformationBuilder(extent)
        activity = builder.activity("nightly")
        task = builder.task("load")
        first = builder.step(activity, "s1", task)
        second = builder.step(activity, "s2", task, after=[first])
        first.link("precedence", second)
        with pytest.raises(ProvisioningError, match="ODB203"):
            register(platform, "model", extent)

    def test_clean_model_is_accepted(self, platform):
        extent = ModelExtent(cwm_metamodel(), "clean")
        builder = TransformationBuilder(extent)
        activity = builder.activity("nightly")
        builder.step(activity, "extract", builder.task("load"))
        collector = register(platform, "model", extent)
        assert not collector.has_errors()


class TestRuleArtifacts:
    def test_unbound_variable_is_rejected(self, platform):
        text = ('rule "r"\nwhen\n    u: Usage()\nthen\n'
                '    retract(ghost)\nend')
        with pytest.raises(ProvisioningError, match="ODB301"):
            register(platform, "rules", text)

    def test_clean_rules_are_accepted(self, platform):
        text = ('rule "r"\nwhen\n    u: Usage(amount > 10)\nthen\n'
                '    retract(u)\nend')
        collector = register(platform, "rules", text)
        assert not collector.has_errors()


class TestCubeArtifacts:
    def test_unresolved_cube_is_rejected(self, platform):
        definition = {
            "name": "sales",
            "fact_table": "fact_ghost",
            "measures": [{"name": "revenue", "column": "amount",
                          "aggregator": "sum"}],
            "dimensions": [{"name": "region", "table": "dim_region",
                            "key": "region_id",
                            "levels": ["country"]}],
        }
        with pytest.raises(ProvisioningError, match="ODB204"):
            register(platform, "cube", definition)


class TestDashboardArtifacts:
    def make_dataset(self, platform):
        platform.metadata.create_dataset(
            "acme", "totals", "warehouse",
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region")

    def test_missing_column_is_rejected(self, platform):
        self.make_dataset(platform)
        definition = DashboardDefinition("revenue")
        definition.add_row(definition.chart(
            "totals", "by-region", "bar", "region", "profit"))
        with pytest.raises(ProvisioningError, match="ODB402"):
            register(platform, "dashboard", definition)

    def test_valid_dashboard_is_accepted(self, platform):
        self.make_dataset(platform)
        definition = DashboardDefinition("revenue")
        definition.add_row(definition.chart(
            "totals", "by-region", "bar", "region", "total"))
        collector = register(platform, "dashboard", definition)
        assert not collector.has_errors()


class TestServiceGates:
    def test_dataset_sql_is_validated(self, platform):
        with pytest.raises(ServiceError, match="ODB102"):
            platform.metadata.create_dataset(
                "acme", "bad", "warehouse",
                "SELECT colour FROM sales")

    def test_parameterized_dataset_sql_is_accepted(self, platform):
        platform.metadata.create_dataset(
            "acme", "by-region", "warehouse",
            "SELECT id FROM sales WHERE region = ?")

    def test_dashboard_columns_validated_at_definition(self, platform):
        platform.metadata.create_dataset(
            "acme", "totals", "warehouse",
            "SELECT region, SUM(amount) AS total FROM sales "
            "GROUP BY region")
        definition = DashboardDefinition("revenue")
        definition.add_row(definition.chart(
            "totals", "by-region", "bar", "region", "profit"))
        with pytest.raises(ServiceError, match="ODB402"):
            platform.reporting.define_dashboard("acme", definition)
        assert platform.reporting.dashboards("acme") == []

    def test_cube_validated_at_definition(self, platform):
        definition = {
            "name": "sales",
            "fact_table": "sales",
            "measures": [{"name": "revenue", "column": "profit",
                          "aggregator": "sum"}],
            "dimensions": [{"name": "region", "table": "dim_region",
                            "key": "region_id",
                            "levels": ["country"]}],
        }
        with pytest.raises(ServiceError, match="ODB204"):
            platform.analysis.define_cube("acme", definition)
        definition["measures"][0]["column"] = "amount"
        platform.analysis.define_cube("acme", definition)
        assert platform.analysis.cubes("acme") == ["sales"]
