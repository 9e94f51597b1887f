"""Tests for the synthetic workload generators and cost models."""

import pytest

from repro.engine import Database
from repro.workloads import (
    HealthcareWorkload,
    OnPremisesCostModel,
    RetailWorkload,
    SaasCostModel,
    TenantWorkload,
    UsageProfile,
    crossover_month,
    cumulative_costs,
)
from repro.workloads.healthcare import DEPARTMENTS, SEVERITIES
from repro.workloads.tco import tco_summary


class TestHealthcareWorkload:
    def test_determinism_per_seed(self):
        first = HealthcareWorkload(seed=5).admissions(50)
        second = HealthcareWorkload(seed=5).admissions(50)
        assert first == second

    def test_different_seeds_differ(self):
        assert HealthcareWorkload(seed=1).admissions(50) != \
            HealthcareWorkload(seed=2).admissions(50)

    def test_values_in_domain(self):
        rows = HealthcareWorkload().admissions(200)
        assert {row["department"] for row in rows} <= set(DEPARTMENTS)
        assert {row["severity"] for row in rows} <= set(SEVERITIES)
        assert all(row["cost"] > 0 for row in rows)
        assert all(row["length_of_stay"] >= 1 for row in rows)

    def test_high_severity_costs_more_on_average(self):
        rows = HealthcareWorkload().admissions(1000)
        def mean_cost(severity):
            costs = [row["cost"] for row in rows
                     if row["severity"] == severity]
            return sum(costs) / len(costs)
        assert mean_cost("high") > mean_cost("medium") > mean_cost("low")

    def test_load_creates_and_fills_table(self):
        db = Database()
        count = HealthcareWorkload().load(db, count=120)
        assert count == 120
        assert db.query_value("SELECT COUNT(*) FROM admissions") == 120


class TestRetailWorkload:
    def test_build_star_schema(self):
        db = Database()
        counts = RetailWorkload().build(db, fact_rows=300)
        assert counts["fact_sales"] == 300
        assert counts["dim_product"] == 10
        assert db.query_value("SELECT COUNT(*) FROM dim_store") == 6

    def test_facts_join_cleanly_to_dimensions(self):
        db = Database()
        RetailWorkload().build(db, fact_rows=200)
        joined = db.query_value(
            "SELECT COUNT(*) FROM fact_sales f "
            "JOIN dim_time t ON f.time_key = t.time_key "
            "JOIN dim_product p ON f.product_key = p.product_key "
            "JOIN dim_store s ON f.store_key = s.store_key")
        assert joined == 200

    def test_cube_definition_validates_against_schema(self):
        from repro.olap import CubeSchema

        db = Database()
        workload = RetailWorkload()
        workload.build(db, fact_rows=50)
        schema = CubeSchema.from_definition(workload.cube_definition())
        assert schema.validate_against(db.catalog) == []


class TestTenantWorkload:
    def test_deterministic_population(self):
        assert TenantWorkload(seed=3).tenants(10) == \
            TenantWorkload(seed=3).tenants(10)

    def test_profiles_are_plausible(self):
        profiles = TenantWorkload().tenants(50)
        assert len({profile.name for profile in profiles}) == 50
        for profile in profiles:
            assert profile.user_count >= 2
            assert profile.monthly_queries >= profile.user_count

    def test_activity_events_scale_with_usage(self):
        workload = TenantWorkload()
        light, heavy = None, None
        for profile in workload.tenants(30):
            if profile.plan == "starter" and light is None:
                light = profile
            if profile.plan == "enterprise" and heavy is None:
                heavy = profile
        assert light is not None and heavy is not None
        assert len(workload.activity_events(heavy)) > \
            len(workload.activity_events(light))


class TestCostModels:
    def test_cumulative_costs(self):
        assert cumulative_costs([1.0, 2.0, 3.0]) == [1.0, 3.0, 6.0]

    def test_on_premises_front_loads_costs(self):
        model = OnPremisesCostModel()
        monthly = model.monthly_costs(UsageProfile(40), months=12)
        assert monthly[0] > 10 * monthly[1]

    def test_server_steps_with_user_growth(self):
        model = OnPremisesCostModel(users_per_server=50)
        assert model.servers_needed(50) == 1
        assert model.servers_needed(51) == 2

    def test_saas_costs_track_users(self):
        model = SaasCostModel()
        flat = model.monthly_costs(UsageProfile(10), months=6)
        growing = model.monthly_costs(
            UsageProfile(10, user_growth_per_year=1.0), months=6)
        assert flat[1:] == [flat[1]] * 5  # constant after onboarding
        assert growing[-1] > flat[-1]

    def test_saas_is_cheaper_for_typical_midsize_customer(self):
        summary = tco_summary(UsageProfile(40), months=36)
        assert summary["saas_cheaper"]
        assert summary["crossover_month"] == 0  # upfront license wall

    def test_very_large_static_fleet_can_favor_on_premises(self):
        # With thousands of users and no growth, subscriptions
        # eventually overtake a one-time licence.
        summary = tco_summary(
            UsageProfile(2000), months=120,
            saas=SaasCostModel(price_per_user_month=75.0),
            on_premises=OnPremisesCostModel(users_per_server=500))
        crossover = crossover_month(
            OnPremisesCostModel(users_per_server=500).monthly_costs(
                UsageProfile(2000), 120),
            SaasCostModel().monthly_costs(UsageProfile(2000), 120))
        assert summary["saas_cheaper"] is (crossover == 0)

    def test_crossover_none_when_on_prem_never_exceeds(self):
        cheap_op = [1.0] * 12
        pricey_saas = [100.0] * 12
        assert crossover_month(cheap_op, pricey_saas) is None
