"""AS — the analysis service.

"The analysis service allows definition of analysis data models (OLAP
data cube), data cube visualization and navigation" (paper §3.1).
Cubes are defined per tenant over the tenant's warehouse star schema;
queries run through the OLAP engine or through MDX-lite, and
navigation state is served per user session.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import lint_cube_schema
from repro.core.resources import TechnicalResourcesLayer
from repro.core.subscription import BillingService
from repro.core.tenancy import TenantManager
from repro.errors import ServiceError
from repro.olap import (
    CellSet,
    CubeNavigator,
    CubeSchema,
    OlapEngine,
    parse_mdx,
)


class AnalysisService:
    """Per-tenant cube registry and query execution."""

    def __init__(self, tenants: TenantManager,
                 resources: TechnicalResourcesLayer,
                 billing: Optional[BillingService] = None):
        self.tenants = tenants
        self.resources = resources
        self.billing = billing
        self._engines: Dict[Tuple[str, str], OlapEngine] = {}

    # -- cube management ---------------------------------------------------------------

    def define_cube(self, tenant_id: str,
                    definition: Dict[str, Any],
                    database: str = "warehouse") -> CubeSchema:
        """Register a cube from a definition dict (e.g. MDA codegen).

        The cube is statically checked against the target database's
        catalog and rejected when its fact table, measure columns,
        dimension tables, keys or level columns do not resolve.
        """
        self.tenants.require_active(tenant_id)
        schema = CubeSchema.from_definition(definition) \
            if isinstance(definition, dict) else definition
        key = (tenant_id, schema.name)
        if key in self._engines:
            raise ServiceError(
                f"tenant {tenant_id!r} already has cube "
                f"{schema.name!r}")
        target = self.resources.database(tenant_id, database)
        collector = lint_cube_schema(schema, target.catalog,
                                     source=schema.name)
        collector.raise_if_errors(
            ServiceError, prefix=f"cube {schema.name!r} rejected")
        self._engines[key] = OlapEngine(target, schema)
        self.resources.publish_event(
            tenant_id, "cube-defined", schema.name)
        return schema

    def cubes(self, tenant_id: str) -> List[str]:
        return sorted(name for (tenant, name) in self._engines
                      if tenant == tenant_id)

    def engine(self, tenant_id: str, cube: str) -> OlapEngine:
        engine = self._engines.get((tenant_id, cube))
        if engine is None:
            raise ServiceError(
                f"tenant {tenant_id!r} has no cube {cube!r}")
        return engine

    def invalidate_cube(self, tenant_id: str, cube: str) -> None:
        """Does nothing: a load is visible to the next query unasked."""
        # Cube results are engine results, proven fresh from commit
        # stamps at read time, so there is nothing to drop.  The frozen
        # benchmark (bench/workloads.py) still calls this after every
        # refresh; the next ``benchmark`` issue drops that call and
        # this method together.

    # -- querying ---------------------------------------------------------------------

    def query(self, tenant_id: str, cube: str,
              measures: List[str],
              axes: List[Tuple[str, str]] = (),
              slicers: List[Tuple[str, str, Any]] = ()) -> CellSet:
        engine = self.engine(tenant_id, cube)
        result = engine.query(measures, axes, slicers)
        if self.billing is not None:
            self.billing.meter(tenant_id, "query", 1)
        return result

    def execute_mdx(self, tenant_id: str, statement: str) -> CellSet:
        """Parse and run an MDX-lite statement against a tenant cube."""
        query = parse_mdx(statement)
        engine = self.engine(tenant_id, query.cube)
        result = query.execute(engine)
        if self.billing is not None:
            self.billing.meter(tenant_id, "query", 1)
        return result

    def navigator(self, tenant_id: str, cube: str,
                  measures: Optional[List[str]] = None) \
            -> CubeNavigator:
        """A fresh navigation session over a tenant cube."""
        return CubeNavigator(self.engine(tenant_id, cube), measures)

    def members(self, tenant_id: str, cube: str, dimension: str,
                level: str) -> List[Any]:
        return self.engine(tenant_id, cube).members(dimension, level)
