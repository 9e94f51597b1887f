"""MDS — the meta-data service.

"The meta-data service allows meta-data and business information
definition to facilitate information sharing and exchange between all
services.  DataSource objects provide a set of information (URL, User,
Password, etc.) used to connect to database servers.  DataSet objects
are a SQL query abstraction used by charts, data-tables and
dashboards" (paper §3.1/§3.3).

Data sources use ``repro://<database-name>`` URLs resolved through the
technical-resources layer.  Each tenant also gets a CWM business
glossary extent for its business vocabulary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis import SqlAnalyzer
from repro.cwm import BusinessBuilder, OdmBuilder, SemanticMatcher, cwm_metamodel
from repro.cwm.relational import reflect_physical_table
from repro.engine.database import Database
from repro.errors import ConstraintViolation, ServiceError
from repro.mof.kernel import ModelExtent
from repro.mof.xmi import read_xmi, write_xmi
from repro.core.resources import TechnicalResourcesLayer
from repro.core.tenancy import TenantManager

_URL_PREFIX = "repro://"

_TABLES = (
    "CREATE TABLE mds_datasources (tenant TEXT NOT NULL, "
    "name TEXT NOT NULL, url TEXT NOT NULL, username TEXT)",
    "CREATE UNIQUE INDEX mds_datasources_name "
    "ON mds_datasources (tenant, name)",
    "CREATE TABLE mds_datasets (tenant TEXT NOT NULL, "
    "name TEXT NOT NULL, datasource TEXT NOT NULL, sql TEXT NOT NULL)",
    "CREATE UNIQUE INDEX mds_datasets_name ON mds_datasets (tenant, name)",
)


def insert_artefact(database: Database, kind: str, table: str,
                    row: tuple) -> None:
    """Insert one ``(tenant, name, ...)`` row; the table's unique
    ``(tenant, name)`` index rejects a second artefact of that name."""
    marks = ", ".join("?" * len(row))
    try:
        database.execute(f"INSERT INTO {table} VALUES ({marks})", row)
    except ConstraintViolation as exc:
        raise ServiceError(f"tenant {row[0]!r} already has {kind} "
                           f"{row[1]!r}") from exc


class MetadataService:
    """Per-tenant data sources, data sets and business glossaries.

    Data sources and data sets are platform state: rows of the
    platform database, which tenant SQL cannot name.
    """

    def __init__(self, tenants: TenantManager,
                 resources: TechnicalResourcesLayer):
        self.tenants = tenants
        self.resources = resources
        self._glossaries: Dict[str, ModelExtent] = {}
        self._metamodel = cwm_metamodel()
        self.database = tenants.platform_db
        if "mds_datasources" not in self.database.table_names():
            with self.database.transaction():
                for ddl in _TABLES:
                    self.database.execute(ddl)

    # -- data sources -----------------------------------------------------------------

    def create_datasource(self, tenant_id: str, name: str, url: str,
                          username: Optional[str] = None) -> None:
        self.tenants.require_active(tenant_id)
        if not url.startswith(_URL_PREFIX):
            raise ServiceError(
                f"data source URLs must start with {_URL_PREFIX!r}, "
                f"got {url!r}")
        insert_artefact(self.database, "data source", "mds_datasources",
                        (tenant_id, name, url, username))

    def datasources(self, tenant_id: str) -> List[Dict[str, Any]]:
        self.tenants.require_active(tenant_id)
        return self.database.query(
            "SELECT name, url, username FROM mds_datasources "
            "WHERE tenant = ? ORDER BY name", (tenant_id,))

    def resolve_datasource(self, tenant_id: str,
                           name: str) -> Database:
        """The physical database behind a data source."""
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
            "SELECT url FROM mds_datasources "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if not rows:
            raise ServiceError(
                f"tenant {tenant_id!r} has no data source {name!r}")
        target = rows[0]["url"][len(_URL_PREFIX):]
        return self.resources.database(tenant_id, target)

    # -- data sets ---------------------------------------------------------------------

    def create_dataset(self, tenant_id: str, name: str,
                       datasource: str, sql: str) -> None:
        target = self.resolve_datasource(tenant_id, datasource)
        collector = SqlAnalyzer.for_database(target).analyze(
            sql, source=name)
        collector.raise_if_errors(
            ServiceError, prefix=f"data set {name!r} rejected")
        insert_artefact(self.database, "data set", "mds_datasets",
                        (tenant_id, name, datasource, sql))

    def datasets(self, tenant_id: str) -> List[Dict[str, Any]]:
        self.tenants.require_active(tenant_id)
        return self.database.query(
            "SELECT name, datasource, sql FROM mds_datasets "
            "WHERE tenant = ? ORDER BY name", (tenant_id,))

    def dataset_rows(self, tenant_id: str, name: str,
                     params: tuple = ()) -> List[Dict[str, Any]]:
        """Execute a data set's SQL and return its rows."""
        self.tenants.require_active(tenant_id)
        rows = self.database.query(
            "SELECT datasource, sql FROM mds_datasets "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if not rows:
            raise ServiceError(
                f"tenant {tenant_id!r} has no data set {name!r}")
        target = self.resolve_datasource(
            tenant_id, rows[0]["datasource"])
        return target.query(rows[0]["sql"], params)

    # -- business glossary ----------------------------------------------------------------

    def glossary(self, tenant_id: str) -> BusinessBuilder:
        """The tenant's business-nomenclature builder (CWM extent)."""
        self.tenants.require_active(tenant_id)
        extent = self._glossaries.get(tenant_id)
        if extent is None:
            extent = ModelExtent(
                self._metamodel, f"glossary-{tenant_id}")
            self._glossaries[tenant_id] = extent
        return BusinessBuilder(extent)

    def ontology(self, tenant_id: str) -> OdmBuilder:
        """The tenant's ODM ontology builder (same extent as glossary).

        The paper plans ODM "to solve the semantic schemas integration"
        — concepts defined here drive suggest_column_mapping().
        """
        return OdmBuilder(self.glossary(tenant_id).extent)

    def suggest_column_mapping(self, tenant_id: str,
                               source_datasource: str,
                               source_table: str,
                               target_datasource: str,
                               target_table: str):
        """Semantic column-mapping proposals between two live tables.

        Both tables are reverse-engineered into CWM and matched using
        the tenant's ontology (names, synonyms, equivalences).
        Returns a list of :class:`repro.cwm.odm.ColumnMatch`.
        """
        odm = self.ontology(tenant_id)
        source_db = self.resolve_datasource(tenant_id,
                                            source_datasource)
        target_db = self.resolve_datasource(tenant_id,
                                            target_datasource)
        scratch = ModelExtent(self._metamodel,
                              f"mapping-{tenant_id}")
        source = reflect_physical_table(scratch, source_db,
                                        source_table)
        target = reflect_physical_table(scratch, target_db,
                                        target_table)
        return SemanticMatcher(odm).match_tables(source, target)

    def export_glossary_xmi(self, tenant_id: str) -> str:
        """Serialize the tenant's glossary/ontology extent to XMI.

        The paper: "JMI allows also metamodel and metadata interchange
        via XML by using the industry standard XMI specification."
        """
        return write_xmi(self.glossary(tenant_id).extent)

    def import_glossary_xmi(self, tenant_id: str,
                            document: str) -> int:
        """Replace the tenant's glossary extent from an XMI document.

        Returns the number of imported model elements.
        """
        self.tenants.require_active(tenant_id)
        extent = read_xmi(document, self._metamodel)
        self._glossaries[tenant_id] = extent
        return len(extent)

    def glossary_terms(self, tenant_id: str) -> List[str]:
        extent = self._glossaries.get(tenant_id)
        if extent is None:
            return []
        return sorted(element.name
                      for element in extent.instances_of("Term"))
