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
from repro.errors import ServiceError
from repro.mof.kernel import ModelExtent
from repro.mof.xmi import read_xmi, write_xmi
from repro.core.resources import TechnicalResourcesLayer
from repro.core.tenancy import TenantManager

_URL_PREFIX = "repro://"

_TABLES = (
    ("mds_datasources",
     "CREATE TABLE IF NOT EXISTS mds_datasources ("
     "tenant TEXT NOT NULL, name TEXT NOT NULL, "
     "url TEXT NOT NULL, username TEXT, password TEXT)"),
    ("mds_datasets",
     "CREATE TABLE IF NOT EXISTS mds_datasets ("
     "tenant TEXT NOT NULL, name TEXT NOT NULL, "
     "datasource TEXT NOT NULL, sql TEXT NOT NULL)"),
)


def ensure_tables(database: Database, tables) -> None:
    """Create each ``(name, ddl)`` table the database lacks.

    Asked of the catalog on every call (a dictionary lookup) rather
    than remembered per service: a database promoted by a failover, or
    recovered from disk, is checked like any other, and a call issues
    no statement once the tables exist.
    """
    for name, ddl in tables:
        if not database.catalog.has_table(name):
            database.execute(ddl)


class MetadataService:
    """Per-tenant data sources, data sets and business glossaries."""

    def __init__(self, tenants: TenantManager,
                 resources: TechnicalResourcesLayer):
        self.tenants = tenants
        self.resources = resources
        self._glossaries: Dict[str, ModelExtent] = {}
        self._metamodel = cwm_metamodel()

    def _db(self, tenant_id: str) -> Database:
        context = self.tenants.require_active(tenant_id)
        database = context.operational_db
        ensure_tables(database, _TABLES)
        return database

    # -- data sources -----------------------------------------------------------------

    def create_datasource(self, tenant_id: str, name: str, url: str,
                          username: Optional[str] = None,
                          password: Optional[str] = None) -> None:
        if not url.startswith(_URL_PREFIX):
            raise ServiceError(
                f"data source URLs must start with {_URL_PREFIX!r}, "
                f"got {url!r}")
        database = self._db(tenant_id)
        existing = database.query(
            "SELECT name FROM mds_datasources "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if existing:
            raise ServiceError(
                f"tenant {tenant_id!r} already has data source "
                f"{name!r}")
        database.execute(
            "INSERT INTO mds_datasources VALUES (?, ?, ?, ?, ?)",
            (tenant_id, name, url, username, password))

    def datasources(self, tenant_id: str) -> List[Dict[str, Any]]:
        database = self._db(tenant_id)
        return database.query(
            "SELECT name, url, username FROM mds_datasources "
            "WHERE tenant = ? ORDER BY name", (tenant_id,))

    def resolve_datasource(self, tenant_id: str,
                           name: str) -> Database:
        """The physical database behind a data source."""
        database = self._db(tenant_id)
        rows = database.query(
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
        database = self._db(tenant_id)
        existing = database.query(
            "SELECT name FROM mds_datasets "
            "WHERE tenant = ? AND name = ?", (tenant_id, name))
        if existing:
            raise ServiceError(
                f"tenant {tenant_id!r} already has data set {name!r}")
        database.execute(
            "INSERT INTO mds_datasets VALUES (?, ?, ?, ?)",
            (tenant_id, name, datasource, sql))

    def datasets(self, tenant_id: str) -> List[Dict[str, Any]]:
        database = self._db(tenant_id)
        return database.query(
            "SELECT name, datasource, sql FROM mds_datasets "
            "WHERE tenant = ? ORDER BY name", (tenant_id,))

    def dataset_rows(self, tenant_id: str, name: str,
                     params: tuple = ()) -> List[Dict[str, Any]]:
        """Execute a data set's SQL and return its rows."""
        database = self._db(tenant_id)
        rows = database.query(
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
