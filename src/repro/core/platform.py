"""ODBIS platform assembly: the five-layer SaaS architecture (Fig. 1).

:class:`OdbisPlatform` wires the technical-resources layer, the DW
design & management layer (MDDWS), the administration & configuration
layer, the five core BI services and the end-user access layer (a web
application with an authentication filter and a tenant wall) into one
object.  Each handled request records which layers it traversed — the
observable artefact experiments E1 and E4 regenerate.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.admin_service import AdminService
from repro.core.analysis_service import AnalysisService
from repro.core.delivery_service import Channel, InformationDeliveryService
from repro.core.gateway import RequestGateway
from repro.core.integration_service import IntegrationService
from repro.core.mddws import MddwsService
from repro.core.metadata_service import MetadataService
from repro.core.overload import (
    QOS_BATCH,
    OverloadController,
    read_only_statement,
)
from repro.core.provisioning import ProvisioningService
from repro.core.reporting_service import ReportingService
from repro.core.resilience import (
    Clock,
    FaultInjector,
    HealthReport,
    MonotonicClock,
)
from repro.core.resources import TechnicalResourcesLayer
from repro.core.sharding import ShardMap
from repro.core.subscription import BillingService
from repro.core.supervision import ShardSupervisor
from repro.core.tenancy import TenancyMode, TenantManager
from repro.engine.database import Database
from repro.errors import HttpError, ReproError
from repro.security import AccessDecisionManager
from repro.web import JsonResponse, Request, Response, WebApplication

#: The five layers of Fig. 1, outermost first.
LAYERS = (
    "end-user-access",
    "core-bi-services",
    "administration",
    "design-management",
    "technical-resources",
)

_PUBLIC_PATHS = ("/ping", "/login")


class OdbisPlatform:
    """The assembled on-demand BI platform.

    ``data_dir`` switches the platform into *durable* mode: every
    database — the platform's own and each tenant's — lives under
    ``data_dir/tenants/`` as a snapshot + write-ahead log pair
    (created via :meth:`~repro.engine.database.Database.recover`, so
    constructing the platform over an existing directory IS crash
    recovery).  Platform state (the tenant registry, the ETL run
    history, scheduler posture and clock, the ESB dead letters) is
    tables in the platform database, and the tenants its registry
    holds are re-provisioned at construction.  ``fsync`` is the WAL
    policy for every log (``always`` / ``batch`` / ``off``).

    ``shards > 0`` additionally shards tenant *operational* data
    across that many engine instances under ``data_dir/shards/``
    (consistent-hash placement — see :mod:`repro.core.sharding`), each
    with ``replicas_per_shard`` WAL-shipped read replicas.  Read-only
    SQL submitted to ``POST /tenants/{tenant}/sql`` is served from a
    replica whenever one is within ``staleness_budget`` commit
    numbers of its primary; writes always hit the shard primary.
    Sharding requires a ``data_dir`` — replication ships the
    primaries' on-disk logs.
    """

    def __init__(self, mode: TenancyMode = TenancyMode.SHARED,
                 faults: Optional[FaultInjector] = None,
                 clock: Optional[Clock] = None,
                 deadline_seconds: Optional[float] = None,
                 bulkhead_capacity: Optional[int] = None,
                 data_dir: Optional[Union[str, Path]] = None,
                 fsync: str = "always",
                 shards: int = 0,
                 replicas_per_shard: int = 1,
                 staleness_budget: int = 0,
                 supervision: Optional[Dict[str, Any]] = None,
                 overload: Union[bool, Dict[str, Any], None] = None):
        # Cross-cutting: the resilience kernel's shared pieces.  One
        # injector serves every instrumented site so a chaos run has a
        # single deterministic fault history.
        self.faults = faults or FaultInjector()
        self.clock = clock or MonotonicClock()
        # Overload control: ``overload=True`` enables the adaptive
        # admission kernel with defaults; a dict passes knobs through
        # to :class:`OverloadController` (queue_capacity,
        # initial_limit, retry_budget_capacity, ...).  None/False
        # keeps the legacy static admission.
        self.overload: Optional[OverloadController] = None
        if overload:
            kwargs = dict(overload) if isinstance(overload, dict) \
                else {}
            self.overload = OverloadController(clock=self.clock,
                                               **kwargs)
        # Durability: data directory and database factory.
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.fsync = fsync
        database_factory = None
        if self.data_dir is not None:
            tenants_dir = self.data_dir / "tenants"
            tenants_dir.mkdir(parents=True, exist_ok=True)

            def database_factory(name: str) -> Database:
                return Database.recover(tenants_dir, name,
                                        fsync=fsync,
                                        faults=self.faults)

        # Horizontal capacity: the consistent-hash shard map placing
        # tenant operational data across engine instances, each with
        # WAL-shipped read replicas.
        self.shards: Optional[ShardMap] = None
        operational_router = None
        if shards > 0:
            if self.data_dir is None:
                raise ReproError(
                    "sharding requires a data_dir: replicas ship "
                    "the primaries' on-disk write-ahead logs")
            self.shards = ShardMap(
                self.data_dir / "shards", shards=shards,
                replicas=replicas_per_shard, fsync=fsync,
                clock=self.clock, faults=self.faults,
                staleness_budget=staleness_budget)
            operational_router = self.shards.primary_for
        # Supervision: the layer that notices a sick shard primary,
        # fails it over (re-pointing tenant contexts via
        # self.failover) and audits replicas for silent divergence.
        # Passive until driven — call supervisor.tick()/run() from a
        # scheduler or a chaos loop; kwargs come through the
        # ``supervision`` dict (probe cadence, damping, pump mode).
        self.supervisor: Optional[ShardSupervisor] = None
        if self.shards is not None:
            self.supervisor = ShardSupervisor(
                self.shards, clock=self.clock, faults=self.faults,
                failover=self.failover, **(supervision or {}))
        # Tenancy: the registry and the platform database.
        self.tenants = TenantManager(
            mode, database_factory=database_factory,
            operational_router=operational_router)
        # Layer 5: technical resources.
        self.resources = TechnicalResourcesLayer(
            faults=self.faults, clock=self.clock)
        self.resources.keep_dead_letters(self.tenants.platform_db)
        # Layer 3: administration and configuration.
        self.billing = BillingService(self.tenants.platform_db)
        self.billing.clock = self.clock
        self.admin = AdminService(self.tenants, self.billing)
        # Layer 4: core BI services.
        self.metadata = MetadataService(self.tenants, self.resources)
        self.integration = IntegrationService(
            self.tenants, self.resources, self.billing)
        self.analysis = AnalysisService(
            self.tenants, self.resources, self.billing)
        self.reporting = ReportingService(
            self.tenants, self.metadata, self.billing)
        self.delivery = InformationDeliveryService()
        # Layer 2: DW design and management.
        self.mddws = MddwsService(
            self.tenants, self.resources, self.analysis)
        # Cross-cutting: provisioning.
        self.provisioning = ProvisioningService(
            self.tenants, self.resources, self.billing,
            self.admin, self.metadata)
        # Layer 1: end-user access (web), fronted by the concurrent
        # request gateway.  Layer traces are per-thread so overlapping
        # requests do not clobber each other's traversal record.
        self.web = WebApplication("odbis")
        self.gateway = RequestGateway(
            self.web, self.tenants, clock=self.clock,
            faults=self.faults, deadline_seconds=deadline_seconds,
            bulkhead_capacity=bulkhead_capacity,
            overload=self.overload)
        # Under brownout, ETL ticks are batch-class work: the
        # scheduler defers due jobs instead of running them while the
        # ladder sheds batch, and retries them on a later tick.
        if self.overload is not None:
            controller = self.overload
            self.integration.scheduler.admission = \
                lambda owner: not controller.brownout.sheds(QOS_BATCH)
        self._trace_local = threading.local()
        self.last_trace = []
        self._install_middleware()
        self._install_routes()
        # Re-provision the tenants a recovered registry holds — after
        # every service is wired, so recovery runs through the same
        # provisioning path as the original registrations did.
        for row in self.tenants.platform_db.query(
                "SELECT tenant, display_name, plan, active "
                "FROM platform_tenants"):
            self.provisioning.provision(
                row["tenant"], row["display_name"], plan=row["plan"],
                exist_ok=True)
            if not row["active"]:
                self.tenants.deactivate(row["tenant"])

    @property
    def last_trace(self) -> List[str]:
        """The layer-traversal trace of this thread's last request."""
        trace = getattr(self._trace_local, "trace", None)
        if trace is None:
            trace = []
            self._trace_local.trace = trace
        return trace

    @last_trace.setter
    def last_trace(self, value: List[str]) -> None:
        self._trace_local.trace = value

    # -- durability ---------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, int]:
        """Snapshot every durable database and truncate its WAL.

        Returns ``{database name: checkpoint ordinal}``.  Requires a
        ``data_dir`` platform; recovery after a checkpoint loads the
        fresh snapshots and replays only what came after.  Metered
        usage not yet written is written first, so the snapshot holds
        it.
        """
        if self.data_dir is None:
            raise ReproError(
                "checkpoint requires a platform with a data_dir")
        self.billing.flush()
        ordinals: Dict[str, int] = {}
        for database in self._durable_databases():
            ordinals[database.name] = database.checkpoint()
        return ordinals

    def close(self) -> None:
        """Drain traffic, then flush and close every WAL.

        Ordering is the shutdown contract: the gateway is drained
        *permanently* first, so every accepted in-flight request either
        commits (and its WAL frames are flushed below) or was rejected
        with :class:`~repro.errors.GatewayShutdownError` at submit —
        no worker can reach a database whose log is already closed,
        and no accepted write is ever silently lost — metered usage
        included, which is written before the logs close.
        """
        self.gateway.shutdown(permanent=True)
        self.billing.flush()
        for database in self._durable_databases():
            database.close()
        if self.shards is not None:
            self.shards.close()

    def failover(self, shard_id: str) -> Dict[str, Any]:
        """Fence a shard's primary and promote a caught-up replica.

        Delegates the fence/trip/catch-up/promote sequence to the
        shard map, then re-points every tenant context that held the
        old primary at the promoted engine — under the registry lock,
        so no request routes to the fenced database afterwards.
        """
        if self.shards is None:
            raise ReproError("platform has no shard map")
        shard = self.shards.shard(shard_id)
        old_primary = shard.primary
        promoted = self.shards.failover(shard_id)
        moved = self.tenants.repoint_operational(
            old_primary, shard.primary)
        return {"shard": shard_id, "promoted": promoted,
                "tenants_moved": moved}

    def _durable_databases(self) -> List[Database]:
        """Distinct databases carrying a WAL, platform db included."""
        seen: Dict[int, Database] = {}
        candidates = [self.tenants.platform_db]
        if self.shards is not None:
            candidates.extend(shard.primary
                              for shard in self.shards.all_shards())
        for tenant_id in self.tenants.tenant_ids():
            context = self.tenants.context(tenant_id)
            candidates.extend(
                [context.operational_db, context.warehouse_db])
        for database in candidates:
            if database.wal is not None:
                seen.setdefault(id(database), database)
        return list(seen.values())

    # -- access layer wiring ---------------------------------------------------------

    def _install_middleware(self) -> None:
        def trace_layer(request: Request, next_handler):
            self.last_trace = ["end-user-access"]
            return next_handler(request)

        def authentication_filter(request: Request, next_handler):
            if request.path in _PUBLIC_PATHS:
                return next_handler(request)
            token = request.header("x-auth-token")
            if token is None:
                raise HttpError(401, "missing X-Auth-Token header")
            self.last_trace.append("administration")
            request.principal = self.admin.authentication.validate(token)
            return next_handler(request)

        def tenant_wall(request: Request, next_handler):
            parts = [part for part in request.path.split("/") if part]
            if len(parts) >= 2 and parts[0] == "tenants":
                request.tenant = parts[1]
                if request.principal is not None:
                    AccessDecisionManager().check_tenant(
                        request.principal, request.tenant)
            return next_handler(request)

        self.web.use(trace_layer)
        self.web.use(authentication_filter)
        self.web.use(tenant_wall)

    def _trace(self, *layers: str) -> None:
        for layer in layers:
            if layer not in self.last_trace:
                self.last_trace.append(layer)

    def _install_routes(self) -> None:
        web = self.web
        web.get("/ping", lambda r: JsonResponse({"status": "up"}))
        web.post("/login", self._handle_login)
        web.get("/tenants/{tenant}/datasources",
                self._handle_datasources)
        web.get("/tenants/{tenant}/datasets", self._handle_datasets)
        web.get("/tenants/{tenant}/datasets/{name}/rows",
                self._handle_dataset_rows)
        web.get("/tenants/{tenant}/cubes", self._handle_cubes)
        web.post("/tenants/{tenant}/mdx", self._handle_mdx)
        web.get("/tenants/{tenant}/reports", self._handle_reports)
        web.post("/tenants/{tenant}/reports/{name}/run",
                 self._handle_run_report)
        web.get("/tenants/{tenant}/dashboards", self._handle_dashboards)
        web.post("/tenants/{tenant}/dashboards",
                 self._handle_define_dashboard)
        web.get("/tenants/{tenant}/dashboards/{name}",
                self._handle_deliver_dashboard)
        web.post("/tenants/{tenant}/sql", self._handle_sql)
        web.get("/tenants/{tenant}/project", self._handle_project)
        web.post("/tenants/{tenant}/design", self._handle_design)
        web.get("/admin/usage", self._handle_usage)
        web.get("/admin/health", self._handle_health)

    # -- route handlers ----------------------------------------------------------------

    def _handle_login(self, request: Request) -> Response:
        body = request.body or {}
        session = self.admin.login(
            body.get("username", ""), body.get("password", ""))
        self._trace("administration")
        return JsonResponse({
            "token": session.token,
            "username": session.principal.username,
            "tenant": session.principal.tenant,
            "authorities": sorted(session.principal.authorities),
        })

    def _handle_datasources(self, request: Request) -> Response:
        self._trace("core-bi-services", "technical-resources")
        return JsonResponse(self.metadata.datasources(request.tenant))

    def _handle_datasets(self, request: Request) -> Response:
        self._trace("core-bi-services", "technical-resources")
        return JsonResponse(self.metadata.datasets(request.tenant))

    def _handle_dataset_rows(self, request: Request) -> Response:
        self._trace("core-bi-services", "technical-resources")
        rows = self.metadata.dataset_rows(
            request.tenant, request.require_param("name"))
        self.billing.meter(request.tenant, "query", 1)
        return JsonResponse({"rows": rows})

    def _handle_cubes(self, request: Request) -> Response:
        self._trace("core-bi-services")
        return JsonResponse(self.analysis.cubes(request.tenant))

    def _handle_mdx(self, request: Request) -> Response:
        self._trace("core-bi-services", "technical-resources")
        statement = (request.body or {}).get("statement")
        if not statement:
            raise HttpError(400, "body needs a 'statement' field")
        cells = self.analysis.execute_mdx(request.tenant, statement)
        return JsonResponse({
            "measures": cells.measures,
            "axes": [list(axis) for axis in cells.axes],
            "rows": cells.rows,
        })

    def _handle_reports(self, request: Request) -> Response:
        self._trace("core-bi-services")
        return JsonResponse(self.reporting.reports(request.tenant))

    def _handle_run_report(self, request: Request) -> Response:
        self._trace("core-bi-services", "technical-resources")
        output = self.reporting.run_report(
            request.tenant, request.require_param("name"),
            request.body or {})
        payload = []
        for element in output.elements:
            if hasattr(element, "series"):
                payload.append({"name": element.name,
                                "series": element.series})
            else:
                payload.append({"name": element.name,
                                "rows": element.rows})
        return JsonResponse({"report": output.design.name,
                             "elements": payload})

    def _handle_dashboards(self, request: Request) -> Response:
        self._trace("core-bi-services")
        return JsonResponse(self.reporting.dashboards(request.tenant))

    def _handle_define_dashboard(self, request: Request) -> Response:
        """Publish a dashboard definition from its JSON form."""
        from repro.reporting import DashboardDefinition

        if request.principal is not None \
                and not request.principal.has_authority("REPORT_EDIT"):
            raise HttpError(403, "REPORT_EDIT authority required")
        self._trace("core-bi-services")
        definition = DashboardDefinition.from_dict(request.body or {})
        self.reporting.define_dashboard(request.tenant, definition)
        return JsonResponse({"dashboard": definition.name},
                            status=201)

    def _handle_deliver_dashboard(self, request: Request) -> Response:
        self._trace("core-bi-services")
        name = request.require_param("name")
        if name in self.reporting.dashboard_definitions(request.tenant):
            dashboard = self.reporting.render_dashboard(
                request.tenant, name)
        else:
            dashboard = self.reporting.dashboard(request.tenant, name)
        channel_name = request.query.get("channel", "webservice")
        try:
            channel = Channel(channel_name)
        except ValueError as exc:
            raise HttpError(400,
                            f"unknown channel {channel_name!r}") from exc
        delivered = self.delivery.deliver_dashboard(dashboard, channel)
        if channel is Channel.WEB_SERVICE:
            return JsonResponse(delivered)
        return Response(status=200, body=delivered)

    def _handle_sql(self, request: Request) -> Response:
        """Run SQL against the tenant's operational store.

        The read path honors the replication contract (DESIGN.md §6):
        a read-only statement — classified by the same
        :func:`~repro.core.overload.read_only_statement` the
        dispatcher uses — may be served by a shard replica whose lag
        fits the staleness budget (``max_staleness`` in the body
        overrides the platform default); the routing record comes back
        with the rows.  Writes always execute on the tenant's primary.

        On a sharded platform every dispatch is *epoch-fenced*
        (DESIGN.md §7): the route resolves to a handle pinned at the
        shard's generation, and the execute re-checks it — a
        statement racing a promotion gets a typed
        :class:`~repro.errors.StaleEpochError` (a retryable 503 at
        the web layer), never a silent commit on a fenced engine.
        """
        self._trace("core-bi-services", "technical-resources")
        body = request.body or {}
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise HttpError(400, "body needs a 'sql' field")
        params = body.get("params", [])
        if not isinstance(params, list):
            # A string or an object would iterate — and bind — as
            # something the client never meant; a scalar would raise.
            raise HttpError(400, "'params' must be a JSON array")
        params = tuple(params)
        context = self.tenants.require_active(request.tenant)
        if read_only_statement(sql):
            if self.shards is not None:
                budget = body.get("max_staleness")
                if budget is not None and \
                        (isinstance(budget, bool) or
                         not isinstance(budget, int) or budget < 0):
                    raise HttpError(
                        400, "'max_staleness' must be an integer >= 0")
                handle = self.shards.read_handle(request.tenant,
                                                 budget)
                if self.overload is not None and \
                        handle.served_by != "primary":
                    # Tail-latency hedge (DESIGN.md §8): a replica
                    # read that is slow past the p95 window fires a
                    # backup against the primary; first answer wins,
                    # and the hedge spends a retry-budget token so
                    # hedging cannot amplify an overload.
                    backup = self.shards.write_handle(request.tenant)
                    rows, route = self.shards.dispatch_read_hedged(
                        handle, backup, sql, params,
                        hedge_after=self.overload.hedge_after(),
                        budget=self.overload.budget(request.tenant))
                else:
                    rows = self.shards.dispatch_read(handle, sql,
                                                     params)
                    route = handle.route
            else:
                rows = context.operational_db.query(sql, params)
                route = {"served_by": "primary", "replica_lag": 0}
            self.billing.meter(request.tenant, "query", 1)
            return JsonResponse({"rows": rows, **route})
        if self.shards is not None:
            handle = self.shards.write_handle(request.tenant)
            result = self.shards.dispatch_write(handle, sql, params)
            extra = {"shard": handle.shard,
                     "generation": handle.generation}
        else:
            result = context.operational_db.execute(sql, params)
            extra = {}
        rowcount = result if isinstance(result, int) else None
        return JsonResponse({"ok": True, "served_by": "primary",
                             "rowcount": rowcount, **extra})

    def _handle_project(self, request: Request) -> Response:
        self._trace("design-management")
        return JsonResponse(self.mddws.project_status(request.tenant))

    def _handle_design(self, request: Request) -> Response:
        """Run a model-driven design from a JSON CIM (MDDWS web UI)."""
        from repro.mda import CimModel

        if request.principal is not None \
                and not request.principal.has_authority("DW_DESIGN"):
            raise HttpError(403, "DW_DESIGN authority required")
        self._trace("design-management", "technical-resources")
        payload = request.body or {}
        cim = CimModel.from_dict(payload.get("cim", payload))
        layer = payload.get("layer", "warehouse")
        summary = self.mddws.design_warehouse(
            request.tenant, cim, layer=layer)
        return JsonResponse({
            "layer": summary["layer"],
            "iteration": summary["iteration"],
            "tables": summary["deployed"]["tables"],
            "cubes": summary["deployed"]["cubes"],
            "completion_points":
                summary["artifacts"].completion_points,
        }, status=201)

    def _handle_usage(self, request: Request) -> Response:
        if request.principal is None \
                or not request.principal.has_authority("PLATFORM_ADMIN"):
            raise HttpError(403, "PLATFORM_ADMIN authority required")
        self._trace("administration")
        return JsonResponse(self.admin.usage_report())

    def _handle_health(self, request: Request) -> Response:
        if request.principal is None \
                or not request.principal.has_authority("PLATFORM_ADMIN"):
            raise HttpError(403, "PLATFORM_ADMIN authority required")
        self._trace("administration")
        return JsonResponse(self.health_report().to_dict())

    # -- resilience observability ------------------------------------------------------

    def health_report(self) -> HealthReport:
        """Aggregate breaker/bulkhead/quarantine state per tenant.

        The administration layer's SLA/monitoring view (Fig. 1): one
        report covering the gateway's per-tenant circuit breakers and
        bulkheads, the integration service's quarantined jobs, the
        bus dead-letter backlog, and the faults injected so far (zero
        outside chaos runs).
        """
        report = HealthReport(
            dead_letters=len(self.resources.bus.dead_letters),
            fault_sites=self.faults.summary())
        if self.shards is not None:
            report.shards = self.shards.health()
        if self.supervisor is not None:
            report.supervision = self.supervisor.health()
        if self.overload is not None:
            report.overload = self.overload.snapshot()
        for tenant_id, health in self.gateway.tenant_health().items():
            report.tenants[tenant_id] = health
        for name in self.integration.scheduler.quarantined_jobs():
            tenant_id, job = name.split(":", 1)
            report.tenant(tenant_id).quarantined_jobs.append(job)
        if self.data_dir is not None:
            for tenant_id in self.tenants.tenant_ids():
                context = self.tenants.context(tenant_id)
                databases = {id(db): db for db in
                             (context.operational_db,
                              context.warehouse_db)
                             if db.wal is not None}
                if not databases:
                    continue
                health = report.tenant(tenant_id)
                # Committed-but-not-checkpointed transactions across
                # this tenant's databases (the shared operational db
                # counts for every tenant using it), plus the newest
                # checkpoint ordinal — the durability posture an
                # operator reads off /admin/health.
                health.wal_lag = sum(
                    db.wal_lag or 0 for db in databases.values())
                checkpoints = [db.last_checkpoint
                               for db in databases.values()
                               if db.last_checkpoint is not None]
                health.last_checkpoint = (
                    max(checkpoints) if checkpoints else None)
        return report
