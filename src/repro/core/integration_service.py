"""IS — the integration service.

"The integration service offers an ad-hoc way to define data
integration jobs, jobs scheduling, etc." (paper §3.1).  Jobs are
defined against the tenant's registered databases, validated, run
through the ETL substrate and optionally scheduled; every run is
metered for pay-as-you-go billing and recorded in the platform
database, as are the scheduler's clock and each scheduled job's
posture, so a restarted platform picks up where it stopped.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.resources import TechnicalResourcesLayer
from repro.core.subscription import BillingService
from repro.core.tenancy import TenantManager
from repro.errors import JobQuarantinedError, ServiceError
from repro.etl import (
    EtlJob,
    JobGraph,
    JobResult,
    JobRunner,
    Load,
    Operator,
    Schedule,
    Scheduler,
    Source,
    TableSource,
)

#: Runs each job keeps in ``etl_runs``; past it, recording a run
#: overwrites the job's oldest.
RUN_HISTORY_PER_JOB = 100

_TABLES = (
    "CREATE TABLE etl_runs ("
    "id INTEGER PRIMARY KEY, tenant TEXT NOT NULL, job TEXT NOT NULL, "
    "seq INTEGER NOT NULL, rows_read INTEGER NOT NULL, "
    "rows_written INTEGER NOT NULL, rows_rejected INTEGER NOT NULL, "
    "status TEXT NOT NULL, error TEXT)",
    # Finding a job's oldest run and reading a tenant's are seeks.
    "CREATE INDEX etl_runs_job ON etl_runs (tenant, job, seq)",
    "CREATE TABLE etl_jobs ("
    "job TEXT PRIMARY KEY, runs INTEGER NOT NULL, "
    "consecutive_failures INTEGER NOT NULL, "
    "quarantined BOOLEAN NOT NULL)",
    "CREATE TABLE etl_clock (minute INTEGER NOT NULL)",
    "INSERT INTO etl_clock VALUES (0)",
)


class IntegrationService:
    """Per-tenant ETL job management and scheduling."""

    #: Consecutive scheduled failures before a job is quarantined.
    QUARANTINE_AFTER = 3

    def __init__(self, tenants: TenantManager,
                 resources: TechnicalResourcesLayer,
                 billing: Optional[BillingService] = None):
        self.tenants = tenants
        self.resources = resources
        self.billing = billing
        self._jobs: Dict[Tuple[str, str], EtlJob] = {}
        self._runner = JobRunner(error_policy="skip",
                                 faults=resources.faults)
        self.database = tenants.platform_db
        if "etl_runs" not in self.database.table_names():
            with self.database.transaction():
                for ddl in _TABLES:
                    self.database.execute(ddl)
        self.scheduler = Scheduler(
            self._runner, quarantine_after=self.QUARANTINE_AFTER,
            start_minute=self.database.query_value(
                "SELECT minute FROM etl_clock"))
        # Both counters continue after the rows already recorded and
        # advance only inside a platform-database transaction.
        self._last_run_id = self.database.query_value(
            "SELECT MAX(id) FROM etl_runs") or 0
        self._last_seq: Dict[Tuple[str, str], int] = {
            (row["tenant"], row["job"]): row["seq"]
            for row in self.database.query(
                "SELECT tenant, job, MAX(seq) AS seq FROM etl_runs "
                "GROUP BY tenant, job")}

    # -- job definition ---------------------------------------------------------------

    def define_job(self, tenant_id: str, name: str, source: Source,
                   operators: Sequence[Operator] = (),
                   target_database: Optional[str] = None,
                   target_table: Optional[str] = None,
                   mode: str = "append") -> EtlJob:
        """Define (and register) an ETL job for a tenant."""
        self.tenants.require_active(tenant_id)
        key = (tenant_id, name)
        if key in self._jobs:
            raise ServiceError(
                f"tenant {tenant_id!r} already has a job {name!r}")
        load = None
        if target_table is not None:
            database = self.resources.database(
                tenant_id, target_database or "warehouse")
            load = Load(database, target_table, mode=mode)
        job = EtlJob(f"{tenant_id}:{name}", source, operators, load)
        self._jobs[key] = job
        return job

    def define_table_copy(self, tenant_id: str, name: str,
                          source_database: str, source_table: str,
                          target_database: str, target_table: str,
                          operators: Sequence[Operator] = (),
                          mode: str = "append") -> EtlJob:
        """Convenience: copy a table between two tenant databases."""
        source_db = self.resources.database(tenant_id, source_database)
        return self.define_job(
            tenant_id, name,
            TableSource(source_db, source_table),
            operators,
            target_database=target_database,
            target_table=target_table,
            mode=mode)

    def jobs(self, tenant_id: str) -> List[str]:
        return sorted(name for (tenant, name) in self._jobs
                      if tenant == tenant_id)

    def job(self, tenant_id: str, name: str) -> EtlJob:
        job = self._jobs.get((tenant_id, name))
        if job is None:
            raise ServiceError(
                f"tenant {tenant_id!r} has no job {name!r}")
        return job

    # -- execution ---------------------------------------------------------------------

    def run_job(self, tenant_id: str, name: str) -> JobResult:
        """Run a job now; meters the rows written.

        A job the scheduler has quarantined is refused with a typed
        :class:`~repro.errors.JobQuarantinedError` until
        :meth:`unquarantine_job` readmits it — manual runs must not
        silently bypass the platform's failure containment.
        """
        job = self.job(tenant_id, name)
        if job.name in self.scheduler.quarantined_jobs():
            raise JobQuarantinedError(
                f"job {name!r} of tenant {tenant_id!r} is "
                f"quarantined after repeated failures; "
                f"unquarantine it first")
        result = self._runner.run(job)
        self._record([_run_row(tenant_id, name, result)])
        self._announce(tenant_id, name, result)
        return result

    def unquarantine_job(self, tenant_id: str, name: str) -> None:
        """Readmit a quarantined scheduled job."""
        job = self.job(tenant_id, name)  # validates ownership
        self.scheduler.unquarantine(job.name)
        self._record([], postures=[job.name])

    def run_graph(self, tenant_id: str,
                  dependencies: Dict[str, Sequence[str]]) \
            -> Dict[str, JobResult]:
        """Run several tenant jobs respecting dependencies.

        ``dependencies`` maps job name → names it depends on.
        """
        graph = JobGraph()
        for name, depends_on in dependencies.items():
            graph.add(self.job(tenant_id, name),
                      depends_on=[f"{tenant_id}:{dep}"
                                  for dep in depends_on])
        results = graph.run_all(self._runner)
        out = {qualified.split(":", 1)[1]: result
               for qualified, result in results.items()}
        self._record([_run_row(tenant_id, name, result)
                      for name, result in out.items()])
        for name, result in out.items():
            self._announce(tenant_id, name, result)
        return out

    def _announce(self, tenant_id: str, name: str,
                  result: JobResult) -> None:
        """Meter a completed run and publish it on the bus."""
        if self.billing is not None:
            self.billing.meter(tenant_id, "etl_rows",
                               result.rows_written)
        self.resources.publish_event(
            tenant_id, "etl-run",
            f"{name}: {result.rows_written} rows")

    def _record(self, runs: Sequence[Tuple[Any, ...]],
                postures: Sequence[str] = (),
                clock: Optional[int] = None) -> None:
        """Write :func:`_run_row` tuples, the postures of the named
        scheduled jobs and the clock in one transaction."""
        database = self.database
        with database.transaction():
            for tenant_id, name, *rest in runs:
                key = (tenant_id, name)
                seq = self._last_seq.get(key, 0) + 1
                self._last_seq[key] = seq
                self._last_run_id += 1
                if seq <= RUN_HISTORY_PER_JOB or not database.execute(
                        "UPDATE etl_runs SET id = ?, seq = ?, "
                        "rows_read = ?, rows_written = ?, "
                        "rows_rejected = ?, status = ?, error = ? "
                        "WHERE tenant = ? AND job = ? AND seq = ?",
                        (self._last_run_id, seq, *rest, tenant_id, name,
                         seq - RUN_HISTORY_PER_JOB)):
                    database.execute(
                        "INSERT INTO etl_runs VALUES "
                        "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (self._last_run_id, tenant_id, name, seq, *rest))
            for job_name in postures:
                entry = self.scheduler.entry(job_name)
                posture = (entry.runs, entry.consecutive_failures,
                           entry.quarantined)
                if not database.execute(
                        "UPDATE etl_jobs SET runs = ?, "
                        "consecutive_failures = ?, quarantined = ? "
                        "WHERE job = ?", (*posture, job_name)):
                    database.execute(
                        "INSERT INTO etl_jobs VALUES (?, ?, ?, ?)",
                        (job_name, *posture))
            if clock is not None:
                database.execute("UPDATE etl_clock SET minute = ?",
                                 (clock,))

    def run_history(self, tenant_id: str) -> List[Dict[str, Any]]:
        """The tenant's recorded runs, oldest first (at most
        :data:`RUN_HISTORY_PER_JOB` per job)."""
        return self.database.query(
            "SELECT tenant, job, rows_read, rows_written, rows_rejected, "
            "status, error FROM etl_runs WHERE tenant = ? ORDER BY id",
            (tenant_id,))

    # -- datamart materialization --------------------------------------------------------

    def materialize_datamart(self, tenant_id: str, table: str,
                             sql: str, database: str = "warehouse",
                             refresh: bool = False) -> int:
        """Materialize a query into a datamart table (CTAS).

        With ``refresh=True`` an existing table is dropped and
        rebuilt — the nightly-datamart refresh pattern.  Returns the
        number of materialized rows (metered as etl_rows).
        """
        self.tenants.require_active(tenant_id)
        target = self.resources.database(tenant_id, database)
        if refresh:
            target.execute(f"DROP TABLE IF EXISTS {table}")
        rows = target.execute(f"CREATE TABLE {table} AS {sql}")
        if self.billing is not None:
            self.billing.meter(tenant_id, "etl_rows", int(rows))
        self.resources.publish_event(
            tenant_id, "datamart-materialized", f"{table}: {rows} rows")
        return int(rows)

    # -- scheduling --------------------------------------------------------------------

    def schedule_job(self, tenant_id: str, name: str,
                     schedule: Schedule, retry_policy=None) -> None:
        """Schedule a job; a job scheduled before a restart gets its
        recorded posture (runs, failures, quarantine) back."""
        job = self.job(tenant_id, name)
        entry = self.scheduler.add(job, schedule, owner=tenant_id,
                                   retry_policy=retry_policy)
        for row in self.database.query(
                "SELECT runs, consecutive_failures, quarantined "
                "FROM etl_jobs WHERE job = ?", (job.name,)):
            entry.runs, entry.consecutive_failures, entry.quarantined = \
                row.values()

    def advance_clock(self, minutes: int) -> int:
        """Drive the virtual clock; returns the number of runs fired.

        Failed, quarantine-skipped and deferred runs are recorded too
        (with zero row counts) so the tenant's run history shows *why*
        data is missing, but only completed runs meter billing.  The
        runs, the postures of the jobs that ran and the new clock are
        one platform-database transaction.
        """
        records = self.scheduler.advance(minutes)
        self._record([_run_row(*record.job.split(":", 1), record.result,
                               record.status, record.error)
                      for record in records],
                     postures=sorted({record.job for record in records}),
                     clock=self.scheduler.now)
        fired = 0
        for record in records:
            if record.result is not None:
                self._announce(*record.job.split(":", 1), record.result)
                fired += 1
        return fired

    def quarantined_jobs(self, tenant_id: str) -> List[str]:
        """This tenant's quarantined scheduled jobs (short names)."""
        prefix = f"{tenant_id}:"
        return [name[len(prefix):]
                for name in self.scheduler.quarantined_jobs()
                if name.startswith(prefix)]


def _run_row(tenant_id: str, name: str, result: Optional[JobResult],
             status: str = "ok",
             error: Optional[str] = None) -> Tuple[Any, ...]:
    """One ``etl_runs`` row, without its id and sequence number; a run
    that produced no result counts zero rows."""
    counts = (0, 0, 0) if result is None else (
        result.rows_read, result.rows_written, result.rows_rejected)
    return (tenant_id, name, *counts, status, error)
