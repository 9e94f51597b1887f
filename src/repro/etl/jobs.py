"""ETL job definition, validation, execution and job graphs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.engine.database import Database
from repro.errors import JobExecutionError, JobValidationError
from repro.etl.operators import Operator, Row, RowError
from repro.etl.sources import Source

_LOAD_MODES = ("append", "replace")


class Load:
    """The load step: write rows into a table of an embedded database."""

    def __init__(self, database: Database, table: str,
                 mode: str = "append"):
        if mode not in _LOAD_MODES:
            raise JobValidationError(
                f"load mode must be one of {_LOAD_MODES}, got {mode!r}")
        self.database = database
        self.table = table
        self.mode = mode

    def describe(self) -> str:
        return f"load({self.table}, {self.mode})"

    def write(self, rows: Iterator[Row]) -> int:
        if not self.database.catalog.has_table(self.table):
            raise JobExecutionError(
                f"load target table {self.table!r} does not exist")
        if self.mode == "replace":
            self.database.execute(f"DELETE FROM {self.table}")
        schema = self.database.storage(self.table).schema
        written = 0
        for row in rows:
            usable = {key: value for key, value in row.items()
                      if schema.has_column(key)}
            if not usable:
                raise JobExecutionError(
                    f"row has no columns matching table "
                    f"{self.table!r}: {row!r}")
            columns = ", ".join(usable)
            placeholders = ", ".join("?" for _ in usable)
            self.database.execute(
                f"INSERT INTO {self.table} ({columns}) "
                f"VALUES ({placeholders})",
                tuple(usable.values()))
            written += 1
        return written


class EtlJob:
    """A named pipeline: source → operators → load.

    A job without a load target is a *probe* job: running it returns
    the transformed rows instead of writing them.
    """

    def __init__(self, name: str, source: Source,
                 operators: Sequence[Operator] = (),
                 load: Optional[Load] = None):
        self.name = name
        self.source = source
        self.operators = list(operators)
        self.load = load
        self.validate()

    def __repr__(self) -> str:
        return f"<EtlJob {self.name!r} steps={len(self.operators)}>"

    def validate(self) -> None:
        if not isinstance(self.source, Source):
            raise JobValidationError(
                f"job {self.name!r}: source must be a Source, "
                f"got {type(self.source).__name__}")
        for operator in self.operators:
            if not isinstance(operator, Operator):
                raise JobValidationError(
                    f"job {self.name!r}: {operator!r} is not an Operator")

    def describe(self) -> List[str]:
        steps = [f"extract({self.source.describe()})"]
        steps.extend(operator.describe() for operator in self.operators)
        if self.load is not None:
            steps.append(self.load.describe())
        return steps


@dataclass
class JobResult:
    """Statistics of one job run."""

    job: str
    rows_read: int = 0
    rows_written: int = 0
    rows_rejected: int = 0
    duration_seconds: float = 0.0
    attempts: int = 1
    errors: List[str] = field(default_factory=list)
    output: List[Row] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return True  # a result object only exists for completed runs


class JobRunner:
    """Executes jobs with an error policy.

    * ``error_policy='fail'`` — the first bad row aborts the run and
      nothing is committed (the load runs inside a transaction).
    * ``error_policy='skip'`` — bad rows are counted and skipped.

    Every failure mode — bad rows, a throwing operator, a load-step
    write error, an injected infrastructure fault — surfaces as
    :class:`~repro.errors.JobExecutionError` with the original
    exception chained, so callers (the scheduler, the integration
    service) have exactly one failure type to handle.

    ``retry_policy`` (a :class:`~repro.core.resilience.RetryPolicy`,
    duck-typed) re-runs the whole job on failure: each attempt
    rebuilds the row stream from the source, and the load step's
    per-attempt transaction guarantees a failed attempt leaves
    nothing behind.  ``faults`` is consulted at the ``etl.job`` site.
    """

    def __init__(self, error_policy: str = "fail", retry_policy=None,
                 clock=None, faults=None):
        if error_policy not in ("fail", "skip"):
            raise JobValidationError(
                f"error policy must be 'fail' or 'skip', "
                f"got {error_policy!r}")
        self.error_policy = error_policy
        self.retry_policy = retry_policy
        self.clock = clock
        self.faults = faults
        self.history: List[JobResult] = []

    def run(self, job: EtlJob, retry_policy=None) -> JobResult:
        """Run ``job`` (retrying per policy); returns the final result."""
        policy = retry_policy if retry_policy is not None \
            else self.retry_policy
        attempts = [0]

        def attempt() -> JobResult:
            attempts[0] += 1
            return self._attempt(job)

        if policy is None:
            result = attempt()
        else:
            try:
                result = policy.call(attempt, clock=self.clock)
            except JobExecutionError:
                raise
            except Exception as exc:
                # RetryExhaustedError (or a policy misconfiguration):
                # keep the one-failure-type contract.
                last = getattr(exc, "last_error", None) or exc
                raise JobExecutionError(
                    f"job {job.name!r} failed after {attempts[0]} "
                    f"attempts: {last}") from last
        result.attempts = attempts[0]
        self.history.append(result)
        return result

    def _attempt(self, job: EtlJob) -> JobResult:
        """One complete source → operators → load pass."""
        result = JobResult(job=job.name)
        started = time.perf_counter()

        def counting_source() -> Iterator[Row]:
            for row in job.source.rows():
                result.rows_read += 1
                yield row

        def sink(error: RowError) -> None:
            result.rows_rejected += 1
            result.errors.append(str(error))

        stream: Iterator[Row] = counting_source()
        for operator in job.operators:
            operator.error_sink = sink if self.error_policy == "skip" \
                else None
            stream = operator.process(stream)

        try:
            if self.faults is not None:
                self.faults.fire("etl.job")
                self.faults.fire(f"etl.job.{job.name}")
            if job.load is None:
                result.output = list(stream)
                result.rows_written = len(result.output)
            else:
                with job.load.database.transaction():
                    result.rows_written = job.load.write(stream)
        except Exception as exc:
            raise JobExecutionError(
                f"job {job.name!r} failed: {exc}") from exc
        finally:
            for operator in job.operators:
                operator.error_sink = None
            result.duration_seconds = time.perf_counter() - started

        return result


class JobGraph:
    """Dependencies between jobs with topological execution order."""

    def __init__(self) -> None:
        self._jobs: Dict[str, EtlJob] = {}
        self._depends_on: Dict[str, List[str]] = {}

    def add(self, job: EtlJob,
            depends_on: Sequence[str] = ()) -> "JobGraph":
        if job.name in self._jobs:
            raise JobValidationError(
                f"job {job.name!r} already in the graph")
        self._jobs[job.name] = job
        self._depends_on[job.name] = list(depends_on)
        return self

    def execution_order(self) -> List[str]:
        """Topological order; raises on cycles or unknown dependencies."""
        for name, dependencies in self._depends_on.items():
            for dependency in dependencies:
                if dependency not in self._jobs:
                    raise JobValidationError(
                        f"job {name!r} depends on unknown job "
                        f"{dependency!r}")
        order: List[str] = []
        state: Dict[str, str] = {}

        def visit(name: str) -> None:
            mark = state.get(name)
            if mark == "done":
                return
            if mark == "doing":
                raise JobValidationError(
                    f"dependency cycle involving job {name!r}")
            state[name] = "doing"
            for dependency in self._depends_on[name]:
                visit(dependency)
            state[name] = "done"
            order.append(name)

        for name in sorted(self._jobs):
            visit(name)
        return order

    def run_all(self, runner: JobRunner) -> Dict[str, JobResult]:
        """Run every job in dependency order."""
        results: Dict[str, JobResult] = {}
        for name in self.execution_order():
            results[name] = runner.run(self._jobs[name])
        return results
