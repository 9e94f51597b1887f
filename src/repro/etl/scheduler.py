"""Cron-lite job scheduling on a simulated clock.

The integration service schedules tenant jobs without real wall-clock
waits: the scheduler owns a virtual clock (minutes since epoch) and
:meth:`Scheduler.advance` runs everything that came due, round-robin
across owners so one tenant cannot starve the others — the fairness
property benchmark E10 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import SchedulerError
from repro.etl.jobs import EtlJob, JobResult, JobRunner

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class Schedule:
    """When a job runs: every N minutes, or daily at HH:MM.

    Exactly one of ``every_minutes`` / ``daily_at`` must be given.
    """

    every_minutes: Optional[int] = None
    daily_at: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.every_minutes is None) == (self.daily_at is None):
            raise SchedulerError(
                "Schedule needs exactly one of every_minutes= or daily_at=")
        if self.every_minutes is not None and self.every_minutes <= 0:
            raise SchedulerError("every_minutes must be positive")
        if self.daily_at is not None:
            self._parse_daily(self.daily_at)

    @staticmethod
    def _parse_daily(text: str) -> int:
        parts = text.split(":")
        if len(parts) != 2:
            raise SchedulerError(
                f"daily_at must be 'HH:MM', got {text!r}")
        try:
            hours, minutes = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise SchedulerError(
                f"daily_at must be 'HH:MM', got {text!r}") from exc
        if not (0 <= hours < 24 and 0 <= minutes < 60):
            raise SchedulerError(f"daily_at out of range: {text!r}")
        return hours * 60 + minutes

    def next_run_after(self, minute: int) -> int:
        """The first scheduled minute strictly after ``minute``."""
        if self.every_minutes is not None:
            return minute + self.every_minutes
        offset = self._parse_daily(self.daily_at)
        day_start = (minute // MINUTES_PER_DAY) * MINUTES_PER_DAY
        candidate = day_start + offset
        if candidate <= minute:
            candidate += MINUTES_PER_DAY
        return candidate


@dataclass
class ScheduledJob:
    job: EtlJob
    schedule: Schedule
    owner: str
    next_run: int
    runs: int = 0
    retry_policy: Optional[object] = None  # duck-typed RetryPolicy
    consecutive_failures: int = 0
    quarantined: bool = False


@dataclass
class ExecutionRecord:
    """One scheduler-triggered run (or the reported skip of one).

    ``status`` is ``"ok"`` (``result`` holds the statistics),
    ``"failed"`` (``error`` holds the normalized failure message),
    ``"quarantined"`` (the job was skipped-and-reported because it
    crossed the consecutive-failure threshold) or ``"deferred"`` (the
    platform's overload admission declined batch work this tick; the
    job retries at its next scheduled occurrence, and the deferral is
    neither a failure nor a dispatched run).
    """

    minute: int
    owner: str
    job: str
    result: Optional[JobResult]
    status: str = "ok"
    error: Optional[str] = None


class Scheduler:
    """A virtual-clock scheduler with round-robin fairness across owners.

    Ticks are failure-isolated: a job that raises records a failed
    :class:`ExecutionRecord` and the tick continues for the remaining
    owners, so one broken tenant job can never starve the round-robin.
    After ``quarantine_after`` *consecutive* failures a job is
    quarantined — on each due minute it is skipped-and-reported (a
    ``"quarantined"`` record, never a silent drop) until
    :meth:`unquarantine` readmits it.

    The scheduler keeps its state in memory only: :attr:`log` holds the
    records of this object's own ticks.  A caller that must survive a
    restart persists what it needs and hands it back through
    ``start_minute`` and the :class:`ScheduledJob` that :meth:`add`
    returns.
    """

    def __init__(self, runner: Optional[JobRunner] = None,
                 start_minute: int = 0,
                 quarantine_after: Optional[int] = None,
                 admission: Optional[Callable[[str], bool]] = None):
        if quarantine_after is not None and quarantine_after < 1:
            raise SchedulerError("quarantine_after must be >= 1")
        self.runner = runner or JobRunner(error_policy="skip")
        self.now = start_minute
        self.quarantine_after = quarantine_after
        # ETL ticks are batch-class work: when the platform's brownout
        # ladder sheds batch, this hook (owner -> may-run?) defers due
        # jobs instead of running them into an overload.
        self.admission = admission
        self._entries: Dict[str, ScheduledJob] = {}
        self.log: List[ExecutionRecord] = []
        self._rotation: List[str] = []  # owner round-robin order

    def add(self, job: EtlJob, schedule: Schedule,
            owner: str = "default", retry_policy=None) -> ScheduledJob:
        if job.name in self._entries:
            raise SchedulerError(f"job {job.name!r} already scheduled")
        entry = ScheduledJob(
            job=job, schedule=schedule, owner=owner,
            next_run=schedule.next_run_after(self.now),
            retry_policy=retry_policy)
        self._entries[job.name] = entry
        if owner not in self._rotation:
            self._rotation.append(owner)
        return entry

    def entry(self, job_name: str) -> ScheduledJob:
        """The scheduled state of one job (runs, failures, posture)."""
        entry = self._entries.get(job_name)
        if entry is None:
            raise SchedulerError(f"job {job_name!r} is not scheduled")
        return entry

    def remove(self, job_name: str) -> None:
        self.entry(job_name)  # raises when it is not scheduled
        del self._entries[job_name]

    def scheduled_jobs(self) -> List[str]:
        return sorted(self._entries)

    def advance(self, minutes: int) -> List[ExecutionRecord]:
        """Move the clock forward, running every due job along the way."""
        if minutes < 0:
            raise SchedulerError("cannot advance the clock backwards")
        target = self.now + minutes
        executed: List[ExecutionRecord] = []
        while True:
            due = [entry for entry in self._entries.values()
                   if entry.next_run <= target]
            if not due:
                break
            tick = min(entry.next_run for entry in due)
            due_now = [entry for entry in due if entry.next_run == tick]
            for entry in self._fair_order(due_now):
                record = self._run_due(entry, tick)
                self.log.append(record)
                executed.append(record)
                entry.next_run = entry.schedule.next_run_after(tick)
        self.now = target
        return executed

    def _run_due(self, entry: ScheduledJob,
                 tick: int) -> ExecutionRecord:
        """Run (or skip-and-report) one due entry, never raising."""
        if entry.quarantined:
            return ExecutionRecord(
                minute=tick, owner=entry.owner, job=entry.job.name,
                result=None, status="quarantined",
                error=f"quarantined after "
                      f"{entry.consecutive_failures} consecutive "
                      f"failures")
        if self.admission is not None and \
                not self.admission(entry.owner):
            # Overload deferral: not a failure (no quarantine
            # pressure), not a run — the job waits for its next
            # scheduled occurrence.
            return ExecutionRecord(
                minute=tick, owner=entry.owner, job=entry.job.name,
                result=None, status="deferred",
                error="deferred under overload (batch shed)")
        try:
            result = self.runner.run(
                entry.job, retry_policy=entry.retry_policy)
        except Exception as exc:
            entry.consecutive_failures += 1
            if self.quarantine_after is not None and \
                    entry.consecutive_failures >= self.quarantine_after:
                entry.quarantined = True
            return ExecutionRecord(
                minute=tick, owner=entry.owner, job=entry.job.name,
                result=None, status="failed", error=str(exc))
        entry.consecutive_failures = 0
        entry.runs += 1
        return ExecutionRecord(
            minute=tick, owner=entry.owner, job=entry.job.name,
            result=result)

    def quarantined_jobs(self) -> List[str]:
        return sorted(name for name, entry in self._entries.items()
                      if entry.quarantined)

    def unquarantine(self, job_name: str) -> None:
        """Readmit a quarantined job (resets its failure count)."""
        entry = self.entry(job_name)
        entry.quarantined = False
        entry.consecutive_failures = 0

    def _fair_order(self, entries: List[ScheduledJob]) \
            -> List[ScheduledJob]:
        """Round-robin by owner: rotate the owner list each dispatch."""
        ordered: List[ScheduledJob] = []
        remaining = list(entries)
        while remaining:
            for owner in list(self._rotation):
                for entry in remaining:
                    if entry.owner == owner:
                        ordered.append(entry)
                        remaining.remove(entry)
                        break
            if self._rotation:
                self._rotation.append(self._rotation.pop(0))
        return ordered

    def runs_by_owner(self) -> Dict[str, int]:
        """Dispatched runs per owner (quarantine skips and overload
        deferrals don't count — neither ever invoked the job)."""
        counts: Dict[str, int] = {}
        for record in self.log:
            if record.status not in ("quarantined", "deferred"):
                counts[record.owner] = counts.get(record.owner, 0) + 1
        return counts
