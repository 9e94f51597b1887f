"""Exception hierarchy shared by every ODBIS subsystem.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch platform errors without also swallowing programming
mistakes such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# --- database engine -------------------------------------------------------

class EngineError(ReproError):
    """Base class for errors raised by the embedded SQL engine."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be parsed.

    Carries the source position of the offending token when known, so
    tooling (and the static analyzer) can point at the exact spot.
    """

    def __init__(self, message: str, line: "int | None" = None,
                 column: "int | None" = None,
                 offset: "int | None" = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.offset = offset


class CatalogError(EngineError):
    """A schema object is missing, duplicated or inconsistent."""


class ConstraintViolation(EngineError):
    """A NOT NULL, UNIQUE or PRIMARY KEY constraint was violated."""


class TypeMismatch(EngineError):
    """A value does not fit the declared column type."""


class TransactionError(EngineError):
    """Invalid use of the transaction API (double commit, etc.)."""


class SnapshotError(EngineError):
    """A database snapshot file is truncated, corrupt or malformed."""


class WalError(EngineError):
    """Misuse of the write-ahead log (bad magic, closed log, bad
    fsync policy).  Torn or corrupt *tails* are not errors — recovery
    discards them silently, because a torn tail is exactly what a
    crash is expected to leave behind."""


# --- ORM -------------------------------------------------------------------

class OrmError(ReproError):
    """Base class for persistence-layer errors."""


class MappingError(OrmError):
    """An entity class is not mapped correctly."""


class EntityNotFound(OrmError):
    """No row exists for the requested entity identity."""


class StaleSessionError(OrmError):
    """The session was used after being closed."""


# --- metamodeling ----------------------------------------------------------

class MofError(ReproError):
    """Base class for meta-object-facility errors."""


class MetamodelError(MofError):
    """A metamodel definition is invalid (unknown class, bad reference)."""


class ModelConstraintError(MofError):
    """A model element violates a metamodel constraint."""


class XmiError(MofError):
    """XMI serialization or deserialization failed."""


# --- MDA / 2TUP ------------------------------------------------------------

class MdaError(ReproError):
    """Base class for model-driven-architecture errors."""


class TransformationError(MdaError):
    """A QVT-style transformation failed to apply."""


class ProcessError(MdaError):
    """Invalid 2TUP process state transition."""


# --- ETL -------------------------------------------------------------------

class EtlError(ReproError):
    """Base class for integration-service errors."""


class JobValidationError(EtlError):
    """The job graph is malformed (cycle, missing input, ...)."""


class JobExecutionError(EtlError):
    """A job step failed while running."""


class SchedulerError(EtlError):
    """Invalid schedule definition or scheduler state."""


class JobQuarantinedError(EtlError):
    """The job is quarantined after repeated consecutive failures."""


# --- OLAP ------------------------------------------------------------------

class OlapError(ReproError):
    """Base class for analysis-service errors."""


class CubeDefinitionError(OlapError):
    """A cube schema is inconsistent with its star schema."""


class MdxSyntaxError(OlapError):
    """An MDX-lite query could not be parsed."""


class QueryError(OlapError):
    """A cube query referenced unknown members or measures."""


# --- reporting -------------------------------------------------------------

class ReportingError(ReproError):
    """Base class for reporting-service errors."""


class ReportDefinitionError(ReportingError):
    """A report design is invalid."""


class RenderError(ReportingError):
    """A report could not be rendered."""


# --- rules / BPM -----------------------------------------------------------

class RulesError(ReproError):
    """Base class for business-rules errors."""


class RuleSyntaxError(RulesError):
    """The rule DSL text could not be parsed.

    ``line`` is the 1-based source line of a layout problem, when known.
    """

    def __init__(self, message: str, line: "int | None" = None):
        super().__init__(message)
        self.line = line


class BpmError(ReproError):
    """Base class for business-process errors."""


# --- static analysis -------------------------------------------------------

class AnalysisError(ReproError):
    """Misuse of the static-analysis subsystem (unknown artifact kind,
    malformed artifact payload, ...).  Findings about *artifacts* are
    reported as diagnostics, not exceptions."""


# --- resilience ------------------------------------------------------------

class ResilienceError(ReproError):
    """Base class for reliability-kernel errors."""


class RetryExhaustedError(ResilienceError):
    """Every permitted attempt failed; the last error is chained.

    ``attempts`` is how many times the operation ran; ``last_error``
    is the exception raised by the final attempt.
    """

    def __init__(self, message: str, attempts: int,
                 last_error: "BaseException | None" = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """The circuit breaker is open; the call was not attempted.

    ``retry_after`` is the cooldown remaining in seconds (on the
    breaker's injected clock) before the breaker will half-open.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ResilienceError):
    """The request's time budget ran out before the operation finished."""


class BulkheadRejectedError(ResilienceError):
    """The bulkhead's concurrency cap is full; the call was shed."""


class BulkheadReleaseError(ResilienceError):
    """``release()`` was called without a matching ``try_acquire()``.

    A caller bug, not load: an unmatched release would drive the
    in-use counter negative and corrupt health reporting.  Under
    ``REPRO_SANITIZE=1`` the bulkhead floors at zero and files a
    sanitizer report instead of raising."""


class InjectedFault(ResilienceError):
    """A deliberate failure raised by the :class:`FaultInjector`.

    Chaos tests use this class to tell injected infrastructure
    failures apart from genuine bugs; production code treats it like
    any other transient infrastructure error.
    """

    def __init__(self, site: str, sequence: int):
        super().__init__(f"injected fault at {site!r} (#{sequence})")
        self.site = site
        self.sequence = sequence


class CrashPoint(InjectedFault):
    """Simulated process death at an exact byte offset of a log file.

    Raised by the :class:`FaultInjector` from inside a write-ahead-log
    append: every byte before ``offset`` reached the file, everything
    after is lost — the torn-tail shape a real ``kill -9`` leaves.
    Code under test must treat the owning object as dead and recover
    from disk; unlike other injected faults, a crash point is never
    retried past.
    """

    def __init__(self, site: str, sequence: int, offset: int):
        super().__init__(site, sequence)
        self.offset = offset
        self.args = (f"simulated crash at {site!r} byte offset "
                     f"{offset} (#{sequence})",)


# --- security --------------------------------------------------------------

class SecurityError(ReproError):
    """Base class for security errors."""


class AuthenticationError(SecurityError):
    """Credentials or session token were rejected."""


class AccessDeniedError(SecurityError):
    """The principal lacks the authority required by the operation."""


# --- ESB / web -------------------------------------------------------------

class EsbError(ReproError):
    """Base class for service-bus errors."""


class WebError(ReproError):
    """Base class for web-layer errors."""


class HttpError(WebError):
    """An HTTP-style error carrying a status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


# --- platform core ---------------------------------------------------------

class PlatformError(ReproError):
    """Base class for ODBIS platform errors."""


class TenantError(PlatformError):
    """Unknown tenant, duplicate tenant or cross-tenant access."""


class ProvisioningError(PlatformError):
    """Tenant provisioning failed."""


class SubscriptionError(PlatformError):
    """Metering/billing misuse (unknown plan, closed period, ...)."""


class ServiceError(PlatformError):
    """A core BI service rejected an operation."""


class GatewayShutdownError(PlatformError):
    """The request gateway is draining; new submissions are rejected."""


class ShardError(PlatformError):
    """Shard-map misuse: empty ring, unknown or duplicate shard, a
    replica with a replication gap and no snapshot to resync from."""


class StaleEpochError(ShardError):
    """A routed statement carried a shard generation that is no longer
    current — the dispatch raced a promotion.  Retryable by contract:
    re-resolve the route (the new primary answers) and re-dispatch;
    the gateway maps it to a 503 with ``"retryable": true``.

    ``carried_generation`` is the epoch the handle was resolved at;
    ``current_generation`` is where the shard actually is.
    """

    def __init__(self, shard: str, carried_generation: int,
                 current_generation: int, why: str):
        super().__init__(
            f"shard {shard!r} epoch is stale: the dispatch carried "
            f"generation {carried_generation} but the shard is at "
            f"{current_generation} ({why}); re-route and retry")
        self.shard = shard
        self.carried_generation = carried_generation
        self.current_generation = current_generation


class SupervisionError(PlatformError):
    """The shard supervisor refused an operation — most importantly a
    failover attempt rejected by flap damping (too soon after the last
    promotion, or the per-window budget is exhausted).  ``retry_after``
    is how long (on the supervisor's clock) until the damping window
    admits another attempt.
    """

    def __init__(self, message: str, shard: "str | None" = None,
                 reason: "str | None" = None,
                 retry_after: float = 0.0):
        super().__init__(message)
        self.shard = shard
        self.reason = reason
        self.retry_after = retry_after
