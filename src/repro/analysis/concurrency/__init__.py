"""Concurrency correctness tooling: static analysis + runtime sanitizer.

Two sides of one contract:

* :mod:`repro.analysis.concurrency.static` lints Python sources for
  lock-discipline violations (``ODB5xx`` diagnostics): lock-order
  inversions, mutations of ``# guarded-by:``-annotated state outside
  the guard, blocking calls under an exclusive lock, and non-reentrant
  self-acquisition.
* :mod:`repro.analysis.concurrency.sanitizer` watches live executions
  (``REPRO_SANITIZE=1`` / ``Database(sanitize=True)``): a runtime
  lock-order graph with cycle detection, and storage-access invariant
  checks against the engine's writer lock.

The static pass runs over ``src/repro`` itself in the tier-1 suite
(``tests/test_analysis_concurrency_selfcheck.py``), so a refactor that
breaks the locking discipline fails the build before it races.
"""

from repro.analysis.concurrency.sanitizer import (
    SANITIZE_ENV,
    ConcurrencySanitizer,
    SanitizedWriterLock,
    SanitizerReport,
    StorageMonitor,
    default_sanitizer,
    reset_default_sanitizer,
    sanitize_enabled,
)
from repro.analysis.concurrency.static import (
    ConcurrencyAnalyzer,
    LockDecl,
    analyze_concurrency,
)

__all__ = [
    "SANITIZE_ENV",
    "ConcurrencyAnalyzer",
    "ConcurrencySanitizer",
    "LockDecl",
    "SanitizedWriterLock",
    "SanitizerReport",
    "StorageMonitor",
    "analyze_concurrency",
    "default_sanitizer",
    "reset_default_sanitizer",
    "sanitize_enabled",
]
