"""Static analysis of tenant artifacts: SQL, models, rules, reports.

The analyzers in this package check artifacts *before* deployment —
the design-time validation the platform's administration layer applies
at provisioning time — and report findings as :class:`Diagnostic`
records with stable ``ODBnnn`` codes.

:mod:`repro.analysis.concurrency` additionally turns the lens on the
platform's own source: a lock-discipline static analyzer plus an
opt-in runtime race/deadlock sanitizer.
"""

from repro.analysis.concurrency import (
    ConcurrencyAnalyzer,
    ConcurrencySanitizer,
    SanitizerReport,
    analyze_concurrency,
    default_sanitizer,
    sanitize_enabled,
)
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticCollector,
    Severity,
    SourceSpan,
)
from repro.analysis.models import lint_cube_schema, lint_model
from repro.analysis.reports import dataset_columns_from_sql, lint_dashboard
from repro.analysis.rules import lint_rules
from repro.analysis.sql import (
    SqlAnalyzer,
    analyze_script,
    catalog_from_script,
    split_statements,
)

__all__ = [
    "CODES",
    "ConcurrencyAnalyzer",
    "ConcurrencySanitizer",
    "Diagnostic",
    "DiagnosticCollector",
    "SanitizerReport",
    "Severity",
    "SourceSpan",
    "SqlAnalyzer",
    "analyze_concurrency",
    "analyze_script",
    "catalog_from_script",
    "dataset_columns_from_sql",
    "default_sanitizer",
    "sanitize_enabled",
    "lint_cube_schema",
    "lint_dashboard",
    "lint_model",
    "lint_rules",
    "split_statements",
]
