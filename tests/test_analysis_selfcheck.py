"""Self-check: the repo's own artifacts must pass the analyzer.

Two sweeps:

1. the shipped artifact directory (``examples/artifacts``) must lint
   completely clean through the CLI path;
2. every SQL string literal embedded in ``examples/`` and in the
   paper-regenerating tests (``tests/test_paper_*.py``) must analyze
   without errors against a catalog assembled from all the DDL those
   same sources (and the bundled workloads) declare.  Unknown tables
   are tolerated — the catalog sweep is best-effort — but unknown
   columns, type mismatches and the rest of the ODB1xx family are not.
"""

import ast
import pathlib

from repro.analysis import (
    DiagnosticCollector,
    analyze_script,
    catalog_from_script,
)
from repro.analysis.cli import lint_directory

REPO = pathlib.Path(__file__).parent.parent
SCAN_FILES = sorted((REPO / "examples").rglob("*.py")) \
    + sorted((REPO / "tests").glob("test_paper_*.py"))
DDL_FILES = SCAN_FILES \
    + sorted((REPO / "src" / "repro" / "workloads").rglob("*.py"))

SQL_STARTERS = ("SELECT ", "INSERT ", "UPDATE ", "DELETE ",
                "CREATE ", "DROP ", "ALTER ")
#: errors tolerated in the embedded-SQL sweep: tables created at run
#: time by code we do not execute here resolve as unknown, and DDL
#: strings re-apply over the catalog the sweep itself assembled.
TOLERATED = {"ODB101"}
TOLERATED_MESSAGES = ("already exists",)
#: scripts whose whole point is to show broken SQL being caught.
EXCLUDED_FILES = {"artifact_linting.py"}


def _sql_strings(path):
    """(line, text) for every SQL-looking string constant in a file."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant) \
                or not isinstance(node.value, str):
            continue
        text = node.value.strip()
        if not text.upper().startswith(SQL_STARTERS):
            continue
        if "[Measures]" in text or "ON COLUMNS" in text:
            continue  # MDX, not SQL
        if text == text.upper():
            # All-caps fragments ("CREATE TABLE" used as a prefix
            # check) are not statements — real SQL in this repo always
            # names a lowercase table or column.
            continue
        yield node.lineno, node.value


def _global_catalog():
    """One catalog from all DDL strings the scanned sources declare."""
    ddl = []
    for path in DDL_FILES:
        for _line, text in _sql_strings(path):
            if text.strip().upper().startswith(("CREATE", "ALTER")):
                ddl.append(text if text.rstrip().endswith(";")
                           else text + ";")
    for path in sorted((REPO / "examples").rglob("*.sql")):
        ddl.append(path.read_text())
    catalog, _views = catalog_from_script("\n".join(ddl))
    return catalog


def test_shipped_artifact_directory_is_clean():
    collector = lint_directory(REPO / "examples" / "artifacts")
    assert not collector.has_errors(), collector.render()
    assert not collector.warnings, collector.render()


def test_embedded_sql_in_examples_and_paper_tests_is_clean():
    catalog = _global_catalog()
    collector = DiagnosticCollector()
    for path in SCAN_FILES:
        if path.name in EXCLUDED_FILES:
            continue
        label = str(path.relative_to(REPO))
        for line, text in _sql_strings(path):
            analyze_script(text, catalog, collector,
                           source=f"{label}:{line}")
    offending = [
        diagnostic for diagnostic in collector.errors
        if diagnostic.code not in TOLERATED
        and not any(needle in diagnostic.message
                    for needle in TOLERATED_MESSAGES)
    ]
    assert not offending, "\n".join(str(d) for d in offending)


def test_sweep_actually_finds_sql():
    """Guard against the scanner silently matching nothing."""
    found = sum(1 for path in SCAN_FILES for _ in _sql_strings(path))
    assert found >= 10
