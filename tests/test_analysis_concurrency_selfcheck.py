"""The repo lints its own lock discipline (tier-1).

Any new ``ODB5xx`` diagnostic against ``src/repro`` fails this test:
either the flagged code is a real hazard (fix the code) or the
analyzer misjudged an idiom (fix the analyzer) — both are bugs worth
stopping a merge for.  The check also asserts the run is *non-vacuous*
— the analyzer must actually have discovered the engine's locks — so
a regression that blinds the scanner cannot masquerade as a clean
pass.
"""

from pathlib import Path

from repro.analysis.concurrency import ConcurrencyAnalyzer, analyze_concurrency

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_source_tree_exists():
    assert SOURCE_ROOT.is_dir()


def test_repo_lock_discipline_is_clean():
    collector = analyze_concurrency(SOURCE_ROOT)
    assert not collector.diagnostics, "\n".join(
        str(diagnostic) for diagnostic in collector.sorted())


def test_selfcheck_is_not_vacuous():
    analyzer = ConcurrencyAnalyzer()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        analyzer.add_file(path)
    analyzer.run()
    lock_owners = {
        (scan.label, class_name)
        for scan in analyzer._scans
        for class_name, info in scan.classes.items()
        if info.locks
    }
    guarded = sum(
        len(info.guards)
        for scan in analyzer._scans
        for info in scan.classes.values()
    )
    # The engine's core locking surfaces must all be visible.
    names = {class_name for _, class_name in lock_owners}
    assert {"Database", "WriterLock", "RequestGateway",
            "ShardMap", "TenantManager"} <= names, sorted(names)
    assert guarded >= 20, guarded
    # The result cache's shared state is annotated where it lives: the
    # per-plan map and the database's kept join hashes under the
    # database's state mutex (a virtual guard), and the caches and
    # counters beside them under the mutex itself.
    notes = {
        (class_name, note.attr): note.guard
        for scan in analyzer._scans
        for class_name, info in scan.classes.items()
        for note in info.guards
    }
    assert notes["SelectPlan", "results"] == "engine-state"
    assert notes["Database", "_join_hashes"] == "engine-state"
    for attr in ("_plan_cache", "_statement_cache", "statistics"):
        assert notes["Database", attr] == "_state_lock"
    requires = {
        (class_name, method): guards
        for scan in analyzer._scans
        for class_name, info in scan.classes.items()
        for method, guards in info.requires.items()
    }
    assert requires["SelectPlan", "reusable_result"] == {"engine-state"}
    assert requires["SelectPlan", "remember_result"] == {"engine-state"}
    assert requires["Database", "_keep_join_hash"] == {"engine-state"}
    assert requires["Database", "_drop_join_hashes"] == {"engine-state"}


def test_cli_self_run_is_clean(capsys):
    from repro.analysis.cli import main

    assert main(["concurrency", str(SOURCE_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out
