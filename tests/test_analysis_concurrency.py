"""Golden negative-path tests for the lock-discipline analyzer.

Each test writes a small synthetic module that commits exactly one
concurrency sin and asserts the analyzer reports the exact ``ODBnnn``
code — and nothing else — so the diagnostic surface stays stable.
"""

import textwrap

from repro.analysis.concurrency import analyze_concurrency
from repro.analysis.diagnostics import Severity


def run_on(tmp_path, source, name="synthetic.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_concurrency(path)


def codes(collector):
    return sorted(diag.code for diag in collector.diagnostics)


class TestLockOrderInversion:
    def test_conflicting_orders_are_odb501(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Transfer:
                def __init__(self):
                    self._accounts = threading.Lock()
                    self._audit = threading.Lock()

                def debit(self):
                    with self._accounts:
                        with self._audit:
                            pass

                def audit_sweep(self):
                    with self._audit:
                        with self._accounts:
                            pass
            """)
        assert codes(collector) == ["ODB501"]
        (diagnostic,) = collector.diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert "Transfer._accounts" in diagnostic.message
        assert "Transfer._audit" in diagnostic.message
        # Both witness sites are named so the report is actionable.
        assert "debit" in diagnostic.message
        assert "audit_sweep" in diagnostic.message

    def test_consistent_order_is_clean(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Transfer:
                def __init__(self):
                    self._accounts = threading.Lock()
                    self._audit = threading.Lock()

                def debit(self):
                    with self._accounts:
                        with self._audit:
                            pass

                def credit(self):
                    with self._accounts:
                        with self._audit:
                            pass
            """)
        assert codes(collector) == []

    def test_inversion_through_method_call(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Ledger:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def outer(self):
                    with self._a:
                        self._log()

                def _log(self):
                    with self._b:
                        pass

                def reversed_outer(self):
                    with self._b:
                        with self._a:
                            pass
            """)
        assert codes(collector) == ["ODB501"]


class TestGuardedMutation:
    SOURCE = """\
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {{}}  # guarded-by: _lock

            def put(self, key, value):
                {body}
        """

    def test_unguarded_write_is_odb502(self, tmp_path):
        collector = run_on(tmp_path, self.SOURCE.format(
            body="self._entries[key] = value"))
        assert codes(collector) == ["ODB502"]
        (diagnostic,) = collector.diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert "_entries" in diagnostic.message
        assert "_lock" in diagnostic.message

    def test_guarded_write_is_clean(self, tmp_path):
        collector = run_on(tmp_path, self.SOURCE.format(
            body="with self._lock:\n"
                 "                    self._entries[key] = value"))
        assert codes(collector) == []

    def test_mutating_method_call_is_odb502(self, tmp_path):
        collector = run_on(tmp_path, self.SOURCE.format(
            body="self._entries.update({key: value})"))
        assert codes(collector) == ["ODB502"]

    def test_requires_contract_exempts_the_body(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lock

                def _put_locked(self, key, value):  # requires: _lock
                    self._entries[key] = value
            """)
        assert codes(collector) == []

    def test_init_writes_are_exempt(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lock
                    self._entries["seed"] = 1
            """)
        assert codes(collector) == []


class TestVirtualGuards:
    """The ``engine-exclusive`` discipline: a guard no class constructs.

    MVCC storage state is serialized by the *owning database's*
    exclusive lock, which TableStorage never sees.  The virtual guard
    keeps that contract checkable: annotated fields may only be
    mutated from ``__init__`` or from methods carrying the
    ``# requires: engine-exclusive`` caller contract.
    """

    SOURCE = """\
        class Storage:
            def __init__(self):
                self._versions = {{}}  # guarded-by: engine-exclusive

            def mutate(self, rowid, chain){contract}:
                self._versions[rowid] = chain
        """

    def test_mutation_without_contract_is_odb502(self, tmp_path):
        collector = run_on(tmp_path, self.SOURCE.format(contract=""))
        assert codes(collector) == ["ODB502"]
        (diagnostic,) = collector.diagnostics
        assert "_versions" in diagnostic.message
        assert "engine-exclusive" in diagnostic.message

    def test_requires_contract_satisfies_the_guard(self, tmp_path):
        collector = run_on(tmp_path, """\
            class Storage:
                def __init__(self):
                    self._versions = {}  # guarded-by: engine-exclusive

                def mutate(self, rowid, chain):  # requires: engine-exclusive
                    self._versions[rowid] = chain
            """)
        assert codes(collector) == []

    def test_virtual_guard_is_not_odb505(self, tmp_path):
        collector = run_on(tmp_path, """\
            class Storage:
                def __init__(self):
                    self._order = []  # guarded-by: engine-exclusive
            """)
        assert codes(collector) == []

    # ``engine-state``: the owning database's ``_state_lock``, the
    # guard of a compiled plan's remembered results.  The fixture is
    # the shape of ``SelectPlan.results`` and its two accessors.
    RESULT_MAP = """\
        from collections import OrderedDict

        class Plan:
            def __init__(self):
                self.results = OrderedDict()  # guarded-by: engine-state

            def reusable_result(self, key):  # requires: engine-state
                self.results.move_to_end(key)
                return self.results[key]

            def remember_result(self, key, payload):{contract}
                self.results[key] = payload
                if len(self.results) > 64:
                    self.results.popitem(last=False)
        """

    def test_result_map_mutated_outside_state_lock_is_odb502(
            self, tmp_path):
        collector = run_on(tmp_path, self.RESULT_MAP.format(contract=""))
        assert codes(collector) == ["ODB502", "ODB502"]
        for diagnostic in collector.diagnostics:
            assert "Plan.results" in diagnostic.message
            assert "engine-state" in diagnostic.message
            assert "remember_result" in diagnostic.message

    def test_result_map_under_the_caller_contract_is_clean(
            self, tmp_path):
        collector = run_on(tmp_path, self.RESULT_MAP.format(
            contract="  # requires: engine-state"))
        assert codes(collector) == []

    def test_unknown_hyphenated_guard_is_still_odb505(self, tmp_path):
        collector = run_on(tmp_path, """\
            class Storage:
                def __init__(self):
                    self._order = []  # guarded-by: gateway-exclusive
            """)
        assert codes(collector) == ["ODB505"]


class TestBlockingUnderLock:
    def test_fsync_under_exclusive_lock_is_odb503(self, tmp_path):
        collector = run_on(tmp_path, """\
            import os
            import threading

            class Journal:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self, fd):
                    with self._lock:
                        os.fsync(fd)
            """)
        assert codes(collector) == ["ODB503"]
        (diagnostic,) = collector.diagnostics
        assert diagnostic.severity is Severity.WARNING
        assert "os.fsync" in diagnostic.message

    def test_sleep_under_rwlock_exclusive_is_odb503(self, tmp_path):
        collector = run_on(tmp_path, """\
            import time
            from repro.engine.locking import WriterLock

            class Poller:
                def __init__(self):
                    self._lock = WriterLock()

                def rebuild(self):
                    with self._lock.exclusive():
                        time.sleep(0.1)
            """)
        assert codes(collector) == ["ODB503"]

    def test_blocking_annotated_method_under_lock_is_odb503(
            self, tmp_path):
        # The exact pre-fix ShardMap shape: route_read held the global
        # map lock across shard.poll_replicas() — WAL disk I/O for one
        # shard stalling routing for all of them.  The ``# blocking:``
        # annotation makes that regression a lint failure.
        collector = run_on(tmp_path, """\
            import threading

            class Replica:
                def poll(self):  # blocking: tails the primary's on-disk WAL
                    return 0

            class ShardMapish:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.replica = Replica()

                def route_read(self):
                    with self._lock:
                        return self.replica.poll()
            """)
        assert codes(collector) == ["ODB503"]
        (diagnostic,) = collector.diagnostics
        assert "self.replica.poll" in diagnostic.message
        assert "tails the primary's on-disk WAL" in diagnostic.message

    def test_blocking_annotated_call_outside_lock_is_clean(
            self, tmp_path):
        # The post-fix shape: snapshot under the lock, poll outside.
        collector = run_on(tmp_path, """\
            import threading

            class Replica:
                def poll(self):  # blocking: tails the primary's on-disk WAL
                    return 0

            class ShardMapish:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.replicas = [Replica()]

                def route_read(self):
                    with self._lock:
                        replicas = list(self.replicas)
                    for replica in replicas:
                        replica.poll()
                    return len(replicas)
            """)
        assert codes(collector) == []

    def test_blocking_annotation_spans_files(self, tmp_path):
        # The annotation registry is analyzer-wide: a method declared
        # blocking in one module flags a locked call in another.
        from repro.analysis.concurrency import ConcurrencyAnalyzer

        provider = tmp_path / "replica.py"
        provider.write_text(textwrap.dedent("""\
            class Replica:
                def poll(self):  # blocking: disk I/O
                    return 0
            """))
        consumer = tmp_path / "router.py"
        consumer.write_text(textwrap.dedent("""\
            import threading

            class Router:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.replica = None

                def route(self):
                    with self._lock:
                        return self.replica.poll()
            """))
        analyzer = ConcurrencyAnalyzer()
        analyzer.add_file(provider, "replica.py")
        analyzer.add_file(consumer, "router.py")
        collector = analyzer.run()
        assert codes(collector) == ["ODB503"]


class TestReacquisitionAndAnnotations:
    def test_nested_nonreentrant_lock_is_odb504(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """)
        assert codes(collector) == ["ODB504"]
        (diagnostic,) = collector.diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert "self-deadlock" in diagnostic.message

    def test_nested_rlock_is_clean(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Meter:
                def __init__(self):
                    self._lock = threading.RLock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """)
        assert codes(collector) == []

    def test_unknown_guard_name_is_odb505(self, tmp_path):
        collector = run_on(tmp_path, """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lokc
            """)
        assert codes(collector) == ["ODB505"]
        (diagnostic,) = collector.diagnostics
        assert diagnostic.severity is Severity.WARNING
        assert "_lokc" in diagnostic.message


class TestEntryPoints:
    def test_directory_and_file_inputs_agree(self, tmp_path):
        source = """\
            import threading

            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        from_file = run_on(tmp_path, source)
        from_dir = analyze_concurrency(tmp_path)
        assert codes(from_file) == codes(from_dir) == ["ODB504"]

    def test_cli_concurrency_subcommand(self, tmp_path, capsys):
        from repro.analysis.cli import main

        (tmp_path / "bad.py").write_text(textwrap.dedent("""\
            import threading

            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """))
        assert main(["concurrency", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ODB504" in out
        assert "1 error(s)" in out

    def test_cli_usage_errors(self, tmp_path, capsys):
        from repro.analysis.cli import main

        assert main(["concurrency"]) == 2
        assert main(["concurrency", str(tmp_path / "missing")]) == 2
