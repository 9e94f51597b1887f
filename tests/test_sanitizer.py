"""Runtime race/deadlock sanitizer battery (``pytest -m sanitize``).

Three layers:

* unit tests for the :class:`WriterLock` introspection API the
  sanitizer leans on;
* unit tests that each sanitizer invariant actually fires on an
  induced violation (a checker that can't fail is no checker);
* full reruns of the PR 3 stress battery and the PR 5 crash-chaos
  battery with ``REPRO_SANITIZE=1``, asserting the sanitizer observed
  real traffic and recorded **zero** violations.
"""

import threading

import pytest

from repro.analysis.concurrency import (
    SANITIZE_ENV,
    ConcurrencySanitizer,
    SanitizedWriterLock,
    StorageMonitor,
    default_sanitizer,
    reset_default_sanitizer,
    sanitize_enabled,
)
from repro.engine.database import Database
from repro.engine.locking import WriterLock

import tests.test_bugfix_regressions as bugfix
import tests.test_concurrency_stress as stress
import tests.test_crash_chaos as chaos
import tests.test_sharding as sharding
import tests.test_supervision as supervision
import tests.test_transaction_scope as scope
import tests.test_wal_recovery as recovery

pytestmark = pytest.mark.sanitize

WAIT = 60.0


@pytest.fixture
def sanitized_env(monkeypatch):
    """REPRO_SANITIZE=1 plus a fresh process-wide sanitizer."""
    monkeypatch.setenv(SANITIZE_ENV, "1")
    sanitizer = reset_default_sanitizer()
    yield sanitizer
    reset_default_sanitizer()


# -- WriterLock introspection ------------------------------------------------------


class TestReadWriteLockIntrospection:
    def test_idle_lock_reports_nothing(self):
        lock = WriterLock()
        assert lock.owner() is None
        assert not lock.owned_exclusively()

    def test_exclusive_hold_is_visible(self):
        lock = WriterLock()
        with lock.exclusive():
            assert lock.owner() == threading.get_ident()
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(
                    (lock.owner(), lock.owned_exclusively())))
            thread.start()
            thread.join(timeout=WAIT)
            # Another thread sees who holds it, and that it does not.
            assert seen == [(threading.get_ident(), False)]
        assert lock.owner() is None

    def test_release_without_acquire_raises(self):
        lock = WriterLock()
        with pytest.raises(RuntimeError):
            lock.release_write()


# -- sanitizer invariants fire on induced violations --------------------------------


class TestSanitizerDetections:
    def test_lock_order_inversion_is_reported(self):
        sanitizer = ConcurrencySanitizer()
        lock_a = SanitizedWriterLock("A", sanitizer)
        lock_b = SanitizedWriterLock("B", sanitizer)
        with lock_a.exclusive():
            with lock_b.exclusive():
                pass
        assert not sanitizer.reports  # one order alone is fine
        with lock_b.exclusive():
            with lock_a.exclusive():
                pass
        kinds = [report.kind for report in sanitizer.reports]
        assert kinds == ["lock-order-inversion"]
        message = sanitizer.reports[0].message
        assert "A" in message and "B" in message
        with pytest.raises(AssertionError):
            sanitizer.assert_clean()

    def test_inversion_reported_once_not_per_acquisition(self):
        sanitizer = ConcurrencySanitizer()
        lock_a = SanitizedWriterLock("A", sanitizer)
        lock_b = SanitizedWriterLock("B", sanitizer)
        for _ in range(5):
            with lock_a.exclusive(), lock_b.exclusive():
                pass
            with lock_b.exclusive(), lock_a.exclusive():
                pass
        assert len(sanitizer.reports) == 1

    def test_reentrant_holds_do_not_make_edges(self):
        sanitizer = ConcurrencySanitizer()
        lock = SanitizedWriterLock("solo", sanitizer)
        with lock.exclusive():
            with lock.exclusive():
                pass
        sanitizer.assert_clean()
        assert sanitizer.acquisitions == 2

    def test_unsynchronized_write_is_reported(self, sanitized_env):
        db = Database("rogue-write")
        db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        sanitized_env.assert_clean()
        db._storages["t"].insert([999, "rogue"])
        kinds = [report.kind for report in sanitized_env.reports]
        assert kinds == ["unsynchronized-write"]
        details = dict(sanitized_env.reports[0].details)
        assert details["table"] == "t"
        assert details["database"] == "rogue-write"

    def test_reader_sees_writer_is_reported(self, sanitized_env):
        db = Database("torn-read")
        db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        sanitized_env.assert_clean()

        holding = threading.Event()
        release = threading.Event()

        def writer():
            with db._lock.exclusive():
                holding.set()
                release.wait(timeout=WAIT)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert holding.wait(timeout=WAIT)
            list(db._storages["t"].scan())  # lockless dirty read
        finally:
            release.set()
            thread.join(timeout=WAIT)
        kinds = [report.kind for report in sanitized_env.reports]
        assert "reader-sees-writer" in kinds

    def test_recovery_replay_is_exempt(self, sanitized_env, tmp_path):
        db = Database.recover(tmp_path, "main", fsync="off")
        db.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x"))
        db.close()
        recovered = Database.recover(tmp_path, "main", fsync="off")
        assert recovered.sanitizer is sanitized_env
        assert recovered.query(
            "SELECT COUNT(*) AS n FROM t")[0]["n"] == 10
        recovered.close()
        sanitized_env.assert_clean()


class TestEnvironmentGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitize_enabled()
        db = Database("plain")
        assert db.sanitizer is None
        assert type(db._lock) is WriterLock

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_enabled()

    def test_env_var_sanitizes_databases(self, sanitized_env):
        db = Database("gated")
        assert db.sanitizer is sanitized_env
        assert isinstance(db._lock, SanitizedWriterLock)
        db.execute("CREATE TABLE t (id INTEGER)")
        assert db._storages["t"]._monitor is not None

    def test_explicit_flag_beats_environment(self, sanitized_env):
        db = Database("opted-out", sanitize=False)
        assert db.sanitizer is None

    def test_reset_installs_a_fresh_default(self):
        first = reset_default_sanitizer()
        assert default_sanitizer() is first
        second = reset_default_sanitizer()
        assert second is not first
        assert default_sanitizer() is second


# -- the real batteries, sanitized --------------------------------------------------


class TestStressBatterySanitized:
    """PR 3's stress scenarios with every database sanitized."""

    def test_engine_stress_runs_clean(self, sanitized_env):
        battery = stress.TestEngineStress()
        battery.test_mixed_workload_compiled_equals_interpreted()
        battery.test_transaction_scopes_prevent_lost_updates()
        battery.test_plan_and_statement_caches_survive_ddl_churn()
        battery.test_statistics_are_not_lost_under_contention()
        # MVCC reads take no lock, so acquisitions alone would go
        # vacuous; snapshot reads are the read-side liveness signal.
        assert sanitized_env.acquisitions \
            + sanitized_env.snapshot_reads > 1000
        assert sanitized_env.snapshot_reads > 0
        sanitized_env.assert_clean()

    def test_result_reuse_stress_runs_clean(self, sanitized_env):
        battery = stress.TestResultReuseStress()
        battery.test_every_answer_is_a_committed_prefix()
        # A reused result skips the scan, so the read-side liveness
        # signal counts recomputations only: the writers commit often
        # enough that there is at least one per committed round.
        kept = battery.ROUNDS - battery.ROUNDS // 5
        assert sanitized_env.snapshot_reads >= kept * battery.N_WRITERS
        assert sanitized_env.acquisitions > 100
        sanitized_env.assert_clean()

    def test_cross_thread_scopes_run_clean(self, sanitized_env, tmp_path):
        """The transaction-scope regressions: another thread's open
        transaction, nested scopes and failed statements."""
        battery = scope.TestCrossThreadScopes()
        battery.test_another_threads_transaction_is_not_mine()
        battery.test_save_waits_for_the_lock(tmp_path)
        battery.test_etl_load_stays_atomic()
        battery.test_orm_flush_stays_atomic()
        bugfix.TestExecutemanyAtomicity() \
            .test_batch_on_another_thread_stays_atomic()
        nested = scope.TestNestedScopes()
        for name in dir(nested):
            if name.startswith("test_"):
                getattr(nested, name)()
        assert sanitized_env.acquisitions > 0
        sanitized_env.assert_clean()

    def test_tenant_stress_runs_clean(self, sanitized_env):
        battery = stress.TestTenantStress()
        battery.test_shared_mode_tenants_serialize_writes_correctly()
        battery.test_isolated_mode_tenants_run_in_parallel()
        assert sanitized_env.acquisitions \
            + sanitized_env.snapshot_reads > 100
        sanitized_env.assert_clean()


class TestCrashBatterySanitized:
    """PR 5's crash-chaos scenarios with every database sanitized."""

    def test_golden_runs_are_still_deterministic(self, sanitized_env,
                                                 tmp_path):
        battery = chaos.TestKillAtEveryBoundary()
        battery.test_same_seed_is_byte_identical(tmp_path)
        assert sanitized_env.acquisitions > 100
        sanitized_env.assert_clean()

    def test_live_crash_injection_runs_clean(self, sanitized_env,
                                             tmp_path):
        battery = chaos.TestLiveCrashInjection()
        battery.test_injected_crash_recovers_committed_prefix(
            tmp_path, crash_offset=2_000)
        sanitized_env.assert_clean()

    def test_concurrent_round_trip_runs_clean(self, sanitized_env,
                                              tmp_path):
        battery = chaos.TestConcurrentWorkloadRoundTrip()
        battery.test_recovery_round_trips_the_live_state(
            tmp_path, compiled=True)
        assert sanitized_env.acquisitions > 100
        sanitized_env.assert_clean()

    def test_failover_and_recovery_regressions_run_clean(
            self, sanitized_env, tmp_path):
        """Promotion is recovery: the failover and recovery regressions
        of ``Database.take_over_log``, every database sanitized."""
        from repro.core.resilience import FakeClock, FaultInjector

        failover = sharding.TestFailover()
        failover \
            .test_partitioned_replica_is_promoted_with_every_acknowledged_write(
                tmp_path / "promote")
        failover.test_replica_behind_a_checkpoint_is_not_promoted(
            tmp_path / "behind")
        supervision.TestAntiEntropy() \
            .test_replicas_stay_a_prefix_of_a_primary_promoted_past_a_partition(
                tmp_path / "audit", FakeClock(), FaultInjector())
        recovery.TestDatabaseRecover() \
            .test_a_lost_checkpoint_snapshot_is_refused_not_skipped(
                tmp_path / "lost")
        assert sanitized_env.acquisitions > 0
        sanitized_env.assert_clean()
