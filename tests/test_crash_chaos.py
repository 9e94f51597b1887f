"""The crash-chaos battery (``pytest -m recovery``).

Kill-at-every-boundary: a scripted ≥50-transaction workload runs once
to produce the golden WAL plus the fingerprint of the database after
every commit; then the "process" is killed at every record boundary
(and at mid-frame offsets) of that log, and each recovery must rebuild
exactly the committed prefix — never a torn row, never a lost
acknowledged commit, never a resurrected aborted transaction.

Everything is deterministic by seed: the same seed replays the same
workload, the same WAL bytes and the same fingerprints, so a failure
here is reproducible byte-for-byte.

The same frames cover the platform database, where the platform keeps
its own state: a scripted platform run is killed before each commit
its platform database makes, and the recovered platform must hold the
registry, run history, job postures, clock and dead letters of exactly
the committed prefix.
"""

import random
import shutil
import threading

import pytest

from repro.core import OdbisPlatform
from repro.core.resilience import FakeClock, FaultInjector
from repro.engine.database import Database
from repro.engine.wal import MAGIC, read_log
from repro.errors import CrashPoint
from repro.etl import CallableSource, RowsSource, Schedule

pytestmark = pytest.mark.recovery

SEED = 0xB15
N_TRANSACTIONS = 60
WAIT = 60.0


def scripted_workload(seed=SEED, transactions=N_TRANSACTIONS):
    """Yield ``transactions`` mutation scripts, deterministically.

    Each yielded item is a list of (sql, params) statements forming
    one transaction (a single-statement list is an autocommit).
    """
    rng = random.Random(seed)
    yield [("CREATE TABLE ledger (id INTEGER PRIMARY KEY, "
            "account TEXT, amount INTEGER)", ())]
    yield [("CREATE INDEX idx_account ON ledger (account)", ())]
    next_id = [1]
    for step in range(transactions - 2):
        roll = rng.random()
        if roll < 0.45:
            rows = []
            for _ in range(rng.randint(1, 4)):
                rows.append(("INSERT INTO ledger VALUES (?, ?, ?)",
                             (next_id[0], f"acct{rng.randint(0, 5)}",
                              rng.randint(-100, 100))))
                next_id[0] += 1
            yield rows
        elif roll < 0.65 and next_id[0] > 1:
            target = rng.randint(1, next_id[0] - 1)
            yield [("UPDATE ledger SET amount = amount + ? "
                    "WHERE id = ?", (rng.randint(1, 9), target))]
        elif roll < 0.8 and next_id[0] > 1:
            target = rng.randint(1, next_id[0] - 1)
            yield [("DELETE FROM ledger WHERE id = ?", (target,))]
        elif roll < 0.9:
            yield [(f"CREATE VIEW v{step} AS SELECT account, amount "
                    f"FROM ledger WHERE amount > {rng.randint(0, 50)}",
                    ())]
        else:
            rows = [("INSERT INTO ledger VALUES (?, ?, ?)",
                     (next_id[0] + i, "batch", i)) for i in range(3)]
            next_id[0] += 3
            yield rows


def apply_transaction(db, statements):
    if len(statements) == 1:
        sql, params = statements[0]
        db.execute(sql, params)
    else:
        with db.transaction():
            for sql, params in statements:
                db.execute(sql, params)


def golden_run(directory, seed=SEED):
    """Run the scripted workload; return (wal bytes, fingerprints).

    ``fingerprints[k]`` is the state after the first ``k`` WAL
    commits (``fingerprints[0]`` is the empty database).  A scripted
    transaction that touches zero rows writes no commit record — and
    changes no state — so fingerprints are indexed by commit count,
    not transaction count.
    """
    db = Database.recover(directory, "main", fsync="off")
    fingerprints = [db.state_fingerprint()]
    for statements in scripted_workload(seed):
        apply_transaction(db, statements)
        if db.wal.commits > len(fingerprints) - 1:
            fingerprints.append(db.state_fingerprint())
    db.close()
    return (directory / "main.wal").read_bytes(), fingerprints


class TestKillAtEveryBoundary:
    def test_every_prefix_recovers_to_its_committed_state(
            self, tmp_path):
        golden_dir = tmp_path / "golden"
        golden_dir.mkdir()
        wal_bytes, fingerprints = golden_run(golden_dir)

        entries, good_length, reason = read_log(golden_dir / "main.wal")
        assert reason is None and good_length == len(wal_bytes)
        commit_ends = [end for record, end in entries
                       if record[0] == "commit"]
        assert len(commit_ends) == len(fingerprints) - 1
        assert len(commit_ends) >= 50  # the E15 acceptance floor

        # Kill points: the file start, every record boundary, and a
        # cut 3 bytes into every frame (a torn header or payload).
        frame_ends = [end for _, end in entries]
        cuts = {len(MAGIC)}
        cuts.update(frame_ends)
        cuts.update(min(end + 3, len(wal_bytes))
                    for end in [len(MAGIC)] + frame_ends[:-1])

        crash_dir = tmp_path / "crash"
        for cut in sorted(cuts):
            if crash_dir.exists():
                shutil.rmtree(crash_dir)
            crash_dir.mkdir()
            (crash_dir / "main.wal").write_bytes(wal_bytes[:cut])
            recovered = Database.recover(crash_dir, "main",
                                         fsync="off")
            survived = sum(1 for end in commit_ends if end <= cut)
            assert recovered.state_fingerprint() \
                == fingerprints[survived], \
                f"cut at byte {cut}: expected the state after " \
                f"{survived} commits"
            recovered.close()

    def test_same_seed_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir(), second.mkdir()
        bytes_a, prints_a = golden_run(first)
        bytes_b, prints_b = golden_run(second)
        assert bytes_a == bytes_b
        assert prints_a == prints_b


class TestLiveCrashInjection:
    """Crash points cut the byte stream *during* the workload."""

    @pytest.mark.parametrize("crash_offset", [
        len(MAGIC) + 1,      # dies tearing the very first frame
        500, 2_000, 9_999,   # arbitrary mid-log offsets
    ])
    def test_injected_crash_recovers_committed_prefix(
            self, tmp_path, crash_offset):
        golden_dir = tmp_path / "golden"
        golden_dir.mkdir()
        wal_bytes, fingerprints = golden_run(golden_dir)
        entries, _, _ = read_log(golden_dir / "main.wal")
        commit_ends = [end for record, end in entries
                       if record[0] == "commit"]

        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        faults = FaultInjector()
        faults.crash_at("wal.append", crash_offset)
        db = Database.recover(crash_dir, "main", fsync="off",
                              faults=faults)
        died = False
        try:
            for statements in scripted_workload():
                apply_transaction(db, statements)
        except CrashPoint as crash:
            died = True
            assert crash.offset == crash_offset
        assert died or crash_offset >= len(wal_bytes)

        # The torn file on disk is exactly the golden prefix.
        torn = (crash_dir / "main.wal").read_bytes()
        if died:
            assert torn == wal_bytes[:crash_offset]
        recovered = Database.recover(crash_dir, "main", fsync="off")
        survived = sum(1 for end in commit_ends if end <= len(torn))
        assert recovered.state_fingerprint() == fingerprints[survived]
        recovered.close()


class TestConcurrentWorkloadRoundTrip:
    """The E13 shape: threaded mixed writes, then recover and agree."""

    N_WORKERS = 8

    def run_concurrent_workload(self, directory, compile):
        db = Database.recover(directory, "main", fsync="off",
                              compile=compile)
        db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, "
                   "owner TEXT, qty INTEGER)")
        barrier = threading.Barrier(self.N_WORKERS)
        errors = []

        def worker(wid):
            try:
                barrier.wait(timeout=WAIT)
                owner = f"w{wid}"
                for i in range(15):
                    db.execute("INSERT INTO items VALUES (?, ?, ?)",
                               (wid * 100 + i, owner, i))
                db.executemany(
                    "UPDATE items SET qty = qty + ? WHERE id = ?",
                    [(1, wid * 100 + i) for i in range(0, 15, 3)])
                with db.transaction():
                    db.execute("DELETE FROM items WHERE id = ?",
                               (wid * 100 + 14,))
                    db.execute("INSERT INTO items VALUES (?, ?, ?)",
                               (wid * 100 + 50, owner, 999))
            except BaseException as exc:  # noqa: BLE001
                errors.append((wid, exc))

        threads = [threading.Thread(target=worker, args=(wid,))
                   for wid in range(self.N_WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
        assert not [t for t in threads if t.is_alive()], "deadlock"
        assert not errors, errors[0]
        fingerprint = db.state_fingerprint()
        totals = db.query("SELECT owner, COUNT(*) AS n, "
                          "SUM(qty) AS total FROM items "
                          "GROUP BY owner ORDER BY owner")
        db.close()
        return fingerprint, totals

    @pytest.mark.parametrize("compile", [True, False])
    def test_recovery_round_trips_the_live_state(self, tmp_path,
                                                 compile):
        live_fingerprint, live_totals = self.run_concurrent_workload(
            tmp_path, compile)
        recovered = Database.recover(tmp_path, "main", fsync="off",
                                     compile=compile)
        assert recovered.state_fingerprint() == live_fingerprint
        assert recovered.query(
            "SELECT owner, COUNT(*) AS n, SUM(qty) AS total "
            "FROM items GROUP BY owner ORDER BY owner") == live_totals
        recovered.close()

    def test_compiled_and_interpreted_recoveries_agree(self, tmp_path):
        compiled_dir = tmp_path / "compiled"
        interpreted_dir = tmp_path / "interpreted"
        compiled_dir.mkdir(), interpreted_dir.mkdir()
        self.run_concurrent_workload(compiled_dir, True)
        self.run_concurrent_workload(interpreted_dir, False)
        compiled = Database.recover(compiled_dir, "main",
                                    fsync="off", compile=True)
        interpreted = Database.recover(interpreted_dir, "main",
                                       fsync="off", compile=False)
        sql = ("SELECT owner, COUNT(*) AS n, SUM(qty) AS total "
               "FROM items GROUP BY owner ORDER BY owner")
        assert compiled.query(sql) == interpreted.query(sql)
        # Thread scheduling differs between the two runs, so internal
        # rowid allocation order differs — the *logical* contents
        # must still agree row for row across executors.
        contents = "SELECT id, owner, qty FROM items ORDER BY id"
        assert compiled.query(contents) == interpreted.query(contents)
        compiled.close()
        interpreted.close()


def always_down():
    raise OSError("upstream gone")


def schedule_jobs(platform):
    """Define and schedule acme's healthy and doomed jobs."""
    integration = platform.integration
    integration.define_job("acme", "tick", RowsSource([{"x": 1}]))
    integration.schedule_job("acme", "tick", Schedule(every_minutes=10))
    integration.define_job("acme", "doomed", CallableSource(always_down))
    integration.schedule_job("acme", "doomed",
                             Schedule(every_minutes=10))


def platform_script(platform):
    """Every kind of platform-state write, in a fixed order."""
    platform.provisioning.provision("acme", "Acme", plan="team")
    platform.provisioning.provision("globex", "Globex")
    platform.provisioning.deprovision("globex")
    schedule_jobs(platform)
    integration = platform.integration
    for _ in range(integration.QUARANTINE_AFTER + 1):
        integration.advance_clock(10)
    assert integration.quarantined_jobs("acme") == ["doomed"]
    integration.unquarantine_job("acme", "doomed")
    bus = platform.resources.bus
    bus.create_channel("orders")

    def broken(message):
        raise RuntimeError("handler down")

    bus.service_activator("orders", broken)
    bus.send("orders", {"order": 1})


def table_state(database):
    """The platform state a platform database holds, read as rows."""
    postures = {
        row["job"]: (row["runs"], row["consecutive_failures"],
                     row["quarantined"])
        for row in database.query(
            "SELECT job, runs, consecutive_failures, quarantined "
            "FROM etl_jobs")}
    return {
        "registry": [tuple(row.values()) for row in database.query(
            "SELECT tenant, display_name, plan, active "
            "FROM platform_tenants ORDER BY tenant")],
        "runs": [tuple(row.values()) for row in database.query(
            "SELECT tenant, job, status, rows_written FROM etl_runs "
            "ORDER BY tenant, id")],
        "postures": {job: posture for job, posture in postures.items()
                     if posture != (0, 0, False)},
        "clock": database.query_value(
            "SELECT MAX(minute) FROM etl_clock") or 0,
        "dead_letters": database.query_value(
            "SELECT COUNT(*) FROM esb_dead_letters"),
    }


def served_state(platform):
    """The same state as a live or recovered platform serves it."""
    tenants = platform.tenants
    contexts = [tenants.context(tenant) for tenant in tenants.tenant_ids()]
    postures = {}
    if "acme" in tenants.tenant_ids():
        if not platform.integration.jobs("acme"):
            schedule_jobs(platform)
        for name in platform.integration.scheduler.scheduled_jobs():
            entry = platform.integration.scheduler.entry(name)
            posture = (entry.runs, entry.consecutive_failures,
                       entry.quarantined)
            if posture != (0, 0, False):
                postures[name] = posture
    return {
        "registry": [(context.tenant_id, context.display_name,
                      context.plan, context.active)
                     for context in contexts],
        "runs": [(entry["tenant"], entry["job"], entry["status"],
                  entry["rows_written"])
                 for context in contexts
                 for entry in platform.integration.run_history(
                     context.tenant_id)],
        "postures": postures,
        "clock": platform.integration.scheduler.now,
        "dead_letters": len(platform.resources.bus.dead_letters),
    }


class TestPlatformDatabaseCrashFrames:
    """Kill a scripted platform run at every commit boundary of its
    platform database's WAL; recovery yields the committed prefix."""

    def build(self, directory):
        return OdbisPlatform(data_dir=directory, fsync="off",
                             clock=FakeClock())

    def test_every_platform_commit_boundary_recovers_its_prefix(
            self, tmp_path):
        golden = self.build(tmp_path / "golden")
        first = golden.tenants.platform_db.wal.commits
        platform_script(golden)
        wal = golden.tenants.platform_db.wal
        assert table_state(golden.tenants.platform_db) \
            == served_state(golden)
        ends = list(wal.commit_offsets)
        golden.close()
        golden.gateway.shutdown()
        log = (tmp_path / "golden" / "tenants" / "platform.wal") \
            .read_bytes()
        assert len(ends) - first >= 10

        for survived in range(first, len(ends)):
            prefix_dir = tmp_path / f"prefix-{survived}"
            prefix_dir.mkdir()
            (prefix_dir / "platform.wal").write_bytes(
                log[:ends[survived - 1]])
            prefix = Database.recover(prefix_dir, "platform", fsync="off")
            expected = table_state(prefix)
            prefix.close()

            crash_dir = tmp_path / f"crash-{survived}"
            platform = self.build(crash_dir)
            wal = platform.tenants.platform_db.wal
            commit = wal.commit

            def crash_before_commit(ops, wal=wal, commit=commit,
                                    faults=platform.faults,
                                    survived=survived):
                if wal.commits == survived:
                    faults.crash_at("wal.append", wal.offset)
                return commit(ops)

            wal.commit = crash_before_commit
            with pytest.raises(CrashPoint):
                platform_script(platform)
            parked = [message.message_id
                      for message in platform.resources.bus.dead_letters]
            platform.gateway.shutdown()

            recovered = self.build(crash_dir)
            try:
                database = recovered.tenants.platform_db
                assert table_state(database) == expected, survived
                assert served_state(recovered) == expected, survived
                assert [message.message_id for message
                        in recovered.resources.bus.dead_letters] \
                    == parked[:expected["dead_letters"]]
                for tenant in recovered.tenants.tenant_ids():
                    assert recovered.admin.accounts_of_tenant(
                        tenant).count(f"admin@{tenant}") == 1
            finally:
                recovered.close()
                recovered.gateway.shutdown()

