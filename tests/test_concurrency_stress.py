"""Deterministic concurrency stress harness (``pytest -m stress``).

Barrier-orchestrated interleavings of mixed read/write/DDL/transaction
workloads across ≥8 worker threads, doubling as the race regression
suite: every scenario is phase-aligned with :class:`threading.Barrier`
so each phase's *observable* results are deterministic even though the
statement interleaving inside a phase is not.  Each engine scenario
runs twice — on a ``Database`` and on the reference interpreter's
``ReferenceDatabase`` (``tests/reference.py``) — and the two
per-thread result logs must be identical, so compiled plans and the
interpreter agree under contention.

These tests run in the tier-1 suite; a race that corrupts state or
deadlocks (the barrier/join timeouts catch hangs) fails the build.
"""

import sys
import threading
import time

import pytest

from repro.engine import Database, WriterLock
from repro.core.tenancy import TenancyMode, TenantManager
from tests.reference import ReferenceDatabase, execute_select

pytestmark = pytest.mark.stress

N_WORKERS = 8
WAIT = 60.0  # barrier/join timeout: a deadlock fails, not hangs


def run_workers(worker, n_workers=N_WORKERS):
    """Run ``worker(wid)`` on n threads; re-raise the first failure."""
    errors = []

    def guarded(wid):
        try:
            worker(wid)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append((wid, exc))

    threads = [threading.Thread(target=guarded, args=(wid,),
                                name=f"stress-{wid}")
               for wid in range(n_workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    alive = [thread.name for thread in threads if thread.is_alive()]
    assert not alive, f"workers deadlocked: {alive}"
    if errors:
        wid, exc = errors[0]
        raise AssertionError(f"worker {wid} failed: {exc!r}") from exc


class TestReadWriteLock:
    """The engine's :class:`WriterLock`."""

    def test_writer_excludes_everyone(self):
        lock = WriterLock()
        counter = {"value": 0, "max_inside": 0}

        def worker(wid):
            for _ in range(200):
                with lock.exclusive():
                    counter["value"] += 1
                    counter["max_inside"] = max(
                        counter["max_inside"], 1)

        run_workers(worker)
        assert counter["value"] == N_WORKERS * 200

    def test_writer_is_reentrant(self):
        lock = WriterLock()
        with lock.exclusive():
            with lock.exclusive():
                assert lock.owned_exclusively()
            assert lock.owned_exclusively()
        assert not lock.owned_exclusively()


def _stress_scenario(engine):
    """One full mixed workload; returns (db, per-thread result logs)."""
    database = engine("stress")
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, owner TEXT, "
        "qty INTEGER)")
    database.execute(
        "CREATE TABLE audit (aid INTEGER PRIMARY KEY, actor TEXT)")
    barrier = threading.Barrier(N_WORKERS)
    logs = [[] for _ in range(N_WORKERS)]

    def worker(wid):
        log = logs[wid]
        owner = f"w{wid}"
        # Phase 1 — concurrent writes on disjoint key ranges.
        barrier.wait(timeout=WAIT)
        for i in range(20):
            database.execute("INSERT INTO items VALUES (?, ?, ?)",
                             (wid * 100 + i, owner, i))
        # Phase 2 — all threads read the now-settled state at once.
        barrier.wait(timeout=WAIT)
        log.append(database.query(
            "SELECT COUNT(*) AS n FROM items"))
        log.append(database.query(
            "SELECT owner, SUM(qty) AS total FROM items "
            "GROUP BY owner ORDER BY owner"))
        log.append(database.query(
            "SELECT qty FROM items WHERE id = ?", (wid * 100 + 5,)))
        # Phase 3 — DDL under contention: worker 0 reshapes the table
        # while the others run point reads (explicit column lists, so
        # the added column cannot change any logged result).
        barrier.wait(timeout=WAIT)
        if wid == 0:
            database.execute(
                "CREATE INDEX idx_owner ON items (owner)")
            database.execute(
                "ALTER TABLE items ADD COLUMN note TEXT")
        else:
            for i in range(10):
                log.append(database.query(
                    "SELECT id, qty FROM items WHERE id = ?",
                    (wid * 100 + i,)))
        # Phase 4 — even workers run exclusive transaction scopes;
        # odd workers read rows no transaction touches.
        barrier.wait(timeout=WAIT)
        if wid % 2 == 0:
            with database.transaction():
                database.execute(
                    "UPDATE items SET qty = qty + 100 "
                    "WHERE owner = ?", (owner,))
                database.execute(
                    "INSERT INTO audit VALUES (?, ?)", (wid, owner))
        else:
            log.append(database.query(
                "SELECT id, qty FROM items WHERE owner = ? "
                "ORDER BY id", (owner,)))
        # Phase 5 — odd workers roll back a destructive transaction;
        # even workers read their own (untouched) partitions.
        barrier.wait(timeout=WAIT)
        if wid % 2 == 1:
            with pytest.raises(RuntimeError):
                with database.transaction():
                    database.execute(
                        "DELETE FROM items WHERE owner = ?", (owner,))
                    raise RuntimeError("forced rollback")
        else:
            log.append(database.query(
                "SELECT COUNT(*) AS n FROM items WHERE owner = ?",
                (owner,)))

    run_workers(worker)
    return database, logs


class TestEngineStress:
    def test_mixed_workload_compiled_equals_interpreted(self):
        compiled_db, compiled_logs = _stress_scenario(Database)
        interpreted_db, interpreted_logs = _stress_scenario(
            ReferenceDatabase)
        # The race regression core: under contention, the compiled
        # and interpreted engines must produce identical logs.
        assert compiled_logs == interpreted_logs
        for database in (compiled_db, interpreted_db):
            assert database.query_value(
                "SELECT COUNT(*) FROM items") == N_WORKERS * 20
            # Even owners got +100 per row inside their transactions;
            # odd owners' deletes all rolled back.
            sums = {row["owner"]: row["total"] for row in database.query(
                "SELECT owner, SUM(qty) AS total FROM items "
                "GROUP BY owner")}
            base = sum(range(20))
            for wid in range(N_WORKERS):
                expected = base + (2000 if wid % 2 == 0 else 0)
                assert sums[f"w{wid}"] == expected
            actors = database.query(
                "SELECT actor FROM audit ORDER BY actor")
            assert [row["actor"] for row in actors] == \
                [f"w{wid}" for wid in range(0, N_WORKERS, 2)]
            assert not database.in_transaction

    def test_transaction_scopes_prevent_lost_updates(self):
        """Read-modify-write in a transaction scope must not race."""
        database = Database("counter")
        database.execute(
            "CREATE TABLE counter (id INTEGER PRIMARY KEY, "
            "v INTEGER)")
        database.execute("INSERT INTO counter VALUES (1, 0)")
        rounds = 25

        def worker(wid):
            for _ in range(rounds):
                with database.transaction():
                    value = database.query_value(
                        "SELECT v FROM counter WHERE id = 1")
                    database.execute(
                        "UPDATE counter SET v = ? WHERE id = 1",
                        (value + 1,))

        run_workers(worker)
        assert database.query_value(
            "SELECT v FROM counter WHERE id = 1") == \
            N_WORKERS * rounds

    def test_plan_and_statement_caches_survive_ddl_churn(self):
        """Concurrent first-parse/first-plan races + invalidation."""
        database = Database("churn")
        database.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        database.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(key, key * 7) for key in range(1, 201)])
        rounds = 12
        barrier = threading.Barrier(N_WORKERS)

        def worker(wid):
            for round_no in range(rounds):
                barrier.wait(timeout=WAIT)
                if wid == 0:
                    # DDL invalidates every cached plan mid-round.
                    database.execute(
                        f"CREATE INDEX churn_{round_no} ON t (v)")
                else:
                    key = (wid * 31 + round_no) % 200 + 1
                    value = database.query_value(
                        "SELECT v FROM t WHERE k = ?", (key,))
                    assert value == key * 7

        run_workers(worker)
        # The shared statement object means one cache entry per text.
        assert len(database._statement_cache) <= 3 + rounds

    def test_statistics_are_not_lost_under_contention(self):
        database = Database("stats")
        database.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1)")
        before = database.statistics["statements"]
        per_worker = 50

        def worker(wid):
            for _ in range(per_worker):
                database.query("SELECT k FROM t WHERE k = 1")

        run_workers(worker)
        assert database.statistics["statements"] == \
            before + N_WORKERS * per_worker
        assert database.statistics["rows_returned"] >= \
            N_WORKERS * per_worker


class TestResultReuseStress:
    """Readers loop one aggregate while writers commit and roll back.

    The result cache may answer any of these reads from a remembered
    result, so every answer is bracketed by what the writers had
    committed before the read began and after it returned: a stale
    reuse falls below the bracket, a torn or uncommitted read breaks
    the per-writer pairing (rows are only ever committed two at a
    time, amounts cancelling).
    """

    N_WRITERS = 2
    ROUNDS = 30
    SQL = ("SELECT writer, COUNT(*) AS n, SUM(amount) AS total "
           "FROM ledger GROUP BY writer ORDER BY writer")

    def test_every_answer_is_a_committed_prefix(self):
        database = Database("reuse")
        database.execute(
            "CREATE TABLE ledger (id INTEGER PRIMARY KEY, "
            "writer INTEGER, amount INTEGER)")
        committed = [0] * self.N_WRITERS      # rows, per writer
        writers_done = threading.Event()
        running = [self.N_WRITERS]
        running_lock = threading.Lock()
        barrier = threading.Barrier(N_WORKERS)
        answers = [0] * N_WORKERS
        n_readers = N_WORKERS - self.N_WRITERS
        turn = threading.Lock()
        failed = threading.Event()

        def write(wid):
            for round_no in range(self.ROUNDS):
                base = (wid * self.ROUNDS + round_no) * 2
                with turn:
                    database.execute("BEGIN")
                    database.execute(
                        "INSERT INTO ledger VALUES (?, ?, ?)",
                        (base, wid, round_no + 1))
                    database.execute(
                        "INSERT INTO ledger VALUES (?, ?, ?)",
                        (base + 1, wid, -(round_no + 1)))
                    if round_no % 5 == 2:
                        # Never the last round: a rolled-back write
                        # keeps its table past every snapshot until
                        # some commit follows (conservative misses,
                        # by contract).
                        database.execute("ROLLBACK")
                    else:
                        database.execute("COMMIT")
                        committed[wid] += 2
                    # Hold the table still until the readers have
                    # been round twice: the first to arrive
                    # recomputes and remembers, the rest reuse — so a
                    # stale reuse in the *next* round cannot hide.
                    target = sum(answers) + 2 * n_readers
                    deadline = time.monotonic() + WAIT
                    while sum(answers) < target:
                        assert not failed.is_set() \
                            and time.monotonic() < deadline, \
                            "readers stopped answering"
                        time.sleep(0)
            with running_lock:
                running[0] -= 1
                if running[0] == 0:
                    writers_done.set()

        def check(rows, before, after):
            seen = {row["writer"]: row for row in rows}
            for wid in range(self.N_WRITERS):
                row = seen.get(wid, {"n": 0, "total": None})
                assert row["n"] % 2 == 0, rows
                assert row["total"] in (0, None), rows
                # committed[] moves after COMMIT returns, so one
                # transaction may be visible ahead of `after`.
                assert before[wid] <= row["n"] <= after[wid] + 2, \
                    (rows, before, after)

        def read(wid):
            while not failed.is_set():
                last_lap = writers_done.is_set()
                before = list(committed)
                rows = database.query(self.SQL)
                check(rows, before, list(committed))
                answers[wid] += 1
                if last_lap:
                    break

        def worker(wid):
            try:
                barrier.wait(timeout=WAIT)
                if wid < self.N_WRITERS:
                    write(wid)
                else:
                    read(wid)
                # Settled: every thread reads the same final state,
                # and repeated reads of it are reuses.
                barrier.wait(timeout=WAIT)
                for _ in range(3):
                    rows = database.query(self.SQL)
                    check(rows, committed, committed)
                    assert [row["n"] for row in rows] == committed
            except BaseException:
                # Fail fast: release everyone waiting on this thread.
                failed.set()
                barrier.abort()
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            run_workers(worker)
        finally:
            sys.setswitchinterval(interval)
        kept = self.ROUNDS - self.ROUNDS // 5
        assert committed == [kept * 2] * self.N_WRITERS
        assert all(answers[self.N_WRITERS:])
        statistics = database.statistics
        # Both sides of the mechanism ran: recomputation while the
        # table moved, reuse once it stood still.
        assert statistics["result_cache_misses"] >= kept
        assert statistics["result_cache_hits"] >= kept
        assert statistics["result_cache_hits"] \
            + statistics["result_cache_misses"] \
            == sum(answers) + N_WORKERS * 3


class TestSettledRowsUnderKeyedWriters:
    """Lock-free readers against rows that vacuum keeps settling.

    One writer moves balance between two accounts of a group (two
    keyed UPDATEs in one transaction), replaces accounts (DELETE plus
    INSERT of the same balance), rolls back inserts and vacuums, so
    the rows it touches
    keep passing from settled to chained and back.  Every snapshot
    read — the index scan of one group, the full scan of the table —
    must see each group whole: 50 accounts, 5 000 in total.
    """

    GROUPS, ACCOUNTS, ROUNDS = 4, 50, 400

    def test_snapshots_see_whole_groups(self):
        database = Database("settled")
        database.execute("CREATE TABLE accounts (id INTEGER PRIMARY "
                         "KEY, grp INTEGER, balance INTEGER)")
        database.execute("CREATE INDEX accounts_grp ON accounts (grp)")
        ids = {grp: list(range(grp * self.ACCOUNTS,
                               (grp + 1) * self.ACCOUNTS))
               for grp in range(self.GROUPS)}
        database.executemany(
            "INSERT INTO accounts VALUES (?, ?, 100)",
            [(key, grp) for grp, keys in ids.items() for key in keys])
        database.vacuum()
        done = threading.Event()
        reads = [0] * N_WORKERS

        def write():
            next_id = self.GROUPS * self.ACCOUNTS
            for round_no in range(self.ROUNDS):
                grp = round_no % self.GROUPS
                first, second = ids[grp][round_no % 7], ids[grp][-1]
                with database.transaction():
                    database.execute("UPDATE accounts SET balance = "
                                     "balance - 7 WHERE id = ?", (first,))
                    database.execute("UPDATE accounts SET balance = "
                                     "balance + 7 WHERE id = ?", (second,))
                if round_no % 5 == 0:
                    old = ids[grp].pop(0)
                    with database.transaction():
                        balance = database.query_value(
                            "SELECT balance FROM accounts WHERE id = ?",
                            (old,))
                        database.execute(
                            "DELETE FROM accounts WHERE id = ?", (old,))
                        database.execute(
                            "INSERT INTO accounts VALUES (?, ?, ?)",
                            (next_id, grp, balance))
                    ids[grp].append(next_id)
                    next_id += 1
                if round_no % 4 == 1:  # an insert nobody may see
                    database.execute("BEGIN")
                    database.execute(
                        "INSERT INTO accounts VALUES (?, ?, 1)",
                        (next_id, grp))
                    database.execute("ROLLBACK")
                if round_no % 3 == 0:
                    database.vacuum()

        def read(wid):
            while not done.is_set() or not reads[wid]:
                for grp in range(self.GROUPS):
                    assert database.query(
                        "SELECT COUNT(*) AS n, SUM(balance) AS total "
                        "FROM accounts WHERE grp = ?", (grp,)) \
                        == [{"n": self.ACCOUNTS,
                             "total": 100 * self.ACCOUNTS}]
                assert database.query(
                    "SELECT grp, COUNT(*) AS n, SUM(balance) AS total "
                    "FROM accounts GROUP BY grp ORDER BY grp") \
                    == [{"grp": grp, "n": self.ACCOUNTS,
                         "total": 100 * self.ACCOUNTS}
                        for grp in range(self.GROUPS)]
                reads[wid] += 1

        def worker(wid):
            if wid == 0:
                try:
                    write()
                finally:
                    done.set()
            else:
                read(wid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_workers(worker, n_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert all(reads[1:4])
        database.vacuum()
        assert len(database.storage("accounts")._versions) == 0
        assert database.version_count("accounts") \
            == self.GROUPS * self.ACCOUNTS


class TestRangeReadsUnderMergingWriters:
    """Lock-free range reads against an index whose tail keeps merging.

    One writer moves balance between two accounts, opens an account
    with money taken from another (its key is in the tail until the
    next merge), moves an account to a fresh id inside the read range
    (its old key stays behind, so the range reaches the row twice),
    inserts empty accounts outside the range until the tail merges,
    rolls back an insert inside it and vacuums.  Every snapshot range
    read must count each account once: the 20 000 never change.
    """

    ACCOUNTS, ROUNDS, OUTSIDE = 200, 600, 100_000

    def test_range_reads_count_each_row_once(self, monkeypatch):
        from repro.engine.indexes import Index

        merges = []
        merge = Index._merge
        monkeypatch.setattr(Index, "_merge", lambda index: (
            merges.append(1), merge(index)))
        database = Database("ranges")
        database.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
                         "balance INTEGER)")
        database.executemany("INSERT INTO accounts VALUES (?, 100)",
                             [(key,) for key in range(self.ACCOUNTS)])
        database.vacuum()
        done = threading.Event()
        reads = [0] * N_WORKERS

        def write():
            ids = list(range(self.ACCOUNTS))
            fresh = self.ACCOUNTS
            for round_no in range(self.ROUNDS):
                first, second = ids[round_no % 11], ids[-1 - round_no % 5]
                with database.transaction():
                    database.execute("UPDATE accounts SET balance = "
                                     "balance - 7 WHERE id = ?", (first,))
                    database.execute("UPDATE accounts SET balance = "
                                     "balance + 7 WHERE id = ?", (second,))
                with database.transaction():
                    database.execute("UPDATE accounts SET balance = "
                                     "balance - 5 WHERE id = ?", (second,))
                    database.execute("INSERT INTO accounts VALUES (?, 5)",
                                     (fresh,))
                ids.append(fresh)
                moved = ids.pop(round_no % len(ids))
                database.execute("UPDATE accounts SET id = ? WHERE id = ?",
                                 (fresh + 1, moved))
                ids.append(fresh + 1)
                fresh += 2
                database.executemany(
                    "INSERT INTO accounts VALUES (?, 0)",
                    [(self.OUTSIDE + 3 * round_no + extra,)
                     for extra in range(3)])
                if round_no % 4 == 1:  # an insert nobody may see
                    database.execute("BEGIN")
                    database.execute("INSERT INTO accounts VALUES (?, 1)",
                                     (fresh,))
                    database.execute("ROLLBACK")
                if round_no % 50 == 0:
                    database.vacuum()

        def read(wid):
            while not done.is_set() or not reads[wid]:
                assert database.query_value(
                    "SELECT SUM(balance) FROM accounts "
                    "WHERE id BETWEEN ? AND ?", (0, self.OUTSIDE - 1)) \
                    == 100 * self.ACCOUNTS
                assert database.query_value(
                    "SELECT SUM(balance) FROM accounts WHERE id >= ?",
                    (0,)) == 100 * self.ACCOUNTS
                reads[wid] += 1

        def worker(wid):
            if wid == 0:
                try:
                    write()
                finally:
                    done.set()
            else:
                read(wid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_workers(worker, n_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert all(reads[1:4]) and merges


class TestStarFoldsUnderDimensionWriters:
    """Lock-free star-join readers while one writer rewrites the
    dimension and another appends facts.

    The dimension writer relabels rows, deletes and re-inserts them,
    rolls a delete back (moving a row to the end of the scan) and
    vacuums (re-sorting it); the fact writer commits small appends.
    Readers pin a snapshot and run a grouped star join (reused, folded
    or rerun, probing the kept hash of the dimension), a sliced one and
    a DISTINCT one: each answer must equal the interpreter's over the
    same database at the same snapshot.
    """

    KEYS, ROUNDS = 40, 48
    READS = [
        ("SELECT d.label, COUNT(*) AS n, SUM(f.amount) AS total "
         "FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.label "
         "ORDER BY d.label", ()),
        ("SELECT f.k, SUM(f.amount) AS total FROM fact f JOIN dim d "
         "ON f.k = d.k WHERE d.label = ? GROUP BY f.k", ("l3",)),
        ("SELECT DISTINCT d.label FROM fact f JOIN dim d ON f.k = d.k",
         ()),
    ]

    def test_every_answer_is_the_interpreters_at_its_snapshot(self):
        database = Database("star")
        database.execute("CREATE TABLE dim (k INTEGER PRIMARY KEY, "
                         "label TEXT)")
        database.executemany("INSERT INTO dim VALUES (?, ?)", [
            (key, f"l{key % 7}") for key in range(self.KEYS)])
        database.execute("CREATE TABLE fact (k INTEGER, amount INTEGER)")
        database.executemany("INSERT INTO fact VALUES (?, ?)", [
            (key % self.KEYS, key) for key in range(200)])
        statements = [(database._parse(sql), params)
                      for sql, params in self.READS]
        done = threading.Event()
        failed = threading.Event()
        reads = [0] * N_WORKERS

        def paced(rounds):
            """Each round, once the readers have been round twice."""
            for round_no in range(rounds):
                yield round_no
                target = sum(reads) + 2
                deadline = time.monotonic() + WAIT
                while sum(reads) < target:
                    assert not failed.is_set() \
                        and time.monotonic() < deadline, \
                        "readers stopped answering"
                    time.sleep(0)

        def relabel():
            # Every fourth round, so facts are often appended alone.
            for round_no in paced(self.ROUNDS):
                if round_no % 4:
                    continue
                key = round_no * 7 % self.KEYS
                database.execute("UPDATE dim SET label = ? WHERE k = ?",
                                 (f"l{round_no % 5}", key))
                if round_no % 3 == 1:
                    with database.transaction():
                        label = database.query_value(
                            "SELECT label FROM dim WHERE k = ?", (key,))
                        database.execute("DELETE FROM dim WHERE k = ?",
                                         (key,))
                        database.execute("INSERT INTO dim VALUES (?, ?)",
                                         (key, label))
                if round_no % 3 == 2:
                    database.execute("BEGIN")
                    database.execute("DELETE FROM dim WHERE k = ?",
                                     (key,))
                    database.execute("ROLLBACK")
                if round_no % 5 == 3:
                    database.vacuum()

        def append():
            for round_no in paced(self.ROUNDS):
                database.executemany("INSERT INTO fact VALUES (?, ?)", [
                    ((round_no + extra) % (self.KEYS + 3), round_no)
                    for extra in range(3)])

        def read(wid):
            while not done.is_set() or not reads[wid]:
                with database.open_snapshot() as snapshot:
                    for statement, params in statements:
                        got = database._run_select(statement, params,
                                                   snapshot)
                        want = execute_select(database, statement,
                                              params, snapshot)
                        assert repr(got.rows) == repr(want.rows), \
                            (statement, snapshot)
                reads[wid] += 1

        writers_left = [2]
        writers_lock = threading.Lock()

        def worker(wid):
            try:
                if wid >= 2:
                    read(wid)
                    return
                try:
                    (relabel if wid == 0 else append)()
                finally:
                    with writers_lock:
                        writers_left[0] -= 1
                        if not writers_left[0]:
                            done.set()
            except BaseException:
                failed.set()
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_workers(worker, n_workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert all(reads[2:6])
        statistics = database.statistics
        assert statistics["result_cache_folds"] \
            and statistics["result_cache_hits"]


class TestTenantStress:
    def test_shared_mode_tenants_serialize_writes_correctly(self):
        """8 tenants on one shared operational database."""
        manager = TenantManager(TenancyMode.SHARED)
        for wid in range(N_WORKERS):
            manager.register(f"t{wid}", f"Tenant {wid}")
        shared = manager.context("t0").operational_db
        shared.execute(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
            "tenant TEXT, amount INTEGER)")
        barrier = threading.Barrier(N_WORKERS)

        def worker(wid):
            context = manager.require_active(f"t{wid}")
            database = context.operational_db
            assert database is shared
            barrier.wait(timeout=WAIT)
            for i in range(25):
                database.execute(
                    "INSERT INTO orders VALUES (?, ?, ?)",
                    (wid * 1000 + i, f"t{wid}", i))
            # Tenant-discriminated reads overlap: snapshots take no lock.
            rows = database.query(
                "SELECT COUNT(*) AS n FROM orders WHERE tenant = ?",
                (f"t{wid}",))
            assert rows[0]["n"] == 25

        run_workers(worker)
        assert shared.query_value(
            "SELECT COUNT(*) FROM orders") == N_WORKERS * 25
        assert manager.database_count() == 1

    def test_isolated_mode_tenants_run_in_parallel(self):
        """Private databases: all 8 workers hold their own engine's
        writer lock at once — the barrier can only fill if no
        cross-tenant lock serializes them."""
        manager = TenantManager(TenancyMode.ISOLATED)
        for wid in range(N_WORKERS):
            context = manager.register(f"t{wid}", f"Tenant {wid}")
            context.operational_db.execute(
                "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
            context.operational_db.execute(
                "INSERT INTO kv VALUES (1, 'x')")
        assert manager.database_count() == N_WORKERS
        inside = threading.Barrier(N_WORKERS)

        def worker(wid):
            database = manager.require_active(
                f"t{wid}").operational_db
            with database._lock.exclusive():
                inside.wait(timeout=WAIT)
            for _ in range(50):
                assert database.query_value(
                    "SELECT v FROM kv WHERE k = 1") == "x"

        run_workers(worker)

    def test_racing_definitions_of_one_name_store_one(self):
        """8 workers define the same report group and data set at
        once: the unique ``(tenant, name)`` index lets exactly one of
        each in and turns every other into the duplicate error."""
        from repro.core import OdbisPlatform
        from repro.errors import ServiceError

        platform = OdbisPlatform()
        platform.provisioning.provision("acme", "Acme")
        barrier = threading.Barrier(N_WORKERS)
        outcomes = []

        def worker(wid):
            barrier.wait(timeout=WAIT)
            for define in (
                    lambda: platform.reporting.create_report_group(
                        "acme", "finance"),
                    lambda: platform.metadata.create_dataset(
                        "acme", "one", "warehouse", "SELECT 1 AS n")):
                try:
                    define()
                    outcomes.append("stored")
                except ServiceError as exc:
                    assert "already has" in str(exc)
                    outcomes.append("refused")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_workers(worker)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(outcomes) == ["refused"] * (2 * N_WORKERS - 2) \
            + ["stored"] * 2
        assert platform.reporting.report_groups("acme") == ["finance"]
        assert [entry["name"] for entry in
                platform.metadata.datasets("acme")] == ["one"]
