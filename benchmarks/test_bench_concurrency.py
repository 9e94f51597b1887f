"""E13 — concurrent multi-tenant serving (the serving-layer tentpole).

The paper's §2 economics assume one shared backend serving many
tenants *at once*.  This experiment measures the serving layer under
an 8-worker pool:

* ISOLATED-mode parallel reads — 8 private databases, every read a
  lock-free MVCC snapshot;
* SHARED-mode concurrent writes — 8 tenants funneled through one
  operational database, serialized by its writer lock.

Each case also runs with the runtime concurrency sanitizer attached
(``repro.analysis.concurrency``), so ``BENCH_concurrency.json``
records what ``REPRO_SANITIZE=1`` costs — the overhead ratio is the
number to watch before turning the sanitizer on in a long battery.

Timings land in ``benchmarks/out/BENCH_concurrency.json``.  Pure
Python threads share the GIL, so parallel wall time is *not* expected
to beat serial on CPU-bound queries — the assertions pin correctness
under contention and bound the locking overhead, while the recorded
throughput numbers give CI a trend line.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.concurrency import reset_default_sanitizer
from repro.engine import Database

from _util import emit, format_table, write_bench_json

N_TENANTS = 8
ROWS = 1_500
QUERIES_PER_TENANT = 150
READER_PROBES = 200


def tenant_database(tenant_no, sanitize=False):
    database = Database(f"op-t{tenant_no}", sanitize=sanitize)
    database.execute(
        "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
    database.executemany(
        "INSERT INTO kv VALUES (?, ?)",
        [(key, key * 3) for key in range(1, ROWS + 1)])
    return database


def read_workload(database):
    total = 0
    for i in range(QUERIES_PER_TENANT):
        key = (i * 37) % ROWS + 1
        total += database.query_value(
            "SELECT v FROM kv WHERE k = ?", (key,))
    return total


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - started) * 1000.0


def serving_layer_timings(sanitize):
    """(serial_ms, parallel_ms, shared_write_ms) for one mode."""
    databases = [tenant_database(n, sanitize=sanitize)
                 for n in range(N_TENANTS)]
    expected = read_workload(databases[0])

    # ISOLATED mode, serial baseline: one tenant after another.
    serial_totals, serial_ms = timed(
        lambda: [read_workload(database) for database in databases])

    # ISOLATED mode, parallel: 8 workers, one per private database.
    with ThreadPoolExecutor(max_workers=N_TENANTS) as pool:
        parallel_totals, parallel_ms = timed(
            lambda: list(pool.map(read_workload, databases)))

    assert serial_totals == [expected] * N_TENANTS
    assert parallel_totals == [expected] * N_TENANTS

    # SHARED mode, concurrent writes: every tenant inserts into one
    # operational database; the exclusive lock serializes them.
    shared = Database("platform", sanitize=sanitize)
    shared.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, tenant TEXT)")

    def write_workload(tenant_no):
        for i in range(QUERIES_PER_TENANT):
            shared.execute(
                "INSERT INTO orders VALUES (?, ?)",
                (tenant_no * 10_000 + i, f"t{tenant_no}"))

    with ThreadPoolExecutor(max_workers=N_TENANTS) as pool:
        _, shared_write_ms = timed(lambda: list(
            pool.map(write_workload, range(N_TENANTS))))
    assert shared.query_value("SELECT COUNT(*) FROM orders") == \
        N_TENANTS * QUERIES_PER_TENANT
    return serial_ms, parallel_ms, shared_write_ms


def read_probe_latencies(database):
    """Per-query wall latencies (ms) for point reads on ``database``."""
    latencies = []
    for i in range(READER_PROBES):
        key = (i * 37) % ROWS + 1
        started = time.perf_counter()
        value = database.query_value(
            "SELECT v FROM kv WHERE k = ?", (key,))
        latencies.append((time.perf_counter() - started) * 1000.0)
        assert value == key * 3  # only committed state is visible
    return latencies


def reader_under_writer_timings():
    """(baseline_ms, under_writer_ms, max_probe_ms) for point reads.

    Before MVCC this scenario could not be *measured*: a reader's
    shared acquisition parked behind the open transaction's exclusive
    hold until COMMIT, so the probe loop below (which must finish
    before the writer is released) deadlocked by construction.  The
    probes completing at all — with the transaction verifiably still
    open — is the tentpole's deterministic no-blocking proof; the
    recorded latencies give CI the collapse trend line.
    """
    database = tenant_database(0)
    baseline = read_probe_latencies(database)

    writer_open = threading.Event()
    release_writer = threading.Event()
    writer_failures = []

    def long_writer():
        database.begin()
        try:
            for key in range(1, ROWS + 1, 3):
                database.execute(
                    "UPDATE kv SET v = v + 1000000 WHERE k = ?",
                    (key,))
            writer_open.set()
            if not release_writer.wait(timeout=120):
                writer_failures.append("probes never finished")
            database.commit()
        except Exception as exc:  # pragma: no cover
            writer_failures.append(repr(exc))
            database.rollback()

    thread = threading.Thread(target=long_writer, name="long-writer")
    thread.start()
    try:
        assert writer_open.wait(timeout=120)
        assert database.in_transaction  # the txn really is open
        under_writer = read_probe_latencies(database)
    finally:
        release_writer.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    assert writer_failures == []
    # After COMMIT the writer's effects become visible atomically.
    assert database.query_value(
        "SELECT v FROM kv WHERE k = 1") == 1 * 3 + 1_000_000
    baseline_ms = sum(baseline)
    under_writer_ms = sum(under_writer)
    return baseline_ms, under_writer_ms, max(under_writer)


def test_bench_concurrency_serving_layer():
    serial_ms, parallel_ms, shared_write_ms = \
        serving_layer_timings(sanitize=False)

    # Reader-under-writer (the MVCC tentpole case): point-read
    # latency while a long BEGIN..COMMIT transaction is open on
    # another thread.  The probes finishing at all is the
    # no-blocking proof — the writer only commits after they did.
    reader_baseline_ms, reader_under_writer_ms, reader_max_probe_ms = \
        reader_under_writer_timings()

    # The same serving workload with the runtime sanitizer watching
    # every acquisition and storage access.  A fresh sanitizer scopes
    # the lock-order graph to this run; a clean workload must stay
    # clean under observation.
    sanitizer = reset_default_sanitizer()
    _, parallel_sanitized_ms, shared_write_sanitized_ms = \
        serving_layer_timings(sanitize=True)
    sanitizer.assert_clean()
    assert sanitizer.acquisitions > 0
    reset_default_sanitizer()

    total_reads = N_TENANTS * QUERIES_PER_TENANT
    reads_per_s = total_reads / (parallel_ms / 1000.0)
    read_overhead = parallel_sanitized_ms / parallel_ms
    write_overhead = shared_write_sanitized_ms / shared_write_ms
    emit("E13_concurrency", format_table(
        ("case", "wall ms", "ops", "ops/s"),
        [("isolated reads, serial", serial_ms, total_reads,
          total_reads / (serial_ms / 1000.0)),
         (f"isolated reads, {N_TENANTS} workers", parallel_ms,
          total_reads, reads_per_s),
         (f"shared writes, {N_TENANTS} workers", shared_write_ms,
          total_reads, total_reads / (shared_write_ms / 1000.0)),
         (f"isolated reads, {N_TENANTS} workers, sanitized",
          parallel_sanitized_ms, total_reads,
          total_reads / (parallel_sanitized_ms / 1000.0)),
         (f"shared writes, {N_TENANTS} workers, sanitized",
          shared_write_sanitized_ms, total_reads,
          total_reads / (shared_write_sanitized_ms / 1000.0)),
         ("point reads, idle engine", reader_baseline_ms,
          READER_PROBES,
          READER_PROBES / (reader_baseline_ms / 1000.0)),
         ("point reads, open write txn", reader_under_writer_ms,
          READER_PROBES,
          READER_PROBES / (reader_under_writer_ms / 1000.0))]))
    write_bench_json("concurrency", {
        "isolated_read_serial": serial_ms,
        "reader_baseline_ms": reader_baseline_ms,
        "reader_under_open_write_txn_ms": reader_under_writer_ms,
        "reader_under_open_write_txn_max_probe_ms":
            reader_max_probe_ms,
        "reader_under_writer_ratio":
            reader_under_writer_ms / reader_baseline_ms,
        # Pre-MVCC this case deadlocked (readers queued until
        # COMMIT); completing the probes with the transaction open
        # records "blocked on writer: no" as a measured fact.
        "readers_blocked_on_writer": 0.0,
        f"isolated_read_parallel_{N_TENANTS}w": parallel_ms,
        f"shared_write_parallel_{N_TENANTS}w": shared_write_ms,
        "parallel_read_throughput_per_s": reads_per_s,
        f"isolated_read_parallel_{N_TENANTS}w_sanitized":
            parallel_sanitized_ms,
        f"shared_write_parallel_{N_TENANTS}w_sanitized":
            shared_write_sanitized_ms,
        "sanitizer_read_overhead_ratio": read_overhead,
        "sanitizer_write_overhead_ratio": write_overhead,
    })

    # Locking overhead must stay bounded: with the GIL, 8 workers do
    # the same total work as the serial loop — allow 3x for lock and
    # scheduling overhead before calling it a regression.
    assert parallel_ms < serial_ms * 3.0
    # The sanitizer is bookkeeping on top of each acquisition; it may
    # not turn the serving layer pathological.
    assert parallel_sanitized_ms < parallel_ms * 5.0
    assert shared_write_sanitized_ms < shared_write_ms * 5.0
