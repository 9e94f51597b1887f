"""E18 — the price and payoff of supervision.

Three measurements price the tentpole:

* **route_read p50 after a write**: poll-on-read ships the new
  transaction on the routed read that finds its replica behind (a
  file open + the new bytes, whatever the log's length; a read with
  nothing to fetch polls nothing in either mode); the supervisor's
  background pump ships it on its tick instead, so the read path is
  lock-check + lag arithmetic.
* **MTTR vs probe interval**: on a fake clock the detector's recovery
  time is exact — (miss_threshold - 1) x probe_interval from first
  miss to promotion — so the probe cadence *is* the MTTR dial.
* **divergence-to-heal**: fake-clock seconds from the audit that
  quarantined a silently diverged replica to the audit that verified
  its heal.

Regenerates ``E18`` text and ``BENCH_supervision.json``.
"""

import statistics
import time

import pytest

from repro.core.resilience import FakeClock, FaultInjector
from repro.core.sharding import ShardMap
from repro.core.supervision import ShardSupervisor

from _util import emit, format_table, write_bench_json

pytestmark = pytest.mark.perfsmoke

WAL_COMMITS = 400
READS = 60
PROBE_INTERVALS = (0.5, 1.0, 2.0)
MISS_THRESHOLD = 3


def build_map(base, clock=None, faults=None):
    shard_map = ShardMap(base, shards=1, replicas=1, fsync="off",
                         clock=clock, faults=faults)
    shard = shard_map.shard("shard-0")
    shard.primary.execute(
        "CREATE TABLE sup_events (id INTEGER PRIMARY KEY, v INTEGER)")
    for index in range(WAL_COMMITS):
        shard.primary.execute("INSERT INTO sup_events VALUES (?, ?)",
                              (index, index % 97))
    return shard_map, shard


def read_p50_ms(shard_map, shard, between=None, tenant="acme"):
    """p50 of a routed read that follows one acknowledged write;
    ``between`` (the pump's tick) runs untimed after the write."""
    samples = []
    for _ in range(READS):
        shard.primary.execute(
            "UPDATE sup_events SET v = v + 1 WHERE id = 0")
        if between is not None:
            between()
        started = time.perf_counter()
        shard_map.route_read(tenant)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def test_bench_e18_supervision(tmp_path):
    cases = {}

    # -- route_read p50: poll-on-read vs background pump ------------
    shard_map, shard = build_map(tmp_path / "route")
    shard.poll_replicas()  # both modes start from a converged replica
    poll_p50 = read_p50_ms(shard_map, shard)  # route_polling=True
    supervisor = ShardSupervisor(shard_map, pump=True, audit_every=0)
    assert shard_map.route_polling is False
    pump_p50 = read_p50_ms(shard_map, shard, between=supervisor.tick)
    cases["route_read_p50_poll_on_read_ms"] = poll_p50
    cases["route_read_p50_background_pump_ms"] = pump_p50
    # Routed reads still serve the replica at zero lag in pump mode.
    handle = shard_map.read_handle("acme")
    assert handle.served_by.endswith("-replica-0")
    assert handle.replica_lag == 0
    assert pump_p50 < poll_p50, (
        f"background pump p50 {pump_p50:.3f}ms is not below "
        f"poll-on-read p50 {poll_p50:.3f}ms over a "
        f"{WAL_COMMITS}-commit WAL")
    shard_map.close()

    # -- MTTR vs probe interval (fake-clock seconds) -----------------
    mttr_rows = []
    for interval in PROBE_INTERVALS:
        clock = FakeClock()
        faults = FaultInjector()
        shard_map, shard = build_map(
            tmp_path / f"mttr-{interval}", clock=clock, faults=faults)
        shard.replicas[0].poll()
        shard.primary.wal.close()  # the primary dies at t=0
        watcher = ShardSupervisor(
            shard_map, clock=clock, faults=faults,
            probe_interval=interval, miss_threshold=MISS_THRESHOLD,
            min_failover_interval=0.0, audit_every=0)
        watcher.run(MISS_THRESHOLD + 1)
        (incident,) = watcher.incidents
        assert incident.outcome == "promoted"
        assert incident.mttr == (MISS_THRESHOLD - 1) * interval
        assert incident.mttr <= MISS_THRESHOLD * interval, (
            "promotion fell outside the probe budget")
        mttr_rows.append((interval, incident.mttr,
                          MISS_THRESHOLD * interval))
        cases[f"mttr_fake_s_interval_{interval}"] = incident.mttr
        shard_map.close()

    # -- divergence-to-heal (fake-clock seconds) ---------------------
    clock = FakeClock()
    faults = FaultInjector()
    shard_map, shard = build_map(tmp_path / "heal", clock=clock,
                                 faults=faults)
    replica = shard.replicas[0]
    replica.poll()
    faults.inject(f"replica.divergence.{replica.replica_id}", limit=1)
    shard.primary.execute(
        "INSERT INTO sup_events VALUES (9999, 0)")
    auditor = ShardSupervisor(shard_map, clock=clock, faults=faults,
                              audit_every=1)
    quarantine = auditor.audit()["shard-0"][replica.replica_id]
    assert quarantine["verdict"] == "quarantined"
    clock.advance(auditor.probe_interval)  # one cadence later
    heal = auditor.audit()["shard-0"][replica.replica_id]
    assert heal["verdict"] == "healed"
    cases["divergence_to_heal_fake_s"] = heal["quarantined_for"]
    shard_map.close()

    lines = [
        f"Routed-read p50 after one write, over a "
        f"{WAL_COMMITS}-commit WAL ({READS} reads):",
        format_table(
            ("mode", "p50 (ms)"),
            [("poll-on-read", poll_p50),
             ("background pump", pump_p50)]),
        "",
        f"MTTR vs probe interval (fake-clock seconds, "
        f"miss_threshold={MISS_THRESHOLD}):",
        format_table(
            ("interval (s)", "MTTR (s)", "budget (s)"),
            mttr_rows),
        "",
        f"divergence quarantined -> healed in "
        f"{cases['divergence_to_heal_fake_s']:.1f} fake seconds "
        f"(one audit cadence).",
    ]
    emit("E18_supervision", "\n".join(lines))
    write_bench_json("supervision", cases)
