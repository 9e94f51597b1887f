"""Shard-supervision battery: the platform heals itself.

Marker ``supervise``.  Four properties carry the tentpole:

* the deadline-miss failure detector promotes a replica within the
  probe budget (MTTR measured in fake-clock seconds), and flap damping
  bounds how often it may try;
* every routed dispatch is epoch-fenced: a handle resolved before a
  promotion fails with a typed, retryable
  :class:`~repro.errors.StaleEpochError` — including the straggler
  that raced the fence itself and would otherwise surface a log-level
  ``WalError`` (or worse, a silent commit);
* the anti-entropy auditor catches *silent* divergence — commit
  numbers agree, content does not — quarantines the replica out of
  routing, and heals it via checkpoint + forced snapshot resync;
* the whole loop is deterministic: same seed, same fault schedule,
  same tick cadence ⇒ identical incident log, promotion order and
  health report, with zero unhandled escapes.
"""

import pytest

from repro.core import OdbisPlatform
from repro.core.resilience import FakeClock, FaultInjector
from repro.core.sharding import ShardMap, content_checksum
from repro.core.supervision import ShardSupervisor
from repro.errors import (
    ShardError,
    StaleEpochError,
    SupervisionError,
    WalError,
)

pytestmark = pytest.mark.supervise


def make_map(tmp_path, clock, faults, shards=1, replicas=1):
    return ShardMap(tmp_path / "shards", shards=shards,
                    replicas=replicas, fsync="off", clock=clock,
                    faults=faults)


def seed(shard, rows=5):
    shard.primary.execute(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, note TEXT)")
    for index in range(rows):
        shard.primary.execute(
            "INSERT INTO events VALUES (?, ?)", (index, f"n-{index}"))
    return shard


def kill_primary(shard):
    """The failure the detector exists for: the primary's log dies
    (fenced / crashed holder) while the process stays up."""
    shard.primary.wal.close()


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def faults():
    return FaultInjector()


class TestFailureDetector:
    def test_healthy_shards_never_escalate(self, tmp_path, clock,
                                           faults):
        shard_map = make_map(tmp_path, clock, faults, shards=2)
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=0)
        reports = supervisor.run(4)
        assert all(not report["incidents"] for report in reports)
        assert supervisor.incidents == []
        health = supervisor.health()
        assert health["ticks"] == 4
        assert all(watch["status"] == "healthy"
                   and watch["misses"] == 0
                   for watch in health["watches"].values())
        shard_map.close()

    def test_dead_primary_is_promoted_within_the_probe_budget(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        shard.replicas[0].poll()
        kill_primary(shard)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, probe_interval=1.0,
            miss_threshold=3, audit_every=0)
        supervisor.run(4)
        (incident,) = supervisor.incidents
        assert incident.outcome == "promoted"
        assert incident.reason == "probe-misses"
        assert incident.misses == supervisor.miss_threshold
        # Detected at the first miss (t=0), promoted on the tick the
        # threshold tripped (t=2): MTTR is exact in fake seconds and
        # inside the (threshold x interval) budget.
        assert incident.mttr == 2.0
        assert incident.mttr <= (supervisor.miss_threshold
                                 * supervisor.probe_interval)
        assert incident.from_generation == 0
        assert incident.to_generation == 1
        # The promoted primary serves and accepts writes.
        assert shard.generation == 1
        shard.primary.execute(
            "INSERT INTO events VALUES (99, 'after-heal')")
        assert shard.primary.query(
            "SELECT COUNT(*) AS c FROM events") == [{"c": 6}]
        shard_map.close()

    def test_injected_probe_faults_count_as_misses(self, tmp_path,
                                                   clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        seed(shard_map.shard("shard-0")).replicas[0].poll()
        faults.inject("supervision.probe.shard-0", limit=2)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, miss_threshold=2,
            audit_every=0)
        supervisor.run(3)
        (incident,) = supervisor.incidents
        assert incident.outcome == "promoted"
        assert incident.misses == 2
        shard_map.close()

    def test_transient_misses_below_threshold_reset(self, tmp_path,
                                                    clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        faults.inject("supervision.probe.shard-0", limit=2)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, miss_threshold=3,
            audit_every=0)
        supervisor.run(4)  # 2 misses, then healthy probes
        assert supervisor.incidents == []
        watch = supervisor.health()["watches"]["shard-0"]
        assert watch["status"] == "healthy"
        assert watch["misses"] == 0
        shard_map.close()

    def test_slow_probe_misses_the_deadline(self, tmp_path, clock,
                                            faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = shard_map.shard("shard-0")
        original = shard.probe

        def slow_probe():
            clock.advance(supervisor.probe_timeout + 0.1)
            return original()

        shard.probe = slow_probe
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, miss_threshold=2,
            audit_every=0)
        report = supervisor.tick()
        probe = report["probes"]["shard-0"]
        assert probe["ok"] is False
        assert "deadline" in probe["error"]
        shard_map.close()

    def test_open_breaker_is_an_immediate_suspect(self, tmp_path,
                                                  clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        shard.replicas[0].poll()
        shard.breaker.record_failure()  # threshold 1: opens
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=0)
        supervisor.tick()
        (incident,) = supervisor.incidents
        assert incident.reason == "breaker-open"
        assert incident.outcome == "promoted"
        assert incident.misses == 0  # no miss counting needed
        shard_map.close()

    def test_config_is_validated(self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        with pytest.raises(SupervisionError):
            ShardSupervisor(shard_map, probe_interval=0.0)
        with pytest.raises(SupervisionError):
            ShardSupervisor(shard_map, miss_threshold=0)
        with pytest.raises(SupervisionError):
            ShardSupervisor(shard_map, max_failovers_per_window=0)
        shard_map.close()


class TestFlapDamping:
    def test_detector_records_damped_incidents_without_escaping(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults, replicas=2)
        shard = seed(shard_map.shard("shard-0"))
        for replica in shard.replicas:
            replica.poll()
        kill_primary(shard)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, miss_threshold=1,
            min_failover_interval=10.0, audit_every=0)
        supervisor.tick()  # t=0: miss -> promoted (gen 1)
        kill_primary(shard)  # the promoted primary dies too
        clock.advance(1.0)
        supervisor.tick()  # t=1: miss -> damped, 9s early
        outcomes = [incident.outcome
                    for incident in supervisor.incidents]
        assert outcomes == ["promoted", "damped"]
        damped = supervisor.incidents[-1]
        assert "damping" in damped.error
        assert supervisor.health()["watches"]["shard-0"]["status"] \
            == "damped"
        # Once the interval has passed the next attempt is admitted.
        clock.advance(10.0)
        supervisor.tick()
        assert supervisor.incidents[-1].outcome == "promoted"
        assert shard.generation == 2
        shard_map.close()

    def test_manual_failover_raises_typed_damping_errors(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults, replicas=2)
        seed(shard_map.shard("shard-0")).replicas[0].poll()
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults,
            min_failover_interval=30.0, audit_every=0)
        assert supervisor.failover("shard-0").outcome == "promoted"
        with pytest.raises(SupervisionError) as excinfo:
            supervisor.failover("shard-0")
        assert excinfo.value.reason == "flap-damped"
        assert excinfo.value.shard == "shard-0"
        assert excinfo.value.retry_after > 0
        shard_map.close()

    def test_window_budget_exhausts_even_across_failed_attempts(
            self, tmp_path, clock, faults):
        # Zero replicas: every attempt fails -- and still burns the
        # window budget, because a failing failover is exactly the
        # flapping the damper exists to stop.
        shard_map = make_map(tmp_path, clock, faults, replicas=0)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults,
            min_failover_interval=0.0, max_failovers_per_window=2,
            failover_window=300.0, audit_every=0)
        for _ in range(2):
            incident = supervisor.failover("shard-0")
            assert incident.outcome == "failed"
            assert "no replica" in incident.error
        with pytest.raises(SupervisionError) as excinfo:
            supervisor.failover("shard-0")
        assert excinfo.value.reason == "window-exhausted"
        assert excinfo.value.retry_after > 0
        shard_map.close()


class TestEpochFencing:
    def test_stale_write_handle_is_typed_and_attributed(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        shard.replicas[0].poll()
        tenant = "acme"
        handle = shard_map.write_handle(tenant)
        assert handle.generation == 0
        shard_map.failover("shard-0")
        with pytest.raises(StaleEpochError) as excinfo:
            shard_map.dispatch_write(
                handle, "INSERT INTO events VALUES (99, 'late')")
        assert excinfo.value.carried_generation == 0
        assert excinfo.value.current_generation == 1
        # The straggler's row never landed anywhere.
        assert shard.primary.query(
            "SELECT COUNT(*) AS c FROM events WHERE id = 99") \
            == [{"c": 0}]
        shard_map.close()

    def test_stale_read_handle_is_typed(self, tmp_path, clock,
                                        faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        shard.replicas[0].poll()
        handle = shard_map.read_handle("acme")
        shard_map.failover("shard-0")
        with pytest.raises(StaleEpochError):
            shard_map.dispatch_read(handle, "SELECT 1 AS one")
        shard_map.close()

    def test_wal_failure_without_promotion_stays_a_wal_error(
            self, tmp_path, clock, faults):
        # A closed log with an *unchanged* epoch is an engine fault,
        # not a routing race: the dispatch must not mislabel it.
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        handle = shard_map.write_handle("acme")
        kill_primary(shard)
        with pytest.raises(WalError):
            shard_map.dispatch_write(
                handle, "INSERT INTO events VALUES (99, 'x')")
        shard_map.close()

    def test_wal_error_racing_the_fence_converts_to_stale_epoch(
            self, tmp_path, clock, faults):
        # The exact straggler interleaving: the epoch check passes,
        # then the fence lands before the commit.  The WalError is
        # re-diagnosed as a stale epoch, with the log failure chained
        # as its cause.
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        handle = shard_map.write_handle("acme")

        def racing_execute(sql, params=()):
            with shard._lock:
                shard.generation += 1
            raise WalError("write-ahead log is closed")

        handle.database.execute = racing_execute
        with pytest.raises(StaleEpochError) as excinfo:
            shard_map.dispatch_write(
                handle, "INSERT INTO events VALUES (99, 'x')")
        assert isinstance(excinfo.value.__cause__, WalError)
        shard_map.close()

    def test_promotion_window_fences_routing(self, tmp_path, clock,
                                             faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        shard.replicas[0].poll()
        with shard._lock:
            shard._promoting = True
        try:
            with pytest.raises(StaleEpochError):
                shard.write_handle()
            with pytest.raises(StaleEpochError):
                shard.read_handle(0)
            with pytest.raises(StaleEpochError):
                shard.check_epoch(shard.generation)
            with pytest.raises(ShardError):
                shard.probe()
        finally:
            with shard._lock:
                shard._promoting = False
        shard_map.close()


class TestStragglerThroughGateway:
    """Satellite (c): the end-to-end regression.  A writer that
    resolved its route before a failover and dispatches through the
    gateway during/after the window gets a typed, retryable 503 —
    never a silent commit, never an unhandled ``WalError``."""

    def login(self, platform, tenant):
        response = platform.web.request(
            "POST", "/login",
            body={"username": f"admin@{tenant}",
                  "password": "changeme"})
        assert response.status == 200
        return {"x-auth-token": response.json()["token"]}

    def test_straggler_write_gets_retryable_503_not_silent_commit(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=1, replicas_per_shard=1)
        platform.provisioning.provision("acme", "Acme", plan="team")
        headers = self.login(platform, "acme")
        created = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "CREATE TABLE kpis "
                         "(id INTEGER PRIMARY KEY, v INTEGER)"}
        ).result(30)
        assert created.status == 200, created.body

        # The straggler resolves its route, then the shard fails over.
        stale = platform.shards.write_handle("acme")
        shard_id = platform.shards.place("acme")
        platform.failover(shard_id)
        resolve = platform.shards.write_handle
        platform.shards.write_handle = lambda tenant: stale
        try:
            response = platform.gateway.submit(
                "POST", "/tenants/acme/sql", headers=headers,
                body={"sql": "INSERT INTO kpis VALUES (1, 41)"}
            ).result(30)
        finally:
            platform.shards.write_handle = resolve
        assert response.status == 503
        payload = response.json()
        assert payload["code"] == "stale_epoch"
        assert payload["retryable"] is True
        assert payload["carried_generation"] == 0
        assert payload["current_generation"] == 1

        # No silent commit: the row is nowhere.
        read = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "SELECT COUNT(*) AS c FROM kpis"}).result(30)
        assert read.json()["rows"] == [{"c": 0}]
        # The 503 did not poison the tenant's breaker: a re-routed
        # retry succeeds immediately.
        retry = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "INSERT INTO kpis VALUES (1, 41)"}).result(30)
        assert retry.status == 200, retry.body
        platform.close()


class TestAntiEntropy:
    def test_silent_divergence_is_quarantined_then_healed(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"), rows=6)
        replica = shard.replicas[0]
        replica.poll()
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        # Bit-rot on the next applied frame: commit numbers stay
        # perfect, only the content checksum can see it.
        faults.inject(f"replica.divergence.{replica.replica_id}",
                      limit=1)
        shard.primary.execute(
            "INSERT INTO events VALUES (100, 'poisoned')")

        report = supervisor.audit()
        entry = report["shard-0"][replica.replica_id]
        assert entry["verdict"] == "quarantined"
        assert entry["reason"] == "divergence"
        assert replica.applied_cn == shard.primary.committed_cn
        assert content_checksum(replica.database) \
            != content_checksum(shard.primary)
        # Quarantine is visible everywhere and excludes the replica
        # from routing.
        assert replica.replica_id \
            in shard.health()["quarantined_replicas"]
        assert replica.replica_id \
            in supervisor.health()["quarantined_replicas"]
        assert shard_map.read_handle("acme").served_by == "primary"

        heal = supervisor.audit()
        entry = heal["shard-0"][replica.replica_id]
        assert entry["verdict"] == "healed"
        assert entry["reason"].startswith("divergence")
        assert entry["quarantined_for"] >= 0.0
        assert replica.quarantined is None
        assert content_checksum(replica.database) \
            == content_checksum(shard.primary)
        # Back in the rotation.
        handle = shard_map.read_handle("acme")
        assert handle.served_by == replica.replica_id
        shard_map.close()

    def test_partitioned_replica_is_recorded_not_escalated(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        replica = shard.replicas[0]
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        faults.inject(f"replica.partition.{replica.replica_id}",
                      limit=1)
        report = supervisor.audit()
        entry = report["shard-0"][replica.replica_id]
        assert entry["verdict"] == "unreachable"
        assert replica.quarantined is None
        assert supervisor.incidents == []
        # The partition lifts; the next pass converges and verifies.
        again = supervisor.audit()
        assert again["shard-0"][replica.replica_id]["verdict"] \
            == "consistent"
        shard_map.close()

    def test_replication_gap_without_snapshot_quarantines_then_heals(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"), rows=5)
        replica = shard.replicas[0]
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        # Checkpoint past the never-polled replica, then lose the
        # snapshot: the replica cannot converge at all.
        shard.primary.checkpoint()
        for index in range(200, 203):
            shard.primary.execute(
                "INSERT INTO events VALUES (?, 'post')", (index,))
        shard.snapshot_path.unlink()
        report = supervisor.audit()
        entry = report["shard-0"][replica.replica_id]
        assert entry["verdict"] == "quarantined"
        assert entry["reason"] == "corrupt"
        # The heal pass re-checkpoints the primary, which mints the
        # snapshot the forced resync needs.
        heal = supervisor.audit()
        assert heal["shard-0"][replica.replica_id]["verdict"] \
            == "healed"
        assert content_checksum(replica.database) \
            == content_checksum(shard.primary)
        shard_map.close()

    def test_replicas_stay_a_prefix_of_a_primary_promoted_past_a_partition(
            self, tmp_path, clock, faults):
        """Both replicas are cut off for the last two commits.  The
        promoted one replays them from the log, so when the other one
        polls the same log later the two agree, and the audit finds a
        healthy replica, not a divergent one."""
        shard_map = make_map(tmp_path, clock, faults, replicas=2)
        shard = seed(shard_map.shard("shard-0"), rows=3)
        shard.poll_replicas()
        for replica in shard.replicas:
            faults.inject(f"replica.partition.{replica.replica_id}")
        for index in range(3, 5):
            shard.primary.execute(
                "INSERT INTO events VALUES (?, 'late')", (index,))
        acknowledged = shard.primary.state_fingerprint()
        shard.failover()
        assert shard.primary.state_fingerprint() == acknowledged
        faults.clear()
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        [survivor] = shard.replicas
        entry = supervisor.audit()["shard-0"][survivor.replica_id]
        assert entry["verdict"] == "consistent"
        assert entry["checksum_cn"] == shard.primary.committed_cn == 6
        assert survivor.quarantined is None
        shard_map.close()

    def test_lagging_replica_defers_the_checksum(self, tmp_path,
                                                 clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        replica = shard.replicas[0]
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        original = replica.poll
        replica.poll = lambda: 0  # shipment stalls; no divergence
        try:
            report = supervisor.audit()
        finally:
            replica.poll = original
        entry = report["shard-0"][replica.replica_id]
        assert entry["verdict"] == "lagging"
        assert entry["lag"] == shard.primary.committed_cn
        assert replica.quarantined is None
        shard_map.close()

    def test_rolled_back_ddl_leaves_the_replica_consistent(
            self, tmp_path, clock, faults):
        """A rolled-back CREATE INDEX never ships, and the primary
        unwinds it too: the audit finds primary and replica equal."""
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        replica = shard.replicas[0]
        replica.poll()
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=1)
        shard.primary.execute("BEGIN")
        shard.primary.execute("CREATE INDEX events_note ON events (note)")
        shard.primary.execute("INSERT INTO events VALUES (50, 'gone')")
        shard.primary.execute("ROLLBACK")
        shard.primary.execute("INSERT INTO events VALUES (51, 'kept')")
        report = supervisor.audit()
        assert report["shard-0"][replica.replica_id]["verdict"] \
            == "consistent"
        assert replica.quarantined is None
        assert content_checksum(replica.database) \
            == content_checksum(shard.primary)
        shard_map.close()

    def test_audit_runs_on_its_tick_cadence(self, tmp_path, clock,
                                            faults):
        shard_map = make_map(tmp_path, clock, faults)
        supervisor = ShardSupervisor(shard_map, clock=clock,
                                     faults=faults, audit_every=3)
        audited = [supervisor.tick()["audited"] for _ in range(6)]
        assert audited == [False, False, True, False, False, True]
        shard_map.close()


class TestDeterministicChaos:
    """Acceptance criterion: a seeded chaos run — primary kill,
    replica divergence and a transient partition together — is
    byte-identical across runs and escapes nothing."""

    def chaos_run(self, base):
        clock = FakeClock()
        faults = FaultInjector()
        shard_map = ShardMap(base / "shards", shards=2, replicas=2,
                             fsync="off", clock=clock, faults=faults)
        for shard in shard_map.all_shards():
            seed(shard, rows=10)
        supervisor = ShardSupervisor(
            shard_map, clock=clock, faults=faults, probe_interval=1.0,
            miss_threshold=2, min_failover_interval=0.0,
            audit_every=2)
        faults.inject("supervision.probe.shard-0", limit=2)
        divergent = shard_map.shard("shard-1").replicas[0]
        partitioned = shard_map.shard("shard-1").replicas[1]
        faults.inject(f"replica.divergence.{divergent.replica_id}",
                      limit=1)
        faults.inject(f"replica.partition.{partitioned.replica_id}",
                      limit=1)
        supervisor.run(8)  # nothing escapes, or the test errors here
        outcome = {
            "incidents": [incident.to_dict()
                          for incident in supervisor.incidents],
            "promotions": [incident.promoted
                           for incident in supervisor.incidents
                           if incident.outcome == "promoted"],
            "audit": [(entry["replica"], entry["verdict"])
                      for entry in supervisor.audit_log],
            "health": supervisor.health(),
            "shards": shard_map.health(),
        }
        shard_map.close()
        return outcome

    def test_same_schedule_same_story(self, tmp_path):
        first = self.chaos_run(tmp_path / "run1")
        second = self.chaos_run(tmp_path / "run2")
        assert first == second

    def test_the_story_itself(self, tmp_path):
        outcome = self.chaos_run(tmp_path / "run")
        # Exactly one failover: shard-0, within the probe budget.
        (incident,) = outcome["incidents"]
        assert incident["shard"] == "shard-0"
        assert incident["outcome"] == "promoted"
        assert incident["mttr"] == 1.0  # (threshold-1) x interval
        assert outcome["promotions"] == ["shard-0-replica-0"]
        # The divergent replica was quarantined then healed; the
        # partitioned one was recorded, never escalated.
        verdicts = dict(outcome["audit"])
        assert verdicts["shard-1-replica-0"] == "healed"
        assert verdicts["shard-1-replica-1"] == "unreachable"
        assert outcome["health"]["quarantined_replicas"] == {}
        assert outcome["shards"]["shard-0"]["generation"] == 1
        assert outcome["shards"]["shard-1"]["generation"] == 0


class TestResourceLifecycle:
    """Satellite (b): ``close`` releases *everything* — replicas and
    fenced ex-primaries included — and the replica's snapshot probe
    stats the file exactly once."""

    def test_close_releases_replicas_and_retired_primaries(
            self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults, replicas=2)
        shard = seed(shard_map.shard("shard-0"))
        for replica in shard.replicas:
            replica.poll()
        old_primary = shard.primary
        shard_map.failover("shard-0")
        survivors = list(shard.replicas)
        assert len(survivors) == 1
        shard_map.close()
        assert all(replica.closed for replica in survivors)
        # The fenced ex-primary's log handle was released too.
        assert old_primary.wal is None
        assert shard.primary.wal is None

    def test_close_is_idempotent(self, tmp_path, clock, faults):
        shard_map = make_map(tmp_path, clock, faults)
        seed(shard_map.shard("shard-0"))
        shard_map.close()
        shard_map.close()  # second close must be a no-op, not a raise
        replica = shard_map.shard("shard-0").replicas[0]
        replica.close()
        replica.close()

    def test_idle_poll_stats_the_snapshot_exactly_once(
            self, tmp_path, clock, faults):
        # Regression for the double-stat TOCTOU: a checkpoint landing
        # between two stats made the freshness comparison incoherent.
        shard_map = make_map(tmp_path, clock, faults)
        shard = seed(shard_map.shard("shard-0"))
        replica = shard.replicas[0]
        replica.poll()  # caught up; the next poll has no fresh frames
        calls = []
        original = replica._snapshot_stat
        replica._snapshot_stat = \
            lambda: (calls.append(1), original())[1]
        assert replica.poll() == 0
        assert len(calls) == 1
        shard_map.close()


class TestPlatformIntegration:
    def test_supervisor_heals_the_platform_and_reports_health(
            self, tmp_path):
        platform = OdbisPlatform(
            data_dir=tmp_path, fsync="off", shards=1,
            replicas_per_shard=1,
            supervision={"miss_threshold": 2,
                         "min_failover_interval": 0.0,
                         "audit_every": 0})
        platform.provisioning.provision("acme", "Acme", plan="team")
        db = platform.tenants.context("acme").operational_db
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (7)")
        shard_id = platform.shards.place("acme")
        shard = platform.shards.shard(shard_id)
        shard.replicas[0].poll()
        kill_primary(shard)
        platform.supervisor.run(3)
        (incident,) = platform.supervisor.incidents
        assert incident.outcome == "promoted"
        # The supervisor went through platform.failover, so the
        # tenant context was re-pointed at the promoted engine.
        assert platform.tenants.context("acme").operational_db \
            is shard.primary
        assert shard.primary.query("SELECT id FROM t") == [{"id": 7}]
        report = platform.health_report().to_dict()
        assert report["supervision"]["ticks"] == 3
        assert report["supervision"]["incidents"][0]["outcome"] \
            == "promoted"
        assert report["supervision"]["config"]["miss_threshold"] == 2
        platform.close()

    def test_pump_mode_moves_shipment_off_the_read_path(
            self, tmp_path):
        platform = OdbisPlatform(
            data_dir=tmp_path, fsync="off", shards=1,
            replicas_per_shard=1, supervision={"pump": True})
        assert platform.shards.route_polling is False
        platform.provisioning.provision("acme", "Acme", plan="team")
        db = platform.tenants.context("acme").operational_db
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        # Routed reads no longer ship frames: the replica is behind
        # budget, so the primary serves.
        handle = platform.shards.read_handle("acme")
        assert handle.served_by == "primary"
        # One supervision tick pumps; the next read offloads.
        platform.supervisor.tick()
        handle = platform.shards.read_handle("acme")
        assert handle.served_by.endswith("-replica-0")
        assert handle.replica_lag == 0
        platform.close()
