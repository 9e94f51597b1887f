"""Shard-map battery: placement, WAL-shipped replicas, failover.

Marker ``shard``.  Three properties carry the tentpole:

* consistent-hash placement is a pure function of ring membership,
  and rescaling moves only a bounded fraction of tenants;
* a read replica converges to its primary after a write burst, and
  survives the primary checkpointing past it (snapshot resync);
* failover promotes a replica onto *exactly* the committed prefix of
  the fenced primary's log — dangling ops and torn tails never ship —
  verified with the same ``state_fingerprint`` oracle the crash-chaos
  battery uses.
"""

import pytest

from repro.core import OdbisPlatform
from repro.core.resilience import FaultInjector
from repro.core.sharding import HashRing, Shard, ShardMap
from repro.engine.database import Database
from repro.engine.wal import committed_prefix, frame_record
from repro.errors import CrashPoint, ShardError, TenantError, WalError

pytestmark = pytest.mark.shard

TENANTS = [f"tenant-{index:03d}" for index in range(200)]


def placement(ring):
    return {tenant: ring.node_for(tenant) for tenant in TENANTS}


def make_ring(nodes):
    ring = HashRing()
    for node in nodes:
        ring.add_node(node)
    return ring


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        first = make_ring(["shard-0", "shard-1", "shard-2"])
        # Same membership, different insertion order.
        second = make_ring(["shard-2", "shard-0", "shard-1"])
        assert placement(first) == placement(second)

    def test_every_shard_takes_a_share(self):
        ring = make_ring([f"shard-{index}" for index in range(4)])
        owners = set(placement(ring).values())
        assert owners == {f"shard-{index}" for index in range(4)}

    def test_adding_a_shard_moves_a_bounded_fraction(self):
        ring = make_ring([f"shard-{index}" for index in range(4)])
        before = placement(ring)
        ring.add_node("shard-4")
        after = placement(ring)
        moved = {tenant for tenant in TENANTS
                 if before[tenant] != after[tenant]}
        # Expect ~1/5 of tenants to move; allow generous slack but
        # far below the "rehash the world" 3/4.
        assert 0 < len(moved) <= len(TENANTS) * 0.45
        # Every move lands on the new shard — never a reshuffle
        # between survivors.
        assert {after[tenant] for tenant in moved} == {"shard-4"}

    def test_removing_the_shard_restores_the_old_placement(self):
        ring = make_ring([f"shard-{index}" for index in range(4)])
        before = placement(ring)
        ring.add_node("shard-4")
        ring.remove_node("shard-4")
        assert placement(ring) == before

    def test_membership_errors_are_typed(self):
        ring = HashRing()
        with pytest.raises(ShardError):
            ring.node_for("anyone")
        ring.add_node("shard-0")
        with pytest.raises(ShardError):
            ring.add_node("shard-0")
        with pytest.raises(ShardError):
            ring.remove_node("shard-9")


@pytest.fixture
def shard_map(tmp_path):
    shard_map = ShardMap(tmp_path / "shards", shards=2, replicas=1,
                         fsync="off")
    yield shard_map
    shard_map.close()


def seeded_shard(shard_map, tenant="acme", rows=0):
    """The tenant's shard with a table and ``rows`` committed rows."""
    shard = shard_map.shard_for(tenant)
    shard.primary.execute(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, note TEXT)")
    for index in range(rows):
        shard.primary.execute(
            "INSERT INTO events VALUES (?, ?)",
            (index, f"note-{index}"))
    return shard


class TestReplication:
    def test_replica_lag_is_visible_and_converges(self, shard_map):
        shard = seeded_shard(shard_map, rows=25)
        replica = shard.replicas[0]
        lag = shard.replica_lag()[replica.replica_id]
        assert lag == shard.primary.committed_cn  # never polled
        applied = replica.poll()
        assert applied == shard.primary.committed_cn
        assert shard.replica_lag()[replica.replica_id] == 0
        assert replica.database.state_fingerprint() \
            == shard.primary.state_fingerprint()

    def test_polling_is_idempotent(self, shard_map):
        shard = seeded_shard(shard_map, rows=5)
        replica = shard.replicas[0]
        assert replica.poll() > 0
        assert replica.poll() == 0
        assert replica.database.state_fingerprint() \
            == shard.primary.state_fingerprint()

    def test_staleness_budget_gates_replica_eligibility(
            self, shard_map):
        shard = seeded_shard(shard_map, rows=0)
        replica = shard.replicas[0]
        replica.poll()
        for index in range(5):
            shard.primary.execute(
                "INSERT INTO events VALUES (?, 'burst')", (index,))
        lag = shard.replica_lag()[replica.replica_id]
        assert lag == 5
        assert shard.read_handle(lag - 1).served_by == "primary"
        assert shard.read_handle(lag).served_by == replica.replica_id

    def test_route_read_ships_then_serves_replica(self, shard_map):
        seeded_shard(shard_map, rows=10)
        database, route = shard_map.route_read("acme")
        assert route["served_by"].endswith("-replica-0")
        assert route["replica_lag"] == 0
        assert database.query(
            "SELECT COUNT(*) AS c FROM events") == [{"c": 10}]

    def test_checkpoint_gap_forces_snapshot_resync(self, shard_map):
        shard = seeded_shard(shard_map, rows=8)
        replica = shard.replicas[0]
        # Replica never polled; the primary checkpoints (snapshot +
        # log reset), then commits more.  The transactions the replica
        # needs are gone from the log — only the snapshot has them.
        shard.primary.checkpoint()
        for index in range(100, 103):
            shard.primary.execute(
                "INSERT INTO events VALUES (?, 'post-ckpt')",
                (index,))
        replica.poll()
        assert replica.resyncs == 1
        assert shard.replica_lag()[replica.replica_id] == 0
        assert replica.database.state_fingerprint() \
            == shard.primary.state_fingerprint()

    def test_resync_with_empty_log_after_checkpoint(self, shard_map):
        shard = seeded_shard(shard_map, rows=8)
        replica = shard.replicas[0]
        shard.primary.checkpoint()  # log now empty, snapshot ahead
        replica.poll()
        assert replica.resyncs == 1
        assert replica.database.state_fingerprint() \
            == shard.primary.state_fingerprint()


class TestShipOnDemand:
    """The route ships only to a replica that is behind; every other
    poll stays unconditional."""

    def test_acknowledged_write_is_in_the_very_next_routed_read(
            self, shard_map):
        shard = seeded_shard(shard_map, rows=3)
        replica = shard.replicas[0]
        shard_map.route_read("acme")
        for index in range(10, 15):
            shard.primary.execute(
                "INSERT INTO events VALUES (?, 'acked')", (index,))
            polls = replica.polls
            database, route = shard_map.route_read("acme")
            assert route["served_by"] == replica.replica_id
            assert route["replica_lag"] == 0
            assert database.query(
                "SELECT note FROM events WHERE id = ?", (index,)) \
                == [{"note": "acked"}]
            assert replica.polls == polls + 1

    def test_reads_with_nothing_to_fetch_do_not_poll(self, shard_map):
        shard = seeded_shard(shard_map, rows=3)
        replica = shard.replicas[0]
        shard_map.route_read("acme")
        polls = replica.polls
        for _ in range(25):
            _, route = shard_map.route_read("acme")
            assert route["served_by"] == replica.replica_id
            assert route["replica_lag"] == 0
        assert replica.polls == polls
        # Every other shipment polls whether or not numbers differ.
        shard.poll_replicas()
        shard_map.poll()
        assert replica.polls == polls + 2

    def test_partitioned_replica_stays_behind_and_primary_serves(
            self, tmp_path):
        faults = FaultInjector()
        shard_map = ShardMap(tmp_path / "shards", shards=1, replicas=1,
                             fsync="off", faults=faults)
        try:
            shard = seeded_shard(shard_map, rows=2)
            replica = shard.replicas[0]
            shard_map.route_read("acme")
            faults.inject(f"replica.partition.{replica.replica_id}")
            shard.primary.execute(
                "INSERT INTO events VALUES (50, 'unshipped')")
            for _ in range(3):  # behind: polled, and cut off, each time
                polls = replica.polls
                database, route = shard_map.route_read("acme")
                assert route["served_by"] == "primary"
                assert database is shard.primary
                assert replica.polls == polls + 1
            assert shard.replica_lag()[replica.replica_id] == 1
            _, route = shard_map.route_read("acme", max_staleness=1)
            assert route["served_by"] == replica.replica_id
            assert route["replica_lag"] == 1
        finally:
            shard_map.close()

    def test_durable_unpublished_commit_ships_at_failover(
            self, tmp_path):
        """A crash between the log's fsync and the publish leaves a
        commit no comparison of commit numbers can see — which is why
        only the route may skip a poll."""
        faults = FaultInjector()
        shard_map = ShardMap(tmp_path / "shards", shards=1, replicas=1,
                             fsync="off", faults=faults)
        try:
            shard = seeded_shard(shard_map, rows=0)
            replica = shard.replicas[0]
            primary, wal = shard.primary, shard.primary.wal
            before = wal.offset
            primary.execute("INSERT INTO events VALUES (1, 'one')")
            chunk = wal.offset - before
            shard_map.route_read("acme")
            published = primary.committed_cn
            # Same-sized row: the crash lands just past its commit
            # record, after the fsync and before the acknowledgement.
            faults.crash_at("wal.append", wal.offset + chunk)
            with pytest.raises(CrashPoint):
                primary.execute("INSERT INTO events VALUES (2, 'two')")
            assert primary.committed_cn == published
            assert committed_prefix(shard.wal_path)[0][-1][0] \
                == published + 1
            polls = replica.polls
            _, route = shard_map.route_read("acme")
            assert route["replica_lag"] == 0
            assert replica.polls == polls  # equal numbers: not shipped
            assert shard.failover() == replica.replica_id
            assert shard.primary.committed_cn == published + 1
            assert shard.primary.query(
                "SELECT note FROM events WHERE id = 2") \
                == [{"note": "two"}]
        finally:
            shard_map.close()


class TestReplicaVersionCollection:
    def test_replica_settles_versions_as_it_applies(self, shard_map):
        """A replica is never checkpointed: applying shipped commits
        settles it as committing settles its primary, so its versions
        end under the settle bound, while a snapshot pinned on it keeps
        what it saw until released."""
        from repro.engine.storage import SETTLE_FLOOR, SETTLE_FRACTION

        shard = shard_map.shard_for("acme")
        primary, replica = shard.primary, shard.replicas[0]
        primary.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for index in range(20):
            primary.execute("INSERT INTO t VALUES (?, 0)", (index,))
        shard_map.route_read("acme")
        pinned = replica.database.open_snapshot()
        bound = 20 + 20 * SETTLE_FRACTION + SETTLE_FLOOR
        for update in range(600):
            primary.execute("UPDATE t SET v = ? WHERE id = ?",
                            (update + 1, update % 20))
            shard_map.route_read("acme")
            if update % 50 == 24:
                primary.checkpoint()
            elif update == 300:
                # The pinned snapshot held the horizon through the
                # collections so far and still reads what it saw.
                assert replica.database.version_count("t") == 20 + 301
                old = replica.database.storage("t").snapshot_rows(
                    pinned.cn)
                assert sorted(row for _, row in old) \
                    == [[index, 0] for index in range(20)]
                pinned.close()
        assert replica.log_restarts == 12
        assert replica.resyncs == 0
        assert replica.database.version_count("t") <= bound
        assert primary.version_count("t") <= bound
        assert replica.database.state_fingerprint() \
            == primary.state_fingerprint()

    def test_health_reports_shipping_counters(self, shard_map):
        shard = seeded_shard(shard_map, rows=4)
        replica = shard.replicas[0]
        shard_map.route_read("acme")
        shard_map.route_read("acme")
        shard.primary.checkpoint()
        shard.primary.execute("INSERT INTO events VALUES (9, 'x')")
        shard_map.route_read("acme")
        assert shard_map.health()[shard.shard_id]["replica_shipping"] \
            == {replica.replica_id:
                {"polls": 2, "resyncs": 0, "log_restarts": 1}}


class TestFailover:
    def test_promotion_serves_exactly_the_committed_prefix(
            self, shard_map):
        shard = seeded_shard(shard_map, rows=12)
        committed = shard.primary.state_fingerprint()
        # Plant what a crashing primary leaves behind: an intact but
        # uncommitted op run, then a torn frame.  Neither is part of
        # the committed prefix and neither may ship.
        with open(shard.wal_path, "ab") as handle:
            handle.write(frame_record(
                ("op", ("insert", "events", 999, [999, "ghost"]))))
            handle.write(b"\x13\x37")
        promoted_id = shard.failover()
        assert promoted_id.endswith("-replica-0")
        assert shard.primary.state_fingerprint() == committed
        assert shard.primary.query(
            "SELECT COUNT(*) AS c FROM events WHERE id = 999") \
            == [{"c": 0}]

    def test_old_primary_is_fenced(self, shard_map):
        shard = seeded_shard(shard_map, rows=3)
        old_primary = shard.primary
        shard.failover()
        with pytest.raises(WalError):
            old_primary.execute(
                "INSERT INTO events VALUES (99, 'straggler')")

    def test_promoted_primary_accepts_writes_and_numbers_onward(
            self, shard_map):
        shard = seeded_shard(shard_map, rows=4)
        fenced_cn = shard.primary.committed_cn
        shard.failover()
        assert shard.primary.committed_cn == fenced_cn
        shard.primary.execute(
            "INSERT INTO events VALUES (100, 'after')")
        assert shard.primary.committed_cn == fenced_cn + 1
        assert shard.primary.wal.last_number == fenced_cn + 1

    def test_failover_trips_the_old_breaker_and_bumps_generation(
            self, shard_map):
        shard = seeded_shard(shard_map, rows=1)
        assert shard.breaker.state == "closed"
        shard.failover()
        assert shard.fenced_breaker is not None
        assert shard.fenced_breaker.state == "open"
        assert shard.breaker.state == "closed"  # the new primary's
        assert shard.generation == 1
        health = shard_map.health()[shard.shard_id]
        assert health["generation"] == 1
        assert health["fenced_breaker"] == "open"

    def test_partitioned_replica_is_promoted_with_every_acknowledged_write(
            self, tmp_path):
        """The promoted replica's final catch-up poll is cut off, so it
        misses commits 5 and 6.  Promotion replays them from the log,
        as recovery would, instead of numbering on past them."""
        faults = FaultInjector()
        shard = Shard("s0", tmp_path, replicas=1, fsync="off",
                      faults=faults)
        try:
            shard.primary.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            for index in range(3):
                shard.primary.execute("INSERT INTO t VALUES (?, ?)",
                                      (index, index))
            shard.poll_replicas()
            faults.inject(
                f"replica.partition.{shard.replicas[0].replica_id}")
            for index in range(3, 5):
                shard.primary.execute("INSERT INTO t VALUES (?, ?)",
                                      (index, index))
            acknowledged = shard.primary.state_fingerprint()
            assert shard.replicas[0].applied_cn == 4
            shard.failover()
            assert shard.primary.committed_cn == 6
            assert shard.primary.state_fingerprint() == acknowledged
            # The next commit takes the next rowid and number.
            shard.primary.execute("INSERT INTO t VALUES (5, 5)")
            assert shard.primary.wal.last_number == 7
            live = shard.primary.state_fingerprint()
        finally:
            shard.close()
        recovered = Database.recover(tmp_path, "s0", fsync="off")
        try:
            assert recovered.committed_cn == 7
            assert recovered.state_fingerprint() == live
        finally:
            recovered.close()

    def test_replica_behind_a_checkpoint_is_not_promoted(self, tmp_path):
        """A replica cut off before the primary checkpointed cannot
        replay the reset log: the failover raises and promotes nothing,
        and a retry once the partition lifts resyncs and promotes."""
        faults = FaultInjector()
        shard = Shard("s0", tmp_path, replicas=1, fsync="off",
                      faults=faults)
        try:
            seeded = shard.primary
            seeded.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            replica = shard.replicas[0]
            faults.inject(f"replica.partition.{replica.replica_id}")
            seeded.execute("INSERT INTO t VALUES (1)")
            seeded.checkpoint()
            seeded.execute("INSERT INTO t VALUES (2)")
            acknowledged = seeded.state_fingerprint()
            with pytest.raises(WalError, match="#0 .*#3"):
                shard.failover()
            assert shard.primary is seeded and shard.generation == 0
            assert replica.applied_cn == 0
            faults.clear()
            assert shard.failover() == replica.replica_id
            assert shard.primary.state_fingerprint() == acknowledged
        finally:
            shard.close()

    def test_failover_without_replicas_is_typed(self, tmp_path):
        bare = ShardMap(tmp_path / "bare", shards=1, replicas=0,
                        fsync="off")
        try:
            with pytest.raises(ShardError):
                bare.failover("shard-0")
        finally:
            bare.close()


class TestShardedPlatform:
    def login(self, platform, tenant):
        response = platform.web.request(
            "POST", "/login",
            body={"username": f"admin@{tenant}",
                  "password": "changeme"})
        assert response.status == 200
        return {"x-auth-token": response.json()["token"]}

    def test_sql_route_reads_from_replica_and_survives_failover(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=2, replicas_per_shard=1)
        platform.provisioning.provision("acme", "Acme", plan="team")
        headers = self.login(platform, "acme")
        write = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "CREATE TABLE kpis "
                         "(id INTEGER PRIMARY KEY, v INTEGER)"}
        ).result(30)
        assert write.status == 200, write.body
        platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "INSERT INTO kpis VALUES (1, 41)"}
        ).result(30)
        read = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "SELECT v FROM kpis"}).result(30)
        payload = read.json()
        assert payload["rows"] == [{"v": 41}]
        assert payload["served_by"].endswith("-replica-0")
        assert payload["replica_lag"] == 0

        shard_id = platform.shards.place("acme")
        outcome = platform.failover(shard_id)
        assert "acme" in outcome["tenants_moved"]
        again = platform.gateway.submit(
            "POST", "/tenants/acme/sql", headers=headers,
            body={"sql": "SELECT v FROM kpis"}).result(30)
        assert again.json()["rows"] == [{"v": 41}]
        # Post-promotion the shard has no replica left; the primary
        # serves (correctness over offload).
        assert again.json()["served_by"] == "primary"
        report = platform.health_report().to_dict()
        assert report["shards"][shard_id]["generation"] == 1
        platform.close()

    def test_acknowledged_write_survives_failover_past_a_partition(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=1, replicas_per_shard=1)
        try:
            platform.provisioning.provision("acme", "Acme", plan="team")
            headers = self.login(platform, "acme")

            def sql(text):
                return platform.gateway.submit(
                    "POST", "/tenants/acme/sql", headers=headers,
                    body={"sql": text}).result(30)

            assert sql("CREATE TABLE kpis "
                       "(id INTEGER PRIMARY KEY, v INTEGER)").status == 200
            assert sql("INSERT INTO kpis VALUES (1, 41)").status == 200
            assert sql("SELECT id FROM kpis").json()["served_by"] \
                .endswith("-replica-0")
            replica = platform.shards.shard("shard-0").replicas[0]
            platform.faults.inject(
                f"replica.partition.{replica.replica_id}")
            assert sql("INSERT INTO kpis VALUES (2, 42)").status == 200
            platform.failover("shard-0")
            assert sql("SELECT id FROM kpis ORDER BY id").json()["rows"] \
                == [{"id": 1}, {"id": 2}]
        finally:
            platform.close()

    def test_sharded_platform_recovers_with_stable_placement(
            self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=3, replicas_per_shard=1)
        for tenant in ("acme", "globex", "initech"):
            platform.provisioning.provision(tenant, tenant.title(),
                                            plan="team")
        placed = {tenant: platform.shards.place(tenant)
                  for tenant in ("acme", "globex", "initech")}
        db = platform.tenants.context("acme").operational_db
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (7)")
        platform.close()

        recovered = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                  shards=3, replicas_per_shard=1)
        try:
            assert {tenant: recovered.shards.place(tenant)
                    for tenant in placed} == placed
            rows = recovered.tenants.context(
                "acme").operational_db.query("SELECT id FROM t")
            assert rows == [{"id": 7}]
            # The recovered operational db IS the placed shard primary.
            assert recovered.tenants.context("acme").operational_db \
                is recovered.shards.shard(placed["acme"]).primary
        finally:
            recovered.close()

    def test_sharding_without_data_dir_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            OdbisPlatform(shards=2)

    def test_deactivated_tenant_cannot_reach_its_shard(self, tmp_path):
        platform = OdbisPlatform(data_dir=tmp_path, fsync="off",
                                 shards=1, replicas_per_shard=1)
        platform.provisioning.provision("acme", "Acme", plan="team")
        platform.tenants.deactivate("acme")
        with pytest.raises(TenantError):
            platform.tenants.require_active("acme")
        response = platform.gateway.submit(
            "POST", "/tenants/acme/sql",
            body={"sql": "SELECT 1"}).result(30)
        assert response.status == 403
        platform.close()
