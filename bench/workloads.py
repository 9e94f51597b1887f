"""The four front-door workloads: set-up, seeded generators, oracles.

Each workload has three parts that never mix:

* ``build`` constructs a fresh :class:`~repro.OdbisPlatform`, loads it
  and logs in — everything ``setup_s`` times;
* a *generator* per client: a pure function of ``(seed, client)`` that
  yields :class:`Op` values.  It never sees the platform, so the same
  seed gives a byte-identical operation sequence (``op_digest``);
* an *oracle* that checks every response against expectations computed
  at set-up (through ``platform.web.request``, never the gateway) or
  carried by the op from the generator's own ledger.

The sizes, mixes and rates below are frozen: parent and change must run
identical inputs.  Only an issue of archetype ``benchmark`` edits them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import time
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro import OdbisPlatform
from repro.etl import CallableSource
from repro.reporting import DashboardDefinition
from repro.workloads import HealthcareWorkload, RetailWorkload

PASSWORD = "changeme"
CUBE = "RetailSales"

#: SLO classes and their latency limits in ms (ISSUE 11).
SLO_LIMIT_MS = {"interactive": 50.0, "reporting": 250.0, "batch": 1000.0}


class Op(NamedTuple):
    """One generated operation.

    ``method`` is an HTTP method sent through ``gateway.submit``, or
    ``CALL`` for work the scheduler/operator does directly on the
    platform (a cube refresh, a checkpoint).  ``expect`` is whatever the
    oracle needs from the generator's ledger.
    """

    kind: str
    tenant: Optional[str]
    method: str
    path: str
    body: Any = None
    expect: Any = None


def op_digest(ops: Iterator[Op], count: int) -> str:
    """SHA-256 over the first ``count`` ops of a generator."""
    digest = hashlib.sha256()
    for op in itertools.islice(ops, count):
        digest.update(repr(tuple(op)).encode())
    return digest.hexdigest()


def zipf_cum_weights(count: int, exponent: float) -> List[float]:
    weights = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    return list(itertools.accumulate(weights))


def deck(rng: random.Random, mix: Sequence[Tuple[str, int]]) \
        -> Iterator[str]:
    """Op kinds in exact proportions: every ``sum(counts)`` draws hold
    each kind exactly ``count`` times, in a seeded order.  Independent
    draws would let the share of expensive ops wander by a few percent
    from seed to seed, which is most of what a 20 s run can resolve."""
    cards = [kind for kind, count in mix for _ in range(count)]
    while True:
        rng.shuffle(cards)
        yield from cards


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def _sql(tenant: str, kind: str, sql: str, params: Tuple = (),
         expect: Any = None) -> Op:
    body: Dict[str, Any] = {"sql": sql}
    if params:
        body["params"] = list(params)
    return Op(kind, tenant, "POST", f"/tenants/{tenant}/sql", body,
              expect)


class Deployment:
    """A built platform plus what the run needs to talk to it."""

    def __init__(self, workload: "Workload", platform: OdbisPlatform,
                 data_dir: Optional[Path]):
        self.workload = workload
        self.platform = platform
        self.data_dir = data_dir
        self.tokens: Dict[str, str] = {}
        #: (method, path, canonical body) -> expected response body.
        self.static: Dict[Tuple[str, str, str], str] = {}
        self.state: Dict[str, Any] = {}
        #: The first few answers the oracle refused, for the report.
        self.refused: List[str] = []

    def login(self, tenant: str) -> None:
        response = self.platform.web.request(
            "POST", "/login",
            {"username": f"admin@{tenant}", "password": PASSWORD})
        if response.status != 200:
            raise RuntimeError(
                f"login failed for {tenant}: {response.body}")
        self.tokens[tenant] = response.json()["token"]

    def headers(self, tenant: Optional[str]) -> Optional[Dict[str, str]]:
        if tenant is None:
            return None
        return {"X-Auth-Token": self.tokens[tenant]}

    @staticmethod
    def _key(op: Op) -> Tuple[str, str, str]:
        return (op.method, op.path, json.dumps(op.body, sort_keys=True))

    def remember(self, op: Op) -> str:
        """Record the response to a static read, asked directly of the
        web layer at set-up, as the expected body."""
        response = self.platform.web.request(
            op.method, op.path, op.body, self.headers(op.tenant))
        if response.status != 200:
            raise RuntimeError(
                f"set-up probe {op.method} {op.path} answered "
                f"{response.status}: {response.body}")
        self.static[self._key(op)] = response.body
        return response.body

    def check(self, op: Op, response: Any) -> bool:
        """Verify one response; remember what a refused one said."""
        ok = self.workload.verify(self, op, response)
        if not ok and len(self.refused) < 10:
            self.refused.append(
                f"{op.kind} {op.method} {op.path}: "
                f"{getattr(response, 'status', '')} "
                f"{str(getattr(response, 'body', response))[:200]}")
        return ok

    def matches_static(self, op: Op, response: Any) -> bool:
        return response.status == 200 \
            and response.body == self.static.get(self._key(op))

    def discard(self) -> None:
        """Stop the pool threads and drop the data directory."""
        self.platform.gateway.shutdown()
        if self.data_dir is not None:
            self.platform.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)


class Workload:
    """Base: names, mix bookkeeping and the shared verification."""

    name = ""
    open_loop = False
    clients = 2
    #: Ops per client run untimed before the measured window: caches
    #: filled, gateway pool threads spawned, lazy set-up done.
    warmup_ops = 150
    durable = False
    #: Op class -> SLO class (None: operator work, not a user request).
    kinds: Dict[str, Optional[str]] = {}
    #: The op classes ``primary_read_*`` / ``primary_write_*`` time: the
    #: one interaction of each sort this workload's users wait on most.
    primary_read = ""
    primary_write = ""
    #: Layers this workload must never enter (asserted on traced runs).
    bypasses: Tuple[str, ...] = ()

    def build(self, seed: int, data_dir: Optional[Path]) -> Deployment:
        raise NotImplementedError

    def prime(self, deployment: Deployment) -> None:
        """Untimed: compute the oracle's expectations."""

    def generator(self, seed: int, client: int) -> Iterator[Op]:
        raise NotImplementedError

    def call(self, deployment: Deployment, op: Op) -> Any:
        """Run a ``CALL`` op directly on the platform."""
        if op.kind == "checkpoint":
            return deployment.platform.checkpoint()
        raise ValueError(f"{self.name}: no direct call for {op.kind!r}")

    def verify(self, deployment: Deployment, op: Op,
               response: Any) -> bool:
        raise NotImplementedError

    def finish(self, deployment: Deployment,
               generators: List[Iterator[Op]],
               run_ops: Callable[[int], List[Any]]) -> Dict[str, Any]:
        """Post-run state checks; returns ``{"correct": bool, ...}``.
        ``run_ops(n)`` runs n more (untimed) ops on every client."""
        return {"correct": True}


def _rows_of(response: Any) -> Any:
    if response.status != 200:
        return None
    return json.loads(response.body).get("rows")


def _write_ok(response: Any) -> bool:
    return response.status == 200 \
        and json.loads(response.body).get("rowcount") == 1


# -- the BI data every dashboard workload loads ------------------------------------------

DATASETS = {
    "by-department":
        "SELECT department, COUNT(*) AS admissions, "
        "SUM(cost) AS total_cost, AVG(length_of_stay) AS avg_stay "
        "FROM admissions GROUP BY department ORDER BY department",
    "by-severity":
        "SELECT severity, COUNT(*) AS admissions FROM admissions "
        "GROUP BY severity ORDER BY severity",
}
DASHBOARD = "overview"

_MDX_MEASURES = (("revenue",), ("quantity",), ("revenue", "quantity"))
_MDX_AXES = (("Time", "year"), ("Time", "quarter"), ("Time", "month"),
             ("Product", "category"), ("Product", "sku"),
             ("Store", "region"), ("Store", "city"))
_MDX_SLICERS = (None,
                ("Store", "region", "North"), ("Store", "region", "South"),
                ("Store", "region", "West"),
                ("Product", "category", "Food"),
                ("Product", "category", "Electronics"),
                ("Product", "category", "Clothing"),
                ("Time", "year", "2009"), ("Time", "year", "2010"))
MDX_DISTINCT = 48


class MdxStatement(NamedTuple):
    text: str
    measures: Tuple[str, ...]
    slicer: Optional[Tuple[str, str, str]]


def mdx_statements() -> List[MdxStatement]:
    """48 distinct statements, an even stride through the
    measures x axis x slicer product, most popular first.  The list
    and its popularity order are the same for every seed: which
    statements are hot decides how much a cache hit costs."""
    combos = list(itertools.product(_MDX_MEASURES, _MDX_AXES,
                                    _MDX_SLICERS))
    stride = len(combos) / MDX_DISTINCT
    statements = []
    for index in range(MDX_DISTINCT):
        measures, (dimension, level), slicer = combos[int(index * stride)]
        columns = ", ".join(f"[Measures].[{m}]" for m in measures)
        text = (f"SELECT {{{columns}}} ON COLUMNS, "
                f"{{[{dimension}].[{level}].Members}} ON ROWS "
                f"FROM [{CUBE}]")
        if slicer is not None:
            text += " WHERE ([%s].[%s].[%s])" % slicer
        statements.append(MdxStatement(text, measures, slicer))
    return statements


def load_bi_tenant(platform: OdbisPlatform, tenant: str, seed: int,
                   rows: int) -> None:
    """Provision one tenant with the Fig. 6 healthcare warehouse, two
    GROUP BY data sets, a stored dashboard definition over them, and
    the retail cube."""
    context = platform.provisioning.provision(tenant, tenant, plan="team")
    HealthcareWorkload(seed=seed).load(context.warehouse_db, count=rows)
    RetailWorkload(seed=seed).build(context.warehouse_db, fact_rows=rows)
    for name, sql in DATASETS.items():
        platform.metadata.create_dataset(tenant, name, "warehouse", sql)
    definition = DashboardDefinition(
        DASHBOARD, "Admissions and costs by department")
    definition.add_row(
        definition.chart("by-department", "admissions-by-department",
                         "bar", "department", "admissions"),
        definition.chart("by-severity", "admissions-by-severity",
                         "pie", "severity", "admissions"))
    definition.add_row(definition.table(
        "by-department", "department-detail",
        ["department", "admissions", "total_cost", "avg_stay"],
        sort_by="total_cost", descending=True))
    platform.reporting.define_dashboard(tenant, definition)
    platform.analysis.define_cube(
        tenant, RetailWorkload().cube_definition())


def _dashboard_op(tenant: str) -> Op:
    return Op("dashboard", tenant, "GET",
              f"/tenants/{tenant}/dashboards/{DASHBOARD}")


def _dashboard_list_op(tenant: str) -> Op:
    return Op("dashboard_list", tenant, "GET",
              f"/tenants/{tenant}/dashboards")


def _dataset_op(tenant: str, dataset: str) -> Op:
    return Op("dataset_rows", tenant, "GET",
              f"/tenants/{tenant}/datasets/{dataset}/rows")


def _mdx_op(tenant: str, index: int, statement: MdxStatement) -> Op:
    return Op("mdx", tenant, "POST", f"/tenants/{tenant}/mdx",
              {"statement": statement.text}, index)


# -- dashboard_bare ----------------------------------------------------------------------


class CubeOracle:
    """Expected MDX totals for one tenant: the set-up answer plus the
    generator's running sum of facts appended by refreshes."""

    def __init__(self, deployment: Deployment, tenant: str,
                 statements: List[MdxStatement]):
        self.statements = statements
        self.refreshes = 0
        self.base: List[Dict[str, float]] = []
        for index, statement in enumerate(statements):
            body = deployment.remember(_mdx_op(tenant, index, statement))
            self.base.append(self._totals(json.loads(body)))
        warehouse = deployment.platform.tenants.context(
            tenant).warehouse_db
        self._year = {row["time_key"]: str(row["year"]) for row in
                      warehouse.query("SELECT time_key, year FROM dim_time")}
        self._category = {
            row["product_key"]: row["category"] for row in
            warehouse.query("SELECT product_key, category FROM dim_product")}
        self._region = {row["store_key"]: row["region"] for row in
                        warehouse.query(
                            "SELECT store_key, region FROM dim_store")}
        #: (year, category, region) -> [revenue, quantity] appended.
        self.appended: Dict[Tuple[str, str, str], List[float]] = {}

    @staticmethod
    def _totals(payload: Dict[str, Any]) -> Dict[str, float]:
        return {measure: sum(row[measure] or 0 for row in payload["rows"])
                for measure in payload["measures"]}

    def append(self, rows: List[Dict[str, Any]]) -> None:
        self.refreshes += 1
        for row in rows:
            key = (self._year[row["time_key"]],
                   self._category[row["product_key"]],
                   self._region[row["store_key"]])
            sums = self.appended.setdefault(key, [0.0, 0])
            sums[0] += row["revenue"]
            sums[1] += row["quantity"]

    def _delta(self, statement: MdxStatement) -> Dict[str, float]:
        position = {"Time": 0, "Product": 1, "Store": 2}
        revenue, quantity = 0.0, 0
        for key, sums in self.appended.items():
            if statement.slicer is None or \
                    key[position[statement.slicer[0]]] == statement.slicer[2]:
                revenue += sums[0]
                quantity += sums[1]
        return {"revenue": revenue, "quantity": quantity}

    def check(self, deployment: Deployment, op: Op,
              response: Any) -> bool:
        if self.refreshes == 0:
            return deployment.matches_static(op, response)
        if response.status != 200:
            return False
        statement = self.statements[op.expect]
        got = self._totals(json.loads(response.body))
        delta = self._delta(statement)
        for measure in statement.measures:
            want = self.base[op.expect][measure] + delta[measure]
            if abs(got[measure] - want) > 1e-6 * max(1.0, abs(want)):
                return False
        return True


class DashboardBare(Workload):
    """Fig. 6 viewer sessions on an in-memory platform: engine
    scans, reporting and olap do the work; wal, sharding and
    overload do none, so a change there must show no change.
    """

    name = "dashboard_bare"
    bypasses = ("engine.wal", "core.sharding", "core.overload")
    tenants = ("clinic-0", "clinic-1")
    rows = 10_000
    #: Facts appended per refresh.  ISSUE 11 said 200; at a refresh
    #: every 50 ops that grows the 10 000-fact table by a third within
    #: one run and throughput drifts by 13 %.  50 keeps drift near 4 %.
    refresh_rows = 50
    mix = (("dashboard", 35), ("dashboard_list", 10), ("dataset_rows", 15),
           ("mdx", 35), ("login", 3), ("refresh", 2))
    primary_read = "dashboard"
    primary_write = "refresh"
    kinds = {
        "dashboard": "reporting",
        "dashboard_list": "interactive",
        "dataset_rows": "interactive",
        "mdx": "interactive",
        "login": "interactive",
        "refresh": "batch",
    }

    def build(self, seed: int, data_dir: Optional[Path]) -> Deployment:
        platform = OdbisPlatform()
        deployment = Deployment(self, platform, data_dir)
        pending: Dict[str, List[Dict[str, Any]]] = {}
        deployment.state["pending"] = pending
        for index, tenant in enumerate(self.tenants):
            load_bi_tenant(platform, tenant, seed + index, self.rows)
            platform.integration.define_job(
                tenant, "append-facts",
                CallableSource(lambda tenant=tenant: pending[tenant],
                               name="fact-feed"),
                target_table="fact_sales")
            deployment.login(tenant)
        return deployment

    def prime(self, deployment: Deployment) -> None:
        statements = mdx_statements()
        oracles = {}
        for tenant in self.tenants:
            deployment.remember(_dashboard_op(tenant))
            deployment.remember(_dashboard_list_op(tenant))
            for dataset in DATASETS:
                deployment.remember(_dataset_op(tenant, dataset))
            oracles[tenant] = CubeOracle(deployment, tenant, statements)
        deployment.state["cubes"] = oracles

    def generator(self, seed: int, client: int) -> Iterator[Op]:
        rng = _rng(self.name, seed, client)
        tenant = self.tenants[client % len(self.tenants)]
        statements = mdx_statements()
        cum_weights = zipf_cum_weights(len(statements), 1.1)
        datasets = sorted(DATASETS)
        for kind in deck(rng, self.mix):
            if kind == "dashboard":
                yield _dashboard_op(tenant)
            elif kind == "dashboard_list":
                yield _dashboard_list_op(tenant)
            elif kind == "dataset_rows":
                yield _dataset_op(tenant, rng.choice(datasets))
            elif kind == "mdx":
                index = rng.choices(range(len(statements)),
                                    cum_weights=cum_weights)[0]
                yield _mdx_op(tenant, index, statements[index])
            elif kind == "login":
                yield Op("login", None, "POST", "/login",
                         {"username": f"admin@{tenant}",
                          "password": PASSWORD}, tenant)
            else:
                yield Op("refresh", tenant, "CALL", "refresh",
                         self._fact_batch(rng))

    def _fact_batch(self, rng: random.Random) -> List[Dict[str, Any]]:
        return [{"time_key": rng.randint(1, 730),
                 "product_key": rng.randint(1, 10),
                 "store_key": rng.randint(1, 6),
                 "revenue": round(rng.uniform(1.0, 900.0), 2),
                 "quantity": rng.randint(1, 8)}
                for _ in range(self.refresh_rows)]

    def call(self, deployment: Deployment, op: Op) -> Any:
        if op.kind != "refresh":
            return super().call(deployment, op)
        # What the ETL scheduler does on a tick: run the load job,
        # then drop the cube's cached aggregates.
        deployment.state["pending"][op.tenant] = op.body
        result = deployment.platform.integration.run_job(
            op.tenant, "append-facts")
        deployment.platform.analysis.invalidate_cube(op.tenant, CUBE)
        return result

    def verify(self, deployment: Deployment, op: Op,
               response: Any) -> bool:
        if op.kind == "mdx":
            return deployment.state["cubes"][op.tenant].check(
                deployment, op, response)
        if op.kind == "refresh":
            if response.rows_written != len(op.body) \
                    or response.rows_rejected:
                return False
            deployment.state["cubes"][op.tenant].append(op.body)
            return True
        if op.kind == "login":
            return response.status == 200 \
                and json.loads(response.body).get("tenant") == op.expect
        return deployment.matches_static(op, response)


# -- oltp_wal ----------------------------------------------------------------------------

ORDERS_DDL = ("CREATE TABLE orders (id INTEGER PRIMARY KEY, "
              "tenant TEXT NOT NULL, customer TEXT NOT NULL, "
              "amount REAL NOT NULL, status TEXT NOT NULL, note TEXT)")
ORDER_COLUMNS = "id, tenant, customer, amount, status"
_STATUSES = ("new", "paid", "shipped", "closed")


def _note(rng: random.Random) -> str:
    return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=60))


def _user_bytes(row: Tuple) -> int:
    """Bytes of user row data: text as UTF-8, 8 per number."""
    return sum(len(value.encode()) if isinstance(value, str) else 8
               for value in row)


class OrdersGenerator:
    """A client's statement stream over the ``orders`` table plus its
    ledger of acknowledged writes.

    A client owns disjoint tenants (and with them disjoint preloaded
    ids) and its own range of new ids, so what it reads back depends
    only on what it wrote: the final state is deterministic whatever
    the interleaving with the other client.
    """

    def __init__(self, workload: "OltpWal", seed: int, client: int):
        self.workload = workload
        self.client = client
        self.rng = _rng(workload.name, seed, client)
        self.deck = deck(self.rng, workload.mix)
        per_client = len(workload.tenants) // workload.clients
        self.tenants = workload.tenants[client * per_client:
                                        (client + 1) * per_client]
        self.changed: Dict[int, Optional[Tuple]] = {}  # None = deleted
        self.inserted: List[int] = []
        self.next_id = workload.new_id_base * (client + 1)
        self.user_bytes = 0
        self.emitted = 0
        self.checkpoints = True

    # -- ledger ------------------------------------------------------------------

    def _owns_preloaded(self, row_id: int) -> bool:
        tenant = self.workload.tenants[row_id % len(self.workload.tenants)]
        return tenant in self.tenants

    def row(self, row_id: int) -> Optional[Tuple]:
        if row_id in self.changed:
            return self.changed[row_id]
        if row_id < self.workload.preloaded:
            return self.workload.preloaded_row(row_id)[:5]
        return None

    def _live_id(self) -> int:
        while True:
            if self.inserted and self.rng.random() < 0.5:
                row_id = self.rng.choice(self.inserted)
            else:
                row_id = self.rng.randrange(self.workload.preloaded)
                if not self._owns_preloaded(row_id):
                    continue
            if self.row(row_id) is not None:
                return row_id

    def expected_rows(self) -> Dict[int, Optional[Tuple]]:
        """Every row this client owns: id -> row, None when deleted."""
        rows = {row_id: self.row(row_id)
                for row_id in range(self.workload.preloaded)
                if self._owns_preloaded(row_id)}
        rows.update(self.changed)
        return rows

    # -- the stream ----------------------------------------------------------------

    def __iter__(self) -> "OrdersGenerator":
        return self

    def __next__(self) -> Op:
        self.emitted += 1
        every = self.workload.checkpoint_every
        if self.checkpoints and self.client == 0 \
                and self.emitted % every == 0:
            return Op("checkpoint", None, "CALL", "checkpoint")
        kind = next(self.deck)
        if kind == "point_read":
            return self._point_read(literal=False)
        if kind == "literal_read":
            return self._point_read(literal=True)
        return getattr(self, "_" + kind)()

    def _insert(self) -> Op:
        rng = self.rng
        row_id = self.next_id
        self.next_id += 1
        row = (row_id, rng.choice(self.tenants),
               f"cust-{rng.randrange(1000):04d}",
               rng.randrange(4000) / 4.0, "new", _note(rng))
        self.changed[row_id] = row[:5]
        self.inserted.append(row_id)
        self.user_bytes += _user_bytes(row)
        return _sql(row[1], "insert",
                    "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)", row)

    def _update(self) -> Op:
        rng = self.rng
        row_id = self._live_id()
        old = self.row(row_id)
        status, amount = rng.choice(_STATUSES), rng.randrange(4000) / 4.0
        self.changed[row_id] = (old[0], old[1], old[2], amount, status)
        self.user_bytes += _user_bytes((status, amount))
        return _sql(old[1], "update",
                    "UPDATE orders SET status = ?, amount = ? "
                    "WHERE id = ?", (status, amount, row_id))

    def _delete(self) -> Op:
        row_id = self._live_id()
        tenant = self.row(row_id)[1]
        self.changed[row_id] = None
        if row_id >= self.workload.preloaded:
            self.inserted.remove(row_id)
        return _sql(tenant, "delete", "DELETE FROM orders WHERE id = ?",
                    (row_id,))

    def _point_read(self, literal: bool) -> Op:
        row_id = self._live_id()
        row = self.row(row_id)
        expect = [dict(zip(ORDER_COLUMNS.split(", "), row))]
        if literal:
            # Embedding the key defeats the statement and plan caches:
            # every such read parses and plans (and the unbounded
            # statement cache grows — it shows in peak_rss_mb).
            return _sql(row[1], "literal_read",
                        f"SELECT {ORDER_COLUMNS} FROM orders "
                        f"WHERE id = {row_id}", (), expect)
        return _sql(row[1], "point_read",
                    f"SELECT {ORDER_COLUMNS} FROM orders WHERE id = ?",
                    (row_id,), expect)

    def _range_aggregate(self) -> Op:
        """COUNT/SUM over the tenant's rows in a span of preloaded ids
        holding ``range_rows`` of them."""
        tenants = len(self.workload.tenants)
        tenant = self.rng.choice(self.tenants)
        span = self.workload.range_rows * tenants
        low = self.rng.randrange(0, self.workload.preloaded - span, tenants)
        live = [self.row(row_id) for row_id in range(low, low + span)
                if self.workload.tenants[row_id % tenants] == tenant]
        live = [row for row in live if row is not None]
        total = sum(row[3] for row in live) if live else None
        return _sql(tenant, "range_aggregate",
                    "SELECT COUNT(*) AS n, SUM(amount) AS total "
                    "FROM orders WHERE tenant = ? AND id >= ? AND id < ?",
                    (tenant, low, low + span),
                    [{"n": len(live), "total": total}])


class OltpWal(Workload):
    """Operational users writing durably through /sql with
    fsync=always: wal append/fsync, billing metering, parsing and
    the fixed gateway/web/security cost; analytic scans and olap do
    nothing - the mirror image of dashboard_bare.
    """

    name = "oltp_wal"
    durable = True
    bypasses = ("core.sharding", "core.overload", "olap")
    tenants = ("shop-0", "shop-1", "shop-2", "shop-3")
    preloaded = 20_000
    new_id_base = 1_000_000
    range_rows = 100
    #: Client 0 checkpoints every this many of its own ops, so a run
    #: sees several snapshot + log-reset cycles.
    checkpoint_every = 250
    #: Ops per client after the last checkpoint and before the crash:
    #: the recovery tail is a fixed number of transactions.
    tail_ops = 100
    mix = (("insert", 40), ("update", 15), ("delete", 5),
           ("point_read", 33), ("literal_read", 2), ("range_aggregate", 5))
    primary_read = "point_read"
    primary_write = "insert"
    kinds = {
        "insert": "batch",
        "update": "batch",
        "delete": "batch",
        "point_read": "interactive",
        "literal_read": "interactive",
        "range_aggregate": "interactive",
        "checkpoint": None,
    }

    def preloaded_row(self, row_id: int) -> Tuple:
        rng = random.Random(row_id)
        return (row_id, self.tenants[row_id % len(self.tenants)],
                f"cust-{row_id % 977:04d}", (row_id % 4000) / 4.0,
                "new", _note(rng))

    def build(self, seed: int, data_dir: Optional[Path]) -> Deployment:
        platform = OdbisPlatform(data_dir=data_dir, fsync="always")
        deployment = Deployment(self, platform, data_dir)
        for tenant in self.tenants:
            platform.provisioning.provision(tenant, tenant, plan="team")
            deployment.login(tenant)
        # SHARED mode: one operational database holds every tenant's
        # rows, discriminated by the tenant column.
        database = platform.tenants.context(self.tenants[0]).operational_db
        database.execute(ORDERS_DDL)
        database.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)",
            [self.preloaded_row(row_id)
             for row_id in range(self.preloaded)])
        platform.checkpoint()
        return deployment

    def generator(self, seed: int, client: int) -> Iterator[Op]:
        return OrdersGenerator(self, seed, client)

    def verify(self, deployment: Deployment, op: Op,
               response: Any) -> bool:
        if op.kind == "checkpoint":
            return bool(response)
        if op.kind in ("insert", "update", "delete"):
            return _write_ok(response)
        return _rows_of(response) == op.expect

    def _check_rows(self, database: Any,
                    generators: List[Iterator[Op]]) -> Tuple[int, int]:
        """(rows checked, rows wrong) of every ledger against a db."""
        actual = {row["id"]: tuple(row[column] for column in
                                   ORDER_COLUMNS.split(", "))
                  for row in database.query(
                      f"SELECT {ORDER_COLUMNS} FROM orders")}
        checked = wrong = 0
        for generator in generators:
            for row_id, row in generator.expected_rows().items():
                checked += 1
                if actual.get(row_id) != row:
                    wrong += 1
        return checked, wrong

    def finish(self, deployment: Deployment,
               generators: List[Iterator[Op]],
               run_ops: Callable[[int], List[Any]]) -> Dict[str, Any]:
        """Crash, recover a second platform from a copy of the data
        directory, and check every acknowledged write."""
        # A last checkpoint, then a fixed number of transactions: the
        # log tail recovery replays is the same size on every run.
        for generator in generators:
            generator.checkpoints = False
        deployment.platform.checkpoint()
        tail_failed = sum(not sample.ok for sample in run_ops(self.tail_ops))
        # Abandon the platform without close(): pool threads stop, no
        # WAL is flushed or closed beyond what each commit already did.
        deployment.platform.gateway.shutdown()
        crashed = deployment.data_dir.with_name(
            deployment.data_dir.name + "-crashed")
        shutil.copytree(deployment.data_dir, crashed)
        try:
            started = time.perf_counter()
            recovered = OdbisPlatform(data_dir=crashed, fsync="always")
            recovery_s = time.perf_counter() - started
            try:
                database = recovered.tenants.context(
                    self.tenants[0]).operational_db
                replayed = database.recovery_info["transactions_replayed"]
                checked, wrong = self._check_rows(database, generators)
            finally:
                recovered.close()
        finally:
            shutil.rmtree(crashed, ignore_errors=True)
        return {"correct": wrong == 0 and tail_failed == 0,
                "recovery_s": recovery_s,
                "recovered_rows_checked": checked,
                "recovered_rows_wrong": wrong,
                "recovery_transactions_replayed": replayed}


# -- sharded_skew ------------------------------------------------------------------------

EVENTS_DDL = ("CREATE TABLE IF NOT EXISTS events ("
              "id INTEGER PRIMARY KEY, tenant TEXT NOT NULL, "
              "amount REAL NOT NULL, payload TEXT)")
EVENT_COLUMNS = "id, tenant, amount"


class EventsGenerator:
    """Zipf-popular tenants; each client owns half of every tenant's
    preloaded ids and its own range of new ids."""

    def __init__(self, workload: "ShardedSkew", seed: int, client: int):
        self.workload = workload
        self.client = client
        self.rng = _rng(workload.name, seed, client)
        self.deck = deck(self.rng, workload.mix)
        # Tenant 0 is the most popular on every seed: which shard is
        # hot is part of the workload, not of the seed.
        self.tenant_count = len(workload.tenants)
        self.cum_weights = zipf_cum_weights(self.tenant_count, 1.1)
        self.half = workload.rows_per_tenant // workload.clients
        self.amount: Dict[int, float] = {}
        self.inserted: List[List[int]] = [
            [] for _ in range(self.tenant_count)]
        self.user_bytes = 0
        self.emitted = 0

    def _tenant(self) -> int:
        return self.rng.choices(range(self.tenant_count),
                                cum_weights=self.cum_weights)[0]

    def _base(self, tenant: int) -> int:
        return tenant * self.workload.id_stride + self.client * self.half

    def value(self, row_id: int) -> float:
        return self.amount.get(row_id, self.workload.preloaded_amount(row_id))

    def _own_id(self, tenant: int) -> int:
        inserted = self.inserted[tenant]
        if inserted and self.rng.random() < 0.3:
            return self.rng.choice(inserted)
        return self._base(tenant) + self.rng.randrange(self.half)

    def expected_rows(self) -> Dict[int, float]:
        rows = {}
        for tenant in range(self.tenant_count):
            for offset in range(self.half):
                row_id = self._base(tenant) + offset
                rows[row_id] = self.value(row_id)
        rows.update(self.amount)
        return rows

    def __iter__(self) -> "EventsGenerator":
        return self

    def __next__(self) -> Op:
        self.emitted += 1
        every = self.workload.checkpoint_every
        if self.client == 0 and self.emitted % every == 0:
            return Op("checkpoint", None, "CALL", "checkpoint")
        rng = self.rng
        kind = next(self.deck)
        tenant = self._tenant()
        name = self.workload.tenants[tenant]
        if kind == "point_read":
            row_id = self._own_id(tenant)
            return _sql(name, kind,
                        f"SELECT {EVENT_COLUMNS} FROM events WHERE id = ?",
                        (row_id,),
                        [{"id": row_id, "tenant": name,
                          "amount": self.value(row_id)}])
        if kind == "tenant_aggregate":
            low = self._base(tenant)
            total = sum(self.value(row_id)
                        for row_id in range(low, low + self.half))
            return _sql(name, kind,
                        "SELECT COUNT(*) AS n, SUM(amount) AS total "
                        "FROM events WHERE tenant = ? "
                        "AND id >= ? AND id < ?",
                        (name, low, low + self.half),
                        [{"n": self.half, "total": total}])
        amount = rng.randrange(4000) / 4.0
        if kind == "insert":
            row_id = (tenant * self.workload.id_stride
                      + self.workload.new_id_base * (self.client + 1)
                      + len(self.inserted[tenant]))
            self.inserted[tenant].append(row_id)
            self.amount[row_id] = amount
            row = (row_id, name, amount, _note(rng))
            self.user_bytes += _user_bytes(row)
            return _sql(name, kind,
                        "INSERT INTO events VALUES (?, ?, ?, ?)", row)
        row_id = self._own_id(tenant)
        self.amount[row_id] = amount
        self.user_bytes += _user_bytes((amount,))
        return _sql(name, kind,
                    "UPDATE events SET amount = ? WHERE id = ?",
                    (amount, row_id))


class ShardedSkew(Workload):
    """Skewed tenants over two durable shards with WAL-shipped
    replicas: sharding's routing, epoch checks, replica polling and
    apply do the work; the only workload where a replication change
    can show, and skew makes one shard hot.
    """

    name = "sharded_skew"
    durable = True
    bypasses = ("core.overload", "olap")
    tenants = tuple(f"org-{index}" for index in range(8))
    rows_per_tenant = 500
    id_stride = 1_000_000
    new_id_base = 100_000
    #: Several snapshot + log-reset cycles per run keep the log a
    #: replica tails bounded and the run stationary.
    checkpoint_every = 400
    mix = (("point_read", 70), ("tenant_aggregate", 10), ("insert", 5),
           ("update", 15))
    primary_read = "point_read"
    primary_write = "update"
    kinds = {
        "point_read": "interactive",
        "tenant_aggregate": "interactive",
        "insert": "batch",
        "update": "batch",
        "checkpoint": None,
    }

    @staticmethod
    def preloaded_amount(row_id: int) -> float:
        return (row_id % 4000) / 4.0

    def build(self, seed: int, data_dir: Optional[Path]) -> Deployment:
        # Platform defaults otherwise: reads poll the replicas on the
        # route path, the supervisor is passive (nobody ticks it).
        platform = OdbisPlatform(data_dir=data_dir, fsync="always",
                                 shards=2, replicas_per_shard=1,
                                 staleness_budget=8)
        deployment = Deployment(self, platform, data_dir)
        for index, tenant in enumerate(self.tenants):
            platform.provisioning.provision(tenant, tenant, plan="team")
            deployment.login(tenant)
            primary = platform.shards.primary_for(tenant)
            primary.execute(EVENTS_DDL)
            rng = random.Random(index)
            base = index * self.id_stride
            primary.executemany(
                "INSERT INTO events VALUES (?, ?, ?, ?)",
                [(base + offset, tenant,
                  self.preloaded_amount(base + offset), _note(rng))
                 for offset in range(self.rows_per_tenant)])
        platform.checkpoint()
        platform.shards.poll()
        return deployment

    def generator(self, seed: int, client: int) -> Iterator[Op]:
        return EventsGenerator(self, seed, client)

    def verify(self, deployment: Deployment, op: Op,
               response: Any) -> bool:
        if op.kind == "checkpoint":
            return bool(response)
        if op.kind in ("insert", "update"):
            return _write_ok(response)
        return _rows_of(response) == op.expect

    def finish(self, deployment: Deployment,
               generators: List[Iterator[Op]],
               run_ops: Callable[[int], List[Any]]) -> Dict[str, Any]:
        """Every acknowledged write is on its shard's primary."""
        actual: Dict[int, float] = {}
        for shard in deployment.platform.shards.all_shards():
            for row in shard.primary.query(
                    "SELECT id, amount FROM events"):
                actual[row["id"]] = row["amount"]
        checked = wrong = 0
        for generator in generators:
            for row_id, amount in generator.expected_rows().items():
                checked += 1
                wrong += actual.get(row_id) != amount
        return {"correct": wrong == 0, "rows_checked": checked,
                "rows_wrong": wrong}


# -- overload_open -----------------------------------------------------------------------

REPORT_DESIGN = """<report name="severity-costs">
  <data-set name="costs" query="SELECT severity, COUNT(*) AS admissions,
    SUM(cost) AS total_cost FROM admissions GROUP BY severity
    ORDER BY severity"/>
  <table name="by-severity" data-set="costs"
         columns="severity,admissions,total_cost"/>
  <chart name="cost-share" kind="pie" data-set="costs"
         category="severity" value="total_cost"/>
</report>"""


class OverloadOpen(Workload):
    """Independent users arriving on a Poisson schedule at a fixed
    rate on the adaptive admission path (limiter, queue, brownout):
    only an arrival schedule builds a queue, and this is the only
    workload where core.overload runs.
    """

    name = "overload_open"
    open_loop = True
    clients = 1
    bypasses = ("engine.wal", "core.sharding")
    tenants = ("lab-0", "lab-1", "lab-2", "lab-3")
    rows = 5_000
    order_rows = 2_000
    new_id_base = 1_000_000
    #: Arrivals per second, frozen.  About a sixth of this mix's
    #: closed-loop capacity on the sandbox (600-960 requests a second,
    #: one client): at 200/s one busy second of a neighbour tipped a run
    #: into shedding for the rest of its window (bench/README.md).
    rate = 100.0
    #: The traced run ends with a surge at ``factor * rate`` (800/s,
    #: above capacity) and a recovery leg back at ``rate`` (shares of
    #: --seconds).
    legs = (("steady", 0.5, 1.0), ("surge", 0.3, 8.0),
            ("recovery", 0.2, 1.0))
    # 60 % interactive / 25 % reporting / 15 % batch.
    mix = (("dashboard_list", 20), ("mdx", 20), ("point_read", 20),
           ("report_list", 10), ("report_run", 8), ("dashboard", 7),
           ("insert", 15))
    primary_read = "point_read"
    primary_write = "insert"
    kinds = {
        "dashboard_list": "interactive",
        "mdx": "interactive",
        "point_read": "interactive",
        "report_list": "reporting",
        "report_run": "reporting",
        "dashboard": "reporting",
        "insert": "batch",
    }

    def order_row(self, row_id: int) -> Tuple:
        return (row_id, self.tenants[row_id % len(self.tenants)],
                f"cust-{row_id % 977:04d}", (row_id % 4000) / 4.0,
                "new", "preloaded")

    def build(self, seed: int, data_dir: Optional[Path]) -> Deployment:
        platform = OdbisPlatform(overload=True, deadline_seconds=2.0)
        deployment = Deployment(self, platform, data_dir)
        for index, tenant in enumerate(self.tenants):
            load_bi_tenant(platform, tenant, seed + index, self.rows)
            platform.reporting.create_report_group(tenant, "clinical")
            platform.reporting.upload_report(
                tenant, "clinical", REPORT_DESIGN, "warehouse")
            deployment.login(tenant)
        database = platform.tenants.context(self.tenants[0]).operational_db
        database.execute(ORDERS_DDL)
        database.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)",
            [self.order_row(row_id) for row_id in range(self.order_rows)])
        return deployment

    def prime(self, deployment: Deployment) -> None:
        statements = mdx_statements()
        for tenant in self.tenants:
            for op in (_dashboard_op(tenant), _dashboard_list_op(tenant),
                       self._report_list_op(tenant),
                       self._report_run_op(tenant)):
                deployment.remember(op)
            for index, statement in enumerate(statements):
                deployment.remember(_mdx_op(tenant, index, statement))

    @staticmethod
    def _report_list_op(tenant: str) -> Op:
        return Op("report_list", tenant, "GET",
                  f"/tenants/{tenant}/reports")

    @staticmethod
    def _report_run_op(tenant: str) -> Op:
        return Op("report_run", tenant, "POST",
                  f"/tenants/{tenant}/reports/severity-costs/run")

    def generator(self, seed: int, client: int) -> Iterator[Op]:
        rng = _rng(self.name, seed, client)
        statements = mdx_statements()
        cum_weights = zipf_cum_weights(len(statements), 1.1)
        next_id = self.new_id_base
        for kind in deck(rng, self.mix):
            tenant = rng.choice(self.tenants)
            if kind == "dashboard_list":
                yield _dashboard_list_op(tenant)
            elif kind == "mdx":
                index = rng.choices(range(len(statements)),
                                    cum_weights=cum_weights)[0]
                yield _mdx_op(tenant, index, statements[index])
            elif kind == "point_read":
                row_id = rng.randrange(self.order_rows)
                row = self.order_row(row_id)
                yield _sql(row[1], kind,
                           f"SELECT {ORDER_COLUMNS} FROM orders "
                           f"WHERE id = ?", (row_id,),
                           [dict(zip(ORDER_COLUMNS.split(", "), row))])
            elif kind == "report_list":
                yield self._report_list_op(tenant)
            elif kind == "report_run":
                yield self._report_run_op(tenant)
            elif kind == "dashboard":
                yield _dashboard_op(tenant)
            else:
                row = (next_id, tenant, f"cust-{rng.randrange(1000):04d}",
                       rng.randrange(4000) / 4.0, "new", _note(rng))
                next_id += 1
                yield _sql(tenant, kind,
                           "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)",
                           row)

    def verify(self, deployment: Deployment, op: Op,
               response: Any) -> bool:
        if op.kind == "insert":
            return _write_ok(response)
        if op.kind == "point_read":
            return _rows_of(response) == op.expect
        return deployment.matches_static(op, response)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (DashboardBare(), OltpWal(), ShardedSkew(),
                     OverloadOpen())
}
