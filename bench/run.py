"""Run the benchmark: one workload per process, or all four.

The driver's contract (``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds a fresh platform (three times; ``setup_s`` is the median),
warms it up, measures for ``S`` seconds through ``gateway.submit`` on
the wall clock, verifies every response, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The window's timings and a closed loop's
throughput are reported at a quiet sandbox's speed (``bench/hostspeed.py``).

Without ``--workload`` every workload runs in its own subprocess (so
``peak_rss_mb`` and GC state do not leak between them), ``--trace``
adds the traced run of each, and ``--out FILE`` collects the reports
for ``python -m bench.compare``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: bench/ itself must not be on the path (its
    # trace.py would shadow the standard library's), the checkout is.
    sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
             f"is missing")
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import (Any, Dict, Iterator, List, Optional,  # noqa: E402
                    Sequence, Tuple)

from bench import hostspeed, stats  # noqa: E402
from bench.loadgen import (Leg, Sample, poisson_schedule,  # noqa: E402
                           run_closed, run_open)
from bench.trace import ROOT as ROOT_SPAN  # noqa: E402
from bench.trace import Budget, Tracer, default_targets  # noqa: E402
from bench.workloads import (SLO_LIMIT_MS, WORKLOADS,  # noqa: E402
                             Deployment, Op, Workload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Everything the benchmark writes lives here, inside the checkout.
OUT_DIR = ROOT / ".bench_out"

#: Platforms built per run; ``setup_s`` is the median of their times.
SETUP_REPEATS = 3

#: Slices of the measured window for ``quiet_quartile``.
SLICES = 10

#: Share of a traced run's window spent untraced first, to price the
#: tracing itself (``bench.trace_overhead_share``).
UNTRACED_SHARE = 0.25

#: Seconds of open-loop arrivals before the measured window.
OPEN_WARMUP_SECONDS = 2.0

#: Above these the per-layer table is flagged as untrustworthy.
MAX_TRACE_OVERHEAD = 0.25
MAX_UNATTRIBUTED = 0.15

#: |drift| above this marks a run unresolved rather than comparable.
MAX_DRIFT = 0.10

#: The open-loop generator must not be the bottleneck.  It shares the
#: interpreter lock with the platform, so a 5 ms switch interval of
#: lateness is expected; a tenth of the requests leaving later than
#: half the tightest latency limit means it could not keep up and the
#: run is flagged.  (One machine hiccup makes p99 late; only a starved
#: generator makes p90 late.)  It is a flag, not a failure: a busy
#: neighbour starves the generator too, and every answer was right.
MAX_GENERATOR_LATE_MS = 25.0


def _ms(sample: Sample) -> float:
    return (sample.end - sample.start) * 1000.0


def _requests(workload: Workload,
              samples: Sequence[Sample]) -> List[Sample]:
    """The samples that are user requests (not operator work such as
    a checkpoint)."""
    return [s for s in samples if workload.kinds[s.kind] is not None]


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def build(workload: Workload, seed: int, scratch: Path) \
        -> Tuple[Deployment, float]:
    """Build the platform SETUP_REPEATS times; keep and prime the last.

    The oracle's probes (``prime``) are the benchmark's cost, not the
    platform's, and stay outside ``setup_s``.  The set-up heap is then
    frozen: left alone, full collections over the in-memory tables
    (about a million objects) land 30-70 ms pauses in the measured
    window at random, which is most of the run-to-run spread of every
    p95.  What the run itself allocates is still collected.
    """
    times = []
    deployment = None
    for attempt in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.discard()
            deployment = None
            gc.collect()
        data_dir = scratch / f"data-{attempt}" if workload.durable else None
        started = time.perf_counter()
        deployment = workload.build(seed, data_dir)
        times.append(time.perf_counter() - started)
    workload.prime(deployment)
    gc.collect()
    gc.freeze()
    return deployment, statistics.median(times)


# -- end-to-end metrics ----------------------------------------------------------------


def class_table(workload: Workload, samples: Sequence[Sample]) \
        -> Dict[str, Dict[str, Any]]:
    """Attempted, failed and latency per op class; every timing comes
    with its sample count and only at a percentile the count supports."""
    table: Dict[str, Dict[str, Any]] = {}
    for kind in workload.kinds:
        mine = [s for s in samples if s.kind == kind]
        if not mine:
            continue
        latencies = [_ms(s) for s in mine]
        q, value = stats.tail(latencies, 0.95)
        table[kind] = {
            "attempted": len(mine),
            "failed": sum(not s.ok for s in mine),
            "p50_ms": stats.percentile(latencies, 0.5),
            "tail_q": q, "tail_ms": value,
        }
    return table


def quiet_quartile(samples: Sequence[Sample], start: float, end: float,
                   q: float) -> float:
    """A latency percentile as a quiet machine would show it.

    The window is cut into SLICES slices, the percentile is taken in
    each, and the first quartile of those (the third lowest of ten) is
    reported.  A noisy neighbour only ever slows a stretch of the
    window down, so the low end of the slices is the platform and the
    high end is the neighbour: on ``overload_open`` this halves the
    run-to-run spread of p95 (0.23 against 0.51).  It needs a few
    hundred samples a slice, which only the all-requests latency has;
    it serves the printed ``bench.latency_p95_ms``.
    """
    length = (end - start) / SLICES
    per_slice = []
    for index in range(SLICES):
        low = start + index * length
        mine = [_ms(s) for s in samples if low <= s.start < low + length]
        if mine:
            per_slice.append(stats.percentile(mine, q))
    return sorted(per_slice)[len(per_slice) // 4]


def end_to_end(workload: Workload, samples: Sequence[Sample],
               start: float, end: float,
               slowdown: float) -> Dict[str, float]:
    """The gated metrics of one measured window (set-up and memory are
    added by the caller).

    The workloads mix op classes a hundredfold apart, and the median
    over all requests sits on the cliff between two of them (p40 2.3,
    p50 3.4, p60 15 ms on ``oltp_wal``: spread 0.32 between identical
    runs).  ``latency_p50_ms`` is therefore each class's own median,
    averaged by the class's share of the window's requests; the
    ``primary_*`` metrics time one op class each
    (``Workload.primary_read`` / ``primary_write``) and are the ones to
    read for "did this interaction get slower".

    Timings are divided by the window's host ``slowdown`` and a closed
    loop's throughput is multiplied by it: what a quiet sandbox would
    have shown (``bench/hostspeed.py``).  An open loop's throughput is
    its arrival rate unless requests are shed or answered late (correct
    responses over the time until the window's last one), and latency
    limits are the users', so neither ``slo_met_share`` nor that
    throughput is rescaled.
    """
    requests = _requests(workload, samples)
    reads = [_ms(s) for s in requests if s.kind == workload.primary_read]
    writes = [_ms(s) for s in requests if s.kind == workload.primary_write]
    within = sum(1 for s in requests
                 if s.ok and _ms(s) <= SLO_LIMIT_MS[workload.kinds[s.kind]])
    by_class: Dict[str, List[float]] = {}
    for s in requests:
        by_class.setdefault(s.kind, []).append(_ms(s))
    class_p50 = sum(len(mine) * stats.percentile(mine, 0.5)
                    for mine in by_class.values()) / len(requests)
    if workload.open_loop:
        # The schedule fixes how many arrive in the window; what the
        # platform decides is how many it answers and by when.
        throughput = sum(1 for s in requests if s.ok) \
            / (max(s.end for s in requests) - start)
    else:
        throughput = slowdown * sum(
            1 for s in requests if s.ok and s.end <= end) / (end - start)
    return {
        "throughput_rps": throughput,
        "latency_p50_ms": class_p50 / slowdown,
        "primary_read_p50_ms": stats.percentile(reads, 0.5) / slowdown,
        "primary_write_p50_ms": stats.percentile(writes, 0.5) / slowdown,
        "slo_met_share": within / len(requests),
    }


def diagnostics(workload: Workload, samples: Sequence[Sample],
                start: float, end: float) -> Dict[str, float]:
    requests = _requests(workload, samples)
    latencies = [_ms(s) for s in requests]
    q, value = stats.tail(latencies, 0.99)
    late = [(s.sent - s.start) * 1000.0 for s in requests]
    return {
        "bench.drift_share": stats.drift_share(
            [s.end for s in requests], start, end),
        # Tails are printed, not gated: between identical runs p95
        # spreads by 0.1-0.5 here (see bench/README.md).
        "bench.latency_p95_ms": quiet_quartile(requests, start, end,
                                               0.95),
        "bench.latency_p99_ms": value if q == 0.99 else 0.0,
        "bench.generator_late_p90_ms": stats.percentile(late, 0.9),
        "bench.generator_late_p99_ms": stats.percentile(late, 0.99),
    }


# -- the measured windows --------------------------------------------------------------


class Measured:
    """What one run observed, before it is turned into metrics."""

    def __init__(self) -> None:
        self.failed_outside = 0       # warm-up / tail ops gone wrong
        self.window: List[Sample] = []   # untraced measured window
        self.start = self.end = 0.0
        self.traced: List[Sample] = []   # traced window (trace runs)
        self.traced_start = self.traced_end = 0.0
        self.tracer: Optional[Tracer] = None
        #: hostspeed samples covering every window above.
        self.host: List[Tuple[float, float]] = []
        self.user_bytes = 0
        self.surge: Dict[str, float] = {}


def _user_bytes(generators: Sequence[Iterator[Op]]) -> int:
    return sum(getattr(generator, "user_bytes", 0)
               for generator in generators)


def measure_closed(deployment: Deployment,
                   generators: List[Iterator[Op]], seconds: float,
                   trace: bool) -> Measured:
    workload = deployment.workload
    measured = Measured()
    warmup, _, _ = run_closed(deployment, generators,
                              ops=workload.warmup_ops)
    measured.failed_outside = sum(not s.ok for s in warmup)
    gc.collect()
    untraced = seconds * UNTRACED_SHARE if trace else seconds
    with hostspeed.HostSpeed() as speed:
        measured.window, measured.start, measured.end = run_closed(
            deployment, generators, seconds=untraced)
        if trace:
            measured.tracer = tracer = Tracer()
            before = _user_bytes(generators)
            with tracer:
                tracer.install(default_targets())
                measured.traced, measured.traced_start, \
                    measured.traced_end = run_closed(
                        deployment, generators,
                        seconds=seconds - untraced, tracer=tracer)
            measured.user_bytes = _user_bytes(generators) - before
    measured.host = speed.samples
    return measured


def measure_open(deployment: Deployment, generator: Iterator[Op],
                 seed: int, seconds: float, trace: bool) -> Measured:
    workload = deployment.workload
    measured = Measured()
    rate = workload.rate
    legs = [Leg("warmup", OPEN_WARMUP_SECONDS, rate)]
    if not trace:
        legs.append(Leg("window", seconds, rate))
    else:
        steady = workload.legs[0][1] * seconds
        legs.append(Leg("window", steady * UNTRACED_SHARE, rate))
        legs.append(Leg("traced", steady * (1 - UNTRACED_SHARE), rate))
        legs.extend(Leg(name, share * seconds, factor * rate)
                    for name, share, factor in workload.legs[1:])
    schedule = poisson_schedule(legs, seed)
    offsets = {}
    origin = 0.0
    for leg in legs:
        offsets[leg.name] = (origin, origin + leg.seconds)
        origin += leg.seconds
    tracer = Tracer() if trace else None
    measured.tracer = tracer
    gc.collect()
    with hostspeed.HostSpeed() as speed:
        if tracer is None:
            result = run_open(deployment, generator, schedule)
        else:
            with tracer:
                result = run_open(
                    deployment, generator, schedule, tracer=tracer,
                    trace_from=offsets["traced"][0],
                    on_trace_start=lambda: tracer.install(
                        default_targets()))
    measured.host = speed.samples
    by_leg: Dict[str, List[Sample]] = {leg.name: [] for leg in legs}
    for sample, leg in zip(result.samples, result.legs):
        by_leg[leg].append(sample)
    measured.failed_outside = sum(not s.ok and not s.shed
                                  for s in by_leg["warmup"])
    measured.window = by_leg["window"]
    measured.start = result.started + offsets["window"][0]
    measured.end = result.started + offsets["window"][1]
    if trace:
        measured.traced = by_leg["traced"]
        measured.traced_start = result.started + offsets["traced"][0]
        measured.traced_end = result.started + offsets["traced"][1]
        measured.surge = surge_metrics(
            workload, by_leg["surge"],
            result.started + offsets["surge"][1],
            result.started + origin, result.pressure)
    return measured


def surge_metrics(workload: Workload, surge: Sequence[Sample],
                  surge_end: float, run_end: float,
                  pressure: Sequence[Tuple[float, int, int]]) \
        -> Dict[str, float]:
    """How the admission path behaved on the surge leg (a multiple of
    the steady rate); feeds per-layer metrics only."""
    interactive = [s for s in surge
                   if workload.kinds[s.kind] == "interactive"]
    met = sum(1 for s in interactive
              if s.ok and _ms(s) <= SLO_LIMIT_MS["interactive"])
    # Recovery: the last moment after the surge at which a request
    # still found a queue or a raised brownout level.
    pressed = [at for at, depth, level in pressure
               if at >= surge_end and (depth or level)]
    recovery = (max(pressed) - surge_end) if pressed else 0.0
    if pressed and max(pressed) >= pressure[-1][0]:
        recovery = run_end - surge_end  # never cleared within the run
    return {
        "core.overload.surge_shed_share":
            sum(not s.ok for s in surge) / len(surge),
        "core.overload.surge_interactive_slo_met_share":
            met / len(interactive),
        "core.overload.surge_recovery_s": recovery,
    }


# -- per-layer metrics -----------------------------------------------------------------


def _all_databases(platform: Any) -> List[Any]:
    seen: Dict[int, Any] = {}
    for tenant in platform.tenants.tenant_ids():
        context = platform.tenants.context(tenant)
        for database in (context.operational_db, context.warehouse_db):
            seen.setdefault(id(database), database)
    return list(seen.values())


def per_layer(deployment: Deployment, measured: Measured,
              budget: Budget, finish: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric this run can compute; the caller fills in
    zero for the layers the workload never entered."""
    workload = deployment.workload
    platform = deployment.platform
    names, layers = budget.names, budget.layers
    requests = max(1, budget.requests)
    out: Dict[str, float] = {}

    for layer in ("core.gateway", "core.overload", "web", "core.billing",
                  "core.reporting", "reporting", "olap", "engine",
                  "engine.wal", "core.sharding"):
        out[f"{layer}.share"] = budget.share(layer)
    out["bench.unattributed_share"] = budget.share("bench.unattributed")

    # core.gateway / core.overload
    out["core.gateway.self_ms_per_req"] = \
        layers["core.gateway"].self_ms / requests
    if budget.queue_waits_ms:
        out["core.gateway.queue_wait_p50_ms"] = stats.percentile(
            budget.queue_waits_ms, 0.5)
        out["core.gateway.queue_wait_p95_ms"] = stats.percentile(
            budget.queue_waits_ms, 0.95)
    decisions = dict(platform.gateway.decision_counts)
    out["core.gateway.accepted"] = sum(
        count for decision, count in decisions.items()
        if decision.startswith("accepted"))
    out["core.gateway.shed"] = sum(
        decisions.get(decision, 0) for decision in
        ("shed", "queue-shed", "queue-displaced", "expired",
         "brownout-shed", "rejected"))
    out["core.gateway.degraded"] = sum(
        decisions.get(decision, 0)
        for decision in ("degraded", "brownout-degraded"))
    out["core.overload.self_ms_per_req"] = \
        layers["core.overload"].self_ms / requests
    if platform.overload is not None:
        snapshot = platform.overload.snapshot()
        out["core.overload.limiter_limit_final"] = \
            snapshot["limiter"]["limit"]
        out["core.overload.gradient_decreases"] = \
            snapshot["limiter"]["gradient_decreases"]
        out["core.overload.queue_displaced"] = \
            snapshot["queue"]["displaced"]
        out["core.overload.queue_expired"] = snapshot["queue"]["expired"]
        out["core.overload.brownout_transitions"] = \
            snapshot["brownout"]["transitions"]
    out.update(measured.surge)

    # web / security / orm
    out["web.self_ms_per_req"] = layers["web"].self_ms / requests
    out["security.self_ms_per_req"] = (
        names["security.validate"].self_ms
        + names["security.check_tenant"].self_ms) / requests
    logins = names["security.login"]
    if logins.calls:
        out["security.login_ms_per_call"] = logins.per_call(total=True)
        out["orm.self_ms_per_login"] = layers["orm"].self_ms / logins.calls

    # core.billing
    meter = names["core.billing.meter"]
    out["core.billing.meter_ms_per_req"] = meter.total_ms / requests
    out["core.billing.meter_calls_per_req"] = meter.calls / requests
    out["core.billing.meter_inclusive_share"] = \
        meter.total_ms / budget.wall_ms if budget.wall_ms else 0.0

    # metadata / reporting / delivery
    out["core.metadata.dataset_rows_self_ms"] = \
        names["core.metadata.dataset_rows"].per_call()
    out["core.reporting.render_self_ms"] = \
        names["core.reporting.render_dashboard"].per_call()
    out["reporting.render_self_ms"] = names["reporting.render"].per_call()
    out["core.delivery.deliver_self_ms"] = \
        names["core.delivery.deliver_dashboard"].per_call()

    # olap / etl
    out["olap.query_ms_per_call"] = names["olap.query"].per_call(total=True)
    out["olap.mdx_parse_ms_per_call"] = \
        names["olap.parse_mdx"].per_call(total=True)
    engines = [platform.analysis.engine(tenant, cube)
               for tenant in platform.tenants.tenant_ids()
               for cube in platform.analysis.cubes(tenant)]
    queries = sum(e.statistics["queries"] for e in engines)
    if queries:
        out["olap.cache_hit_share"] = sum(
            e.statistics["cache_hits"] for e in engines) / queries
    jobs = names["etl.run_job"]
    if jobs.calls:
        out["etl.run_job_ms_per_call"] = jobs.per_call(total=True)
        out["etl.rows_per_s"] = (jobs.calls * workload.refresh_rows
                                 / (jobs.total_ms / 1000.0))

    # engine
    reads = names["engine.execute.read"]
    writes = names["engine.execute.write"]
    statements = max(1, reads.calls + writes.calls)
    out["engine.statements_per_req"] = \
        (reads.calls + writes.calls) / requests
    out["engine.read_self_ms_per_stmt"] = reads.per_call()
    out["engine.write_self_ms_per_stmt"] = writes.per_call()
    out["engine.parse_calls_per_stmt"] = \
        names["engine.parse"].calls / statements
    out["engine.parse_ms_per_call"] = names["engine.parse"].per_call(True)
    out["engine.plan_calls_per_stmt"] = \
        names["engine.plan"].calls / statements
    if reads.calls:
        out["engine.rows_returned_per_stmt"] = \
            sum(reads.values) / reads.calls
    out["engine.checkpoint_ms"] = names["engine.checkpoint"].per_call(True)
    out["engine.version_count_final"] = sum(
        database.version_count(table)
        for database in _all_databases(platform)
        for table in database.table_names())

    # engine.wal
    commits = names["engine.wal.commit"]
    syncs = names["engine.wal.sync"]
    appends = commits.calls + names["engine.wal.journal"].calls
    out["engine.wal.commit_ms_per_txn"] = commits.per_call(total=True)
    out["engine.wal.sync_ms_per_call"] = syncs.per_call(total=True)
    if appends:
        out["engine.wal.syncs_per_txn"] = syncs.calls / appends
    log_bytes = sum(names["engine.wal.write"].values)
    if commits.calls:
        out["engine.wal.bytes_per_txn"] = log_bytes / commits.calls
    if measured.user_bytes:
        out["engine.wal.bytes_per_user_byte"] = \
            log_bytes / measured.user_bytes
    out["engine.wal.recovery_s"] = finish.get("recovery_s", 0.0)

    # core.sharding
    handles = names["core.sharding.read_handle"]
    routes = handles.total_ms + names["core.sharding.write_handle"].total_ms
    out["core.sharding.route_ms_per_req"] = routes / requests
    if handles.calls:
        out["core.sharding.replica_served_share"] = sum(
            1 for replica, _ in handles.values if replica) / handles.calls
        out["core.sharding.polls_per_read"] = \
            names["core.sharding.poll"].calls / handles.calls
        out["core.sharding.replica_lag_p95"] = stats.percentile(
            [lag for _, lag in handles.values], 0.95)
    out["core.sharding.poll_ms_per_call"] = \
        names["core.sharding.poll"].per_call(total=True)
    applied = sum(names["engine.apply_committed"].values)
    if applied:
        out["core.sharding.apply_ms_per_txn"] = \
            names["engine.apply_committed"].total_ms / applied
    return out


# -- one run ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Set up, measure, verify; returns the full report of one run."""
    workload = WORKLOADS[name]
    scratch = OUT_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    collections = _gc_collections()
    try:
        deployment, setup_s = build(workload, seed, scratch)
        try:
            generators = [workload.generator(seed, client)
                          for client in range(workload.clients)]
            if workload.open_loop:
                measured = measure_open(deployment, generators[0], seed,
                                        seconds, trace)
            else:
                measured = measure_closed(deployment, generators,
                                          seconds, trace)

            def run_ops(count: int) -> List[Sample]:
                return run_closed(deployment, generators, ops=count)[0]

            finish = workload.finish(deployment, generators, run_ops)
            report = _report(deployment, measured, finish, trace)
        finally:
            deployment.discard()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report.update({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": int(trace)})
    if not trace:
        report["metrics"]["setup_s"] = setup_s
        report["metrics"]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        report["metrics"]["bench.gc_collections"] = \
            _gc_collections() - collections
        if measured.tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            measured.tracer.write_jsonl(
                str(OUT_DIR / f"trace-{name}.jsonl"))  # latest run only
    return report


def _report(deployment: Deployment, measured: Measured,
            finish: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    workload = deployment.workload
    samples = measured.window + measured.traced
    requests = _requests(workload, samples)
    failed = sum(not s.ok for s in requests)
    flags: List[str] = []
    slowdown = hostspeed.slowdown(measured.host, measured.start,
                                  measured.end)
    untraced = end_to_end(workload, measured.window, measured.start,
                          measured.end, slowdown)
    extra = diagnostics(workload, measured.window, measured.start,
                        measured.end)
    extra["bench.host_slowdown"] = slowdown
    # Counting noise alone moves the ratio of two thirds of n requests
    # by sqrt(2 / (n / 3)); only drift beyond twice that is drift.  (A
    # traced run's untraced window is too short to judge at all, and
    # on the open loop the arrival schedule, not the platform, sets it.)
    counting_noise = 2.0 * (6.0 / max(1, len(measured.window))) ** 0.5
    if not trace and not workload.open_loop \
            and abs(extra["bench.drift_share"]) \
            > max(MAX_DRIFT, counting_noise):
        flags.append("unresolved: throughput drifted by "
                     f"{extra['bench.drift_share']:+.3f} across the window")
    late = extra.pop("bench.generator_late_p90_ms")
    if workload.open_loop and late > MAX_GENERATOR_LATE_MS:
        flags.append(f"unresolved: the generator ran {late:.1f} ms late "
                     "at p90: it, not the platform, was the bottleneck")
    # On the open loop a typed shed is the platform working as
    # designed: it counts as failed (and misses its latency limit) but
    # is not a wrong answer.  A closed loop never has a reason to shed.
    wrong = sum(not s.ok and not (workload.open_loop and s.shed)
                for s in requests)
    correct = (wrong == 0 and measured.failed_outside == 0
               and finish["correct"])
    report: Dict[str, Any] = {
        "correct": correct, "attempted": len(requests), "failed": failed,
        "classes": class_table(workload, samples),
        "finish": finish, "flags": flags,
        "refused": deployment.refused,
    }
    if not trace:
        report["metrics"] = untraced
        report["diagnostics"] = extra
        # The same metrics as the wall clock showed them.
        report["wall_clock"] = end_to_end(
            workload, measured.window, measured.start, measured.end, 1.0)
        return report

    tracer = measured.tracer
    # The budget covers the traced window only: the surge and recovery
    # legs of the open loop are a different regime.
    spans = [span for span in tracer.spans if span.name != ROOT_SPAN
             or measured.traced_start <= span.start < measured.traced_end]
    budget = Budget(spans)
    metrics = per_layer(deployment, measured, budget, finish)
    metrics.update(extra)
    traced = end_to_end(
        workload, measured.traced, measured.traced_start,
        measured.traced_end,
        hostspeed.slowdown(measured.host, measured.traced_start,
                           measured.traced_end))
    if workload.open_loop:
        # The arrival rate fixes throughput; tracing shows in latency.
        overhead = 1.0 - untraced["primary_read_p50_ms"] \
            / traced["primary_read_p50_ms"]
    else:
        overhead = 1.0 - traced["throughput_rps"] / untraced["throughput_rps"]
    metrics["bench.trace_overhead_share"] = overhead
    if overhead > MAX_TRACE_OVERHEAD \
            or metrics["bench.unattributed_share"] > MAX_UNATTRIBUTED:
        flags.append(
            f"per-layer table untrustworthy: trace overhead "
            f"{overhead:.3f}, unattributed "
            f"{metrics['bench.unattributed_share']:.3f}")
    for layer in workload.bypasses:
        if budget.layers[layer].calls:
            flags.append(f"{layer} was entered {budget.layers[layer].calls} "
                         f"times on a workload stated to bypass it")
            report["correct"] = False
    report["metrics"] = metrics
    report["layer_table"] = budget.table()
    return report


# -- printing --------------------------------------------------------------------------


def _spec_metrics(trace: bool) -> List[Dict[str, Any]]:
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def driver_line(report: Dict[str, Any]) -> str:
    """The contract's last line: exactly the metrics BENCHMARK.json
    names for this kind of run, zero for a layer never entered."""
    specs = _spec_metrics(bool(report["trace"]))
    unknown = set(report["metrics"]) - {spec["name"] for spec in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {spec["name"]: {"value": report["metrics"].get(
        spec["name"], 0.0), "unit": spec["unit"]} for spec in specs}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def print_report(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"seconds={report['seconds']}  trace={report['trace']}")
    print(f"{'op class':<18}{'n attempted':>12}{'failed':>8}"
          f"{'p50 ms':>10}{'tail':>8}{'tail ms':>10}")
    for kind, row in report["classes"].items():
        print(f"{kind:<18}{row['attempted']:>12}{row['failed']:>8}"
              f"{row['p50_ms']:>10.3f}"
              f"{'p%g' % (row['tail_q'] * 100):>8}{row['tail_ms']:>10.3f}")
    units = {spec["name"]: spec["unit"]
             for spec in _spec_metrics(bool(report["trace"]))}
    for name, value in sorted(report["metrics"].items()):
        print(f"{name:<48}{value:>16.4f} {units.get(name, '')}")
    for name, value in sorted(report.get("diagnostics", {}).items()):
        print(f"{name:<48}{value:>16.4f} (diagnostic)")
    for name, value in sorted(report.get("wall_clock", {}).items()):
        print(f"{'wall_clock.' + name:<48}{value:>16.4f} (not rescaled)")
    if "layer_table" in report:
        print(report["layer_table"])
    for key, value in report["finish"].items():
        print(f"finish.{key} = {value}")
    for refused in report["refused"]:
        print(f"REFUSED: {refused}")
    for flag in report["flags"]:
        print(f"FLAG: {flag}")
    print(f"attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")


# -- the command -----------------------------------------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; collect their reports."""
    OUT_DIR.mkdir(exist_ok=True)
    reports = []
    status = 0
    for name in WORKLOADS:
        for trace in [0] * args.repeat + ([1] if args.trace else []):
            partial = OUT_DIR / f"report-{name}-{os.getpid()}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(partial)]
            completed = subprocess.run(command, cwd=ROOT)
            if completed.returncode != 0 or not partial.exists():
                status = 1
                continue
            reports.append(json.loads(partial.read_text()))
            partial.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "runs": reports}, indent=1))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all workloads)")
    parser.add_argument("--out", help="write the full report(s) here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(driver_line(report))
    # A wrong answer, a failed request on a closed loop or a lost
    # acknowledged write fails the command.
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
