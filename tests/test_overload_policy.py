"""E19 — overload control as policy, on the fake clock.

Two discrete-event simulations over the real ``repro.core.overload``
kernel (same seed, same curves; no wall clock is read, so this prices
*policy* — cost is ``bench/``'s ``overload_open`` workload):

* **offered-load sweep**: ``CAPACITY`` workers driven at 0.5x-4x with a
  seeded QoS mix; service time degrades with concurrency beyond
  capacity, which is what makes uncontrolled overload collapse.  The
  adaptive stack (AIMD limiter + priority queue + brownout ladder)
  must hold interactive goodput at 4x within 80% of its 1x value with
  bounded p99 while an ablation that starts every arrival collapses.
* **retry storm**: a 2-second outage under steady load, clients
  retrying with backoff.  Retry budgets bring the attempt rate back to
  the offered rate at once; without them it never comes back.
"""

import heapq
import random

import pytest

from repro.core.overload import (
    QOS_BATCH,
    QOS_INTERACTIVE,
    QOS_REPORTING,
    OverloadController,
    RetryBudget,
)
from repro.core.resilience import Deadline, FakeClock
from tests.test_paper_figures import show

pytestmark = pytest.mark.overload

CAPACITY = 4          # workers the backend can truly serve at once
SERVICE = 0.02        # seconds per request at or below capacity
DURATION = 5.0        # simulated seconds per scenario
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
SEED = 1234

# (class, share of offered load, per-class deadline in seconds)
MIX = ((QOS_INTERACTIVE, 0.5, 0.5),
       (QOS_REPORTING, 0.3, 1.0),
       (QOS_BATCH, 0.2, 2.0))
DEADLINES = {qos: deadline for qos, _, deadline in MIX}

# Retry-storm parameters.
STORM_OFFERED = 50.0      # arrivals per second
STORM_OUTAGE = 2.0        # hard-down seconds at the start
STORM_HORIZON = 8.0       # total simulated seconds
STORM_BUCKET = 0.1        # service-capacity accounting granularity
STORM_CAPACITY = 5        # successful attempts per bucket (50/s):
#                           capacity == offered, so any retry overage
#                           is itself overload — the metastable regime
STORM_MAX_RETRIES = 3
STORM_BACKOFF = 0.1


def service_time(inflight):
    """Contention model: past capacity, everyone slows down."""
    return SERVICE * max(1.0, inflight / CAPACITY)


def seeded_arrivals(multiplier, seed):
    """Evenly spaced arrivals with a seeded QoS class per arrival."""
    rate = multiplier * CAPACITY / SERVICE
    count = int(rate * DURATION)
    rng = random.Random(seed)
    arrivals = []
    for index in range(count):
        roll, acc = rng.random(), 0.0
        qos = MIX[-1][0]
        for klass, share, _ in MIX:
            acc += share
            if roll < acc:
                qos = klass
                break
        arrivals.append((index * DURATION / count, qos))
    return arrivals


class ClassStats:
    def __init__(self):
        self.offered = 0
        self.fresh = 0        # completed within the class deadline
        self.degraded = 0     # served stale under brownout
        self.shed = 0         # refused/displaced/brownout-shed
        self.expired = 0      # aged out in the admission queue
        self.latencies = []   # arrival -> completion, fresh only

    def goodput(self):
        return self.fresh / DURATION

    def quantile(self, q):
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]


def run_adaptive(multiplier, seed=SEED):
    """Offered load through the full overload stack."""
    clock = FakeClock()
    controller = OverloadController(
        clock=clock, queue_capacity=32, initial_limit=CAPACITY,
        min_limit=1, max_limit=4 * CAPACITY)
    stats = {qos: ClassStats() for qos, _, _ in MIX}
    completions = []  # heap of (finish, seq, arrived, started, qos)
    seq = 0
    inflight = 0

    def start(arrived, qos):
        nonlocal seq, inflight
        inflight += 1
        seq += 1
        finish = clock.now() + service_time(inflight)
        heapq.heappush(completions,
                       (finish, seq, arrived, clock.now(), qos))

    def finish_one():
        nonlocal inflight
        finish, _, arrived, started, qos = heapq.heappop(completions)
        clock.advance(max(0.0, finish - clock.now()))
        inflight -= 1
        controller.limiter.release()
        latency = finish - arrived
        ok = latency <= DEADLINES[qos]
        controller.note_result(finish - started, ok,
                               deadline_missed=not ok)
        if ok:
            stats[qos].fresh += 1
            stats[qos].latencies.append(latency)
        pump()

    def pump():
        for entry in controller.queue.take_expired():
            stats[entry.payload[1]].expired += 1
            controller.limiter.on_failure("deadline")
        while controller.limiter.try_acquire():
            entry = controller.queue.poll()
            if entry is None:
                controller.limiter.release()
                break
            start(*entry.payload)

    for when, qos in seeded_arrivals(multiplier, seed):
        while completions and completions[0][0] <= when:
            finish_one()
        clock.advance(max(0.0, when - clock.now()))
        stats[qos].offered += 1
        controller.observe()
        if controller.brownout.sheds(qos):
            stats[qos].shed += 1
        elif controller.brownout.degrades(qos):
            stats[qos].degraded += 1
        elif controller.limiter.try_acquire():
            start(when, qos)
        else:
            entry, displaced = controller.queue.offer(
                qos, deadline=Deadline(DEADLINES[qos], clock=clock),
                payload=(when, qos))
            if displaced is not None:
                stats[displaced.payload[1]].shed += 1
            if entry is None:
                stats[qos].shed += 1
    while completions:
        finish_one()
    pump()
    return stats, controller


def run_uncontrolled(multiplier, seed=SEED):
    """Ablation: no limiter, no queue, no brownout — every arrival
    starts immediately and contention does the rest."""
    clock = FakeClock()
    stats = {qos: ClassStats() for qos, _, _ in MIX}
    completions = []
    seq = 0
    inflight = 0

    def finish_one():
        nonlocal inflight
        finish, _, arrived, qos = heapq.heappop(completions)
        clock.advance(max(0.0, finish - clock.now()))
        inflight -= 1
        latency = finish - arrived
        if latency <= DEADLINES[qos]:
            stats[qos].fresh += 1
            stats[qos].latencies.append(latency)

    for when, qos in seeded_arrivals(multiplier, seed):
        while completions and completions[0][0] <= when:
            finish_one()
        clock.advance(max(0.0, when - clock.now()))
        stats[qos].offered += 1
        inflight += 1
        seq += 1
        heapq.heappush(completions,
                       (when + service_time(inflight), seq, when, qos))
    while completions:
        finish_one()
    return stats


def run_retry_storm(budgets_on, seed=SEED):
    """A hard outage under steady load, clients retrying failures.

    Returns (amplification during the outage, convergence time — the
    first post-outage moment the attempt rate holds at or below
    1.2x offered for half a second — or None within the horizon).
    """
    rng = random.Random(seed)
    budget = RetryBudget(capacity=10.0, refill_per_success=0.1) \
        if budgets_on else None
    events = []  # heap of (time, seq, attempt_number)
    seq = 0
    count = int(STORM_OFFERED * STORM_HORIZON)
    for index in range(count):
        seq += 1
        heapq.heappush(events,
                       (index * STORM_HORIZON / count, seq, 1))
    bucket_counts = {}
    attempts_in_outage = 0
    arrivals_in_outage = 0
    while events:
        when, _, attempt = heapq.heappop(events)
        if when >= STORM_HORIZON:
            continue
        bucket = int(when / STORM_BUCKET)
        bucket_counts[bucket] = bucket_counts.get(bucket, 0) + 1
        if when < STORM_OUTAGE:
            attempts_in_outage += 1
            if attempt == 1:
                arrivals_in_outage += 1
            failed = True
        else:
            # Recovered, but finite: overflow past the per-bucket
            # service capacity still fails — the coupling that lets
            # an unbudgeted storm sustain itself.
            failed = bucket_counts[bucket] > STORM_CAPACITY
        if failed:
            if attempt <= STORM_MAX_RETRIES and \
                    (budget is None or budget.try_spend()):
                backoff = STORM_BACKOFF * attempt \
                    * (1.0 + 0.5 * rng.random())
                seq += 1
                heapq.heappush(events,
                               (when + backoff, seq, attempt + 1))
        elif budget is not None and attempt == 1:
            budget.record_success()
    amplification = attempts_in_outage / max(1, arrivals_in_outage)
    calm = 1.2 * STORM_OFFERED * STORM_BUCKET
    needed = int(0.5 / STORM_BUCKET)
    run = 0
    for bucket in range(int(STORM_OUTAGE / STORM_BUCKET),
                        int(STORM_HORIZON / STORM_BUCKET)):
        run = run + 1 if bucket_counts.get(bucket, 0) <= calm else 0
        if run >= needed:
            return amplification, \
                (bucket + 1) * STORM_BUCKET - STORM_OUTAGE
    return amplification, None


def test_offered_load_sweep_holds_interactive_goodput():
    adaptive, static, sweep_rows = {}, {}, []
    for multiplier in MULTIPLIERS:
        adaptive[multiplier], controller = run_adaptive(multiplier)
        static[multiplier] = run_uncontrolled(multiplier)
        for qos, _, _ in MIX:
            a, s = adaptive[multiplier][qos], static[multiplier][qos]
            sweep_rows.append((
                f"{multiplier:g}x", qos, a.offered, a.goodput(),
                a.quantile(0.5) * 1000.0, a.quantile(0.99) * 1000.0,
                a.degraded + a.shed + a.expired, s.goodput()))
    show(f"E19 sweep: {CAPACITY} workers x {SERVICE * 1000:.0f} ms, "
         f"{DURATION:.0f} s per point, seed {SEED}",
         ("load", "class", "offered", "goodput (rps)", "p50 (ms)",
          "p99 (ms)", "degr+shed", "uncontrolled (rps)"), sweep_rows)

    # 4x offered load climbs the brownout ladder.
    assert controller.snapshot()["brownout"]["level"] >= 2

    # The contract: interactive goodput at 4x holds >= 80% of its 1x
    # value with bounded p99, while the ablation collapses (if it does
    # not, the contention model is not biting).
    interactive_1x = adaptive[1.0][QOS_INTERACTIVE].goodput()
    interactive_4x = adaptive[4.0][QOS_INTERACTIVE].goodput()
    assert interactive_4x >= 0.8 * interactive_1x
    assert adaptive[4.0][QOS_INTERACTIVE].quantile(0.99) \
        <= DEADLINES[QOS_INTERACTIVE]
    static_1x = static[1.0][QOS_INTERACTIVE].goodput()
    static_4x = static[4.0][QOS_INTERACTIVE].goodput()
    assert static_4x < 0.5 * static_1x

    # Determinism: the same seed reproduces the same curves.
    replay, _ = run_adaptive(4.0)
    assert replay[QOS_INTERACTIVE].fresh == \
        adaptive[4.0][QOS_INTERACTIVE].fresh
    assert replay[QOS_BATCH].shed == adaptive[4.0][QOS_BATCH].shed


def test_retry_budgets_end_the_storm():
    amp_on, converge_on = run_retry_storm(budgets_on=True)
    amp_off, converge_off = run_retry_storm(budgets_on=False)
    show(f"E19 retry storm: {STORM_OUTAGE:.0f} s outage at "
         f"{STORM_OFFERED:.0f} rps, <= {STORM_MAX_RETRIES} retries",
         ("budgets", "amplification", "converged after (s)"),
         [("on", amp_on, converge_on), ("off", amp_off, converge_off)])

    # Budgeted retries reconverge promptly; the unbudgeted storm stays
    # metastable past the horizon; budgets more than halve the
    # attempts per arrival during the outage.
    assert converge_on is not None and converge_on <= 1.0
    assert converge_off is None
    assert amp_off > 2.0 * amp_on
