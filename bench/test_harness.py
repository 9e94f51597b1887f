"""Self-tests of the benchmark harness (a few seconds).

Run from the repository root, outside tier-1's ``testpaths``::

    PYTHONPATH=src python -m pytest bench/test_harness.py -q
"""

import itertools
import json
import re
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare, hostspeed, run, stats  # noqa: E402
from bench.loadgen import Leg, Sample, poisson_schedule, run_open  # noqa: E402
from bench.trace import ROOT as ROOT_SPAN  # noqa: E402
from bench.trace import Budget, Span, Tracer, default_targets, self_times  # noqa: E402
from bench.workloads import WORKLOADS, DashboardBare, Op, op_digest  # noqa: E402
from repro.web import Response  # noqa: E402


# -- generators ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations(name):
    workload = WORKLOADS[name]
    for client in range(workload.clients):
        first = op_digest(workload.generator(5, client), 2000)
        again = op_digest(workload.generator(5, client), 2000)
        other = op_digest(workload.generator(6, client), 2000)
        assert first == again
        assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_mix_is_exact_per_deck(name):
    workload = WORKLOADS[name]
    size = sum(count for _, count in workload.mix)
    ops = [op for op in itertools.islice(
        workload.generator(1, 0), size * 3 + 20)
        if op.kind != "checkpoint"][:size * 3]
    for kind, count in workload.mix:
        assert sum(op.kind == kind for op in ops) == count * 3


def test_arrival_schedule_is_seeded_and_sized():
    legs = [Leg("a", 2.0, 100.0), Leg("b", 1.0, 400.0)]
    schedule = poisson_schedule(legs, 3)
    assert schedule == poisson_schedule(legs, 3)
    assert schedule != poisson_schedule(legs, 4)
    assert [leg for _, leg in schedule].count("a") == 200
    assert [leg for _, leg in schedule].count("b") == 400
    assert all(0 <= at < 2.0 for at, leg in schedule if leg == "a")
    assert all(2.0 <= at < 3.0 for at, leg in schedule if leg == "b")
    assert [at for at, _ in schedule] == sorted(at for at, _ in schedule)


# -- statistics ------------------------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert not stats.supported(199, 0.95)
    assert stats.supported(200, 0.95)
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(30) is None
    q, _ = stats.tail(list(range(100)), 0.99)
    assert q == 0.9


def test_quiet_quartile_ignores_disturbed_slices():
    # Ten 1 s slices of 1 ms requests; a neighbour makes four of them
    # ten times slower.  The third-lowest slice median is undisturbed.
    samples = [Sample("x", second + 0.1 * i,
                      second + 0.1 * i + (0.010 if second in (2, 3, 6, 9)
                                          else 0.001), True, 0.0)
               for second in range(10) for i in range(10)]
    assert run.quiet_quartile(samples, 0.0, 10.0, 0.5) \
        == pytest.approx(1.0)


def test_timings_are_rescaled_by_the_windows_own_host_slowdown():
    # A host 1.5x slower than the reference inside the window, quiet
    # outside it: only the samples inside count.
    unit = hostspeed.REFERENCE_UNIT_S
    host = [(-1.0, unit), (2.0, 1.4 * unit), (8.0, 1.6 * unit),
            (11.0, unit)]
    slowdown = hostspeed.slowdown(host, 0.0, 10.0)
    assert slowdown == pytest.approx(1.5)
    workload = WORKLOADS["sharded_skew"]
    samples = [Sample(workload.primary_read, i * 0.1, i * 0.1 + 0.003,
                      True, 0.0) for i in range(100)]
    samples.append(Sample(workload.primary_write, 5.0, 5.006, True, 0.0))
    metrics = run.end_to_end(workload, samples, 0.0, 10.0, slowdown)
    assert metrics["primary_read_p50_ms"] == pytest.approx(2.0)
    assert metrics["primary_write_p50_ms"] == pytest.approx(4.0)
    assert metrics["throughput_rps"] == pytest.approx(10.1 * 1.5)
    with hostspeed.HostSpeed() as speed:
        time.sleep(0.05)
    assert speed.samples and speed.samples[0][1] > 0.0


def test_compare_verdicts():
    assert compare.verdict([100.0], [104.0], "lower", 0.05, False)[2] \
        == "unchanged"
    assert compare.verdict([100.0], [106.0], "lower", 0.05, False)[2] \
        == "regressed"
    assert compare.verdict([100.0], [94.0], "higher", 0.05, False)[2] \
        == "regressed"
    assert compare.verdict([100.0], [90.0], "lower", 0.05, False)[2] \
        == "improved"
    assert compare.verdict([100.0], [106.0], "lower", 0.05, True)[2] \
        == "unresolved"
    noisy = [80.0, 95.0, 100.0, 105.0, 125.0]
    assert compare.verdict(noisy, [120.0], "lower", 0.05, False)[2] \
        == "unresolved"


# -- span arithmetic -------------------------------------------------------------------


def test_self_times_of_a_nested_trace_sum_to_the_root():
    spans = [
        Span(1, None, ROOT_SPAN, 0.0, 10.0),
        Span(2, 1, "core.gateway.submit", 0.0, 1.0),
        # The worker starts before submit returned and outlives the
        # root: both overlaps must be clipped, not double counted.
        Span(3, 1, "core.gateway.run", 0.5, 10.5),
        Span(4, 3, "web.handle", 2.0, 9.0),
        Span(5, 4, "engine.execute.read", 3.0, 5.0),
        Span(6, 4, "engine.execute.read", 6.0, 8.0),
        Span(7, None, "engine.execute.read", 0.0, 100.0),  # orphan
    ]
    own = self_times(spans)
    assert 7 not in own
    assert sum(own.values()) == pytest.approx(10.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(9.0 - 7.0)
    assert own[4] == pytest.approx(7.0 - 4.0)
    budget = Budget(spans)
    assert budget.wall_ms == pytest.approx(10_000.0)
    assert budget.layers["engine"].calls == 2
    assert sum(budget.share(layer) for layer in budget.layers) \
        == pytest.approx(1.0)


def test_wrappers_are_fully_restored():
    targets = default_targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer()
    with tracer:
        tracer.install(targets)
        assert all(vars(t.owner)[t.attr] is not original
                   for t, original in zip(targets, before))
    assert all(vars(t.owner)[t.attr] is original
               for t, original in zip(targets, before))


# -- the open loop ---------------------------------------------------------------------


class _StallingGateway:
    """Answers on the caller's thread; the first request stalls."""

    def __init__(self):
        self.calls = 0

    def submit(self, method, path, body=None, headers=None, query=None):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.2)
        future = Future()
        future.set_result(Response(status=200, body="ok"))
        return future


class _FakeDeployment:
    class platform:
        overload = None
        gateway = None

    @staticmethod
    def check(op, response):
        return response.body == "ok"

    @staticmethod
    def headers(tenant):
        return None


def test_open_loop_latency_runs_from_the_due_time():
    deployment = _FakeDeployment()
    deployment.platform.gateway = _StallingGateway()
    ops = itertools.repeat(Op("ping", None, "GET", "/ping"))
    schedule = [(0.00, "w"), (0.05, "w"), (0.10, "w")]
    result = run_open(deployment, ops, schedule)
    latency = [s.end - s.start for s in result.samples]
    # The stall delays the requests queued behind it, not just itself:
    # the second was due 50 ms in and is answered after the 200 ms.
    assert latency[0] >= 0.2
    assert latency[1] >= 0.14
    assert latency[2] >= 0.09
    assert result.samples[1].sent - result.samples[1].start >= 0.14


# -- a small traced run ----------------------------------------------------------------


class _SmallDashboard(DashboardBare):
    rows = 400
    warmup_ops = 20


def test_traced_run_budget_sums_to_wall_and_names_match_the_spec():
    workload = _SmallDashboard()
    deployment = workload.build(1, None)
    try:
        workload.prime(deployment)
        generators = [workload.generator(1, client)
                      for client in range(workload.clients)]
        measured = run.measure_closed(deployment, generators, 1.5, True)
        report = run._report(deployment, measured, {"correct": True}, True)
    finally:
        deployment.discard()
    assert report["correct"], report["flags"]
    assert report["failed"] == 0
    budget = Budget(measured.tracer.spans)
    assert sum(budget.share(layer) for layer in budget.layers) \
        == pytest.approx(1.0, abs=0.01)
    assert budget.share("engine") > 0.2
    for layer in workload.bypasses:
        assert budget.layers[layer].calls == 0
    names = {metric["name"] for metric in run.SPEC["per_layer"]}
    assert set(report["metrics"]) <= names
    # Threads outside the harness are gone and nothing stays wrapped.
    assert not [t for t in threading.enumerate()
                if t.name.startswith("bench-client")]


def test_benchmark_json_meets_the_contract():
    spec = run.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert len(json.dumps(spec)) < 64 * 1024
