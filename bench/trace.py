"""Spans recorded from outside the program.

:class:`Tracer` rebinds the functions at each layer boundary (see
:func:`default_targets`) to wrappers that record one span per call —
id, parent, name, start, end, and an optional value — and restores the
originals afterwards.  Spans stay in memory; :meth:`Tracer.write_jsonl`
writes them out when the run ends.

A span's parent is the span open on the same thread when it started.
Work crossing from a client thread to a gateway pool worker is linked
by the ``x-bench-request-id`` header: the load generator opens a root
span per request and sends its id in that header, and the worker-side
gateway span adopts it as parent.

A span's *self time* is its duration minus the union of its direct
children (clipped to it); a layer's self time is the sum over its
spans.  By construction the self times of a request's spans sum to the
root span's duration, so the per-layer table sums to the traced wall
time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

#: Header carrying the root span id from client thread to pool worker.
REQUEST_ID_HEADER = "x-bench-request-id"

#: Name of the root span the load generator opens around each request.
ROOT = "bench.request"

#: Layers the root span's own time is split into (see layer_table).
QUEUE_WAIT = "core.gateway.queue_wait"
UNATTRIBUTED = "bench.unattributed"

#: Span the open loop adds under a root: due time to hand-over.
GENERATOR_LATE = "bench.generator_late"


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    value: Any = None


class Target(NamedTuple):
    """One function to rebind: ``owner.attr`` recorded as ``name``.

    ``note(args, result)`` may return ``(name, value)`` to refine the
    span after the call; ``adopt(args)`` may return a parent span id
    that overrides the thread's open span (the cross-thread link).
    """

    owner: Any
    attr: str
    name: str
    note: Optional[Callable[[tuple, Any], Tuple[str, Any]]] = None
    adopt: Optional[Callable[[tuple], Optional[int]]] = None


class Tracer:
    """Records spans around rebound functions; restores them on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- the load generator's side ------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_root(self) -> int:
        """Open a root span on this thread; returns its id."""
        span_id = next(self._ids)
        self._stack().append(span_id)
        return span_id

    def detach_root(self) -> None:
        """This thread is done issuing the root's work (the root may
        still complete on another thread)."""
        self._stack().pop()

    def close_root(self, span_id: int, start: float, end: float,
                   value: Any = None) -> None:
        self.spans.append(Span(span_id, None, ROOT, start, end, value))

    def child(self, parent: int, name: str, start: float,
              end: float) -> None:
        """Record a span the caller timed itself."""
        self.spans.append(Span(next(self._ids), parent, name, start, end))

    # -- rebinding -----------------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        name, note, adopt = target.name, target.note, target.adopt

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            if adopt is not None:
                parent = adopt(args) or parent
            span_id = next(ids)
            stack.append(span_id)
            final, value = name, None
            start = clock()
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    final, value = note(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, final, start, end,
                                  value))

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            # vars() reads the owner's own attribute, so restore puts
            # back the identical object, never an inherited binding.
            original = vars(target.owner)[target.attr]
            self._installed.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr,
                    self._wrap(target, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.restore()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), default=repr))
                handle.write("\n")


# -- self-time arithmetic --------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span whose ancestry reaches a root.

    Children are clipped to their parent, so for each root the self
    times of its tree sum to the root's duration exactly.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    result: Dict[int, float] = {}

    def visit(span: Span, low: float, high: float) -> None:
        # [low, high] is the part of this span inside all its
        # ancestors; only that part is anyone's to account for.
        low, high = max(low, span.start), min(high, span.end)
        if high <= low:
            result[span.span_id] = 0.0
            return
        kids = children.get(span.span_id, [])
        result[span.span_id] = (high - low) - _covered(
            [(kid.start, kid.end) for kid in kids], low, high)
        # Overlapping siblings (a submit still returning while the
        # worker already runs) would double count; give each instant
        # to the earliest-starting sibling.
        edge = low
        for kid in sorted(kids, key=lambda k: k.start):
            visit(kid, max(edge, low), high)
            edge = max(edge, min(kid.end, high))

    for span in spans:
        if span.parent is None or span.parent not in by_id:
            if span.name == ROOT:
                visit(span, span.start, span.end)
    return result


def layer_of(name: str, layers: Iterable[str]) -> str:
    """The longest layer name that prefixes a span name."""
    best = ""
    for layer in layers:
        if (name == layer or name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    return best or name


class Aggregate:
    """Totals over the spans of one name (or one layer)."""

    __slots__ = ("calls", "self_ms", "total_ms", "values")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ms = 0.0   # sum of self times
        self.total_ms = 0.0  # sum of durations, children included
        self.values: List[Any] = []

    def add(self, span: Span, self_s: float) -> None:
        self.calls += 1
        self.self_ms += self_s * 1000.0
        self.total_ms += (span.end - span.start) * 1000.0
        if span.value is not None:
            self.values.append(span.value)

    def per_call(self, total: bool = False) -> float:
        if not self.calls:
            return 0.0
        return (self.total_ms if total else self.self_ms) / self.calls


class Budget:
    """Where the traced requests' wall time went, by span name and by
    layer.

    A root span's own time is what no wrapped function covers: the gap
    between the gateway's submit returning and its worker starting is
    ``core.gateway.queue_wait``, the rest (future wake-up, waiting for
    the interpreter lock on the way back to the client, a late open-
    loop generator) is ``bench.unattributed``.  Layer self times plus
    those two sum to ``wall_ms``, the traced requests' wall time.
    """

    def __init__(self, spans: Iterable[Span]):
        spans = list(spans)
        own = self_times(spans)
        kids: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                kids[span.parent].append(span)
        self.names: Dict[str, Aggregate] = defaultdict(Aggregate)
        self.layers: Dict[str, Aggregate] = defaultdict(Aggregate)
        self.wall_ms = 0.0
        self.requests = 0
        self.queue_waits_ms: List[float] = []
        for span in spans:
            self_s = own.get(span.span_id)
            if self_s is None:
                continue  # not part of any traced request
            if span.name != ROOT:
                self.names[span.name].add(span, self_s)
                self.layers[layer_of(span.name, LAYERS)].add(span, self_s)
                continue
            self.requests += 1
            self.wall_ms += (span.end - span.start) * 1000.0
            submit = [k for k in kids[span.span_id]
                      if k.name == "core.gateway.submit"]
            run = [k for k in kids[span.span_id]
                   if k.name == "core.gateway.run"]
            wait = 0.0
            if submit and run:
                wait = min(self_s, max(0.0, run[0].start - submit[0].end))
                self.queue_waits_ms.append(wait * 1000.0)
                self.layers[QUEUE_WAIT].calls += 1
            self.layers[QUEUE_WAIT].self_ms += wait * 1000.0
            self.layers[UNATTRIBUTED].calls += 1
            self.layers[UNATTRIBUTED].self_ms += (self_s - wait) * 1000.0

    def share(self, layer: str) -> float:
        if not self.wall_ms or layer not in self.layers:
            return 0.0
        return self.layers[layer].self_ms / self.wall_ms

    def table(self) -> str:
        """The per-layer table: calls, self ms, share of traced wall."""
        lines = [f"{'layer':<28}{'calls':>10}{'self ms':>14}{'share':>9}"]
        rows = sorted(self.layers.items(), key=lambda kv: -kv[1].self_ms)
        for layer, row in rows:
            lines.append(f"{layer:<28}{row.calls:>10}"
                         f"{row.self_ms:>14.1f}{self.share(layer):>9.3f}")
        total = sum(row.self_ms for _, row in rows)
        lines.append(f"{'sum':<28}{'':>10}{total:>14.1f}"
                     f"{total / self.wall_ms if self.wall_ms else 0:>9.3f}")
        lines.append(f"{'traced wall':<28}{self.requests:>10}"
                     f"{self.wall_ms:>14.1f}")
        return "\n".join(lines)


# -- what gets wrapped -----------------------------------------------------------------

#: The layers of the per-layer table: this repo's modules.
LAYERS = (
    "core.gateway", "core.overload", "web", "security", "orm",
    "core.billing", "core.metadata", "core.reporting", "reporting",
    "core.delivery", "core.analysis", "olap", "etl", "engine",
    "engine.wal", "core.sharding",
)


def _adopt_request(args: tuple) -> Optional[int]:
    """RequestGateway._run_request(self, method, path, body, headers,
    ...): the root span id the client put in the headers."""
    headers = args[4] if len(args) > 4 else None
    if headers:
        value = headers.get(REQUEST_ID_HEADER)
        if value is not None:
            return int(value)
    return None


def default_targets() -> List[Target]:
    """Every layer boundary the benchmark records, by public function.

    Private names appear only where the boundary has no public one:
    the gateway's worker-side wrapper (``_run_request``), the log's
    flush-and-fsync step (``_commit_written``; ``sync`` itself is only
    called on close and checkpoint) and its raw append (``_write``).
    """
    from repro.core import analysis_service, overload
    from repro.core.delivery_service import InformationDeliveryService
    from repro.core.gateway import RequestGateway
    from repro.core.integration_service import IntegrationService
    from repro.core.metadata_service import MetadataService
    from repro.core.overload import OverloadController
    from repro.core.reporting_service import ReportingService
    from repro.core.sharding import ReadReplica, ShardMap
    from repro.core.subscription import BillingService
    from repro.engine import database as engine_database
    from repro.engine import planner
    from repro.engine.database import Database
    from repro.engine.executor import ResultSet
    from repro.engine.wal import JournalLog, WriteAheadLog, _AppendLog
    from repro.olap.engine import OlapEngine
    from repro.orm.query import CriteriaQuery
    from repro.orm.session import Session
    from repro.reporting.definitions import DashboardDefinition
    from repro.security import AccessDecisionManager, AuthenticationManager
    from repro.web import WebApplication

    def execute_note(args: tuple, result: Any) -> Tuple[str, Any]:
        if isinstance(result, ResultSet):
            return "engine.execute.read", len(result)
        return "engine.execute.write", None

    def handle_note(args: tuple, result: Any) -> Tuple[str, Any]:
        return "core.sharding.read_handle", \
            (result.served_by != "primary", result.replica_lag)

    return [
        Target(RequestGateway, "submit", "core.gateway.submit"),
        Target(RequestGateway, "_run_request", "core.gateway.run",
               adopt=_adopt_request),
        Target(OverloadController, "classify", "core.overload.classify"),
        Target(OverloadController, "observe", "core.overload.observe"),
        Target(OverloadController, "note_result",
               "core.overload.note_result"),
        Target(WebApplication, "handle", "web.handle"),
        Target(AuthenticationManager, "validate", "security.validate"),
        Target(AuthenticationManager, "authenticate", "security.login"),
        Target(AccessDecisionManager, "check_tenant",
               "security.check_tenant"),
        Target(CriteriaQuery, "list", "orm.list"),
        Target(CriteriaQuery, "count", "orm.count"),
        Target(Session, "get", "orm.get"),
        Target(BillingService, "meter", "core.billing.meter"),
        Target(MetadataService, "dataset_rows",
               "core.metadata.dataset_rows"),
        Target(ReportingService, "render_dashboard",
               "core.reporting.render_dashboard"),
        Target(ReportingService, "run_report",
               "core.reporting.run_report"),
        Target(ReportingService, "reports", "core.reporting.reports"),
        Target(DashboardDefinition, "render", "reporting.render"),
        Target(InformationDeliveryService, "deliver_dashboard",
               "core.delivery.deliver_dashboard"),
        Target(analysis_service.AnalysisService, "execute_mdx",
               "core.analysis.execute_mdx"),
        Target(analysis_service, "parse_mdx", "olap.parse_mdx"),
        Target(OlapEngine, "query", "olap.query"),
        Target(IntegrationService, "run_job", "etl.run_job"),
        Target(Database, "execute", "engine.execute",
               note=execute_note),
        Target(Database, "query", "engine.query"),
        Target(Database, "executemany", "engine.executemany"),
        Target(Database, "checkpoint", "engine.checkpoint"),
        Target(Database, "apply_committed", "engine.apply_committed",
               note=lambda args, result:
                   ("engine.apply_committed", result)),
        # parse_sql is imported by name into its two callers.
        Target(engine_database, "parse_sql", "engine.parse"),
        Target(overload, "parse_sql", "engine.parse"),
        # plan_select is imported at call time, on a plan-cache miss.
        Target(planner, "plan_select", "engine.plan"),
        Target(WriteAheadLog, "commit", "engine.wal.commit"),
        Target(JournalLog, "append", "engine.wal.journal"),
        Target(_AppendLog, "_commit_written", "engine.wal.sync"),
        Target(_AppendLog, "_write", "engine.wal.write",
               note=lambda args, result:
                   ("engine.wal.write", len(args[1]))),
        Target(ShardMap, "read_handle", "core.sharding.read_handle",
               note=handle_note),
        Target(ShardMap, "write_handle", "core.sharding.write_handle"),
        Target(ShardMap, "dispatch_read", "core.sharding.dispatch_read"),
        Target(ShardMap, "dispatch_write",
               "core.sharding.dispatch_write"),
        Target(ReadReplica, "poll", "core.sharding.poll",
               note=lambda args, result: ("core.sharding.poll", result)),
    ]
