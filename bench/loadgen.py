"""Load generation: closed-loop client threads and an open-loop
arrival schedule, both through ``platform.gateway.submit``.

A closed loop sends a client's next request only after the previous
one completed.  The open loop sends on a seeded Poisson schedule
whatever the platform does, times every request *from when it was
due* (so a stall is charged to every request it delays) and records
how late the generator itself ran.
"""

from __future__ import annotations

import random
import threading
import time
from typing import (Any, Callable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from bench.trace import GENERATOR_LATE, REQUEST_ID_HEADER, Tracer
from bench.workloads import Deployment, Op

#: Seconds a client waits for one response before the run is abandoned.
RESPONSE_TIMEOUT = 60.0


class Sample(NamedTuple):
    kind: str
    start: float   # when sent (closed loop) or due (open loop)
    end: float
    ok: bool
    sent: float    # when actually handed to the gateway
    #: Answered with a typed overload response (429/503/504 carrying
    #: Retry-After): refused, not wrong.
    shed: bool = False


def _send(deployment: Deployment, op: Op,
          root: Optional[int]) -> Any:
    """Hand one op to the platform; returns a future for requests and
    the result itself for direct calls."""
    if op.method == "CALL":
        return deployment.workload.call(deployment, op)
    headers = deployment.headers(op.tenant)
    if root is not None:
        headers = dict(headers or {})
        headers[REQUEST_ID_HEADER] = str(root)
    return deployment.platform.gateway.submit(
        op.method, op.path, op.body, headers)


def run_closed(deployment: Deployment, generators: Sequence[Iterator[Op]],
               *, ops: Optional[int] = None,
               seconds: Optional[float] = None,
               tracer: Optional[Tracer] = None) \
        -> Tuple[List[Sample], float, float]:
    """One window of closed-loop load: each generator gets a client
    thread that runs ``ops`` operations or until ``seconds`` elapse.

    Returns the samples of all clients and the window's start and end.
    """
    clock = time.perf_counter
    barrier = threading.Barrier(len(generators) + 1)
    results: List[List[Sample]] = [[] for _ in generators]
    errors: List[BaseException] = []
    deadline = [float("inf")]

    def client(index: int) -> None:
        samples = results[index]
        generator = generators[index]
        try:
            barrier.wait()
            done = 0
            while (ops is None or done < ops) and clock() < deadline[0]:
                op = next(generator)
                root = tracer.open_root() if tracer else None
                start = clock()
                try:
                    response = _send(deployment, op, root)
                    if op.method != "CALL":
                        response = response.result(RESPONSE_TIMEOUT)
                finally:
                    end = clock()
                    if tracer:
                        tracer.detach_root()
                        tracer.close_root(root, start, end, op.kind)
                ok = deployment.check(op, response)
                samples.append(Sample(op.kind, start, end, ok, start))
                done += 1
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(index,),
                                name=f"bench-client-{index}")
               for index in range(len(generators))]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    started = clock()
    if seconds is not None:
        deadline[0] = started + seconds
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    # A timed window ends at its deadline: the last requests finish
    # after it and count towards latency but not throughput.
    ended = clock() if seconds is None else deadline[0]
    return [s for samples in results for s in samples], started, ended


class Leg(NamedTuple):
    """One stretch of the arrival schedule."""

    name: str
    seconds: float
    rate: float


def poisson_schedule(legs: Sequence[Leg], seed: int) \
        -> List[Tuple[float, str]]:
    """Due times (seconds from the start) with their leg's name.

    Each leg is a Poisson process conditioned on its count: exactly
    ``round(rate * seconds)`` arrivals at independent uniform times.
    The burstiness is a Poisson process's; the number sent, which
    would otherwise wander by a few percent, is fixed.
    """
    rng = random.Random(f"arrivals:{seed}")
    schedule: List[Tuple[float, str]] = []
    origin = 0.0
    for leg in legs:
        count = round(leg.rate * leg.seconds)
        schedule.extend(sorted(
            (origin + rng.uniform(0.0, leg.seconds), leg.name)
            for _ in range(count)))
        origin += leg.seconds
    return schedule


class OpenResult(NamedTuple):
    samples: List[Sample]        # parallel to ``legs``
    legs: List[str]
    started: float
    #: (time, queue depth, brownout level) sampled at every send.
    pressure: List[Tuple[float, int, int]]


def run_open(deployment: Deployment, generator: Iterator[Op],
             schedule: Sequence[Tuple[float, str]], *,
             tracer: Optional[Tracer] = None,
             trace_from: float = 0.0,
             on_trace_start: Optional[Callable[[], None]] = None) \
        -> OpenResult:
    """Follow an arrival schedule from one generator thread (this one).

    Completion is recorded by future callback.  Requests due at or
    after ``trace_from`` get a root span and ``on_trace_start`` runs
    just before the first of them (it installs the wrappers).
    """
    controller = deployment.platform.overload
    clock = time.perf_counter
    count = len(schedule)
    ops: List[Op] = []
    sent = [0.0] * count
    done = [0.0] * count
    futures: List[Any] = [None] * count
    roots: List[Optional[int]] = [None] * count
    pressure: List[Tuple[float, int, int]] = []
    remaining = threading.Semaphore(0)

    def completed(index: int) -> Callable[[Any], None]:
        def callback(_future: Any) -> None:
            done[index] = clock()
            remaining.release()
        return callback

    tracing = False
    started = clock()
    for index, (offset, _leg) in enumerate(schedule):
        op = next(generator)
        ops.append(op)
        due = started + offset
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        if tracer is not None and not tracing and offset >= trace_from:
            if on_trace_start is not None:
                on_trace_start()
            tracing = True
        if tracing:
            roots[index] = tracer.open_root()
        sent[index] = clock()
        try:
            futures[index] = _send(deployment, op, roots[index])
        finally:
            if tracing:
                tracer.detach_root()
        futures[index].add_done_callback(completed(index))
        if controller is not None:
            pressure.append((sent[index], len(controller.queue),
                             controller.brownout.level))
    for _ in range(count):
        if not remaining.acquire(timeout=RESPONSE_TIMEOUT):
            raise TimeoutError("a response never arrived")
    samples = []
    for index, op in enumerate(ops):
        due = started + schedule[index][0]
        response = futures[index].result()
        ok = deployment.check(op, response)
        if roots[index] is not None:
            # The root runs from the due time; what passed before the
            # request was handed over is the generator's doing.
            tracer.child(roots[index], GENERATOR_LATE, due, sent[index])
            tracer.close_root(roots[index], due, done[index], op.kind)
        shed = response.status in (429, 503, 504) \
            and "retry-after" in response.headers
        samples.append(Sample(op.kind, due, done[index], ok, sent[index],
                              shed))
    return OpenResult(samples, [leg for _, leg in schedule], started,
                      pressure)
