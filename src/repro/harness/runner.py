"""Closed-loop experiment driver.

Reproduces the paper's measurement methodology: N closed-loop clients
(the paper runs 128 client processes over 16 CNs) each repeatedly draw
the next operation from their workload stream and execute it; throughput
is completed operations per simulated second over the measurement window,
latency is per-operation completion time.  Timeline mode (Figs. 20, 21)
buckets completions into fixed windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import Environment

__all__ = ["RunResult", "StopLoop", "run_closed_loop", "run_open_loop",
           "run_latency", "percentile", "cdf_points"]


@dataclass
class RunResult:
    ops: int
    duration_us: float
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    errors: int = 0
    timeline: List[Tuple[float, float]] = field(default_factory=list)
    per_op_counts: Dict[str, int] = field(default_factory=dict)
    # End-of-run monitor health report (repro.obs.monitor); None when no
    # monitor was attached to the run.
    health: Optional[dict] = None

    @property
    def mops(self) -> float:
        """Throughput in million operations per (simulated) second."""
        if self.duration_us <= 0:
            return 0.0
        return self.ops / self.duration_us


class StopLoop(Exception):
    """Raised inside ``execute`` to retire a client from the loop."""


def _drive(env: Environment, clients: Sequence, source_factory: Callable,
           client_proc: Callable, name: str, execute: Callable,
           duration_us: float, warmup_us: float, collect_latency: bool,
           timeline_bucket_us: Optional[float],
           events: Sequence[Tuple[float, Callable]], metrics, fast: bool,
           monitor) -> RunResult:
    """The one load driver behind both public runners.

    Owns the measurement window, ``record``, the timeline events, the
    kernel run and the monitor hand-off.  ``client_proc(env, client,
    source, execute, start, deadline, record)`` is the generator that
    decides *when* a client issues its next operation — the only thing
    closed-loop and paced runs disagree on.
    """
    if not 0 <= warmup_us < duration_us:
        raise ValueError(f"need 0 <= warmup_us < duration_us, got "
                         f"warmup_us={warmup_us}, duration_us={duration_us}")
    if monitor is not None:
        monitor.start()
    if fast:
        env.require_fast()
    start = env.now
    measure_from = start + warmup_us
    deadline = start + duration_us
    result = RunResult(ops=0, duration_us=duration_us - warmup_us)
    buckets: Dict[int, int] = {}

    def record(op: str, tenant: Optional[str], began: float,
               ok: bool) -> None:
        now = env.now
        if now < measure_from or now > deadline:
            return
        if not ok:
            result.errors += 1
            if metrics is not None:
                metrics.counter("ops.errors").inc()
                if tenant is not None:
                    metrics.counter(f"tenant.{tenant}.errors").inc()
            return
        result.ops += 1
        result.per_op_counts[op] = result.per_op_counts.get(op, 0) + 1
        if metrics is not None:
            metrics.counter(f"ops.{op}").inc()
            metrics.histogram(f"latency_us.{op}").observe(now - began)
            if tenant is not None:
                metrics.counter(f"tenant.{tenant}.ops").inc()
                metrics.histogram(
                    f"tenant.{tenant}.latency_us").observe(now - began)
        if collect_latency:
            result.latencies.setdefault(op, []).append(now - began)
        if timeline_bucket_us:
            bucket = int((now - start) // timeline_bucket_us)
            buckets[bucket] = buckets.get(bucket, 0) + 1

    def spawn(client, source, proc_name: str) -> None:
        env.process(client_proc(env, client, source, execute, start,
                                deadline, record), name=proc_name)

    for index, client in enumerate(clients):
        spawn(client, source_factory(index), f"{name}-client-{index}")

    def event_proc(at: float, callback):
        yield env.timeout(at)
        for client, source in callback() or ():
            spawn(client, source, f"late-{name}-client")

    for at, callback in events:
        env.process(event_proc(at, callback), name="timeline-event")

    env.run(until=deadline)
    if monitor is not None:
        result.health = monitor.finish()
    if timeline_bucket_us:
        n_buckets = int(duration_us // timeline_bucket_us)
        result.timeline = [
            (bucket * timeline_bucket_us,
             buckets.get(bucket, 0) / timeline_bucket_us)
            for bucket in range(n_buckets)]
    return result


def _closed_client(env, client, workload, execute, start, deadline, record):
    """Closed loop: the next operation starts when the last one ends."""
    while env._now < deadline:
        op_tuple = workload.next_op()    # (op, key, value[, measured])
        if len(op_tuple) == 3:
            op, key, value = op_tuple
            measured = True
        else:
            op, key, value, measured = op_tuple
        began = env._now
        try:
            ok = yield from execute(client, op, key, value)
        except StopLoop:
            return
        if measured:
            record(op, None, began, bool(ok))


def _paced_client(env, client, stream, execute, start, deadline, record):
    """Open loop: sleep to each arrival's due time, ``start + at_us``."""
    for arrival in stream:
        at = start + arrival.at_us
        if at > env.now:
            yield env.timeout(at - env.now)
        if env.now >= deadline:
            return
        began = env.now
        try:
            ok = yield from execute(client, arrival.op, arrival.key,
                                    arrival.value)
        except StopLoop:
            return
        record(arrival.op, getattr(arrival, "tenant", None), began,
               bool(ok))


def run_closed_loop(env: Environment,
                    clients: Sequence,
                    workload_factory: Callable[[int], object],
                    execute: Callable,
                    duration_us: float,
                    warmup_us: float = 0.0,
                    collect_latency: bool = False,
                    timeline_bucket_us: Optional[float] = None,
                    events: Sequence[Tuple[float, Callable]] = (),
                    metrics=None,
                    fast: bool = True,
                    monitor=None) -> RunResult:
    """Drive ``clients`` against per-client workloads for ``duration_us``.

    ``fast=True`` (the default) asserts the kernel's fast drain loop is
    eligible (no scheduler/profiler/access hook), so sweep beds never
    silently run hook-aware; profiled runs pass ``fast=False``.

    ``execute(client, op, key, value)`` is a generator performing one
    operation and returning truthy on success.  ``events`` is a list of
    ``(at_us_from_start, callback)`` timeline actions (crash an MN, add
    clients, ...); callbacks run at the scheduled simulated time and may
    return a list of new (client, workload) pairs to start driving.

    ``metrics`` (a :class:`repro.obs.Metrics`) additionally accumulates
    ``ops.<op>`` / ``ops.errors`` counters and ``latency_us.<op>``
    histograms over the measurement window.

    ``monitor`` (a :class:`repro.obs.Monitor`, usually already attached
    via ``cluster.attach_monitor``) is started if needed and finished at
    the deadline; its health report lands in ``RunResult.health``.
    """
    return _drive(env, clients, workload_factory, _closed_client, "load",
                  execute, duration_us, warmup_us, collect_latency,
                  timeline_bucket_us, events, metrics, fast, monitor)


def run_open_loop(env: Environment,
                  clients: Sequence,
                  stream_factory: Callable[[int], object],
                  execute: Callable,
                  duration_us: float,
                  warmup_us: float = 0.0,
                  collect_latency: bool = False,
                  timeline_bucket_us: Optional[float] = None,
                  events: Sequence[Tuple[float, Callable]] = (),
                  metrics=None,
                  fast: bool = True,
                  monitor=None) -> RunResult:
    """Drive paced (open-loop) scenario streams against ``clients``.

    ``stream_factory(index)`` yields an iterable of timed arrivals —
    objects with ``at_us``, ``tenant``, ``op``, ``key``, ``value``
    attributes (:class:`repro.workloads.scenarios.ScenarioOp`).  Each
    client sleeps until the scheduled arrival time and then executes;
    arrivals that fall behind (the client is still busy) run
    immediately, so overload shows up as queueing latency rather than
    a rate reduction — the open-loop property the closed-loop driver
    cannot express.

    Per-tenant isolation metrics are recorded when ``metrics`` is
    given: ``tenant.<name>.ops`` / ``tenant.<name>.errors`` counters
    and ``tenant.<name>.latency_us`` histograms, alongside the usual
    ``ops.<op>`` / ``latency_us.<op>`` instruments (which a windowed
    metrics adapter can pane as in closed-loop runs).
    """
    return _drive(env, clients, stream_factory, _paced_client, "paced",
                  execute, duration_us, warmup_us, collect_latency,
                  timeline_bucket_us, events, metrics, fast, monitor)


def run_latency(env: Environment, client, execute: Callable,
                ops: Sequence[Tuple[str, bytes, Optional[bytes]]]) -> List[float]:
    """Execute operations sequentially on one client; returns latencies.

    This is the paper's latency methodology: 'we use a single client to
    iteratively execute each operation 10,000 times' (§6.2).
    """
    latencies: List[float] = []

    def proc():
        for op, key, value in ops:
            began = env.now
            yield from execute(client, op, key, value)
            latencies.append(env.now - began)

    env.run(until=env.process(proc(), name="latency-client"))
    return latencies


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``, 0 <= p <= 100."""
    if not 0 <= p <= 100:   # also rejects NaN
        raise ValueError(f"percentile p={p!r} outside [0, 100]")
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def cdf_points(values: Sequence[float],
               points: Sequence[float] = (50, 90, 99, 99.9)) -> Dict[float, float]:
    return {p: percentile(values, p) for p in points}
