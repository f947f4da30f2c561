"""Metrics registry: counters, gauges, log-bucketed histograms, series.

The registry backs per-run reporting in the harness and the ``--metrics``
CLI flag.  Histograms are log-bucketed (default ~19% bucket growth, i.e.
4 buckets per octave) so p50/p99/p999 queries over microsecond latencies
cost O(buckets), not O(samples).

:func:`sample_fabric` spawns a DES process that periodically samples NIC
utilisation, NIC backlog and MN CPU queue depth from a live
:class:`~repro.rdma.fabric.Fabric` into time series — the quantities the
paper's throughput plateaus (Figs. 12-14) and the Clover CPU bottleneck
(Fig. 2) are made of.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "Metrics",
           "sample_fabric"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Log-bucketed histogram for positive values (latencies, sizes).

    Bucket ``i`` covers ``(base * growth**(i-1), base * growth**i]``;
    values at or below ``base`` land in bucket 0.  Percentile queries
    return the upper bound of the bucket holding the requested rank — an
    over-estimate by at most one ``growth`` factor.

    Edge-case contract (pinned by ``tests/test_telemetry.py``):

    * **empty** — ``percentile(p)`` and ``mean`` return the sentinel
      ``0.0`` for every ``p``; callers distinguish "no data" from "all
      zero" via ``count == 0``, never via the sentinel value.
    * **single observation** — ``percentile(p)`` returns exactly the
      observed value for every ``p`` (the bucket upper bound is clamped
      to ``max_seen``), and ``mean`` equals the observation.
    """

    __slots__ = ("base", "growth", "_log_growth", "buckets", "count",
                 "total", "max_seen")

    def __init__(self, base: float = 0.1, growth: float = 2 ** 0.25):
        if base <= 0 or growth <= 1:
            raise ValueError("base must be > 0 and growth > 1")
        self.base = base
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def _index(self, value: float) -> int:
        if value <= self.base:
            return 0
        return max(0, math.ceil(math.log(value / self.base)
                                / self._log_growth))

    def bound(self, index: int) -> float:
        """Upper bound of bucket ``index``."""
        return self.base * self.growth ** index

    def observe(self, value: float) -> None:
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]; 0.0 when empty."""
        if not self.count:
            return 0.0
        rank = min(self.count, max(1, math.ceil(p / 100.0 * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(self.bound(index), self.max_seen)
        return self.max_seen  # pragma: no cover - unreachable

    def summary(self) -> dict:
        return {"count": self.count, "mean": self.mean,
                "p50": self.percentile(50), "p99": self.percentile(99),
                "p999": self.percentile(99.9), "max": self.max_seen}


class TimeSeries:
    """Sampled ``(sim_time, value)`` points (NIC utilisation, queues)."""

    __slots__ = ("points",)

    def __init__(self):
        self.points: List[Tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.points.append((t, value))

    @property
    def values(self) -> List[float]:
        return [v for _t, v in self.points]

    def mean(self) -> float:
        values = self.values
        return sum(values) / len(values) if values else 0.0

    def peak(self) -> float:
        values = self.values
        return max(values) if values else 0.0

    def summary(self) -> dict:
        return {"samples": len(self.points), "mean": self.mean(),
                "peak": self.peak()}


class Metrics:
    """A named registry of counters, gauges, histograms and series.

    Instruments are created on first access, so call sites never need to
    pre-register anything::

        metrics.counter("ops.search").inc()
        metrics.histogram("latency_us.search").observe(4.2)
    """

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge()
        return inst

    def histogram(self, name: str, base: float = 0.1,
                  growth: float = 2 ** 0.25) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(base, growth)
        return inst

    def timeseries(self, name: str) -> TimeSeries:
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = TimeSeries()
        return inst

    def names(self) -> List[str]:
        """Sorted names of every instrument currently registered."""
        return sorted(set(self.counters) | set(self.gauges)
                      | set(self.histograms) | set(self.series))

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (sorted, deterministic)."""
        return {
            "counters": {k: self.counters[k].value
                         for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].value for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].summary()
                           for k in sorted(self.histograms)},
            "series": {k: self.series[k].summary()
                       for k in sorted(self.series)},
        }


def sample_fabric(env, metrics: Metrics, fabric, interval_us: float = 50.0,
                  until_us: Optional[float] = None):
    """Spawn a process sampling NIC/CPU state into ``metrics`` series.

    Per memory node and direction: NIC utilisation over the last interval
    (busy-time delta / interval, averaged over the direction's ports),
    NIC backlog (microseconds of queued service, summed over rx ports),
    CPU wait-queue depth (summed over RPC shards), and CPU utilisation
    (granted core-time delta / interval / total cores).  On multi-queue
    nodes (``num_ports > 1``) each port additionally gets its own
    ``mn{i}.nic_{dir}.p{j}.util`` and ``.backlog_us`` series, and each
    RPC shard its own ``mn{i}.cpu.s{j}.queue_depth`` — the per-port
    tracks the profiler's blocking-edge ranking is read against.  On
    single-queue nodes the aggregates equal the classic series exactly
    and no per-port series appear, so existing outputs are unchanged.
    When the client read-spread policy is counting KV-block READs per
    replica (``fabric.stats.kv_replica_reads``), per-MN ``kv_reads``
    series and a cluster-wide ``kv_read_skew`` series (hottest replica's
    share of reads divided by the even share, 1.0 = perfectly balanced)
    are sampled too.  Returns the sampler process; it self-terminates at
    ``until_us`` when given, else runs as long as the simulation does.
    """
    if not interval_us > 0:
        raise ValueError(f"interval_us must be > 0, got {interval_us}")

    def proc():
        last_busy: Dict[Tuple, float] = {}
        while until_us is None or env.now < until_us:
            yield env.timeout(interval_us)
            t = env.now
            for mn_id in sorted(fabric.nodes):
                node = fabric.nodes[mn_id]
                multi = node.num_ports > 1
                for direction, ports in (("rx", node.rx_ports),
                                         ("tx", node.tx_ports)):
                    busy_total = 0.0
                    for j, port in enumerate(ports):
                        key = (mn_id, direction, j)
                        delta = port.total_busy - last_busy.get(key, 0.0)
                        last_busy[key] = port.total_busy
                        busy_total += delta
                        if multi:
                            stem = f"mn{mn_id}.nic_{direction}.p{j}"
                            metrics.timeseries(f"{stem}.util").record(
                                t, min(1.0, delta / interval_us))
                            metrics.timeseries(f"{stem}.backlog_us").record(
                                t, port.backlog(t))
                    metrics.timeseries(
                        f"mn{mn_id}.nic_{direction}.util").record(
                        t, min(1.0, busy_total / (interval_us * len(ports))))
                metrics.timeseries(f"mn{mn_id}.nic.backlog_us").record(
                    t, node.rx_backlog(t))
                metrics.timeseries(f"mn{mn_id}.cpu.queue_depth").record(
                    t, float(sum(s.queue_length for s in node.cpus)))
                cpu_delta = 0.0
                for j, shard in enumerate(node.cpus):
                    cpu_key = (mn_id, "cpu", j)
                    cpu_delta += shard.total_busy - last_busy.get(cpu_key,
                                                                  0.0)
                    last_busy[cpu_key] = shard.total_busy
                    if node.rpc_shards > 1:
                        metrics.timeseries(
                            f"mn{mn_id}.cpu.s{j}.queue_depth").record(
                            t, float(shard.queue_length))
                metrics.timeseries(f"mn{mn_id}.cpu.util").record(
                    t, min(1.0, cpu_delta
                           / (interval_us * node.cpu_capacity)))
            replica_reads = fabric.stats.kv_replica_reads
            total_reads = sum(replica_reads.values())
            if total_reads:
                for mn_id in sorted(replica_reads):
                    metrics.timeseries(f"mn{mn_id}.kv_reads").record(
                        t, float(replica_reads[mn_id]))
                even_share = total_reads / len(replica_reads)
                metrics.timeseries("kv_read_skew").record(
                    t, max(replica_reads.values()) / even_share)

    return env.process(proc(), name="metrics-sampler")
