"""Overhead bounds for the attached observers.

The observers' hooks sit on the fabric's hottest paths (every doorbell
batch, every client op).  Detached, an observer is None and each hook
site is one ``is None`` test; that an untraced, unmonitored, unprofiled
bed calls no observer code at all is asserted exactly, not timed
(``tests/test_obs.py::TestUntracedBed``).  These tests time a fixed
update workload with no observer against the same workload with the
tracer, the tracer and monitor, and the tracer and profiler attached,
and bound each attached cost to the same order of magnitude.

Timing uses min-of-N over repeated interleaved rounds, which suppresses
scheduler noise far better than a single mean.
"""

import gc
import time

from repro.core import ClusterConfig, FuseeCluster
from repro.core.addressing import RegionConfig
from repro.core.race import RaceConfig
from repro.obs import Profiler, Tracer

OPS_PER_ROUND = 300
ROUNDS = 7
# A small absolute slack so sub-millisecond timing jitter on loaded CI
# machines cannot flake a bound.
ABSOLUTE_SLACK_S = 0.010


def _make_workload(tracer, profile=False, monitor=False):
    cluster = FuseeCluster(ClusterConfig(
        n_memory_nodes=2, replication_factor=2, regions_per_mn=4,
        region=RegionConfig(region_size=1 << 20, block_size=1 << 14),
        race=RaceConfig(n_subtables=4, n_groups=64)),
        tracer=tracer)
    profiler = (Profiler(tracer=tracer).install(cluster.env)
                if profile else None)
    if monitor:
        from repro.obs import Monitor
        cluster.attach_monitor(Monitor(cluster.env, cluster.fabric))
    fast = profiler is None   # profiled rounds run hook-aware by design
    client = cluster.new_client()
    cluster.run_op(client.insert(b"bench-key", b"v" * 64), fast=fast)

    def round_fn():
        for i in range(OPS_PER_ROUND):
            cluster.run_op(client.update(b"bench-key", b"w" * 64), fast=fast)
            cluster.run_op(client.search(b"bench-key"), fast=fast)
        cluster.run_op(client.maintenance(), fast=fast)
        if tracer is not None:
            tracer.clear()  # keep memory flat across rounds
        if profiler is not None:
            profiler.clear()

    return round_fn


def _min_round_time(round_fns):
    """Interleave one timed round of each workload, ROUNDS times; return
    the per-workload minimum (least-noise estimate)."""
    best = [float("inf")] * len(round_fns)
    for fn in round_fns:   # untimed warmup (JIT-free, but warms caches)
        fn()
    for _ in range(ROUNDS):
        for index, fn in enumerate(round_fns):
            gc.disable()
            started = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - started
            gc.enable()
            best[index] = min(best[index], elapsed)
    return best


def test_enabled_tracer_overhead_is_bounded():
    """Tracing does real work per batch and span; it must stay the same
    order of magnitude as untraced execution."""
    baseline_fn = _make_workload(tracer=None)
    enabled_fn = _make_workload(tracer=Tracer())
    baseline, enabled = _min_round_time([baseline_fn, enabled_fn])
    assert enabled <= baseline * 2.0 + ABSOLUTE_SLACK_S, (
        f"enabled tracer is pathologically slow: {enabled:.4f}s "
        f"vs {baseline:.4f}s per round")


def test_enabled_monitor_overhead_is_bounded():
    """An attached monitor does real per-span/per-verb sketch work; it
    must stay the same order of magnitude as untraced execution."""
    baseline_fn = _make_workload(tracer=None)
    monitored_fn = _make_workload(tracer=Tracer(), monitor=True)
    baseline, monitored = _min_round_time([baseline_fn, monitored_fn])
    assert monitored <= baseline * 3.0 + ABSOLUTE_SLACK_S, (
        f"enabled monitor is pathologically slow: {monitored:.4f}s "
        f"vs {baseline:.4f}s per round")


def test_profiler_overhead_is_bounded():
    """The profiler's hooks ride the same hot paths as the tracer.

    Installing a profiler on top of a tracer records an interval per
    resource grant and NIC slot, which must stay the same order of
    magnitude as untraced execution.
    """
    baseline_fn = _make_workload(tracer=None)
    profiled_fn = _make_workload(tracer=Tracer(), profile=True)
    baseline, profiled = _min_round_time([baseline_fn, profiled_fn])
    assert profiled <= baseline * 2.5 + ABSOLUTE_SLACK_S, (
        f"enabled profiler is pathologically slow: {profiled:.4f}s "
        f"vs {baseline:.4f}s per round")
