"""Shared bed-builders and timers for the kernel wall-clock gates.

The kernel speedup gates (``test_core_ops_wallclock.py``) compare the
current tree against a *recorded pre-refactor number* stored in
``benchmarks/baselines/kernel_wallclock.json``.  Absolute wall-clock is
machine-dependent, so the baseline file also records the runtime of a
fixed pure-Python **calibration workload** whose instruction mix (heap
churn, method calls, small-tuple allocation, dict traffic) resembles the
DES hot loop; at gate time the baseline seconds are rescaled by
``calibration_now / calibration_recorded`` before the speedup assertion,
with ``calibration_now`` taken beside each timed repeat
(:func:`best_calibrated_speedup`), not once per session.

Everything here is deliberately deterministic: fixed seeds, fixed op
counts, no wall-clock-dependent control flow — two runs of a bed do the
same simulated work, only the host speed varies.
"""

from __future__ import annotations

import heapq
import json
import time
from pathlib import Path

from repro.core import ClusterConfig, FuseeCluster
from repro.core.addressing import RegionConfig
from repro.core.race import RaceConfig
from repro.harness.runner import run_closed_loop
from repro.harness.systems import fusee_bed
from repro.workloads import YcsbConfig, YcsbWorkload

BASELINE_PATH = Path(__file__).parent / "baselines" / "kernel_wallclock.json"

#: Geometry of the timed beds (keep in sync with the recorded baseline).
BIG_BED = dict(n_clients=128, n_memory_nodes=4, duration_us=600.0)
SCALED_BED = dict(n_clients=256, n_memory_nodes=8, duration_us=500.0)
MICRO_OPS = dict(n_inserts=1200, n_searches=2000, n_updates=2000)


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- beds
def big_bed_run(n_clients: int, n_memory_nodes: int, duration_us: float,
                seed: int = 13):
    """Run the multi-queue YCSB-A bed; returns ``(wall_seconds, ops)``.

    Mirrors the trimmed multi-queue bed of ``test_smoke_gates.py``: rss
    port affinity, 4 NIC ports, 2 RPC shards, no tracer/profiler/
    scheduler — the pure kernel fast path.
    """
    bed = fusee_bed(n_memory_nodes=n_memory_nodes, replication_factor=2,
                    dataset_bytes=1 << 18, background_interval_us=0.0,
                    nic_ports=4, rpc_shards=2, port_affinity="rss",
                    max_clients=n_clients + 8)
    config = YcsbConfig(workload="A", n_keys=200)
    seeder = YcsbWorkload(config, seed=seed)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    clients = [bed.new_client() for _ in range(n_clients)]
    t0 = time.perf_counter()
    run = run_closed_loop(
        bed.env, clients,
        lambda index: YcsbWorkload(config, seed=seed + 1 + index),
        bed.execute, duration_us=duration_us)
    return time.perf_counter() - t0, run.ops


def micro_ops_run(n_inserts: int, n_searches: int, n_updates: int):
    """Single-client core-ops microbench; returns ``(wall_seconds, ops)``.

    The same 2-MN cluster as the pytest-benchmark micro timings, driven
    for a fixed op count so the measurement is one number.
    """
    cluster = FuseeCluster(ClusterConfig(
        n_memory_nodes=2, replication_factor=2, regions_per_mn=4,
        region=RegionConfig(region_size=1 << 20, block_size=1 << 14),
        race=RaceConfig(n_subtables=4, n_groups=64)))
    client = cluster.new_client()
    t0 = time.perf_counter()
    for i in range(n_inserts):
        cluster.run_op(client.insert(f"bench-{i}".encode(), b"v" * 64))
    for i in range(n_searches):
        cluster.run_op(client.search(f"bench-{i % n_inserts}".encode()))
    for i in range(n_updates):
        cluster.run_op(client.update(f"bench-{i % n_inserts}".encode(),
                                     f"v{i}".encode()))
        if i % 64 == 63:
            cluster.run_op(client.maintenance())
    ops = n_inserts + n_searches + n_updates
    return time.perf_counter() - t0, ops


# -------------------------------------------------------- calibration
class _CalNode:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def bump(self, delta: int) -> int:
        self.value = (self.value + delta) & 0xFFFFFFFF
        return self.value


def calibration_seconds(rounds: int = 150_000) -> float:
    """A fixed pure-Python workload approximating the DES hot loop.

    Heap push/pop with small tuples, bound-method calls, dict get/set —
    the operations whose host-speed ratio predicts how fast this machine
    runs the simulator relative to the one that recorded the baseline.
    """
    t0 = time.perf_counter()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    node = _CalNode(0x9E3779B9)
    table: dict = {}
    x = 12345
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x & 0xFFFF, i, node.bump(x)))
        table[x & 1023] = table.get((x >> 10) & 1023, 0) + 1
        if len(heap) > 64:
            pop(heap)
            pop(heap)
    while heap:
        pop(heap)
    return time.perf_counter() - t0


def measure_calibration(repeats: int = 3) -> float:
    """Best-of-N calibration time (minimum filters scheduler noise)."""
    return min(calibration_seconds() for _ in range(repeats))


def best_calibrated_speedup(run, baseline_seconds: float,
                            calibration_recorded: float, repeats: int = 3):
    """Time ``run()`` ``repeats`` times, each against a budget calibrated
    beside it; returns ``(speedup, seconds, budget, ops)`` of the repeat
    with the best speedup.

    A shared host changes speed for seconds at a time (this sandbox flips
    between two states 1.3-1.7x apart), so a calibration taken once per
    session scales the budget by one state and times the bed in the
    other.  Here the calibration brackets each repeat — the faster of the
    readings just before and just after, so a flip *during* the repeat
    shrinks its budget and never inflates it — and the gate reads the
    best per-repeat ratio: noise is one-sided for a ratio of two timings
    taken in one state just as it is for a single timing.
    """
    best = None
    for _ in range(repeats):
        before = measure_calibration(2)
        seconds, ops = run()
        calibration = min(before, measure_calibration(2))
        budget = baseline_seconds * calibration / calibration_recorded
        if best is None or budget / seconds > best[0]:
            best = (budget / seconds, seconds, budget, ops)
    return best
