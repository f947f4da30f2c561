"""One function per table/figure of the paper's evaluation (§2, §3, §6).

Every function returns an :class:`ExperimentResult` whose rows are the
series the corresponding paper artefact plots.  Absolute numbers are
simulated; the *shapes* (who wins, by what factor, where curves bend) are
the reproduction targets — see EXPERIMENTS.md for paper-vs-measured.

Scale: experiments accept a :class:`Scale`; ``Scale.bench()`` keeps each
experiment in seconds of wall-clock for the pytest-benchmark harness,
``Scale.full()`` is closer to the paper's setup (more clients, keys and
simulated time; minutes of wall-clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.fig3 import (
    ConsensusReplicatedObject,
    LockReplicatedObject,
    ReplicatedObjectBed,
    SnapshotReplicatedObject,
)
from ..core.client import CrashPoint, ClientCrashed
from ..workloads import MicroConfig, MicroWorkload
from ..workloads.scenarios import SCENARIOS, get_scenario, tenant_report
from ..workloads.ycsb import make_value
from .profiling import observed_run
from .runner import RunResult, StopLoop, cdf_points, percentile, \
    run_closed_loop, run_latency
from .systems import Scale, SystemBed, _dataset, _make_system, \
    _ycsb_factory, fusee_bed

__all__ = [
    "Scale",
    "ExperimentResult",
    "fig02_clover_metadata_cpu",
    "fig03_serialization",
    "fig10_latency_cdf",
    "fig11_micro_throughput",
    "fig12_kv_sizes",
    "fig13_ycsb_scalability",
    "fig14_memory_nodes",
    "fig15_rw_ratio",
    "fig16_cache_threshold",
    "fig17_allocation",
    "fig18_replication_throughput",
    "fig19_replication_latency",
    "fig20_mn_crash",
    "fig21_elasticity",
    "scenario_suite",
    "table1_recovery",
    "ablation_oplog",
    "ablation_expansion",
    "resource_efficiency",
    "ALL_EXPERIMENTS",
]


@dataclass
class ExperimentResult:
    name: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: str = ""
    # Structured side-channel for results that don't fit a table (the
    # fig21 rebalance-phase attribution, per-tenant isolation reports).
    extras: Dict[str, object] = field(default_factory=dict)

    def format(self) -> str:
        widths = [len(h) for h in self.headers]
        str_rows = []
        for row in self.rows:
            cells = [f"{c:.3f}" if isinstance(c, float) else str(c)
                     for c in row]
            str_rows.append(cells)
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        lines = [f"== {self.name}: {self.title} =="]
        lines.append("  ".join(h.ljust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in str_rows:
            lines.append("  ".join(c.ljust(w)
                                   for c, w in zip(cells, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


# ---------------------------------------------------------------- helpers
def _run_ycsb(bed: SystemBed, scale: Scale, workload: str,
              n_clients: Optional[int] = None,
              mix: Optional[Tuple[float, float, float]] = None,
              kv_size: Optional[int] = None,
              collect_latency: bool = False) -> RunResult:
    clients = [bed.new_client() for _ in range(n_clients or scale.n_clients)]
    return run_closed_loop(
        bed.env, clients, _ycsb_factory(scale, workload, mix, kv_size),
        bed.execute, duration_us=scale.duration_us,
        warmup_us=scale.warmup_us, collect_latency=collect_latency)


# ======================================================================
# Motivation figures
# ======================================================================
def fig02_clover_metadata_cpu(scale: Optional[Scale] = None,
                              cores_sweep: Sequence[int] = (1, 2, 4, 6, 8)
                              ) -> ExperimentResult:
    """Fig. 2: Clover throughput vs metadata-server CPU cores."""
    scale = scale or Scale.bench()
    rows = []
    for cores in cores_sweep:
        bed = _make_system("clover", scale, metadata_cores=cores)
        result = _run_ycsb(bed, scale, "A")
        rows.append([cores, result.mops])
    return ExperimentResult(
        "fig02", "Clover throughput vs metadata-server CPUs (YCSB-A)",
        ["metadata_cores", "mops"], rows,
        notes="expect: rises with cores, saturates around ~6 (paper Fig. 2)")


def fig03_serialization(scale: Optional[Scale] = None,
                        clients_sweep: Optional[Sequence[int]] = None
                        ) -> ExperimentResult:
    """Fig. 3: consensus (Derecho-like) and lock replication don't scale."""
    scale = scale or Scale.bench()
    clients_sweep = clients_sweep or scale.clients_sweep
    rows = []
    for n_clients in clients_sweep:
        row = [n_clients]
        for system in ("consensus", "lock", "snapshot"):
            bed = ReplicatedObjectBed(replicas=2)
            if system == "consensus":
                obj = ConsensusReplicatedObject(bed)

                def execute(client, op, key, value, _obj=obj):
                    return (yield from _obj.write(value))
            elif system == "lock":
                obj = LockReplicatedObject(bed)

                def execute(client, op, key, value, _obj=obj):
                    return (yield from _obj.write(value, owner=client))
            else:
                obj = SnapshotReplicatedObject(bed)

                def execute(client, op, key, value, _obj=obj):
                    return (yield from _obj.write(value))

            class _Seq:
                def __init__(self, base):
                    self.serial = base

                def next_op(self):
                    self.serial += 1
                    return ("write", b"", self.serial)

            result = run_closed_loop(
                bed.env, list(range(1, n_clients + 1)),
                lambda i: _Seq((i + 1) << 32), execute,
                duration_us=scale.duration_us, warmup_us=scale.warmup_us)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig03", "Replicated-object write throughput vs clients",
        ["clients", "consensus_mops", "lock_mops", "snapshot_mops"], rows,
        notes="expect: consensus and lock flat/low (paper Fig. 3); "
              "snapshot scales")


# ======================================================================
# §6.2 microbenchmarks
# ======================================================================
_LAT_SYSTEMS = ("fusee", "clover", "pdpm-direct")


def _micro_ops(op: str, scale: Scale, loaded_keys: List[bytes]):
    """A deterministic op sequence for the latency study."""
    ops = []
    value = make_value(scale.kv_size - 24, salt=7)
    n = scale.latency_ops
    if op == "insert":
        ops = [("insert", f"lat-{i:08d}".encode(), value) for i in range(n)]
    elif op == "update":
        ops = [("update", loaded_keys[i % len(loaded_keys)], value)
               for i in range(n)]
    elif op == "search":
        ops = [("search", loaded_keys[i % len(loaded_keys)], None)
               for i in range(n)]
    elif op == "delete":
        # delete each key once; the sequence re-inserts to keep going
        ops = []
        for i in range(n):
            key = loaded_keys[i % len(loaded_keys)]
            ops.append(("delete", key, None))
            ops.append(("insert", key, value))
    return ops


def fig10_latency_cdf(scale: Optional[Scale] = None) -> ExperimentResult:
    """Fig. 10: per-op latency percentiles, single client (10k ops in the
    paper; ``scale.latency_ops`` here)."""
    scale = scale or Scale.bench()
    dataset = _dataset(scale)
    keys = [k for k, _v in dataset]
    rows = []
    for system in _LAT_SYSTEMS:
        bed = _make_system(system, scale)
        client = bed.new_client()
        for op in ("insert", "update", "search", "delete"):
            if system == "clover" and op == "delete":
                continue
            ops = _micro_ops(op, scale, keys)
            latencies = run_latency(bed.env, client, bed.execute, ops)
            if op == "delete":
                latencies = latencies[0::2]  # deletes only, not re-inserts
            points = cdf_points(latencies, (50, 90, 99))
            rows.append([system, op, points[50], points[90], points[99]])
    return ExperimentResult(
        "fig10", "Request latency percentiles (us), single client",
        ["system", "op", "p50_us", "p90_us", "p99_us"], rows,
        notes="expect: FUSEE best INSERT/UPDATE; Clover best SEARCH; "
              "pDPM best DELETE (paper Fig. 10)")


def fig11_micro_throughput(scale: Optional[Scale] = None) -> ExperimentResult:
    """Fig. 11: per-op-type throughput with many clients."""
    scale = scale or Scale.bench()
    rows = []
    for op in ("insert", "update", "search", "delete"):
        row = [op]
        for system in _LAT_SYSTEMS:
            if system == "clover" and op == "delete":
                row.append(None)
                continue
            bed = _make_system(system, scale)
            clients = [bed.new_client() for _ in range(scale.n_clients)]
            config = MicroConfig(op=op, n_keys=scale.n_keys,
                                 kv_size=scale.kv_size, use_ycsb_keys=True)

            def factory(index):
                return MicroWorkload(config, client_id=index,
                                     seed=scale.seed)

            result = run_closed_loop(bed.env, clients, factory, bed.execute,
                                     duration_us=scale.duration_us,
                                     warmup_us=scale.warmup_us)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig11", "Microbenchmark throughput (Mops)",
        ["op", "fusee", "clover", "pdpm_direct"], rows,
        notes="micro keys reuse the loaded 'user...' keyspace; "
              "expect FUSEE highest on writes, pDPM lowest (paper Fig. 11)")


# ======================================================================
# §6.3 YCSB
# ======================================================================
def fig12_kv_sizes(scale: Optional[Scale] = None,
                   sizes: Sequence[int] = (256, 512, 1024)
                   ) -> ExperimentResult:
    """Fig. 12: FUSEE throughput under different KV sizes."""
    scale = scale or Scale.bench()
    # The KV-size effect is a bandwidth-saturation effect (the paper ran
    # 128 clients); make sure the MN RNICs are actually the bottleneck.
    n_clients = max(scale.n_clients, 48)
    rows = []
    for kv_size in sizes:
        row = [kv_size]
        for workload in ("A", "C"):
            sub = replace(scale, kv_size=kv_size)
            bed = _make_system("fusee", sub)
            result = _run_ycsb(bed, sub, workload, n_clients=n_clients)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig12", "FUSEE throughput vs KV size",
        ["kv_bytes", "ycsb_a_mops", "ycsb_c_mops"], rows,
        notes="expect YCSB-C +~44%/+~56% at 512B/256B vs 1KB "
              "(MN RNIC bandwidth bound, paper Fig. 12)")


def fig13_ycsb_scalability(scale: Optional[Scale] = None,
                           workloads: Sequence[str] = ("A", "B", "C", "D"),
                           systems: Sequence[str] = ("fusee", "clover",
                                                     "pdpm-direct"),
                           n_memory_nodes: int = 2,
                           nic_ports: int = 1,
                           rpc_shards: int = 1) -> ExperimentResult:
    """Fig. 13: throughput vs number of clients, per workload.

    ``nic_ports`` / ``rpc_shards`` (FUSEE only) run the sweep on
    multi-queue memory nodes — with ``Scale.production()`` this is the
    scaled bed that shows where the plateau lands once the single-queue
    tx-NIC wall is lifted.
    """
    scale = scale or Scale.bench()
    fusee_kw = {"nic_ports": nic_ports, "rpc_shards": rpc_shards,
                "max_clients": max(256, max(scale.clients_sweep) + 8)}
    rows = []
    for workload in workloads:
        for n_clients in scale.clients_sweep:
            row = [workload, n_clients]
            for system in systems:
                bed = _make_system(system, scale,
                                   n_memory_nodes=n_memory_nodes,
                                   **(fusee_kw if system == "fusee"
                                      else {}))
                result = _run_ycsb(bed, scale, workload,
                                   n_clients=n_clients)
                row.append(result.mops)
            rows.append(row)
    return ExperimentResult(
        "fig13", "YCSB throughput vs clients",
        ["workload", "clients"] + [s.replace("-", "_") for s in systems],
        rows,
        notes="expect: FUSEE scales; Clover flat (metadata CPU); pDPM "
              "collapses on writes (paper: 4.9x and 117x at 128 clients)")


def fig14_memory_nodes(scale: Optional[Scale] = None,
                       mns_sweep: Optional[Sequence[int]] = None,
                       nic_ports: int = 1,
                       rpc_shards: int = 1) -> ExperimentResult:
    """Fig. 14: throughput vs number of memory nodes (fixed clients).

    The MN sweep comes from ``scale.mns_sweep`` unless overridden —
    ``Scale.production()`` sweeps 2-16 MNs; ``nic_ports`` /
    ``rpc_shards`` (FUSEE only) put multi-queue nodes under the sweep.
    """
    scale = scale or Scale.bench()
    mns_sweep = mns_sweep or scale.mns_sweep
    fusee_kw = {"nic_ports": nic_ports, "rpc_shards": rpc_shards,
                "max_clients": max(256, scale.n_clients + 8)}
    rows = []
    for workload in ("A", "C"):
        for n_mns in mns_sweep:
            row = [workload, n_mns]
            for system in ("fusee", "clover", "pdpm-direct"):
                bed = _make_system(system, scale, n_memory_nodes=n_mns,
                                   **(fusee_kw if system == "fusee"
                                      else {}))
                result = _run_ycsb(bed, scale, workload)
                row.append(result.mops)
            rows.append(row)
    return ExperimentResult(
        "fig14", "YCSB throughput vs memory nodes",
        ["workload", "memory_nodes", "fusee", "clover", "pdpm_direct"],
        rows,
        notes="expect FUSEE improves 2->3 then plateaus (CN-bound); "
              "baselines flat (paper Fig. 14)")


def fig15_rw_ratio(scale: Optional[Scale] = None,
                   ratios: Sequence[Tuple[int, int]] = (
                       (100, 0), (95, 5), (50, 50), (5, 95), (0, 100))
                   ) -> ExperimentResult:
    """Fig. 15: throughput vs SEARCH:UPDATE ratio."""
    scale = scale or Scale.bench()
    rows = []
    for search_pct, update_pct in ratios:
        mix = (search_pct / 100.0, update_pct / 100.0, 0.0)
        row = [f"{search_pct}:{update_pct}"]
        for system in ("fusee", "clover", "pdpm-direct"):
            bed = _make_system(system, scale)
            result = _run_ycsb(bed, scale, "A", mix=mix)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig15", "Throughput vs SEARCH:UPDATE ratio",
        ["search:update", "fusee", "clover", "pdpm_direct"], rows,
        notes="expect all decline with more updates, FUSEE best throughout "
              "(paper Fig. 15)")


def fig16_cache_threshold(scale: Optional[Scale] = None,
                          thresholds: Sequence[float] = (0.0, 0.2, 0.5,
                                                         1.0, 2.0, 8.0)
                          ) -> ExperimentResult:
    """Fig. 16: FUSEE YCSB-A throughput vs adaptive-cache threshold."""
    scale = scale or Scale.bench()
    rows = []
    for threshold in thresholds:
        bed = _make_system("fusee", scale, cache_threshold=threshold)
        result = _run_ycsb(bed, scale, "A")
        rows.append([threshold, result.mops])
    return ExperimentResult(
        "fig16", "FUSEE YCSB-A throughput vs cache threshold",
        ["threshold", "mops"], rows,
        notes="expect throughput decreases as the threshold grows "
              "(more bandwidth wasted on invalid pairs, paper Fig. 16)")


def fig17_allocation(scale: Optional[Scale] = None) -> ExperimentResult:
    """Fig. 17: two-level vs MN-centric memory allocation."""
    scale = scale or Scale.bench()
    rows = []
    for workload in ("A", "C"):
        row = [workload]
        for mn_centric in (False, True):
            bed = _make_system("fusee", scale, load=False)
            if mn_centric:
                base = bed.cluster.config.client
                bed.cluster.config = replace(
                    bed.cluster.config,
                    client=replace(base, mn_centric_alloc=True))
            bed.load(_dataset(scale))
            result = _run_ycsb(bed, scale, workload)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig17", "Two-level vs MN-centric allocation",
        ["workload", "two_level_mops", "mn_centric_mops"], rows,
        notes="expect YCSB-A drops ~90% with MN-centric; YCSB-C unchanged "
              "(paper Fig. 17)")


# ======================================================================
# §6.4 fault tolerance & elasticity
# ======================================================================
def fig18_replication_throughput(scale: Optional[Scale] = None,
                                 factors: Sequence[int] = (1, 2, 3),
                                 workloads: Sequence[str] = ("A", "B",
                                                             "C", "D"),
                                 replication: Optional[str] = None
                                 ) -> ExperimentResult:
    """Fig. 18: FUSEE YCSB throughput vs replication factor.

    ``replication`` selects the slot replication strategy ("snapshot"
    default; "sequential" and "swarm" turn this into the shoot-out bed).
    """
    scale = scale or Scale.bench()
    rows = []
    for r in factors:
        row = [r]
        for workload in workloads:
            bed = _make_system("fusee", scale, n_memory_nodes=max(3, r),
                               replication_factor=r, index_replication=r,
                               replication=replication)
            result = _run_ycsb(bed, scale, workload)
            row.append(result.mops)
        rows.append(row)
    return ExperimentResult(
        "fig18", "FUSEE YCSB throughput vs replication factor"
        + (f" [{replication}]" if replication else ""),
        ["r"] + [f"ycsb_{w.lower()}_mops" for w in workloads], rows,
        notes="expect A/B drop with r, D slightly, C flat (paper Fig. 18)")


def fig19_replication_latency(scale: Optional[Scale] = None,
                              factors: Sequence[int] = (1, 2, 3, 4),
                              variants: Sequence[str] = ("fusee",
                                                         "fusee-nc",
                                                         "fusee-cr",
                                                         "fusee-swarm")
                              ) -> ExperimentResult:
    """Fig. 19: median op latency vs replication factor, per variant.

    Beyond the paper's three variants this adds "fusee-swarm" — the
    1-RTT in-place replication strategy — making this the replication
    shoot-out bed: SWARM's UPDATE latency should stay flat in ``r`` and
    beat SNAPSHOT's in the low-conflict single-client regime."""
    scale = scale or Scale.bench()
    keys = [k for k, _v in _dataset(scale)]
    rows = []
    for variant in variants:
        for r in factors:
            bed = _make_system("fusee", scale, n_memory_nodes=max(4, r),
                               replication_factor=r, index_replication=r,
                               variant=variant)
            client = bed.new_client()
            row = [variant, r]
            for op in ("insert", "update", "search", "delete"):
                ops = _micro_ops(op, scale, keys)
                latencies = run_latency(bed.env, client, bed.execute, ops)
                if op == "delete":
                    latencies = latencies[0::2]
                row.append(percentile(latencies, 50))
            rows.append(row)
    return ExperimentResult(
        "fig19", "Median latency (us) vs replication factor",
        ["variant", "r", "insert_us", "update_us", "search_us",
         "delete_us"], rows,
        notes="expect FUSEE-CR write latency grows linearly with r; "
              "FUSEE nearly flat (paper Fig. 19)")


def fig20_mn_crash(scale: Optional[Scale] = None,
                   n_buckets: int = 9) -> ExperimentResult:
    """Fig. 20: YCSB-C throughput timeline; one MN crashes mid-run."""
    scale = scale or Scale.bench()
    bed = _make_system("fusee", scale, index_replication=2)
    bucket_us = scale.duration_us / 2.0
    duration = bucket_us * n_buckets
    crash_at = bucket_us * 5

    def crash():
        bed.cluster.crash_memory_node(1)

    clients = [bed.new_client() for _ in range(scale.n_clients)]
    result = run_closed_loop(
        bed.env, clients, _ycsb_factory(scale, "C"), bed.execute,
        duration_us=duration, warmup_us=0.0,
        timeline_bucket_us=bucket_us, events=[(crash_at, crash)])
    rows = [[i, t, mops] for i, (t, mops) in enumerate(result.timeline)]
    return ExperimentResult(
        "fig20", "YCSB-C throughput with an MN crash at bucket 5",
        ["bucket", "t_us", "mops"], rows,
        notes="expect throughput halves after the crash (single RNIC "
              "serves all reads, paper Fig. 20)")


def fig21_elasticity(scale: Optional[Scale] = None,
                     n_buckets: int = 9,
                     saturate: bool = False,
                     scenario: str = "hot-key-storm",
                     seed: int = 0) -> ExperimentResult:
    """Fig. 21: elasticity under load.

    Default mode reproduces the paper's shape: add clients mid-run,
    remove them later (YCSB-C).  ``saturate=True`` is the production
    variant (ISSUE 10): drive the bed with a *saturating* scenario
    workload (closed-loop over a scenario stream, so the hot-set churn
    is realistic but the offered load is unbounded) and **grow the MN
    pool at bucket 3** through the timed :meth:`grow_pool` rebalance.
    The PR-4 profiler attributes where rebalance time goes — the
    snapshot read-only window vs. the copy — into
    ``result.extras["rebalance"]``.
    """
    scale = scale or Scale.bench()
    if saturate:
        return _fig21_saturating(scale, n_buckets, scenario, seed)
    bed = _make_system("fusee", scale)
    base = max(4, scale.n_clients // 2)
    extra = base
    bucket_us = scale.duration_us / 2.0
    duration = bucket_us * n_buckets
    retired = set()

    def execute(client, op, key, value):
        if id(client) in retired:
            raise StopLoop()
        return (yield from bed.execute(client, op, key, value))

    extra_clients = []

    def add_clients():
        new = []
        for i in range(extra):
            client = bed.new_client()
            extra_clients.append(client)
            new.append((client,
                        _ycsb_factory(scale, "C")(1000 + i)))
        return new

    def remove_clients():
        for client in extra_clients:
            retired.add(id(client))

    clients = [bed.new_client() for _ in range(base)]
    result = run_closed_loop(
        bed.env, clients, _ycsb_factory(scale, "C"), execute,
        duration_us=duration, warmup_us=0.0,
        timeline_bucket_us=bucket_us,
        events=[(bucket_us * 3, add_clients),
                (bucket_us * 6, remove_clients)])
    rows = [[i, t, mops] for i, (t, mops) in enumerate(result.timeline)]
    return ExperimentResult(
        "fig21", "Elasticity: clients added at bucket 3, removed at 6",
        ["bucket", "t_us", "mops"], rows,
        notes="expect throughput steps up then returns (paper Fig. 21)")


def _scenario_bed(scn, scale: Scale) -> SystemBed:
    """A FUSEE bed sized for, and loaded with, a scenario's key spaces."""
    dataset = scn.preload_items()
    bed = fusee_bed(dataset_bytes=max(1 << 22,
                                      len(dataset) * scale.kv_size * 4))
    bed.load(dataset)
    return bed


def _fig21_saturating(scale: Scale, n_buckets: int, scenario: str,
                      seed: int) -> ExperimentResult:
    """fig21 saturating-load mode: grow the pool under saturation and
    attribute rebalance time with the profiler."""
    bucket_us = scale.duration_us / 2.0
    duration = bucket_us * n_buckets
    n_clients = max(4, scale.n_clients // 2)
    scn = get_scenario(scenario, duration_us=duration,
                       keys_per_tenant=max(64, scale.n_keys // 4),
                       n_clients=n_clients, seed=seed)
    bed = _scenario_bed(scn, scale)
    grown: Dict[str, int] = {}

    def grow():
        def proc():
            # regions=2 matches the bed's growth headroom (backup
            # replicas carve on the existing nodes)
            grown["mn_id"] = yield from bed.cluster.grow_pool(regions=2)
        bed.env.process(proc(), name="grow-pool")

    observed = observed_run(bed, n_clients, scn.saturating_workload,
                            duration, profile=True,
                            timeline_bucket_us=bucket_us,
                            events=[(bucket_us * 3, grow)])
    result, profile = observed.run, observed.profile
    window = profile.ops.get("rebalance.snapshot_window",
                             {"total_us": 0.0})["total_us"]
    copy = profile.ops.get("rebalance.copy", {"total_us": 0.0})["total_us"]
    total = profile.ops.get("rebalance.grow", {"total_us": 0.0})["total_us"]
    rebalance = {
        "scenario": scn.name,
        "seed": seed,
        "new_mn_id": grown.get("mn_id"),
        "snapshot_window_us": window,
        "copy_us": copy,
        "total_us": total,
        "window_share": (window / total) if total else 0.0,
        "copy_share": (copy / total) if total else 0.0,
    }
    rows = [[i, t, mops] for i, (t, mops) in enumerate(result.timeline)]
    return ExperimentResult(
        "fig21", f"Elasticity under saturation ({scn.name}): MN pool "
                 "grows at bucket 3",
        ["bucket", "t_us", "mops"], rows,
        notes=f"rebalance attribution: snapshot read-only window "
              f"{window:.1f} us ({rebalance['window_share']:.0%}), "
              f"copy {copy:.1f} us ({rebalance['copy_share']:.0%}) "
              f"of {total:.1f} us total; new MN "
              f"{grown.get('mn_id')}",
        extras={"rebalance": rebalance})


def scenario_suite(scale: Optional[Scale] = None,
                   scenarios: Optional[Sequence[str]] = None,
                   seed: int = 0) -> ExperimentResult:
    """Paced (open-loop) runs of the shipped scenario catalog.

    One clean-fabric FUSEE bed per scenario, driven at the scenario's
    scheduled arrival times by :func:`run_open_loop`; reports achieved
    vs offered ops and the per-tenant isolation shares
    (``extras["tenants"]``).  The *verdicts* for these scenarios —
    fault-campaign soundness and linearizability — live in the test
    suite (``tests/test_scenarios.py``); this experiment is the
    throughput/latency readout.
    """
    scale = scale or Scale.bench()
    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    rows: List[List] = []
    extras: Dict[str, object] = {"tenants": {}}
    for name in names:
        scn = get_scenario(name, duration_us=scale.duration_us * 4,
                           keys_per_tenant=max(64, scale.n_keys // 8),
                           n_clients=min(scale.n_clients, 8), seed=seed)
        observed = observed_run(_scenario_bed(scn, scale), scn.n_clients,
                                scn.client_stream, scn.duration_us,
                                paced=True, metrics=True)
        result, metrics = observed.run, observed.metrics
        offered = scn.schedule.integral(0.0, scn.duration_us)
        p99 = max((metrics.histogram(f"tenant.{t.name}.latency_us")
                   .percentile(99.0) for t in scn.tenants), default=0.0)
        rows.append([name, scn.family, round(offered, 1), result.ops,
                     result.errors, round(p99, 2)])
        extras["tenants"][name] = tenant_report(metrics, scn)
    return ExperimentResult(
        "scenarios", "Production scenario suite (paced open-loop)",
        ["scenario", "family", "offered_ops", "done_ops", "errors",
         "worst_tenant_p99_us"], rows,
        notes="per-tenant isolation shares in extras['tenants']; "
              "verdicts (faults + linearizability) in "
              "tests/test_scenarios.py",
        extras=extras)


def table1_recovery(scale: Optional[Scale] = None,
                    n_updates: int = 1000) -> ExperimentResult:
    """Table 1: client recovery time breakdown after N updates."""
    scale = scale or Scale.bench()
    bed = fusee_bed(n_memory_nodes=3, replication_factor=2,
                    index_replication=2,
                    dataset_bytes=max(1 << 20, n_updates * scale.kv_size))
    cluster = bed.cluster
    client = cluster.new_client()
    key = b"recovery-key"
    value = make_value(scale.kv_size - 24, salt=1)
    cluster.run_op(client.insert(key, value))
    for i in range(n_updates - 1):
        cluster.run_op(client.update(key, make_value(
            scale.kv_size - 24, salt=i + 2)))
    client.arm_crash(CrashPoint.C1)
    try:
        cluster.run_op(client.update(key, value))
    except ClientCrashed:
        pass

    def proc():
        return (yield from cluster.master.recover_client(client.cid))

    report, _state = cluster.run_op(proc())
    rows = [[step, ms, pct] for step, ms, pct in report.rows()]
    return ExperimentResult(
        "table1", f"Client recovery breakdown ({n_updates} UPDATEs)",
        ["step", "time_ms", "percentage"], rows,
        notes=f"objects visited: {report.objects_visited}; expect "
              "connection+MR ~92%, log traversal ~2% (paper Table 1)")


# ======================================================================
# Extra ablation: embedded vs separate operation log
# ======================================================================
def ablation_oplog(scale: Optional[Scale] = None) -> ExperimentResult:
    """DESIGN.md ablation: what the embedded log saves on the write path."""
    scale = scale or Scale.bench()
    dataset = _dataset(scale)
    keys = [k for k, _v in dataset]
    rows = []
    for embedded in (True, False):
        bed = _make_system("fusee", scale, load=False)
        base = bed.cluster.config.client
        bed.cluster.config = replace(
            bed.cluster.config, client=replace(base, embedded_log=embedded))
        bed.load(dataset)
        client = bed.new_client()
        ops = _micro_ops("update", scale, keys)
        latencies = run_latency(bed.env, client, bed.execute, ops)
        result = _run_ycsb(bed, scale, "A", n_clients=scale.n_clients)
        rows.append(["embedded" if embedded else "separate",
                     percentile(latencies, 50), result.mops])
    return ExperimentResult(
        "ablation_oplog", "Embedded vs separate operation log",
        ["log_scheme", "update_p50_us", "ycsb_a_mops"], rows,
        notes="the separate log adds one RTT per write (§4.5)")


def ablation_expansion(scale: Optional[Scale] = None) -> ExperimentResult:
    """Extension artefact: extendible index expansion under insert load.

    Builds FUSEE with a deliberately tiny index directory and keeps
    inserting far past its initial capacity; the master splits overloaded
    subtables on demand (RACE extendible resize).  Reports insert
    throughput per fill phase plus the directory growth.
    """
    scale = scale or Scale.bench()
    from ..core.race import RaceConfig as _RC
    bed = _make_system("fusee", scale, load=False,
                       race=_RC(n_subtables=2, n_groups=8,
                                slots_per_bucket=7))
    cluster = bed.cluster
    initial_capacity = (2 * cluster.race.config.slots_per_subtable)
    target = initial_capacity * 3
    client = cluster.new_client()
    rows = []
    inserted = 0
    phase = 0
    env = bed.env
    while inserted < target:
        phase += 1
        goal = min(target, inserted + initial_capacity)
        start_us, start_n = env.now, inserted

        def filler():
            nonlocal inserted
            while inserted < goal:
                result = yield from client.insert(
                    f"grow-{inserted:08d}".encode(),
                    make_value(scale.kv_size - 24, salt=inserted))
                if result.ok:
                    inserted += 1

        env.run(until=env.process(filler()))
        elapsed = env.now - start_us
        rows.append([phase, inserted,
                     (inserted - start_n) / max(1e-9, elapsed),
                     len(cluster.race.physical_tables()),
                     cluster.master.splits_performed])
    cluster.race.check_directory_invariants()
    return ExperimentResult(
        "ablation_expansion",
        "Insert throughput while the index grows (extendible splits)",
        ["phase", "keys_inserted", "insert_mops", "physical_subtables",
         "splits"],
        rows,
        notes="extension beyond the paper: splits are master-coordinated "
              "stop-the-world per subtable, so insert throughput dips "
              "while the directory doubles and recovers afterwards")


def resource_efficiency(scale: Optional[Scale] = None) -> ExperimentResult:
    """The paper's §1/§6 resource-consumption claim, quantified.

    Runs YCSB-A on all three systems and reports, besides throughput, the
    *compute* each one consumed: Clover's metadata-server core-seconds
    (the resource FUSEE's disaggregated metadata eliminates), the weak
    MN-core time each system used, and the derived efficiency metric
    kilo-ops per CPU-core-second of server-side compute.
    """
    scale = scale or Scale.bench()
    rows = []
    for system in ("fusee", "clover", "pdpm-direct"):
        bed = _make_system(system, scale)
        start_us = bed.env.now
        result = _run_ycsb(bed, scale, "A")
        elapsed = bed.env.now - start_us
        if system == "clover":
            server_busy = bed.cluster.metadata.stats.busy_us
            server_cores = bed.cluster.metadata.cpu.capacity
        else:
            server_busy = 0.0
            server_cores = 0
        mn_busy = 0.0
        if system == "fusee":
            # MN CPU time spent serving coarse-grained ALLOC RPCs — the
            # only server-side compute FUSEE uses (2 us per RPC).
            mn_busy = bed.cluster.fabric.stats.rpcs * 2.0
        total_ops = result.ops
        server_core_seconds = server_busy / 1e6
        ops_per_core_s = (total_ops / server_core_seconds / 1e3
                          if server_core_seconds > 0 else float("inf"))
        rows.append([system, result.mops, server_cores,
                     round(server_busy / 1000.0, 3),
                     round(mn_busy / 1000.0, 3),
                     "inf" if ops_per_core_s == float("inf")
                     else round(ops_per_core_s, 1)])
    return ExperimentResult(
        "resource_efficiency",
        "Server-side compute consumed per system (YCSB-A)",
        ["system", "mops", "dedicated_server_cores",
         "server_cpu_busy_ms", "mn_cpu_busy_ms", "kops_per_core_s"],
        rows,
        notes="FUSEE dedicates zero metadata-server cores; its only "
              "server-side compute is coarse-grained ALLOC RPCs on the "
              "weak MN cores (paper §1: 'less resource consumption')")


ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig02": fig02_clover_metadata_cpu,
    "fig03": fig03_serialization,
    "fig10": fig10_latency_cdf,
    "fig11": fig11_micro_throughput,
    "fig12": fig12_kv_sizes,
    "fig13": fig13_ycsb_scalability,
    "fig14": fig14_memory_nodes,
    "fig15": fig15_rw_ratio,
    "fig16": fig16_cache_threshold,
    "fig17": fig17_allocation,
    "fig18": fig18_replication_throughput,
    "fig19": fig19_replication_latency,
    "fig20": fig20_mn_crash,
    "fig21": fig21_elasticity,
    "scenarios": scenario_suite,
    "table1": table1_recovery,
    "ablation_oplog": ablation_oplog,
    "ablation_expansion": ablation_expansion,
    "resource_efficiency": resource_efficiency,
}
