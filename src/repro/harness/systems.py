"""System beds: uniform construction + execution adapters for FUSEE, its
variants (FUSEE-CR, FUSEE-NC), Clover, and pDPM-Direct.

Every bed exposes::

    bed.env          # the simulation environment
    bed.new_client() # -> a client object
    bed.execute      # (client, op, key, value) generator -> bool
    bed.load(items)  # bulk-load the dataset

so the closed-loop runner and the experiment functions can treat all
systems identically.  :class:`Scale` and the helpers that size, pick and
load a bed from one (``_make_system``, ``_dataset``, ``_ycsb_factory``)
live here too, beside the builders they feed, so both the experiments and
the profiling recipe can use them without importing each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from ..baselines.clover import CloverCluster, CloverConfig
from ..baselines.pdpm import PdpmCluster, PdpmConfig
from ..core.addressing import RegionConfig
from ..core.client import ClientConfig
from ..core.kvstore import ClusterConfig, FuseeCluster
from ..core.race import RaceConfig
from ..rdma.fabric import FabricConfig
from ..workloads.ycsb import YcsbConfig, YcsbWorkload, key_bytes, make_value
from .loader import clover_load, fusee_load, pdpm_load

__all__ = ["Scale", "SystemBed", "fusee_bed", "clover_bed", "pdpm_bed"]


@dataclass
class SystemBed:
    name: str
    env: object
    cluster: object
    new_client: Callable[[], object]
    execute: Callable
    load: Callable[[Iterable[Tuple[bytes, bytes]]], int]


@dataclass(frozen=True)
class Scale:
    """Knobs shrinking experiments below the paper's testbed size."""

    n_keys: int = 2_000
    kv_size: int = 1024
    n_clients: int = 32
    clients_sweep: Tuple[int, ...] = (4, 8, 16, 32)
    mns_sweep: Tuple[int, ...] = (2, 3, 4, 5)
    duration_us: float = 2_000.0
    warmup_us: float = 400.0
    latency_ops: int = 300
    seed: int = 42

    @classmethod
    def bench(cls) -> "Scale":
        return cls()

    @classmethod
    def tiny(cls) -> "Scale":
        return cls(n_keys=400, n_clients=8, clients_sweep=(2, 4, 8),
                   duration_us=800.0, warmup_us=200.0, latency_ops=60)

    @classmethod
    def full(cls) -> "Scale":
        return cls(n_keys=10_000, n_clients=128,
                   clients_sweep=(8, 16, 32, 64, 128),
                   duration_us=4_000.0, warmup_us=800.0, latency_ops=2_000)

    @classmethod
    def production(cls) -> "Scale":
        """Hundreds-to-a-thousand clients and 8-16 MNs: the scaling bed.

        Sized to show where the plateau moves once ``nic_ports`` /
        ``rpc_shards`` lift the single-queue tx-NIC wall (ISSUE 6); pair
        it with ``fig13_ycsb_scalability(..., nic_ports=4,
        rpc_shards=2)`` or the ``--nic-ports`` CLI flags.  The sweep
        reaches 1024 clients, which the kernel fast path (ISSUE 7)
        makes affordable — the beds assert the fast drain loop via
        ``run_closed_loop(fast=True)``.  Minutes of wall-clock.
        """
        return cls(n_keys=10_000, n_clients=256,
                   clients_sweep=(32, 64, 128, 256, 384, 512, 768, 1024),
                   mns_sweep=(2, 4, 8, 12, 16),
                   duration_us=3_000.0, warmup_us=600.0, latency_ops=2_000)


# ---------------------------------------------------------------- FUSEE
def _fusee_execute(client, op, key, value):
    if op == "search":
        result = yield from client.search(key)
        return result.ok
    if op == "update":
        result = yield from client.update(key, value)
        return result.ok
    if op == "insert":
        result = yield from client.insert(key, value)
        return result.ok
    if op == "delete":
        result = yield from client.delete(key)
        return result.ok
    raise ValueError(f"unknown op {op!r}")


def fusee_bed(n_memory_nodes: int = 2,
              replication_factor: int = 2,
              index_replication: Optional[int] = 1,
              dataset_bytes: int = 32 << 20,
              variant: str = "fusee",
              cache_threshold: float = 0.5,
              background_interval_us: float = 1000.0,
              race: Optional[RaceConfig] = None,
              max_clients: int = 256,
              read_spread: str = "primary",
              max_coalesce_width: int = 1,
              nic_ports: int = 1,
              rpc_shards: int = 1,
              port_affinity: str = "qp",
              replication: Optional[str] = None,
              tracer=None) -> SystemBed:
    """A FUSEE deployment sized for a given dataset.

    ``variant``: "fusee" (default), "fusee-cr" (sequential replication),
    "fusee-nc" (no client cache) or "fusee-swarm" (SWARM-style 1-RTT
    in-place slot replication).  The paper's §6.2/6.3 comparisons use
    one index replica and two data replicas, hence the defaults.
    ``replication`` names a registered slot-replication strategy
    explicitly ("snapshot" | "sequential" | "swarm"), overriding the
    variant's default.
    ``read_spread`` ("primary" | "round_robin" | "least_loaded") spreads
    KV READs across alive replicas; ``max_coalesce_width`` > 1 enables
    doorbell verb coalescing on the fabric (adaptively: only backlogged
    ports coalesce) — both default to the paper-faithful model.
    ``nic_ports`` > 1 gives every MN that many rx/tx NIC port pairs with
    per-QP ``port_affinity`` ("qp" | "rss"), and ``rpc_shards`` > 1
    splits each MN's RPC CPU into independent shards — the multi-queue
    scaling knobs (defaults model the paper's single-queue node).
    ``tracer`` (a :class:`repro.obs.Tracer`) observes every verb batch and
    client operation of the bed.
    """
    region = RegionConfig(region_size=1 << 22, block_size=1 << 16,
                          min_object_size=64)
    # Size the pool: dataset * replication + churn/grant headroom.  Zero
    # MNs divides by one here, so ClusterConfig rejects it as it does any
    # other bad geometry.
    need = dataset_bytes * replication_factor * 3 + (64 << 20)
    regions_per_mn = max(
        4, math.ceil(need / (region.region_size * max(1, n_memory_nodes))))
    variant_modes = {"fusee-cr": "sequential", "fusee-swarm": "swarm"}
    client_cfg = ClientConfig(
        replication_mode=replication or variant_modes.get(variant,
                                                          "snapshot"),
        cache_enabled=variant != "fusee-nc",
        cache_threshold=cache_threshold,
        read_spread=read_spread)
    config = ClusterConfig(
        n_memory_nodes=n_memory_nodes,
        replication_factor=replication_factor,
        index_replication=index_replication,
        regions_per_mn=regions_per_mn,
        max_clients=max_clients,
        region=region,
        race=race or RaceConfig(n_subtables=32, n_groups=256,
                                slots_per_bucket=7),
        fabric=FabricConfig(max_coalesce_width=max_coalesce_width,
                            port_affinity=port_affinity),
        client=client_cfg,
        nic_ports=nic_ports,
        rpc_shards=rpc_shards,
    )
    cluster = FuseeCluster(config, tracer=tracer)
    loader_client = cluster.new_client()

    def new_client():
        client = cluster.new_client()
        if background_interval_us:
            client.start_background(background_interval_us)
        return client

    def load(items):
        return fusee_load(cluster, loader_client, items)

    return SystemBed(name=variant, env=cluster.env, cluster=cluster,
                     new_client=new_client, execute=_fusee_execute,
                     load=load)


# ---------------------------------------------------------------- Clover
def _clover_execute(client, op, key, value):
    if op == "search":
        result = yield from client.search(key)
        return result is not None
    if op == "update":
        return (yield from client.update(key, value))
    if op == "insert":
        return (yield from client.insert(key, value))
    raise ValueError(f"Clover does not support {op!r}")


def clover_bed(n_memory_nodes: int = 2,
               metadata_cores: int = 8,
               data_replicas: int = 2,
               dataset_bytes: int = 32 << 20) -> SystemBed:
    config = CloverConfig(
        n_memory_nodes=n_memory_nodes,
        data_replicas=min(data_replicas, n_memory_nodes),
        metadata_cores=metadata_cores,
        mn_capacity=max(1 << 28,
                        dataset_bytes * data_replicas * 8 // n_memory_nodes))
    cluster = CloverCluster(config)
    return SystemBed(name="clover", env=cluster.env, cluster=cluster,
                     new_client=cluster.new_client,
                     execute=_clover_execute,
                     load=lambda items: clover_load(cluster, items))


# ---------------------------------------------------------------- pDPM
def _pdpm_execute(client, op, key, value):
    if op == "search":
        result = yield from client.search(key)
        return result is not None
    if op == "update":
        return (yield from client.update(key, value))
    if op == "insert":
        return (yield from client.insert(key, value))
    if op == "delete":
        return (yield from client.delete(key))
    raise ValueError(f"unknown op {op!r}")


def pdpm_bed(n_memory_nodes: int = 2,
             data_replicas: int = 2,
             dataset_bytes: int = 32 << 20,
             n_keys_hint: int = 200_000) -> SystemBed:
    config = PdpmConfig(
        n_memory_nodes=n_memory_nodes,
        data_replicas=min(data_replicas, n_memory_nodes),
        n_buckets=max(4096, n_keys_hint // 4),
        record_area=max(1 << 25, dataset_bytes * 4),
    )
    cluster = PdpmCluster(config)
    return SystemBed(name="pdpm-direct", env=cluster.env, cluster=cluster,
                     new_client=cluster.new_client,
                     execute=_pdpm_execute,
                     load=lambda items: pdpm_load(cluster, items))


# ------------------------------------------------- a bed from a Scale
def _dataset(scale: Scale):
    return [(key_bytes(i), make_value(scale.kv_size - 24, salt=i))
            for i in range(scale.n_keys)]


def _ycsb_factory(scale: Scale, workload: str,
                  mix: Optional[Tuple[float, float, float]] = None,
                  kv_size: Optional[int] = None):
    config = YcsbConfig(workload=workload if mix is None else "A",
                        n_keys=scale.n_keys,
                        kv_size=kv_size or scale.kv_size, mix=mix)

    def factory(index: int):
        return YcsbWorkload(config, seed=scale.seed * 1_000 + index)

    return factory


def _make_system(system: str, scale: Scale, load: bool = True,
                 **kw) -> SystemBed:
    """The one bed-by-system-name dispatch: size the bed for ``scale``'s
    dataset, forward ``kw`` untouched to the system's builder (a knob the
    builder does not own is its ``TypeError``) and, unless ``load=False``,
    bulk-load the dataset.  pDPM's index is sized for 4x the key count
    unless the caller passes its own ``n_keys_hint``."""
    kw.setdefault("dataset_bytes", scale.n_keys * scale.kv_size)
    if system == "fusee":
        bed = fusee_bed(**kw)
    elif system == "clover":
        bed = clover_bed(**kw)
    elif system in ("pdpm", "pdpm-direct"):
        kw.setdefault("n_keys_hint", scale.n_keys * 4)
        bed = pdpm_bed(**kw)
    else:
        raise ValueError(f"unknown system {system!r}; pick from "
                         "fusee, clover, pdpm")
    if load:
        bed.load(_dataset(scale))
    return bed
