"""Cluster bootstrap and the public FUSEE API.

:class:`ClusterConfig` describes a whole deployment; :class:`FuseeCluster`
builds it — memory nodes, the consistent-hashing ring, replicated regions,
the replicated RACE index, the per-client metadata table, MN-side block
allocators, and the master — and hands out clients.

:class:`FuseeKV` is the synchronous façade for applications and examples:
each call drives the simulation until the operation completes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..rdma import Fabric, FabricConfig, MemoryNode
from ..sim import Environment, NicProfile
from .addressing import RegionConfig, RegionMap
from .client import ClientConfig, FuseeClient
from .master import LEASE_US, Master
from .memory import ClientTable, MnBlockAllocator, size_classes_for
from .race import RaceConfig, RaceHashing
from .ring import ConsistentHashRing

__all__ = ["ClusterConfig", "FuseeCluster", "FuseeKV"]

# Key-space offset separating index-subtable ring keys from region ring keys.
_SUBTABLE_RING_BASE = 1 << 40
# Carve headroom per node for pool growth, in regions: backup replicas of
# regions added with add_memory_node() land on existing nodes.
_GROWTH_HEADROOM_REGIONS = 2


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up a FUSEE deployment."""

    n_memory_nodes: int = 2
    replication_factor: int = 2        # data AND index replicas (r)
    index_replication: Optional[int] = None  # override index replicas only
    regions_per_mn: int = 4            # primary regions per memory node
    max_clients: int = 256
    region: RegionConfig = field(default_factory=RegionConfig)
    race: RaceConfig = field(default_factory=RaceConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    nic: NicProfile = field(default_factory=NicProfile)
    client: ClientConfig = field(default_factory=ClientConfig)
    # Multi-queue memory nodes: rx/tx NIC port pairs per MN and
    # independent RPC-serving CPU shards.  1/1 (the default) is the
    # paper-faithful single-queue node, byte-identical to older traces.
    nic_ports: int = 1
    rpc_shards: int = 1

    def __post_init__(self):
        if self.n_memory_nodes < 1:
            raise ValueError("need at least one memory node")
        if not 1 <= self.replication_factor <= self.n_memory_nodes:
            raise ValueError("replication factor must be in "
                             "[1, n_memory_nodes]")
        idx_r = self.index_replication
        if idx_r is not None and not 1 <= idx_r <= self.n_memory_nodes:
            raise ValueError("index replication must be in "
                             "[1, n_memory_nodes]")
        if self.nic_ports < 1:
            raise ValueError("nic_ports must be >= 1")
        if self.rpc_shards < 1:
            raise ValueError("rpc_shards must be >= 1")

    @property
    def index_replicas(self) -> int:
        return self.index_replication or self.replication_factor


class FuseeCluster:
    """A running deployment: memory pool + master + client factory."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 env: Optional[Environment] = None, tracer=None):
        self.config = config or ClusterConfig()
        self.env = env or Environment()
        cfg = self.config
        self.size_classes = size_classes_for(cfg.region.min_object_size,
                                             cfg.region.block_size)
        self.fabric = Fabric(self.env, cfg.fabric, tracer=tracer)
        self.ring = ConsistentHashRing(range(cfg.n_memory_nodes))
        self._build_memory_pool()
        self._build_index()
        self._build_client_table()
        self._build_allocators()
        from .replication import create_protocol
        self.master = Master(self.env, self.fabric, self.region_map,
                             self.race, self.client_table, self.size_classes,
                             replication=create_protocol(
                                 cfg.client.replication_mode))
        self.master.subtable_allocator = self._allocate_subtable
        self.master.start()
        self._cids = itertools.count(1)
        self.clients: List[FuseeClient] = []

    # ------------------------------------------------------------- bootstrap
    def _build_memory_pool(self) -> None:
        cfg = self.config
        n_regions = cfg.regions_per_mn * cfg.n_memory_nodes
        # First pass: compute placements to size each node's memory exactly.
        placements = {rid: self.ring.replicas(rid, cfg.replication_factor)
                      for rid in range(n_regions)}
        region_bytes: Dict[int, int] = {mn: 0 for mn in
                                        range(cfg.n_memory_nodes)}
        for mn_ids in placements.values():
            for mn in mn_ids:
                region_bytes[mn] += cfg.region.region_size
        index_bytes = cfg.race.subtable_bytes * cfg.race.n_subtables
        table_bytes = ClientTable.table_bytes(cfg.max_clients,
                                              len(self.size_classes))
        # headroom: room to double the index via extendible splits, plus
        # backup replicas of future pool-growth regions
        slack = ((1 << 16) + 2 * index_bytes
                 + _GROWTH_HEADROOM_REGIONS * cfg.region.region_size)
        for mn_id in range(cfg.n_memory_nodes):
            capacity = (region_bytes[mn_id] + index_bytes + table_bytes
                        + slack)
            node = MemoryNode(self.env, mn_id, capacity,
                              nic_profile=cfg.nic,
                              num_ports=cfg.nic_ports,
                              rpc_shards=cfg.rpc_shards)
            self.fabric.add_node(node)
        self.region_map = RegionMap(cfg.region, self.ring,
                                    cfg.replication_factor)
        for rid in range(n_regions):
            self.region_map.place_region(
                rid, lambda mn, nbytes: self.fabric.node(mn).carve(nbytes))

    def _build_index(self) -> None:
        cfg = self.config
        placements = {}
        for subtable in range(cfg.race.n_subtables):
            mn_ids = self.ring.replicas(_SUBTABLE_RING_BASE + subtable,
                                        cfg.index_replicas)
            placements[subtable] = [
                (mn, self.fabric.node(mn).carve(cfg.race.subtable_bytes))
                for mn in mn_ids]
        self.race = RaceHashing(cfg.race, placements)

    def _build_client_table(self) -> None:
        cfg = self.config
        nbytes = ClientTable.table_bytes(cfg.max_clients,
                                         len(self.size_classes))
        bases = {mn_id: self.fabric.node(mn_id).carve(nbytes)
                 for mn_id in range(cfg.n_memory_nodes)}
        self.client_table = ClientTable(bases, cfg.max_clients,
                                        len(self.size_classes))

    def _build_allocators(self) -> None:
        self.mn_allocators = {
            mn_id: MnBlockAllocator(self.fabric.node(mn_id), self.region_map,
                                    self.fabric)
            for mn_id in range(self.config.n_memory_nodes)}

    # ------------------------------------------------------- pool elasticity
    def add_memory_node(self, regions: Optional[int] = None) -> int:
        """Grow the memory pool at runtime (the DM elasticity promise).

        Creates a memory node, joins it to the ring, replicates the
        client table onto it, and places ``regions`` fresh regions with
        their primary there so new allocations flow to the new capacity.
        Existing data is untouched (consistent hashing moves nothing).
        Returns the new node id.
        """
        cfg = self.config
        regions = cfg.regions_per_mn if regions is None else regions
        mn_id = max(self.fabric.nodes) + 1
        index_bytes = cfg.race.subtable_bytes * cfg.race.n_subtables
        table_bytes = ClientTable.table_bytes(cfg.max_clients,
                                              len(self.size_classes))
        capacity = (regions * cfg.region.region_size
                    * cfg.replication_factor
                    + 2 * index_bytes + table_bytes + (1 << 16))
        node = MemoryNode(self.env, mn_id, capacity,
                          nic_profile=cfg.nic,
                          num_ports=cfg.nic_ports,
                          rpc_shards=cfg.rpc_shards)
        self.fabric.add_node(node)
        self.ring.add_node(mn_id)
        # replicate the client table (copy current contents from an alive MN)
        base = node.carve(table_bytes)
        for src_mn, src_base in self.client_table.bases.items():
            src_node = self.fabric.node(src_mn)
            if not src_node.crashed:
                node.memory[base:base + table_bytes] = \
                    src_node.memory[src_base:src_base + table_bytes]
                break
        self.client_table.bases[mn_id] = base
        # fresh regions: primary on the new node, backups via the ring —
        # preferring nodes with enough carve headroom left
        next_region = max(self.region_map.region_ids, default=-1) + 1

        def headroom(mn):
            other = self.fabric.node(mn)
            return other.capacity - other._carve_cursor

        for rid in range(next_region, next_region + regions):
            candidates = [mn for mn in self.ring.replicas(
                rid, len(self.fabric.nodes)) if mn != mn_id]
            candidates.sort(key=lambda mn: -headroom(mn))
            backups = [mn for mn in candidates
                       if headroom(mn) >= cfg.region.region_size
                       ][:cfg.replication_factor - 1]
            if len(backups) < cfg.replication_factor - 1:
                raise MemoryError(
                    "existing nodes lack carve headroom for backup "
                    "replicas; raise _GROWTH_HEADROOM_REGIONS")
            self.region_map.place_region(
                rid, lambda mn, nbytes: self.fabric.node(mn).carve(nbytes),
                mn_ids=[mn_id] + backups)
        self.mn_allocators[mn_id] = MnBlockAllocator(
            node, self.region_map, self.fabric)
        return mn_id

    def grow_pool(self, regions: Optional[int] = None):
        """Timed pool growth (generator): the elasticity cost model.

        :meth:`add_memory_node` is deliberately instantaneous — it
        answers *what* a grow changes.  This process answers *what it
        costs*, splitting rebalance time into its two phases and
        emitting a tracer span per phase so the profiler can attribute
        them (``fig21_elasticity --saturate``):

        * ``rebalance.snapshot_window`` — the read-only quiesce: the
          master holds writers off placement changes for one lease
          (``repro.core.master.LEASE_US``) while the region map snapshot is
          taken, exactly the barrier an index split pays.
        * ``rebalance.copy`` — streaming the client-table replica and
          the index subtable images onto the new node at the NIC's line
          rate.

        The actual metadata mutation then reuses
        :meth:`add_memory_node` unchanged.  Returns the new node id.
        """
        cfg = self.config
        n_regions = cfg.regions_per_mn if regions is None else regions
        tracer = self.fabric.tracer
        traced = tracer is not None
        parent = tracer.begin_span("rebalance.grow", -1) if traced else None

        span = (tracer.begin_span("rebalance.snapshot_window", -1)
                if traced else None)
        yield self.env.timeout(LEASE_US)
        if span is not None:
            tracer.end_span(span, ok=True)

        table_bytes = ClientTable.table_bytes(cfg.max_clients,
                                              len(self.size_classes))
        index_bytes = cfg.race.subtable_bytes * cfg.race.n_subtables
        copy_bytes = table_bytes + index_bytes
        gbps = cfg.nic.bandwidth_gbps
        copy_us = (copy_bytes * 8.0 / (gbps * 1e3)
                   if gbps not in (0, float("inf")) else 0.0)
        span = tracer.begin_span("rebalance.copy", -1) if traced else None
        if copy_us > 0.0:
            yield self.env.timeout(copy_us)
        if span is not None:
            tracer.end_span(span, ok=True)

        mn_id = self.add_memory_node(n_regions)
        if parent is not None:
            tracer.end_span(parent, ok=True)
        return mn_id

    def _allocate_subtable(self, new_id: int, n_replicas: int):
        """Carve a fresh replicated subtable for an index split."""
        mn_ids = [mn for mn in self.ring.replicas(
            _SUBTABLE_RING_BASE + new_id, min(n_replicas,
                                              len(self.fabric.alive_nodes())))
                  if not self.fabric.node(mn).crashed]
        if not mn_ids:
            mn_ids = self.fabric.alive_nodes()[:n_replicas]
        if not mn_ids:
            raise MemoryError("no alive memory node for a new subtable")
        return [(mn, self.fabric.node(mn).carve(
            self.config.race.subtable_bytes)) for mn in mn_ids]

    # ------------------------------------------------------------- clients
    def new_client(self, config: Optional[ClientConfig] = None,
                   **overrides) -> FuseeClient:
        """Create a client; keyword overrides patch the cluster default
        client config (e.g. ``cache_enabled=False`` for FUSEE-NC)."""
        base = config or self.config.client
        if overrides:
            base = replace(base, **overrides)
        cid = next(self._cids)
        # Each client posts through its own queue pair: the QP-bound
        # fabric view stamps the client's identity on every verb/RPC so
        # multi-queue port affinity can hash it onto a NIC port.
        client = FuseeClient(self.env, self.fabric.bind_qp(cid),
                             self.region_map,
                             self.race, self.client_table,
                             cid=cid,
                             size_classes=self.size_classes,
                             master=self.master, config=base)
        self.clients.append(client)
        return client

    def revive_client(self, crashed: FuseeClient, state) -> FuseeClient:
        """Restart a crashed client with recovered allocator state."""
        client = self.new_client(config=crashed.config)
        for region_id, block, class_idx in state.blocks:
            client.allocator.adopt_recovered(
                region_id, block, class_idx,
                state.free_lists.get(class_idx, []),
                state.heads.get(class_idx, 0),
                state.last_allocs.get(class_idx, 0))
        return client

    def attach_tracer(self, tracer) -> None:
        """Attach (or swap) an observability tracer on the running fabric
        (`Tracer.bind` refuses one bound to another environment)."""
        self.fabric.tracer = tracer.bind(self.env)

    def attach_monitor(self, monitor):
        """Attach an online telemetry monitor and start its pane-boundary
        evaluation process (docs/monitoring.md).  Returns the monitor.

        The monitor's one home is ``fabric.monitor``: the fabric feeds it
        service times and drops from there, and every client's KV op
        reads it there to feed hot-key tracking — traced or not, created
        before or after this call — and, traced, its ended span.
        """
        self.fabric.monitor = monitor
        monitor.start()
        return monitor

    # --------------------------------------------------------------- faults
    def install_faults(self, plan, retry=None):
        """Install a fault plan (or a prebuilt injector) on the fabric.

        ``fabric.injector`` is the injector's one home — verb/RPC
        delivery, the clients' master calls and every MN block
        allocator's mirror writes read it there — so this is the same as
        setting that attribute directly.  ``retry`` overrides the client
        retry policy.  Pass ``None`` to uninstall.  Returns the injector.
        """
        from ..faults.model import FaultInjector, FaultPlan

        if plan is None:
            injector = None
        elif isinstance(plan, FaultInjector):
            injector = plan
            if retry is not None:
                injector.retry = retry
        else:
            if not isinstance(plan, FaultPlan):
                raise TypeError(f"expected FaultPlan or FaultInjector, "
                                f"got {type(plan).__name__}")
            injector = FaultInjector(plan, retry=retry)
        self.fabric.injector = injector
        return injector

    def clear_faults(self):
        """Remove any installed fault injector (the fabric heals)."""
        self.install_faults(None)

    # -------------------------------------------------------------- helpers
    def crash_memory_node(self, mn_id: int) -> None:
        self.fabric.node(mn_id).crash()

    def run(self, until=None):
        return self.env.run(until=until)

    def run_op(self, generator, fast: bool = True):
        """Drive one client operation to completion; returns its result.

        ``fast=True`` (the default) asserts the kernel's fast drain loop
        is eligible — no controlled scheduler, profiler, or access hook
        installed — so a bed that accidentally left a hook active fails
        loudly instead of silently running an order of magnitude slower.
        Pass ``fast=False`` for checked/profiled runs where the hook is
        the point.
        """
        if fast:
            self.env.require_fast()
        return self.env.run(until=self.env.process(generator))


class FuseeKV:
    """Synchronous single-client façade over a cluster.

    The quickest way to use the store::

        kv = FuseeKV()
        kv.insert(b"k", b"v")
        assert kv.search(b"k") == b"v"
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 cluster: Optional[FuseeCluster] = None):
        self.cluster = cluster or FuseeCluster(config)
        self.client = self.cluster.new_client()

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert a new key; False if it already exists."""
        result = self._run(self.client.insert(key, value))
        return result.ok

    def search(self, key: bytes) -> Optional[bytes]:
        """Return the key's value, or None if absent."""
        result = self._run(self.client.search(key))
        return result.value if result.ok else None

    def update(self, key: bytes, value: bytes) -> bool:
        """Replace an existing key's value; False if the key is absent."""
        result = self._run(self.client.update(key, value))
        return result.ok

    def delete(self, key: bytes) -> bool:
        """Remove a key; False if it was absent."""
        result = self._run(self.client.delete(key))
        return result.ok

    def maintenance(self) -> int:
        """Run one background free/reclaim cycle; returns objects reclaimed."""
        return self._run(self.client.maintenance())

    @property
    def now_us(self) -> float:
        return self.cluster.env.now

    def _run(self, generator):
        return self.cluster.run_op(generator)
