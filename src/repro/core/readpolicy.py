"""Replica selection for KV-block READs (read-spreading).

FUSEE replicates every KV block across ``replication_factor`` memory
nodes (§4.3), yet the paper's client always reads the first alive
replica.  At NIC saturation that leaves backup tx ports under-used while
the primary's serialisation line queues — part of the Fig. 13 plateau.
:class:`ReplicaReadPolicy` lets each client spread its KV READs over the
alive replicas instead:

* ``primary`` — paper-faithful first-alive replica (the default);
* ``round_robin`` — rotate over the alive replicas, seeded by client id
  so a fleet of clients decorrelates;
* ``least_loaded`` — pick the replica whose memory node has the smallest
  tx-NIC backlog right now (ties go to the primary-most replica, so an
  idle fabric behaves like ``primary``).

Spreading is safe because KV blocks are immutable out-of-place objects:
every replica is written in the same doorbell batch *before* a pointer
to the object can be installed, and invalidation flags are broadcast to
all alive replicas (§4.6) — any alive replica is as fresh as the
primary.  Index (slot) reads are unaffected, and the degraded read path
of Algorithm 4 still goes through the index placement.

Under fault injection a replica whose read just timed out is marked
*suspect* for ``SUSPECT_WINDOW_US`` and deprioritised, so the client's
retry lands on a different replica instead of hammering a partitioned or
gray node (``primary`` mode skips this to stay byte-identical to the
paper's behaviour).  Every choice increments
``fabric.stats.kv_replica_reads`` — the per-replica read-skew counter
sampled into the ``kv_read_skew`` metrics series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rdma import ReadOp

__all__ = ["ReplicaReadPolicy", "READ_SPREAD_MODES"]

READ_SPREAD_MODES = ("primary", "round_robin", "least_loaded")

#: How long a replica stays deprioritised after a READ timeout (us).
SUSPECT_WINDOW_US = 500.0


class ReplicaReadPolicy:
    """Per-client choice of which alive data replica serves a KV READ."""

    def __init__(self, fabric, region_map, mode: str = "primary",
                 cid: int = 0):
        if mode not in READ_SPREAD_MODES:
            raise ValueError(f"unknown read_spread mode {mode!r}; "
                             f"pick from {READ_SPREAD_MODES}")
        self.fabric = fabric
        self.region_map = region_map
        self.mode = mode
        self._rr = cid  # seeded rotation offset: clients start staggered
        self._suspects: Dict[int, float] = {}
        self._primary = mode == "primary"
        # What read_op reads per READ, bound once (none is ever rebound):
        # the region map's placement table and the split of an address
        # into region id and offset, walked in place in primary mode, and
        # the fabric's nodes and read counter.
        self._placements = region_map.placements
        self._shift = region_map.config.region_shift
        self._mask = region_map.config.offset_mask
        self._nodes = fabric.nodes
        self._reads = fabric.stats.kv_replica_reads

    def note_timeout(self, mn_id: int) -> None:
        """Deprioritise a replica whose READ just timed out."""
        self._suspects[mn_id] = self.fabric.env.now + SUSPECT_WINDOW_US

    def _fresh(self, candidates: List[Tuple[int, int]]
               ) -> List[Tuple[int, int]]:
        if not self._suspects:
            return candidates
        now = self.fabric.env.now
        fresh = [c for c in candidates
                 if self._suspects.get(c[0], -1.0) <= now]
        return fresh or candidates

    def read_op(self, gaddr: int, nbytes: int) -> Optional[ReadOp]:
        """The READ of ``nbytes`` of the KV block at ``gaddr`` from the
        alive replica this policy picks, or None when none is alive.

        ``primary`` takes the first alive replica in placement order
        without listing the others (the cached SEARCH runs this per op);
        the spreading modes choose among all alive replicas.
        """
        if self._primary:
            # live_replicas(gaddr, nodes)[0], without building the list
            nodes = self._nodes
            for mn_id, base in self._placements[gaddr >> self._shift]:
                if not nodes[mn_id].crashed:
                    break
            else:
                return None
            addr = base + (gaddr & self._mask)
        else:
            candidates = self.region_map.live_replicas(gaddr, self._nodes)
            if not candidates:
                return None
            mn_id, addr = self._spread(candidates)
        reads = self._reads
        reads[mn_id] = reads.get(mn_id, 0) + 1
        return ReadOp(mn_id, addr, nbytes)

    def _spread(self, candidates: List[Tuple[int, int]]) -> Tuple[int, int]:
        """Pick one ``(mn_id, addr)`` from alive replicas, primary first:
        rotating (``round_robin``) or by tx backlog (``least_loaded``)
        over the replicas not suspected."""
        if len(candidates) == 1:
            return candidates[0]
        usable = self._fresh(candidates)
        if self.mode == "round_robin":
            choice = usable[self._rr % len(usable)]
            self._rr += 1
            return choice
        now = self.fabric.env.now
        choice = None
        best = None
        for index, cand in enumerate(usable):
            # total queued tx work across the node's ports —
            # identical to nic_tx.backlog on single-queue MNs
            backlog = self.fabric.node(cand[0]).tx_backlog(now)
            rank = (backlog, index)
            if best is None or rank < best:
                choice, best = cand, rank
        return choice
