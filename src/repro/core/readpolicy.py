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

from typing import Dict, List, Tuple

__all__ = ["ReplicaReadPolicy", "READ_SPREAD_MODES"]

READ_SPREAD_MODES = ("primary", "round_robin", "least_loaded")

#: How long a replica stays deprioritised after a READ timeout (us).
SUSPECT_WINDOW_US = 500.0


class ReplicaReadPolicy:
    """Per-client choice of which alive data replica serves a KV READ."""

    def __init__(self, fabric, mode: str = "primary", cid: int = 0):
        if mode not in READ_SPREAD_MODES:
            raise ValueError(f"unknown read_spread mode {mode!r}; "
                             f"pick from {READ_SPREAD_MODES}")
        self.fabric = fabric
        self.mode = mode
        self._rr = cid  # seeded rotation offset: clients start staggered
        self._suspects: Dict[int, float] = {}

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

    def choose(self, candidates: List[Tuple[int, int]]) -> Tuple[int, int]:
        """Pick one ``(mn_id, addr)`` from alive replicas, primary first."""
        if self.mode == "primary" or len(candidates) == 1:
            choice = candidates[0]
        else:
            usable = self._fresh(candidates)
            if self.mode == "round_robin":
                choice = usable[self._rr % len(usable)]
                self._rr += 1
            else:  # least_loaded
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
        reads = self.fabric.stats.kv_replica_reads
        reads[choice[0]] = reads.get(choice[0], 0) + 1
        return choice
