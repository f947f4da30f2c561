"""Two-level memory management (§4.4).

Level 1 — **coarse-grained, MN-side**: each memory node runs a
compute-light block allocator over its *primary* regions.  An ALLOC RPC
picks a free block, records the requesting client's CID (and the block's
size class) in the block-allocation table of the primary *and* backup
region replicas, and returns the block's global address.  This is the only
allocation work the weak MN cores ever do.

Level 2 — **fine-grained, client-side**: clients carve the blocks they own
into objects with slab allocators (one free list per size class).  Because
objects are always popped from the head of a FIFO free list, the allocation
order of each class is pre-determined, which lets the embedded operation
log pre-position its ``next`` pointer (§4.5).

Freeing is decoupled from reclaiming: any client can free any object by
setting its bit in the block's free bitmap with an RDMA_FAA; only the
owning client reclaims, in the background, by atomically draining bitmap
words with CAS and appending the objects to its free lists.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..rdma import (FAIL, TIMEOUT, CasOp, Fabric, FaaOp, MemoryNode, ReadOp,
                    WriteOp)
from .addressing import RegionMap
from .wire import NULL_ADDR

__all__ = [
    "size_classes_for",
    "MnBlockAllocator",
    "ClientAllocator",
    "AllocResult",
    "AllocationError",
    "pack_block_entry",
    "unpack_block_entry",
    "ClientTable",
]


class AllocationError(Exception):
    """Raised when the memory pool cannot satisfy an allocation."""


def size_classes_for(min_object_size: int, block_size: int,
                     largest: Optional[int] = None,
                     growth: float = 1.25) -> List[int]:
    """Slab size classes from ``min_object_size`` upward.

    Classes grow geometrically (~25% steps) and stay multiples of the
    minimum object size so that free-bitmap bits map back to exact object
    offsets.  Finer classes keep internal fragmentation (and hence write
    amplification on the fabric) low.
    """
    largest = largest or max(min_object_size, block_size // 8)
    classes = []
    size = min_object_size
    while size <= largest:
        classes.append(size)
        nxt = int(size * growth)
        nxt = (nxt + min_object_size - 1) // min_object_size * min_object_size
        size = max(size + min_object_size, nxt)
    return classes


# ---------------------------------------------------------------------------
# Block-allocation-table entries (8 bytes, CAS-able)
# ---------------------------------------------------------------------------
_ALLOCATED = 1 << 63


def pack_block_entry(cid: int, class_idx: int) -> int:
    if not 0 <= cid < (1 << 16):
        raise ValueError("cid out of range")
    if not 0 <= class_idx < (1 << 8):
        raise ValueError("class index out of range")
    return _ALLOCATED | (cid << 32) | (class_idx << 24)


def unpack_block_entry(word: int) -> Optional[Tuple[int, int]]:
    """``(cid, class_idx)`` if the block is allocated, else ``None``."""
    if not word & _ALLOCATED:
        return None
    return (word >> 32) & 0xFFFF, (word >> 24) & 0xFF


# ---------------------------------------------------------------------------
# Level 1: MN-side block allocation
# ---------------------------------------------------------------------------
class MnBlockAllocator:
    """Block allocator installed on one memory node.

    Registers the ``alloc_block`` and ``find_client_blocks`` RPC handlers.
    Replication of the block-table entry to backup regions is done by
    writing the backup MNs' memory directly from the handler: in the real
    system the MN issues the mirror writes itself, and their latency is
    amortised over the thousands of KV allocations a 16 MB block serves, so
    charging it to the (already-priced) ALLOC RPC preserves behaviour.
    """

    MN_CENTRAL_CID = 0xFFFF  # owner recorded for MN-side central slabs

    def __init__(self, node: MemoryNode, region_map: RegionMap,
                 fabric: Fabric,
                 alloc_cpu_us: float = 2.0,
                 alloc_object_cpu_us: float = 12.0):
        self.node = node
        self.region_map = region_map
        # the replicas' nodes, and the fault injector the mirror writes
        # honour (an injected MN<->MN partition skips the replica)
        self.fabric = fabric
        self.alloc_cpu_us = alloc_cpu_us
        # Per-object allocation on the weak MN cores — only used by the
        # MN-centric ablation of Fig. 17; deliberately expensive.
        self.alloc_object_cpu_us = alloc_object_cpu_us
        layout = region_map.layout
        self._free_blocks: Deque[Tuple[int, int]] = deque(
            (region_id, block)
            for region_id in region_map.primary_regions_of(node.mn_id)
            for block in range(layout.n_blocks))
        self._central_free: Dict[int, Deque[int]] = {}
        node.register_rpc("alloc_block", self._handle_alloc)
        node.register_rpc("free_block", self._handle_free)
        node.register_rpc("find_client_blocks", self._handle_find_blocks)
        node.register_rpc("alloc_object", self._handle_alloc_object)

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def _mirror_block(self, region_id: int, block: int, entry: int) -> None:
        """Write ``entry`` into the block's table slot and zero its free
        bitmap on every region replica this MN can reach (a crashed or
        partitioned replica is skipped)."""
        layout = self.region_map.layout
        table_off = layout.block_table_entry_offset(block)
        bitmap_off = layout.bitmap_offset_of(block)
        cleared = bytes(layout.bitmap_bytes_per_block)
        me = self.node.mn_id
        injector = self.fabric.injector
        for mn_id, base in self.region_map.placement(region_id):
            replica = self.fabric.nodes[mn_id]
            if replica.crashed or (
                    injector is not None and mn_id != me
                    and not injector.mn_reachable(me, mn_id,
                                                  self.node.env.now)):
                continue
            replica.write_word(base + table_off, entry)
            replica.memory[base + bitmap_off:
                           base + bitmap_off + len(cleared)] = cleared

    def _handle_alloc(self, payload: dict):
        cid = payload["cid"]
        class_idx = payload["class_idx"]
        if not self._free_blocks:
            return {"error": "no_space"}, self.alloc_cpu_us
        region_id, block = self._free_blocks.popleft()
        self._mirror_block(region_id, block, pack_block_entry(cid, class_idx))
        gaddr = self.region_map.block_gaddr(region_id, block)
        return ({"region": region_id, "block": block, "gaddr": gaddr},
                self.alloc_cpu_us)

    def _handle_free(self, payload: dict):
        """FREE interface (§2.1): a client returns a fully-free block.

        The MN clears the block-table entry and bitmap on every region
        replica and returns the block to its free pool.  The caller must
        own the block and hold every object of it on its free lists.
        """
        region_id = payload["region"]
        block = payload["block"]
        cid = payload["cid"]
        layout = self.region_map.layout
        if region_id not in self.region_map.primary_regions_of(
                self.node.mn_id):
            return {"error": "not_primary"}, self.alloc_cpu_us
        table_off = layout.block_table_entry_offset(block)
        primary_base = dict(self.region_map.placement(region_id))[
            self.node.mn_id]
        owner = unpack_block_entry(self.node.read_word(
            primary_base + table_off))
        if owner is None or owner[0] != cid:
            return {"error": "not_owner"}, self.alloc_cpu_us
        self._mirror_block(region_id, block, 0)
        self._free_blocks.append((region_id, block))
        return {"ok": True}, self.alloc_cpu_us

    def _handle_alloc_object(self, payload: dict):
        """Fig. 17 ablation: fine-grained allocation on the MN's weak CPU.

        The MN runs its own slab allocator over blocks it keeps for
        itself; every KV allocation costs a full RPC plus MN CPU time,
        which is exactly the bottleneck the two-level scheme removes."""
        class_idx = payload["class_idx"]
        size = payload["size"]
        free = self._central_free.setdefault(class_idx, deque())
        if not free:
            if not self._free_blocks:
                return {"error": "no_space"}, self.alloc_object_cpu_us
            region_id, block = self._free_blocks.popleft()
            self._mirror_block(region_id, block, pack_block_entry(
                self.MN_CENTRAL_CID, class_idx))
            start = self.region_map.block_gaddr(region_id, block)
            free.extend(start + off for off in
                        self.region_map.layout.object_offsets(size))
        gaddr = free.popleft()
        return {"gaddr": gaddr}, self.alloc_object_cpu_us

    def _handle_find_blocks(self, payload: dict):
        """Recovery support: all blocks in this MN's primary regions owned
        by the given client (§5.3 memory re-management)."""
        cid = payload["cid"]
        layout = self.region_map.layout
        found = []
        for region_id in self.region_map.primary_regions_of(self.node.mn_id):
            base = dict(self.region_map.placement(region_id))[self.node.mn_id]
            for block in range(layout.n_blocks):
                word = self.node.read_word(
                    base + layout.block_table_entry_offset(block))
                owner = unpack_block_entry(word)
                if owner and owner[0] == cid:
                    found.append({"region": region_id, "block": block,
                                  "class_idx": owner[1]})
        # CPU cost scales with the table scan.
        scan_us = 0.01 * layout.n_blocks * max(
            1, len(self.region_map.primary_regions_of(self.node.mn_id)))
        return {"blocks": found}, max(self.alloc_cpu_us, scan_us)


# ---------------------------------------------------------------------------
# Client-table: per-client, per-size-class list heads, for recovery (§4.5)
# ---------------------------------------------------------------------------
class ClientTable:
    """Locations of the per-client log-list heads, replicated on every MN.

    Laid out at cluster bootstrap: ``heads[cid][class_idx]`` is an 8-byte
    word at a fixed per-MN base.  Clients write their head pointer (once,
    at the first allocation of a class); the master reads any alive replica
    during recovery.
    """

    def __init__(self, bases: Dict[int, int], max_clients: int,
                 n_classes: int):
        self.bases = dict(bases)  # mn_id -> base offset on that MN
        self.max_clients = max_clients
        self.n_classes = n_classes

    @staticmethod
    def table_bytes(max_clients: int, n_classes: int) -> int:
        return max_clients * n_classes * 8

    def slot_offset(self, cid: int, class_idx: int) -> int:
        if not 0 <= cid < self.max_clients:
            raise ValueError(f"cid {cid} out of range")
        if not 0 <= class_idx < self.n_classes:
            raise ValueError(f"class {class_idx} out of range")
        return (cid * self.n_classes + class_idx) * 8

    def locations(self, cid: int, class_idx: int) -> List[Tuple[int, int]]:
        off = self.slot_offset(cid, class_idx)
        return [(mn_id, base + off) for mn_id, base in self.bases.items()]


# ---------------------------------------------------------------------------
# Level 2: client-side slab allocation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AllocResult:
    """An allocated object plus the pre-positioned log-list pointers."""

    gaddr: int
    class_idx: int
    size: int
    next_ptr: int  # head of the free list after this pop (0 if none known)
    prev_ptr: int  # previously allocated object of this class (0 if first)


class _ClassState:
    __slots__ = ("free", "last_alloc", "head", "head_written")

    def __init__(self):
        self.free: Deque[int] = deque()
        self.last_alloc = NULL_ADDR
        self.head = NULL_ADDR
        self.head_written = False


class ClientAllocator:
    """The fine-grained, client-side half of two-level memory management."""

    def __init__(self, env, fabric: Fabric, region_map: RegionMap,
                 client_table: ClientTable, cid: int,
                 size_classes: List[int],
                 mn_ids: Optional[List[int]] = None,
                 refill_watermark: int = 2,
                 mn_centric: bool = False):
        if refill_watermark < 2:
            # The watermark keeps >= 1 object in the list after every pop so
            # the embedded log's next pointer is always pre-positionable.
            raise ValueError("refill_watermark must be >= 2")
        self.env = env
        self.fabric = fabric
        self.region_map = region_map
        self.client_table = client_table
        self.cid = cid
        self.size_classes = list(size_classes)
        self.refill_watermark = refill_watermark
        self.mn_centric = mn_centric
        # None = discover dynamically (the memory pool may grow)
        self._mn_ids = list(mn_ids) if mn_ids else None
        self._rr = cid  # round-robin cursor, staggered per client
        self._classes = [_ClassState() for _ in size_classes]
        self._owned_blocks: List[Tuple[int, int, int]] = []  # (region, block, class)
        self._pending_frees: Dict[int, None] = {}  # an ordered set
        self.stats_blocks_allocated = 0
        self.stats_free_timeouts = 0   # see flush_frees

    # -- helpers ---------------------------------------------------------------
    def class_for(self, nbytes: int) -> int:
        for idx, size in enumerate(self.size_classes):
            if size >= nbytes:
                return idx
        raise AllocationError(
            f"object of {nbytes}B exceeds largest size class "
            f"{self.size_classes[-1]}B")

    def free_list_len(self, class_idx: int) -> int:
        return len(self._classes[class_idx].free)

    def head(self, class_idx: int) -> int:
        return self._classes[class_idx].head

    def owned_blocks(self) -> List[Tuple[int, int, int]]:
        return list(self._owned_blocks)

    # -- allocation --------------------------------------------------------------
    def alloc(self, class_idx: int):
        """Allocate one object (DES generator).

        Returns an :class:`AllocResult` whose ``next_ptr``/``prev_ptr`` are
        the pre-positioned embedded-log pointers.  Refills from the MN-side
        block allocator when the free list runs low, *before* popping, so
        the next pointer is always known (§4.5 co-design).
        """
        if self.mn_centric:
            return (yield from self._alloc_mn_centric(class_idx))
        state = self._classes[class_idx]
        while len(state.free) < self.refill_watermark:
            yield from self._refill(class_idx)
        gaddr = state.free.popleft()
        result = AllocResult(gaddr=gaddr, class_idx=class_idx,
                             size=self.size_classes[class_idx],
                             next_ptr=state.free[0],
                             prev_ptr=state.last_alloc)
        state.last_alloc = gaddr
        if state.head == NULL_ADDR:
            state.head = gaddr
            yield from self._publish_head(class_idx, gaddr)
        return result

    def _candidate_mns(self) -> List[int]:
        return self._mn_ids if self._mn_ids is not None \
            else list(self.fabric.nodes)

    def _alloc_mn_centric(self, class_idx: int):
        """Fig. 17 ablation: one RPC to a weak MN core per object."""
        size = self.size_classes[class_idx]
        mns = self._candidate_mns()
        for _ in range(len(mns)):
            mn_id = mns[self._rr % len(mns)]
            self._rr += 1
            if self.fabric.node(mn_id).crashed:
                continue
            reply = yield self.fabric.rpc(mn_id, "alloc_object",
                                          {"class_idx": class_idx,
                                           "size": size})
            if reply is FAIL or "error" in reply:
                continue
            return AllocResult(gaddr=reply["gaddr"], class_idx=class_idx,
                               size=size, next_ptr=NULL_ADDR,
                               prev_ptr=NULL_ADDR)
        raise AllocationError(
            f"client {self.cid}: MN-centric allocation failed on all MNs")

    def _refill(self, class_idx: int):
        last_error = None
        mns = self._candidate_mns()
        for _ in range(len(mns)):
            mn_id = mns[self._rr % len(mns)]
            self._rr += 1
            if self.fabric.node(mn_id).crashed:
                continue
            reply = yield self.fabric.rpc(mn_id, "alloc_block",
                                          {"cid": self.cid,
                                           "class_idx": class_idx})
            if reply is FAIL:
                continue
            if "error" in reply:
                last_error = reply["error"]
                continue
            self._adopt_block(reply["region"], reply["block"], class_idx)
            return
        raise AllocationError(
            f"client {self.cid}: no MN could allocate a block "
            f"({last_error or 'all MNs unreachable'})")

    def _adopt_block(self, region_id: int, block: int, class_idx: int) -> None:
        start = self.region_map.block_gaddr(region_id, block)
        self._classes[class_idx].free.extend(
            start + off for off in self.region_map.layout.object_offsets(
                self.size_classes[class_idx]))
        self._owned_blocks.append((region_id, block, class_idx))
        self.stats_blocks_allocated += 1

    def adopt_recovered(self, region_id: int, block: int, class_idx: int,
                        free_gaddrs: List[int], head: int,
                        last_alloc: int) -> None:
        """Install state reconstructed by the recovery process (§5.3)."""
        state = self._classes[class_idx]
        state.free.extend(free_gaddrs)
        state.head = head
        state.head_written = head != NULL_ADDR
        state.last_alloc = last_alloc
        self._owned_blocks.append((region_id, block, class_idx))

    def _publish_head(self, class_idx: int, gaddr: int):
        """Record the list head on the MNs so recovery can find it."""
        ops = [WriteOp(mn_id, addr, gaddr.to_bytes(8, "big"))
               for mn_id, addr in self.client_table.locations(self.cid,
                                                              class_idx)
               if not self.fabric.node(mn_id).crashed]
        if ops:
            yield self.fabric.post(ops)
        self._classes[class_idx].head_written = True

    # -- freeing and reclaiming ----------------------------------------------------
    def note_free(self, gaddr: int) -> None:
        """Queue an object for the batched background free (§4.4).

        Raises ``ValueError`` for an object already in the pending batch:
        two FAAs of one free bit in one flush carry into the neighbouring
        object's bit, so a double free must fail here, loudly, rather
        than corrupt the bitmap later.
        """
        if gaddr in self._pending_frees:
            raise ValueError(f"object {gaddr:#x} is already queued to be "
                             f"freed by client {self.cid}")
        self._pending_frees[gaddr] = None

    @property
    def pending_free_count(self) -> int:
        return len(self._pending_frees)

    def flush_frees(self):
        """Set the free bit of every queued object with RDMA_FAAs (generator).

        One FAA per (object, alive replica), in queue then placement
        order; all are posted as a single doorbell batch — this is the
        off-critical-path background work.  A replica FAA that ends
        ``TIMEOUT`` is counted in ``stats_free_timeouts``: its bit may
        never have been set, and nothing posts it again.
        """
        if not self._pending_frees:
            return
        pending, self._pending_frees = self._pending_frees, {}
        layout = self.region_map.layout
        ops = []
        for gaddr in pending:
            region_id, offset = self.region_map.split(gaddr)
            word_off, mask = layout.free_bit(offset)
            for mn_id, base in self.region_map.placement(region_id):
                if self.fabric.node(mn_id).crashed:
                    continue
                ops.append(FaaOp(mn_id, base + word_off, mask))
        if ops:
            comps = yield self.fabric.post(ops)
            for comp in comps:
                if comp.value is TIMEOUT:
                    self.stats_free_timeouts += 1

    def release_empty_blocks(self):
        """Return fully-free blocks to their memory nodes (generator).

        A block is releasable when every one of its objects is on this
        client's free lists.  Releasing shrinks the client's footprint,
        closing the loop of the two-level scheme (ALLOC/FREE, §2.1).
        Returns the number of blocks released.
        """
        block_of = self.region_map.block_of
        released = 0
        # free objects per (region, block)
        free_by_block = Counter(block_of(gaddr) for state in self._classes
                                for gaddr in state.free)
        for region_id, block, class_idx in list(self._owned_blocks):
            objects = len(self.region_map.layout.object_offsets(
                self.size_classes[class_idx]))
            if free_by_block[region_id, block] != objects:
                continue
            # never release the block feeding the pre-positioned next ptr
            state = self._classes[class_idx]
            if state.free and block_of(state.free[0]) == (region_id, block) \
                    and len(state.free) <= objects:
                continue
            primary_mn = self.region_map.placement(region_id)[0][0]
            if self.fabric.node(primary_mn).crashed:
                continue
            reply = yield self.fabric.rpc(primary_mn, "free_block",
                                          {"region": region_id,
                                           "block": block,
                                           "cid": self.cid})
            if reply is FAIL or "error" in reply:
                continue
            keep = [gaddr for gaddr in state.free
                    if block_of(gaddr) != (region_id, block)]
            state.free.clear()
            state.free.extend(keep)
            self._owned_blocks.remove((region_id, block, class_idx))
            released += 1
        return released

    def reclaim(self):
        """Drain free bitmaps of owned blocks back into free lists (generator).

        For each owned block: read its bitmap from the primary replica,
        and for every non-zero word CAS it to zero (expected = read value).
        A lost CAS race with a concurrent freeing FAA simply leaves the bit
        for the next reclaim cycle.  Returns the number of objects
        reclaimed.
        """
        layout = self.region_map.layout
        reclaimed = 0
        for region_id, block, class_idx in self._owned_blocks:
            primary_mn, base = self.region_map.placement(region_id)[0]
            if self.fabric.node(primary_mn).crashed:
                continue
            bitmap_off = layout.bitmap_offset_of(block)
            nbytes = layout.bitmap_bytes_per_block
            comps = yield self.fabric.post(
                [ReadOp(primary_mn, base + bitmap_off, nbytes)])
            if comps[0].failed:
                continue
            bitmap = comps[0].value
            for word_idx in range(0, nbytes, 8):
                run = bitmap[word_idx:word_idx + 8]
                word = int.from_bytes(run, "big")
                if word == 0:
                    continue
                cas_ops = []
                for mn_id, rep_base in self.region_map.placement(region_id):
                    if self.fabric.node(mn_id).crashed:
                        continue
                    cas_ops.append(CasOp(mn_id, rep_base + bitmap_off + word_idx,
                                         expected=word, swap=0))
                comps = yield self.fabric.post(cas_ops)
                if not comps or not comps[0].cas_succeeded():
                    continue  # racing FAA; retry next cycle
                freed = layout.freed_offsets(run, word_idx)
                start = self.region_map.block_gaddr(region_id, block)
                self._classes[class_idx].free.extend(
                    start + off for off in freed)
                reclaimed += len(freed)
        return reclaimed
