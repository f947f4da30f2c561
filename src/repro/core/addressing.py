"""The 48-bit global address space and its region layout (§4.4).

FUSEE shards memory into fixed-size *regions*, each replicated on ``r``
memory nodes chosen by consistent hashing (primary first).  A 48-bit global
address is::

    | region id (high bits) | offset within region (low bits) |

Every region replica has the same internal layout, so a global address
translates to a local offset on each replica MN with pure arithmetic —
no metadata server involved, which is the whole point of the design::

    +------------------+--------------------+---------------------------+
    | block alloc table| per-block bitmaps  | block 0 | block 1 | ...   |
    +------------------+--------------------+---------------------------+

* The block-allocation table records, per coarse-grained block, which
  client owns it (CID) — written by the MN on ALLOC and read by the master
  during crashed-client recovery (§5.3).
* Each block is preceded (logically; physically the bitmaps are grouped in
  one array for alignment) by a *free bitmap*: one bit per
  ``min_object_size`` unit; a freeing client sets the bit at the object's
  start with an RDMA_FAA and the owning client reclaims in the background.
  Unit ``u`` is bit ``u % 8`` of bitmap byte ``u // 8``; an FAA addresses
  the aligned 8-byte big-endian word holding that byte.

This module is the one definition of those bytes: the MN block allocator,
the client slab allocator and the master's recovery all ask
:class:`RegionLayout` for the objects of a block (``object_offsets``), an
object's free bit (``free_bit``) and the objects a run of bitmap bytes marks
freed (``freed_offsets``), and :class:`RegionMap` for the block holding a
global address (``block_of``) — ``docs/memory_layout.md``, "Who touches what".

The paper uses 2 GB regions and 16 MB blocks; the defaults here are scaled
down so simulations stay small, and are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .ring import ConsistentHashRing

__all__ = ["RegionConfig", "RegionLayout", "RegionMap", "GLOBAL_ADDR_BITS"]

GLOBAL_ADDR_BITS = 48
BLOCK_TABLE_ENTRY = 8


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class RegionConfig:
    """Geometry of a region (paper: 2 GB regions, 16 MB blocks)."""

    region_size: int = 1 << 22      # 4 MB in simulation (paper: 2 GB)
    block_size: int = 1 << 16       # 64 KB in simulation (paper: 16 MB)
    min_object_size: int = 64       # smallest slab size class

    def __post_init__(self):
        for name in ("region_size", "block_size", "min_object_size"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.block_size > self.region_size:
            raise ValueError("block_size exceeds region_size")
        if self.min_object_size > self.block_size:
            raise ValueError("min_object_size exceeds block_size")
        # One free bit per smallest object: a block's bitmap must be at
        # least the 8-byte word clients FAA and ``reclaim`` reads and
        # CASes, or that word would reach into the next block's bitmap.
        if self.block_size < 64 * self.min_object_size:
            raise ValueError(
                f"block_size {self.block_size} holds fewer than 64 objects "
                f"of min_object_size {self.min_object_size}: its free "
                f"bitmap would be under one 8-byte word")

    @property
    def region_shift(self) -> int:
        return self.region_size.bit_length() - 1

    @property
    def offset_mask(self) -> int:
        return self.region_size - 1


class RegionLayout:
    """Pure arithmetic over the intra-region layout."""

    def __init__(self, config: RegionConfig):
        self.config = config
        self.bitmap_bytes_per_block = config.block_size // config.min_object_size // 8
        # Solve for the number of blocks that fit with their table entries
        # and bitmaps inside the region.
        per_block = (config.block_size + BLOCK_TABLE_ENTRY
                     + self.bitmap_bytes_per_block)
        self.n_blocks = config.region_size // per_block
        if self.n_blocks < 1:
            raise ValueError("region too small for a single block")
        self.table_offset = 0
        self.bitmap_offset = self.n_blocks * BLOCK_TABLE_ENTRY
        data_offset = self.bitmap_offset + self.n_blocks * self.bitmap_bytes_per_block
        # Align data to the min object size for tidy pointer math.
        align = config.min_object_size
        self.data_offset = (data_offset + align - 1) // align * align

    def block_table_entry_offset(self, block_index: int) -> int:
        self._check_block(block_index)
        return self.table_offset + block_index * BLOCK_TABLE_ENTRY

    def bitmap_offset_of(self, block_index: int) -> int:
        self._check_block(block_index)
        return self.bitmap_offset + block_index * self.bitmap_bytes_per_block

    def block_offset(self, block_index: int) -> int:
        self._check_block(block_index)
        return self.data_offset + block_index * self.config.block_size

    def block_index_of(self, region_offset: int) -> int:
        if region_offset < self.data_offset:
            raise ValueError(f"offset {region_offset} is in region metadata")
        index = (region_offset - self.data_offset) // self.config.block_size
        self._check_block(index)
        return index

    def object_bit(self, region_offset: int) -> Tuple[int, int]:
        """(bitmap byte offset within region, bit index within byte) for the
        free bit of the object starting at ``region_offset``."""
        block = self.block_index_of(region_offset)
        within = region_offset - self.block_offset(block)
        unit = within // self.config.min_object_size
        byte = self.bitmap_offset_of(block) + unit // 8
        return byte, unit % 8

    def free_bit(self, region_offset: int) -> Tuple[int, int]:
        """(region offset of the bitmap word, FAA mask) setting the free
        bit of the object starting at ``region_offset``: RDMA atomics work
        on aligned 8-byte words, read big-endian, so the word is the one
        holding the object's bitmap byte and the mask that byte's bit at
        its place in the word."""
        byte, bit = self.object_bit(region_offset)
        return byte - byte % 8, 1 << ((7 - byte % 8) * 8 + bit)

    def freed_offsets(self, bitmap: bytes, first_byte: int) -> List[int]:
        """Offsets from the block start, ascending, of the objects whose
        free bits are set in ``bitmap`` — a run of a block's bitmap bytes
        beginning at byte ``first_byte`` of that bitmap (0 for a whole
        bitmap).  Only bits at object starts are ever set (``free_bit``)."""
        unit = self.config.min_object_size
        return [((first_byte + index) * 8 + bit) * unit
                for index, byte in enumerate(bitmap) if byte
                for bit in range(8) if byte >> bit & 1]

    def object_offsets(self, size: int) -> range:
        """Offsets from the block start of the objects a block carved
        into ``size``-byte slabs holds (``len()`` counts them; a tail too
        short for one more object stays unused)."""
        return range(0, self.config.block_size - size + 1, size)

    def _check_block(self, index: int) -> None:
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block index {index} out of [0, {self.n_blocks})")


class RegionMap:
    """Placement of replicated regions onto memory nodes.

    Built once at cluster-bootstrap time and distributed to every client
    and the master (the paper's clients learn it from the master during
    initialisation).  Translation is pure arithmetic plus one dict lookup.
    """

    def __init__(self, config: RegionConfig, ring: ConsistentHashRing,
                 replication_factor: int):
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.config = config
        self.layout = RegionLayout(config)
        self.ring = ring
        self.replication_factor = replication_factor
        # Hot-path copies of the config constants: translate()/split()
        # run several times per KV op, and the attribute chain through
        # the (immutable) config is measurable at scale.
        self._shift = config.region_shift
        self._mask = config.offset_mask
        # region id -> ordered [(mn_id, base offset on that MN)], primary first
        self._placement: Dict[int, List[Tuple[int, int]]] = {}
        self._primaries_per_mn: Dict[int, List[int]] = {}

    # -- bootstrap ------------------------------------------------------------
    def place_region(self, region_id: int, carve,
                     mn_ids: Optional[List[int]] = None
                     ) -> List[Tuple[int, int]]:
        """Place one region; ``carve(mn_id, nbytes) -> base``.

        By default the ring chooses the ``r`` replica nodes; pass
        ``mn_ids`` explicitly when growing the pool (a new memory node
        takes the primary so fresh allocations flow to it).  Returns the
        placement (primary first).
        """
        if region_id in self._placement:
            raise ValueError(f"region {region_id} already placed")
        if mn_ids is None:
            mn_ids = self.ring.replicas(region_id, self.replication_factor)
        elif len(mn_ids) != self.replication_factor:
            raise ValueError("explicit placement must name r nodes")
        placement = [(mn_id, carve(mn_id, self.config.region_size))
                     for mn_id in mn_ids]
        self._placement[region_id] = placement
        self._primaries_per_mn.setdefault(mn_ids[0], []).append(region_id)
        return placement

    # -- queries --------------------------------------------------------------
    @property
    def region_ids(self) -> List[int]:
        return sorted(self._placement)

    def primary_regions_of(self, mn_id: int) -> List[int]:
        return list(self._primaries_per_mn.get(mn_id, []))

    def placement(self, region_id: int) -> List[Tuple[int, int]]:
        return list(self._placement[region_id])

    @property
    def placements(self) -> Dict[int, List[Tuple[int, int]]]:
        """The live table behind :meth:`placement`, region id -> replicas
        primary first, for a reader that resolves an address per KV READ
        (``ReplicaReadPolicy``); it grows with the pool, and only this
        map writes it."""
        return self._placement

    def gaddr(self, region_id: int, region_offset: int) -> int:
        if not 0 <= region_offset < self.config.region_size:
            raise ValueError(f"offset {region_offset} outside region")
        return (region_id << self.config.region_shift) | region_offset

    def split(self, gaddr: int) -> Tuple[int, int]:
        return gaddr >> self._shift, gaddr & self._mask

    def translate(self, gaddr: int) -> List[Tuple[int, int]]:
        """All replica locations of a global address, primary first."""
        offset = gaddr & self._mask
        return [(mn_id, base + offset)
                for mn_id, base in self._placement[gaddr >> self._shift]]

    def live_replicas(self, gaddr: int, nodes) -> List[Tuple[int, int]]:
        """``translate(gaddr)`` less the replicas whose node (looked up in
        ``nodes``, a fabric's ``{mn_id: MemoryNode}``) has crashed."""
        offset = gaddr & self._mask
        return [(mn_id, base + offset)
                for mn_id, base in self._placement[gaddr >> self._shift]
                if not nodes[mn_id].crashed]

    def block_gaddr(self, region_id: int, block: int) -> int:
        """Global address of a block's first byte (``block_of``'s inverse);
        an object of the block is that plus its ``object_offsets`` entry."""
        return self.gaddr(region_id, self.layout.block_offset(block))

    def block_of(self, gaddr: int) -> Optional[Tuple[int, int]]:
        """``(region id, block index)`` of the block holding ``gaddr``;
        None for an address in region metadata (no object lives there —
        the null pointer, or a pointer decoded from garbage)."""
        region_id, offset = self.split(gaddr)
        if offset < self.layout.data_offset:
            return None
        return region_id, self.layout.block_index_of(offset)
