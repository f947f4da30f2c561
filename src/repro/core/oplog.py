"""The embedded operation log (§4.5).

Log entries live in the last 22 bytes of every KV block, so the single
RDMA_WRITE that installs a KV pair also persists its log entry — no extra
round trip on the write path.  Order is reconstructed from per-size-class
doubly linked lists whose pointers are *pre-positioned* at allocation time
(the FIFO free list makes the allocation order pre-determined).

This module provides:

* entry construction from an allocation (:func:`entry_for_alloc`);
* the verb lists for the three log mutations the client issues —
  committing the winner's old value (Fig. 9 phase 3), clearing a loser's
  used bit, and nothing else (that is the whole log-maintenance cost);
* the recovery-side readers: :func:`read_first_alive` (the one "first
  alive replica, fall over on failure" READ loop), :func:`parse_object`
  and :class:`LogWalker`, which walks a crashed client's per-size-class
  lists; sorting the chain ends into the paper's c0-c3 crash cases (§5.3)
  is the master's ``_recover_request``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..rdma import Fabric, ReadOp, WriteOp
from .addressing import RegionMap
from .memory import AllocResult
from .wire import (
    LOG_ENTRY_SIZE,
    LogEntry,
    NULL_ADDR,
    committed_old_value_bytes,
    decode_kv_block,
    decode_log_entry,
    old_value_offset,
)

__all__ = [
    "entry_for_alloc",
    "commit_old_value_ops",
    "clear_used_ops",
    "read_first_alive",
    "parse_object",
    "LogWalker",
    "WalkedObject",
    "CrashCase",
]


def entry_for_alloc(alloc: AllocResult, opcode: int) -> LogEntry:
    """The log entry written together with a fresh KV pair.

    The old-value field is left unwritten (zero, with a CRC that cannot
    verify) — only the decided last writer commits it later.
    """
    return LogEntry(next_ptr=alloc.next_ptr, prev_ptr=alloc.prev_ptr,
                    old_value=0, old_value_crc=0, opcode=opcode, used=True)


def _replica_ops(region_map: RegionMap, fabric: Fabric, gaddr: int,
                 offset_in_block: int, data: bytes) -> List[WriteOp]:
    ops = []
    for mn_id, addr in region_map.translate(gaddr):
        if fabric.node(mn_id).crashed:
            continue
        ops.append(WriteOp(mn_id, addr + offset_in_block, data))
    return ops


def commit_old_value_ops(region_map: RegionMap, fabric: Fabric, gaddr: int,
                         block_size: int, old_value: int) -> List[WriteOp]:
    """Phase-3 verbs: write (old value, CRC) into the embedded entry of the
    object at ``gaddr`` on every alive replica (one doorbell batch)."""
    return _replica_ops(region_map, fabric, gaddr,
                        old_value_offset(block_size),
                        committed_old_value_bytes(old_value))


def clear_used_ops(region_map: RegionMap, fabric: Fabric, gaddr: int,
                   block_size: int, opcode: int) -> List[WriteOp]:
    """Verbs resetting the used bit of a losing writer's object, marking it
    free for recovery and reclamation."""
    data = bytes([(opcode << 1) | 0])
    return _replica_ops(region_map, fabric, gaddr, block_size - 1, data)


# ---------------------------------------------------------------------------
# Recovery-side traversal
# ---------------------------------------------------------------------------
class CrashCase(enum.Enum):
    """The paper's classification of a potentially crashed request (Fig. 9)."""

    C0_INCOMPLETE_OBJECT = "c0"   # used bit unset / object torn: reclaim
    C1_UNCOMMITTED = "c1"         # old value not committed: redo the request
    C2_BEFORE_PRIMARY = "c2"      # committed, primary not yet CASed: finish it
    C3_FINISHED = "c3"            # committed and primary moved on: nothing


@dataclass
class WalkedObject:
    """One object visited during log traversal."""

    gaddr: int
    class_idx: int
    entry: Optional[LogEntry]     # None if the trailing bytes were torn
    key: Optional[bytes]          # decoded KV payload when intact
    value: Optional[bytes]
    decode_error: Optional[str]
    is_blank: bool = False        # the whole object is zero bytes
    is_tail: bool = False

    @property
    def allocated(self) -> bool:
        return self.entry is not None and self.entry.used


def read_first_alive(fabric: Fabric, replicas, offset: int, nbytes: int):
    """READ ``nbytes`` at ``base + offset`` of the first of ``replicas``
    — ``(mn_id, base)`` pairs, primary first — that is alive and answers,
    falling over to the next one when the READ fails (generator; returns
    the bytes, or None when no replica could be read)."""
    for mn_id, base in replicas:
        if fabric.node(mn_id).crashed:
            continue
        comp = yield fabric.post_one(ReadOp(mn_id, base + offset, nbytes))
        if not comp.failed:
            return comp.value
    return None


def parse_object(gaddr: int, class_idx: int, data: bytes) -> WalkedObject:
    """Decode one slab object: its trailing log entry and, when intact,
    the KV pair in front of it."""
    entry = decode_log_entry(data[len(data) - LOG_ENTRY_SIZE:])
    blank = not any(data)
    try:
        _header, key, value, _ = decode_kv_block(data)
        return WalkedObject(gaddr=gaddr, class_idx=class_idx, entry=entry,
                            key=key, value=value, decode_error=None,
                            is_blank=blank)
    except ValueError as exc:
        return WalkedObject(gaddr=gaddr, class_idx=class_idx, entry=entry,
                            key=None, value=None, decode_error=str(exc),
                            is_blank=blank)


class LogWalker:
    """Walks a crashed client's per-size-class log lists over the fabric.

    The walk follows pre-positioned ``next`` pointers from the stored list
    head and validates each hop with the successor's back pointer and used
    bit: a hop whose target was never written (or was freed and
    re-allocated, so its ``prev`` no longer points back) terminates the
    chain — everything at a chain end is a *potentially crashed* request,
    which is safe to over-approximate because redo is guarded (§5.3).
    """

    def __init__(self, fabric: Fabric, region_map: RegionMap,
                 size_classes: List[int]):
        self.fabric = fabric
        self.region_map = region_map
        self.size_classes = size_classes

    def read_object(self, gaddr: int, class_idx: int):
        """Fetch one object from the first alive replica (generator)."""
        data = yield from read_first_alive(
            self.fabric, self.region_map.translate(gaddr), 0,
            self.size_classes[class_idx])
        return None if data is None else parse_object(gaddr, class_idx, data)

    def walk_class(self, head: int, class_idx: int,
                   max_objects: int = 1_000_000):
        """Traverse one size class's list (generator).

        Returns ``(visited, terminator)``: the visited objects in
        allocation order (the last has ``is_tail=True``), plus the object
        that ended the walk, if one was read.  A terminator with an unset
        used bit is "either incomplete data or free data" (Appendix A.4.2)
        — a torn c0 write is reclaimed simply by not being in the used set.
        """
        visited: List[WalkedObject] = []
        terminator: Optional[WalkedObject] = None
        seen = set()
        gaddr = head
        prev_gaddr = NULL_ADDR
        while gaddr != NULL_ADDR and len(visited) < max_objects:
            if gaddr in seen:
                break  # defensive: cycle via recycled objects
            seen.add(gaddr)
            obj = yield from self.read_object(gaddr, class_idx)
            if obj is None:
                break
            if obj.entry is None or not obj.entry.used:
                # Never (fully) written: predecessor is the true tail.
                terminator = obj
                break
            if prev_gaddr != NULL_ADDR and obj.entry.prev_ptr != prev_gaddr:
                # Freed and re-linked elsewhere: chain ends at predecessor.
                terminator = obj
                break
            visited.append(obj)
            prev_gaddr = gaddr
            gaddr = obj.entry.next_ptr
        if visited:
            visited[-1].is_tail = True
        return visited, terminator
