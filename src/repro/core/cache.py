"""The adaptive client-side index cache (§4.6).

For each cached key the client remembers the slot it lives in and the KV
block address the slot pointed to.  On a hit, UPDATE/DELETE/SEARCH read
the KV pair *in parallel* with the primary-slot read (one RTT saved); the
KV pair carries an invalidation bit so readers can detect that a writer
has since replaced it.

Fetching an invalidated pair wastes bandwidth, so the cache is *adaptive*:
per key it tracks ``invalid_ratio = invalid_count / access_count`` and
bypasses itself for keys whose ratio exceeds a threshold (write-intensive
keys).  The ratio self-heals when a key turns read-intensive because the
access counter keeps growing while the invalid counter stalls.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from .race import SlotRef

__all__ = ["AdaptiveIndexCache", "CacheEntry", "CacheStats"]


@dataclass(slots=True)
class CacheEntry:
    """One cached key: its slot, the word last seen there, and the counts
    behind the adaptive bypass.  ``bypassed`` is the adaptive decision of
    the latest access (not part of its value)."""

    slot_ref: SlotRef
    slot_word: int  # last observed slot content (fp | len | pointer)
    access_count: int = 0
    invalid_count: int = 0
    bypassed: bool = field(default=False, init=False, compare=False,
                           repr=False)

    @property
    def invalid_ratio(self) -> float:
        if self.access_count == 0:
            return 0.0
        return self.invalid_count / self.access_count


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    invalidations: int = 0
    evictions: int = 0


class AdaptiveIndexCache:
    """LRU cache of key -> (slot, KV address) with adaptive bypass."""

    def __init__(self, capacity: int = 65536, threshold: float = 0.5,
                 enabled: bool = True):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= threshold:
            raise ValueError("threshold must be non-negative")
        self.capacity = capacity
        self.threshold = threshold
        self.enabled = enabled
        self.stats = CacheStats()
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def lookup(self, key: bytes) -> Optional[CacheEntry]:
        """Return the entry to use for this access, or ``None`` on a miss
        or adaptive bypass (see :meth:`lookup_for_access`)."""
        entry = self.lookup_for_access(key)
        return None if entry is None or entry.bypassed else entry

    def lookup_for_access(self, key: bytes) -> Optional[CacheEntry]:
        """The key's entry, its ``bypassed`` set for this access, or None
        on a miss.

        A *bypassed* access still has the cached slot address available —
        the adaptive scheme only skips the parallel KV-pair fetch that
        would likely return an invalidated pair (§4.6).  The access
        counter is bumped in both cases, which is what lets a key's
        invalid ratio decay when it turns read-intensive.
        """
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        entry.access_count += 1
        self._entries.move_to_end(key)
        # invalid_ratio: 0 for a key never found stale (the common case),
        # else a division by the access count, positive here
        if entry.invalid_count \
                and entry.invalid_count / entry.access_count > self.threshold:
            self.stats.bypasses += 1
            entry.bypassed = True
        else:
            self.stats.hits += 1
            entry.bypassed = False
        return entry

    def peek(self, key: bytes) -> Optional[CacheEntry]:
        """Inspect without touching counters or LRU order (tests/recovery)."""
        return self._entries.get(key)

    def record_invalid(self, key: bytes) -> None:
        """The cached KV address turned out to point at an invalidated pair."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.invalid_count += 1
            self.stats.invalidations += 1

    def store(self, key: bytes, slot_ref: SlotRef, slot_word: int) -> None:
        """Install or refresh a mapping after an op observed the slot."""
        if not self.enabled:
            return
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[key] = CacheEntry(slot_ref, slot_word)
        else:
            entry.slot_ref = slot_ref
            entry.slot_word = slot_word
            self._entries.move_to_end(key)

    def drop(self, key: bytes) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
