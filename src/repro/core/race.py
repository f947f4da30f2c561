"""RACE hashing — the one-sided-RDMA-friendly hash index (§4.2).

Implemented from the RACE paper's description (Zuo et al., ATC'21), as
FUSEE did ("we implement RACE hashing carefully according to the paper"):

* The index is split into ``n_subtables`` subtables, each placed on ``r``
  memory nodes by consistent hashing (primary replica first) — this is
  what lets index load spread across the memory pool.
* A subtable is an array of *bucket groups*.  Each group holds three
  buckets ``[main0 | overflow | main1]``; the overflow bucket is shared by
  its two neighbours.  A key hashes to two groups (two independent hash
  functions); its *combined buckets* are ``(main0, overflow)`` of the
  first and ``(overflow, main1)`` of the second — each a single contiguous
  READ, so one doorbell batch (1 RTT) fetches all candidate slots.
* Each slot is the 8-byte fingerprint/length/pointer word of
  :mod:`repro.core.wire`; modifications are out-of-place: write the KV
  block elsewhere, then CAS the slot.

This module is deliberately **pure**: it computes verb lists and parses
payloads but never talks to the fabric, so the protocol layers above own
all timing.  A bucket read is decoded on demand (:class:`BucketView`):
fingerprint hits by a scan of the payload's fingerprint column, free
slot indexes when an INSERT reads them; nothing is kept per read.  RACE's
extendible-resize directory is implemented here (``staged_split`` /
``commit_split``); the split itself — a stop-the-world per-subtable
reorganisation — is executed by the master (``Master.expand_subtable``),
reusing the same barrier machinery as MN failover, since the FUSEE paper
leaves replicated resizing undefined.
A subtable whose candidate buckets are all full raises
:class:`IndexFullError`, which clients escalate into an expansion request.
"""

from __future__ import annotations

import hashlib
import struct as _struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..rdma import ReadOp
from .wire import SLOT_SIZE, Slot, make_fingerprint, unpack_slot

__all__ = [
    "RaceConfig",
    "KeyMeta",
    "SlotRef",
    "SlotSnapshot",
    "BucketView",
    "RaceHashing",
    "IndexFullError",
]

BUCKETS_PER_GROUP = 3
_unpack_word = _struct.Struct(">Q").unpack_from   # one big-endian slot word


class IndexFullError(Exception):
    """Both combined buckets of a key are full; the index needs a split."""


@dataclass(frozen=True)
class RaceConfig:
    """Geometry of the replicated RACE index."""

    n_subtables: int = 16
    n_groups: int = 128         # bucket groups per subtable
    slots_per_bucket: int = 7

    def __post_init__(self):
        if self.n_subtables < 1 or self.n_groups < 2 or self.slots_per_bucket < 1:
            raise ValueError("invalid RACE geometry")
        if self.n_subtables & (self.n_subtables - 1):
            raise ValueError("n_subtables must be a power of two "
                             "(extendible directory addressing)")

    @property
    def bucket_bytes(self) -> int:
        return self.slots_per_bucket * SLOT_SIZE

    @property
    def slots_per_subtable(self) -> int:
        return self.n_groups * BUCKETS_PER_GROUP * self.slots_per_bucket

    @property
    def subtable_bytes(self) -> int:
        return self.slots_per_subtable * SLOT_SIZE

    @property
    def slots_per_key(self) -> int:
        """Associativity: total candidate slots for any key."""
        return 4 * self.slots_per_bucket


def hash_key(key: bytes) -> int:
    """128-bit stable hash of a key."""
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=16).digest(), "big")


@dataclass(slots=True, unsafe_hash=True)
class KeyMeta:
    """Everything derived from hashing one key."""

    subtable: int
    group1: int
    group2: int
    fingerprint: int


@dataclass(slots=True, unsafe_hash=True)
class SlotRef:
    """Identity of one logical slot across all index replicas.

    ``primary_read`` is the READ of the slot's primary word (a verb is an
    immutable value), made when a cached access first asks
    :meth:`RaceHashing.current_ref` for the ref, and None before: every
    cached access posts it, while a bulk load makes a ref per key and
    never reads one.
    """

    subtable: int
    slot_index: int  # within the subtable's slot array
    placement: Tuple[Tuple[int, int], ...]  # ((mn_id, subtable base), ...)
    primary_read: Optional[ReadOp] = field(default=None, init=False,
                                           compare=False, repr=False)

    def locations(self) -> List[Tuple[int, int]]:
        """(mn_id, byte address) of every replica of this slot, primary first."""
        off = self.slot_index * SLOT_SIZE
        return [(mn_id, base + off) for mn_id, base in self.placement]

    def primary(self) -> Tuple[int, int]:
        mn_id, base = self.placement[0]
        return mn_id, base + self.slot_index * SLOT_SIZE

    def backups(self) -> List[Tuple[int, int]]:
        off = self.slot_index * SLOT_SIZE
        return [(mn_id, base + off) for mn_id, base in self.placement[1:]]

    @property
    def key(self) -> Tuple[int, int]:
        return (self.subtable, self.slot_index)


@dataclass(slots=True, unsafe_hash=True)
class SlotSnapshot:
    """A slot reference plus the value observed in the primary replica."""

    ref: SlotRef
    word: int

    @property
    def slot(self) -> Slot:
        """The decoded word — a fresh :class:`Slot` per access: bind it."""
        return unpack_slot(self.word)


class BucketView:
    """Candidate slots for one key, from one bucket read.

    ``matches`` (fingerprint hits, ordered by slot index) is decoded with
    the view; ``empties`` (free slot indexes in the key's subtable,
    preferred insert order) and ``occupied`` (non-empty slots seen, the
    load metric) from the kept payloads when first read — only an INSERT
    does, and it builds a :class:`SlotRef` only for the slot it tries.
    A view, not a value: it compares by identity.
    """

    __slots__ = ("matches", "_undecoded", "_empties", "_occupied",
                 "__weakref__")   # so a test can watch a view die

    def __init__(self, matches: Tuple[SlotSnapshot, ...], undecoded: tuple):
        self.matches = matches
        self._undecoded = undecoded   # (race, scan, payloads)

    @property
    def empties(self) -> Tuple[int, ...]:
        if self._undecoded:
            race, *read = self._undecoded
            self._empties, self._occupied = race._free_slots(*read)
            self._undecoded = None   # the payloads are not needed again
        return self._empties

    @property
    def occupied(self) -> int:
        self.empties   # decodes both
        return self._occupied

    def __repr__(self) -> str:
        return (f"BucketView(matches={self.matches!r}, "
                f"empties={self.empties!r}, occupied={self.occupied!r})")


class RaceHashing:
    """Pure helper owning the geometry and placement of the index."""

    def __init__(self, config: RaceConfig,
                 placements: Dict[int, Sequence[Tuple[int, int]]]):
        """``placements[subtable] = [(mn_id, base offset), ...]``, primary
        replica first.  All replicas of a subtable share the layout.

        Subtables are addressed through an *extendible directory* (the
        RACE design): a key's hash suffix indexes the directory, which
        names a physical subtable.  Initially the directory is the
        identity over ``n_subtables`` entries; splits (driven by the
        master, see ``Master.expand_subtable``) grow it.
        """
        if set(placements) != set(range(config.n_subtables)):
            raise ValueError("placements must cover every subtable")
        self.config = config
        self._placements: Dict[int, Tuple[Tuple[int, int], ...]] = {
            st: tuple(pl) for st, pl in placements.items()}
        depth = config.n_subtables.bit_length() - 1
        self._directory: List[int] = list(range(config.n_subtables))
        self._local_depth: Dict[int, int] = {
            st: depth for st in range(config.n_subtables)}
        # SlotRef objects are immutable and shared by every op on a slot;
        # memoise them per (subtable, index).  Any placement change
        # invalidates the cache — refs embed the placement tuple.
        self._slot_ref_cache: Dict[Tuple[int, int], SlotRef] = {}
        self._n_slots = config.slots_per_subtable
        # A key's combined buckets, per group: (main0 + overflow) of its
        # first group, (overflow + main1) of its second.  Geometry only,
        # so never invalidated.
        spb = config.slots_per_bucket
        self._first_ranges = {
            group: (group * BUCKETS_PER_GROUP * spb, 2 * spb)
            for group in range(config.n_groups)}
        self._second_ranges = {
            group: ((group * BUCKETS_PER_GROUP + 1) * spb, 2 * spb)
            for group in range(config.n_groups)}
        # key -> KeyMeta; dropped on directory changes (see key_meta).
        self._meta_cache: Dict[bytes, KeyMeta] = {}
        # One combined bucket = 2 adjacent buckets; unpack all its slot
        # words with a single struct call (big-endian u64s, identical to
        # per-slot int.from_bytes(..., "big")).
        self._cb_struct = _struct.Struct(
            ">%dQ" % (2 * config.slots_per_bucket))

    # -- placement management (master reconfiguration, §5.2) -------------------
    def placement(self, subtable: int) -> Tuple[Tuple[int, int], ...]:
        return self._placements[subtable]

    def reconfigure(self, subtable: int,
                    placement: Sequence[Tuple[int, int]]) -> None:
        if not placement:
            raise ValueError("placement cannot be empty")
        self._placements[subtable] = tuple(placement)
        self._slot_ref_cache.clear()

    def subtables_on(self, mn_id: int) -> List[int]:
        return [st for st, pl in self._placements.items()
                if any(mn == mn_id for mn, _ in pl)]

    # -- extendible directory ---------------------------------------------------
    @property
    def global_depth(self) -> int:
        return len(self._directory).bit_length() - 1

    @property
    def directory(self) -> List[int]:
        return list(self._directory)

    def physical_tables(self) -> List[int]:
        return sorted(self._placements)

    def local_depth(self, subtable: int) -> int:
        return self._local_depth[subtable]

    def table_for_digest(self, digest: int) -> int:
        return self._directory[digest & (len(self._directory) - 1)]

    def staged_split(self, old: int):
        """Plan a split of physical table ``old`` (pure, no mutation).

        Returns ``(new_id, staged_directory, key_router)`` where
        ``key_router(digest)`` maps a digest to ``old`` or ``new_id``
        under the post-split directory.
        """
        if old not in self._placements:
            raise ValueError(f"unknown subtable {old}")
        depth = self._local_depth[old]
        directory = list(self._directory)
        if depth == self.global_depth:
            # suffix addressing: doubling appends a copy of the directory
            directory = directory + directory
        new_id = max(self._placements) + 1
        for i, table in enumerate(directory):
            if table == old and (i >> depth) & 1:
                directory[i] = new_id
        mask = len(directory) - 1

        def key_router(digest: int) -> int:
            return directory[digest & mask]

        return new_id, directory, key_router

    def commit_split(self, old: int, new_id: int, directory: List[int],
                     placement: Sequence[Tuple[int, int]]) -> None:
        """Install a split planned by :meth:`staged_split`."""
        self._directory = list(directory)
        self._local_depth[old] += 1
        self._local_depth[new_id] = self._local_depth[old]
        self._placements[new_id] = tuple(placement)
        self._slot_ref_cache.clear()
        self._meta_cache.clear()

    def check_directory_invariants(self) -> None:
        """Every physical table owns exactly 2^(G-L) directory entries,
        all congruent modulo 2^L (raise AssertionError otherwise)."""
        size = len(self._directory)
        assert size & (size - 1) == 0
        for table, depth in self._local_depth.items():
            entries = [i for i, t in enumerate(self._directory)
                       if t == table]
            assert len(entries) == size >> depth, (table, entries)
            low = entries[0] & ((1 << depth) - 1)
            assert all(e & ((1 << depth) - 1) == low for e in entries),                 (table, entries)

    # -- key hashing -------------------------------------------------------------
    def key_meta(self, key: bytes) -> KeyMeta:
        """Hash a key; memoised (the blake2b digest plus two modular
        reductions run for every client operation).  The memo is dropped
        whenever the extendible directory changes — a key's subtable
        routing may move on a split — and capped so insert-heavy runs
        with endless fresh keys cannot grow it without bound."""
        meta = self._meta_cache.get(key)
        if meta is None:
            if len(self._meta_cache) > 131072:
                self._meta_cache.clear()
            meta = self.key_meta_for_digest(hash_key(key))
            self._meta_cache[key] = meta
        return meta

    def key_meta_for_digest(self, digest: int) -> KeyMeta:
        n_groups = self.config.n_groups
        group1 = (digest >> 16) % n_groups
        group2 = (digest >> 48) % n_groups
        if group2 == group1:
            group2 = (group2 + 1) % n_groups
        return KeyMeta(self.table_for_digest(digest), group1, group2,
                       make_fingerprint(digest))

    # -- slot addressing -----------------------------------------------------------
    def slot_ref(self, subtable: int, slot_index: int) -> SlotRef:
        ref = self._slot_ref_cache.get((subtable, slot_index))
        if ref is not None:
            return ref
        if not 0 <= slot_index < self._n_slots:
            raise IndexError(f"slot index {slot_index} out of range")
        ref = SlotRef(subtable, slot_index, self._placements[subtable])
        self._slot_ref_cache[(subtable, slot_index)] = ref
        return ref

    def current_ref(self, ref: SlotRef) -> SlotRef:
        """The ref a cached access posts through, its ``primary_read``
        made: ``ref`` itself while its subtable keeps the placement
        ``ref`` was made with, else the same slot's ref under the current
        one — the master may have reconfigured the placement since a
        client cached ``ref`` (§5.2)."""
        if ref.placement is not self._placements[ref.subtable]:
            ref = self.slot_ref(ref.subtable, ref.slot_index)
        if ref.primary_read is None:
            ref.primary_read = ReadOp(*ref.primary(), SLOT_SIZE)
        return ref

    def _combined_ranges(self, meta: KeyMeta) -> Tuple[Tuple[int, int], ...]:
        """Two (first slot index, slot count) ranges: the combined buckets.

        Looked up in two per-group tables built once (a key's first range
        depends on ``group1`` only, its second on ``group2`` only), so no
        memo grows per group pair, and a group outside the subtable is a
        miss in its table.
        """
        try:
            return (self._first_ranges[meta.group1],
                    self._second_ranges[meta.group2])
        except KeyError as missing:
            raise ValueError(f"group {missing.args[0]} not in a subtable's "
                             f"0..{self.config.n_groups - 1}") from None

    def bucket_read_ops(self, meta: KeyMeta,
                        replica: int = 0) -> List[ReadOp]:
        """The two contiguous READs fetching all candidate slots of a key."""
        mn_id, base = self._placements[meta.subtable][replica]
        return [ReadOp(mn_id, base + start * SLOT_SIZE, count * SLOT_SIZE)
                for start, count in self._combined_ranges(meta)]

    def parse_buckets(self, meta: KeyMeta,
                      payloads: Sequence[bytes]) -> BucketView:
        """Parse the two combined-bucket payloads (bytes-like) into candidates.

        The fingerprint is byte 0 of each big-endian slot word, so every
        eighth byte of a payload is its fingerprint column and
        ``bytes.find`` names the hits without unpacking the other words.
        Fingerprint hits are ordered by (subtable-wide) slot index so that
        concurrent readers resolve duplicate keys identically.  The view
        keeps ``payloads`` to decode the empty slots if asked.
        """
        ranges = self._combined_ranges(meta)
        if len(payloads) != len(ranges):
            raise ValueError("expected one payload per combined bucket")
        # Visit the ranges by slot index — (payload number, first slot,
        # leading slots the range before covered) — so each candidate is
        # seen once and in order.  They overlap only when both hashes name
        # one group: the second range then opens with the overflow bucket
        # that closes the first.
        (cb1, count), (cb2, _count) = ranges
        shared = count // 2 if meta.group1 == meta.group2 else 0
        scan = (((0, cb1, 0), (1, cb2, shared)) if cb1 < cb2
                else ((1, cb2, 0), (0, cb1, 0)))
        fingerprint, cb_bytes = meta.fingerprint, self._cb_struct.size
        matches: Tuple[SlotSnapshot, ...] = ()
        for which, start, skip in scan:
            payload = payloads[which]
            if len(payload) != cb_bytes:
                raise ValueError("payload length mismatch")
            column = bytes(payload[::SLOT_SIZE])
            i = column.find(fingerprint, skip)
            while i >= 0:
                word, = _unpack_word(payload, i * SLOT_SIZE)
                if word:  # an all-zero word is an empty slot, not a hit
                    matches += (SlotSnapshot(
                        self.slot_ref(meta.subtable, start + i), word),)
                i = column.find(fingerprint, i + 1)
        return BucketView(matches, (self, scan, payloads))

    def _free_slots(self, scan: tuple, payloads):
        """``(empties, occupied)`` of one bucket read, for its view.

        Empty slots are slot indexes within the read's subtable, ordered
        to fill the *less loaded* combined bucket first, which is RACE's
        load-balancing rule (ties in hash order, slot order within a
        bucket; a shared slot counts for the first).  No :class:`SlotRef`
        is built here: an INSERT resolves one for the slot it tries.
        """
        per_cb = []
        for which, start, skip in scan:
            words = self._cb_struct.unpack(payloads[which])[skip:]
            free = [index for index, word in enumerate(words, start + skip)
                    if not word]
            per_cb.append((len(words) - len(free), which, free))
        per_cb.sort()   # by (load, hash order); never reaches the lists
        return (tuple([index for _load, _which, free in per_cb
                       for index in free]),
                sum(load for load, _which, _free in per_cb))

    # -- bulk helpers for the master ------------------------------------------------
    def subtable_read_op(self, subtable: int, replica_mn: int,
                         base: int) -> ReadOp:
        """READ an entire subtable replica (used by failover repair)."""
        return ReadOp(replica_mn, base, self.config.subtable_bytes)

    def iter_slot_words(self, payload: bytes):
        """Yield (slot_index, word) for a whole-subtable payload."""
        n_slots, ragged = divmod(len(payload), SLOT_SIZE)
        if ragged:
            raise ValueError(f"not a whole number of slots: {len(payload)} B")
        return enumerate(_struct.unpack(">%dQ" % n_slots, payload))
