"""Fast dataset loading.

The paper preloads 100,000 keys before each YCSB run.  Driving every load
through the full simulated protocol is wasted wall-clock time (load-phase
performance is not measured), so the loaders below write memory-node
memory directly — producing byte-for-byte the same layout the normal
INSERT path would (verified by ``tests/test_loader.py``) — while
registering ownership with the same allocators the clients use.

A FUSEE load is one simulation process for the whole key set: the only
simulated work is the allocator's (ALLOC RPCs and list-head WRITEs, at
the simulated times a protocol-driven load would issue them); blocks and
slot words are stored straight into the MNs' mappings, which stay zero —
and unmaterialised on the host — wherever nothing was loaded.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..baselines.clover import CloverCluster
from ..baselines.common import encode_record, record_size
from ..baselines.pdpm import PdpmCluster
from ..core.client import FuseeClient
from ..core.kvstore import FuseeCluster
from ..core.oplog import entry_for_alloc
from ..core.wire import KV_HOLDS_KEY, OP_INSERT, SLOT_SIZE, \
    encode_kv_block, kv_block_size, kv_len_units, match_kv, pack_slot, \
    unpack_slot

__all__ = ["fusee_load", "clover_load", "pdpm_load"]

_EMPTY_WORD = bytes(SLOT_SIZE)


def fusee_load(cluster: FuseeCluster, client: FuseeClient,
               items: Iterable[Tuple[bytes, bytes]]) -> int:
    """Bulk-load KV pairs through ``client``'s allocator, bypassing the
    protocol.

    Every byte written matches what the INSERT path would produce
    (KV block + embedded log entry on all data replicas, slot words on all
    index replicas, block tables/heads via the allocator), so subsequent
    simulated operations behave identically to a protocol-driven load.
    Raises ``ValueError`` for a key that is already in the index, whether
    from earlier in ``items`` or from an earlier load.
    """
    return cluster.run_op(_load(cluster, client, items))


def _load(cluster: FuseeCluster, client: FuseeClient, items):
    """The load as one DES generator; its only yields are the allocator's.

    Per key it pays for the key's hash, one read of each combined bucket,
    the allocation and the writes: everything else is bound once here.
    """
    allocator = client.allocator
    alloc_object, class_for = allocator.alloc, allocator.class_for
    key_meta, slot_ref = cluster.race.key_meta, cluster.race.slot_ref
    translate = cluster.region_map.translate
    nodes = cluster.fabric.nodes
    store = client.cache.store
    loaded = 0
    for key, value in items:
        meta = key_meta(key)
        # Before allocating: a rejected key must not leave an unwritten
        # object in the client's log chain (recovery stops walking there).
        ref = slot_ref(meta.subtable, _pick_slot(cluster, meta, key))
        key_len, value_len = len(key), len(value)
        alloc = yield from alloc_object(
            class_for(kv_block_size(key_len, value_len)))
        block = encode_kv_block(key, value, alloc.size,
                                entry_for_alloc(alloc, OP_INSERT))
        end = len(block)
        for mn_id, addr in translate(alloc.gaddr):
            nodes[mn_id].memory[addr:addr + end] = block
        word = pack_slot(meta.fingerprint, kv_len_units(key_len, value_len),
                         alloc.gaddr)
        for mn_id, addr in ref.locations():
            nodes[mn_id].write_word(addr, word)
        store(key, ref, word)
        loaded += 1
    return loaded


def _pick_slot(cluster: FuseeCluster, meta, key: bytes) -> int:
    """Index of the first empty candidate slot for ``key``, reading
    memory directly.

    Each combined bucket is read once and searched in C: its fingerprint
    column (byte 0 of every big-endian slot word) for live slots that may
    hold ``key``, and its bytes for the first aligned all-zero word.
    Every candidate is checked, not just those up to the first hole: a
    live slot whose fingerprint and stored key both match means the key
    is already installed, and a second slot for it would break the
    one-live-slot-per-key invariant every reader relies on.
    """
    race = cluster.race
    mn_id, base = race.placement(meta.subtable)[0]
    memory = cluster.fabric.nodes[mn_id].memory
    fingerprint = meta.fingerprint
    empty = None
    for start, count in race._combined_ranges(meta):
        lo = base + start * SLOT_SIZE
        raw = memory[lo:lo + count * SLOT_SIZE]
        column = raw[::SLOT_SIZE]
        i = column.find(fingerprint)
        while i >= 0:
            word = int.from_bytes(raw[i * SLOT_SIZE:(i + 1) * SLOT_SIZE],
                                  "big")
            if word and _holds_key(cluster, word, key):
                raise ValueError(f"bulk load: key {key!r} is already loaded")
            i = column.find(fingerprint, i + 1)
        if empty is None:
            hole = raw.find(_EMPTY_WORD)
            while hole > 0 and hole % SLOT_SIZE:   # straddles two words
                hole = raw.find(_EMPTY_WORD, hole + 1)
            if hole >= 0:
                empty = start + hole // SLOT_SIZE
    if empty is None:
        raise RuntimeError("index full during bulk load — enlarge RaceConfig")
    return empty


def _holds_key(cluster: FuseeCluster, word: int, key: bytes) -> bool:
    """Does the KV block a live slot word points at hold ``key``?"""
    slot = unpack_slot(word)
    mn_id, addr = cluster.region_map.translate(slot.pointer)[0]
    memory = cluster.fabric.node(mn_id).memory
    image = memory[addr:addr + slot.block_bytes]
    return match_kv(image, key)[0] in KV_HOLDS_KEY


def clover_load(cluster: CloverCluster, items) -> int:
    """Bulk-load records into a Clover cluster (index is server-side)."""
    cfg = cluster.config
    loaded = 0
    serial = 0
    for key, value in items:
        size = record_size(key, value)
        aligned = (size + 63) // 64 * 64
        serial += 1
        mns = cluster.replica_mns(serial)
        locs = []
        for mn in mns:
            base = cluster._bump[mn]
            cluster._bump[mn] += aligned
            if cluster._bump[mn] > cfg.mn_capacity:
                raise MemoryError("Clover pool exhausted during load")
            locs.append((mn, base))
        record = encode_record(key, value)
        for mn, addr in locs:
            node = cluster.fabric.node(mn)
            node.memory[addr:addr + len(record)] = record
        cluster._index[key] = (tuple(locs), size)
        loaded += 1
    return loaded


def pdpm_load(cluster: PdpmCluster, items) -> int:
    """Bulk-load records into a pDPM-Direct cluster."""
    cfg = cluster.config
    loaded = 0
    for key, value in items:
        primary_mn, offset = cluster.alloc_record()
        record = encode_record(key, value)
        if len(record) > cfg.record_capacity:
            raise ValueError("record exceeds pDPM slab capacity")
        for mn, addr in cluster.record_locs(primary_mn, offset):
            node = cluster.fabric.node(mn)
            node.memory[addr:addr + len(record)] = record
        bucket = cluster.bucket_of(key)
        word = cluster.slot_word(primary_mn, offset)
        node0 = cluster.fabric.node(cluster.index_mn)
        placed = False
        for i in range(cfg.slots_per_bucket):
            addr = cluster.bucket_addr(bucket) + 8 * (1 + i)
            if node0.read_word(addr) == 0:
                node0.write_word(addr, word)
                placed = True
                break
        if not placed:
            raise RuntimeError("pDPM bucket full during load — "
                               "enlarge n_buckets")
        loaded += 1
    return loaded
