"""The fast loaders must be indistinguishable from protocol-driven loads."""

import pytest

from repro.baselines import CloverCluster, CloverConfig, PdpmCluster, PdpmConfig
from repro.core import FuseeCluster, RaceConfig
from repro.core.oplog import entry_for_alloc
from repro.core.wire import OP_INSERT, encode_kv_block, kv_block_size, \
    kv_len_units, pack_slot
from repro.harness import fusee_bed
from repro.harness.loader import clover_load, fusee_load, pdpm_load
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


class TestFuseeLoad:
    def test_loaded_keys_searchable(self, cluster):
        loader = cluster.new_client()
        items = [(f"key-{i}".encode(), f"value-{i}".encode())
                 for i in range(100)]
        assert fusee_load(cluster, loader, items) == 100
        reader = cluster.new_client()
        for key, value in items:
            result = run(cluster, reader.search(key))
            assert result.ok and result.value == value

    def test_loaded_keys_updatable(self, cluster):
        loader = cluster.new_client()
        fusee_load(cluster, loader, [(b"k", b"v")])
        client = cluster.new_client()
        assert run(cluster, client.update(b"k", b"w")).ok
        assert run(cluster, client.search(b"k")).value == b"w"

    def test_loaded_keys_deletable(self, cluster):
        loader = cluster.new_client()
        fusee_load(cluster, loader, [(b"k", b"v")])
        client = cluster.new_client()
        assert run(cluster, client.delete(b"k")).ok
        assert not run(cluster, client.search(b"k")).ok

    def test_duplicate_insert_detected_after_load(self, cluster):
        loader = cluster.new_client()
        fusee_load(cluster, loader, [(b"k", b"v")])
        client = cluster.new_client()
        result = run(cluster, client.insert(b"k", b"w"))
        assert not result.ok and result.existed

    def test_load_matches_protocol_insert_bytes(self, cluster):
        """A loaded object and a protocol-inserted object of the same pair
        decode identically (header, payload, trailing used bit)."""
        from repro.core.wire import decode_kv_payload, unpack_slot
        loader = cluster.new_client()
        fusee_load(cluster, loader, [(b"same-key", b"same-value")])
        client = cluster.new_client()
        run(cluster, client.insert(b"other-key", b"same-value"))

        def image_for(reader_client, key):
            result = run(cluster, reader_client.search(key))
            assert result.ok
            entry = reader_client.cache.peek(key)
            slot = unpack_slot(entry.slot_word)
            mn, addr = cluster.region_map.translate(slot.pointer)[0]
            return bytes(cluster.fabric.node(mn).memory[
                addr:addr + slot.block_bytes])

        loaded = image_for(client, b"same-key")
        inserted = image_for(client, b"other-key")
        _h1, _k1, v1 = decode_kv_payload(loaded)
        _h2, _k2, v2 = decode_kv_payload(inserted)
        assert v1 == v2

    def test_load_registers_block_ownership(self, cluster):
        loader = cluster.new_client()
        items = [(f"key-{i}".encode(), b"x" * 200) for i in range(50)]
        fusee_load(cluster, loader, items)
        found = []

        def proc():
            for mn_id in cluster.fabric.nodes:
                reply = yield cluster.fabric.rpc(
                    mn_id, "find_client_blocks", {"cid": loader.cid})
                found.extend(reply["blocks"])

        run(cluster, proc())
        assert len(found) >= 1

    def test_a_loaded_bed_keeps_no_loader_cache(self):
        """A bed's own loader client runs no op: the entry it cached per
        loaded key is dropped when the load returns (or raises)."""
        bed = fusee_bed(n_memory_nodes=2, dataset_bytes=1 << 20)
        loader = bed.cluster.clients[0]
        assert bed.load([(b"k%d" % i, b"v") for i in range(50)]) == 50
        assert len(loader.cache) == 0 and loader.stats.ops == {}
        with pytest.raises(ValueError, match="b'k7'"):
            bed.load([(b"fresh", b"y"), (b"k7", b"w")])
        assert len(loader.cache) == 0
        client = bed.new_client()
        assert bed.cluster.run_op(client.search(b"k7")).value == b"v"

    def test_recovery_after_load_and_crash(self, cluster):
        """Loaded state composes with the crash-recovery machinery."""
        from repro.core.client import ClientCrashed, CrashPoint
        loader = cluster.new_client()
        fusee_load(cluster, loader,
                   [(f"key-{i}".encode(), b"v") for i in range(20)])
        loader.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, loader.update(b"key-3", b"crashed"))

        def proc():
            return (yield from cluster.master.recover_client(loader.cid))

        run(cluster, proc())
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"key-3")).value == b"crashed"


def _per_key_reference_load(cluster, client, items):
    """The loader as it was before it became one process: one DES process
    and one ``env.run`` per key, slot picked by a word-at-a-time scan.
    Kept here as the reference the one-process loader must reproduce."""
    race = cluster.race
    for key, value in items:
        class_idx = client.allocator.class_for(
            kv_block_size(len(key), len(value)))
        alloc = cluster.run_op(client.allocator.alloc(class_idx))
        entry = entry_for_alloc(alloc, OP_INSERT)
        block = encode_kv_block(key, value, alloc.size, entry)
        for mn_id, addr in cluster.region_map.translate(alloc.gaddr):
            node = cluster.fabric.node(mn_id)
            node.memory[addr:addr + len(block)] = block
        meta = race.key_meta(key)
        word = pack_slot(meta.fingerprint, kv_len_units(len(key), len(value)),
                         alloc.gaddr)
        mn_id, base = race.placement(meta.subtable)[0]
        node = cluster.fabric.node(mn_id)
        index = next(start + i
                     for start, count in race._combined_ranges(meta)
                     for i in range(count)
                     if node.read_word(base + (start + i) * 8) == 0)
        ref = race.slot_ref(meta.subtable, index)
        for mn_id, addr in ref.locations():
            cluster.fabric.node(mn_id).write_word(addr, word)
        client.cache.store(key, ref, word)


def _crowding(cluster, client, items):
    """``(keys whose slot is in their second combined bucket, keys whose
    buckets held another key's live slot with their fingerprint when they
    were loaded)`` of a finished load: slots never move during one."""
    race = cluster.race
    refs = {key: client.cache.peek(key).slot_ref for key, _value in items}
    second_bucket = shared_fingerprint = 0
    for n, (key, _value) in enumerate(items):
        meta = race.key_meta(key)
        (_, _), (start2, count2) = ranges = race._combined_ranges(meta)
        if start2 <= refs[key].slot_index < start2 + count2:
            second_bucket += 1
        candidates = {index for start, count in ranges
                      for index in range(start, start + count)}
        if any(refs[earlier].subtable == meta.subtable
               and refs[earlier].slot_index in candidates
               and race.key_meta(earlier).fingerprint == meta.fingerprint
               for earlier, _v in items[:n]):
            shared_fingerprint += 1
    return second_bucket, shared_fingerprint


class TestOneProcessLoad:
    """One generator under one ``run_op`` leaves the cluster exactly as the
    per-key loop did: same bytes, same simulated clock, same counters."""

    # Two size classes (192 B and 768 B objects in 8 KB blocks), each
    # refilled at least three times: 42 and 10 objects per block.
    ITEMS = [(f"key-{i:04d}".encode(),
              bytes([i % 251]) * (700 if i % 4 == 0 else 100))
             for i in range(180)]

    @staticmethod
    def _state(cluster, client):
        allocator = client.allocator
        classes = range(len(allocator.size_classes))
        return {
            "memory": {mn_id: bytes(node.memory)
                       for mn_id, node in cluster.fabric.nodes.items()},
            "now": cluster.env.now,
            "stats": cluster.fabric.stats.snapshot(),
            "owned": allocator.owned_blocks(),
            "free": [allocator.free_list_len(c) for c in classes],
            "heads": [allocator.head(c) for c in classes],
            "cache": list(client.cache._entries.items()),
        }

    #: A RACE index 47 % full after the load: 6 keys find their first
    #: combined bucket full, and 3 keys share a fingerprint with another
    #: key's live slot in their buckets (see ``_crowding``).
    CROWDED = RaceConfig(n_subtables=4, n_groups=8, slots_per_bucket=4)

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(replication_factor=1), id="1"),
        pytest.param(dict(replication_factor=2), id="2"),
        pytest.param(dict(replication_factor=1, index_replication=2),
                     id="index-replication-2"),
        pytest.param(dict(race=CROWDED), id="crowded"),
    ])
    def test_same_cluster_state_as_the_per_key_loop(self, overrides):
        states = []
        for load in (fusee_load, _per_key_reference_load):
            cluster = FuseeCluster(small_config(**overrides))
            client = cluster.new_client()
            load(cluster, client, self.ITEMS)
            states.append(self._state(cluster, client))
        new, reference = states
        for part in reference:
            assert new[part] == reference[part], part
        blocks_per_class = {}
        for _region, _block, class_idx in reference["owned"]:
            blocks_per_class[class_idx] = \
                blocks_per_class.get(class_idx, 0) + 1
        assert len(blocks_per_class) == 2
        assert min(blocks_per_class.values()) >= 3
        assert reference["stats"].rpcs >= 6
        if "race" in overrides:
            # the slot scan's two harder cases both occur
            second_bucket, shared_fingerprint = _crowding(cluster, client,
                                                          self.ITEMS)
            assert second_bucket >= 1 and shared_fingerprint >= 1

    def test_load_accepts_a_one_shot_iterator(self, cluster):
        loader = cluster.new_client()
        assert fusee_load(cluster, loader, iter(self.ITEMS[:5])) == 5


class TestDuplicateKeys:
    """A key may be loaded once: a second live slot for it is the state
    the INSERT path's dedup sweep exists to prevent."""

    def test_duplicate_within_one_load_raises(self, cluster):
        loader = cluster.new_client()
        with pytest.raises(ValueError, match="b'k'"):
            fusee_load(cluster, loader,
                       [(b"a", b"1"), (b"k", b"v1"), (b"k", b"v2")])
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"v1"
        assert run(cluster, reader.delete(b"k")).ok
        assert not run(cluster, reader.search(b"k")).ok

    def test_duplicate_across_two_bed_loads_raises(self):
        bed = fusee_bed(n_memory_nodes=2, dataset_bytes=1 << 20)
        assert bed.load([(b"k", b"v1"), (b"other", b"x")]) == 2
        with pytest.raises(ValueError, match="b'k'"):
            bed.load([(b"fresh", b"y"), (b"k", b"v2")])
        client = bed.new_client()
        assert bed.cluster.run_op(client.search(b"fresh")).value == b"y"
        assert bed.cluster.run_op(client.search(b"k")).value == b"v1"

    def test_duplicate_found_past_a_hole_left_by_a_delete(self, cluster):
        """The scan does not stop at the first empty slot: a key whose
        earlier bucket neighbours were deleted is still found."""
        loader = cluster.new_client()
        race = cluster.race
        target = race.key_meta(b"probe-0")
        same_bucket = [b"probe-0"]
        i = 1
        while len(same_bucket) < 3:
            key = f"probe-{i}".encode()
            meta = race.key_meta(key)
            if (meta.subtable, meta.group1, meta.group2) == (
                    target.subtable, target.group1, target.group2):
                same_bucket.append(key)
            i += 1
        fusee_load(cluster, loader, [(key, b"v") for key in same_bucket])
        client = cluster.new_client()
        assert run(cluster, client.delete(same_bucket[0])).ok
        allocator = loader.allocator
        classes = range(len(allocator.size_classes))
        free_before = [allocator.free_list_len(c) for c in classes]
        with pytest.raises(ValueError, match=repr(same_bucket[2])[1:]):
            fusee_load(cluster, loader, [(same_bucket[2], b"again")])
        # rejected before allocating: no unwritten object in the log chain
        assert [allocator.free_list_len(c) for c in classes] == free_before
        assert fusee_load(cluster, loader, [(same_bucket[0], b"back")]) == 1

    def test_same_fingerprint_different_key_is_not_a_duplicate(self,
                                                               cluster):
        loader = cluster.new_client()
        race = cluster.race
        target = race.key_meta(b"twin-0")
        i = 1
        while True:
            twin = f"twin-{i}".encode()
            meta = race.key_meta(twin)
            if meta == target:
                break
            i += 1
        assert fusee_load(cluster, loader,
                          [(b"twin-0", b"a"), (twin, b"b")]) == 2
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"twin-0")).value == b"a"
        assert run(cluster, reader.search(twin)).value == b"b"
        # the twin is the second fingerprint hit of its buckets: the scan
        # reads past the first
        with pytest.raises(ValueError, match=repr(twin)[1:]):
            fusee_load(cluster, loader, [(twin, b"again")])


class TestCloverLoad:
    def test_loaded_keys_searchable(self):
        cluster = CloverCluster(CloverConfig())
        items = [(f"key-{i}".encode(), f"v-{i}".encode()) for i in range(50)]
        assert clover_load(cluster, items) == 50
        client = cluster.new_client()
        for key, value in items:
            assert cluster.run_op(client.search(key)) == value

    def test_loaded_keys_updatable(self):
        cluster = CloverCluster(CloverConfig())
        clover_load(cluster, [(b"k", b"v")])
        client = cluster.new_client()
        assert cluster.run_op(client.update(b"k", b"w"))
        assert cluster.run_op(client.search(b"k")) == b"w"


class TestPdpmLoad:
    def test_loaded_keys_searchable(self):
        cluster = PdpmCluster(PdpmConfig())
        items = [(f"key-{i}".encode(), f"v-{i}".encode()) for i in range(50)]
        assert pdpm_load(cluster, items) == 50
        client = cluster.new_client()
        for key, value in items:
            assert cluster.run_op(client.search(key)) == value

    def test_loaded_keys_updatable_and_deletable(self):
        cluster = PdpmCluster(PdpmConfig())
        pdpm_load(cluster, [(b"k", b"v")])
        client = cluster.new_client()
        assert cluster.run_op(client.update(b"k", b"w"))
        assert cluster.run_op(client.search(b"k")) == b"w"
        assert cluster.run_op(client.delete(b"k"))
        assert cluster.run_op(client.search(b"k")) is None
