"""Tests for two-level memory management (§4.4)."""

import pytest

from repro.core.memory import (
    AllocationError,
    MnBlockAllocator,
    pack_block_entry,
    size_classes_for,
    unpack_block_entry,
)
from repro.core.wire import NULL_ADDR
from repro.faults import CN, FaultInjector, FaultPlan, Partition
from repro.harness.systems import fusee_bed
from repro.rdma import FaaOp
from tests.conftest import small_config, run
from repro.core import FuseeCluster


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def alloc(cluster, client, class_idx):
    def proc():
        return (yield from client.allocator.alloc(class_idx))
    return run(cluster, proc())


class TestSizeClasses:
    def test_geometric_growth_aligned(self):
        classes = size_classes_for(64, 1 << 16)
        assert classes[0] == 64
        for a, b in zip(classes, classes[1:]):
            assert b > a
            assert b % 64 == 0       # bitmap bits map to exact offsets
            assert b <= 2 * a        # bounded internal fragmentation

    def test_largest_override(self):
        classes = size_classes_for(64, 1 << 16, largest=256)
        assert classes[0] == 64
        assert classes[-1] <= 256
        assert 256 in classes

    def test_class_for_picks_smallest_fit(self, client):
        assert client.allocator.size_classes[
            client.allocator.class_for(65)] == 128
        assert client.allocator.size_classes[
            client.allocator.class_for(64)] == 64

    def test_class_for_oversized_rejected(self, client):
        with pytest.raises(AllocationError):
            client.allocator.class_for(1 << 30)


class TestBlockEntries:
    def test_roundtrip(self):
        assert unpack_block_entry(pack_block_entry(12, 3)) == (12, 3)

    def test_free_block_is_none(self):
        assert unpack_block_entry(0) is None

    def test_cid_range(self):
        with pytest.raises(ValueError):
            pack_block_entry(1 << 16, 0)


class TestMnAllocation:
    def test_alloc_records_cid_in_all_replicas(self, cluster, client):
        alloc(cluster, client, 0)
        region_id, block, class_idx = client.allocator.owned_blocks()[0]
        layout = cluster.region_map.layout
        entry_off = layout.block_table_entry_offset(block)
        for mn_id, base in cluster.region_map.placement(region_id):
            word = cluster.fabric.node(mn_id).read_word(base + entry_off)
            assert unpack_block_entry(word) == (client.cid, class_idx)

    def test_bitmap_zeroed_on_alloc(self, cluster, client):
        alloc(cluster, client, 0)
        region_id, block, _ = client.allocator.owned_blocks()[0]
        layout = cluster.region_map.layout
        mn_id, base = cluster.region_map.placement(region_id)[0]
        off = layout.bitmap_offset_of(block)
        bitmap = cluster.fabric.node(mn_id).memory[
            base + off:base + off + layout.bitmap_bytes_per_block]
        assert bitmap == bytearray(layout.bitmap_bytes_per_block)

    @pytest.mark.parametrize("mn_centric", [False, True])
    def test_grant_mirrors_entry_and_clean_bitmap(self, cluster, mn_centric):
        """ALLOC and the Fig. 17 per-object path grant a block through one
        mirror: its entry and an all-zero bitmap land on every replica,
        whatever bits a FREE that could not reach a replica left behind."""
        region_map, layout = cluster.region_map, cluster.region_map.layout
        nbytes = layout.bitmap_bytes_per_block

        def bitmaps(region_id, block):
            for mn_id, base in region_map.placement(region_id):
                off = base + layout.bitmap_offset_of(block)
                yield cluster.fabric.node(mn_id).memory, off

        for mn_allocator in cluster.mn_allocators.values():
            for memory, off in bitmaps(*mn_allocator._free_blocks[0]):
                memory[off:off + nbytes] = b"\xff" * nbytes
        client = cluster.new_client(mn_centric_alloc=mn_centric)
        region_id, block = region_map.block_of(alloc(cluster, client, 0).gaddr)
        owner = MnBlockAllocator.MN_CENTRAL_CID if mn_centric else client.cid
        entry_off = layout.block_table_entry_offset(block)
        for mn_id, base in region_map.placement(region_id):
            word = cluster.fabric.node(mn_id).read_word(base + entry_off)
            assert unpack_block_entry(word) == (owner, 0)
        for memory, off in bitmaps(region_id, block):
            assert not any(memory[off:off + nbytes])

    def test_exhaustion_raises(self, cluster, client):
        layout = cluster.region_map.layout
        total_blocks = layout.n_blocks * len(cluster.region_map.region_ids)
        objects_per_block = cluster.region_map.config.block_size // 64
        with pytest.raises(AllocationError):
            for _ in range(total_blocks * objects_per_block + 1):
                alloc(cluster, client, 0)

    def test_find_client_blocks_rpc(self, cluster, client):
        for _ in range(3):
            alloc(cluster, client, 0)
        owned = set(client.allocator.owned_blocks())
        found = set()

        def proc():
            for mn_id in cluster.fabric.nodes:
                reply = yield cluster.fabric.rpc(
                    mn_id, "find_client_blocks", {"cid": client.cid})
                for info in reply["blocks"]:
                    found.add((info["region"], info["block"],
                               info["class_idx"]))

        run(cluster, proc())
        assert owned <= found  # watermark may have adopted extra blocks
        assert len(found) == client.allocator.stats_blocks_allocated


class TestMirrorWritesUnderPartition:
    """ALLOC's MN-side mirror writes read the injector where it lives,
    ``fabric.injector``: an MN<->MN partition skips the cut replica for
    allocators built with the cluster and for one ``add_memory_node``
    builds after the install, and removing the injector heals both."""

    CID = 9

    @staticmethod
    def _cut(mn_id, others):
        """Partitions cutting MN ``mn_id`` off from each of ``others``."""
        return [Partition(a=mn_id, b=other) for other in others]

    def _grant(self, cluster, mn_id):
        """ALLOC one block on ``mn_id``: {replica MN: its entry's owner}."""
        def proc():
            return (yield cluster.fabric.rpc(
                mn_id, "alloc_block", {"cid": self.CID, "class_idx": 0}))

        reply = run(cluster, proc())
        off = cluster.region_map.layout.block_table_entry_offset(
            reply["block"])
        placement = cluster.region_map.placement(reply["region"])
        assert placement[0][0] == mn_id and len(placement) == 2
        return {mn: unpack_block_entry(cluster.fabric.node(mn).read_word(
                    base + off)) for mn, base in placement}

    def _backup_of_next_grant(self, cluster, mn_id):
        region_id, _block = cluster.mn_allocators[mn_id]._free_blocks[0]
        return cluster.region_map.placement(region_id)[1][0]

    def test_install_faults_reaches_built_and_added_allocators(self, cluster):
        new_mn = max(cluster.fabric.nodes) + 1
        everyone = list(range(new_mn + 1))
        cluster.install_faults(FaultPlan(
            partitions=self._cut(0, everyone[1:])
            + self._cut(new_mn, everyone[:-1])))
        assert cluster.add_memory_node(regions=2) == new_mn
        owner = (self.CID, 0)
        for mn_id in (0, new_mn):
            backup = self._backup_of_next_grant(cluster, mn_id)
            assert self._grant(cluster, mn_id) == {mn_id: owner,
                                                   backup: None}
        cluster.clear_faults()
        for mn_id in (0, new_mn):
            backup = self._backup_of_next_grant(cluster, mn_id)
            assert self._grant(cluster, mn_id) == {mn_id: owner,
                                                   backup: owner}

    def test_setting_fabric_injector_directly_reaches_them(self, cluster):
        cluster.fabric.injector = FaultInjector(
            FaultPlan(partitions=self._cut(0, (1, 2))))
        backup = self._backup_of_next_grant(cluster, 0)
        assert self._grant(cluster, 0) == {0: (self.CID, 0), backup: None}
        cluster.fabric.injector = None
        backup = self._backup_of_next_grant(cluster, 0)
        assert self._grant(cluster, 0) == {0: (self.CID, 0),
                                           backup: (self.CID, 0)}


class TestClientSlabs:
    def test_alloc_addresses_distinct(self, cluster, client):
        seen = set()
        for _ in range(50):
            result = alloc(cluster, client, 0)
            assert result.gaddr not in seen
            seen.add(result.gaddr)

    def test_alloc_pointers_prepositioned(self, cluster, client):
        first = alloc(cluster, client, 1)
        second = alloc(cluster, client, 1)
        assert first.prev_ptr == NULL_ADDR
        assert first.next_ptr == second.gaddr
        assert second.prev_ptr == first.gaddr

    def test_alloc_order_is_fifo(self, cluster, client):
        """The pre-determined allocation order: next_ptr always names the
        very next allocation of that class (§4.5)."""
        results = [alloc(cluster, client, 0) for _ in range(30)]
        for a, b in zip(results, results[1:]):
            assert a.next_ptr == b.gaddr

    def test_distinct_classes_use_distinct_blocks(self, cluster, client):
        a = alloc(cluster, client, 0)
        b = alloc(cluster, client, 2)
        layout = cluster.region_map.layout
        ra, oa = cluster.region_map.split(a.gaddr)
        rb, ob = cluster.region_map.split(b.gaddr)
        assert (ra, layout.block_index_of(oa)) != (rb, layout.block_index_of(ob))

    def test_head_published_to_all_mns(self, cluster, client):
        first = alloc(cluster, client, 0)
        for mn_id, addr in cluster.client_table.locations(client.cid, 0):
            word = cluster.fabric.node(mn_id).read_word(addr)
            assert word == first.gaddr

    def test_head_stable_after_more_allocs(self, cluster, client):
        first = alloc(cluster, client, 0)
        for _ in range(5):
            alloc(cluster, client, 0)
        assert client.allocator.head(0) == first.gaddr

    def test_objects_aligned_to_class_size(self, cluster, client):
        layout = cluster.region_map.layout
        size = client.allocator.size_classes[2]
        for _ in range(10):
            result = alloc(cluster, client, 2)
            _, offset = cluster.region_map.split(result.gaddr)
            block = layout.block_index_of(offset)
            within = offset - layout.block_offset(block)
            assert within % size == 0

    def test_two_clients_get_disjoint_blocks(self, cluster):
        c1, c2 = cluster.new_client(), cluster.new_client()
        for _ in range(5):
            alloc(cluster, c1, 0)
            alloc(cluster, c2, 0)
        blocks1 = {(r, b) for r, b, _ in c1.allocator.owned_blocks()}
        blocks2 = {(r, b) for r, b, _ in c2.allocator.owned_blocks()}
        assert not blocks1 & blocks2


class TestFreeAndReclaim:
    def test_note_free_is_local(self, cluster, client):
        result = alloc(cluster, client, 0)
        client.allocator.note_free(result.gaddr)
        assert client.allocator.pending_free_count == 1

    def test_note_free_rejects_an_object_already_queued(self, cluster,
                                                         client):
        """Two FAAs of one free bit in one flush carry into the next
        object's bit, so the second ``note_free`` fails instead."""
        result = alloc(cluster, client, 0)
        client.allocator.note_free(result.gaddr)
        with pytest.raises(ValueError, match=hex(result.gaddr)):
            client.allocator.note_free(result.gaddr)
        assert client.allocator.pending_free_count == 1
        # once flushed, the object may come round (and be freed) again

        def proc():
            yield from client.allocator.flush_frees()

        run(cluster, proc())
        client.allocator.note_free(result.gaddr)
        assert client.allocator.pending_free_count == 1

    def test_flush_sets_bit_on_all_replicas(self, cluster, client):
        result = alloc(cluster, client, 0)
        client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()

        run(cluster, proc())
        assert client.allocator.pending_free_count == 0
        layout = cluster.region_map.layout
        region_id, offset = cluster.region_map.split(result.gaddr)
        byte_off, bit = layout.object_bit(offset)
        for mn_id, base in cluster.region_map.placement(region_id):
            byte = cluster.fabric.node(mn_id).memory[base + byte_off]
            assert byte & (1 << bit)

    def test_reclaim_returns_object_to_free_list(self, cluster, client):
        result = alloc(cluster, client, 0)
        before = client.allocator.free_list_len(0)
        client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            return (yield from client.allocator.reclaim())

        reclaimed = run(cluster, proc())
        assert reclaimed == 1
        assert client.allocator.free_list_len(0) == before + 1

    def test_reclaim_clears_bitmap(self, cluster, client):
        result = alloc(cluster, client, 0)
        client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()

        run(cluster, proc())
        layout = cluster.region_map.layout
        region_id, offset = cluster.region_map.split(result.gaddr)
        byte_off, bit = layout.object_bit(offset)
        mn_id, base = cluster.region_map.placement(region_id)[0]
        assert not cluster.fabric.node(mn_id).memory[base + byte_off] & (1 << bit)

    def test_reclaimed_object_reusable(self, cluster, client):
        result = alloc(cluster, client, 0)
        client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()

        run(cluster, proc())
        seen = set()
        for _ in range(client.allocator.free_list_len(0)):
            seen.add(alloc(cluster, client, 0).gaddr)
            if result.gaddr in seen:
                break
        assert result.gaddr in seen

    def test_cross_client_free(self, cluster):
        """Any client can free; only the owner reclaims (§4.4)."""
        owner, other = cluster.new_client(), cluster.new_client()
        result = alloc(cluster, owner, 0)
        other.allocator.note_free(result.gaddr)

        def proc():
            yield from other.allocator.flush_frees()
            return (yield from owner.allocator.reclaim())

        assert run(cluster, proc()) == 1

    def test_reclaim_empty_is_noop(self, cluster, client):
        alloc(cluster, client, 0)

        def proc():
            return (yield from client.allocator.reclaim())

        assert run(cluster, proc()) == 0

    def test_flush_empty_is_noop(self, cluster, client):
        def proc():
            yield from client.allocator.flush_frees()
            return "done"

        assert run(cluster, proc()) == "done"

    def test_flush_posts_the_faas_of_the_long_way(self, cluster, client):
        """One batch: per queued object, in queue order, an FAA of its
        free bit on each replica in placement order — ``split`` ->
        ``object_bit`` -> placement, spelled out below — skipping a
        crashed replica."""
        rmap, layout = cluster.region_map, cluster.region_map.layout
        objects = [alloc(cluster, client, class_idx).gaddr
                   for class_idx in (0, 3, 1, 5) for _ in range(12)]
        crashed = rmap.placement(rmap.split(objects[0])[0])[1][0]
        cluster.crash_memory_node(crashed)
        want = []
        for gaddr in objects:
            client.allocator.note_free(gaddr)
            region_id, offset = rmap.split(gaddr)
            byte_off, bit = layout.object_bit(offset)
            for mn_id, base in rmap.placement(region_id):
                if mn_id != crashed:
                    want.append((mn_id, base + byte_off - byte_off % 8,
                                 1 << (7 - byte_off % 8) * 8 + bit))
        posted = []
        post = cluster.fabric.post

        def recording_post(ops, *args, **kwargs):
            posted.append([(op.__class__, op.mn_id, op.addr, op.delta)
                           for op in ops])
            return post(ops, *args, **kwargs)

        cluster.fabric.post = recording_post
        run(cluster, client.allocator.flush_frees())
        assert posted == [[(FaaOp, *faa) for faa in want]]
        assert len(want) < 2 * len(objects)      # some replica skipped
        assert client.allocator.stats_free_timeouts == 0


class TestLostBatchedFree:
    """A replica FAA of a flushed free that times out is counted.  The
    object has left the pending set either way; its bit is set on the
    replicas that answered and may be unset on the one that did not, so
    the replicas' bitmaps disagree until someone re-checks that word."""

    def test_a_timed_out_free_faa_is_counted(self):
        bed = fusee_bed(background_interval_us=0, dataset_bytes=1 << 20)
        cluster, client = bed.cluster, bed.new_client()
        keys = [f"key-{i:02d}".encode() for i in range(40)]
        for key in keys:
            assert run(cluster, client.insert(key, b"v" * 100)).ok
        for key in keys:
            assert run(cluster, client.update(key, b"w" * 100)).ok
        allocator, rmap = client.allocator, cluster.region_map
        superseded = list(allocator._pending_frees)
        assert len(superseded) == len(keys)
        primaries = {rmap.placement(rmap.split(gaddr)[0])[0][0]
                     for gaddr in superseded}
        assert len(primaries) == 1   # the one MN cut off below
        cluster.install_faults(FaultPlan(
            partitions=[Partition(a=CN, b=mn) for mn in primaries]))
        run(cluster, allocator.flush_frees())
        cluster.clear_faults()
        assert allocator.pending_free_count == 0
        assert allocator.stats_free_timeouts == len(superseded)
        # what the counter reports: bit set on the backup, not the primary
        layout = rmap.layout
        for gaddr in superseded:
            region_id, offset = rmap.split(gaddr)
            word_off, mask = layout.free_bit(offset)
            primary, backup = [
                bool(cluster.fabric.node(mn).read_word(base + word_off)
                     & mask) for mn, base in rmap.placement(region_id)]
            assert (primary, backup) == (False, True)


class TestBlockFree:
    def drain(self, cluster, client, class_idx, n):
        return [alloc(cluster, client, class_idx) for _ in range(n)]

    def release(self, cluster, client):
        def proc():
            return (yield from client.allocator.release_empty_blocks())
        return run(cluster, proc())

    def test_untouched_spare_block_released(self, cluster, client):
        """The refill watermark may adopt an extra block; once nothing of
        it is allocated, release_empty_blocks returns it to the MN."""
        results = self.drain(cluster, client, 0, 3)
        for result in results:
            client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()
            return (yield from client.allocator.release_empty_blocks())

        released = run(cluster, proc())
        assert released >= 0  # releasing is best-effort
        # whatever remains must still satisfy allocations
        again = alloc(cluster, client, 0)
        assert again.gaddr != 0

    def test_fully_freed_block_returns_to_pool(self, cluster, client):
        layout = cluster.region_map.layout
        size = client.allocator.size_classes[3]
        objects = layout.config.block_size // size
        results = self.drain(cluster, client, 3, objects)  # a full block
        owned_before = len(client.allocator.owned_blocks())
        for result in results:
            client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()
            return (yield from client.allocator.release_empty_blocks())

        released = run(cluster, proc())
        assert released >= 1
        assert len(client.allocator.owned_blocks()) < owned_before + 2

    def test_released_block_table_entry_cleared(self, cluster, client):
        layout = cluster.region_map.layout
        size = client.allocator.size_classes[3]
        objects = layout.config.block_size // size
        results = self.drain(cluster, client, 3, objects)
        target_block = None
        for region_id, block, cls in client.allocator.owned_blocks():
            if cls == 3:
                target_block = (region_id, block)
        for result in results:
            client.allocator.note_free(result.gaddr)

        def proc():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()
            return (yield from client.allocator.release_empty_blocks())

        released = run(cluster, proc())
        if released:
            freed = [
                (r, b) for (r, b) in [target_block]
                if (r, b, 3) not in client.allocator.owned_blocks()]
            for region_id, block in freed:
                entry_off = layout.block_table_entry_offset(block)
                for mn_id, base in cluster.region_map.placement(region_id):
                    word = cluster.fabric.node(mn_id).read_word(
                        base + entry_off)
                    assert word == 0

    def test_released_block_reallocatable_by_other_client(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        layout = cluster.region_map.layout
        size = a.allocator.size_classes[3]
        objects = layout.config.block_size // size
        results = [alloc(cluster, a, 3) for _ in range(objects)]
        for result in results:
            a.allocator.note_free(result.gaddr)

        def proc():
            yield from a.allocator.flush_frees()
            yield from a.allocator.reclaim()
            return (yield from a.allocator.release_empty_blocks())

        released = run(cluster, proc())
        if released:
            # b can allocate (possibly getting the released block back)
            result = alloc(cluster, b, 3)
            assert result.gaddr != 0

    def test_free_block_rpc_rejects_non_owner(self, cluster, client):
        alloc(cluster, client, 0)
        region_id, block, _cls = client.allocator.owned_blocks()[0]
        primary_mn = cluster.region_map.placement(region_id)[0][0]

        def proc():
            return (yield cluster.fabric.rpc(
                primary_mn, "free_block",
                {"region": region_id, "block": block, "cid": 9999}))

        reply = run(cluster, proc())
        assert reply.get("error") == "not_owner"

    def test_release_preserves_log_chain_walkability(self, cluster):
        """Regression: releasing a block must never remove the free-list
        head — the last allocation's pre-positioned next pointer names it,
        and the recovery log walk follows that pointer (§4.5)."""
        from repro.core.client import ClientCrashed, CrashPoint
        from repro.core.wire import kv_block_size
        client = cluster.new_client()
        layout = cluster.region_map.layout
        class_idx = client.allocator.class_for(kv_block_size(10, 300))
        size = client.allocator.size_classes[class_idx]
        per_block = layout.config.block_size // size
        # fill ~1.5 blocks with keys, then delete the first block's worth
        n = per_block + per_block // 2
        keys = [f"chain-{i:04d}".encode() for i in range(n)]
        for key in keys:
            assert run(cluster, client.insert(key, b"x" * 300)).ok
        for key in keys[:per_block]:
            assert run(cluster, client.delete(key)).ok

        def maint():
            yield from client.allocator.flush_frees()
            yield from client.allocator.reclaim()
            return (yield from client.allocator.release_empty_blocks())

        run(cluster, maint())
        # keep allocating after the release, then crash mid-operation
        more = [f"after-{i:04d}".encode() for i in range(10)]
        for key in more:
            assert run(cluster, client.insert(key, b"y" * 300)).ok
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(more[0], b"z" * 300))

        def recover():
            return (yield from cluster.master.recover_client(client.cid))

        run(cluster, recover())
        reader = cluster.new_client()
        assert run(cluster, reader.search(more[0])).value == b"z" * 300
        for key in keys[per_block:] + more[1:]:
            assert run(cluster, reader.search(key)).ok, key
        # and the revived free lists must not hand out live objects
        _report, state = run(cluster, recover())
        live = set()
        from repro.core.wire import unpack_slot
        for key in keys[per_block:] + more:
            run(cluster, reader.search(key))
            entry = reader.cache.peek(key)
            if entry is not None:
                live.add(unpack_slot(entry.slot_word).pointer)
        for free in state.free_lists.values():
            assert not live & set(free)
