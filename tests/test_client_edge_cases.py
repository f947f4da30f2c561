"""Edge cases and error paths of the FUSEE client."""

import pytest

from repro.core import AdaptiveIndexCache, ClusterConfig, FuseeCluster
from repro.core import client as client_mod
from repro.core.addressing import RegionConfig
from repro.core.memory import AllocationError
from repro.core.race import IndexFullError, RaceConfig
from repro.core.wire import unpack_slot
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


@pytest.fixture
def client(cluster):
    return cluster.new_client()


class TestSizing:
    def test_oversized_value_raises(self, cluster, client):
        huge = b"x" * (1 << 20)
        with pytest.raises(AllocationError):
            run(cluster, client.insert(b"k", huge))

    def test_largest_fitting_value_works(self, cluster, client):
        largest_class = client.allocator.size_classes[-1]
        from repro.core.wire import kv_block_size
        value = b"v" * (largest_class - kv_block_size(1, 0))
        assert run(cluster, client.insert(b"k", value)).ok
        assert run(cluster, client.search(b"k")).value == value

    def test_one_byte_key(self, cluster, client):
        assert run(cluster, client.insert(b"k", b"v")).ok
        assert run(cluster, client.search(b"k")).value == b"v"

    def test_long_key(self, cluster, client):
        key = b"K" * 200
        assert run(cluster, client.insert(key, b"v")).ok
        assert run(cluster, client.search(key)).value == b"v"


class TestIndexPressure:
    def test_index_full_without_master_raises(self):
        """Without a master to expand it, a full subtable raises."""
        config = small_config(
            race=RaceConfig(n_subtables=1, n_groups=2, slots_per_bucket=1))
        cluster = FuseeCluster(config)
        client = cluster.new_client()
        client.master = None
        with pytest.raises(IndexFullError):
            for i in range(100):
                result = run(cluster, client.insert(f"k{i}".encode(), b"v"))
                assert result.ok or result.existed

    def test_delete_frees_index_capacity(self):
        config = small_config(
            race=RaceConfig(n_subtables=1, n_groups=2, slots_per_bucket=2))
        cluster = FuseeCluster(config)
        client = cluster.new_client()
        inserted = []
        try:
            for i in range(100):
                key = f"k{i}".encode()
                if run(cluster, client.insert(key, b"v")).ok:
                    inserted.append(key)
        except IndexFullError:
            pass
        assert inserted
        victim = inserted.pop()
        assert run(cluster, client.delete(victim)).ok
        assert run(cluster, client.insert(b"fresh-after-delete", b"v")).ok


class TestFingerprintCollisions:
    def find_fp_collision(self, cluster, base=b"colA"):
        """Two keys in the same subtable with the same fingerprint."""
        race = cluster.race
        target = race.key_meta(base)
        for i in range(200_000):
            key = f"probe-{i}".encode()
            meta = race.key_meta(key)
            if (meta.subtable == target.subtable
                    and meta.fingerprint == target.fingerprint
                    and key != base):
                return base, key
        pytest.skip("no fingerprint collision found in probe budget")

    def test_colliding_fingerprints_resolved_by_full_key(self, cluster,
                                                         client):
        k1, k2 = self.find_fp_collision(cluster)
        assert run(cluster, client.insert(k1, b"value-1")).ok
        assert run(cluster, client.insert(k2, b"value-2")).ok
        assert run(cluster, client.search(k1)).value == b"value-1"
        assert run(cluster, client.search(k2)).value == b"value-2"
        assert run(cluster, client.delete(k1)).ok
        assert not run(cluster, client.search(k1)).ok
        assert run(cluster, client.search(k2)).value == b"value-2"

    def test_update_targets_right_key_under_collision(self, cluster,
                                                      client):
        k1, k2 = self.find_fp_collision(cluster, base=b"colB")
        run(cluster, client.insert(k1, b"one"))
        run(cluster, client.insert(k2, b"two"))
        assert run(cluster, client.update(k2, b"two-new")).ok
        assert run(cluster, client.search(k1)).value == b"one"
        assert run(cluster, client.search(k2)).value == b"two-new"


class TestCacheCoherenceEdges:
    def test_stale_cache_after_delete_and_reinsert(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"k", b"v1"))
        run(cluster, b.search(b"k"))  # warm b's cache
        run(cluster, a.delete(b"k"))
        run(cluster, a.insert(b"k", b"v2"))  # possibly a different slot
        assert run(cluster, b.search(b"k")).value == b"v2"

    def test_cache_eviction_does_not_lose_data(self, cluster):
        client = cluster.new_client()
        client.cache = AdaptiveIndexCache(capacity=4)
        keys = [f"evict-{i}".encode() for i in range(20)]
        for key in keys:
            run(cluster, client.insert(key, key))
        assert len(client.cache) <= 4
        for key in keys:
            assert run(cluster, client.search(key)).value == key

    def test_update_loop_with_tiny_cache(self, cluster):
        client = cluster.new_client()
        client.cache = AdaptiveIndexCache(capacity=1)
        run(cluster, client.insert(b"a", b"1"))
        run(cluster, client.insert(b"b", b"2"))
        for i in range(10):
            assert run(cluster, client.update(b"a", f"a{i}".encode())).ok
            assert run(cluster, client.update(b"b", f"b{i}".encode())).ok
        assert run(cluster, client.search(b"a")).value == b"a9"
        assert run(cluster, client.search(b"b")).value == b"b9"


class TestReuseAfterChurn:
    def test_object_reuse_keeps_log_walkable(self, cluster, client):
        """Recycled objects re-link into the per-class list; a recovery
        walk after heavy churn must still terminate and find the tail."""
        run(cluster, client.insert(b"churn", b"x" * 40))
        for i in range(30):
            run(cluster, client.update(b"churn", f"{i}".encode() * 10))
            if i % 10 == 9:
                run(cluster, client.maintenance())
        from repro.core.oplog import LogWalker
        from repro.core.wire import kv_block_size
        class_idx = client.allocator.class_for(kv_block_size(5, 40))
        walker = LogWalker(cluster.fabric, cluster.region_map,
                           client.allocator.size_classes)

        def proc():
            return (yield from walker.walk_class(
                client.allocator.head(class_idx), class_idx))

        visited, _terminator = run(cluster, proc())
        assert visited  # non-empty and terminated
        assert visited[-1].is_tail


class TestPrimaryBucketRead:
    """The deduplicated primary combined-bucket read: one
    ``bucket_read_ops(meta, replica=0)`` build per attempt, and a
    piggy-backed KV-write timeout aborts the caller (the op must not go
    on to install a pointer at possibly-unwritten memory)."""

    def test_bucket_read_ops_built_once_per_bucket_read(self, cluster,
                                                        monkeypatch):
        client = cluster.new_client(cache_enabled=False)
        assert run(cluster, client.insert(b"k", b"v")).ok
        calls = []
        real = client.race.bucket_read_ops
        monkeypatch.setattr(
            client.race, "bucket_read_ops",
            lambda meta, replica=0: (calls.append(replica)
                                     or real(meta, replica=replica)))
        assert run(cluster, client.search(b"k")).ok
        assert calls == [0]

    def test_piggybacked_write_timeout_aborts_the_read(self, cluster,
                                                       client):
        from repro.rdma import Completion, TIMEOUT, WriteOp

        assert run(cluster, client.insert(b"k", b"v")).ok
        meta = client.race.key_meta(b"k")
        extra = WriteOp(0, 0, b"x" * 8)
        gen = client._read_buckets(meta, extra_ops=[extra])
        next(gen)  # posts the combined bucket read + piggy-backed write
        n_reads = len(client.race.bucket_read_ops(meta, replica=0))
        comps = [Completion(op, b"")  # bucket payloads are never parsed
                 for op in client.race.bucket_read_ops(meta, replica=0)]
        comps.append(Completion(extra, TIMEOUT))
        with pytest.raises(StopIteration) as stop:
            gen.send(comps)
        assert stop.value.value is None
        assert len(comps) == n_reads + 1

    def test_bucket_read_timeout_is_not_an_abort(self, cluster, client):
        """A timed-out *bucket* read retries (view None, not aborted);
        only a piggy-backed write timeout may abort."""
        from repro.rdma import Completion, TIMEOUT, WriteOp

        assert run(cluster, client.insert(b"k", b"v")).ok
        meta = client.race.key_meta(b"k")
        extra = WriteOp(0, 0, b"x" * 8)
        gen = client._primary_bucket_read(meta, [extra])
        next(gen)
        comps = [Completion(op, TIMEOUT)
                 for op in client.race.bucket_read_ops(meta, replica=0)]
        comps.append(Completion(extra, None))  # the write landed
        with pytest.raises(StopIteration) as stop:
            gen.send(comps)
        assert stop.value.value == (None, False)


class TestStagedObjectReclaim:
    """An op that staged an object reclaims it exactly once, at its one
    exit, unless a slot now points at it (docs/protocol.md)."""

    @staticmethod
    def bitmap_bytes(cluster, gaddr):
        """(the object's free-bitmap byte on each alive replica, its bit)"""
        region_id, offset = cluster.region_map.split(gaddr)
        byte_off, bit = cluster.region_map.layout.object_bit(offset)
        return [cluster.fabric.node(mn_id).memory[base + byte_off]
                for mn_id, base in cluster.region_map.placement(region_id)
                if not cluster.fabric.node(mn_id).crashed], bit

    def test_unresolvable_delete_frees_its_temp_object_once(self):
        """Reclaiming it twice put two FAAs of one bit in one flush: they
        carry, clearing the object's own free bit and setting its
        neighbour's."""
        cluster = FuseeCluster(small_config(index_replication=2))
        client = cluster.new_client()
        assert run(cluster, client.insert(b"k", b"v")).ok
        run(cluster, client.maintenance())
        meta = cluster.race.key_meta(b"k")
        backup_mn = cluster.race.placement(meta.subtable)[1][0]
        client.master = None
        cluster.crash_memory_node(backup_mn)
        result = run(cluster, client.delete(b"k"))
        assert not result.ok and result.error == "unresolvable failure"
        assert client.allocator.pending_free_count == 1
        (gaddr,) = client.allocator._pending_frees
        run(cluster, client.allocator.flush_frees())
        bytes_now, bit = self.bitmap_bytes(cluster, gaddr)
        assert bytes_now and all(byte == 1 << bit for byte in bytes_now)

    def test_update_out_of_retries_reclaims_its_object(self, monkeypatch):
        """Left behind, it is a used, uncommitted entry in the client's
        log chain: recovery may replay a request the application was
        told had failed."""
        cluster = FuseeCluster(small_config())
        writer = cluster.new_client()
        assert run(cluster, writer.insert(b"k", b"v")).ok
        client = cluster.new_client()
        entry = writer.cache.peek(b"k")
        client.cache.store(b"k", entry.slot_ref, entry.slot_word)
        with monkeypatch.context() as patch:
            patch.setattr(client_mod, "MAX_OP_RETRIES", 0)
            result = run(cluster, client.update(b"k", b"v2"))
        assert not result.ok and result.error == "retries exhausted"
        assert client.allocator.pending_free_count == 1
        assert run(cluster, writer.search(b"k")).value == b"v"

    def test_index_full_insert_reclaims_its_object(self):
        config = small_config(
            race=RaceConfig(n_subtables=1, n_groups=2, slots_per_bucket=1))
        cluster = FuseeCluster(config)
        client = cluster.new_client()
        client.master = None
        with pytest.raises(IndexFullError):
            for i in range(100):
                run(cluster, client.insert(f"k{i}".encode(), b"v"))
        assert client.allocator.pending_free_count == 1

    def test_cached_search_survives_losing_the_new_object(self):
        """The slot moved on to an object whose only data replica then
        crashed: like every other unreadable block that is a fall back
        to the full path, not an ``AttributeError`` from posting the
        READ that could not be built."""
        cluster = FuseeCluster(small_config(replication_factor=1,
                                            index_replication=1))
        reader, writer = cluster.new_client(), cluster.new_client()
        assert run(cluster, reader.insert(b"k0", b"v")).ok
        assert run(cluster, reader.search(b"k0")).ok
        assert run(cluster, writer.update(b"k0", b"v2")).ok

        def data_mn(client):
            pointer = unpack_slot(client.cache.peek(b"k0").slot_word).pointer
            return cluster.region_map.translate(pointer)[0][0]

        meta = cluster.race.key_meta(b"k0")
        index_mn = cluster.race.placement(meta.subtable)[0][0]
        # the new object shares a node with neither the index primary
        # nor the old object, so only the refetch can fail
        assert (index_mn, data_mn(reader), data_mn(writer)) == (0, 1, 2)
        cluster.crash_memory_node(data_mn(writer))
        result = run(cluster, reader.search(b"k0"))
        assert not result.ok
