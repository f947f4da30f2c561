"""Edge cases and error paths of the FUSEE client."""

import types

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


class _ByHand:
    """Takes the place of a client's fabric and environment so that a
    test can drive one of its steps by hand: records every posted batch
    and every backoff, answers each batch's READs with ``read_value`` and
    its other verbs with ``write_value``, and reports the MNs in
    ``crashed`` down."""

    tracer = None

    def __init__(self, client, monkeypatch, read_value, write_value=None,
                 crashed=()):
        self.nodes = [types.SimpleNamespace(crashed=mn in crashed)
                      for mn in range(len(client.fabric.nodes))]
        self.read_value, self.write_value = read_value, write_value
        self.events = []
        monkeypatch.setattr(client, "fabric", self)
        monkeypatch.setattr(client, "env", self)

    def post(self, ops):
        self.events.append(("post", list(ops)))
        return "posted"

    def attributed_timeout(self, delay, category, label):
        self.events.append(("backoff", delay))
        return "slept"

    def drive(self, step):
        """Run ``step`` to its end; returns what it returned."""
        from repro.rdma import Completion, ReadOp

        reply = None
        while True:
            try:
                token = step.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = None
            if token == "posted":
                reply = [Completion(op, self.read_value
                                    if isinstance(op, ReadOp)
                                    else self.write_value)
                         for op in self.events[-1][1]]


class TestPrimaryBucketRead:
    """The combined-bucket read, ``_read_buckets``: one
    ``bucket_read_ops(meta, replica=0)`` build per primary read, a
    piggy-backed KV-write timeout aborts it (the op must not go on to
    install a pointer at possibly-unwritten memory), a failed bucket READ
    is retried, and the retry budget and backoffs are fixed."""

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

    def test_piggybacked_write_timeout_aborts_the_read(self, client,
                                                       monkeypatch):
        from repro.rdma import TIMEOUT, WriteOp

        meta = client.race.key_meta(b"k")
        extra = WriteOp(0, 0, b"x" * 8)
        # bucket payloads are never parsed: the write's timeout comes first
        hand = _ByHand(client, monkeypatch, b"", TIMEOUT)
        assert hand.drive(client._read_buckets(meta, "p", [extra])) is None
        assert hand.events == [
            ("post", client.race.bucket_read_ops(meta) + [extra])]

    def test_bucket_read_timeout_is_not_an_abort(self, client,
                                                        monkeypatch):
        """A timed-out *bucket* read is retried at once, without the
        write (it landed); only a piggy-backed write timeout aborts."""
        from repro.rdma import TIMEOUT, WriteOp

        meta = client.race.key_meta(b"k")
        extra = WriteOp(0, 0, b"x" * 8)
        hand = _ByHand(client, monkeypatch, TIMEOUT)
        assert hand.drive(client._read_buckets(meta, "p", [extra])) is None
        reads = client.race.bucket_read_ops(meta)
        assert hand.events[:2] == [("post", reads + [extra]),
                                   ("post", reads)]

    def test_a_failing_primary_is_read_65_times_with_64_backoffs(
            self, client, monkeypatch):
        from repro.core.client import MAX_OP_RETRIES, RETRY_SLEEP_US
        from repro.rdma import FAIL

        meta = client.race.key_meta(b"k")
        hand = _ByHand(client, monkeypatch, FAIL)
        assert hand.drive(client._read_buckets(meta, "p")) is None
        reads = ("post", client.race.bucket_read_ops(meta))
        backoff = ("backoff", RETRY_SLEEP_US)
        assert MAX_OP_RETRIES == 64
        assert hand.events == [reads] + [reads, backoff] * 64

    def test_writes_go_alone_before_the_first_degraded_round(
            self, monkeypatch):
        from repro.rdma import FAIL, WriteOp

        cluster = FuseeCluster(small_config(index_replication=2))
        client = cluster.new_client()
        meta = client.race.key_meta(b"k")
        (primary, _), (backup, _) = client.race.placement(meta.subtable)
        writes = [WriteOp(backup, 0, b"x" * 8), WriteOp(backup, 8, b"y")]
        hand = _ByHand(client, monkeypatch, FAIL, crashed={primary})
        assert hand.drive(client._read_buckets(meta, "p", writes)) is None
        assert hand.events == [
            ("post", writes),
            ("post", client.race.bucket_read_ops(meta, replica=1))]


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
