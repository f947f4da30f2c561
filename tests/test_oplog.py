"""Unit tests for the embedded operation log and the recovery log walker."""

import pytest

from repro.core import FuseeCluster
from repro.core.memory import AllocResult
from repro.core.oplog import (
    LogWalker,
    clear_used_ops,
    commit_old_value_ops,
    entry_for_alloc,
)
from repro.core.wire import (
    LOG_ENTRY_SIZE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    decode_log_entry,
)
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def make_alloc(gaddr=0x1000, next_ptr=0x2000, prev_ptr=0x500, size=128):
    return AllocResult(gaddr=gaddr, class_idx=1, size=size,
                       next_ptr=next_ptr, prev_ptr=prev_ptr)


class TestEntryConstruction:
    def test_pointers_prepositioned(self):
        entry = entry_for_alloc(make_alloc(), OP_UPDATE)
        assert entry.next_ptr == 0x2000
        assert entry.prev_ptr == 0x500
        assert entry.used

    def test_old_value_starts_uncommitted(self):
        entry = entry_for_alloc(make_alloc(), OP_INSERT)
        assert not entry.old_value_committed

    @pytest.mark.parametrize("opcode", [OP_INSERT, OP_UPDATE, OP_DELETE])
    def test_opcode_recorded(self, opcode):
        assert entry_for_alloc(make_alloc(), opcode).opcode == opcode


class TestLogMutationOps:
    def alloc_and_write(self, cluster, client, key=b"k", value=b"v"):
        """Install one object through the normal insert path."""
        assert run(cluster, client.insert(key, value)).ok
        entry = client.cache.peek(key)
        from repro.core.wire import unpack_slot
        gaddr = unpack_slot(entry.slot_word).pointer
        region_id, offset = cluster.region_map.split(gaddr)
        layout = cluster.region_map.layout
        block = layout.block_index_of(offset)
        _r, _b, class_idx = next(
            b for b in client.allocator.owned_blocks()
            if b[0] == region_id and b[1] == block)
        return gaddr, client.allocator.size_classes[class_idx]

    def read_entry(self, cluster, gaddr, size, replica=0):
        mn, addr = cluster.region_map.translate(gaddr)[replica]
        data = bytes(cluster.fabric.node(mn).memory[
            addr + size - LOG_ENTRY_SIZE:addr + size])
        return decode_log_entry(data)

    def test_commit_targets_all_replicas(self, cluster, client):
        gaddr, size = self.alloc_and_write(cluster, client)
        ops = commit_old_value_ops(cluster.region_map, cluster.fabric,
                                   gaddr, size, old_value=0xBEEF)
        assert len(ops) == cluster.config.replication_factor

        def proc():
            yield cluster.fabric.post(ops)

        run(cluster, proc())
        for replica in range(cluster.config.replication_factor):
            entry = self.read_entry(cluster, gaddr, size, replica)
            assert entry.old_value == 0xBEEF
            assert entry.old_value_committed

    def test_commit_preserves_pointers_and_used(self, cluster, client):
        gaddr, size = self.alloc_and_write(cluster, client)
        before = self.read_entry(cluster, gaddr, size)

        def proc():
            yield cluster.fabric.post(commit_old_value_ops(
                cluster.region_map, cluster.fabric, gaddr, size, 7))

        run(cluster, proc())
        after = self.read_entry(cluster, gaddr, size)
        assert after.next_ptr == before.next_ptr
        assert after.prev_ptr == before.prev_ptr
        assert after.used == before.used

    def test_clear_used_resets_only_used_bit(self, cluster, client):
        gaddr, size = self.alloc_and_write(cluster, client)
        before = self.read_entry(cluster, gaddr, size)
        assert before.used

        def proc():
            yield cluster.fabric.post(clear_used_ops(
                cluster.region_map, cluster.fabric, gaddr, size, OP_UPDATE))

        run(cluster, proc())
        after = self.read_entry(cluster, gaddr, size)
        assert not after.used
        assert after.next_ptr == before.next_ptr
        assert after.opcode == OP_UPDATE

    def test_skips_crashed_replicas(self, cluster, client):
        gaddr, size = self.alloc_and_write(cluster, client)
        crashed_mn = cluster.region_map.translate(gaddr)[1][0]
        cluster.fabric.node(crashed_mn).crash()
        ops = commit_old_value_ops(cluster.region_map, cluster.fabric,
                                   gaddr, size, 1)
        assert len(ops) == cluster.config.replication_factor - 1
        assert all(op.mn_id != crashed_mn for op in ops)


class TestLogWalker:
    def build_chain(self, cluster, client, n):
        for i in range(n):
            assert run(cluster, client.insert(f"walk-{i}".encode(),
                                              b"x" * 40)).ok

    def walker(self, cluster, client):
        return LogWalker(cluster.fabric, cluster.region_map,
                         client.allocator.size_classes)

    def class_of(self, client):
        from repro.core.wire import kv_block_size
        return client.allocator.class_for(kv_block_size(7, 40))

    def test_walk_visits_allocation_order(self, cluster, client):
        self.build_chain(cluster, client, 10)
        class_idx = self.class_of(client)
        head = client.allocator.head(class_idx)

        def proc():
            return (yield from self.walker(cluster, client).walk_class(
                head, class_idx))

        visited, terminator = run(cluster, proc())
        assert len(visited) == 10
        keys = [obj.key for obj in visited]
        assert keys == [f"walk-{i}".encode() for i in range(10)]
        assert visited[-1].is_tail

    def test_walk_empty_head(self, cluster, client):
        def proc():
            return (yield from self.walker(cluster, client).walk_class(0, 0))

        visited, terminator = run(cluster, proc())
        assert visited == []
        assert terminator is None

    def test_walk_chain_links_consistent(self, cluster, client):
        self.build_chain(cluster, client, 6)
        class_idx = self.class_of(client)

        def proc():
            return (yield from self.walker(cluster, client).walk_class(
                client.allocator.head(class_idx), class_idx))

        visited, _t = run(cluster, proc())
        for prev, cur in zip(visited, visited[1:]):
            assert prev.entry.next_ptr == cur.gaddr
            assert cur.entry.prev_ptr == prev.gaddr
