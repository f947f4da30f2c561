"""End-to-end tests of FUSEE client operations on a live cluster."""

import dataclasses
from typing import Optional

import pytest

from repro.core import ClusterConfig, FuseeCluster
from repro.core.client import ClientCrashed, CrashPoint, OpResult
from repro.core.snapshot import Outcome
from repro.core.wire import unpack_slot
from repro.rdma.verbs import CasOp, ReadOp
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


@pytest.fixture
def client(cluster):
    return cluster.new_client()


class TestBasicOps:
    def test_insert_and_search(self, cluster, client):
        assert run(cluster, client.insert(b"k", b"v")).ok
        result = run(cluster, client.search(b"k"))
        assert result.ok and result.value == b"v"

    def test_search_missing(self, cluster, client):
        assert not run(cluster, client.search(b"missing")).ok

    def test_insert_duplicate_reports_existed(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        result = run(cluster, client.insert(b"k", b"w"))
        assert not result.ok and result.existed
        assert run(cluster, client.search(b"k")).value == b"v"

    def test_update_changes_value(self, cluster, client):
        run(cluster, client.insert(b"k", b"v1"))
        assert run(cluster, client.update(b"k", b"v2")).ok
        assert run(cluster, client.search(b"k")).value == b"v2"

    def test_update_missing_fails(self, cluster, client):
        assert not run(cluster, client.update(b"nope", b"v")).ok

    def test_delete_removes_key(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        assert run(cluster, client.delete(b"k")).ok
        assert not run(cluster, client.search(b"k")).ok

    def test_delete_missing_fails(self, cluster, client):
        assert not run(cluster, client.delete(b"nope")).ok

    def test_reinsert_after_delete(self, cluster, client):
        run(cluster, client.insert(b"k", b"v1"))
        run(cluster, client.delete(b"k"))
        assert run(cluster, client.insert(b"k", b"v2")).ok
        assert run(cluster, client.search(b"k")).value == b"v2"

    def test_empty_value(self, cluster, client):
        assert run(cluster, client.insert(b"k", b"")).ok
        result = run(cluster, client.search(b"k"))
        assert result.ok and result.value == b""

    def test_update_chain(self, cluster, client):
        run(cluster, client.insert(b"k", b"v0"))
        for i in range(1, 20):
            assert run(cluster, client.update(b"k", f"v{i}".encode())).ok
        assert run(cluster, client.search(b"k")).value == b"v19"

    def test_many_keys(self, cluster, client):
        n = 150
        for i in range(n):
            assert run(cluster, client.insert(f"key-{i}".encode(),
                                              f"val-{i}".encode())).ok
        for i in range(n):
            result = run(cluster, client.search(f"key-{i}".encode()))
            assert result.ok and result.value == f"val-{i}".encode()

    def test_value_sizes_across_classes(self, cluster, client):
        for size in (0, 1, 30, 100, 300, 900):
            key = f"size-{size}".encode()
            value = bytes(size) if size == 0 else b"x" * size
            assert run(cluster, client.insert(key, value)).ok
            assert run(cluster, client.search(key)).value == value

    def test_binary_keys_and_values(self, cluster, client):
        key = bytes(range(32))
        value = bytes(reversed(range(256)))
        assert run(cluster, client.insert(key, value)).ok
        assert run(cluster, client.search(key)).value == value


class TestOpResult:
    """``OpResult`` is a hand-written value class; it must behave as the
    frozen dataclass it replaced (kept here as the oracle)."""

    @dataclasses.dataclass(frozen=True)
    class Dataclass:
        ok: bool
        value: Optional[bytes] = None
        existed: bool = False
        outcome: Optional[Outcome] = None
        error: Optional[str] = None

    CASES = [
        ((True,), {}), ((False,), {}), ((), {"ok": False}),
        ((True, b"v"), {}), ((True,), {"value": b""}),
        ((False, None, True), {}), ((False,), {"existed": True}),
        ((True, None, False, Outcome.WIN_RULE1), {}),
        ((True,), {"outcome": Outcome.LOSE}),
        ((False, None, False, None, "index unavailable"), {}),
        ((False,), {"error": "no alive replica"}),
        ((), {"ok": True, "value": b"v", "existed": False,
              "outcome": Outcome.WIN_RULE1, "error": None}),
    ]

    def test_mirrors_the_dataclass(self):
        ours = [OpResult(*a, **kw) for a, kw in self.CASES]
        theirs = [self.Dataclass(*a, **kw) for a, kw in self.CASES]
        for mine, ref in zip(ours, theirs):
            assert repr(mine) == repr(ref).replace(
                "TestOpResult.Dataclass", "OpResult")
            assert hash(mine) == hash(ref)
            assert dataclasses.astuple(ref) == (
                mine.ok, mine.value, mine.existed, mine.outcome, mine.error)
        for i, mine in enumerate(ours):
            for j, other in enumerate(ours):
                assert (mine == other) == (theirs[i] == theirs[j])
                assert (mine != other) == (theirs[i] != theirs[j])
        assert OpResult(True) != (True, None, False, None, None)
        assert OpResult(True) != self.Dataclass(True)
        assert len({OpResult(True, b"v"), OpResult(True, b"v")}) == 1

    def test_construction_errors_and_no_instance_dict(self):
        with pytest.raises(TypeError):
            OpResult()
        with pytest.raises(TypeError):
            OpResult(True, nope=1)
        assert not hasattr(OpResult(True), "__dict__")

    def test_absent_key_is_a_plain_failure(self, cluster, client):
        result = run(cluster, client._search_impl(b"missing"))
        assert result == OpResult(ok=False)
        assert result.error is None and result.value is None


class TestKvReadOp:
    """``_kv_read_op``: one READ of an alive data replica, chosen by the
    ``read_spread`` policy and counted once in ``kv_replica_reads``."""

    @staticmethod
    def bed(read_spread):
        cluster = FuseeCluster(small_config(replication_factor=3))
        client = cluster.new_client(read_spread=read_spread)
        assert run(cluster, client.insert(b"k", b"v")).ok
        gaddr = unpack_slot(client.cache.lookup(b"k").slot_word).pointer
        return cluster, client, gaddr, cluster.region_map.translate(gaddr)

    def test_primary_reads_the_first_alive_replica(self):
        cluster, client, gaddr, replicas = self.bed("primary")
        reads = cluster.fabric.stats.kv_replica_reads
        assert len(replicas) == 3
        for n_crashed, (mn_id, addr) in enumerate(replicas):
            before = dict(reads)
            assert client._kv_read_op(gaddr, 128) == ReadOp(mn_id, addr, 128)
            after = {mn: n - before.get(mn, 0) for mn, n in reads.items()}
            assert {mn: n for mn, n in after.items() if n} == {mn_id: 1}
            cluster.crash_memory_node(mn_id)
        before = dict(reads)
        assert client._kv_read_op(gaddr, 128) is None
        assert reads == before          # nothing picked, nothing counted

    def test_round_robin_rotates_over_the_alive_replicas(self):
        cluster, client, gaddr, replicas = self.bed("round_robin")
        start = client.read_policy._rr
        picks = [client._kv_read_op(gaddr, 64) for _ in range(6)]
        assert [(op.mn_id, op.addr) for op in picks] == [
            replicas[(start + i) % 3] for i in range(6)]
        cluster.crash_memory_node(replicas[1][0])
        alive = [replicas[0], replicas[2]]
        start = client.read_policy._rr
        picks = [client._kv_read_op(gaddr, 64) for _ in range(4)]
        assert [(op.mn_id, op.addr) for op in picks] == [
            alive[(start + i) % 2] for i in range(4)]

    def test_least_loaded_skips_the_backlogged_replica(self):
        cluster, client, gaddr, replicas = self.bed("least_loaded")
        cluster.env.run(until=cluster.env.now + 50.0)    # drain the NICs
        assert client._kv_read_op(gaddr, 64).mn_id == replicas[0][0]
        cluster.fabric.node(replicas[0][0]).nic_tx.finish_time(5.0)
        assert client._kv_read_op(gaddr, 64).mn_id == replicas[1][0]
        cluster.crash_memory_node(replicas[1][0])
        cluster.fabric.node(replicas[2][0]).nic_tx.finish_time(9.0)
        assert client._kv_read_op(gaddr, 64).mn_id == replicas[0][0]


class TestCrossClient:
    def test_visibility(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"shared", b"from-a"))
        assert run(cluster, b.search(b"shared")).value == b"from-a"

    def test_remote_update_visible_despite_cache(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"k", b"v1"))
        assert run(cluster, a.search(b"k")).value == b"v1"  # warm a's cache
        run(cluster, b.update(b"k", b"v2"))
        assert run(cluster, a.search(b"k")).value == b"v2"

    def test_remote_delete_visible_despite_cache(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"k", b"v"))
        run(cluster, a.search(b"k"))
        run(cluster, b.delete(b"k"))
        assert not run(cluster, a.search(b"k")).ok

    def test_remote_update_visible_to_updater(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"k", b"v1"))
        run(cluster, a.update(b"k", b"v2"))   # a's cache now points at v2
        run(cluster, b.update(b"k", b"v3"))
        assert run(cluster, a.update(b"k", b"v4")).ok
        assert run(cluster, b.search(b"k")).value == b"v4"

    def test_concurrent_updates_converge(self, cluster):
        clients = [cluster.new_client() for _ in range(6)]
        seed = cluster.new_client()
        run(cluster, seed.insert(b"hot", b"initial"))
        results = {}

        def updater(i, c):
            yield cluster.env.timeout(i * 0.1)
            results[i] = yield from c.update(b"hot", f"value-{i}".encode())

        procs = [cluster.env.process(updater(i, c))
                 for i, c in enumerate(clients)]
        cluster.env.run(until=cluster.env.all_of(procs))
        assert all(r.ok for r in results.values())
        final = run(cluster, seed.search(b"hot")).value
        assert final in {f"value-{i}".encode() for i in range(6)}

    def test_concurrent_inserts_same_key(self, cluster):
        clients = [cluster.new_client() for _ in range(4)]
        results = {}

        def inserter(i, c):
            yield cluster.env.timeout(i * 0.05)
            results[i] = yield from c.insert(b"dup", f"value-{i}".encode())

        procs = [cluster.env.process(inserter(i, c))
                 for i, c in enumerate(clients)]
        cluster.env.run(until=cluster.env.all_of(procs))
        reader = cluster.new_client()
        final = run(cluster, reader.search(b"dup"))
        assert final.ok
        assert final.value in {f"value-{i}".encode() for i in range(4)}

    def test_concurrent_mixed_ops_distinct_keys(self, cluster):
        clients = [cluster.new_client() for _ in range(8)]

        def worker(i, c):
            key = f"key-{i}".encode()
            result = yield from c.insert(key, b"a")
            assert result.ok
            result = yield from c.update(key, b"b")
            assert result.ok
            result = yield from c.search(key)
            assert result.value == b"b"

        procs = [cluster.env.process(worker(i, c))
                 for i, c in enumerate(clients)]
        cluster.env.run(until=cluster.env.all_of(procs))


class TestRttAccounting:
    def batches(self, cluster):
        return cluster.fabric.stats.batches

    def test_search_cache_hit_is_one_rtt(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        run(cluster, client.search(b"k"))  # warm
        before = self.batches(cluster)
        run(cluster, client.search(b"k"))
        assert self.batches(cluster) - before == 1

    def test_search_miss_is_two_rtts(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"k", b"v"))
        before = self.batches(cluster)
        run(cluster, b.search(b"k"))
        assert self.batches(cluster) - before == 2

    def test_update_cache_hit_is_four_rtts(self, cluster, client):
        """Fig. 9: write KV + read slot | CAS backups | commit log | CAS
        primary = 4 doorbell batches (the unsignaled cleanup write is
        posted in the same instant as phase 4)."""
        run(cluster, client.insert(b"k", b"v" * 100))
        before = self.batches(cluster)
        result = run(cluster, client.update(b"k", b"w" * 100))
        assert result.outcome is Outcome.WIN_RULE1
        used = self.batches(cluster) - before
        assert used == 5  # 4 awaited phases + 1 fire-and-forget cleanup

    def test_insert_uncontended_phases(self, cluster, client):
        run(cluster, client.insert(b"warm", b"v"))  # publish the list head
        before = self.batches(cluster)
        result = run(cluster, client.insert(b"fresh", b"v"))
        assert result.ok
        used = self.batches(cluster) - before
        # phase1 (KV write + bucket read), CAS backups, log commit, CAS
        # primary, dedup bucket re-read (RACE's post-install duplicate
        # check); allocation RPCs don't post doorbell batches.
        assert used == 5

    def test_first_alloc_publishes_list_head_once(self, cluster, client):
        before = self.batches(cluster)
        run(cluster, client.insert(b"fresh", b"v"))
        assert self.batches(cluster) - before == 6  # +1 head publish
        before = self.batches(cluster)
        run(cluster, client.insert(b"fresh2", b"v"))
        assert self.batches(cluster) - before == 5


class TestVariants:
    def test_no_cache_variant(self, cluster):
        client = cluster.new_client(cache_enabled=False)
        run(cluster, client.insert(b"k", b"v1"))
        assert run(cluster, client.search(b"k")).value == b"v1"
        assert run(cluster, client.update(b"k", b"v2")).ok
        assert run(cluster, client.search(b"k")).value == b"v2"
        assert len(client.cache) == 0

    def test_sequential_variant_crud(self, cluster):
        client = cluster.new_client(replication_mode="sequential")
        run(cluster, client.insert(b"k", b"v1"))
        assert run(cluster, client.search(b"k")).value == b"v1"
        assert run(cluster, client.update(b"k", b"v2")).ok
        assert run(cluster, client.delete(b"k")).ok
        assert not run(cluster, client.search(b"k")).ok

    def test_sequential_concurrent_updates_converge(self, cluster):
        clients = [cluster.new_client(replication_mode="sequential")
                   for _ in range(4)]
        seed = cluster.new_client()
        run(cluster, seed.insert(b"hot", b"init"))

        def updater(i, c):
            yield cluster.env.timeout(i * 0.01)
            result = yield from c.update(b"hot", f"v{i}".encode())
            assert result.ok

        procs = [cluster.env.process(updater(i, c))
                 for i, c in enumerate(clients)]
        cluster.env.run(until=cluster.env.all_of(procs))
        final = run(cluster, seed.search(b"hot"))
        assert final.ok

    def test_sequential_update_waits_out_the_subtable_barrier(self):
        # FUSEE-CR checks the master's barrier before every CAS round, as
        # SNAPSHOT does: a barrier raised once the UPDATE is past its
        # op-start check must still hold back every CAS on the slot
        cluster = FuseeCluster(small_config(index_replication=2))
        env, master = cluster.env, cluster.master
        client = cluster.new_client(replication_mode="sequential")
        run(cluster, client.insert(b"k", b"v1"))
        subtable = cluster.race.key_meta(b"k").subtable
        barrier = env.event()
        posted = []
        post = cluster.fabric.post

        def spy(ops, *args, **kwargs):
            if not posted:
                master._blocked[subtable] = barrier
            posted.extend(ops)
            return post(ops, *args, **kwargs)

        cluster.fabric.post = spy
        update = env.process(client.update(b"k", b"v2"))
        env.run(until=env.now + 200.0)
        assert posted and not update.triggered
        assert not any(isinstance(op, CasOp) for op in posted)
        del master._blocked[subtable]
        barrier.succeed()
        assert env.run(until=update).ok
        assert any(isinstance(op, CasOp) for op in posted)
        assert run(cluster, client.search(b"k")).value == b"v2"

    def test_sequential_round_cut_by_a_failover_defers_to_the_master(self):
        # r=3: the primary's MN crashes while the first backup CAS is in
        # flight.  The repair copies that backup's v_new onto the second
        # backup while the round waits at the barrier; going on from the
        # stale v_old would lose that CAS and undo the first backup, which
        # is the reconfigured primary.  The master settles the slot instead
        cluster = FuseeCluster(small_config(index_replication=3))
        env, master, fabric = cluster.env, cluster.master, cluster.fabric
        client = cluster.new_client(replication_mode="sequential")
        run(cluster, client.insert(b"k", b"v1"))
        ref = client.cache.peek(b"k").slot_ref
        primary_mn = ref.primary()[0]
        post_one = fabric.post_one

        def spy(op, *args, **kwargs):
            if (isinstance(op, CasOp) and not master.handled_mn_failures
                    and (op.mn_id, op.addr) == ref.backups()[0]):
                fabric.node(primary_mn).crash()
                master.handled_mn_failures.append(primary_mn)
                env.process(master.handle_mn_failure(primary_mn))
            return post_one(op, *args, **kwargs)

        fabric.post_one = spy
        result = run(cluster, client.update(b"k", b"v2"))
        assert master.handled_mn_failures == [primary_mn]
        assert result.ok and result.outcome is Outcome.NEED_MASTER

        def alive_words():
            comps = yield fabric.post([ReadOp(mn, addr, 8)
                                       for mn, addr in ref.locations()
                                       if not fabric.node(mn).crashed])
            return [int.from_bytes(c.value, "big") for c in comps]

        words = run(cluster, alive_words())
        assert len(words) == 2 and len(set(words)) == 1
        assert run(cluster, client.search(b"k")).value == b"v2"

    def test_single_replica_config(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=2,
                                            replication_factor=1))
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        assert run(cluster, client.search(b"k")).value == b"v"
        assert run(cluster, client.update(b"k", b"w")).ok
        assert run(cluster, client.delete(b"k")).ok

    def test_index_replication_override(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                            replication_factor=2,
                                            index_replication=1))
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        ref = client.race.slot_ref(0, 0)
        assert len(ref.placement) == 1
        assert run(cluster, client.search(b"k")).value == b"v"

    def test_five_way_replication(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=5,
                                            replication_factor=5))
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        assert run(cluster, client.update(b"k", b"w")).ok
        assert run(cluster, client.search(b"k")).value == b"w"


class TestReplicaConsistency:
    def test_index_replicas_identical_after_ops(self, cluster, client):
        for i in range(40):
            run(cluster, client.insert(f"k{i}".encode(), b"v"))
        for i in range(0, 40, 2):
            run(cluster, client.update(f"k{i}".encode(), b"w"))
        for i in range(0, 40, 4):
            run(cluster, client.delete(f"k{i}".encode()))
        race = cluster.race
        for subtable in range(race.config.n_subtables):
            images = []
            for mn, base in race.placement(subtable):
                node = cluster.fabric.node(mn)
                images.append(bytes(
                    node.memory[base:base + race.config.subtable_bytes]))
            assert all(img == images[0] for img in images)

    def test_kv_replicas_identical(self, cluster, client):
        run(cluster, client.insert(b"k", b"payload"))
        entry = client.cache.peek(b"k")
        from repro.core.wire import unpack_slot
        slot = unpack_slot(entry.slot_word)
        images = []
        for mn, addr in cluster.region_map.translate(slot.pointer):
            node = cluster.fabric.node(mn)
            images.append(bytes(node.memory[addr:addr + slot.block_bytes]))
        assert len(images) == 2
        assert images[0] == images[1]


class TestMaintenance:
    def test_updates_feed_reclamation(self, cluster, client):
        run(cluster, client.insert(b"k", b"v1"))
        for i in range(5):
            run(cluster, client.update(b"k", f"v{i}".encode()))
        assert client.allocator.pending_free_count >= 5
        reclaimed = run(cluster, client.maintenance())
        assert reclaimed >= 5
        assert client.allocator.pending_free_count == 0

    def test_reclaimed_memory_is_reused(self, cluster, client):
        """Updates + maintenance let the store run indefinitely in
        bounded memory."""
        run(cluster, client.insert(b"k", b"v"))
        blocks_before = None
        for round_no in range(8):
            for i in range(40):
                run(cluster, client.update(b"k", f"{round_no}-{i}".encode()))
            run(cluster, client.maintenance())
            if round_no == 3:
                blocks_before = client.allocator.stats_blocks_allocated
        assert client.allocator.stats_blocks_allocated == blocks_before


class TestCrashPoints:
    def test_c0_crash_leaves_torn_object(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        client.arm_crash(CrashPoint.C0)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"w"))
        assert client.crashed
        # the index still serves the old value to other clients
        other = cluster.new_client()
        assert run(cluster, other.search(b"k")).value == b"v"

    def test_crashed_client_rejects_ops(self, cluster, client):
        client.arm_crash(CrashPoint.C0)
        with pytest.raises(ClientCrashed):
            run(cluster, client.insert(b"k", b"v"))
        with pytest.raises(ClientCrashed):
            run(cluster, client.search(b"k"))

    def test_c1_crash_backups_modified_primary_not(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        entry = client.cache.peek(b"k")
        ref, old_word = entry.slot_ref, entry.slot_word
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"w"))
        primary_mn, primary_addr = ref.primary()
        assert cluster.fabric.node(primary_mn).read_word(primary_addr) == old_word
        for mn, addr in ref.backups():
            assert cluster.fabric.node(mn).read_word(addr) != old_word

    def test_c2_crash_log_committed_primary_stale(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        entry = client.cache.peek(b"k")
        ref, old_word = entry.slot_ref, entry.slot_word
        client.arm_crash(CrashPoint.C2)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"w"))
        primary_mn, primary_addr = ref.primary()
        assert cluster.fabric.node(primary_mn).read_word(primary_addr) == old_word

    def test_c3_crash_primary_modified(self, cluster, client):
        run(cluster, client.insert(b"k", b"v"))
        entry = client.cache.peek(b"k")
        ref, old_word = entry.slot_ref, entry.slot_word
        client.arm_crash(CrashPoint.C3)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"w"))
        primary_mn, primary_addr = ref.primary()
        assert cluster.fabric.node(primary_mn).read_word(primary_addr) != old_word
        # other clients already see the new value
        other = cluster.new_client()
        assert run(cluster, other.search(b"k")).value == b"w"
