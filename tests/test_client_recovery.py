"""Crashed-client recovery (§5.3): log traversal, index repair, memory
re-management, and the Table 1 breakdown."""

import pytest

from repro.core import FuseeCluster
from repro.core.client import ClientConfig, ClientCrashed, CrashPoint
from repro.core.oplog import CrashCase
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


def crash_during_update(cluster, point, key=b"k", new=b"new-value"):
    client = cluster.new_client()
    assert run(cluster, client.insert(key, b"old-value")).ok
    client.arm_crash(point)
    with pytest.raises(ClientCrashed):
        run(cluster, client.update(key, new))
    return client


def recover(cluster, client):
    def proc():
        return (yield from cluster.master.recover_client(client.cid))
    return run(cluster, proc())


class TestIndexRepair:
    def test_c0_torn_object_reclaimed(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C0)
        report, state = recover(cluster, client)
        assert report.crash_cases.get("c0") == 1
        assert report.objects_reclaimed >= 1
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"old-value"

    def test_c1_uncommitted_update_redone(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C1)
        report, _ = recover(cluster, client)
        assert report.crash_cases.get("c1") == 1
        assert report.requests_redone >= 1
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"new-value"

    def test_c1_repairs_backup_inconsistency(self, cluster):
        """After a c1 crash backups differ from the primary; recovery must
        leave every replica of the slot identical."""
        client = crash_during_update(cluster, CrashPoint.C1)
        recover(cluster, client)
        reader = cluster.new_client()
        meta = cluster.race.key_meta(b"k")
        run(cluster, reader.search(b"k"))
        entry = reader.cache.peek(b"k")
        values = {cluster.fabric.node(mn).read_word(addr)
                  for mn, addr in entry.slot_ref.locations()}
        assert len(values) == 1

    def test_c2_committed_update_finished(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C2)
        report, _ = recover(cluster, client)
        assert report.crash_cases.get("c2") == 1
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"new-value"

    def test_c3_finished_request_untouched(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C3)
        report, _ = recover(cluster, client)
        assert report.crash_cases.get("c3") == 1
        assert report.requests_redone == 0
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"new-value"

    def test_c3_recovers_batched_free(self, cluster):
        """§5.3: the master asynchronously frees the old object of a
        finished request (the crashed client never flushed its frees)."""
        client = crash_during_update(cluster, CrashPoint.C3)
        # Find the old object's free bit before recovery.
        layout = cluster.region_map.layout
        recover(cluster, client)
        # The freed bit of *some* object in the crashed client's blocks
        # must now be set (the old KV block).
        found_set_bit = False
        for region_id, block, _cls in client.allocator.owned_blocks():
            mn, base = cluster.region_map.placement(region_id)[0]
            off = layout.bitmap_offset_of(block)
            bm = cluster.fabric.node(mn).memory[
                base + off:base + off + layout.bitmap_bytes_per_block]
            if any(bm):
                found_set_bit = True
        assert found_set_bit

    def test_crashed_insert_c1_redone(self, cluster):
        client = cluster.new_client()
        run(cluster, client.insert(b"warm", b"x"))  # publish heads
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.insert(b"fresh-key", b"fresh-value"))
        recover(cluster, client)
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"fresh-key")).value \
            == b"fresh-value"

    def test_crashed_insert_c1_redone_into_the_first_empty_slot(self,
                                                                cluster):
        """The redo tries ``empties[0]`` of the primary's bucket view —
        the slot the crashed round had CASed on the backups."""
        client = cluster.new_client()
        for i in range(24):
            assert run(cluster, client.insert(f"warm-{i}".encode(), b"x")).ok
        race = cluster.race
        meta = race.key_meta(b"fresh-key")
        view = race.parse_buckets(meta, [
            cluster.fabric.node(op.mn_id).memory[op.addr:op.addr + op.length]
            for op in race.bucket_read_ops(meta)])
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.insert(b"fresh-key", b"fresh-value"))
        report, _ = recover(cluster, client)
        assert report.requests_redone == 1
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"fresh-key")).value \
            == b"fresh-value"
        slot = reader.cache.peek(b"fresh-key").slot_ref
        assert slot.key == (meta.subtable, view.empties[0])
        assert {cluster.fabric.node(mn).read_word(addr)
                for mn, addr in slot.locations()} \
            == {reader.cache.peek(b"fresh-key").slot_word}

    def test_crashed_delete_c1_redone(self, cluster):
        client = cluster.new_client()
        run(cluster, client.insert(b"victim", b"v"))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.delete(b"victim"))
        recover(cluster, client)
        reader = cluster.new_client()
        assert not run(cluster, reader.search(b"victim")).ok

    def test_crashed_delete_c2_finished(self, cluster):
        client = cluster.new_client()
        run(cluster, client.insert(b"victim", b"v"))
        client.arm_crash(CrashPoint.C2)
        with pytest.raises(ClientCrashed):
            run(cluster, client.delete(b"victim"))
        recover(cluster, client)
        reader = cluster.new_client()
        assert not run(cluster, reader.search(b"victim")).ok

    def test_recovery_idempotent(self, cluster):
        """Recovering twice must not redo the request twice (§5.4: the
        commit marker written during the first recovery protects it)."""
        client = crash_during_update(cluster, CrashPoint.C1)
        recover(cluster, client)
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"new-value"
        # Another client moves the key forward...
        run(cluster, reader.update(b"k", b"even-newer"))
        # ...and a second recovery pass must not resurrect new-value.
        recover(cluster, client)
        assert run(cluster, reader.search(b"k")).value == b"even-newer"

    def test_recovery_with_concurrent_traffic(self, cluster):
        """Live clients keep operating while the master recovers."""
        client = crash_during_update(cluster, CrashPoint.C1)
        live = cluster.new_client()
        env = cluster.env
        done = []

        def traffic():
            for i in range(30):
                result = yield from live.insert(f"live-{i}".encode(), b"v")
                assert result.ok
            done.append(True)

        def recovery():
            yield from cluster.master.recover_client(client.cid)
            done.append(True)

        env.run(until=env.all_of([env.process(traffic()),
                                  env.process(recovery())]))
        assert len(done) == 2
        reader = cluster.new_client()
        for i in range(30):
            assert run(cluster, reader.search(f"live-{i}".encode())).ok


class TestEveryReplicationStrategy:
    """Recovery at every crash point under every slot-replication
    strategy, on 3 MNs with 2 index replicas: the reported cases, one
    word on every replica of the slot, the legal value, no leaked block.

    The c1 rows are why ``Master._redo_request`` calls ``snapshot_write``
    and not the cluster's own strategy: routed through FUSEE-CR's
    ``sequential_write`` the redo loses its first backup CAS to the
    crashed round's own value, and the key ends with the old value on
    the primary and the new one on the backup.
    """

    # SWARM commits at the primary, which its 1-RTT broadcast has written
    # before the c1/c2 hooks run: recovery finds the request already live.
    REPORTED = {
        "c0": {"c0": 1, "c3": 1},   # torn object + the finished insert
        "c1": {"c1": 1}, "c2": {"c2": 1}, "c3": {"c3": 1},
    }
    REPORTED_SWARM = {**REPORTED, "c1": {"c3": 1}, "c2": {"c3": 1}}

    @pytest.mark.parametrize("mode", ["snapshot", "sequential", "swarm"])
    @pytest.mark.parametrize("point", [p.value for p in CrashPoint])
    def test_crash_point_recovers(self, mode, point):
        cluster = FuseeCluster(small_config(
            client=ClientConfig(replication_mode=mode)))
        granted = {mn: alloc.free_block_count
                   for mn, alloc in cluster.mn_allocators.items()}
        client = crash_during_update(cluster, CrashPoint(point))
        report, state = recover(cluster, client)
        reported = self.REPORTED_SWARM if mode == "swarm" else self.REPORTED
        assert report.crash_cases == reported[point]

        reader = cluster.new_client()
        legal = b"old-value" if point == "c0" else b"new-value"
        assert run(cluster, reader.search(b"k")).value == legal
        slot = reader.cache.peek(b"k").slot_ref
        assert len(slot.placement) == 2
        assert len({cluster.fabric.node(mn).read_word(addr)
                    for mn, addr in slot.locations()}) == 1

        revived = cluster.revive_client(client, state)
        assert run(cluster, revived.update(b"k", b"after-revival")).ok
        assert run(cluster, reader.search(b"k")).value == b"after-revival"
        for _ in range(2):
            run(cluster, revived.maintenance(release_blocks=True))
        outstanding = sum(granted[mn] - alloc.free_block_count
                          for mn, alloc in cluster.mn_allocators.items())
        assert outstanding == sum(len(c.allocator.owned_blocks())
                                  for c in cluster.clients if not c.crashed)


class TestMemoryRemanagement:
    def test_batched_free_survives_a_failed_bitmap_read(self, cluster):
        """Every recovery READ falls over to the next replica when the
        first one fails — the free-bit check too, which used to give up
        and leak the superseded object."""
        from repro.rdma import TIMEOUT, ReadOp
        from repro.rdma.verbs import Completion
        from repro.core.wire import unpack_slot

        client = cluster.new_client()
        assert run(cluster, client.insert(b"k", b"old-value")).ok
        old = unpack_slot(client.cache.peek(b"k").slot_word).pointer
        client.arm_crash(CrashPoint.C3)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"new-value"))

        region_id, offset = cluster.region_map.split(old)
        word_off, mask = cluster.region_map.layout.free_bit(offset)
        replicas = [(mn, base + word_off) for mn, base
                    in cluster.region_map.placement(region_id)]
        fabric, timed_out = cluster.fabric, []
        post_one = fabric.post_one

        def flaky_post_one(op, qp=0):
            # the primary never answers a READ of that bitmap word
            if isinstance(op, ReadOp) and op.length == 8 \
                    and (op.mn_id, op.addr) == replicas[0]:
                timed_out.append(op)
                return cluster.env.timeout(5.0, Completion(op, TIMEOUT))
            return post_one(op, qp)

        fabric.post_one = flaky_post_one
        recover(cluster, client)
        assert timed_out
        for mn, addr in replicas:
            assert fabric.node(mn).read_word(addr) & mask

    def test_blocks_found(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C1)
        report, state = recover(cluster, client)
        assert report.blocks_recovered == len(state.blocks)
        assert report.blocks_recovered >= 1

    def test_free_lists_exclude_live_objects(self, cluster):
        client = cluster.new_client()
        keys = [f"key-{i}".encode() for i in range(10)]
        for key in keys:
            run(cluster, client.insert(key, b"v"))
        client.arm_crash(CrashPoint.C0)
        with pytest.raises(ClientCrashed):
            run(cluster, client.insert(b"last", b"v"))
        report, state = recover(cluster, client)
        # the 10 inserted objects must NOT be in the recovered free lists
        reader = cluster.new_client()
        live_gaddrs = set()
        from repro.core.wire import unpack_slot
        for key in keys:
            run(cluster, reader.search(key))
            entry = reader.cache.peek(key)
            live_gaddrs.add(unpack_slot(entry.slot_word).pointer)
        for free in state.free_lists.values():
            assert not live_gaddrs & set(free)

    def test_revived_client_operates(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C1)
        _report, state = recover(cluster, client)
        revived = cluster.revive_client(client, state)
        for i in range(20):
            assert run(cluster, revived.insert(f"post-{i}".encode(),
                                               b"v")).ok
        for i in range(20):
            assert run(cluster, revived.search(f"post-{i}".encode())).ok
        assert run(cluster, revived.update(b"k", b"after-revival")).ok
        assert run(cluster, revived.search(b"k")).value == b"after-revival"

    def test_revived_client_does_not_corrupt_live_data(self, cluster):
        client = cluster.new_client()
        keys = [f"key-{i}".encode() for i in range(15)]
        for key in keys:
            run(cluster, client.insert(key, b"precious"))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(keys[0], b"crashed-update"))
        _report, state = recover(cluster, client)
        revived = cluster.revive_client(client, state)
        # Burn through recovered free lists: must never hand out an object
        # still referenced by the index.
        for i in range(60):
            run(cluster, revived.insert(f"burn-{i}".encode(), b"x" * 30))
        reader = cluster.new_client()
        assert run(cluster, reader.search(keys[0])).value == b"crashed-update"
        for key in keys[1:]:
            assert run(cluster, reader.search(key)).value == b"precious"


class TestRecoveryReport:
    def test_connection_dominates(self, cluster):
        """Table 1: connection/MR re-establishment is ~92% of recovery."""
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        for i in range(100):
            run(cluster, client.update(b"k", f"v{i}".encode()))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"crash"))
        report, _ = recover(cluster, client)
        assert report.connect_mr_us / report.total_us > 0.80
        assert report.traverse_log_us > 0
        assert report.get_metadata_us > 0
        assert report.construct_free_list_us > 0

    def test_traversal_scales_with_log_length(self, cluster):
        times = []
        for n_updates in (20, 120):
            client = cluster.new_client()
            run(cluster, client.insert(f"key-{n_updates}".encode(), b"v"))
            for i in range(n_updates):
                run(cluster, client.update(f"key-{n_updates}".encode(),
                                           f"v{i}".encode()))
            client.arm_crash(CrashPoint.C1)
            with pytest.raises(ClientCrashed):
                run(cluster, client.update(f"key-{n_updates}".encode(),
                                           b"x"))
            report, _ = recover(cluster, client)
            times.append((report.objects_visited, report.traverse_log_us))
        (n1, t1), (n2, t2) = times
        assert n2 > n1
        assert t2 > t1

    def test_rows_format(self, cluster):
        client = crash_during_update(cluster, CrashPoint.C1)
        report, _ = recover(cluster, client)
        rows = report.rows()
        assert rows[-1][0] == "Total"
        assert rows[-1][2] == 100.0
        assert abs(sum(pct for _n, _ms, pct in rows[:-1]) - 100.0) < 0.1

    def test_objects_visited_counts_log_chain(self, cluster):
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        for i in range(25):
            run(cluster, client.update(b"k", f"v{i}".encode()))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"x"))
        report, _ = recover(cluster, client)
        # 1 insert + 25 updates + 1 crashed update = 27 allocations
        assert report.objects_visited >= 27


class TestRecoverySpans:
    """The Table-1 phases are tagged with nested tracer spans, so
    ``repro profile`` can break down the recovery budget."""

    def test_recovery_phases_emit_nested_tracer_spans(self):
        from repro.obs import Tracer
        tracer = Tracer()
        cluster = FuseeCluster(small_config(), tracer=tracer)
        client = crash_during_update(cluster, CrashPoint.C1)
        report, _state = recover(cluster, client)
        by_op = {span.op: span for span in tracer.spans}
        parent = by_op["recover.client"]
        scan = by_op["recover.metadata_scan"]
        replay = by_op["recover.log_replay"]
        # Children nest inside the parent recovery span, in phase order.
        assert parent.start_us <= scan.start_us <= scan.end_us \
            <= parent.end_us
        assert parent.start_us <= replay.start_us <= replay.end_us \
            <= parent.end_us
        assert scan.end_us <= replay.start_us
        # Fabric batches issued inside a phase land in that child span.
        assert scan.rtts >= 1      # list-head READ
        assert replay.rtts >= 1    # log-walk READs
        # The replay span covers exactly the Table-1 traversal budget.
        assert replay.end_us - replay.start_us == pytest.approx(
            report.traverse_log_us)

    def test_untraced_recovery_emits_no_spans(self):
        cluster = FuseeCluster(small_config())
        client = crash_during_update(cluster, CrashPoint.C1)
        report, _state = recover(cluster, client)
        assert report.traverse_log_us >= 0.0  # ran fine without a tracer


@pytest.mark.campaign
@pytest.mark.xfail(strict=True, reason="livelock: the revived client's "
                   "UPDATEs of r05 escalate 64 times and run out of retries")
def test_a_revived_client_updates_what_its_crashed_delete_left():
    """The ``recovery/3mn_rf2_idx2/c1-delete/mn1`` differential cell: a
    client crashes at c1 of a DELETE of ``r05``, MN 1 crashes, the master
    recovers the client and it is revived.  Every UPDATE the revived
    client then makes must succeed; today each one of ``r05`` escalates
    to the master 64 times and fails ``retries exhausted`` (~36 s, so
    not tier-1).  Fixing it moves the cell's recorded bytes."""
    from unittest import mock

    from repro.check.differential import _recovery

    updates = []
    real_revive = FuseeCluster.revive_client

    def revive(cluster, victim, state):
        client = real_revive(cluster, victim, state)
        real_update = client.update

        def update(key, value):
            result = yield from real_update(key, value)
            updates.append((key, result.ok, result.error))
            return result

        client.update = update
        return client

    with mock.patch.object(FuseeCluster, "revive_client", revive):
        _recovery(0, "3mn_rf2_idx2", 1, 1)
    assert updates, "the revived client made no UPDATE"
    assert [u for u in updates if not u[1]] == []
