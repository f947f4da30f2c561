"""End-to-end integration scenarios spanning multiple subsystems."""

import pytest

from repro.core import FuseeCluster
from repro.core.client import ClientCrashed, CrashPoint
from repro.core.master import LEASE_US
from repro.harness import fusee_bed, run_closed_loop
from repro.harness.experiments import _dataset, _ycsb_factory
from repro.harness import Scale
from repro.workloads import YcsbConfig, YcsbWorkload
from tests.conftest import small_config, run


class TestYcsbOnFusee:
    def bed(self, scale):
        bed = fusee_bed(dataset_bytes=scale.n_keys * scale.kv_size,
                        background_interval_us=500.0)
        bed.load(_dataset(scale))
        return bed

    def test_ycsb_a_no_errors(self):
        scale = Scale.tiny()
        bed = self.bed(scale)
        clients = [bed.new_client() for _ in range(scale.n_clients)]
        result = run_closed_loop(bed.env, clients,
                                 _ycsb_factory(scale, "A"), bed.execute,
                                 duration_us=scale.duration_us,
                                 warmup_us=scale.warmup_us)
        assert result.errors == 0
        assert result.ops > 100

    def test_ycsb_d_inserts_and_reads_latest(self):
        scale = Scale.tiny()
        bed = self.bed(scale)
        clients = [bed.new_client() for _ in range(4)]
        result = run_closed_loop(bed.env, clients,
                                 _ycsb_factory(scale, "D"), bed.execute,
                                 duration_us=scale.duration_us)
        assert result.errors == 0
        assert result.per_op_counts.get("insert", 0) > 0

    def test_replicas_consistent_after_ycsb_a(self):
        scale = Scale.tiny()
        bed = self.bed(scale)
        clients = [bed.new_client() for _ in range(8)]
        run_closed_loop(bed.env, clients, _ycsb_factory(scale, "A"),
                        bed.execute, duration_us=scale.duration_us)
        # let in-flight conflict rounds drain, then compare index replicas
        bed.env.run(until=bed.env.now + 500.0)
        race = bed.cluster.race
        for subtable in range(race.config.n_subtables):
            images = [bytes(bed.cluster.fabric.node(mn).memory[
                base:base + race.config.subtable_bytes])
                for mn, base in race.placement(subtable)]
            assert all(img == images[0] for img in images)


class TestMixedCrashes:
    def test_mn_and_client_crash_together(self):
        """§5.4: recover MN failures first, then the crashed client."""
        cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                            replication_factor=2))
        client = cluster.new_client()
        for i in range(30):
            run(cluster, client.insert(f"key-{i}".encode(), b"v"))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"key-5", b"crashed-write"))
        cluster.crash_memory_node(2)
        # master: MN failover first
        cluster.run(until=cluster.env.now + LEASE_US * 4)
        assert 2 in cluster.master.handled_mn_failures
        # then client recovery
        def proc():
            return (yield from cluster.master.recover_client(client.cid))
        report, state = run(cluster, proc())
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"key-5")).value \
            == b"crashed-write"
        for i in range(30):
            if i == 5:
                continue
            assert run(cluster, reader.search(f"key-{i}".encode())).ok

    def test_two_client_crashes_recovered_independently(self):
        cluster = FuseeCluster(small_config())
        a, b = cluster.new_client(), cluster.new_client()
        run(cluster, a.insert(b"ka", b"va"))
        run(cluster, b.insert(b"kb", b"vb"))
        for client, key in ((a, b"ka"), (b, b"kb")):
            client.arm_crash(CrashPoint.C2)
            with pytest.raises(ClientCrashed):
                run(cluster, client.update(key, b"new-" + key))
        for client in (a, b):
            def proc(c=client):
                return (yield from cluster.master.recover_client(c.cid))
            run(cluster, proc())
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"ka")).value == b"new-ka"
        assert run(cluster, reader.search(b"kb")).value == b"new-kb"


class TestMemoryStability:
    def test_sustained_churn_in_bounded_memory(self):
        """Hours of simulated update churn must not exhaust the pool, as
        long as background reclamation runs (the paper's steady state)."""
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        client.start_background(interval_us=300.0)
        keys = [f"churn-{i}".encode() for i in range(20)]
        for key in keys:
            run(cluster, client.insert(key, b"x" * 100))
        blocks_mid = None
        for round_no in range(12):
            for i, key in enumerate(keys):
                assert run(cluster, client.update(
                    key, f"{round_no}-{i}".encode().ljust(100, b"."))).ok
            cluster.run(until=cluster.env.now + 600.0)
            if round_no == 5:
                blocks_mid = client.allocator.stats_blocks_allocated
        assert client.allocator.stats_blocks_allocated == blocks_mid

    def test_fabric_counters_monotone(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        before = cluster.fabric.stats.snapshot()
        run(cluster, client.insert(b"k", b"v"))
        after = cluster.fabric.stats
        assert after.writes > before.writes
        assert after.atomics > before.atomics
        assert after.batches > before.batches


class TestElasticitySmoke:
    def test_clients_added_mid_run_contribute(self):
        scale = Scale.tiny()
        bed = fusee_bed(dataset_bytes=scale.n_keys * scale.kv_size)
        bed.load(_dataset(scale))
        base = [bed.new_client() for _ in range(2)]

        def add():
            return [(bed.new_client(), _ycsb_factory(scale, "C")(99))]

        result = run_closed_loop(
            bed.env, base, _ycsb_factory(scale, "C"), bed.execute,
            duration_us=1_000.0, timeline_bucket_us=250.0,
            events=[(500.0, add)])
        first = sum(m for t, m in result.timeline if t < 500.0)
        second = sum(m for t, m in result.timeline if t >= 500.0)
        assert second > first
