"""Memory-node crash handling (§5.2, Algorithm 3 / Algorithm 4)."""

import pytest

from repro.core import FuseeCluster
from repro.core.master import DETECTOR_INTERVAL_US, LEASE_US
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config(n_memory_nodes=3,
                                     replication_factor=2))


def settle(cluster, extra_us=500.0):
    """Give the detector + repair machinery time to finish."""
    cluster.env.run(until=cluster.env.now + LEASE_US + DETECTOR_INTERVAL_US
                    + extra_us)


class TestDetection:
    def test_master_detects_crash(self, cluster):
        cluster.crash_memory_node(1)
        settle(cluster)
        assert 1 in cluster.master.handled_mn_failures

    def test_no_false_positives(self, cluster):
        settle(cluster)
        assert cluster.master.handled_mn_failures == []

    def test_epoch_bumped_after_repair(self, cluster):
        epoch = cluster.master.epoch
        cluster.crash_memory_node(0)
        settle(cluster)
        assert cluster.master.epoch == epoch + 1

    def test_placements_exclude_crashed_mn(self, cluster):
        cluster.crash_memory_node(1)
        settle(cluster)
        for subtable in range(cluster.race.config.n_subtables):
            mns = [mn for mn, _ in cluster.race.placement(subtable)]
            assert 1 not in mns
            assert len(mns) >= 1


class TestDataAvailability:
    def seed(self, cluster, client, n=60):
        for i in range(n):
            assert run(cluster, client.insert(f"key-{i}".encode(),
                                              f"val-{i}".encode())).ok

    @pytest.mark.parametrize("mn", [0, 1, 2])
    def test_search_survives_any_single_mn_crash(self, cluster, mn):
        client = cluster.new_client()
        self.seed(cluster, client)
        cluster.crash_memory_node(mn)
        settle(cluster)
        reader = cluster.new_client()
        for i in range(60):
            result = run(cluster, reader.search(f"key-{i}".encode()))
            assert result.ok, f"key-{i} lost after MN{mn} crash"
            assert result.value == f"val-{i}".encode()

    def test_search_with_warm_cache_survives(self, cluster):
        client = cluster.new_client()
        self.seed(cluster, client, n=30)
        for i in range(30):
            run(cluster, client.search(f"key-{i}".encode()))
        cluster.crash_memory_node(2)
        settle(cluster)
        for i in range(30):
            result = run(cluster, client.search(f"key-{i}".encode()))
            assert result.ok and result.value == f"val-{i}".encode()

    def test_writes_continue_after_failover(self, cluster):
        client = cluster.new_client()
        self.seed(cluster, client, n=20)
        cluster.crash_memory_node(1)
        settle(cluster)
        for i in range(20):
            assert run(cluster, client.update(f"key-{i}".encode(),
                                              b"updated")).ok
        for i in range(20):
            assert run(cluster, client.search(f"key-{i}".encode())).value \
                == b"updated"

    def test_inserts_continue_after_failover(self, cluster):
        client = cluster.new_client()
        cluster.crash_memory_node(2)
        settle(cluster)
        for i in range(20):
            assert run(cluster, client.insert(f"new-{i}".encode(), b"v")).ok
            assert run(cluster, client.search(f"new-{i}".encode())).ok

    def test_deletes_continue_after_failover(self, cluster):
        client = cluster.new_client()
        self.seed(cluster, client, n=10)
        cluster.crash_memory_node(0)
        settle(cluster)
        for i in range(10):
            assert run(cluster, client.delete(f"key-{i}".encode())).ok
            assert not run(cluster, client.search(f"key-{i}".encode())).ok


class TestWritesDuringCrash:
    def test_write_in_flight_during_crash_completes(self, cluster):
        """Clients writing while an MN dies either finish or escalate to
        the master, but never corrupt the index."""
        client = cluster.new_client()
        for i in range(20):
            run(cluster, client.insert(f"key-{i}".encode(), b"v0"))
        env = cluster.env
        outcomes = []

        def writer(i):
            yield env.timeout(i * 1.0)
            result = yield from client.update(f"key-{i % 20}".encode(),
                                              f"v-{i}".encode())
            outcomes.append(result)

        procs = [env.process(writer(i)) for i in range(30)]

        def crasher():
            yield env.timeout(10.0)
            cluster.crash_memory_node(1)

        env.process(crasher())
        env.run(until=env.all_of(procs))
        settle(cluster)
        assert all(result.ok for result in outcomes)
        reader = cluster.new_client()
        for i in range(20):
            assert run(cluster, reader.search(f"key-{i}".encode())).ok

    def test_index_replicas_consistent_after_failover(self, cluster):
        client = cluster.new_client()
        for i in range(40):
            run(cluster, client.insert(f"key-{i}".encode(), b"v"))
        cluster.crash_memory_node(1)
        settle(cluster)
        for i in range(40):
            run(cluster, client.update(f"key-{i}".encode(), b"w"))
        race = cluster.race
        for subtable in range(race.config.n_subtables):
            images = []
            for mn, base in race.placement(subtable):
                node = cluster.fabric.node(mn)
                assert not node.crashed
                images.append(bytes(
                    node.memory[base:base + race.config.subtable_bytes]))
            assert all(img == images[0] for img in images)


class TestReplicationFactorBound:
    def test_survives_r_minus_1_crashes(self):
        """r=3 tolerates 2 MN crashes (§5.1)."""
        cluster = FuseeCluster(small_config(n_memory_nodes=4,
                                            replication_factor=3))
        client = cluster.new_client()
        for i in range(30):
            run(cluster, client.insert(f"key-{i}".encode(),
                                       f"val-{i}".encode()))
        cluster.crash_memory_node(0)
        settle(cluster)
        cluster.crash_memory_node(1)
        settle(cluster)
        reader = cluster.new_client()
        for i in range(30):
            result = run(cluster, reader.search(f"key-{i}".encode()))
            assert result.ok and result.value == f"val-{i}".encode()
