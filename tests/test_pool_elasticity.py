"""Runtime memory-pool growth: add_memory_node."""

import pytest

from repro.core import FuseeCluster
from repro.core.master import LEASE_US
from tests.conftest import small_config, run


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


class TestAddMemoryNode:
    def test_node_joins_fabric_and_ring(self, cluster):
        before = set(cluster.fabric.nodes)
        mn_id = cluster.add_memory_node()
        assert mn_id not in before
        assert mn_id in cluster.fabric.nodes
        assert mn_id in cluster.ring.nodes

    def test_existing_data_untouched(self, cluster):
        client = cluster.new_client()
        for i in range(40):
            run(cluster, client.insert(f"pre-{i}".encode(), b"v"))
        cluster.add_memory_node()
        reader = cluster.new_client()
        for i in range(40):
            assert run(cluster, reader.search(f"pre-{i}".encode())).value \
                == b"v"

    def test_new_regions_primary_on_new_node(self, cluster):
        before = set(cluster.region_map.region_ids)
        mn_id = cluster.add_memory_node(regions=3)
        new_regions = set(cluster.region_map.region_ids) - before
        assert len(new_regions) == 3
        assert set(cluster.region_map.primary_regions_of(mn_id)) \
            == new_regions
        for rid in new_regions:
            placement = cluster.region_map.placement(rid)
            assert placement[0][0] == mn_id
            assert len(placement) == cluster.config.replication_factor
            assert len({mn for mn, _ in placement}) == len(placement)

    def test_new_node_serves_allocations(self, cluster):
        mn_id = cluster.add_memory_node(regions=2)
        client = cluster.new_client()
        # round-robin refills eventually hit the new node
        hit = False
        for i in range(200):
            assert run(cluster, client.insert(f"post-{i}".encode(),
                                              b"x" * 100)).ok
            if any(cluster.region_map.placement(r)[0][0] == mn_id
                   for r, _b, _c in client.allocator.owned_blocks()):
                hit = True
                break
        assert hit, "new node never served a block"

    def test_client_table_replicated_to_new_node(self, cluster):
        client = cluster.new_client()
        run(cluster, client.insert(b"seed", b"v"))  # publishes a head
        mn_id = cluster.add_memory_node()
        table_bytes = cluster.client_table.table_bytes(
            cluster.config.max_clients, len(cluster.size_classes))
        old_mn, old_base = next(iter(
            (m, b) for m, b in cluster.client_table.bases.items()
            if m != mn_id))
        new_base = cluster.client_table.bases[mn_id]
        assert cluster.fabric.node(mn_id).memory[
            new_base:new_base + table_bytes] == \
            cluster.fabric.node(old_mn).memory[
                old_base:old_base + table_bytes]

    def test_recovery_works_after_growth(self, cluster):
        from repro.core.client import ClientCrashed, CrashPoint
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        cluster.add_memory_node()
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"w"))

        def proc():
            return (yield from cluster.master.recover_client(client.cid))

        run(cluster, proc())
        reader = cluster.new_client()
        assert run(cluster, reader.search(b"k")).value == b"w"

    def test_new_node_crash_handled(self, cluster):
        client = cluster.new_client()
        mn_id = cluster.add_memory_node(regions=2)
        for i in range(30):
            run(cluster, client.insert(f"g-{i}".encode(), b"v"))
        cluster.crash_memory_node(mn_id)
        cluster.run(until=cluster.env.now + LEASE_US * 4)
        reader = cluster.new_client()
        for i in range(30):
            assert run(cluster, reader.search(f"g-{i}".encode())).ok
