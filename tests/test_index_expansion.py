"""RACE extendible index expansion (directory splits via the master).

The FUSEE paper leaves replicated resizing undefined; this repository
implements it as a master-coordinated per-subtable split reusing the
failover barrier machinery (see DESIGN.md).  These tests cover the pure
directory math and the full end-to-end split.
"""

import pytest

from repro.core import FuseeCluster
from repro.core.master import LEASE_US
from repro.core.race import RaceConfig, RaceHashing, hash_key
from tests.conftest import small_config, run


def tiny_index_config(**kw):
    return small_config(
        race=RaceConfig(n_subtables=2, n_groups=2, slots_per_bucket=2),
        **kw)


def make_race(n=4):
    config = RaceConfig(n_subtables=n, n_groups=8, slots_per_bucket=2)
    placements = {i: [(0, i * config.subtable_bytes)] for i in range(n)}
    return RaceHashing(config, placements)


class TestDirectoryMath:
    def test_initial_directory_identity(self):
        race = make_race(4)
        assert race.directory == [0, 1, 2, 3]
        assert race.global_depth == 2
        for table in range(4):
            assert race.local_depth(table) == 2
        race.check_directory_invariants()

    def test_split_at_global_depth_doubles_directory(self):
        race = make_race(2)
        new_id, directory, _router = race.staged_split(0)
        assert new_id == 2
        assert len(directory) == 4
        # suffix addressing: entries 0 and 2 pointed at table 0; entry 2
        # (bit 1 set) moves to the new table
        assert directory == [0, 1, 2, 1]

    def test_split_below_global_depth_reuses_directory(self):
        race = make_race(2)
        new_id, directory, _ = race.staged_split(0)
        race.commit_split(0, new_id, directory, [(0, 999)])
        race.check_directory_invariants()
        # table 1 still has local depth 1 < global depth 2: splitting it
        # must not double the directory again
        new_id2, directory2, _ = race.staged_split(1)
        assert len(directory2) == 4
        assert directory2 == [0, new_id2 if directory2[1] == new_id2
                              else 1, 2, directory2[3]]

    def test_commit_updates_depths(self):
        race = make_race(2)
        new_id, directory, _ = race.staged_split(0)
        race.commit_split(0, new_id, directory, [(0, 999)])
        assert race.local_depth(0) == 2
        assert race.local_depth(new_id) == 2
        assert race.local_depth(1) == 1
        race.check_directory_invariants()

    def test_router_partitions_digests(self):
        race = make_race(2)
        new_id, _directory, router = race.staged_split(0)
        for i in range(2000):
            digest = hash_key(f"k{i}".encode())
            before = race.table_for_digest(digest)
            after = router(digest)
            if before == 1:
                assert after == 1  # untouched table unaffected
            else:
                assert after in (0, new_id)

    def test_repeated_splits_keep_invariants(self):
        race = make_race(2)
        import random
        rng = random.Random(3)
        for _ in range(6):
            target = rng.choice(race.physical_tables())
            new_id, directory, _ = race.staged_split(target)
            race.commit_split(target, new_id, directory, [(0, new_id)])
            race.check_directory_invariants()
        assert len(race.physical_tables()) == 8

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            make_race(2).staged_split(99)


class TestEndToEndExpansion:
    def test_inserts_beyond_capacity_trigger_splits(self):
        cluster = FuseeCluster(tiny_index_config())
        client = cluster.new_client()
        n = 120  # far beyond 2 subtables x 2 groups x candidate slots
        for i in range(n):
            result = run(cluster, client.insert(f"grow-{i}".encode(),
                                                f"v-{i}".encode()))
            assert result.ok, f"insert {i} failed"
        assert cluster.master.splits_performed >= 1
        cluster.race.check_directory_invariants()
        for i in range(n):
            result = run(cluster, client.search(f"grow-{i}".encode()))
            assert result.ok and result.value == f"v-{i}".encode()

    def test_expansion_preserves_updates_and_deletes(self):
        cluster = FuseeCluster(tiny_index_config())
        client = cluster.new_client()
        for i in range(90):
            assert run(cluster, client.insert(f"g-{i}".encode(), b"v")).ok
        assert cluster.master.splits_performed >= 1
        for i in range(0, 90, 3):
            assert run(cluster, client.update(f"g-{i}".encode(), b"w")).ok
        for i in range(1, 90, 3):
            assert run(cluster, client.delete(f"g-{i}".encode())).ok
        for i in range(90):
            result = run(cluster, client.search(f"g-{i}".encode()))
            if i % 3 == 0:
                assert result.value == b"w"
            elif i % 3 == 1:
                assert not result.ok
            else:
                assert result.value == b"v"

    def test_split_replicates_new_subtable(self):
        cluster = FuseeCluster(tiny_index_config(n_memory_nodes=3,
                                                 replication_factor=2))
        client = cluster.new_client()
        for i in range(100):
            assert run(cluster, client.insert(f"r-{i}".encode(), b"v")).ok
        assert cluster.master.splits_performed >= 1
        for table in cluster.race.physical_tables():
            placement = cluster.race.placement(table)
            assert len(placement) >= 1
            images = [bytes(cluster.fabric.node(mn).memory[
                base:base + cluster.race.config.subtable_bytes])
                for mn, base in placement]
            assert all(img == images[0] for img in images)

    def test_expansion_with_concurrent_readers(self):
        cluster = FuseeCluster(tiny_index_config())
        writer = cluster.new_client()
        reader = cluster.new_client()
        for i in range(20):
            run(cluster, writer.insert(f"c-{i}".encode(), b"v"))
        env = cluster.env
        read_results = []

        def read_loop():
            for _ in range(120):
                yield env.timeout(3.0)
                result = yield from reader.search(b"c-7")
                read_results.append(result)

        def write_loop():
            for i in range(20, 110):
                result = yield from writer.insert(f"c-{i}".encode(), b"v")
                assert result.ok

        env.run(until=env.all_of([env.process(read_loop()),
                                  env.process(write_loop())]))
        assert cluster.master.splits_performed >= 1
        assert all(r.ok and r.value == b"v" for r in read_results)

    def test_expansion_after_mn_failover(self):
        cluster = FuseeCluster(tiny_index_config(n_memory_nodes=3,
                                                 replication_factor=2))
        client = cluster.new_client()
        for i in range(20):
            run(cluster, client.insert(f"f-{i}".encode(), b"v"))
        cluster.crash_memory_node(1)
        cluster.run(until=cluster.env.now + LEASE_US * 4)
        for i in range(20, 110):
            assert run(cluster, client.insert(f"f-{i}".encode(), b"v")).ok
        for i in range(110):
            assert run(cluster, client.search(f"f-{i}".encode())).ok
