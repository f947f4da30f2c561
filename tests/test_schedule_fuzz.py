"""Randomized-schedule fuzzing of the SNAPSHOT protocol and failover.

The paper model-checks SNAPSHOT with TLA+; here we complement the
deterministic protocol tests with randomized interleavings — writer start
times, sleep jitter, crash points and crash timing all drawn from seeded
RNGs — checking the two safety properties on every schedule:

* exactly one winner per conflict round and replica convergence;
* linearizability of the observed history.
"""

import random

import pytest

from repro.core import FuseeCluster
from repro.core.linearizability import History, check_linearizable
from repro.core.master import LEASE_US
from repro.core.race import SlotRef
from repro.core.snapshot import Outcome, snapshot_read, snapshot_write
from repro.rdma import Fabric, FabricConfig, MemoryNode
from repro.sim import Environment
from tests.conftest import small_config, run


def make_slot(r):
    env = Environment()
    fabric = Fabric(env, FabricConfig())
    for mn in range(r):
        fabric.add_node(MemoryNode(env, mn, capacity=64))
    ref = SlotRef(subtable=0, slot_index=0,
                  placement=tuple((mn, 0) for mn in range(r)))
    return env, fabric, ref


@pytest.mark.parametrize("seed", range(30))
def test_random_schedules_single_winner(seed):
    rng = random.Random(seed)
    r = rng.choice([2, 3, 4, 5])
    n_writers = rng.randint(2, 8)
    env, fabric, ref = make_slot(r)
    results = {}

    def writer(wid):
        yield env.timeout(rng.random() * 3.0)
        result = yield from snapshot_write(
            fabric, ref, 0, 100 + wid,
            retry_sleep_us=0.5 + rng.random() * 3.0)
        results[wid] = result

    for wid in range(n_writers):
        env.process(writer(wid))
    env.run()
    winners = [w for w, res in results.items() if res.outcome.won]
    assert len(winners) == 1, f"seed={seed}: winners={winners}"
    final = {fabric.node(mn).read_word(addr)
             for mn, addr in ref.locations()}
    assert final == {100 + winners[0]}
    assert all(res.outcome.completed for res in results.values())


@pytest.mark.parametrize("seed", range(20))
def test_random_schedules_linearizable(seed):
    rng = random.Random(1000 + seed)
    r = rng.choice([2, 3])
    env, fabric, ref = make_slot(r)
    history = History(initial_value=0)

    def writer(wid):
        yield env.timeout(rng.random() * 4.0)
        invoked = env.now
        result = yield from snapshot_write(fabric, ref, 0, 100 + wid)
        assert result.outcome.completed
        history.record("w", 100 + wid, invoked, env.now)

    def reader(rid):
        yield env.timeout(rng.random() * 8.0)
        invoked = env.now
        result = yield from snapshot_read(fabric, ref)
        history.record("r", result.value, invoked, env.now)

    for wid in range(rng.randint(2, 5)):
        env.process(writer(wid))
    for rid in range(rng.randint(1, 6)):
        env.process(reader(rid))
    env.run()
    assert check_linearizable(history), f"seed={seed}"


@pytest.mark.parametrize("seed", range(10))
def test_random_multi_round_chains(seed):
    """Back-to-back conflict rounds with random participation."""
    rng = random.Random(7000 + seed)
    env, fabric, ref = make_slot(3)
    committed = [0]
    for round_no in range(4):
        results = {}

        def writer(wid, base=committed[-1], tag=round_no):
            yield env.timeout(rng.random() * 2.0)
            res = yield from snapshot_write(fabric, ref, base,
                                            1000 * (tag + 1) + wid)
            results[wid] = res

        procs = [env.process(writer(wid))
                 for wid in range(rng.randint(1, 5))]
        env.run(until=env.all_of(procs))
        values = {fabric.node(mn).read_word(addr)
                  for mn, addr in ref.locations()}
        assert len(values) == 1, f"seed={seed} round={round_no}"
        committed.append(values.pop())
    assert len(set(committed)) == 5


@pytest.mark.parametrize("seed", range(8))
def test_random_cluster_ops_with_mn_crash(seed):
    """Random KV traffic with an MN crash at a random time: no lost or
    phantom keys once the dust settles."""
    rng = random.Random(40 + seed)
    cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                        replication_factor=2))
    clients = [cluster.new_client() for _ in range(3)]
    model = {}
    keys = [f"fuzz-{i}".encode() for i in range(15)]
    for key in keys:
        run(cluster, clients[0].insert(key, b"init"))
        model[key] = b"init"
    env = cluster.env
    results = []

    def worker(c, ops):
        for op_no in range(ops):
            yield env.timeout(rng.random() * 8.0)
            key = rng.choice(keys)
            value = f"v-{c.cid}-{op_no}".encode()
            result = yield from c.update(key, value)
            results.append((key, value, result))

    procs = [env.process(worker(c, rng.randint(3, 8))) for c in clients]
    crash_mn = rng.randrange(3)

    def crasher():
        yield env.timeout(rng.random() * 20.0)
        cluster.crash_memory_node(crash_mn)

    env.process(crasher())
    env.run(until=env.all_of(procs))
    # settle failover
    cluster.run(until=env.now + LEASE_US * 4)
    assert all(result.ok for _k, _v, result in results)
    reader = cluster.new_client()
    for key in keys:
        final = run(cluster, reader.search(key))
        assert final.ok, f"seed={seed}: lost {key!r}"
        wrote = {v for k, v, _r in results if k == key} | {b"init"}
        assert final.value in wrote, f"seed={seed}: phantom on {key!r}"


class TestBackupAgreementRead:
    """Algorithm 4 READ with r=3: disagreeing backups defer to the master."""

    def test_search_with_crashed_primary_consistent_backups(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                            replication_factor=3))
        client = cluster.new_client()
        run(cluster, client.insert(b"k3", b"v3"))
        meta = cluster.race.key_meta(b"k3")
        primary_mn = cluster.race.placement(meta.subtable)[0][0]
        cluster.fabric.node(primary_mn).crash()
        reader = cluster.new_client()
        result = run(cluster, reader.search(b"k3"))
        assert result.ok and result.value == b"v3"

    def test_search_with_disagreeing_backups_waits_for_repair(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                            replication_factor=3))
        client = cluster.new_client()
        run(cluster, client.insert(b"k3", b"v3"))
        # forge an in-flight write: change ONE backup of the key's slot
        entry = client.cache.peek(b"k3")
        ref = entry.slot_ref
        locations = ref.locations()
        mn_b, addr_b = locations[1]
        forged = entry.slot_word ^ 0x1  # a conflicting proposal
        cluster.fabric.node(mn_b).write_word(addr_b, forged)
        # kill the primary: backups now disagree
        cluster.fabric.node(locations[0][0]).crash()
        reader = cluster.new_client()
        result = run(cluster, reader.search(b"k3"))
        # the master repaired the subtable; the search resolved through
        # the post-repair placement and the slot is consistent again
        new_ref = cluster.race.slot_ref(ref.subtable, ref.slot_index)
        words = {cluster.fabric.node(mn).read_word(addr)
                 for mn, addr in new_ref.locations()}
        assert len(words) == 1
        assert cluster.master.epoch >= 1
