"""Chaos soak: every disturbance the system supports, in one life cycle.

Sequential phases with a dict oracle between them, so any lost update,
phantom key, or corrupted value is pinpointed to the phase that caused it:

  load → churn → churn under packet loss → churn across a healed
  partition → index splits → MN crash → client crash + recovery →
  pool growth → more churn → final audit.
"""

import random

import pytest

from repro.core import FuseeCluster
from repro.core.addressing import RegionConfig
from repro.core.client import ClientCrashed, CrashPoint
from repro.core.master import LEASE_US
from repro.core.race import RaceConfig
from repro.faults import CN, FaultPlan, LinkFault, Partition
from tests.conftest import run


def chaos_cluster():
    from repro.core import ClusterConfig
    return FuseeCluster(ClusterConfig(
        n_memory_nodes=3,
        replication_factor=2,
        regions_per_mn=3,
        max_clients=32,
        region=RegionConfig(region_size=1 << 18, block_size=1 << 13),
        race=RaceConfig(n_subtables=2, n_groups=8, slots_per_bucket=4),
    ))


def audit(cluster, model, phase, deleted=()):
    reader = cluster.new_client()
    for key, value in model.items():
        result = run(cluster, reader.search(key))
        assert result.ok, f"{phase}: lost {key!r}"
        assert result.value == value, f"{phase}: corrupt {key!r}"
    # spot-check absence of recently deleted keys
    for key in list(deleted)[:5]:
        assert key not in model
        result = run(cluster, reader.search(key))
        assert not result.ok, f"{phase}: deleted {key!r} resurrected"
        assert result.error is None, \
            f"{phase}: absence check of {key!r} failed: {result.error}"
    return reader


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_full_lifecycle(seed):
    rng = random.Random(seed)
    cluster = chaos_cluster()
    model = {}
    clients = [cluster.new_client() for _ in range(3)]
    for client in clients:
        client.start_background(400.0)

    # phase 1: load past the initial index capacity (forces splits)
    capacity = 2 * cluster.race.config.slots_per_subtable
    for i in range(capacity * 2):
        key = f"seed-{seed}-{i:05d}".encode()
        value = f"v{i}".encode()
        assert run(cluster, rng.choice(clients).insert(key, value)).ok
        model[key] = value
    assert cluster.master.splits_performed >= 1
    cluster.race.check_directory_invariants()
    audit(cluster, model, "load")

    # phase 2: churn (updates + deletes + reinserts)
    deleted = set()
    keys = list(model)
    for _ in range(120):
        key = rng.choice(keys)
        op = rng.random()
        client = rng.choice(clients)
        if op < 0.6:
            value = f"upd-{rng.randrange(10**6)}".encode()
            if run(cluster, client.update(key, value)).ok:
                model[key] = value
                deleted.discard(key)
        elif key in model:
            assert run(cluster, client.delete(key)).ok
            del model[key]
            deleted.add(key)
        else:
            value = b"re-insert"
            if run(cluster, client.insert(key, value)).ok:
                model[key] = value
                deleted.discard(key)
    audit(cluster, model, "churn", deleted)

    # phase 2b: churn under 1% packet loss + duplication.  Operations may
    # now fail with a typed error instead of succeeding, so the oracle is
    # only advanced on reported success — a success that did not stick, or
    # a failure that secretly applied, shows up in the audit.
    now = cluster.env.now
    cluster.install_faults(FaultPlan(link_faults=[
        LinkFault(drop_p=0.01, dup_p=0.005, jitter_us=0.5,
                  start_us=now, end_us=now + 10**9)], seed=seed))
    for _ in range(60):
        key = rng.choice(keys)
        client = rng.choice(clients)
        op = rng.random()
        if op < 0.6 or key not in model:
            value = f"lossy-{rng.randrange(10**6)}".encode()
            writer = client.update if key in model else client.insert
            if run(cluster, writer(key, value)).ok:
                model[key] = value
                deleted.discard(key)
        else:
            if run(cluster, client.delete(key)).ok:
                del model[key]
                deleted.add(key)
    cluster.clear_faults()
    audit(cluster, model, "lossy-churn", deleted)

    # phase 2c: churn *scratch* keys across a client<->MN partition that
    # heals mid-phase, then reconcile each scratch key on the healed
    # fabric.  Scratch keys keep the shared oracle untouched while the
    # partition makes outcomes uncertain; after reconciliation they join
    # the model with known values.
    now = cluster.env.now
    heal_at = now + 400.0
    cluster.install_faults(FaultPlan(partitions=[
        Partition(a=CN, b=1, start_us=now, end_us=heal_at)],
        seed=seed + 17))
    scratch = [f"scratch-{seed}-{i}".encode() for i in range(6)]
    for i in range(24):
        key = scratch[i % len(scratch)]
        client = rng.choice(clients)
        roll = rng.random()
        if roll < 0.5:
            run(cluster, client.insert(key, f"part-i{i}".encode()))
        elif roll < 0.8:
            run(cluster, client.update(key, f"part-u{i}".encode()))
        else:
            run(cluster, client.delete(key))
    if cluster.env.now < heal_at:
        cluster.run(until=heal_at + 50.0)
    cluster.clear_faults()
    for key in scratch:
        value = f"reconciled-{key.decode()}".encode()
        result = run(cluster, clients[0].update(key, value))
        if not result.ok:
            assert result.error is None, \
                f"healed update of {key!r} failed: {result.error}"
            result = run(cluster, clients[0].insert(key, value))
            assert result.ok, f"healed insert of {key!r} failed: {result}"
        model[key] = value
        deleted.discard(key)
    audit(cluster, model, "partition-heal", deleted)

    # phase 3: crash a memory node mid-traffic
    victim_mn = rng.choice([0, 1, 2])
    cluster.crash_memory_node(victim_mn)
    cluster.run(until=cluster.env.now + LEASE_US * 4)
    audit(cluster, model, "mn-crash", deleted)
    for i in range(20):
        key = f"post-crash-{seed}-{i}".encode()
        assert run(cluster, clients[0].insert(key, b"pc")).ok
        model[key] = b"pc"

    # phase 4: crash a client mid-update, recover, revive
    doomed = clients[1]
    target = rng.choice(list(model))
    doomed.arm_crash(rng.choice([CrashPoint.C0, CrashPoint.C1,
                                 CrashPoint.C2, CrashPoint.C3]))
    point = doomed._crash_point
    try:
        run(cluster, doomed.update(target, b"crash-write"))
    except ClientCrashed:
        pass

    def recover():
        return (yield from cluster.master.recover_client(doomed.cid))

    _report, state = run(cluster, recover())
    if point in (CrashPoint.C1, CrashPoint.C2, CrashPoint.C3):
        model[target] = b"crash-write"  # the request is (re)done
    audit(cluster, model, f"client-crash-{point.value}", deleted)
    revived = cluster.revive_client(doomed, state)
    clients[1] = revived
    revived.start_background(400.0)

    # phase 5: grow the memory pool and keep writing
    cluster.add_memory_node(regions=2)
    for i in range(40):
        key = f"grown-{seed}-{i}".encode()
        value = f"g{i}".encode()
        assert run(cluster, rng.choice(clients).insert(key, value)).ok
        model[key] = value
    audit(cluster, model, "pool-growth", deleted)

    # final audit: everything, plus replica agreement on the index
    reader = audit(cluster, model, "final", deleted)
    race = cluster.race
    race.check_directory_invariants()
    for subtable in race.physical_tables():
        images = []
        for mn, base in race.placement(subtable):
            node = cluster.fabric.node(mn)
            if node.crashed:
                continue
            images.append(bytes(
                node.memory[base:base + race.config.subtable_bytes]))
        assert images and all(img == images[0] for img in images), \
            f"subtable {subtable} replicas diverged"
