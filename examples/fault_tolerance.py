#!/usr/bin/env python3
"""Fault-tolerance walkthrough: the §5 failure-handling machinery, live.

Three acts:

1. **Memory-node crash** — kill one MN while readers run; the master's
   lease-based detector repairs the replicated index (Algorithm 3) and
   every key stays readable from the surviving replicas.
2. **Client crash at c2** — a client dies after committing its embedded
   operation log but before CASing the primary slot; recovery finds the
   tail of its per-size-class log list and finishes the request.
3. **Memory re-management** — the crashed client's blocks, free lists and
   list heads are reconstructed (Table 1 breakdown printed), and a revived
   client resumes on the recovered state.

Run:  python examples/fault_tolerance.py
"""

from repro.core import ClusterConfig, FuseeCluster
from repro.core.addressing import RegionConfig
from repro.core.client import ClientCrashed, CrashPoint
from repro.core.master import LEASE_US
from repro.core.race import RaceConfig


def main() -> None:
    cluster = FuseeCluster(ClusterConfig(
        n_memory_nodes=3,
        replication_factor=2,
        regions_per_mn=4,
        region=RegionConfig(region_size=1 << 20, block_size=1 << 14),
        race=RaceConfig(n_subtables=8, n_groups=32),
    ))

    # ---- act 1: memory-node crash --------------------------------------
    print("== act 1: a memory node dies ==")
    writer = cluster.new_client()
    for i in range(200):
        assert cluster.run_op(writer.insert(f"key-{i}".encode(),
                                            f"value-{i}".encode())).ok
    print("loaded 200 keys across 3 memory nodes (r=2)")

    cluster.crash_memory_node(1)
    print("MN 1 crashed; waiting out the membership lease...")
    cluster.run(until=cluster.env.now + LEASE_US * 3)
    print(f"master handled failures for MNs: "
          f"{cluster.master.handled_mn_failures} "
          f"(epoch {cluster.master.epoch})")

    reader = cluster.new_client()
    alive = sum(1 for i in range(200)
                if cluster.run_op(reader.search(f"key-{i}".encode())).ok)
    print(f"keys still readable after the crash: {alive}/200")
    assert alive == 200

    assert cluster.run_op(writer.update(b"key-7", b"post-crash")).ok
    print("writes continue too: key-7 ->",
          cluster.run_op(reader.search(b"key-7")).value.decode())

    # ---- act 2: client crash mid-operation ------------------------------
    print("\n== act 2: a client crashes mid-UPDATE (point c2) ==")
    doomed = cluster.new_client()
    assert cluster.run_op(doomed.insert(b"critical", b"before")).ok
    doomed.arm_crash(CrashPoint.C2)
    try:
        cluster.run_op(doomed.update(b"critical", b"after"))
    except ClientCrashed as exc:
        print(f"client {doomed.cid} crashed at point {exc} — its log is "
              "committed but the primary slot is stale")

    def recover():
        return (yield from cluster.master.recover_client(doomed.cid))

    report, state = cluster.run_op(recover())
    print("master recovery classified crash cases:", report.crash_cases)
    value = cluster.run_op(reader.search(b"critical")).value
    print("the interrupted update was finished by recovery:",
          value.decode())
    assert value == b"after"

    # ---- act 3: memory re-management + revival ---------------------------
    print("\n== act 3: recovery breakdown (Table 1) ==")
    for step, ms, pct in report.rows():
        print(f"  {step:<26}{ms:>10.3f} ms {pct:>7.1f}%")

    revived = cluster.revive_client(doomed, state)
    for i in range(20):
        assert cluster.run_op(revived.insert(f"reborn-{i}".encode(),
                                             b"ok")).ok
    print(f"\nrevived client {revived.cid} inserted 20 more keys on the "
          f"recovered free lists ({report.blocks_recovered} blocks "
          "re-managed)")


if __name__ == "__main__":
    main()
