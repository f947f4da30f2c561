"""Tests for the simulated RDMA fabric and memory nodes."""

import os
from heapq import heappop

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    CN,
    FaultInjector,
    FaultPlan,
    GrayNode,
    LinkFault,
    Partition,
    RetryPolicy,
)
from repro.obs import Monitor, Profiler, Tracer, jsonl_lines
from repro.rdma import (
    FAIL,
    PORT_AFFINITY_MODES,
    TIMEOUT,
    CasOp,
    Completion,
    Fabric,
    FabricConfig,
    FaaOp,
    MemoryNode,
    QpFabric,
    ReadOp,
    WriteOp,
    op_bytes,
)
from repro.rdma.fabric import _backoff, _prop
from repro.sim import Environment, NicProfile
from tests.conftest import backlog_ports


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def fabric(env):
    fab = Fabric(env, FabricConfig())
    for mn_id in range(2):
        fab.add_node(MemoryNode(env, mn_id, capacity=1 << 20))
    return fab


def run_batch(env, fabric, ops, qp=0):
    """Post a batch and run the simulation until it completes."""
    def proc():
        return (yield fabric.post(ops, qp=qp))
    return env.run(until=env.process(proc()))


class TestMemoryNode:
    def test_memory_starts_zeroed(self, env):
        node = MemoryNode(env, 0, capacity=128)
        assert node.memory == bytearray(128)

    def test_carve_is_aligned(self, env):
        node = MemoryNode(env, 0, capacity=1024)
        node.carve(3)
        second = node.carve(8)
        assert second % 8 == 0

    def test_carve_overflow_raises(self, env):
        node = MemoryNode(env, 0, capacity=16)
        with pytest.raises(MemoryError):
            node.carve(32)

    def test_word_helpers_roundtrip(self, env):
        node = MemoryNode(env, 0, capacity=64)
        node.write_word(8, 0xDEADBEEF)
        assert node.read_word(8) == 0xDEADBEEF

    def test_out_of_range_access_raises(self, env):
        node = MemoryNode(env, 0, capacity=16)
        with pytest.raises(IndexError):
            node.apply(ReadOp(0, 8, 16))

    def test_duplicate_node_id_rejected(self, env, fabric):
        with pytest.raises(ValueError):
            fabric.add_node(MemoryNode(env, 0, capacity=64))

    @pytest.mark.parametrize("capacity", [0, -5, 4096.0, "4096", None])
    def test_bad_capacity_rejected_naming_the_node(self, env, capacity):
        with pytest.raises(ValueError, match="MN3: capacity"):
            MemoryNode(env, 3, capacity=capacity)

    def test_slices_read_as_bytes_and_writes_keep_the_length(self, env):
        node = MemoryNode(env, 0, capacity=64)
        node.memory[8:12] = b"abcd"
        assert node.memory[6:14] == b"\0\0abcd\0\0"
        assert type(node.memory[6:14]) is bytes
        assert type(node.apply(ReadOp(0, 6, 8))) is bytes
        with pytest.raises((IndexError, ValueError)):
            node.memory[8:12] = b"too long"
        assert len(node.memory) == 64

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="resident set is read from /proc/self/statm")
    def test_a_node_costs_what_it_touches_not_its_capacity(self, env):
        def resident_mb():
            with open("/proc/self/statm") as statm:
                pages = int(statm.read().split()[1])
            return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)

        before = resident_mb()
        node = MemoryNode(env, 0, capacity=1 << 30)
        last = (1 << 30) - 8
        node.write_word(last, 7)
        assert node.read_word(last) == 7
        assert node.apply(ReadOp(0, 1 << 29, 4096)) == bytes(4096)
        assert resident_mb() - before < 8


class TestVerbSemantics:
    def test_write_then_read(self, env, fabric):
        comps = run_batch(env, fabric, [WriteOp(0, 16, b"hello")])
        assert comps[0].value is None
        comps = run_batch(env, fabric, [ReadOp(0, 16, 5)])
        assert comps[0].value == b"hello"

    def test_cas_success(self, env, fabric):
        fabric.node(0).write_word(8, 100)
        comps = run_batch(env, fabric, [CasOp(0, 8, expected=100, swap=200)])
        assert comps[0].value == 100
        assert comps[0].cas_succeeded()
        assert fabric.node(0).read_word(8) == 200

    def test_cas_failure_leaves_memory(self, env, fabric):
        fabric.node(0).write_word(8, 100)
        comps = run_batch(env, fabric, [CasOp(0, 8, expected=999, swap=200)])
        assert comps[0].value == 100
        assert not comps[0].cas_succeeded()
        assert fabric.node(0).read_word(8) == 100

    def test_cas_succeeded_on_read_raises(self, env, fabric):
        comps = run_batch(env, fabric, [ReadOp(0, 0, 8)])
        with pytest.raises(TypeError):
            comps[0].cas_succeeded()

    def test_faa_returns_old_and_adds(self, env, fabric):
        fabric.node(0).write_word(8, 5)
        comps = run_batch(env, fabric, [FaaOp(0, 8, delta=3)])
        assert comps[0].value == 5
        assert fabric.node(0).read_word(8) == 8

    def test_faa_wraps_at_64_bits(self, env, fabric):
        fabric.node(0).write_word(8, (1 << 64) - 1)
        run_batch(env, fabric, [FaaOp(0, 8, delta=1)])
        assert fabric.node(0).read_word(8) == 0

    def test_writes_in_batch_apply_in_order(self, env, fabric):
        """RDMA_WRITE is order-preserving (used by the used-bit scheme)."""
        comps = run_batch(env, fabric, [
            WriteOp(0, 0, b"\xaa" * 8),
            WriteOp(0, 4, b"\xbb" * 8),
        ])
        assert len(comps) == 2
        assert bytes(fabric.node(0).memory[0:12]) == b"\xaa" * 4 + b"\xbb" * 8

    def test_concurrent_cas_only_one_wins(self, env, fabric):
        """Two clients CAS the same word with the same expected value."""
        results = []

        def client(swap):
            comps = yield fabric.post([CasOp(0, 8, expected=0, swap=swap)])
            results.append((swap, comps[0].cas_succeeded()))

        env.process(client(111))
        env.process(client(222))
        env.run()
        winners = [swap for swap, ok in results if ok]
        assert len(winners) == 1
        assert fabric.node(0).read_word(8) == winners[0]


class TestTiming:
    def test_single_read_takes_about_one_rtt(self, env, fabric):
        start = env.now
        run_batch(env, fabric, [ReadOp(0, 0, 8)])
        latency = env.now - start
        cfg = fabric.config
        assert latency >= 2 * cfg.one_way_delay_us
        assert latency < 2 * cfg.one_way_delay_us + 1.0

    def test_batch_to_two_nodes_is_one_rtt(self, env, fabric):
        """Doorbell batching: parallel verbs to different MNs cost ~1 RTT."""
        start = env.now
        run_batch(env, fabric, [ReadOp(0, 0, 8), ReadOp(1, 0, 8)])
        one_batch = env.now - start

        start = env.now
        run_batch(env, fabric, [ReadOp(0, 0, 8)])
        run_batch(env, fabric, [ReadOp(1, 0, 8)])
        two_rounds = env.now - start
        assert one_batch < two_rounds * 0.75

    def test_large_payload_takes_longer(self, env, fabric):
        start = env.now
        run_batch(env, fabric, [ReadOp(0, 0, 8)])
        small = env.now - start
        start = env.now
        run_batch(env, fabric, [ReadOp(0, 0, 65536)])
        large = env.now - start
        assert large > small

    def test_nic_saturates_under_load(self, env, fabric):
        """Many concurrent clients drive per-op latency up via queueing."""
        latencies = []

        def client():
            start = env.now
            yield fabric.post([ReadOp(0, 0, 4096)])
            latencies.append(env.now - start)

        for _ in range(64):
            env.process(client())
        env.run()
        assert max(latencies) > min(latencies) * 4

    def test_atomic_service_slower_than_read(self, env):
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=1024,
                          nic_profile=NicProfile(op_overhead=0.03,
                                                 atomic_overhead=0.5))
        fab.add_node(node)
        read_t = fab._service_time(node, ReadOp(0, 0, 8))
        cas_t = fab._service_time(node, CasOp(0, 0, 0, 1))
        assert cas_t > read_t

    def test_empty_batch_rejected(self, env, fabric):
        with pytest.raises(ValueError):
            fabric.post([])


class TestCrashes:
    def test_crashed_node_returns_fail(self, env, fabric):
        fabric.node(0).crash()
        comps = run_batch(env, fabric, [ReadOp(0, 0, 8)])
        assert comps[0].value is FAIL
        assert comps[0].failed

    def test_crashed_node_memory_not_modified(self, env, fabric):
        fabric.node(0).crash()
        run_batch(env, fabric, [WriteOp(0, 0, b"\xff" * 8)])
        assert fabric.node(0).memory[0:8] == bytearray(8)

    def test_partial_batch_failure(self, env, fabric):
        """A batch spanning a crashed and a live node fails only partially."""
        fabric.node(0).crash()
        comps = run_batch(env, fabric, [
            WriteOp(0, 0, b"x" * 8),
            WriteOp(1, 0, b"y" * 8),
        ])
        assert comps[0].failed
        assert not comps[1].failed
        assert bytes(fabric.node(1).memory[0:8]) == b"y" * 8

    def test_alive_nodes_excludes_crashed(self, env, fabric):
        fabric.node(0).crash()
        assert fabric.alive_nodes() == [1]

    def test_recovered_node_serves_again(self, env, fabric):
        fabric.node(0).crash()
        fabric.node(0).recover()
        comps = run_batch(env, fabric, [ReadOp(0, 0, 8)])
        assert not comps[0].failed

    def test_fail_sentinel_is_falsy_singleton(self):
        assert not FAIL
        assert repr(FAIL) == "FAIL"

    @pytest.mark.parametrize("path", ["post", "injected post", "rpc",
                                      "injected rpc", "touched post"])
    def test_crashed_node_fails_one_rtt_later(self, path):
        """A verb or RPC posted to an already-crashed MN completes FAIL
        one RTT later, ``2 * one_way_delay_us`` (DESIGN.md §6), on the
        loop with or without an injector, for a touched verb in its own
        process and for an RPC alike."""
        env = Environment()
        fab = Fabric(env, FabricConfig(one_way_delay_us=0.5))
        node = MemoryNode(env, 0, capacity=64)
        node.register_rpc("ping", lambda payload: ({}, 0.5))
        fab.add_node(node)
        node.crash()
        if path.startswith("injected"):
            fab.injector = FaultInjector(FaultPlan())
        elif path == "touched post":    # jitter touches every verb
            fab.injector = FaultInjector(
                FaultPlan(link_faults=[LinkFault(jitter_us=1.0)]))

        def proc():
            if path.endswith("rpc"):
                return (yield fab.rpc(0, "ping", {}))
            return (yield fab.post([ReadOp(0, 0, 8)]))[0].value

        assert env.run(until=env.process(proc())) is FAIL
        assert env.now == 1.0

    @pytest.mark.parametrize("path", ["touched post", "rpc"])
    def test_a_crash_in_flight_fails_one_way_after_arrival(self, path):
        """An MN that dies while a jitter-touched verb's or an RPC's
        request is in flight fails it when the request reaches the node,
        and the failure travels back: ``FAIL`` one ``one_way_delay_us``
        after that arrival, the same return leg for both."""
        env = Environment()
        cfg = FabricConfig(one_way_delay_us=0.5)
        fab = Fabric(env, cfg)
        node = MemoryNode(env, 0, capacity=64)
        node.register_rpc("ping", lambda payload: ({}, 0.5))
        fab.add_node(node)
        drawn = []

        class Recording(FaultInjector):
            def fate(self, *args, **kwargs):
                drawn.append(super().fate(*args, **kwargs))
                return drawn[-1]

        fab.injector = Recording(
            FaultPlan(link_faults=[LinkFault(jitter_us=1.0)], seed=5))

        def crasher():
            yield env.timeout(0.3)      # before any request can arrive
            node.crash()

        def proc():
            if path == "rpc":
                return (yield fab.rpc(0, "ping", {}))
            return (yield fab.post([ReadOp(0, 0, 8)]))[0].value

        env.process(crasher())
        assert env.run(until=env.process(proc())) is FAIL
        jitter = drawn[0].request_jitter_us
        assert len(drawn) == 1 and jitter > 0.0
        if path == "rpc":    # the request's NIC receive, then the check
            arrival = (cfg.one_way_delay_us + jitter
                       + node.nic.profile.rpc_overhead)
        else:
            arrival = cfg.post_overhead_us + cfg.one_way_delay_us + jitter
            assert fab.stats.failed_verbs == 1
        assert arrival > 0.3
        assert env.now == pytest.approx(arrival + cfg.one_way_delay_us,
                                        rel=0, abs=1e-12)


class TestRpc:
    def test_rpc_roundtrip(self, env, fabric):
        node = fabric.node(0)
        node.register_rpc("echo", lambda payload: ({"echo": payload["x"]}, 1.0))

        def proc():
            return (yield fabric.rpc(0, "echo", {"x": 7}))

        reply = env.run(until=env.process(proc()))
        assert reply == {"echo": 7}
        assert env.now > 2 * fabric.config.one_way_delay_us

    def test_rpc_to_crashed_node_fails(self, env, fabric):
        fabric.node(0).crash()

        def proc():
            return (yield fabric.rpc(0, "anything", {}))

        assert env.run(until=env.process(proc())) is FAIL

    def test_rpc_cpu_serialisation(self, env):
        """With one core, concurrent RPCs serialize on CPU service time."""
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=64, cpu_cores=1)
        node.register_rpc("work", lambda payload: ({}, 10.0))
        fab.add_node(node)
        finishes = []

        def client():
            yield fab.rpc(0, "work", {})
            finishes.append(env.now)

        for _ in range(3):
            env.process(client())
        env.run()
        assert finishes[-1] >= 30.0

    def test_unknown_rpc_raises(self, env, fabric):
        def proc():
            return (yield fabric.rpc(0, "missing", {}))

        with pytest.raises(KeyError):
            env.run(until=env.process(proc()))


class TestStats:
    def test_op_counters(self, env, fabric):
        run_batch(env, fabric, [
            ReadOp(0, 0, 8),
            WriteOp(1, 0, b"12345678"),
            CasOp(0, 8, 0, 1),
            FaaOp(1, 8, 1),
        ])
        stats = fabric.stats
        assert stats.reads == 1
        assert stats.writes == 1
        assert stats.atomics == 2
        assert stats.batches == 1
        assert stats.bytes_moved == 8 + 8 + 8 + 8
        assert stats.per_mn_ops == {0: 2, 1: 2}

    def test_snapshot_is_independent_copy(self, env, fabric):
        run_batch(env, fabric, [ReadOp(0, 0, 8)])
        snap = fabric.stats.snapshot()
        run_batch(env, fabric, [ReadOp(0, 0, 8)])
        assert snap.reads == 1
        assert fabric.stats.reads == 2


class TestFabricStatsSnapshot:
    """Guards the generic field-complete snapshot (see FabricStats)."""

    def test_snapshot_covers_every_field(self):
        from dataclasses import fields

        from repro.rdma.fabric import FabricStats

        stats = FabricStats()
        # give every field a distinctive non-default value
        for index, f in enumerate(fields(FabricStats), start=1):
            if f.name == "per_mn_ops":
                stats.per_mn_ops = {0: index}
            else:
                setattr(stats, f.name, index)
        snap = stats.snapshot()
        for f in fields(FabricStats):
            assert getattr(snap, f.name) == getattr(stats, f.name), f.name

    def test_snapshot_dicts_are_deep_copied(self):
        from repro.rdma.fabric import FabricStats

        stats = FabricStats()
        stats.per_mn_ops[0] = 1
        snap = stats.snapshot()
        stats.per_mn_ops[0] = 99
        stats.per_mn_ops[1] = 7
        assert snap.per_mn_ops == {0: 1}

    def test_failed_verbs_counted_and_snapshotted(self, env, fabric):
        fabric.node(1).crash()
        run_batch(env, fabric, [ReadOp(0, 0, 8), ReadOp(1, 0, 8)])
        assert fabric.stats.failed_verbs == 1
        assert fabric.stats.snapshot().failed_verbs == 1


def _coalescing_fabric(width, backlogged=True, capacity=1 << 20):
    env = Environment()
    fab = Fabric(env, FabricConfig(max_coalesce_width=width))
    for mn_id in range(2):
        fab.add_node(MemoryNode(env, mn_id, capacity=capacity))
    if backlogged:
        backlog_ports(fab, 1000.0)
    return env, fab


class TestDoorbellCoalescing:
    """Adaptive verb coalescing: adjacent same-QP READs/WRITEs of one
    doorbell batch may share a NIC serialisation slot (one op_overhead
    for the group), bounded by ``max_coalesce_width``, when the port is
    backlogged (``_coalescing_fabric`` backlogs every port unless told
    otherwise)."""

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(max_coalesce_width=0)

    def test_default_width_never_coalesces(self, env, fabric):
        run_batch(env, fabric, [WriteOp(0, 0, b"a" * 8),
                                WriteOp(0, 8, b"b" * 8)])
        assert fabric.stats.coalesced_slots == 0
        assert fabric.stats.coalesced_verbs == 0

    def test_adjacent_same_node_writes_share_one_slot(self):
        env, fab = _coalescing_fabric(width=8)
        run_batch(env, fab, [WriteOp(0, 0, b"a" * 8),
                             WriteOp(0, 8, b"b" * 8),
                             WriteOp(1, 0, b"c" * 8)])
        assert fab.stats.coalesced_slots == 1
        assert fab.stats.coalesced_verbs == 1

    def test_group_size_caps_at_width(self):
        env, fab = _coalescing_fabric(width=2)
        run_batch(env, fab,
                  [WriteOp(0, i * 8, b"x" * 8) for i in range(5)])
        # groups of 2, 2, 1 -> two shared slots, two rider verbs
        assert fab.stats.coalesced_slots == 2
        assert fab.stats.coalesced_verbs == 2

    def test_atomics_never_coalesce(self):
        env, fab = _coalescing_fabric(width=8)
        run_batch(env, fab, [CasOp(0, 0, 0, 1), CasOp(0, 8, 0, 1),
                             FaaOp(0, 16, 1)])
        assert fab.stats.coalesced_slots == 0

    def test_reads_and_writes_do_not_merge(self):
        """READs (tx) and WRITEs (rx) serialise on different ports."""
        env, fab = _coalescing_fabric(width=8)
        run_batch(env, fab, [WriteOp(0, 0, b"a" * 8), ReadOp(0, 0, 8),
                             WriteOp(0, 8, b"b" * 8)])
        assert fab.stats.coalesced_slots == 0

    def test_coalesced_batch_finishes_sooner(self):
        ops = [WriteOp(0, i * 64, b"z" * 64) for i in range(8)]
        env1, fab1 = _coalescing_fabric(width=1)
        run_batch(env1, fab1, list(ops))
        env8, fab8 = _coalescing_fabric(width=8)
        run_batch(env8, fab8, list(ops))
        assert env8.now < env1.now

    def test_batch_count_is_unchanged(self):
        """Coalescing shares NIC slots, it never changes RTT accounting."""
        env, fab = _coalescing_fabric(width=8)
        run_batch(env, fab, [WriteOp(0, 0, b"a" * 8),
                             WriteOp(0, 8, b"b" * 8)])
        assert fab.stats.batches == 1

    def test_adaptive_idle_port_does_not_coalesce(self):
        env, fab = _coalescing_fabric(width=8, backlogged=False)
        run_batch(env, fab, [WriteOp(0, 0, b"a" * 8),
                             WriteOp(0, 8, b"b" * 8)])
        assert fab.stats.coalesced_slots == 0

    def test_adaptive_backlogged_port_coalesces(self):
        env, fab = _coalescing_fabric(width=8, backlogged=False)

        def load():
            yield fab.post([WriteOp(0, 0, bytes(64 << 10))])

        def probe():
            yield env.timeout(0.5)
            yield fab.post([WriteOp(0, 0, b"a" * 8),
                            WriteOp(0, 8, b"b" * 8)])

        env.process(load())
        env.run(until=env.process(probe()))
        assert fab.stats.coalesced_slots == 1

    def test_crashed_node_still_fails_per_verb(self):
        env, fab = _coalescing_fabric(width=8)
        fab.node(0).crash()
        comps = run_batch(env, fab, [WriteOp(0, 0, b"x" * 8),
                                     WriteOp(0, 8, b"y" * 8),
                                     WriteOp(1, 0, b"z" * 8)])
        assert [c.failed for c in comps] == [True, True, False]
        assert fab.stats.coalesced_slots == 0


def _multiqueue_fabric(num_ports, affinity="qp", rpc_shards=1,
                       capacity=1 << 20, n_nodes=2):
    env = Environment()
    fab = Fabric(env, FabricConfig(port_affinity=affinity))
    for mn_id in range(n_nodes):
        fab.add_node(MemoryNode(env, mn_id, capacity=capacity,
                                num_ports=num_ports,
                                rpc_shards=rpc_shards))
    return env, fab


class TestMultiQueue:
    """Multi-queue NICs: per-QP port affinity, sharded RPC CPUs, and the
    per-port observability the profiler's blocking-edge ranking uses."""

    def test_bad_affinity_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(port_affinity="bogus")

    def test_affinity_modes_exported(self):
        assert set(PORT_AFFINITY_MODES) == {"qp", "rss"}

    def test_bad_port_and_shard_counts_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            MemoryNode(env, 0, capacity=64, num_ports=0)
        with pytest.raises(ValueError):
            MemoryNode(env, 0, capacity=64, rpc_shards=0)

    def test_single_port_keeps_legacy_labels(self):
        env, fab = _multiqueue_fabric(num_ports=1)
        node = fab.node(0)
        assert node.nic.label == "mn0.nic_rx"
        assert node.nic_tx.label == "mn0.nic_tx"
        assert node.cpu.label == "mn0.cpu"

    def test_multi_port_labels_name_each_port(self):
        env, fab = _multiqueue_fabric(num_ports=3, rpc_shards=2)
        node = fab.node(1)
        assert [p.label for p in node.rx_ports] == \
            ["mn1.nic_rx.p0", "mn1.nic_rx.p1", "mn1.nic_rx.p2"]
        assert [p.label for p in node.tx_ports] == \
            ["mn1.nic_tx.p0", "mn1.nic_tx.p1", "mn1.nic_tx.p2"]
        assert [c.label for c in node.cpus] == \
            ["mn1.cpu.s0", "mn1.cpu.s1"]

    def test_port_choice_is_deterministic(self):
        env, fab = _multiqueue_fabric(num_ports=4)
        node = fab.node(0)
        for qp in range(16):
            first = fab._port_for(node, True, qp)
            assert fab._port_for(node, True, qp) == first

    def test_same_qp_same_direction_single_port(self):
        """All same-QP traffic of one direction serialises on one port."""
        env, fab = _multiqueue_fabric(num_ports=4)
        run_batch(env, fab, [WriteOp(0, i * 8, b"x" * 8)
                             for i in range(6)], qp=5)
        used = [label for label, n in fab.stats.per_port_ops.items()
                if n and "nic_rx" in label]
        assert len(used) == 1

    def test_distinct_qps_spread_across_ports(self):
        env, fab = _multiqueue_fabric(num_ports=4)
        node = fab.node(0)
        ports = {fab._port_for(node, True, qp)[0] for qp in range(64)}
        assert len(ports) == 4

    def test_rss_mixes_mn_and_direction(self):
        """Under "rss" a QP's rx and tx lanes land independently, and
        different MNs see different placements for the same QP set."""
        env, fab = _multiqueue_fabric(num_ports=4, affinity="rss")
        qps = range(32)
        rx0 = tuple(fab._port_for(fab.node(0), False, q)[0] for q in qps)
        tx0 = tuple(fab._port_for(fab.node(0), True, q)[0] for q in qps)
        rx1 = tuple(fab._port_for(fab.node(1), False, q)[0] for q in qps)
        assert rx0 != tx0
        assert rx0 != rx1

    def test_retry_salt_visits_every_port(self):
        env, fab = _multiqueue_fabric(num_ports=4)
        node = fab.node(0)
        seen = {fab._port_for(node, True, 3, salt=s)[0] for s in range(4)}
        assert seen == {0, 1, 2, 3}

    def test_per_port_ops_counted_by_label(self):
        env, fab = _multiqueue_fabric(num_ports=2)
        run_batch(env, fab, [WriteOp(0, 0, b"a" * 8)], qp=0)
        run_batch(env, fab, [ReadOp(0, 0, 8)], qp=0)
        labels = set(fab.stats.per_port_ops)
        assert any("nic_rx.p" in label for label in labels)
        assert any("nic_tx.p" in label for label in labels)
        assert sum(fab.stats.per_port_ops.values()) == 2

    def test_single_port_counters_use_legacy_labels(self, env, fabric):
        run_batch(env, fabric, [WriteOp(0, 0, b"a" * 8)])
        assert fabric.stats.per_port_ops == {"mn0.nic_rx": 1}

    def test_rpc_shards_split_cpu_capacity(self):
        env = Environment()
        node = MemoryNode(env, 0, capacity=64, cpu_cores=4, rpc_shards=2)
        assert [c.capacity for c in node.cpus] == [2, 2]
        assert node.cpu_capacity == 4

    def test_rpc_shard_choice_follows_qp(self):
        env, fab = _multiqueue_fabric(num_ports=1, rpc_shards=4)
        node = fab.node(0)
        shards = {fab._cpu_for(node, qp).label for qp in range(64)}
        assert len(shards) == 4
        assert fab._cpu_for(node, 9) is fab._cpu_for(node, 9)

    def test_rpc_shards_run_concurrently(self):
        """QPs mapping to different shards are not serialised on one
        core — the sharded service finishes sooner than one shard."""
        def run(rpc_shards):
            env, fab = _multiqueue_fabric(num_ports=1,
                                          rpc_shards=rpc_shards)
            node = fab.node(0)
            node.register_rpc("work", lambda payload: ({}, 10.0))

            def client(qp):
                yield fab.rpc(0, "work", {}, qp=qp)

            # qps chosen to land on distinct shards when sharded
            for qp in range(8):
                env.process(client(qp))
            env.run()
            return env.now

        assert run(rpc_shards=4) < run(rpc_shards=1)

    def test_bind_qp_returns_stamping_proxy(self):
        env, fab = _multiqueue_fabric(num_ports=4)
        bound = fab.bind_qp(7)
        assert isinstance(bound, QpFabric)
        assert bound.qp == 7
        assert bound.node(0) is fab.node(0)      # delegation

        def proc():
            yield bound.post([WriteOp(0, 0, b"q" * 8)])

        env.run(until=env.process(proc()))
        expect = fab.node(0).rx_ports[
            fab._port_for(fab.node(0), False, 7)[0]].label
        assert fab.stats.per_port_ops == {expect: 1}

    def test_backlog_helpers_aggregate_ports(self):
        env, fab = _multiqueue_fabric(num_ports=2)
        node = fab.node(0)
        node.rx_ports[0].occupy(5.0, env.now)
        node.rx_ports[1].occupy(3.0, env.now)
        node.tx_ports[1].occupy(2.0, env.now)
        assert node.rx_backlog(env.now) == pytest.approx(8.0)
        assert node.tx_backlog(env.now) == pytest.approx(2.0)


class TestCoalescingOrdering:
    """§4.6 doorbell semantics: coalescing must never reorder same-QP
    WRITEs — the body-before-entry ordering crash consistency rests on
    — for any batch width, port count, or affinity policy, on idle or
    backlogged ports."""

    @given(writes=st.lists(
               st.tuples(st.integers(0, 1),          # memory node
                         st.integers(0, 48),         # address
                         st.binary(min_size=1, max_size=16)),
               min_size=1, max_size=12),
           width=st.integers(1, 12),
           backlogged=st.booleans(),
           preload=st.booleans(),
           num_ports=st.integers(1, 4),
           affinity=st.sampled_from(PORT_AFFINITY_MODES),
           qp=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_memory_matches_sequential_application(self, writes, width,
                                                   backlogged, preload,
                                                   num_ports, affinity,
                                                   qp):
        env = Environment()
        fab = Fabric(env, FabricConfig(max_coalesce_width=width,
                                       port_affinity=affinity))
        for mn_id in range(2):
            fab.add_node(MemoryNode(env, mn_id, capacity=128,
                                    num_ports=num_ports))
        if backlogged:
            backlog_ports(fab, 1000.0)
        if preload:
            # queue service on both rx ports so adaptive mode widens
            def busy():
                yield fab.post([WriteOp(0, 64, bytes(64)),
                                WriteOp(1, 64, bytes(64))], qp=qp)
            env.process(busy())
        reference = {0: bytearray(128), 1: bytearray(128)}
        ops = []
        for mn, addr, data in writes:
            ops.append(WriteOp(mn, addr, data))
            reference[mn][addr:addr + len(data)] = data
        run_batch(env, fab, ops, qp=qp)
        for mn_id in (0, 1):
            assert bytes(fab.node(mn_id).memory) == bytes(reference[mn_id])

    @given(batch=st.lists(
               st.tuples(st.integers(0, 1), st.integers(0, 48),
                         st.one_of(st.none(),
                                   st.binary(min_size=1, max_size=16))),
               min_size=1, max_size=12),
           width=st.integers(1, 12),
           num_ports=st.integers(1, 4),
           affinity=st.sampled_from(PORT_AFFINITY_MODES),
           qp=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_reads_observe_every_earlier_write(self, batch, width,
                                               num_ports, affinity, qp):
        """Within a batch each READ sees exactly the WRITEs before it,
        whatever port its QP hashes to."""
        env = Environment()
        fab = Fabric(env, FabricConfig(max_coalesce_width=width,
                                       port_affinity=affinity))
        for mn_id in range(2):
            fab.add_node(MemoryNode(env, mn_id, capacity=128,
                                    num_ports=num_ports))
        backlog_ports(fab, 1000.0)
        reference = {0: bytearray(128), 1: bytearray(128)}
        ops, expect = [], []
        for mn, addr, data in batch:
            if data is None:
                ops.append(ReadOp(mn, addr, 8))
                expect.append(bytes(reference[mn][addr:addr + 8]))
            else:
                ops.append(WriteOp(mn, addr, data))
                reference[mn][addr:addr + len(data)] = data
                expect.append(None)
        comps = run_batch(env, fab, ops, qp=qp)
        for comp, want in zip(comps, expect):
            if want is not None:
                assert comp.value == want


class _HeapOrderScheduler:
    """The smallest controlled scheduler: heap order, footprints kept."""

    env = None

    def __init__(self):
        self.tokens = []

    def select(self, env):
        return heappop(env._queue)

    def begin_event(self, event):
        pass

    def end_event(self, event):
        pass

    def note_access(self, token, write):
        self.tokens.append((token, write))


class _SlotRecorder:
    """Monitor-shaped: the two hooks the fabric feeds, nothing else."""

    def __init__(self):
        self.verbs = 0

    def note_verb(self, mn_id, port_label, verb_cls, nbytes, service_us,
                  n=1):
        self.verbs += n

    def note_rpc(self, mn_id, shard_label, name, cpu_us):
        pass


_VERB = st.one_of(
    st.tuples(st.just("r"), st.integers(0, 1), st.integers(0, 48),
              st.integers(1, 16)),
    st.tuples(st.just("w"), st.integers(0, 1), st.integers(0, 48),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("cas"), st.integers(0, 1), st.integers(0, 6),
              st.integers(0, 3)),
    st.tuples(st.just("faa"), st.integers(0, 1), st.integers(0, 6),
              st.integers(1, 5)))


def _verbs(batch, n_mns):
    ops = []
    for kind, mn, at, arg in batch:
        mn %= n_mns
        if kind == "r":
            ops.append(ReadOp(mn, at, arg))
        elif kind == "w":
            ops.append(WriteOp(mn, at, arg))
        elif kind == "cas":
            ops.append(CasOp(mn, at * 8, arg, arg + 1))
        else:
            ops.append(FaaOp(mn, at * 8, arg))
    return ops


class TestOneVerbLoop:
    """``Fabric.post`` is one loop whose profiler / footprint / monitor /
    injector stages are optional: switching a stage on must observe the
    batch, never change it.  An injector with nothing to inject is the
    bare fabric, coalescing and crashed nodes included."""

    @given(batch=st.lists(_VERB, min_size=1, max_size=12),
           n_mns=st.integers(1, 2),
           crashed=st.booleans(),
           width=st.integers(1, 12),
           backlogged=st.booleans(),
           preload=st.booleans(),
           num_ports=st.integers(1, 4),
           affinity=st.sampled_from(PORT_AFFINITY_MODES),
           qp=st.integers(0, 7))
    @example(batch=[("w", 0, 0, b"a" * 8)] * 3 + [("r", 0, 0, 8)] * 2
             + [("cas", 0, 0, 0), ("w", 1, 8, b"b" * 8), ("faa", 1, 1, 2)],
             n_mns=2, crashed=True, width=8, backlogged=True, preload=False,
             num_ports=2, affinity="rss", qp=3)
    @settings(max_examples=80, deadline=None)
    def test_optional_stages_never_change_a_batch(
            self, batch, n_mns, crashed, width, backlogged, preload,
            num_ports, affinity, qp):
        def run(stage):
            env = Environment()
            fab = Fabric(env, FabricConfig(max_coalesce_width=width,
                                           port_affinity=affinity))
            for mn_id in range(n_mns):
                fab.add_node(MemoryNode(env, mn_id, capacity=128,
                                        num_ports=num_ports))
            if backlogged:
                backlog_ports(fab, 1000.0)
            if crashed:
                fab.node(n_mns - 1).crash()
            observer = None
            if stage == "profiler":
                observer = Profiler().install(env)
            elif stage == "access_hook":
                observer = _HeapOrderScheduler()
                env.set_scheduler(observer)
            elif stage == "monitor":
                observer = fab.monitor = _SlotRecorder()
            elif stage == "injector":
                fab.injector = FaultInjector(FaultPlan())
            if preload:
                # queue service on every node's ports so adaptive mode
                # has a backlog to widen on
                def busy():
                    yield fab.post([op for mn_id in range(n_mns)
                                    for op in (WriteOp(mn_id, 64, bytes(64)),
                                               ReadOp(mn_id, 64, 64))],
                                   qp=qp)
                env.process(busy())
            comps = run_batch(env, fab, _verbs(batch, n_mns), qp=qp)
            values = [c.value for c in comps]
            memory = [bytes(fab.node(m).memory) for m in range(n_mns)]
            return values, memory, env.now, fab.stats.snapshot(), observer

        values, memory, now, stats, _ = run("bare")
        for stage in ("profiler", "access_hook", "monitor", "injector"):
            got = run(stage)
            assert got[:4] == (values, memory, now, stats), stage
            observer = got[4]
            if stage == "profiler":
                assert observer.intervals
            elif stage == "access_hook":
                assert {token for token, write in observer.tokens
                        if token[0] == "crash" and not write} \
                    >= {("crash", op[1] % n_mns) for op in batch}
            elif stage == "monitor":
                assert observer.verbs == (stats.reads + stats.writes
                                          + stats.atomics
                                          - stats.failed_verbs)


class _ProcessPerVerbFabric(Fabric):
    """The reference `TestInjectedBatch` compares the fabric against.  A
    verb whose first-attempt fate is clean goes through the bare loop
    (the injector uninstalled for the call, its gray factor at the arrival
    instant folded into a fresh lane table); every
    other verb gets a delivery process of its own, as every verb did
    before the clean loop took the untouched ones (kept below; an
    in-flight crash pays the failure's return leg), and a third process
    gathers the batch."""

    def post(self, ops, unsignaled=False, qp=0):
        inj = self.injector
        if inj is None:
            return super().post(ops, unsignaled=unsignaled, qp=qp)
        env = self.env
        cfg = self.config
        t0 = env.now
        arrive = t0 + cfg.post_overhead_us + cfg.one_way_delay_us
        clean, touched, gray = [], [], {}
        for i, op in enumerate(ops):
            node = self.nodes[op.mn_id]
            pidx, port = self._port_for(node, isinstance(op, ReadOp), qp)
            if inj.fate(op, op.mn_id, 1, t0, port=pidx) is inj.clean_fate:
                clean.append(i)
                gray[(qp, op.mn_id, op.__class__, op_bytes(op))] = (
                    port, self._service_time(node, op)
                    * inj.service_factor(op.mn_id, arrive, port=pidx),
                    port.label, pidx)
            else:
                touched.append(i)
        span = None if self.tracer is None else self.tracer.current_span()
        loop = None
        if clean:
            lanes, tracer = self._lanes, self.tracer
            self.injector, self._lanes = None, gray
            if touched:     # the gatherer traces the whole batch
                self.tracer = None
            try:
                loop = super().post([ops[i] for i in clean],
                                    unsignaled=unsignaled, qp=qp)
            finally:
                self.injector, self._lanes, self.tracer = inj, lanes, tracer
            if not touched:
                return loop
        else:
            self.stats.batches += 1
        prof = env._profiler
        pspan = None
        if prof is not None and not unsignaled:
            pspan = prof.current_span()
        completions = [None] * len(ops)
        procs = []
        for i in touched:
            proc = env.process(
                self._deliver_verb(i, ops[i], env.next_uid(), completions,
                                   span, qp),
                name=f"verb:{i}@MN{ops[i].mn_id}")
            if prof is not None:
                prof.bind(proc, pspan)
            procs.append(proc)
        return env.process(self._gather_batch(ops, clean, loop, procs,
                                              completions, t0, unsignaled,
                                              span),
                           name="batch")

    def _gather_batch(self, ops, clean, loop, procs, completions, t0,
                      unsignaled, span):
        waits = procs + [loop] * (loop is not None)
        if len(waits) == 1:
            yield waits[0]
        else:
            yield self.env.all_of(waits)
        for i, completion in zip(clean, loop.value if loop else ()):
            completions[i] = completion
        if self.tracer is not None:
            self.tracer.on_batch(ops, completions, t0, self.env.now,
                                 unsignaled=unsignaled, span=span)
        return completions

    def _deliver_verb(self, i, op, token, completions, span, qp=0):
        env = self.env
        cfg = self.config
        inj = self.injector
        policy = inj.retry
        node = self.nodes[op.mn_id]
        self._count(op, node)
        is_read = isinstance(op, ReadOp)
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.stats.transport_retries += 1
                if span is not None:
                    self.tracer.note_transport_retry(span)
            t_attempt = env.now
            env.note_access(("crash", node.mn_id), False)
            if node.crashed:
                self.stats.failed_verbs += 1
                yield _prop(env, cfg.fail_delay_us, "net.fail")
                completions[i] = Completion(op, FAIL)
                return
            pidx, port = self._port_for(node, is_read, qp,
                                        salt=attempt - 1)
            fate = inj.fate(op, op.mn_id, attempt, t_attempt, port=pidx)
            backoff = policy.backoff_us(attempt, fate.backoff_u)
            if fate.drop_request:
                self.stats.dropped_requests += 1
                self._note_drop(port)
                yield _backoff(env, policy.verb_timeout_us + backoff,
                               "verb.timeout")
                continue
            prof = env._profiler
            if prof is not None:
                t = env.now
                t_sent = t + cfg.post_overhead_us
                prof.note("client", "post", t, t_sent)
                prof.note("propagation", "net.request", t_sent,
                          t_sent + cfg.one_way_delay_us
                          + fate.request_jitter_us)
            yield env.timeout(cfg.post_overhead_us + cfg.one_way_delay_us
                              + fate.request_jitter_us)
            env.note_access(("crash", node.mn_id), False)
            if node.crashed:
                self.stats.failed_verbs += 1
                yield _prop(env, cfg.one_way_delay_us, "net.fail")
                completions[i] = Completion(op, FAIL)
                return
            value, deduped = node.apply_once(token, op)
            if deduped:
                self.stats.dedup_hits += 1
            service = (self._service_time(node, op)
                       * inj.service_factor(op.mn_id, env.now, port=pidx))
            self._note_port(port)
            if self.monitor is not None:
                self.monitor.note_verb(op.mn_id, port.label, op.__class__,
                                       op_bytes(op), service)
            done = port.finish_time(service, not_before=env.now)
            if fate.duplicate:
                self.stats.duplicates += 1
                _, dup_hit = node.apply_once(token, op)
                if dup_hit:
                    self.stats.dedup_hits += 1
                self._note_port(port)
                port.finish_time(service, not_before=env.now)
            if fate.drop_reply:
                self.stats.dropped_replies += 1
                self._note_drop(port)
                elapsed = env.now - t_attempt
                yield _backoff(
                    env,
                    max(0.0, policy.verb_timeout_us - elapsed) + backoff,
                    "verb.timeout")
                continue
            if prof is not None:
                prof.note("propagation", "net.reply", done,
                          done + cfg.one_way_delay_us
                          + fate.reply_jitter_us)
            yield env.timeout(max(0.0, done - env.now)
                              + cfg.one_way_delay_us + fate.reply_jitter_us)
            completions[i] = Completion(op, value)
            return
        self.stats.verb_timeouts += 1
        completions[i] = Completion(op, TIMEOUT)

    def _count(self, op, node):
        stats = self.stats
        if isinstance(op, ReadOp):
            stats.reads += 1
        elif isinstance(op, WriteOp):
            stats.writes += 1
        else:
            stats.atomics += 1
        stats.bytes_moved += op_bytes(op)
        stats.per_mn_ops[node.mn_id] = stats.per_mn_ops.get(node.mn_id, 0) + 1


_RETRY = RetryPolicy(max_attempts=4, verb_timeout_us=4.0,
                     backoff_base_us=1.0, backoff_cap_us=8.0)
_POST_AT = 5.0      # the batch under test is posted here; it arrives 1.1 later
_PLANS = {
    "none": dict(),
    "not-yet": dict(link_faults=[LinkFault(drop_p=0.9, dup_p=0.9,
                                           jitter_us=2.0, start_us=500.0)]),
    "loss": dict(link_faults=[LinkFault(drop_p=0.35)]),
    "dup": dict(link_faults=[LinkFault(dup_p=0.5)]),
    "jitter": dict(link_faults=[LinkFault(mn_id=0, jitter_us=1.5)]),
    "gray": dict(gray_nodes=[GrayNode(mn_id=0, factor=6.0)]),
    "gray-port": dict(gray_nodes=[GrayNode(mn_id=0, factor=6.0, port=1)]),
    # slow from after the post instant: the factor is the arrival's
    "gray-onset": dict(gray_nodes=[GrayNode(mn_id=0, factor=6.0,
                                            start_us=_POST_AT + 0.6)]),
    "partition": dict(partitions=[Partition(a=CN, b=0, end_us=12.0)]),
    "lost-replies": dict(partitions=[Partition(a=CN, b=0, end_us=9.0,
                                               drop_requests=False)]),
    "partition-port": dict(partitions=[Partition(a=CN, b=0, port=0)]),
    "loss-port": dict(link_faults=[LinkFault(drop_p=0.6, dup_p=0.3, port=1)]),
    "mixed": dict(link_faults=[LinkFault(drop_p=0.15, dup_p=0.15,
                                         jitter_us=0.5)],
                  gray_nodes=[GrayNode(mn_id=1, factor=3.0)]),
}


def _injected_run(fabric_cls, batch, n_mns, num_ports, plan, seed, crash,
                  heal, unsignaled, observers, qp, preload, single=False):
    """Post ``batch`` at `_POST_AT` under an injector and report everything
    an observer of the run could see (kernel event ids excepted)."""
    env = Environment()
    tracer = Tracer() if "tracer" in observers else None
    fab = fabric_cls(env, FabricConfig(), tracer=tracer)
    for mn_id in range(n_mns):
        fab.add_node(MemoryNode(env, mn_id, capacity=128,
                                num_ports=num_ports))
    prof = Profiler(tracer).install(env) if "profiler" in observers else None
    if "monitor" in observers:
        fab.monitor = Monitor(env, fab)
    fab.injector = FaultInjector(FaultPlan(seed=seed, **_PLANS[plan]),
                                 retry=_RETRY)
    ops = _verbs(batch, n_mns)
    if crash is not None:
        when, mn_id = crash

        def crasher():
            yield env.timeout(when)
            fab.node(mn_id % n_mns).crash()
        env.process(crasher())
    if heal is not None:
        def healer():
            yield env.timeout(heal)
            fab.injector = None
        env.process(healer())
    fired = {}

    def client():
        yield env.timeout(_POST_AT)
        span = tracer.begin_span("update", 0) if tracer else None
        if preload:
            # a fire-and-forget batch of the same QP, same instant: the
            # ports are busy and the token tables non-empty on arrival
            fab.post([op for mn_id in range(n_mns)
                      for op in (WriteOp(mn_id, 64, bytes(48)),
                                 FaaOp(mn_id, 120, 1))],
                     unsignaled=True, qp=qp)
        if single:
            comps = [(yield fab.post_one(ops[0], qp=qp))]
        else:
            comps = yield fab.post(ops, unsignaled=unsignaled, qp=qp)
        fired["at"] = env.now
        if tracer:
            tracer.end_span(span, ok=not any(c.failed for c in comps))
        return comps

    comps = env.run(until=env.process(client()))
    env.run(until=200.0)    # the preload's retries, the detector's panes
    assert [c.op for c in comps] == ops[:len(comps)]
    sid = {id(s): s.sid for s in tracer.spans} if tracer else {}
    if fab.monitor:
        fab.monitor._flush_verbs()    # what a pane evaluation does first
    sketches = {(pane, key): sk for pane, per_pane
                in fab.monitor.detector._panes.items()
                for key, sk in per_pane.items()} if fab.monitor else {}
    return {
        "values": [c.value for c in comps],
        "fired": fired["at"],
        "stats": fab.stats.snapshot(),
        "memory": [bytes(fab.node(m).memory) for m in range(n_mns)],
        "tokens": [list(fab.node(m)._verb_results.items())
                   for m in range(n_mns)],
        "trace": jsonl_lines(tracer) if tracer else None,
        "intervals": [(sid.get(id(span)), *rest)
                      for span, *rest in prof.intervals] if prof else None,
        "detector": {key: (sk.count, sk.zero_count, sk.min_seen,
                           sk.max_seen, sorted(sk.buckets.items()))
                     for key, sk in sketches.items()},
        "detector_total": {key: sk.total for key, sk in sketches.items()},
        "ports": [(port.label, port._next_free, port.total_busy, port.ops)
                  for m in range(n_mns) for port in
                  (*fab.node(m).rx_ports, *fab.node(m).tx_ports)],
    }


def _assert_same_run(got, want):
    assert got.keys() == want.keys()
    for what in want:
        if what == "detector_total":
            # The monitor tallies a pane's identical slots and feeds them
            # as one add(v, n * k) where the oracle made k add(v, n) calls,
            # so a running sum may differ in its last bits.  No flag and
            # no health-report field reads a service sketch's total.
            assert got[what] == pytest.approx(want[what], rel=1e-12), what
        else:
            assert got[what] == want[what], what


_OBSERVERS = st.sets(st.sampled_from(["tracer", "profiler", "monitor"]))
# before the post / between post and arrival / between arrival and the
# reply / after everything — never *at* an instant the batch acts
_CRASH = st.one_of(st.none(), st.tuples(
    st.sampled_from([2.0, _POST_AT + 0.6, _POST_AT + 1.15, 150.0]),
    st.integers(0, 2)))
# the injector uninstalled (`clear_faults`) under verbs still in flight
_HEAL = st.sampled_from([None, _POST_AT + 0.6, _POST_AT + 1.15, 9.0])


class TestInjectedBatch:
    """Under an injector a verb no fault reaches at its first attempt is
    delivered by the bare loop, and any other verb by a process of its
    own.  Which verb took which must be invisible: same completions at
    the same instant, same counters, bytes, dedup tables, trace, profile
    and detector state as the reference kept above, which posts the
    clean verbs through the loop with the injector uninstalled and runs
    the touched ones on the process-per-verb path."""

    @given(batch=st.lists(_VERB, min_size=1, max_size=6),
           n_mns=st.integers(1, 3), num_ports=st.integers(1, 3),
           plan=st.sampled_from(sorted(_PLANS)), seed=st.integers(0, 50),
           crash=_CRASH, heal=_HEAL, unsignaled=st.booleans(),
           observers=_OBSERVERS, qp=st.integers(0, 7), preload=st.booleans())
    @example(batch=[("w", 0, 0, b"a" * 8), ("faa", 1, 0, 3), ("r", 0, 0, 8)],
             n_mns=2, num_ports=2, plan="not-yet", seed=0,
             crash=(_POST_AT + 0.6, 1), heal=None, unsignaled=False,
             observers={"tracer", "profiler", "monitor"}, qp=3, preload=True)
    @example(batch=[("cas", 0, 0, 0), ("w", 0, 8, b"b" * 16)],
             n_mns=1, num_ports=1, plan="lost-replies", seed=1, crash=None,
             heal=_POST_AT + 0.6, unsignaled=True, observers={"profiler"},
             qp=0, preload=False)
    @settings(max_examples=400, deadline=None)
    def test_one_process_or_one_per_verb_is_unobservable(
            self, batch, n_mns, num_ports, plan, seed, crash, heal,
            unsignaled, observers, qp, preload):
        args = (batch, n_mns, num_ports, plan, seed, crash, heal, unsignaled,
                observers, qp, preload)
        want = _injected_run(_ProcessPerVerbFabric, *args)
        got = _injected_run(Fabric, *args)
        _assert_same_run(got, want)

    @given(verb=_VERB, plan=st.sampled_from(sorted(_PLANS)),
           seed=st.integers(0, 50), crash=_CRASH, heal=_HEAL,
           observers=_OBSERVERS)
    @settings(max_examples=40, deadline=None)
    def test_post_one_under_an_injector(self, verb, plan, seed, crash, heal,
                                        observers):
        args = ([verb], 2, 2, plan, seed, crash, heal, False, observers, 1,
                False)
        _assert_same_run(
            _injected_run(Fabric, *args, single=True),
            _injected_run(_ProcessPerVerbFabric, *args, single=True))

    @staticmethod
    def _bed(width=1, **plan):
        env = Environment()
        fab = Fabric(env, FabricConfig(max_coalesce_width=width))
        for mn_id in range(2):
            fab.add_node(MemoryNode(env, mn_id, capacity=128))
        fab.injector = FaultInjector(FaultPlan(**plan), retry=_RETRY)
        spawned = []
        spawn = env.process

        def process(generator, name=""):
            spawned.append(name)
            return spawn(generator, name=name)
        env.process = process
        return env, fab, spawned

    def test_a_clean_batch_is_one_kernel_event(self):
        env, fab, spawned = self._bed(
            link_faults=[LinkFault(drop_p=0.9, start_us=500.0)],
            gray_nodes=[GrayNode(mn_id=1, factor=4.0)])
        before = env._eid
        batch = fab.post([WriteOp(0, 0, b"x" * 8), FaaOp(1, 8, 2),
                          ReadOp(0, 0, 8)])
        comps = env.run(until=batch)
        assert [c.value for c in comps] == [None, 0, b"x" * 8]
        assert spawned == []
        # the loop's one timeout, as on a bare fabric
        assert env._eid - before == 1
        # no delivery of it can be repeated, so no token is recorded
        assert all(not node._verb_results for node in fab.nodes.values())
        assert env.now == pytest.approx(2.0 + fab.config.post_overhead_us,
                                        abs=0.2)

    def test_a_touched_verb_never_shares_a_slot(self):
        env, fab, spawned = self._bed(
            width=4, link_faults=[LinkFault(drop_p=0.2)], seed=3)
        backlog_ports(fab, 1000.0)      # every slot that may widen does

        def touched(addr):
            inj = fab.injector
            return inj.fate(ReadOp(0, addr, 8), 0, 1, env.now,
                            port=0) is not inj.clean_fate

        clean = [a for a in range(0, 128, 8) if not touched(a)][:4]
        hit = next(a for a in range(0, 128, 8) if touched(a))
        ops = [ReadOp(0, a, 8) for a in (*clean[:2], hit, *clean[2:])]
        comps = env.run(until=fab.post(ops))
        assert [c.value for c in comps] == [bytes(8)] * 5
        assert spawned == ["verb:2@MN0", "batch"]
        # the clean READs on either side of it pair up, one slot each
        assert (fab.stats.coalesced_slots, fab.stats.coalesced_verbs) \
            == (2, 2)

    def test_the_gray_factor_scales_a_shared_slot(self):
        env, fab, _spawned = self._bed(
            width=4, gray_nodes=[GrayNode(mn_id=0, factor=4.0)])
        backlog_ports(fab, 1000.0)
        port = fab.node(0).tx_ports[0]      # READs leave on a tx port
        busy = port.total_busy
        env.run(until=fab.post([ReadOp(0, 8 * k, 8) for k in range(3)]))
        assert fab.stats.coalesced_verbs == 2
        profile = port.profile
        assert port.total_busy - busy == pytest.approx(
            4.0 * (profile.op_overhead + 3 * profile.byte_time(8)))

    def test_timed_out_and_failed_verbs_are_traced_as_failed(self):
        env = Environment()
        tracer = Tracer()
        fab = Fabric(env, FabricConfig(), tracer=tracer)
        for mn_id in range(3):
            fab.add_node(MemoryNode(env, mn_id, capacity=128))
        fab.node(1).crash()
        fab.injector = FaultInjector(
            FaultPlan(partitions=[Partition(a=CN, b=0)]), retry=_RETRY)
        comps = env.run(until=fab.post(
            [ReadOp(0, 0, 8), ReadOp(1, 0, 8), ReadOp(2, 0, 8)]))
        assert [c.value for c in comps] == [TIMEOUT, FAIL, bytes(8)]
        (batch,) = tracer.orphan_batches
        assert [(v["kind"], v["failed"]) for v in batch["verbs"]] \
            == [("read", True), ("read", True), ("read", False)]

    def test_a_verb_outside_its_node_fails_the_poster(self):
        env, fab, _spawned = self._bed()

        def client():
            try:
                yield fab.post([ReadOp(0, 120, 16)])
            except IndexError as exc:
                return str(exc)

        assert "outside capacity" in env.run(until=env.process(client()))

    def test_a_touched_batch_retries_under_the_same_token(self):
        # MN 0 hears requests but its replies are lost until t=3: the FAA's
        # first attempt applies, the retry must be answered from the token
        # cache; its batch-mate to MN 1 draws a clean fate all along
        env, fab, spawned = self._bed(partitions=[
            Partition(a=CN, b=0, end_us=3.0, drop_requests=False)])
        comps = env.run(until=fab.post([FaaOp(0, 0, 5), WriteOp(1, 0, b"y")]))
        assert spawned == ["verb:0@MN0", "batch"]
        assert [c.value for c in comps] == [0, None]
        assert fab.node(0).read_word(0) == 5
        assert len(fab.node(0)._verb_results) == 1
        stats = fab.stats
        assert (stats.dropped_replies, stats.transport_retries,
                stats.dedup_hits, stats.verb_timeouts) == (1, 1, 1, 0)

    @pytest.mark.parametrize("first_touched", [False, True])
    @pytest.mark.parametrize("second_touched", [False, True])
    def test_same_instant_batches_of_one_qp_apply_in_post_order(
            self, first_touched, second_touched):
        # A verb to MN 1 draws jitter, which gives it a delivery process;
        # the verbs to MN 0 are clean-fated in every batch and go through
        # the loop, which applies them at post in posted order.
        env, fab, spawned = self._bed(
            link_faults=[LinkFault(mn_id=1, jitter_us=1.0)])
        extra = [ReadOp(1, 0, 8)]
        first = fab.post([FaaOp(0, 0, 1), WriteOp(0, 8, b"first...")]
                         + extra * first_touched, qp=2)
        second = fab.post([FaaOp(0, 0, 10), ReadOp(0, 8, 8)]
                          + extra * second_touched, qp=2)
        env.run(until=env.all_of([first, second]))
        assert "verb:0@MN0" not in spawned
        # a process and a gatherer per touched verb; the loop spawns none
        assert spawned.count("verb:2@MN1") == first_touched + second_touched
        assert spawned.count("batch") == first_touched + second_touched
        assert first.value[0].value == 0        # the FAAs saw 0, then 1
        assert second.value[0].value == 1
        assert second.value[1].value == b"first..."


_PAGE = 4096
# Byte addresses within 16 of an interior page edge of a three-page node,
# and words that end at, start at, or straddle one (or end the mapping).
_NEAR_EDGE = st.builds(lambda page, off: page * _PAGE + off,
                       st.integers(1, 2), st.integers(-16, 8))
_EDGE_WORD = st.sampled_from([_PAGE - 8, _PAGE - 4, _PAGE, 2 * _PAGE - 8,
                              2 * _PAGE, 3 * _PAGE - 8])
_PAGED_VERB = st.one_of(
    st.tuples(st.just("r"), _NEAR_EDGE, st.integers(1, 32)),
    st.tuples(st.just("w"), _NEAR_EDGE, st.binary(min_size=1, max_size=32)),
    st.tuples(st.just("cas"), _EDGE_WORD, st.integers(0, 3)),
    st.tuples(st.just("faa"), _EDGE_WORD, st.integers(1, 5)))


class _Forgetful(dict):
    """A memo table that keeps nothing."""

    def __setitem__(self, key, value):
        pass


class _MemoFreeFabric(Fabric):
    """The loop with nothing remembered: every lane, port choice and
    service time is worked out afresh for each verb."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lanes = _Forgetful()


def _lane_run(fabric_cls, batches, *, plan, width=1, num_ports=1,
              affinity="qp", backlogged=False, crash_before=None):
    """Post ``batches`` (``(qp, ops)`` pairs) one after the other from one
    client under an injector with ``plan``; MN 1 crashes before batch
    ``crash_before`` and recovers before the next one.  Returns what an
    observer could see: values, memory, ``now``, counters and ports."""
    env = Environment()
    fab = fabric_cls(env, FabricConfig(max_coalesce_width=width,
                                       port_affinity=affinity))
    for mn_id in range(2):
        fab.add_node(MemoryNode(env, mn_id, capacity=128,
                                num_ports=num_ports))
    fab.injector = FaultInjector(FaultPlan(**plan), retry=_RETRY)
    if backlogged:
        backlog_ports(fab, 1000.0)
    values = []

    def client():
        for k, (qp, ops) in enumerate(batches):
            if k == crash_before:
                fab.node(1).crash()
            elif crash_before is not None and k == crash_before + 1:
                fab.node(1).recover()
            comps = yield fab.post(ops, qp=qp)
            values.append([c.value for c in comps])

    env.run(until=env.process(client()))
    return (values, [bytes(fab.node(m).memory) for m in range(2)], env.now,
            fab.stats.snapshot(),
            [(port.label, port._next_free, port.total_busy, port.ops)
             for m in range(2) for port in
             (*fab.node(m).rx_ports, *fab.node(m).tx_ports)])


def _mixed(mn, base=0):
    return [ReadOp(mn, base, 8), WriteOp(mn, base + 8, b"w" * 8),
            CasOp(mn, base + 16, 0, 1), ReadOp(mn, base + 8, 16)]


class TestLanes:
    """The loop remembers, per posting QP, the port and alone-in-slot
    service of each (MN, verb class, size) it has seen (`Fabric._lanes`).
    Remembering must be unobservable: each case below equals, in values,
    memory, ``now``, every counter and every port's reservations, the
    process-per-verb reference (which posts the clean verbs through the
    loop with a fresh lane table per batch) and the loop with no memo at
    all."""

    @staticmethod
    def _same(batches, **kwargs):
        got = _lane_run(Fabric, batches, **kwargs)
        assert got == _lane_run(_MemoFreeFabric, batches, **kwargs)
        return got

    def test_two_qps_on_different_ports_of_an_rss_node(self):
        env = Environment()
        probe = Fabric(env, FabricConfig(port_affinity="rss"))
        node = MemoryNode(env, 0, capacity=128, num_ports=4)
        qa = 0
        qb = next(qp for qp in range(1, 64)
                  if probe._port_for(node, True, qp)[0]
                  != probe._port_for(node, True, qa)[0])
        batches = [(qa, _mixed(0) + _mixed(1)), (qb, _mixed(0) + _mixed(1)),
                   (qa, _mixed(0, 32)), (qb, _mixed(1, 32))]
        kwargs = dict(plan={}, num_ports=4, affinity="rss")
        got = self._same(batches, **kwargs)
        assert got == _lane_run(_ProcessPerVerbFabric, batches, **kwargs)
        tx = {label for label, _free, busy, _ops in got[4]
              if ".nic_tx.p" in label and label.startswith("mn0") and busy}
        assert len(tx) == 2     # the two QPs' READs left by two ports

    def test_one_lane_key_posted_from_many_qps(self):
        batches = [(qp, [ReadOp(0, 0, 8), WriteOp(1, 0, b"v" * 8)])
                   for qp in (0, 1, 2, 3, 0, 2)]
        for num_ports in (1, 2):
            kwargs = dict(plan={}, num_ports=num_ports)
            got = self._same(batches, **kwargs)
            assert got == _lane_run(_ProcessPerVerbFabric, batches,
                                    **kwargs)

    def test_coalescing_under_a_gray_factor(self):
        """The reference has no gray model for a shared slot (its clean
        verbs run with the injector uninstalled), so this case is held to
        the memo-free loop; `test_the_gray_factor_scales_a_shared_slot`
        pins the slot's arithmetic."""
        reads = [ReadOp(0, 8 * k, 8) for k in range(3)]
        writes = [WriteOp(0, 64 + 8 * k, b"g" * 8) for k in range(3)]
        batches = [(1, reads + writes), (2, reads + [CasOp(0, 0, 0, 5)]),
                   (1, writes + reads)]
        got = self._same(batches, plan=dict(gray_nodes=[
            GrayNode(mn_id=0, factor=3.0)]), width=4, backlogged=True)
        # at least the first batch's runs of three shared a slot each
        assert got[3].coalesced_verbs >= 4

    def test_a_touched_verb_in_the_middle_of_a_batch(self):
        plan = dict(link_faults=[LinkFault(drop_p=0.2)], seed=3)
        inj = FaultInjector(FaultPlan(**plan), retry=_RETRY)
        hit = next(a for a in range(0, 128, 8)
                   if inj.fate(ReadOp(0, a, 8), 0, 1, 0.0, port=0)
                   is not inj.clean_fate)
        clean = [a for a in range(0, 120, 8)
                 if inj.fate(ReadOp(0, a, 8), 0, 1, 0.0, port=0)
                 is inj.clean_fate][:2]
        middle = [ReadOp(0, clean[0], 8), ReadOp(0, hit, 8),
                  ReadOp(0, clean[1], 8)]
        # posted first, at t = 0 (the instant the fates above were drawn)
        batches = [(0, middle), (0, middle), (5, middle)]
        got = self._same(batches, plan=plan)
        assert got == _lane_run(_ProcessPerVerbFabric, batches, plan=plan)
        assert got[3].transport_retries + got[3].dropped_requests \
            + got[3].dropped_replies > 0   # the middle verb was touched

    def test_a_node_that_crashes_between_two_batches(self):
        batches = [(1, _mixed(0) + _mixed(1))] * 4
        kwargs = dict(plan={}, crash_before=1)
        got = self._same(batches, **kwargs)
        assert got == _lane_run(_ProcessPerVerbFabric, batches, **kwargs)
        assert [v[4:] for v in got[0]][1] == [FAIL] * 4
        assert got[3].failed_verbs == 4


class TestMemoryAcrossPages:
    """MN memory is one flat buffer whatever the host's page table looks
    like: verbs that touch several pages, or a word flush against a page
    edge, behave as on a ``bytearray``."""

    @given(batch=st.lists(_PAGED_VERB, min_size=1, max_size=16),
           hooked=st.booleans())
    @example(batch=[("w", _PAGE - 8, b"\xff" * 8), ("faa", _PAGE - 8, 1),
                    ("cas", _PAGE - 8, 0), ("r", _PAGE - 8, 16),
                    ("w", 2 * _PAGE - 3, b"abcdef"), ("cas", 2 * _PAGE - 8, 0),
                    ("faa", 3 * _PAGE - 8, 5), ("r", 2 * _PAGE - 8, 16)],
             hooked=False)
    @settings(max_examples=80, deadline=None)
    def test_verbs_near_page_edges_match_a_bytearray(self, batch, hooked):
        env = Environment()
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=3 * _PAGE)
        fab.add_node(node)
        if hooked:
            # READ/WRITE go through MemoryNode.apply, not its inlined copy
            env.set_scheduler(_HeapOrderScheduler())
        reference = bytearray(3 * _PAGE)
        ops, expect = [], []
        for kind, addr, arg in batch:
            if kind == "r":
                ops.append(ReadOp(0, addr, arg))
                expect.append(bytes(reference[addr:addr + arg]))
            elif kind == "w":
                ops.append(WriteOp(0, addr, arg))
                reference[addr:addr + len(arg)] = arg
                expect.append(None)
            else:
                old = int.from_bytes(reference[addr:addr + 8], "big")
                if kind == "cas":
                    ops.append(CasOp(0, addr, arg, arg + 1))
                    new = arg + 1 if old == arg else old
                else:
                    ops.append(FaaOp(0, addr, arg))
                    new = (old + arg) % (1 << 64)
                reference[addr:addr + 8] = new.to_bytes(8, "big")
                expect.append(old)
        comps = run_batch(env, fab, ops)
        assert [comp.value for comp in comps] == expect
        assert bytes(node.memory) == bytes(reference)
