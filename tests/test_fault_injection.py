"""Fault injection on the substrate paths: RPCs under mid-service crashes,
kernel error surfaces, and protocol behaviour under exotic failures."""

from functools import lru_cache
from hashlib import sha256

import pytest

from repro.faults import CN, FaultInjector, FaultPlan, GrayNode, LinkFault, \
    Partition
from repro.harness.runner import run_closed_loop
from repro.harness.systems import fusee_bed
from repro.rdma import FAIL, Fabric, FabricConfig, MemoryNode, ReadOp
from repro.sim import Environment, SimulationError
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload, key_bytes, \
    make_value


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def fabric(env):
    fab = Fabric(env, FabricConfig())
    for mn in range(2):
        node = MemoryNode(env, mn, capacity=1 << 12)
        fab.add_node(node)
    return fab


class TestRpcMidServiceCrash:
    def test_crash_during_cpu_service_fails_rpc(self, env, fabric):
        """The node dies while the handler is executing: FAIL, not a
        bogus reply."""
        node = fabric.node(0)
        node.register_rpc("slow", lambda p: ({"x": 1}, 50.0))

        def crasher():
            yield env.timeout(10.0)  # mid-service
            node.crash()

        def caller():
            return (yield fabric.rpc(0, "slow", {}))

        env.process(crasher())
        result = env.run(until=env.process(caller()))
        assert result is FAIL

    def test_crash_before_nic_receive_fails_rpc(self, env, fabric):
        node = fabric.node(0)
        node.register_rpc("fast", lambda p: ({}, 0.1))

        def crasher():
            yield env.timeout(0.5)  # during request propagation
            node.crash()

        def caller():
            return (yield fabric.rpc(0, "fast", {}))

        env.process(crasher())
        result = env.run(until=env.process(caller()))
        assert result is FAIL

    def test_rpc_after_recover_succeeds(self, env, fabric):
        node = fabric.node(0)
        node.register_rpc("echo", lambda p: ({"v": p["v"]}, 0.5))
        node.crash()
        node.recover()

        def caller():
            return (yield fabric.rpc(0, "echo", {"v": 9}))

        assert env.run(until=env.process(caller())) == {"v": 9}


class TestKernelErrorSurfaces:
    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_all_of_child_failure_propagates(self, env):
        bad = env.event()
        good = env.timeout(5.0)

        def trigger():
            yield env.timeout(1.0)
            bad.fail(RuntimeError("child died"))

        caught = []

        def waiter():
            try:
                yield env.all_of([good, bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(trigger())
        env.process(waiter())
        env.run()
        assert caught == ["child died"]

    def test_any_of_child_failure_propagates(self, env):
        bad = env.event()

        def trigger():
            yield env.timeout(1.0)
            bad.fail(ValueError("nope"))

        caught = []

        def waiter():
            try:
                yield env.any_of([env.timeout(5.0), bad])
            except ValueError:
                caught.append(True)

        env.process(trigger())
        env.process(waiter())
        env.run()
        assert caught == [True]


class TestCrashTimingWindows:
    def test_crash_between_batches_is_seen_by_next_batch(self, env, fabric):
        results = []

        def client():
            comps = yield fabric.post([ReadOp(0, 0, 8)])
            results.append(comps[0].failed)
            fabric.node(0).crash()
            comps = yield fabric.post([ReadOp(0, 0, 8)])
            results.append(comps[0].failed)

        env.run(until=env.process(client()))
        assert results == [False, True]

    def test_memory_unmodified_after_crash_flag(self, env, fabric):
        """A crashed node's memory is frozen — recovery logic can rely on
        the pre-crash contents when the node 'returns' in tests."""
        from repro.rdma import WriteOp
        node = fabric.node(0)

        def client():
            yield fabric.post([WriteOp(0, 0, b"live")])
            node.crash()
            yield fabric.post([WriteOp(0, 0, b"dead")])

        env.run(until=env.process(client()))
        assert bytes(node.memory[0:4]) == b"live"


class TestSequentialWriteRollback:
    def test_loser_rolls_back_partial_cas(self):
        """FUSEE-CR: a writer that wins some backups but loses a later one
        undoes its partial modifications before reporting LOSE."""
        from repro.core.race import SlotRef
        from repro.core.snapshot import Outcome, sequential_write
        env = Environment()
        fabric = Fabric(env, FabricConfig())
        for mn in range(3):
            fabric.add_node(MemoryNode(env, mn, capacity=64))
        ref = SlotRef(subtable=0, slot_index=0,
                      placement=((0, 0), (1, 0), (2, 0)))
        # sabotage: backup 2 already holds a foreign value, so the second
        # backup CAS will fail after the first succeeded
        fabric.node(2).write_word(0, 77)

        def writer():
            return (yield from sequential_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.LOSE
        # the partially-modified backup was rolled back
        assert fabric.node(1).read_word(0) == 0
        assert fabric.node(0).read_word(0) == 0


_RUN_US = 400.0
# Every window of this plan opens after the run has ended.
_LATE = FaultPlan(
    link_faults=[LinkFault(drop_p=0.5, dup_p=0.5, jitter_us=2.0,
                           start_us=10 * _RUN_US)],
    partitions=[Partition(a=CN, b=1, start_us=10 * _RUN_US)],
    gray_nodes=[GrayNode(mn_id=0, start_us=10 * _RUN_US)])


@lru_cache(maxsize=None)
def _ycsb_run(workload, width, plan=None):
    """32 closed-loop YCSB clients for 400 us on a loaded two-MN bed, under
    ``plan`` (None: no injector): what an observer of the run can see."""
    bed = fusee_bed(n_memory_nodes=2, dataset_bytes=4 << 20,
                    max_coalesce_width=width)
    config = YcsbConfig(workload=workload, n_keys=2000, kv_size=256)
    bed.load([(key_bytes(i), make_value(config.value_size, salt=i))
              for i in range(config.n_keys)])
    fabric = bed.cluster.fabric
    if plan is not None:
        fabric.injector = FaultInjector(plan)
    clients = [bed.new_client() for _ in range(32)]
    result = run_closed_loop(bed.env, clients,
                             lambda i: YcsbWorkload(config, seed=i),
                             bed.execute, duration_us=_RUN_US)
    return (result.per_op_counts, bed.env.now, fabric.stats.snapshot(),
            [sha256(node.memory).hexdigest()    # 2 x 100 MB: the fast one
             for node in fabric.nodes.values()])


class TestNothingToInjectIsTheBareFabric:
    """An injector that draws no fault delivers every verb through the
    bare fabric's loop: the same ops per kind, the same end instant, the
    same fabric counters and the same bytes in every MN, with coalescing
    on or off."""

    @pytest.mark.parametrize("workload, width, plan", [
        ("A", 1, FaultPlan()),
        ("C", 4, FaultPlan()),
        ("A", 1, _LATE),
    ], ids=["ycsb-a", "ycsb-c-coalescing", "windows-after-the-run"])
    def test_the_run_equals_the_bare_run(self, workload, width, plan):
        counts, now, stats, memory = _ycsb_run(workload, width, plan)
        bare_counts, bare_now, bare_stats, bare_memory = \
            _ycsb_run(workload, width)
        assert counts == bare_counts
        assert now == bare_now
        assert stats == bare_stats
        assert memory == bare_memory
