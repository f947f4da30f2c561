"""Schedule-exploration scenarios: small worlds with real races.

A *scenario* is a callable ``(ControlledScheduler) -> Optional[str]``: it
builds a fresh simulated world, installs the scheduler, runs a workload,
checks its invariants and the recorded history, and returns ``None``
(clean) or a violation message.  The explorer calls it once per schedule,
so scenarios must be deterministic given the scheduler's decisions.

All scenarios run at **zero simulated latency** (free fabric, free NIC):
every protocol step of every process lands at the same simulated time, so
the whole execution is one big co-runnable group and the scheduler's
decisions pick the serialization — maximal schedule coverage.  Real-time
order for the linearizability histories comes from the scheduler's
logical clock, which advances per dispatched event.

Two families:

* **Slot-level** (``slot-*``) — raw :func:`repro.core.snapshot` writers
  and readers on one replicated slot, checked as a linearizable register
  plus SNAPSHOT's own invariants (unique winner per round, replica
  convergence at quiescence).
* **Cluster-level** (``cluster-*``) — whole FUSEE clusters with
  concurrent clients, checked with the KV linearizability checker over
  tracer spans plus protocol invariants (no duplicate index slots per
  key, displaced objects invalidation-marked).

The protocol functions are looked up *dynamically* (``snapshot_mod.
snapshot_write``) so the mutations in :mod:`repro.check.mutations` can
patch them per run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core import replication as replication_mod
from ..core import snapshot as snapshot_mod
from ..core.addressing import RegionConfig
from ..core.client import ClientConfig
from ..core.kvstore import ClusterConfig, FuseeCluster
from ..core.linearizability import (History, check_kv_linearizable,
                                    check_linearizable)
from ..core.race import RaceConfig, SlotRef
from ..core.wire import FLAG_INVALID, SLOT_SIZE, unpack_slot
from ..faults.model import (CN, FaultInjector, FaultPlan, GrayNode,
                            LinkFault, Partition)
from ..faults.retry import RetryPolicy
from ..rdma import CasOp, Fabric, FabricConfig, MemoryNode, ReadOp
from ..sim import Environment, NicProfile
from .history import LogicalClockTracer, kv_ops_from_spans
from .scheduler import ControlledScheduler

__all__ = ["SCENARIOS", "make_slot_write_race", "make_slot_crash_read",
           "make_cluster_insert_race", "make_cluster_insert_delete_race",
           "make_cluster_update_invalidate",
           "make_slot_write_race_lossy", "make_cluster_partition_heal",
           "make_swarm_write_race", "make_swarm_crash_read",
           "make_swarm_write_chain", "make_cluster_swarm_race",
           "make_cluster_gray_expansion"]

Scenario = Callable[[ControlledScheduler], Optional[str]]

# Free fabric + free NIC: every event lands at t=0 and becomes
# co-runnable with everything else.  Only explicit sleeps advance time.
ZERO_LATENCY_FABRIC = FabricConfig(one_way_delay_us=0.0, post_overhead_us=0.0)
ZERO_COST_NIC = NicProfile(op_overhead=0.0, atomic_overhead=0.0,
                           bandwidth_gbps=float("inf"), rpc_overhead=0.0)


# --------------------------------------------------------------------------
# Slot-level scenarios
# --------------------------------------------------------------------------

def _slot_world(sched: ControlledScheduler, replicas: int):
    """One slot replicated on ``replicas`` free MNs, and its (empty)
    register history."""
    env = Environment()
    env.set_scheduler(sched)
    fabric = Fabric(env, ZERO_LATENCY_FABRIC)
    for mn in range(replicas):
        fabric.add_node(MemoryNode(env, mn, 4096, nic_profile=ZERO_COST_NIC,
                                   cpu_cores=1))
    ref = SlotRef(subtable=0, slot_index=0,
                  placement=tuple((mn, 0) for mn in range(replicas)))
    return env, fabric, ref, History(initial_value=0)


def _write(sched: ControlledScheduler, history: History, results: Dict,
           value: int, write, done: str):
    """Run ``write`` (a writer's protocol generator for ``value``), keep
    its result in ``results[value]`` and record it: as a completed write
    when its outcome is ``done`` (``"completed"`` or ``"won"``), else as
    a pending one."""
    invoked = sched.logical_clock()
    results[value] = res = yield from write
    if getattr(res.outcome, done):
        history.record("w", value, invoked, sched.logical_clock())
    else:
        history.record_pending("w", value, invoked)


def _reads(sched: ControlledScheduler, history: History, read,
           times: int):
    """``times`` sequential reads, each a fresh ``read()`` generator; a
    read that returned a value is recorded, one that returned none is
    not (it constrains nothing)."""
    for _ in range(times):
        invoked = sched.logical_clock()
        res = yield from read()
        if res.value is not None:
            history.record("r", res.value, invoked, sched.logical_clock())


def _crash_primary(env: Environment, fabric: Fabric, ref: SlotRef):
    yield env.timeout(0.0)
    fabric.node(ref.primary()[0]).crash()


def _plant(env: Environment, fabric: Fabric, ref: SlotRef, value: int):
    """A straggler's raw conflicting ``CAS(0 -> value)`` on the first
    backup: a same-round writer whose client died before reaching the
    primary.  The word commits nowhere, so it is deliberately *not* in
    the history and no read path may ever return it; whoever wins the
    slot owns converging it away."""
    mn, addr = ref.backups()[0]
    yield env.timeout(0.0)
    yield fabric.post_one(CasOp(mn, addr, expected=0, swap=value))


def _diverged(fabric: Fabric, replicas: int, what: str, winners=(),
              verb: str = "wrote") -> Optional[str]:
    """The violation if the replicas disagree at quiescence (``what``
    names it), or agree on something other than the round's winner."""
    words = {mn: fabric.node(mn).read_word(0) for mn in range(replicas)}
    if len(set(words.values())) > 1:
        return f"{what}: {words}"
    if winners and words[0] != winners[0]:
        return (f"winner {verb} {winners[0]} but replicas hold "
                f"{words[0]} at quiescence")
    return None


def _register_verdict(history: History, what: str) -> Optional[str]:
    if check_linearizable(history):
        return None
    ops = [(op.kind, op.value, op.invoked, op.completed)
           for op in history.ops]
    return f"{what}: {ops}"


def _no_master(results: Dict) -> bool:
    return all(r.outcome is not snapshot_mod.Outcome.NEED_MASTER
               for r in results.values())


def make_slot_write_race(writers: int = 2, readers: int = 1,
                         replicas: int = 3) -> Scenario:
    """Conflicting SNAPSHOT writers + concurrent readers on one slot.

    Checks, at quiescence: exactly one writer won the round, every
    replica holds the winner's value, and the read/write history is
    linearizable as a register.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, fabric, ref, history = _slot_world(sched, replicas)
        results = {}

        def read():
            return snapshot_mod.snapshot_read(fabric, ref)

        for i in range(writers):
            write = snapshot_mod.snapshot_write(
                fabric, ref, 0, 100 + i, retry_sleep_us=1.0,
                max_wait_rounds=64)
            env.process(_write(sched, history, results, 100 + i, write,
                               "completed"), name=f"writer-{i}")
        for i in range(readers):
            env.process(_reads(sched, history, read, 2), name=f"reader-{i}")
        env.run()

        winners = sorted(v for v, r in results.items() if r.outcome.won)
        if len(winners) > 1:
            return (f"two last writers decided for one round: {winners} "
                    f"(SNAPSHOT guarantees a unique winner)")
        if len(results) == writers and not winners:
            return "no writer won although every writer completed"
        return (_diverged(fabric, replicas,
                          "replica divergence at quiescence", winners)
                or _register_verdict(
                    history, "slot history not linearizable as a register"))

    return scenario


def _crash_read(write, read, done: str, what: str,
                replicas: int) -> Scenario:
    """A writer of 100, two sequential reads and a primary crash, over
    the protocol generators ``write(fabric, ref)`` / ``read(fabric,
    ref)``; ``done`` is the outcome that completes the write."""

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, fabric, ref, history = _slot_world(sched, replicas)
        env.process(_write(sched, history, {}, 100, write(fabric, ref),
                           done), name="writer")
        env.process(_reads(sched, history, lambda: read(fabric, ref), 2),
                    name="reader")
        env.process(_crash_primary(env, fabric, ref), name="crasher")
        env.run()
        return _register_verdict(history, what)

    return scenario


def make_slot_crash_read(replicas: int = 3) -> Scenario:
    """One writer, one reader, and a primary-replica crash.

    The crash is an ordinary schedulable event, so the explorer places it
    at every point of the protocol.  The reader's two sequential READs
    plus the (possibly pending) write must linearize as a register —
    the scenario that distinguishes backups-first from primary-first
    replica write ordering.
    """
    return _crash_read(
        lambda fabric, ref: snapshot_mod.snapshot_write(
            fabric, ref, 0, 100, retry_sleep_us=1.0, max_wait_rounds=16),
        lambda fabric, ref: snapshot_mod.snapshot_read(fabric, ref),
        "completed", "crash-read history not linearizable as a register",
        replicas)


def make_slot_write_race_lossy(writers: int = 2, replicas: int = 3) -> Scenario:
    """Conflicting SNAPSHOT writers on one slot over a *lossy* fabric.

    A deterministic fault plan drops/duplicates CAS messages (fates are
    content+time keyed, so replaying a schedule replays the faults).  A
    timed-out CAS is uncertain — it may have applied — so writers may end
    in ``NEED_MASTER``; with no master in this world those rounds stay
    *pending* in the history.  Invariants: at most one winner, replica
    convergence whenever nobody needed the master, and register
    linearizability with uncertain writes treated as pending.
    """
    plan = FaultPlan(link_faults=[
        LinkFault(drop_p=0.12, dup_p=0.10, start_us=0.0, end_us=60.0)],
        seed=7)

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, fabric, ref, history = _slot_world(sched, replicas)
        fabric.injector = FaultInjector(
            plan, retry=RetryPolicy(max_attempts=4, verb_timeout_us=4.0,
                                    backoff_base_us=1.0, backoff_cap_us=8.0))
        results = {}
        for i in range(writers):
            write = snapshot_mod.snapshot_write(
                fabric, ref, 0, 100 + i, retry_sleep_us=1.0,
                max_wait_rounds=64)
            env.process(_write(sched, history, results, 100 + i, write,
                               "completed"), name=f"writer-{i}")
        env.run()

        winners = sorted(v for v, r in results.items() if r.outcome.won)
        if len(winners) > 1:
            return (f"two last writers decided for one round under loss: "
                    f"{winners}")
        # Every round decided without the master: replicas converge.
        return (all(r.outcome.completed for r in results.values())
                and _diverged(fabric, replicas,
                              "replica divergence without NEED_MASTER")
                or _register_verdict(history,
                                     "lossy slot history not linearizable"))

    return scenario


# --------------------------------------------------------------------------
# SWARM slot-level scenarios
# --------------------------------------------------------------------------

def make_swarm_write_race(writers: int = 2, readers: int = 2,
                          replicas: int = 3) -> Scenario:
    """Conflicting SWARM writers + timestamp-validated readers on one slot.

    Each reader is pinned (via ``rotation``) to a different replica, and
    a straggler plants one raw conflicting ``CAS(0 -> 77)`` on a backup
    — a same-round competitor whose client died before reaching the
    primary.  The debris value commits nowhere and is *absent from the
    history*, so any read returning it is non-linearizable by
    construction: the validated read rejects it against the primary's
    timestamp word, while a reader that skips the validation hands it
    straight to the caller.  Checks at quiescence: unique winner per
    round, replica convergence whenever nobody escalated to the master,
    and register linearizability of the whole read/write history.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, fabric, ref, history = _slot_world(sched, replicas)
        results = {}

        def read(rotation: int):
            return lambda: replication_mod.swarm_read(
                fabric, ref, rotation=rotation, max_validate_rounds=2)

        for i in range(writers):
            # A LOSE is recorded pending: a swarm loser returns in 1 RTT
            # without waiting out the round, so its invocation may
            # postdate the winner's commit — pinning it "immediately
            # before the winner" could fall outside its own window.  Its
            # value is transient-or-nothing: a pending op.
            write = replication_mod.swarm_write(fabric, ref, 0, 100 + i)
            env.process(_write(sched, history, results, 100 + i, write,
                               "won"), name=f"writer-{i}")
        env.process(_plant(env, fabric, ref, 77), name="straggler")
        for i in range(readers):
            # rotation=i+1 spreads readers across distinct backups on an
            # idle fabric (reader replicas-1 lands on the debris target).
            env.process(_reads(sched, history, read(i + 1), 1),
                        name=f"reader-{i}")
        env.run()

        winners = sorted(v for v, r in results.items() if r.outcome.won)
        if len(winners) > 1:
            return (f"two swarm writers decided they won one round: "
                    f"{winners} (the primary CAS admits one winner)")
        if len(results) == writers and not winners:
            return "no writer won although every writer completed"
        return (_no_master(results)
                and _diverged(fabric, replicas,
                              "replica divergence at quiescence", winners,
                              "installed")
                or _register_verdict(
                    history, "swarm history not linearizable as a register"))

    return scenario


def make_swarm_crash_read(replicas: int = 3) -> Scenario:
    """One SWARM writer, one reader, and a primary-replica crash.

    The crash is schedulable at every protocol point.  The writer's
    broadcast must cover *all* replicas before it acknowledges: an
    early-ack write (primary only, backups fire-and-forget) lets the
    reader observe the new value from the primary, lose the primary to
    the crash, and then read the unanimous-stale backups — new-then-old,
    which no register linearization admits.  (Single writer on purpose:
    degraded backup-unanimity reads are only sound without a concurrent
    multi-writer conflict.)
    """
    return _crash_read(
        lambda fabric, ref: replication_mod.swarm_write(fabric, ref, 0, 100),
        lambda fabric, ref: replication_mod.swarm_read(fabric, ref),
        "won", "swarm crash-read history not linearizable as a register",
        replicas)


def make_swarm_write_chain(replicas: int = 3) -> Scenario:
    """A SWARM writer, a stranded conflicting backup CAS, and a chained
    round-2 writer.

    The straggler posts one raw ``CAS(0 -> 101)`` to the first backup —
    a conflicting same-round writer whose client died before reaching
    the primary.  Its debris forces the winner's broadcast to return a
    divergent backup, so the *fixup* path actually runs (a doorbell
    batch applies atomically in this world, so racing whole broadcasts
    can never diverge on their own).  The chained writer reads the
    primary and CASes from whatever round it observed, letting a
    round-1 fixup race a round-2 commit.  The clean fixup re-reads the
    primary before every CAS round and abandons once it moved past its
    own value; a non-monotonic (blind-write) fixup re-installs the
    stale round over the newer committed one and the replicas diverge
    at quiescence.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, fabric, ref, history = _slot_world(sched, replicas)
        results = {}

        def chained(val: int):
            invoked = sched.logical_clock()
            primary_mn, primary_addr = ref.primary()
            comp = yield fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
            observed = int.from_bytes(comp.value, "big")
            history.record("r", observed, invoked, sched.logical_clock())
            yield from _write(
                sched, history, results, val,
                replication_mod.swarm_write(fabric, ref, observed, val),
                "won")

        env.process(_write(sched, history, results, 100,
                           replication_mod.swarm_write(fabric, ref, 0, 100),
                           "won"), name="writer-0")
        env.process(_plant(env, fabric, ref, 101), name="straggler")
        env.process(chained(200), name="chained")
        env.run()

        rounds: Dict[int, List] = {}
        for res in results.values():
            if res.outcome.won:
                rounds.setdefault(res.v_old, []).append(res.v_new)
        for v_old, winners in rounds.items():
            if len(winners) > 1:
                return (f"round v_old={v_old} has {len(winners)} winners: "
                        f"{sorted(winners)}")
        return (_no_master(results)
                and _diverged(fabric, replicas,
                              "replica divergence at quiescence (a stale "
                              "fixup clobbered a later round)")
                or _register_verdict(
                    history, "chained swarm history not linearizable"))

    return scenario


# --------------------------------------------------------------------------
# Cluster-level scenarios
# --------------------------------------------------------------------------

def _cluster_world(sched: ControlledScheduler,
                   client: Optional[ClientConfig] = None):
    """The smallest fully featured cluster (fast to rebuild per
    schedule), traced on the scheduler's logical clock.  The scheduler
    is not installed yet: set-up runs in canonical order."""
    env = Environment()
    tracer = LogicalClockTracer(sched.logical_clock, env=env)
    config = ClusterConfig(
        n_memory_nodes=3,
        replication_factor=2,
        regions_per_mn=1,
        max_clients=8,
        region=RegionConfig(region_size=1 << 16, block_size=1 << 12,
                            min_object_size=64),
        race=RaceConfig(n_subtables=1, n_groups=4, slots_per_bucket=4),
        fabric=ZERO_LATENCY_FABRIC,
        nic=ZERO_COST_NIC,
        client=client or ClientConfig(),
    )
    return env, tracer, FuseeCluster(config, env=env, tracer=tracer)


def _race(env: Environment, sched: ControlledScheduler,
          *ops) -> Optional[List]:
    """Install the scheduler and run the ``(name, generator)`` ops
    concurrently: their results, or None if any of them hung."""
    env.set_scheduler(sched)
    procs = [env.process(op, name=name) for name, op in ops]
    env.run(until=env.all_of(procs))
    if all(p.triggered for p in procs):
        return [p.value for p in procs]
    return None


def _kv_verdict(tracer: LogicalClockTracer) -> Optional[str]:
    violation = check_kv_linearizable(kv_ops_from_spans(tracer.spans))
    return str(violation) if violation is not None else None


# The faulted cluster scenarios' client retry policy.
_RETRY = RetryPolicy(max_attempts=4, verb_timeout_us=4.0, rpc_timeout_us=8.0,
                     backoff_base_us=1.0, backoff_cap_us=8.0)


def _key_slot_words(cluster: FuseeCluster, key: bytes) -> List[int]:
    """Index slot words whose fingerprint matches ``key`` (primary replica)."""
    meta = cluster.race.key_meta(key)
    mn_id, base = cluster.race.placement(meta.subtable)[0]
    node = cluster.fabric.node(mn_id)
    words = []
    for idx in range(cluster.race.config.slots_per_subtable):
        word = node.read_word(base + idx * SLOT_SIZE)
        if word and (word >> 56) & 0xFF == meta.fingerprint:
            words.append(word)
    return words


def _duplicate(cluster: FuseeCluster, key: bytes) -> Optional[str]:
    slots = _key_slot_words(cluster, key)
    if len(slots) > 1:
        return (f"duplicate insert: key occupies {len(slots)} index "
                f"slots {[hex(w) for w in slots]}")
    return None


def make_cluster_insert_race() -> Scenario:
    """Two clients concurrently INSERT the same key.

    SNAPSHOT's conflict re-check must make the loser recognise the
    winner's identical key and stand down; skipping it double-inserts the
    key into two index slots.  Checked three ways: at most one index slot
    may hold the key at quiescence, at most one insert may report a *won*
    outcome, and the whole span history (including a sequential
    delete + search epilogue that would expose a resurrected duplicate)
    must be KV-linearizable.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(sched)
        c1, c2 = cluster.new_client(), cluster.new_client()
        key = b"contended-key"
        # Warm each client's allocator (fetch a block, set up the size
        # class) on an unrelated key so the *controlled* phase below is
        # just the race itself — bucket read, conflict CAS, commit —
        # keeping the schedule space shallow for the explorer.
        cluster.run_op(c1.insert(b"warmup-1", b"x"))
        cluster.run_op(c2.insert(b"warmup-2", b"x"))

        _race(env, sched, ("insert-1", c1.insert(key, b"value-one")),
              ("insert-2", c2.insert(key, b"value-two")))
        violation = _duplicate(cluster, key)
        if violation:
            return violation
        won = [s for s in tracer.spans
               if s.op == "insert" and s.key == key and s.ok
               and s.outcome and s.outcome.startswith("rule")]
        if len(won) > 1:
            return (f"both concurrent inserts of one key decided they "
                    f"won ({[s.outcome for s in won]})")

        # Epilogue: a delete followed by a search would resurrect the key
        # from a duplicate slot; the history checker flags that.  The
        # scheduler is still installed, so these run hook-aware.
        cluster.run_op(c1.delete(key), fast=False)
        cluster.run_op(c2.search(key), fast=False)
        return _kv_verdict(tracer)

    return scenario


def make_cluster_insert_delete_race() -> Scenario:
    """Two concurrent INSERTs of one key racing a DELETE of a bucket
    neighbour.

    The CAS-conflict recheck only defends the *same-slot* collision.
    Here the DELETE frees a slot inside the contended key's candidate
    buckets mid-race, shifting the bucket-load tiebreak between the two
    inserters' reads: they pick **different** empty slots, both empty-slot
    CASes succeed, and only the post-install dedup sweep (RACE's bucket
    re-read + master arbitration) can catch the duplicate.  Checked at
    quiescence (at most one index slot holds the key) and over the whole
    span history with the KV linearizability checker.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(sched)
        c1, c2, c3 = (cluster.new_client() for _ in range(3))
        victim, key = b"ck-0", b"ck-2"   # overlapping candidate buckets
        cluster.run_op(c1.insert(victim, b"seed"))
        cluster.run_op(c2.insert(b"warmup-2", b"x"))
        cluster.run_op(c3.insert(b"warmup-3", b"x"))

        _race(env, sched, ("delete-victim", c1.delete(victim)),
              ("insert-1", c2.insert(key, b"value-one")),
              ("insert-2", c3.insert(key, b"value-two")))
        return _duplicate(cluster, key) or _kv_verdict(tracer)

    return scenario


def make_cluster_update_invalidate() -> Scenario:
    """An UPDATE racing a SEARCH, with the coherence invariant checked.

    When an update wins, the displaced object must carry the invalidation
    flag on every alive data replica at quiescence (§4.6) — otherwise a
    client holding a stale cached pointer would keep reading the dead
    value forever.  The concurrent search history is also checked.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(sched)
        c1, c2 = cluster.new_client(), cluster.new_client()
        key = b"updated-key"
        cluster.run_op(c1.insert(key, b"old-value"))
        old = _key_slot_words(cluster, key)
        if len(old) != 1:
            return f"setup failed: {len(old)} slots for the key"
        old_ptr = unpack_slot(old[0]).pointer

        upd, _found = _race(env, sched,
                            ("update", c1.update(key, b"new-value")),
                            ("search", c2.search(key)))
        if upd.ok and upd.outcome is not None and upd.outcome.won:
            for mn_id, addr in cluster.region_map.translate(old_ptr):
                node = cluster.fabric.node(mn_id)
                if node.crashed:
                    continue
                if not node.memory[addr] & FLAG_INVALID:
                    return (f"displaced object at MN{mn_id}+{addr:#x} not "
                            f"invalidation-marked after a won update "
                            f"(stale cached readers would never notice)")
        return _kv_verdict(tracer)

    return scenario


def make_cluster_partition_heal() -> Scenario:
    """An UPDATE and a SEARCH racing across a transient client<->MN
    partition that heals mid-schedule.

    While partitioned, the clients' verbs time out and retry; once the
    window closes the operations must all terminate (no hangs) with a
    KV-linearizable history — operations that gave up with a typed error
    become pending ops the checker may discard, but a search must never
    claim absence it could not prove.
    """
    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(sched)
        c1, c2 = cluster.new_client(), cluster.new_client()
        key = b"partitioned-key"
        cluster.run_op(c1.insert(key, b"old-value"))
        meta = cluster.race.key_meta(key)
        primary_mn = cluster.race.placement(meta.subtable)[0][0]
        cluster.install_faults(
            FaultPlan(partitions=[Partition(a=CN, b=primary_mn,
                                            start_us=0.0, end_us=40.0)],
                      seed=3), retry=_RETRY)

        if _race(env, sched, ("update", c1.update(key, b"new-value")),
                 ("search", c2.search(key))) is None:
            return "an operation hung across the partition"
        cluster.clear_faults()
        # Epilogue on the healed fabric: the final value must be one the
        # history can explain (scheduler still installed: hook-aware).
        cluster.run_op(c2.search(key), fast=False)
        return _kv_verdict(tracer)

    return scenario


def make_cluster_gray_expansion() -> Scenario:
    """An extendible index split in flight on a *gray* (slow-but-alive)
    primary MN, racing a client UPDATE and SEARCH.

    The master's ``expand_subtable`` snapshots the old subtable, holds
    writers off behind the expansion barrier for a lease, rebuilds the
    images and commits — all against the subtable's primary.  A gray
    primary stretches every one of those steps arbitrarily, widening
    the windows between snapshot, client ops and commit.  In this
    zero-latency world the gray factor multiplies zero service time, so
    the *scheduler* is what renders the slowness: exploring all
    interleavings of the split's steps against the clients covers every
    gray-stretched timing, including ones a real gray window would be
    unlucky to hit.  The installed gray fault still exercises the
    injector wiring on the RPC path (master expand + ALLOC share the
    faulted fabric).

    Checked: the split and both client ops terminate (no hangs), the
    split actually happened, every preloaded key is still reachable
    after rehash (epilogue searches), and the whole span history is
    KV-linearizable.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(sched)
        c1, c2 = cluster.new_client(), cluster.new_client()
        keys = [f"gk-{i}".encode() for i in range(3)]
        for i, key in enumerate(keys):
            cluster.run_op(c1.insert(key, b"v%d" % i))
        cluster.run_op(c2.insert(b"warmup-2", b"x"))
        primary_mn = cluster.race.placement(0)[0][0]
        cluster.install_faults(
            FaultPlan(gray_nodes=[GrayNode(mn_id=primary_mn, factor=8.0,
                                           start_us=0.0, end_us=1e9)],
                      seed=7), retry=_RETRY)
        before = cluster.master.splits_performed

        if _race(env, sched, ("expand", cluster.master.expand_subtable(0)),
                 ("update", c1.update(keys[0], b"mid-split")),
                 ("search", c2.search(keys[1]))) is None:
            return "expansion or a client op hung on the gray primary"
        if cluster.master.splits_performed != before + 1:
            return "the index split never committed"
        cluster.clear_faults()

        # Epilogue: every preloaded key must have survived the rehash
        # (scheduler still installed: hook-aware).
        for key in keys:
            cluster.run_op(c2.search(key), fast=False)
        return _kv_verdict(tracer)

    return scenario


def make_cluster_swarm_race() -> Scenario:
    """A SWARM-replicated cluster: concurrent UPDATEs racing a SEARCH.

    The full client stack (index walk, cache, allocator, embedded log)
    running on the ``swarm`` strategy: two clients update one key while
    a third searches it, followed by a sequential search epilogue.  The
    whole span history must be KV-linearizable — the cluster-level
    proof that the 1-RTT broadcast write plugs into FUSEE's seams
    without reordering anybody's view of the key.
    """

    def scenario(sched: ControlledScheduler) -> Optional[str]:
        env, tracer, cluster = _cluster_world(
            sched, ClientConfig(replication_mode="swarm"))
        c1, c2, c3 = (cluster.new_client() for _ in range(3))
        key = b"swarm-key"
        cluster.run_op(c1.insert(key, b"old-value"))

        _race(env, sched, ("update-1", c1.update(key, b"new-value-1")),
              ("update-2", c2.update(key, b"new-value-2")),
              ("search", c3.search(key)))
        # Epilogue on the quiesced cluster (scheduler still installed):
        # the final value must be one the history can explain.
        cluster.run_op(c3.search(key), fast=False)
        return _kv_verdict(tracer)

    return scenario


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "slot-write-race": make_slot_write_race,
    "slot-write-race-lossy": make_slot_write_race_lossy,
    "slot-crash-read": make_slot_crash_read,
    "swarm-write-race": make_swarm_write_race,
    "swarm-crash-read": make_swarm_crash_read,
    "swarm-write-chain": make_swarm_write_chain,
    "cluster-insert-race": make_cluster_insert_race,
    "cluster-insert-delete-race": make_cluster_insert_delete_race,
    "cluster-update-invalidate": make_cluster_update_invalidate,
    "cluster-partition-heal": make_cluster_partition_heal,
    "cluster-swarm-race": make_cluster_swarm_race,
    "cluster-gray-expansion": make_cluster_gray_expansion,
}
