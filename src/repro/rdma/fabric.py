"""The simulated RDMA fabric connecting compute nodes to memory nodes.

The fabric is where the reproduction's performance model lives:

* A **doorbell batch** (one *phase* of Fig. 9) is a list of verbs posted
  together.  Verbs inside a batch run in parallel across memory nodes and
  in posted order within a node; the batch completes when the slowest verb
  completes — one network round trip plus NIC queueing, exactly the
  "each phase only incurs 1 network RTT" behaviour of §4.6.
* Each memory node's RNIC is a serialisation line
  (:class:`repro.sim.NicPort`); per-verb service time is a fixed overhead
  (larger for atomics, per Kalia et al. [30]) plus payload bytes over the
  link bandwidth.  Saturating this line produces the throughput plateaus of
  Figures 12-14.
* Verbs are applied to memory **at post time** in post order.  Because
  propagation delay is uniform and NIC queues are FIFO, post order equals
  hardware serialisation order, and every verb's effect falls inside its
  invocation-completion window — so simulated executions remain
  linearizable exactly like the hardware ones.
* RPCs (memory ALLOC/FREE, Clover metadata operations) traverse the same
  NIC and then occupy an MN/server CPU core, modelling the weak compute
  power of the memory pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence

from ..sim import Environment, Event
from .memory_node import MemoryNode
from .verbs import (
    FAIL,
    TIMEOUT,
    CasOp,
    Completion,
    FaaOp,
    ReadOp,
    Verb,
    WriteOp,
    op_bytes,
    verb_ident,
)

__all__ = ["Fabric", "FabricConfig", "FabricStats", "QpFabric",
           "PORT_AFFINITY_MODES"]

#: Multi-queue port-affinity policies (``FabricConfig.port_affinity``).
PORT_AFFINITY_MODES = ("qp", "rss")

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a stable, platform-independent integer hash.

    Port affinity must never depend on Python's randomised ``hash()`` —
    trace determinism requires the same QP to land on the same port in
    every run.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _prop(env: Environment, duration: float, label: str) -> Event:
    """A propagation-delay timeout, attributed when a profiler is installed."""
    return env.attributed_timeout(duration, "propagation", label)


def _backoff(env: Environment, duration: float, label: str) -> Event:
    """A retransmission-timeout sleep, attributed as backoff time."""
    return env.attributed_timeout(duration, "backoff", label)


@dataclass(frozen=True)
class FabricConfig:
    """Network-level timing parameters (microseconds)."""

    one_way_delay_us: float = 0.9
    # Client-side cost of building/posting a doorbell batch and polling the
    # completion queue (amortised by selective signaling, §4.6).
    post_overhead_us: float = 0.20
    # Doorbell coalescing width: up to this many *adjacent* same-node
    # READs (or same-node WRITEs) in one batch share a single NIC
    # serialisation slot, paying the fixed per-verb overhead once plus
    # their summed byte time.  1 (the paper-faithful default) disables
    # coalescing; atomics never coalesce (the RNIC atomics unit is the
    # bottleneck, Kalia et al. [30]).  Order within a slot is the posted
    # order, so §4.6 body-before-entry WRITE semantics are untouched.
    # Coalescing is adaptive: a slot widens only when the target port is
    # already backlogged, so unloaded latency stays identical to the
    # uncoalesced fabric and the win appears exactly where the NIC
    # serialisation line is the bottleneck (Fig. 13's plateau).
    max_coalesce_width: int = 1
    # Multi-queue port affinity (only meaningful when memory nodes have
    # num_ports > 1).  "qp": a stable hash of the posting queue pair
    # picks the same-numbered rx and tx port for all of that QP's
    # traffic — per-QP affinity, like an RNIC steering each QP onto one
    # hardware queue.  "rss": receive-side-scaling style flow hash over
    # (qp, mn, direction), decorrelating a QP's rx/tx lanes across MNs.
    # Both are per-QP-stable, so same-QP verbs still serialise through
    # one port and posted order is preserved.
    port_affinity: str = "qp"

    def __post_init__(self):
        if self.max_coalesce_width < 1:
            raise ValueError("max_coalesce_width must be >= 1")
        if self.port_affinity not in PORT_AFFINITY_MODES:
            raise ValueError(
                f"unknown port_affinity {self.port_affinity!r}; "
                f"pick from {PORT_AFFINITY_MODES}")

    @property
    def fail_delay_us(self) -> float:
        """Completion delay of a verb or RPC posted to an already-crashed
        node: one RTT.  Real RNICs take a retry timeout to report this;
        one RTT keeps simulations fast (documented deviation in DESIGN.md
        §6)."""
        return 2 * self.one_way_delay_us


@dataclass
class FabricStats:
    """Aggregate operation counters, for resource-efficiency reporting."""

    reads: int = 0
    writes: int = 0
    atomics: int = 0
    rpcs: int = 0
    bytes_moved: int = 0
    batches: int = 0
    failed_verbs: int = 0   # verbs completed FAIL (crashed target)
    # fault-injection counters (all zero on a clean fabric)
    dropped_requests: int = 0   # request messages lost in flight
    dropped_replies: int = 0    # acks/replies lost after execution
    duplicates: int = 0         # fabric-duplicated request deliveries
    dedup_hits: int = 0         # re-deliveries answered from token cache
    transport_retries: int = 0  # verb retransmissions
    verb_timeouts: int = 0      # verbs that exhausted their retry budget
    rpc_retries: int = 0        # RPC retransmissions
    rpc_dedup_hits: int = 0     # RPC re-deliveries answered from cache
    rpc_timeouts: int = 0       # RPCs that exhausted their retry budget
    # doorbell coalescing (zero at the paper-faithful width of 1)
    coalesced_slots: int = 0    # NIC slots that served more than one verb
    coalesced_verbs: int = 0    # verbs that rode along in a shared slot
    per_mn_ops: Dict[int, int] = field(default_factory=dict)
    # NIC dispatches per port label (verbs and RPC messages) — shows how
    # the affinity hash spread QPs over a multi-queue MN.  Keys are the
    # port labels the profiler ranks (e.g. ``mn0.nic_tx.p2``).
    per_port_ops: Dict[str, int] = field(default_factory=dict)
    # Messages the injector dropped, per NIC port label — all zero on a
    # clean fabric.  The monitor's gray-failure drop rule compares these
    # against ``per_port_ops`` deltas to catch ports whose requests
    # vanish (port-scoped partitions / lossy links) and therefore never
    # produce service-time observations.
    per_port_drops: Dict[str, int] = field(default_factory=dict)
    # KV-block READs per replica MN, filled by the client's read-spread
    # policy — the per-replica read-skew counter behind the
    # ``kv_read_skew`` metrics series.
    kv_replica_reads: Dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> "FabricStats":
        """An independent copy covering *every* field.

        Built generically from ``dataclasses.fields`` so a newly added
        counter can never be silently dropped from snapshots (guarded by
        ``tests/test_fabric.py::TestFabricStatsSnapshot``).
        """
        values = {}
        for f in fields(self):
            value = getattr(self, f.name)
            values[f.name] = dict(value) if isinstance(value, dict) else value
        return FabricStats(**values)


class _Delivery:
    """One verb of a batch posted under an injector, in either delivery
    shape: its slot in the batch, the verb, its node, payload bytes, the
    current attempt's port and fate, and an idempotency token only when
    the delivery can be repeated (None in a batch no fault reaches)."""

    __slots__ = ("i", "op", "node", "nbytes", "pidx", "port", "fate",
                 "token")

    def __init__(self, i: int, op: Verb, node: MemoryNode, pidx: int, port,
                 fate):
        self.i = i
        self.op = op
        self.node = node
        self.nbytes = op_bytes(op)
        self.pidx = pidx
        self.port = port
        self.fate = fate
        self.token = None


class Fabric:
    """Posts verbs and RPCs to memory nodes with simulated timing.

    An optional :class:`~repro.obs.Tracer` observes every doorbell batch
    and RPC; the default is the shared no-op tracer, so the untraced path
    costs one attribute check per batch.
    """

    def __init__(self, env: Environment, config: FabricConfig | None = None,
                 tracer=None):
        from ..obs.tracer import NULL_TRACER
        self.env = env
        self.config = config or FabricConfig()
        self.nodes: Dict[int, MemoryNode] = {}
        self.stats = FabricStats()
        if tracer is None:
            tracer = NULL_TRACER
        elif tracer.env is None:
            tracer.env = env   # late-bind: Tracer() made before the env
        self.tracer = tracer
        # Optional fault injection (repro.faults), its one home: set
        # directly or by ``FuseeCluster.install_faults``, read here by
        # delivery, the clients' master calls and the MN allocators'
        # mirror writes.  None keeps the clean fast path at one attribute
        # check per post/rpc.
        self.injector = None
        # Optional online monitor (repro.obs.monitor), its one home: set
        # by ``FuseeCluster.attach_monitor``, fed per-delivery service
        # times and per-port drops by the fabric and a key touch by every
        # client KV op.  None keeps every hook site at one attribute check.
        self.monitor = None
        # Hot-path memo tables.  Port/CPU affinity is a pure function of
        # (mn, direction, qp) at salt 0 (ports never change after build),
        # and per-verb service time is a pure function of (mn, verb
        # class, payload bytes) — cache both so the per-verb cost is a
        # dict hit instead of SplitMix64 hashing / float arithmetic.  The
        # service key is low-cardinality (a handful of distinct sizes per
        # verb kind), unlike any key that folds in the posting qp, which
        # would never converge at scale.
        self._port_cache: Dict[tuple, tuple] = {}
        self._cpu_cache: Dict[tuple, object] = {}
        self._verb_cache: Dict[tuple, float] = {}

    def trace_phase(self, name: str) -> None:
        """Label the current operation's next batches (no-op untraced)."""
        if self.tracer.enabled:
            self.tracer.phase(name)

    # -- topology ------------------------------------------------------------
    def add_node(self, node: MemoryNode) -> None:
        if node.mn_id in self.nodes:
            raise ValueError(f"duplicate memory node id {node.mn_id}")
        self.nodes[node.mn_id] = node

    def node(self, mn_id: int) -> MemoryNode:
        return self.nodes[mn_id]

    def alive_nodes(self) -> List[int]:
        return [mn_id for mn_id, n in self.nodes.items() if not n.crashed]

    # -- multi-queue port selection -------------------------------------------
    def bind_qp(self, qp: int) -> "QpFabric":
        """A client-side view of this fabric bound to queue pair ``qp``."""
        return QpFabric(self, qp)

    def _port_for(self, node: MemoryNode, tx: bool, qp: int,
                  salt: int = 0):
        """Pick ``(index, NicPort)`` for a delivery.

        A stable hash of the QP (policy "qp"), or of the (qp, mn,
        direction) flow (policy "rss"), spreads queue pairs over the
        node's ports.  ``salt`` rotates the choice deterministically —
        the transport bumps it per retry attempt so a retransmission
        escapes a port-level partition within ``num_ports`` attempts.
        """
        if salt == 0:
            cached = self._port_cache.get((node.mn_id, tx, qp))
            if cached is not None:
                return cached
        ports = node.tx_ports if tx else node.rx_ports
        if len(ports) == 1:
            key = 0
        elif self.config.port_affinity == "rss":
            key = salt + _mix64(_mix64(2 * qp + 1) ^ (
                node.mn_id * 0x9E3779B97F4A7C15 + (2 if tx else 1)))
        else:  # "qp"
            key = salt + _mix64(2 * qp + 1)
        index = key % len(ports)
        choice = index, ports[index]
        if salt == 0:
            self._port_cache[(node.mn_id, tx, qp)] = choice
        return choice

    def _cpu_for(self, node: MemoryNode, qp: int):
        """Pick the RPC CPU shard serving queue pair ``qp``."""
        cached = self._cpu_cache.get((node.mn_id, qp))
        if cached is not None:
            return cached
        shards = node.cpus
        if len(shards) == 1:
            shard = shards[0]
        else:
            shard = shards[_mix64(2 * qp + 1) % len(shards)]
        self._cpu_cache[(node.mn_id, qp)] = shard
        return shard

    def _note_port(self, port) -> None:
        per_port = self.stats.per_port_ops
        per_port[port.label] = per_port.get(port.label, 0) + 1

    def _note_drop(self, port) -> None:
        per_port = self.stats.per_port_drops
        per_port[port.label] = per_port.get(port.label, 0) + 1

    # -- one-sided verbs ------------------------------------------------------
    def post(self, ops: Sequence[Verb], unsignaled: bool = False,
             qp: int = 0) -> Event:
        """Post a doorbell batch.

        Returns an event that fires with ``List[Completion]`` in the order
        the verbs were posted.  ``unsignaled`` marks fire-and-forget
        batches (§4.6 selective signaling): the caller does not wait for
        them, so the tracer excludes them from per-operation RTT counts.
        ``qp`` is the posting queue pair's identity — on multi-port
        memory nodes it selects the NIC port via the configured affinity
        policy (irrelevant at ``num_ports=1``).
        """
        if not ops:
            raise ValueError("empty doorbell batch")
        if self.injector is not None:
            return self._post_faulty(ops, unsignaled, qp)
        env = self.env
        cfg = self.config
        now = env._now
        one_way = cfg.one_way_delay_us
        arrive = now + cfg.post_overhead_us + one_way
        stats = self.stats
        stats.batches += 1
        # Optional stages, resolved once per batch and tested on locals
        # per verb: latency attribution, schedule-exploration footprints,
        # the telemetry monitor, and doorbell coalescing.
        prof = env._profiler
        hook = env._access_hook
        monitor = self.monitor
        width = cfg.max_coalesce_width
        if prof is not None:
            # Fire-and-forget batches (§4.6 selective signaling) are not
            # waited on, so their intervals must not land in the active
            # span's breakdown; span=None keeps them resource-only.
            prof.begin_batch(None if unsignaled else prof.current_span())
            prof.note("client", "post", now, now + cfg.post_overhead_us)
            prof.note("propagation", "net.request",
                      now + cfg.post_overhead_us, arrive)
        completions = []
        append = completions.append
        finish = now
        nodes = self.nodes
        per_mn = stats.per_mn_ops
        per_port = stats.per_port_ops
        pcache = self._port_cache
        vcache = self._verb_cache
        n_ops = len(ops)
        reads = writes = atomics = moved = 0
        room = 0    # riders the open NIC slot may still take
        i = 0       # index of the verb after ``op``
        for op in ops:
            i += 1
            mn = op.mn_id
            node = nodes[mn]
            cls = op.__class__
            if cls is ReadOp:
                reads += 1
                nbytes = op.length
            elif cls is WriteOp:
                writes += 1
                nbytes = len(op.data)
            else:
                atomics += 1
                nbytes = 8
            moved += nbytes
            per_mn[mn] = per_mn.get(mn, 0) + 1
            if hook is not None:
                hook(("crash", mn), False)
            if node.crashed:
                # No slot is open here: a rider targets its head's node,
                # which was live, so a crashed-node verb is never a rider.
                stats.failed_verbs += 1
                append(Completion(op, FAIL))
                done = now + cfg.fail_delay_us
                if done > finish:
                    finish = done
                if prof is not None:
                    prof.note("propagation", "net.fail", now, done)
                continue
            # Apply at post time, in posted order.  READ/WRITE are
            # MemoryNode.apply inlined; a footprint hook wants the
            # touched words, and atomics keep the full dispatch.
            if cls is ReadOp and hook is None:
                addr = op.addr
                if addr < 0 or addr + nbytes > node.capacity:
                    node._check_range(addr, nbytes)
                append(Completion(op, node.memory[addr:addr + nbytes]))
            elif cls is WriteOp and hook is None:
                addr = op.addr
                if addr < 0 or addr + nbytes > node.capacity:
                    node._check_range(addr, nbytes)
                node.memory[addr:addr + nbytes] = op.data
                append(Completion(op, None))
            else:
                append(Completion(op, node.apply(op)))
            if room:
                # Rider (the lookahead below vouched for it): extends the
                # open slot by its byte time only — the fixed per-verb
                # overhead is paid once, by the head.
                room -= 1
                riders += 1
                slot_bytes += profile.byte_time(nbytes)
            else:
                # Slot head: a singleton slot on this QP's port.
                is_read = cls is ReadOp
                choice = pcache.get((mn, is_read, qp))
                if choice is None:
                    choice = self._port_for(node, is_read, qp)
                port = choice[1]
                service = vcache.get((mn, cls, nbytes))
                if service is None:
                    service = self._service_time(node, op)
                riders = 0
                # Adjacent same-node READs (or WRITEs) may ride along,
                # up to ``width`` per slot; atomics never do.  Only a port
                # already backlogged at arrival widens, probed here so
                # the slot sees the queue that earlier slots of this
                # batch just built.
                if width > 1 and (is_read or cls is WriteOp) \
                        and port.backlog(arrive) > 0.0:
                    room = width - 1
                    head_bytes = nbytes
                    profile = node.nic.profile
                    slot_bytes = profile.byte_time(nbytes)
            if room:
                if i < n_ops and ops[i].mn_id == mn \
                        and ops[i].__class__ is cls:
                    continue    # the next verb rides this slot
                room = 0
            # Close the slot: one reservation on the serialisation line.
            label = port.label
            if riders:
                service = profile.op_overhead + slot_bytes
                nbytes = head_bytes   # a slot is filed under its head
                stats.coalesced_slots += 1
                stats.coalesced_verbs += riders
            per_port[label] = per_port.get(label, 0) + 1 + riders
            if monitor is not None:
                monitor.note_verb(mn, label, cls, nbytes, service,
                                  1 + riders)
            done = port.finish_time(service, arrive)
            if prof is not None:
                prof.note("propagation", "net.reply", done, done + one_way)
            done += one_way
            if done > finish:
                finish = done
        stats.reads += reads
        stats.writes += writes
        stats.atomics += atomics
        stats.bytes_moved += moved
        if prof is not None:
            prof.end_batch()
        if self.tracer.enabled:
            self.tracer.on_batch(ops, completions, now, finish,
                                 unsignaled=unsignaled)
        return env.timeout(finish - now, completions)

    def post_one(self, op: Verb, qp: int = 0) -> Event:
        """Post a single verb; the event fires with one :class:`Completion`."""
        batch = self.post([op], qp=qp)
        proxy = self.env.event()
        batch.callbacks.append(
            lambda ev: proxy.succeed(ev.value[0]) if ev.ok else proxy.fail(ev.value))
        return proxy

    # -- fault-injected verb path (repro.faults) ------------------------------
    def _post_faulty(self, ops: Sequence[Verb], unsignaled: bool,
                     qp: int = 0) -> Event:
        """Doorbell batch under an installed fault injector.

        Per attempt the injector draws a verb's fate (lost request, lost
        reply, duplicated delivery, extra jitter) and the transport
        retries with capped backoff under the *same* idempotency token,
        so the memory node applies each verb at most once
        (`MemoryNode.apply_once`); a verb whose retry budget runs out
        completes with :data:`TIMEOUT`.  Verbs are applied at their
        simulated arrival time, so effects still land inside the
        invocation-completion window and executions remain linearizable.
        On a multi-port node each retry rotates the affinity hash by one,
        so a QP stuck behind a partitioned or gray *port* reaches a
        healthy one within ``num_ports`` attempts.

        First-attempt fates are drawn here, in posted order (a fate is a
        pure hash of what is sent and when), into one `_Delivery` per
        verb.  A batch no fault reaches — every fate clean, every target
        alive — is three kernel callbacks (`_deliver_untouched`); any
        other batch gets a process per verb, the only shape that can
        express loss, duplication and retry.  Both count a delivery with
        `_count`, note its request leg with `_note_request` and deliver it
        with `_arrive`, and both start from here, so same-instant batches
        of one QP reach the MN in post order whichever shape each took.
        """
        env = self.env
        self.stats.batches += 1
        span = self.tracer.current_span() if self.tracer.enabled else None
        prof = env._profiler
        pspan = None
        if prof is not None and not unsignaled:
            pspan = prof.current_span()
        inj = self.injector    # a delivery keeps the one it was posted under
        now = env._now
        nodes = self.nodes
        pcache = self._port_cache
        draw = inj.fate
        hook = env._access_hook
        untouched = True
        verbs = []
        for i, op in enumerate(ops):
            mn = op.mn_id
            node = nodes[mn]
            is_read = op.__class__ is ReadOp
            pidx, port = pcache.get((mn, is_read, qp)) \
                or self._port_for(node, is_read, qp)
            fate = draw(verb_ident(op), mn, 1, now, pidx)
            if hook is not None:
                hook(("crash", mn), False)
            if untouched and (node.crashed or not fate.clean):
                untouched = False
            verbs.append(_Delivery(i, op, node, pidx, port, fate))
        # Every verb draws a uid, used or not: the uid sequence (and so
        # the RPC and master tokens that later fates hash) must not depend
        # on which shape a batch took.  A token is only ever read by a
        # re-delivery, so a batch no fault reaches records none.
        for verb in verbs:
            token = env.next_uid()
            if not untouched:
                verb.token = token
        if untouched:
            return self._deliver_untouched(ops, verbs, inj, unsignaled, span,
                                           pspan)
        completions: List[Completion] = [None] * len(ops)
        procs = []
        for verb in verbs:
            proc = env.process(
                self._deliver_verb(verb, inj, completions, span, qp),
                name=f"verb:{verb.i}@MN{verb.op.mn_id}")
            if prof is not None:
                # A delivery process cannot see the posting span via the
                # tracer's per-process stack — bind explicitly (None when
                # unsignaled, to keep the intervals resource-only).
                prof.bind(proc, pspan)
            procs.append(proc)
        return env.process(self._gather_batch(ops, procs, completions,
                                              now, unsignaled, span),
                           name="batch")

    def _gather_batch(self, ops, procs, completions, t0, unsignaled, span):
        if len(procs) == 1:
            yield procs[0]
        else:
            yield self.env.all_of(procs)
        if self.tracer.enabled:
            self.tracer.on_batch(ops, completions, t0, self.env.now,
                                 unsignaled=unsignaled, span=span)
        return completions

    def _deliver_untouched(self, ops, verbs, inj, unsignaled, span,
                           pspan) -> Event:
        """A batch no fault reaches, as three kernel callbacks on the event
        ids and instants of one delivery process: the start at the post
        instant (`_count`, `_note_request`), the arrival (`_arrive` per
        verb in posted order) and the reply of the slowest verb, which
        succeeds the returned event — the fourth id, on which the caller
        resumes.  The profiler's span is set per callback, not per
        interval."""
        env = self.env
        cfg = self.config
        t0 = env._now
        completions: List[Completion] = [None] * len(ops)
        finished = Event(env)
        prof = None     # the profiler the start saw, kept for the arrival

        def start(_event):
            nonlocal prof
            prof = env._profiler
            for verb in verbs:
                self._count(verb)
            if prof is not None:
                prof.begin_batch(pspan)
                for verb in verbs:
                    self._note_request(prof, verb, t0)
                prof.end_batch()
            env.timeout(cfg.post_overhead_us
                        + cfg.one_way_delay_us).callbacks.append(arrive)

        def arrive(_event):
            if prof is not None:
                prof.begin_batch(pspan)
            back = 0.0
            try:
                for verb in verbs:
                    until_back = self._arrive(verb, inj, prof, completions)
                    if until_back is not None and until_back > back:
                        back = until_back
            except Exception as exc:   # e.g. a verb outside its node:
                finished.fail(exc)     # the poster gets it, as from a process
                return
            finally:
                if prof is not None:
                    prof.end_batch()
            env.timeout(back).callbacks.append(reply)

        def reply(_event):
            if self.tracer.enabled:
                self.tracer.on_batch(ops, completions, t0, env._now,
                                     unsignaled=unsignaled, span=span)
            finished.succeed(completions)

        env.timeout(0.0).callbacks.append(start)
        return finished

    def _note_request(self, prof, verb: _Delivery, t: float) -> None:
        """The request leg of an attempt posted at ``t``: the client's post
        overhead, then propagation plus the attempt's jitter."""
        cfg = self.config
        t_sent = t + cfg.post_overhead_us
        prof.note("client", "post", t, t_sent)
        prof.note("propagation", "net.request", t_sent,
                  t_sent + cfg.one_way_delay_us + verb.fate.request_jitter_us)

    def _arrive(self, verb: _Delivery, inj, prof, completions):
        """A verb's request arriving at its MN, in either delivery shape:
        crash check (FAIL on the spot, no return leg), apply (at most once
        per token when the delivery has one), gray-inflated service, a slot
        on the attempt's port.  Files the completion; returns how long
        until the reply is back, or None if the MN is down."""
        env = self.env
        stats = self.stats
        op, node, port, fate = verb.op, verb.node, verb.port, verb.fate
        env.note_access(("crash", op.mn_id), False)
        if node.crashed:
            stats.failed_verbs += 1
            completions[verb.i] = Completion(op, FAIL)
            return None
        if verb.token is None:
            value = node.apply(op)
        else:
            value, deduped = node.apply_once(verb.token, op)
            if deduped:
                stats.dedup_hits += 1
        completions[verb.i] = Completion(op, value)
        service = (self._service_time(node, op, verb.nbytes)
                   * inj.service_factor(op.mn_id, env._now, port=verb.pidx))
        self._note_port(port)
        if self.monitor is not None:
            self.monitor.note_verb(op.mn_id, port.label, op.__class__,
                                   verb.nbytes, service)
        done = port.finish_time(service, env._now)
        if fate.duplicate:
            # The fabric delivered the request twice: the second copy hits
            # the token cache (no re-execution) but still costs NIC service.
            stats.duplicates += 1
            if node.apply_once(verb.token, op)[1]:
                stats.dedup_hits += 1
            self._note_port(port)
            port.finish_time(service, env._now)
        one_way = self.config.one_way_delay_us
        if prof is not None and not fate.drop_reply:
            # [now, done] is NIC queue+service, already attributed by
            # the port; only the reply's travel back is propagation.
            prof.note("propagation", "net.reply", done,
                      done + one_way + fate.reply_jitter_us)
        return max(0.0, done - env._now) + one_way + fate.reply_jitter_us

    def _deliver_verb(self, verb: _Delivery, inj, completions, span, qp):
        env = self.env
        cfg = self.config
        policy = inj.retry
        op, node = verb.op, verb.node
        self._count(verb)
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
                completions[verb.i] = Completion(op, FAIL)
                return
            if attempt > 1:
                # a retry re-hashes onto the next port (per-attempt salt)
                # and draws its own fate; the first's were drawn at post
                verb.pidx, verb.port = self._port_for(
                    node, op.__class__ is ReadOp, qp, salt=attempt - 1)
                verb.fate = inj.fate(verb_ident(op), op.mn_id, attempt,
                                     t_attempt, port=verb.pidx)
            fate = verb.fate
            backoff = policy.backoff_us(attempt, fate.backoff_u)
            if fate.drop_request:
                self.stats.dropped_requests += 1
                self._note_drop(verb.port)
                yield _backoff(env, policy.verb_timeout_us + backoff,
                               "verb.timeout")
                continue
            prof = env._profiler
            if prof is not None:
                self._note_request(prof, verb, t_attempt)
            yield env.timeout(cfg.post_overhead_us + cfg.one_way_delay_us
                              + fate.request_jitter_us)
            back = self._arrive(verb, inj, prof, completions)
            if back is None:
                return
            if fate.drop_reply:
                self.stats.dropped_replies += 1
                self._note_drop(verb.port)
                elapsed = env.now - t_attempt
                yield _backoff(
                    env,
                    max(0.0, policy.verb_timeout_us - elapsed) + backoff,
                    "verb.timeout")
                continue
            yield env.timeout(back)
            return
        self.stats.verb_timeouts += 1
        completions[verb.i] = Completion(op, TIMEOUT)

    # -- RPCs -------------------------------------------------------------------
    def rpc(self, mn_id: int, name: str, payload: dict,
            qp: int = 0) -> Event:
        """Call an RPC handler registered on a memory node.

        The request traverses the node's NIC, waits for a CPU core, runs the
        handler (which reports its own CPU service time), and the reply
        travels back.  Fires with the reply dict, or :data:`FAIL` if the
        node has crashed.  ``qp`` selects the NIC port and the RPC CPU
        shard on multi-queue nodes.
        """
        span = self.tracer.current_span() if self.tracer.enabled else None
        # The idempotency token is drawn only under an injector, so
        # clean-bed uid sequences (resource labels, footprints) never move.
        token = self.env.next_uid() if self.injector is not None else None
        proc = self.env.process(
            self._rpc_proc(mn_id, name, payload, token, span, qp),
            name=f"rpc:{name}@MN{mn_id}")
        prof = self.env._profiler
        if prof is not None:
            # The RPC runs in its own process; bind it to the caller's
            # span so NIC/CPU intervals emitted inside attribute correctly.
            prof.bind(proc, prof.current_span())
        if self.tracer.enabled:
            record = self.tracer.on_rpc(mn_id, name)
            env = self.env

            def _finish(_event, record=record, env=env):
                record["t1"] = env.now

            proc.callbacks.append(_finish)
        return proc

    def _rpc_proc(self, mn_id: int, name: str, payload: dict, token,
                  span, qp: int = 0):
        """One RPC: request NIC, MN CPU, reply NIC, with retries.

        Without an injector (``token`` is None) this is a single attempt
        with no fate draw: nothing is lost, delayed or cached.  Under an
        injector each attempt draws a fate and has a timeout with capped
        backoff, and the reply is cached on the memory node under the
        idempotency ``token`` — a retransmission after a lost reply is
        answered from the cache, so ALLOC can never leak a block and
        FREE can never double-free.  Returns :data:`FAIL` for a crashed
        node or when the retry budget runs out (callers already handle
        FAIL replies).
        """
        cfg = self.config
        env = self.env
        inj = self.injector
        attempts = 1 if inj is None else inj.retry.max_attempts
        node = self.nodes[mn_id]
        self.stats.rpcs += 1
        # The clean-fabric fate; "+ 0.0" leaves every delay bit-identical.
        request_jitter = reply_jitter = 0.0
        drop_reply = False
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                self.stats.rpc_retries += 1
                if span is not None:
                    self.tracer.note_transport_retry(span)
            t_attempt = env.now
            env.note_access(("crash", mn_id), False)
            if node.crashed:
                yield _prop(env, cfg.fail_delay_us, "net.fail")
                return FAIL
            # per-attempt salt: a retry re-hashes onto the next port
            pidx, port = self._port_for(node, False, qp, salt=attempt - 1)
            if inj is not None:
                policy = inj.retry
                fate = inj.fate(("rpc", name, token), mn_id, attempt,
                                t_attempt, port=pidx)
                backoff = policy.backoff_us(attempt, fate.backoff_u)
                if fate.drop_request:
                    self.stats.dropped_requests += 1
                    self._note_drop(port)
                    yield _backoff(env, policy.rpc_timeout_us + backoff,
                                   "rpc.timeout")
                    continue
                request_jitter = fate.request_jitter_us
                reply_jitter = fate.reply_jitter_us
                drop_reply = fate.drop_reply
            # request propagation + NIC receive
            yield _prop(env, cfg.one_way_delay_us + request_jitter,
                        "net.request")
            self._note_port(port)
            yield port.occupy(port.profile.rpc_overhead)
            if node.crashed:
                yield _prop(env, cfg.one_way_delay_us, "net.fail")
                return FAIL
            cached = None if inj is None else node.rpc_replies.get(token)
            if cached is not None:
                self.stats.rpc_dedup_hits += 1
                reply = cached[0]
            else:
                # CPU service
                cpu = self._cpu_for(node, qp)
                req = cpu.request()
                yield req
                try:
                    # RPC handlers mutate MN-side Python state (allocator
                    # maps, master metadata) that word-level footprints
                    # cannot see; mark the whole endpoint as written so
                    # schedule exploration never prunes a reordering
                    # across a handler invocation.
                    env.note_access(("rpc", mn_id, name), True)
                    handler = node.rpc_handler(name)
                    reply, cpu_time = handler(payload)
                    if inj is not None:
                        cpu_time *= inj.service_factor(mn_id, env.now,
                                                       port=pidx)
                    if self.monitor is not None:
                        self.monitor.note_rpc(mn_id, cpu.label, name,
                                              cpu_time)
                    yield env.timeout(cpu_time)
                finally:
                    req.release()
                if inj is not None:
                    node.rpc_replies.put(token, reply)
            if node.crashed:
                yield _prop(env, cfg.one_way_delay_us, "net.fail")
                return FAIL
            if drop_reply:
                self.stats.dropped_replies += 1
                self._note_drop(port)
                elapsed = env.now - t_attempt
                yield _backoff(
                    env,
                    max(0.0, policy.rpc_timeout_us - elapsed) + backoff,
                    "rpc.timeout")
                continue
            # reply NIC + propagation
            yield port.occupy(port.profile.rpc_overhead)
            yield _prop(env, cfg.one_way_delay_us + reply_jitter,
                        "net.reply")
            return reply
        self.stats.rpc_timeouts += 1
        return FAIL

    # -- internals -----------------------------------------------------------
    def _service_time(self, node: MemoryNode, op: Verb,
                      nbytes: int | None = None) -> float:
        """NIC service time of one verb alone in its slot (memoised)."""
        if nbytes is None:
            nbytes = op_bytes(op)
        key = (node.mn_id, op.__class__, nbytes)
        service = self._verb_cache.get(key)
        if service is None:
            profile = node.nic.profile
            if isinstance(op, (CasOp, FaaOp)):
                fixed = profile.atomic_overhead
            else:
                fixed = profile.op_overhead
            service = self._verb_cache[key] = \
                fixed + profile.byte_time(nbytes)
        return service

    def _count(self, verb: _Delivery) -> None:
        stats = self.stats
        cls = verb.op.__class__
        if cls is ReadOp:
            stats.reads += 1
        elif cls is WriteOp:
            stats.writes += 1
        else:
            stats.atomics += 1
        stats.bytes_moved += verb.nbytes
        mn_id = verb.op.mn_id
        stats.per_mn_ops[mn_id] = stats.per_mn_ops.get(mn_id, 0) + 1


class QpFabric:
    """A queue-pair view of a :class:`Fabric` (the client's QP setup).

    Clients receive one of these instead of the raw fabric: it exposes
    the same API but stamps this QP's identity on every ``post`` /
    ``post_one`` / ``rpc``, which is what multi-queue port affinity
    hashes on.  Everything else (stats, topology, the observers)
    delegates to the underlying fabric, so helper code that only reads
    fabric state works unchanged.  At ``num_ports=1`` the identity is
    inert and behaviour is byte-identical to the raw fabric.
    """

    __slots__ = ("_fabric", "qp", "trace_phase", "node")

    def __init__(self, fabric: Fabric, qp: int):
        self._fabric = fabric
        self.qp = qp
        # Pre-bound hot methods: a delegating property would manufacture
        # a new bound method on every access (several per KV op).
        self.trace_phase = fabric.trace_phase
        self.node = fabric.node

    # Hot delegated attributes get direct properties so lookups skip the
    # __getattr__ miss path; anything else still falls through to it.
    @property
    def env(self):
        return self._fabric.env

    @property
    def stats(self):
        return self._fabric.stats

    @property
    def nodes(self):
        return self._fabric.nodes

    @property
    def config(self):
        return self._fabric.config

    @property
    def tracer(self):
        return self._fabric.tracer

    @property
    def injector(self):
        return self._fabric.injector

    @property
    def monitor(self):
        return self._fabric.monitor

    def post(self, ops: Sequence[Verb], unsignaled: bool = False) -> Event:
        return self._fabric.post(ops, unsignaled=unsignaled, qp=self.qp)

    def post_one(self, op: Verb) -> Event:
        return self._fabric.post_one(op, qp=self.qp)

    def rpc(self, mn_id: int, name: str, payload: dict) -> Event:
        return self._fabric.rpc(mn_id, name, payload, qp=self.qp)

    def __getattr__(self, name):
        return getattr(self._fabric, name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<QpFabric qp={self.qp} of {self._fabric!r}>"
