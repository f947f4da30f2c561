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
  linearizable exactly like the hardware ones.  Under a fault injector
  only a verb whose first attempt draws a fault applies later, at its
  arrival (`Fabric.post`).
* RPCs (memory ALLOC/FREE, Clover metadata operations) traverse the same
  NIC and then occupy an MN/server CPU core, modelling the weak compute
  power of the memory pool.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence

from ..sim import Environment, Event
from .memory_node import MemoryNode
from .verbs import (
    FAIL,
    TIMEOUT,
    WORD,
    CasOp,
    Completion,
    FaaOp,
    ReadOp,
    Verb,
    WriteOp,
    op_bytes,
)

__all__ = ["Fabric", "FabricConfig", "FabricStats", "QpFabric",
           "PORT_AFFINITY_MODES"]

#: Multi-queue port-affinity policies (``FabricConfig.port_affinity``).
PORT_AFFINITY_MODES = ("qp", "rss")

_MASK64 = (1 << 64) - 1
# Fabric.post's inlined CAS (MemoryNode.apply's big-endian word) and
# Completion constructor
_unpack_word = struct.Struct(">Q").unpack_from
_pack_word = struct.Struct(">Q").pack_into
_new_completion = object.__new__

#: Before every instant: the end of the NIC slot a batch has not taken.
_NEVER = float("-inf")


#: The attributes of a :class:`Fabric` that hold its observers, each
#: mirrored onto every :class:`QpFabric` view.
_OBSERVERS = frozenset(("tracer", "injector", "monitor"))


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


class Fabric:
    """Posts verbs and RPCs to memory nodes with simulated timing.

    Its observers each have one home here and are off when None: the
    :class:`~repro.obs.Tracer` (``tracer``) sees every doorbell batch and
    RPC, the fault injector (``injector``) draws every verb's fate, and
    the online monitor (``monitor``) takes every NIC slot's service time.
    Each hook site is one ``is None`` test.
    """

    def __init__(self, env: Environment, config: FabricConfig | None = None,
                 tracer=None):
        # The queue-pair views (`bind_qp`); each mirrors the observers.
        self._views: List[QpFabric] = []
        self.env = env
        self.config = config or FabricConfig()
        self.nodes: Dict[int, MemoryNode] = {}
        self.stats = FabricStats()
        self.tracer = None if tracer is None else tracer.bind(env)
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
        # The one memo table: ``_lanes[(qp, mn, class, bytes)]`` is the
        # ``(port, service, port label, port index)`` of a verb posted by
        # that QP, a pure function of its key at salt 0 (ports never
        # change after build), one dict hit per verb.  Folding in the QP
        # multiplies the keys by the client count, but each QP's share
        # converges, because a workload posts a handful of sizes per verb
        # kind: ycsb_a_sat (4 MNs) fills 29 lanes per QP, 0.65 MB at 128
        # clients, so ~5 MB at 1024.
        self._lanes: Dict[tuple, tuple] = {}

    def __setattr__(self, name: str, value) -> None:
        # An observer attached or detached here reaches every queue-pair
        # view at once, so a view holds it as a plain slot and a client
        # reads it with no Python frame (several reads per KV op).
        object.__setattr__(self, name, value)
        if name in _OBSERVERS:
            for view in self._views:
                object.__setattr__(view, name, value)

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
        view = QpFabric(self, qp)
        self._views.append(view)
        return view

    def _port_for(self, node: MemoryNode, tx: bool, qp: int,
                  salt: int = 0):
        """Pick ``(index, NicPort)`` for a delivery.

        A stable hash of the QP (policy "qp"), or of the (qp, mn,
        direction) flow (policy "rss"), spreads queue pairs over the
        node's ports.  ``salt`` rotates the choice deterministically —
        the transport bumps it per retry attempt so a retransmission
        escapes a port-level partition within ``num_ports`` attempts.
        """
        ports = node.tx_ports if tx else node.rx_ports
        if len(ports) == 1:
            key = 0
        elif self.config.port_affinity == "rss":
            key = salt + _mix64(_mix64(2 * qp + 1) ^ (
                node.mn_id * 0x9E3779B97F4A7C15 + (2 if tx else 1)))
        else:  # "qp"
            key = salt + _mix64(2 * qp + 1)
        index = key % len(ports)
        return index, ports[index]

    @staticmethod
    def _cpu_for(node: MemoryNode, qp: int):
        """Pick the RPC CPU shard serving queue pair ``qp``."""
        shards = node.cpus
        if len(shards) == 1:
            return shards[0]
        return shards[_mix64(2 * qp + 1) % len(shards)]

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

        One loop delivers every verb whose first-attempt fate is clean,
        with or without a fault injector: the verb applies at post, takes
        its NIC slot at post for the arrival instant, may coalesce, and on
        a crashed node fails one RTT later.  An injector adds two things.
        Its gray factor, taken at the arrival instant, scales the service
        of a slot.  A verb whose first fate is not clean (`_first_fates`)
        is *touched*: it never heads or rides a slot, and
        `_deliver_touched` gives it a delivery process of its own.

        Per verb the loop pays for its work: one class dispatch that
        counts, sizes and applies it, one lane hit for a slot head
        (`_lanes`) and the port reservation (`NicPort.finish_time`
        inlined), and counts straight into `stats`.  The optional stages —
        footprints, touched verbs, coalescing, gray factor, monitor,
        profiler — are resolved once per batch and tested on locals.
        """
        if not ops:
            raise ValueError("empty doorbell batch")
        env = self.env
        cfg = self.config
        now = env._now
        inj = self.injector
        touched = None if inj is None else \
            self._first_fates(ops, inj, now, qp)
        one_way = cfg.one_way_delay_us
        arrive = now + cfg.post_overhead_us + one_way
        stats = self.stats
        stats.batches += 1
        prof = env._profiler
        hook = env._access_hook
        monitor = self.monitor
        width = cfg.max_coalesce_width
        if prof is not None:
            # Fire-and-forget batches (§4.6 selective signaling) are not
            # waited on, so their intervals must not land in the active
            # span's breakdown; span=None keeps them resource-only.
            prof.begin_batch(None if unsignaled else prof.current_span())
            if touched is None or None in touched:
                # the request leg of the verbs this loop delivers (a
                # touched verb notes its own, per attempt)
                prof.note("client", "post", now, now + cfg.post_overhead_us)
                prof.note("propagation", "net.request",
                          now + cfg.post_overhead_us, arrive)
        completions = []
        finish = now        # the latest failed verb's completion
        last = _NEVER       # the latest end of a NIC slot
        nodes = self.nodes
        lanes = self._lanes
        per_mn = stats.per_mn_ops
        per_port = stats.per_port_ops
        room = 0    # riders the open NIC slot may still take
        for i, op in enumerate(ops):
            mn = op.mn_id
            node = nodes[mn]
            try:
                per_mn[mn] += 1
            except KeyError:
                per_mn[mn] = 1
            if hook is not None:
                hook(("crash", mn), False)
            if touched is not None and touched[i] is not None:
                self._tally(op)
                completions.append(None)  # filled in by its delivery process
                continue
            if node.crashed:
                # No slot is open here: a rider targets its head's node,
                # which was live, so a crashed-node verb is never a rider.
                self._tally(op)
                stats.failed_verbs += 1
                completions.append(Completion(op, FAIL))
                done = now + cfg.fail_delay_us
                if done > finish:
                    finish = done
                if prof is not None:
                    prof.note("propagation", "net.fail", now, done)
                continue
            # Count, size and apply at post time, in posted order.  READ,
            # WRITE and CAS are MemoryNode.apply inlined; a footprint hook
            # wants the touched words, and FAA keeps the full dispatch.
            cls = op.__class__
            if cls is ReadOp:
                stats.reads += 1
                nbytes = op.length
                if hook is None:
                    addr = op.addr
                    if addr < 0 or addr + nbytes > node.capacity:
                        node._check_range(addr, nbytes)
                    value = node.memory[addr:addr + nbytes]
                else:
                    value = node.apply(op)
            elif cls is WriteOp:
                stats.writes += 1
                value = op.data
                nbytes = len(value)
                if hook is None:
                    addr = op.addr
                    if addr < 0 or addr + nbytes > node.capacity:
                        node._check_range(addr, nbytes)
                    node.memory[addr:addr + nbytes] = value
                    value = None
                else:
                    value = node.apply(op)
            elif cls is CasOp and hook is None:
                stats.atomics += 1
                nbytes = WORD
                addr = op.addr
                if addr < 0 or addr + WORD > node.capacity:
                    node._check_range(addr, WORD)
                value = _unpack_word(node.memory, addr)[0]
                if value == op.expected & _MASK64:
                    _pack_word(node.memory, addr, op.swap & _MASK64)
            else:
                stats.atomics += 1
                nbytes = WORD
                value = node.apply(op)
            # Completion(op, value) without the class call and its Python
            # __init__ frame, the costliest step of a clean verb's apply
            comp = _new_completion(Completion)
            comp.op = op
            comp.value = value
            comp.failed = False
            completions.append(comp)
            stats.bytes_moved += nbytes
            if room:
                # Rider (the lookahead vouched for it): extends the open
                # slot by its byte time only — the fixed per-verb overhead
                # is paid once, by the head.
                room -= 1
                riders += 1
                slot_bytes += profile.byte_time(nbytes)
                if room and self._rides(ops, i, touched):
                    continue
                room = 0
                service = profile.op_overhead + slot_bytes
                if inj is not None:
                    service *= gray
                nbytes = head_bytes   # a slot is filed under its head
                stats.coalesced_slots += 1
                stats.coalesced_verbs += riders
            else:
                # Slot head: a singleton slot on this QP's lane to the
                # node for the verb's class and size.
                try:
                    port, service, label, pidx = lanes[qp, mn, cls, nbytes]
                except KeyError:
                    port, service, label, pidx = self._lane(node, op, nbytes,
                                                            qp)
                riders = 0
                if inj is not None:
                    gray = inj.service_factor(mn, arrive, port=pidx)
                    service *= gray
                # Adjacent same-node READs (or WRITEs) may ride along, up
                # to ``width`` per slot; atomics never do.  Only a port
                # already backlogged at arrival widens, probed here so the
                # slot sees the queue that earlier slots of this batch
                # just built.
                if width > 1 and (cls is ReadOp or cls is WriteOp) \
                        and port._next_free > arrive \
                        and self._rides(ops, i, touched):
                    room = width - 1
                    head_bytes = nbytes
                    profile = node.nic.profile
                    slot_bytes = profile.byte_time(nbytes)
                    continue    # the next verb rides this slot
            # Close the slot: one reservation on the serialisation line.
            try:
                per_port[label] += 1 + riders
            except KeyError:
                per_port[label] = 1 + riders
            if monitor is not None:
                monitor.note_verb(mn, label, cls, nbytes, service,
                                  1 + riders)
            # NicPort.finish_time(service, not_before=arrive), inlined
            start = port._next_free
            if start < arrive:
                start = arrive
            end = start + service
            port._next_free = end
            port.total_busy += service
            port.ops += 1
            if end > last:
                last = end
            if hook is not None and service > 0.0:
                hook(("nic", port._uid), True)
            if prof is not None:
                if service > 0.0:
                    prof.note_nic(label, arrive, start, end)
                prof.note("propagation", "net.reply", end, end + one_way)
        # the reply leg of the last slot to end, past any failure
        if last + one_way > finish:
            finish = last + one_way
        if prof is not None:
            prof.end_batch()
        if touched is not None:
            return self._deliver_touched(ops, touched, inj, completions,
                                         finish, unsignaled, qp)
        if self.tracer is not None:
            self.tracer.on_batch(ops, completions, now, finish,
                                 unsignaled=unsignaled)
        return env.timeout(finish - now, completions)

    @staticmethod
    def _rides(ops, i: int, touched) -> bool:
        """Whether verb ``i + 1`` may ride the slot verb ``i`` holds: the
        same node and class, and not touched."""
        if i + 1 == len(ops):
            return False
        op, after = ops[i], ops[i + 1]
        return (after.mn_id == op.mn_id and after.__class__ is op.__class__
                and (touched is None or touched[i + 1] is None))

    def _lane(self, node: MemoryNode, op: Verb, nbytes: int,
              qp: int) -> tuple:
        """Fill QP ``qp``'s lane to ``op``'s node for its class and size."""
        pidx, port = self._port_for(node, op.__class__ is ReadOp, qp)
        lane = self._lanes[(qp, node.mn_id, op.__class__, nbytes)] = (
            port, self._service_time(node, op, nbytes), port.label, pidx)
        return lane

    def _tally(self, op: Verb) -> None:
        """Count a verb the loop does not apply (touched, or on a crashed
        node) straight into the batch counters."""
        stats = self.stats
        cls = op.__class__
        if cls is ReadOp:
            stats.reads += 1
        elif cls is WriteOp:
            stats.writes += 1
        else:
            stats.atomics += 1
        stats.bytes_moved += op_bytes(op)

    def post_one(self, op: Verb, qp: int = 0) -> Event:
        """Post a single verb; the event fires with one :class:`Completion`."""
        batch = self.post([op], qp=qp)
        proxy = Event(self.env)
        batch.callbacks.append(
            lambda ev: proxy.succeed(ev._value[0]) if ev._ok
            else proxy.fail(ev._value))
        return proxy

    # -- touched verbs (repro.faults) ------------------------------------------
    def _first_fates(self, ops: Sequence[Verb], inj, now: float, qp: int):
        """Draw every verb's first-attempt fate at the post instant, in
        posted order.  A fate is a pure keyed hash of the verb's wire
        bytes, its MN, the attempt and the instant (`fate_key`); the port
        the QP hashes to only scopes which faults apply.  A clean draw is
        the injector's one ``clean_fate``, tested by identity.  None when
        every fate is clean, else per verb None (clean) or ``(lane,
        fate)``, the verb's lane (`_lanes`) giving its first port."""
        touched = None
        lanes = self._lanes
        fate_of = inj.fate
        clean = inj.clean_fate
        for i, op in enumerate(ops):
            mn = op.mn_id
            nbytes = op_bytes(op)
            try:
                lane = lanes[qp, mn, op.__class__, nbytes]
            except KeyError:
                lane = self._lane(self.nodes[mn], op, nbytes, qp)
            fate = fate_of(op, mn, 1, now, lane[3])
            if fate is not clean:
                if touched is None:
                    touched = [None] * len(ops)
                touched[i] = (lane, fate)
        return touched

    def _deliver_touched(self, ops, touched, inj, completions, finish,
                         unsignaled, qp) -> Event:
        """Give each touched verb of a batch its delivery process under a
        fresh idempotency token (`_deliver_verb`), and gather them with the
        loop's finish time into the batch's one completion event."""
        env = self.env
        t0 = env._now
        span = None if self.tracer is None else self.tracer.current_span()
        prof = env._profiler
        pspan = None if prof is None or unsignaled else prof.current_span()
        waits = []
        for i, first in enumerate(touched):
            if first is None:
                continue
            op = ops[i]
            proc = env.process(
                self._deliver_verb(i, op, first, env.next_uid(), inj,
                                   completions, span, qp),
                name=f"verb:{i}@MN{op.mn_id}")
            if prof is not None:
                # A delivery process cannot see the posting span via the
                # tracer's per-process stack — bind explicitly (None when
                # unsignaled, to keep the intervals resource-only).
                prof.bind(proc, pspan)
            waits.append(proc)
        if finish > t0:
            waits.append(env.timeout(finish - t0))  # the loop's verbs
        return env.process(self._gather_batch(ops, waits, completions, t0,
                                              unsignaled, span),
                           name="batch")

    def _gather_batch(self, ops, waits, completions, t0, unsignaled, span):
        if len(waits) == 1:
            yield waits[0]
        else:
            yield self.env.all_of(waits)
        if self.tracer is not None:
            self.tracer.on_batch(ops, completions, t0, self.env.now,
                                 unsignaled=unsignaled, span=span)
        return completions

    def _deliver_verb(self, i: int, op: Verb, first, token: int, inj,
                      completions, span, qp):
        """Touched verb ``i`` of its batch, attempt by attempt; ``first``
        is the ``(lane, fate)`` its first attempt drew at post.  A verb's
        service alone in its slot is its lane's, whichever port it takes.

        Per attempt the injector's fate may lose the request or the reply,
        duplicate the delivery or add jitter; the transport retries with
        capped backoff under the *same* idempotency ``token``, so the memory
        node applies the verb at most once (`MemoryNode.apply_once`).  A
        verb whose retry budget runs out completes with :data:`TIMEOUT`.
        The verb applies at its simulated arrival, inside the
        invocation-completion window, so executions stay linearizable.  On
        a multi-port node each retry rotates the affinity hash by one, so
        a QP stuck behind a partitioned or gray *port* reaches a healthy
        one within ``num_ports`` attempts.  A node down at an attempt's
        start fails it one RTT later; one that went down in flight fails
        it one ``one_way_delay_us`` after the request reached it, the
        failure's return leg, as `_rpc_proc` fails an RPC.
        """
        env = self.env
        cfg = self.config
        stats = self.stats
        policy = inj.retry
        node = self.nodes[op.mn_id]
        nbytes = op_bytes(op)
        (port, alone, _label, pidx), fate = first
        one_way = cfg.one_way_delay_us
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                stats.transport_retries += 1
                if span is not None:
                    self.tracer.note_transport_retry(span)
            t_attempt = env.now
            env.note_access(("crash", node.mn_id), False)
            if node.crashed:
                stats.failed_verbs += 1
                yield _prop(env, cfg.fail_delay_us, "net.fail")
                completions[i] = Completion(op, FAIL)
                return
            if attempt > 1:
                # a retry re-hashes onto the next port (per-attempt salt)
                # and draws its own fate; the first's were drawn at post
                pidx, port = self._port_for(
                    node, op.__class__ is ReadOp, qp, salt=attempt - 1)
                fate = inj.fate(op, op.mn_id, attempt, t_attempt, port=pidx)
            backoff = policy.backoff_us(attempt, fate.backoff_u)
            if fate.drop_request:
                stats.dropped_requests += 1
                self._note_drop(port)
                yield _backoff(env, policy.verb_timeout_us + backoff,
                               "verb.timeout")
                continue
            prof = env._profiler
            if prof is not None:
                t_sent = t_attempt + cfg.post_overhead_us
                prof.note("client", "post", t_attempt, t_sent)
                prof.note("propagation", "net.request", t_sent,
                          t_sent + one_way + fate.request_jitter_us)
            yield env.timeout(cfg.post_overhead_us + one_way
                              + fate.request_jitter_us)
            env.note_access(("crash", op.mn_id), False)
            if node.crashed:
                stats.failed_verbs += 1
                yield _prop(env, one_way, "net.fail")
                completions[i] = Completion(op, FAIL)
                return
            value, deduped = node.apply_once(token, op)
            if deduped:
                stats.dedup_hits += 1
            completions[i] = Completion(op, value)
            service = alone * inj.service_factor(op.mn_id, env._now,
                                                 port=pidx)
            self._note_port(port)
            if self.monitor is not None:
                self.monitor.note_verb(op.mn_id, port.label, op.__class__,
                                       nbytes, service)
            done = port.finish_time(service, env._now)
            if fate.duplicate:
                # The fabric delivered the request twice: the second copy
                # hits the token cache (no re-execution) but still costs
                # NIC service.
                stats.duplicates += 1
                if node.apply_once(token, op)[1]:
                    stats.dedup_hits += 1
                self._note_port(port)
                port.finish_time(service, env._now)
            if fate.drop_reply:
                stats.dropped_replies += 1
                self._note_drop(port)
                elapsed = env.now - t_attempt
                yield _backoff(
                    env,
                    max(0.0, policy.verb_timeout_us - elapsed) + backoff,
                    "verb.timeout")
                continue
            if prof is not None:
                # [now, done] is NIC queue+service, already attributed by
                # the port; only the reply's travel back is propagation.
                prof.note("propagation", "net.reply", done,
                          done + one_way + fate.reply_jitter_us)
            yield env.timeout(max(0.0, done - env._now) + one_way
                              + fate.reply_jitter_us)
            return
        stats.verb_timeouts += 1
        completions[i] = Completion(op, TIMEOUT)

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
        tracer = self.tracer
        span = None if tracer is None else tracer.current_span()
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
        if tracer is not None:
            record = tracer.on_rpc(mn_id, name)
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
    @staticmethod
    def _service_time(node: MemoryNode, op: Verb,
                      nbytes: int | None = None) -> float:
        """NIC service time of one verb alone in its slot."""
        if nbytes is None:
            nbytes = op_bytes(op)
        profile = node.nic.profile
        if isinstance(op, (CasOp, FaaOp)):
            fixed = profile.atomic_overhead
        else:
            fixed = profile.op_overhead
        return fixed + profile.byte_time(nbytes)


class QpFabric:
    """A queue-pair view of a :class:`Fabric` (the client's QP setup).

    Clients receive one of these instead of the raw fabric: it exposes
    the same API but stamps this QP's identity on every ``post`` /
    ``post_one`` / ``rpc``, which is what multi-queue port affinity
    hashes on.  Everything else (stats, topology) delegates to the
    underlying fabric, whose observers it mirrors, so helper code that
    only reads fabric state works unchanged.  At ``num_ports=1`` the
    identity is inert and behaviour is byte-identical to the raw fabric.
    """

    __slots__ = ("_fabric", "qp", "node", "env", "stats", "nodes", "config",
                 "tracer", "injector", "monitor")

    def __init__(self, fabric: Fabric, qp: int):
        self._fabric = fabric
        self.qp = qp
        # Pre-bound hot methods (a delegating property would manufacture
        # a new bound method on every access, several per KV op) and the
        # attributes a Fabric never rebinds, read with no call.
        self.node = fabric.node
        self.env = fabric.env
        self.stats = fabric.stats
        self.nodes = fabric.nodes
        self.config = fabric.config
        # The observers, as attached now; the fabric sets every view's
        # copy whenever one is attached or detached (Fabric.__setattr__).
        self.tracer = fabric.tracer
        self.injector = fabric.injector
        self.monitor = fabric.monitor

    def post(self, ops: Sequence[Verb], unsignaled: bool = False) -> Event:
        return self._fabric.post(ops, unsignaled, self.qp)

    def post_one(self, op: Verb) -> Event:
        return self._fabric.post_one(op, qp=self.qp)

    def rpc(self, mn_id: int, name: str, payload: dict) -> Event:
        return self._fabric.rpc(mn_id, name, payload, qp=self.qp)

    def __getattr__(self, name):
        return getattr(self._fabric, name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<QpFabric qp={self.qp} of {self._fabric!r}>"
