"""The cluster master: membership, MN failover, client recovery (§5).

The master is a management process in the compute pool.  It does nothing
on the data path; it only

* runs a lease-based failure detector over clients and memory nodes
  (modelled as a periodic scan with a detection latency of one lease);
* handles **memory-node crashes** (Algorithm 3): blocks writers to the
  affected index subtables, waits out the lease, acts as a representative
  last writer to make all alive slot replicas consistent (choosing backup
  values, which are never older than the committed primary value), commits
  the corresponding operation logs, reconfigures the replica placement,
  and answers clients' ``fail_query`` RPCs with resolved values;
* recovers **crashed clients** (§5.3): re-manages their memory (block
  tables + free bitmaps + log walk) and repairs the index from their
  embedded operation logs, classifying every potentially-crashed request
  into the paper's c0-c3 cases.  The timing breakdown it returns
  reproduces Table 1.

What the bytes it reads *mean* is not decided here: block tables, free
bitmaps and the objects of a block are :mod:`repro.core.addressing`'s, a
whole subtable ``RaceHashing.iter_slot_words``', a slab object ``oplog.
parse_object``'s, and every recovery READ is ``oplog.read_first_alive`` —
the definitions the allocators write those bytes with
(``docs/memory_layout.md``, "Who touches what").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..rdma import CasOp, FaaOp, Fabric, ReadOp, WriteOp
from ..rdma.memory_node import TokenCache
from ..sim import Environment, Event, Resource
from .addressing import RegionMap
from .memory import ClientTable, unpack_block_entry
from .oplog import (CrashCase, LogWalker, WalkedObject, commit_old_value_ops,
                    parse_object, read_first_alive)
from .race import KeyMeta, RaceHashing, SlotRef, hash_key
from .snapshot import snapshot_write
from .wire import (
    KV_HOLDS_KEY,
    NULL_ADDR,
    OP_DELETE,
    OP_INSERT,
    SLOT_SIZE,
    decode_kv_payload,
    kv_len_units,
    match_kv,
    pack_slot,
    unpack_slot,
)

__all__ = ["Master", "RecoveryReport", "RecoveredClientState"]

# The master's timing (simulated microseconds).
LEASE_US = 30.0               # membership lease (uKharon-scale)
DETECTOR_INTERVAL_US = 10.0   # failure-detector scan period
RPC_ONE_WAY_US = 0.9          # client <-> master RPC propagation
RPC_SERVICE_US = 1.0
CPU_CORES = 2
# Recovering a client re-establishes one QP per memory node and
# re-registers the client's memory regions with the RNIC.  MR registration
# dominates (the testbed machines hold 16 GB; registration costs ~10 ms/GB
# on commodity RNICs), which is why the paper's Table 1 shows 163.1 ms /
# 92.1% for this step.
QP_SETUP_US = 620.0           # per memory node
MR_REGISTER_US_PER_GB = 10_000.0
CLIENT_MR_GB = 16.0
FREE_LIST_CPU_PER_OBJECT_US = 4.0
RPC_DEDUP_CAPACITY = 4096     # client-RPC tokens the master remembers


@dataclass
class RecoveryReport:
    """Timing breakdown of one client recovery — the rows of Table 1."""

    connect_mr_us: float = 0.0
    get_metadata_us: float = 0.0
    traverse_log_us: float = 0.0
    recover_requests_us: float = 0.0
    construct_free_list_us: float = 0.0
    objects_visited: int = 0
    tails_examined: int = 0
    requests_redone: int = 0
    requests_finished: int = 0
    objects_reclaimed: int = 0
    blocks_recovered: int = 0
    crash_cases: Dict[str, int] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return (self.connect_mr_us + self.get_metadata_us
                + self.traverse_log_us + self.recover_requests_us
                + self.construct_free_list_us)

    def rows(self) -> List[Tuple[str, float, float]]:
        """(step, milliseconds, percentage) rows, like Table 1."""
        steps = [
            ("Recover connection & MR", self.connect_mr_us),
            ("Get Metadata", self.get_metadata_us),
            ("Traverse Log", self.traverse_log_us),
            ("Recover KV Requests", self.recover_requests_us),
            ("Construct Free List", self.construct_free_list_us),
        ]
        total = self.total_us or 1.0
        rows = [(name, us / 1000.0, 100.0 * us / total) for name, us in steps]
        rows.append(("Total", self.total_us / 1000.0, 100.0))
        return rows


@dataclass
class RecoveredClientState:
    """Everything a restarted client needs to resume (§5.3)."""

    cid: int
    # per class: (region, block, class_idx) owned blocks
    blocks: List[Tuple[int, int, int]] = field(default_factory=list)
    # per class: free gaddrs in (arbitrary but stable) order
    free_lists: Dict[int, List[int]] = field(default_factory=dict)
    heads: Dict[int, int] = field(default_factory=dict)
    last_allocs: Dict[int, int] = field(default_factory=dict)


class Master:
    """The fault-tolerant cluster manager (assumed replicated via SMR)."""

    def __init__(self, env: Environment, fabric: Fabric,
                 region_map: RegionMap, race: RaceHashing,
                 client_table: ClientTable, size_classes: List[int],
                 replication=None):
        from .replication import create_protocol

        self.env = env
        self.fabric = fabric
        self.region_map = region_map
        self.race = race
        self.client_table = client_table
        self.size_classes = size_classes
        # The cluster's slot-replication strategy: subtable repair defers
        # its divergent-word choice to the protocol (SNAPSHOT prefers
        # backups, SWARM the primary — see ReplicationProtocol.
        # repair_choice).  Defaults to the paper's SNAPSHOT.
        self.replication = replication or create_protocol("snapshot")
        self.cpu = Resource(env, capacity=CPU_CORES, label="master.cpu")
        self.epoch = 0
        self.handled_mn_failures: List[int] = []
        # subtable -> the barrier event clients wait on while the master
        # repairs (Algorithm 3) or splits that subtable; empty otherwise
        self.barriers: Dict[int, Event] = {}
        self._detector_proc = None
        # installed by the cluster: (new_id, n_replicas) -> placement
        self.subtable_allocator = None
        self.splits_performed = 0
        # Client-RPC idempotency (repro.faults): results cached by token so
        # a client retransmission after a lost reply never re-runs the
        # handler — in particular a completed split is never split again.
        self.rpc_dedup_hits = 0
        self._rpc_results = TokenCache(RPC_DEDUP_CAPACITY)
        # Insert-duplicate arbitration (RACE's post-install re-read check):
        # per key, the (subtable, slot_index) -> word of every slot whose
        # owner has conceded this episode.  See ``arbitrate_insert``.
        self.insert_arbitrations = 0
        self._insert_conceded: "OrderedDict[bytes, Dict[Tuple[int, int], int]]" = OrderedDict()

    def _dedup_call(self, token: Optional[int], call):
        """Run a client-RPC generator at most once per token (generator)."""
        if token is None:
            return (yield from call)
        hit = self._rpc_results.get(token)
        if hit is not None:
            self.rpc_dedup_hits += 1
            call.close()
            return hit[0]
        result = yield from call
        self._rpc_results.put(token, result)
        return result

    # ------------------------------------------------------------ membership
    def start(self) -> None:
        """Launch the lease-based failure detector."""
        if self._detector_proc is None:
            self._detector_proc = self.env.process(self._detector(),
                                                   name="master-detector")

    def _detector(self):
        while True:
            yield self.env.timeout(DETECTOR_INTERVAL_US)
            for mn_id, node in self.fabric.nodes.items():
                if node.crashed and mn_id not in self.handled_mn_failures:
                    self.handled_mn_failures.append(mn_id)
                    self.env.process(self.handle_mn_failure(mn_id),
                                     name=f"mn-failover-{mn_id}")

    # --------------------------------------------------- MN crash (Algorithm 3)
    def handle_mn_failure(self, mn_id: int):
        """Algorithm 3: block, repair all affected slots, reconfigure."""
        tracer = self.fabric.tracer
        span = (tracer.begin_span("recover.mn_failover", mn_id)
                if tracer is not None else None)
        affected = self.race.subtables_on(mn_id)
        barriers = {}
        for subtable in affected:
            if subtable not in self.barriers:
                barrier = self.env.event()
                self.barriers[subtable] = barrier
                barriers[subtable] = barrier
        # member_prepare_change: wait out the lease so no client holding the
        # old membership view can still modify the crashed slots.
        yield self.env.timeout(LEASE_US)
        for subtable in list(barriers):
            if self.fabric.tracer is not None:
                self.fabric.tracer.phase("failover.repair_subtable")
            yield from self._repair_subtable(subtable)
        self.epoch += 1
        for subtable, barrier in barriers.items():
            del self.barriers[subtable]
            barrier.succeed(self.epoch)
        if span is not None:
            tracer.end_span(span, ok=True, outcome="reconfigured")

    def _repair_subtable(self, subtable: int):
        """Make all alive replicas of a subtable identical; which word
        wins a disagreement is the replication protocol's call (SNAPSHOT:
        a backup, never older than the committed primary; SWARM: the
        primary, the commit point — backups may hold loser values)."""
        placement = self.race.placement(subtable)
        alive = [(mn, base) for mn, base in placement
                 if not self.fabric.node(mn).crashed]
        if not alive:
            return  # unrecoverable: fewer than 1 replica survived
        reads = [self.race.subtable_read_op(subtable, mn, base)
                 for mn, base in alive]
        comps = yield self.fabric.post(reads)
        arrays = [c.value for c in comps if not c.failed]
        if len(arrays) != len(alive):
            return
        primary_alive = not self.fabric.node(placement[0][0]).crashed
        fix_writes: List[WriteOp] = []
        log_commits: List[Tuple[int, int]] = []
        replicas = [[word for _index, word in self.race.iter_slot_words(arr)]
                    for arr in arrays]
        for index, words in enumerate(zip(*replicas)):
            if len(set(words)) == 1:
                continue
            choice_idx = self.replication.repair_choice(list(words),
                                                        primary_alive)
            chosen = words[choice_idx]
            old = words[0] if primary_alive else chosen
            for (mn, base), word in zip(alive, words):
                if word != chosen:
                    fix_writes.append(WriteOp(mn, base + index * SLOT_SIZE,
                                              chosen.to_bytes(8, "big")))
            # Commit the winner's log so its (crashed or alive) issuer never
            # redoes the operation (§5.2): write old value into the chosen
            # object's embedded log entry (collected below — the entry sits
            # at the end of the slab *object*, whose size comes from the
            # block table, not from the slot's payload length).
            if chosen != NULL_ADDR and chosen != old:
                log_commits.append((unpack_slot(chosen).pointer, old))
        if fix_writes:
            yield self.fabric.post(fix_writes)
        for pointer, old in log_commits:
            object_size = yield from self._object_size_of(pointer)
            if object_size is None:
                continue
            ops = commit_old_value_ops(self.region_map, self.fabric,
                                       pointer, object_size, old)
            if ops:
                yield self.fabric.post(ops)
        self.race.reconfigure(subtable, alive)

    def _object_size_of(self, gaddr: int):
        """Slab object size of the block holding ``gaddr``, read from the
        block-allocation table (generator; None if unresolvable)."""
        located = self.region_map.block_of(gaddr)
        if located is None:
            return None
        region_id, block = located
        entry = yield from read_first_alive(
            self.fabric, self.region_map.placement(region_id),
            self.region_map.layout.block_table_entry_offset(block), 8)
        if entry is None:
            return None
        owner = unpack_block_entry(int.from_bytes(entry, "big"))
        if owner is None or owner[1] >= len(self.size_classes):
            return None
        return self.size_classes[owner[1]]

    # --------------------------------------------------- index expansion
    def request_expand(self, subtable: int, token: Optional[int] = None):
        """Client RPC: the subtable rejected an insert for lack of slots.

        Concurrent requests for the same subtable coalesce onto one split.
        Returns True if the directory changed (the caller must recompute
        its key metadata).  ``token`` is the client's idempotency token: a
        retransmitted request whose first invocation already completed is
        answered from the result cache instead of splitting again.
        Generator.
        """
        return (yield from self._dedup_call(
            token, self._request_expand(subtable)))

    def _request_expand(self, subtable: int):
        yield self.env.timeout(RPC_ONE_WAY_US)
        barrier = self.barriers.get(subtable)
        if barrier is not None:
            yield barrier  # a split (or failover) is already in flight
            yield self.env.timeout(RPC_ONE_WAY_US)
            return True
        ok = yield from self.expand_subtable(subtable)
        yield self.env.timeout(RPC_ONE_WAY_US)
        return ok

    def expand_subtable(self, subtable: int):
        """Split one physical subtable (RACE extendible resize), reusing
        the failover barrier machinery: block writers, wait out the
        lease, reorganise, commit the new directory, unblock (generator).

        The FUSEE paper leaves replicated resizing undefined; this is the
        repository's documented extension — a master-led, per-subtable
        stop-the-world split, exactly the role the master already plays
        for MN crashes (Algorithm 3).
        """
        if self.subtable_allocator is None:
            return False
        if subtable in self.barriers:
            yield self.barriers[subtable]
            return True
        barrier = self.env.event()
        self.barriers[subtable] = barrier
        try:
            yield self.env.timeout(LEASE_US)
            ok = yield from self._do_split(subtable)
        finally:
            del self.barriers[subtable]
            self.epoch += 1
            barrier.succeed(self.epoch)
        if ok:
            self.splits_performed += 1
        return ok

    def _do_split(self, old: int):
        placement = [pl for pl in self.race.placement(old)
                     if not self.fabric.node(pl[0]).crashed]
        if not placement:
            return False
        # 1. snapshot the old subtable
        comp = yield self.fabric.post_one(self.race.subtable_read_op(
            old, placement[0][0], placement[0][1]))
        if comp.failed:
            return False
        occupied = [(index, word)
                    for index, word in self.race.iter_slot_words(comp.value)
                    if word != 0]
        # 2. fetch every occupant's key to re-route it under depth+1
        digests: Dict[int, int] = {}
        batch = 32
        for start in range(0, len(occupied), batch):
            chunk = occupied[start:start + batch]
            reads, owners = [], []
            for index, word in chunk:
                slot = unpack_slot(word)
                for mn_id, addr in self.region_map.translate(slot.pointer):
                    if not self.fabric.node(mn_id).crashed:
                        reads.append(ReadOp(mn_id, addr, slot.block_bytes))
                        owners.append(index)
                        break
            if not reads:
                continue
            comps = yield self.fabric.post(reads)
            for index, comp in zip(owners, comps):
                if comp.failed:
                    continue
                try:
                    _h, key, _v = decode_kv_payload(comp.value)
                except ValueError:
                    continue  # torn/garbage slot: leave it in place
                digests[index] = hash_key(key)
        # 3. plan the split and allocate the sibling table
        new_id, directory, router = self.race.staged_split(old)
        try:
            new_placement = self.subtable_allocator(new_id, len(placement))
        except MemoryError:
            return False
        # 4. build both images; a key keeps its slot index (candidate
        # ranges depend only on its digest, which does not change)
        nbytes = self.race.config.subtable_bytes
        old_img = bytearray(nbytes)
        new_img = bytearray(nbytes)
        for index, word in occupied:
            digest = digests.get(index)
            target = old if digest is None else router(digest)
            image = new_img if target == new_id else old_img
            image[index * SLOT_SIZE:(index + 1) * SLOT_SIZE] =                 word.to_bytes(8, "big")
        writes = [WriteOp(mn, base, bytes(old_img))
                  for mn, base in placement]
        writes += [WriteOp(mn, base, bytes(new_img))
                   for mn, base in new_placement
                   if not self.fabric.node(mn).crashed]
        yield self.fabric.post(writes)
        # 5. publish the new directory
        self.race.commit_split(old, new_id, directory, new_placement)
        return True

    # ------------------------------------------------- insert deduplication
    def arbitrate_insert(self, key: bytes, own, foreigns,
                         token: Optional[int] = None):
        """Client RPC: resolve a duplicate-insert race (generator).

        Two inserters of the same key can win *different* empty slots when
        a concurrent mutation shifts the bucket view between their reads —
        no CAS ever collides, so only the post-install re-read (RACE's
        duplicate check) notices.  The observer reports its own installed
        slot and every foreign same-key slot it saw; the master serialises
        the verdicts with a last-man-standing rule:

        * if any reported foreign slot has **not** conceded yet, the caller
          concedes — its foreign set must include either a clean inserter
          (one whose own re-read predates every other install, hence may
          already have returned success; there is at most one, because two
          clean re-reads would each have to precede the other's install)
          or a not-yet-resolved peer that will escalate in turn;
        * if every reported foreign has already conceded, the caller is the
          last one standing and keeps its slot.

        Returns ``"win"`` (keep the slot; the caller clears the conceded
        foreign slots before returning success) or ``"concede"`` (the
        caller invalidates its own object, zeroes its own slot, and reports
        the key as already present).  The decision below is a single
        synchronous step, so concurrent escalations cannot interleave
        inside it.
        """
        return (yield from self._dedup_call(
            token, self._arbitrate_insert(key, tuple(own),
                                          [tuple(f) for f in foreigns])))

    def _rpc_arrival(self):
        """A client RPC reaching the master: one-way propagation, then the
        service time on one of the master's cores (generator)."""
        yield self.env.timeout(RPC_ONE_WAY_US)
        req = self.cpu.request()
        yield req
        try:
            yield self.env.timeout(RPC_SERVICE_US)
        finally:
            req.release()

    def _arbitrate_insert(self, key: bytes, own, foreigns):
        yield from self._rpc_arrival()
        self.insert_arbitrations += 1
        conceded = self._insert_conceded.setdefault(key, {})
        self._insert_conceded.move_to_end(key)
        if all(conceded.get((st, idx)) == word for st, idx, word in foreigns):
            # Every foreign already conceded (and was cleared): last one
            # standing.  Drop the episode's state so a later re-insert of
            # the key (after a delete) can never match stale concessions.
            del self._insert_conceded[key]
            verdict = "win"
        else:
            st, idx, word = own
            conceded[(st, idx)] = word
            verdict = "concede"
            if len(self._insert_conceded) > 1024:
                self._insert_conceded.popitem(last=False)
        yield self.env.timeout(RPC_ONE_WAY_US)
        return verdict

    # ------------------------------------------------------------ fail_query
    def fail_query(self, ref: SlotRef, v_old: int,
                   token: Optional[int] = None):
        """Client RPC (Algorithm 4): resolve a slot blocked by a failure.

        Returns the committed value of the slot after repair.  The caller
        retries its write if the returned value equals its ``v_old``.
        ``token``: idempotency token for fault-aware retransmissions.
        """
        return (yield from self._dedup_call(
            token, self._fail_query(ref, v_old)))

    def _fail_query(self, ref: SlotRef, v_old: int):
        yield from self._rpc_arrival()
        # The client may query before the failure detector has noticed the
        # crash: wait for the membership change (Algorithm 4, "wait for
        # membership change") — either the repair barrier, or one detector
        # period if the barrier is not up yet.
        for _ in range(1000):
            barrier = self.barriers.get(ref.subtable)
            if barrier is not None:
                yield barrier
                continue
            # Re-resolve against the (possibly reconfigured) placement.
            new_ref = self.race.slot_ref(ref.subtable, ref.slot_index)
            primary_mn, primary_addr = new_ref.primary()
            if self.fabric.node(primary_mn).crashed:
                yield self.env.timeout(DETECTOR_INTERVAL_US)
                continue
            comp = yield self.fabric.post_one(
                ReadOp(primary_mn, primary_addr, 8))
            yield self.env.timeout(RPC_ONE_WAY_US)
            if comp.failed:
                continue
            return int.from_bytes(comp.value, "big")
        return None

    # ----------------------------------------------------- client recovery
    def recover_client(self, cid: int):
        """§5.3: memory re-management + index repair for a crashed client.

        Generator; returns ``(RecoveryReport, RecoveredClientState)``.
        """
        report = RecoveryReport()
        state = RecoveredClientState(cid=cid)
        tracer = self.fabric.tracer
        span = (tracer.begin_span("recover.client", cid)
                if tracer is not None else None)
        t0 = self.env.now

        # Step 1: re-establish connections and re-register memory regions.
        yield self.env.timeout(len(self.fabric.nodes) * QP_SETUP_US
                               + CLIENT_MR_GB * MR_REGISTER_US_PER_GB)
        report.connect_mr_us = self.env.now - t0

        # Step 2: fetch the client's metadata (per-size-class list heads).
        # The Table-1 phases get nested tracer spans so ``repro profile``
        # (and folded stacks) break the recovery budget down per phase.
        t1 = self.env.now
        scan_span = (tracer.begin_span("recover.metadata_scan", cid)
                     if tracer is not None else None)
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase("recover.read_heads")
        heads = yield from self._read_heads(cid)
        if scan_span is not None:
            tracer.end_span(scan_span, ok=True)
        report.get_metadata_us = self.env.now - t1

        # Step 3: traverse the per-size-class embedded logs (the paper's
        # per-object walk: the chains give the allocation order needed for
        # batched-free recovery and account for the Table-1 traversal cost).
        t2 = self.env.now
        replay_span = (tracer.begin_span("recover.log_replay", cid)
                       if tracer is not None else None)
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase("recover.walk_log")
        walker = LogWalker(self.fabric, self.region_map, self.size_classes)
        chains: Dict[int, List[WalkedObject]] = {}
        terminators: Dict[int, WalkedObject] = {}
        for class_idx, head in heads.items():
            if head == NULL_ADDR:
                continue
            chain, terminator = yield from walker.walk_class(head, class_idx)
            chains[class_idx] = chain
            if terminator is not None:
                terminators[class_idx] = terminator
            report.objects_visited += len(chain)
        if replay_span is not None:
            tracer.end_span(replay_span, ok=True)
        report.traverse_log_us = self.env.now - t2

        # Step 4: repair the index.  Object usage is taken from an
        # authoritative scan of the client's blocks (chains alone
        # under-approximate it once recycled objects have re-linked, see
        # docs/protocol.md): every used object whose successor link is
        # broken is a *chain end* — a potentially-crashed request, safe to
        # over-approximate because every repair below is guarded.
        t3 = self.env.now
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase("recover.repair_requests")
        blocks, objects = yield from self._scan_owned_objects(cid)
        used_objects: Dict[int, Set[int]] = {}
        for gaddr, obj in objects.items():
            if obj.allocated:
                used_objects.setdefault(obj.class_idx, set()).add(gaddr)
        for terminator in terminators.values():
            if (terminator.entry is None or not terminator.entry.used) \
                    and not terminator.is_blank:
                report.crash_cases["c0"] = report.crash_cases.get("c0", 0) + 1
                report.objects_reclaimed += 1
        free_candidates: List[int] = []
        for end in self._chain_ends(objects):
            report.tails_examined += 1
            case, keep_used = yield from self._recover_request(
                end, report, free_candidates)
            report.crash_cases[case.value] = (
                report.crash_cases.get(case.value, 0) + 1)
            if not keep_used:
                used_objects.setdefault(end.class_idx, set()).discard(
                    end.gaddr)
                report.objects_reclaimed += 1
        own_blocks = {(info["region"], info["block"]) for info in blocks}
        yield from self._recover_batched_frees(chains, used_objects,
                                               own_blocks)
        # Old-value frees gathered from chain ends, guarded: only objects
        # in the crashed client's own blocks that are not currently in use
        # (a reused address may hold live data).
        all_used = set()
        for used in used_objects.values():
            all_used |= used
        for old_ptr in free_candidates:
            if old_ptr not in all_used:
                yield from self._ensure_freed(old_ptr, own_blocks)
        report.recover_requests_us = self.env.now - t3

        # Step 5: reconstruct the free lists from block tables and bitmaps.
        t4 = self.env.now
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase("recover.free_lists")
        yield from self._construct_free_lists(cid, used_objects, heads,
                                              chains, state, report, blocks)
        report.construct_free_list_us = self.env.now - t4
        if span is not None:
            tracer.end_span(span, ok=True, outcome="recovered")
        return report, state

    def _read_heads(self, cid: int):
        """Read the per-size-class list heads from any alive MN (generator)."""
        n = len(self.size_classes)
        data = yield from read_first_alive(
            self.fabric, self.client_table.bases.items(),
            self.client_table.slot_offset(cid, 0), n * 8)
        if data is None:
            return {}
        return {ci: int.from_bytes(data[ci * 8:(ci + 1) * 8], "big")
                for ci in range(n)}

    def _scan_owned_objects(self, cid: int):
        """Authoritative object usage: read every block the client owns and
        parse each slab object's trailing log entry (generator).

        Returns ``(blocks, objects)`` where ``objects[gaddr]`` is a
        :class:`WalkedObject` for every object in the client's blocks.
        """
        blocks: List[dict] = []
        for mn_id in list(self.fabric.nodes):
            if self.fabric.node(mn_id).crashed:
                continue
            reply = yield self.fabric.rpc(mn_id, "find_client_blocks",
                                          {"cid": cid})
            if reply and "blocks" in reply:
                blocks.extend(reply["blocks"])
        layout = self.region_map.layout
        objects: Dict[int, WalkedObject] = {}
        for info in blocks:
            region_id, block = info["region"], info["block"]
            class_idx = info["class_idx"]
            if class_idx >= len(self.size_classes):
                continue
            size = self.size_classes[class_idx]
            data = yield from read_first_alive(
                self.fabric, self.region_map.placement(region_id),
                layout.block_offset(block), layout.config.block_size)
            if data is None:
                continue
            start = self.region_map.block_gaddr(region_id, block)
            for off in layout.object_offsets(size):
                objects[start + off] = parse_object(start + off, class_idx,
                                                    data[off:off + size])
        return blocks, objects

    @staticmethod
    def _chain_ends(objects: Dict[int, WalkedObject]):
        """Used objects whose successor link is broken — each the end of a
        per-size-class allocation chain, i.e. a potentially-crashed
        request (the paper's "requests at the end of the linked lists")."""
        ends = []
        for gaddr, obj in objects.items():
            if not obj.allocated:
                continue
            succ = objects.get(obj.entry.next_ptr)
            if (obj.entry.next_ptr == NULL_ADDR or succ is None
                    or not succ.allocated
                    or succ.entry.prev_ptr != gaddr):
                ends.append(obj)
        ends.sort(key=lambda o: o.gaddr)
        return ends

    def _recover_request(self, tail: WalkedObject, report: RecoveryReport,
                         free_candidates: Optional[List[int]] = None):
        """Classify and repair one potentially-crashed request (generator).

        Returns ``(case, keep_used)``: whether the object remains in the
        used set (False reclaims it during free-list reconstruction).
        Old-value pointers to free are appended to ``free_candidates`` for
        the caller to process under its reuse guards.
        """
        if tail.entry is None or not tail.entry.used or tail.key is None:
            return CrashCase.C0_INCOMPLETE_OBJECT, False
        is_delete = tail.entry.opcode == OP_DELETE

        meta = self.race.key_meta(tail.key)
        word = pack_slot(meta.fingerprint,
                         kv_len_units(len(tail.key), len(tail.value or b"")),
                         tail.gaddr)
        v_new = 0 if is_delete else word

        if not tail.entry.old_value_committed:
            # Possibly c1 — but first check whether the object is already
            # the key's live version (completed rounds whose commit was
            # skipped, e.g. single-replica mode, or historical chain ends).
            located = yield from self._locate_key(tail.key, meta)
            if located is not None and located[1] == word:
                report.requests_finished += 1
                return CrashCase.C3_FINISHED, not is_delete
            installed = yield from self._redo_request(tail, meta, word,
                                                      located)
            report.requests_redone += 1
            return CrashCase.C1_UNCOMMITTED, installed and not is_delete

        # Old value committed: the client was the decided last writer.  Find
        # the slot: backups already hold v_new, so locate it on a backup
        # replica (for deletes, locate by the old value on the primary).
        locate_word = v_new if v_new != 0 else tail.entry.old_value
        ref = yield from self._locate_slot_by_word(meta, locate_word)
        if ref is None:
            report.requests_finished += 1
            return CrashCase.C3_FINISHED, not is_delete
        primary_mn, primary_addr = ref.primary()
        comp = yield self.fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
        if comp.failed:
            report.requests_finished += 1
            return CrashCase.C3_FINISHED, not is_delete
        v_p = int.from_bytes(comp.value, "big")
        if v_p == tail.entry.old_value and v_p != v_new:
            # c2: backups are consistent; finish the round at the primary.
            yield self.fabric.post_one(CasOp(primary_mn, primary_addr,
                                             expected=v_p, swap=v_new))
            report.requests_redone += 1
            return CrashCase.C2_BEFORE_PRIMARY, not is_delete
        # c3: already finished.  Recover the batched free of the old object
        # (deferred to the caller, which applies reuse/ownership guards).
        old_slot = unpack_slot(tail.entry.old_value)
        if old_slot.pointer != NULL_ADDR and free_candidates is not None:
            free_candidates.append(old_slot.pointer)
        report.requests_finished += 1
        return CrashCase.C3_FINISHED, not is_delete

    def _recover_batched_frees(self, chains, used_objects, own_blocks):
        """§5.3: "the master asynchronously checks the v_olds in log
        entries of the crashed client to recover its batched free
        operations" (generator).

        For every committed old value the client logged, the superseded
        object's free bit must be set.  Only objects inside the crashed
        client's *own* blocks and not currently re-allocated (i.e. not in
        its walked used set) are freed — an address owned by another
        client may have been legitimately reclaimed and reused there.
        """
        for class_idx, chain in chains.items():
            # Allocation order within the class: an object named as the
            # *old value* of a later entry was superseded after its own
            # allocation, so it is garbage — unless it was re-allocated,
            # in which case its (rewritten) entry moved it to a later
            # chain position.
            position = {obj.gaddr: i for i, obj in enumerate(chain)}
            for j, obj in enumerate(chain):
                if obj.entry is None or not obj.entry.old_value_committed:
                    continue
                old_ptr = unpack_slot(obj.entry.old_value).pointer
                if old_ptr == NULL_ADDR:
                    continue
                if old_ptr not in position or position[old_ptr] >= j:
                    continue  # cross-class or re-allocated later: skip
                if (yield from self._ensure_freed(old_ptr, own_blocks)):
                    used_objects.setdefault(class_idx, set()).discard(old_ptr)

    def _redo_request(self, tail: WalkedObject, meta: KeyMeta, word: int,
                      located=None):
        """Redo a c1 request on the crashed client's behalf (generator).

        Safe because the request never returned to the application
        (Appendix A.4.2).  The write is ``snapshot_write`` whatever the
        cluster replicates with, not ``self.replication.write``: the round
        that crashed at c1 had already CASed the backups, which SNAPSHOT's
        rules complete (every backup shows ``v_new``: rule 1) while
        composing with live writers, whereas FUSEE-CR's sequential write
        loses its first backup CAS to the crashed round's own value and
        leaves the primary old.  Returns True when the object ended up
        installed in the index.
        """
        if located is None:
            located = yield from self._locate_key(tail.key, meta)
        opcode = tail.entry.opcode
        if opcode == OP_INSERT:
            if located is not None:
                return False  # key exists: the insert must not be replayed
            view = yield from self._read_view(meta)
            if view is None or not view.empties:
                return False
            ref = self.race.slot_ref(meta.subtable, view.empties[0])
            result = yield from snapshot_write(
                self.fabric, ref, 0, word,
                on_win=self._commit_hook(tail))
            return result.outcome.won
        if located is None:
            return False  # UPDATE/DELETE of a key that no longer exists
        ref, v_old = located
        v_new = 0 if opcode == OP_DELETE else word
        if v_old == v_new:
            return v_old == word
        result = yield from snapshot_write(
            self.fabric, ref, v_old, v_new,
            on_win=self._commit_hook(tail))
        return result.outcome.won and not v_new == 0

    def _commit_hook(self, tail: WalkedObject):
        def hook(old_value: int):
            ops = commit_old_value_ops(self.region_map, self.fabric,
                                       tail.gaddr,
                                       self.size_classes[tail.class_idx],
                                       old_value)
            if ops:
                yield self.fabric.post(ops)
        return hook

    def _replica_view(self, meta: KeyMeta, replica: int):
        """The key's candidate buckets as index replica ``replica`` holds
        them (generator; None when that MN is down or a READ fails)."""
        mn_id, _ = self.race.placement(meta.subtable)[replica]
        if self.fabric.node(mn_id).crashed:
            return None
        comps = yield self.fabric.post(
            self.race.bucket_read_ops(meta, replica=replica))
        if any(c.failed for c in comps):
            return None
        return self.race.parse_buckets(meta, [c.value for c in comps])

    def _read_view(self, meta: KeyMeta):
        """The bucket view of the first readable replica, primary first."""
        for replica in range(len(self.race.placement(meta.subtable))):
            view = yield from self._replica_view(meta, replica)
            if view is not None:
                return view
        return None

    def _locate_key(self, key: bytes, meta: KeyMeta):
        """Find the slot currently holding ``key``; returns (ref, word)."""
        view = yield from self._read_view(meta)
        if view is None:
            return None
        for snap in view.matches:
            slot = snap.slot
            data = yield from read_first_alive(
                self.fabric, self.region_map.translate(slot.pointer), 0,
                slot.block_bytes)
            # else unreadable, torn, or a fingerprint collision
            if data is not None and match_kv(data, key)[0] in KV_HOLDS_KEY:
                return snap.ref, snap.word
        return None

    def _locate_slot_by_word(self, meta: KeyMeta, word: int):
        """Find the candidate slot holding ``word`` on any replica."""
        n_replicas = len(self.race.placement(meta.subtable))
        for replica in reversed(range(n_replicas)):
            view = yield from self._replica_view(meta, replica)
            if view is None:
                continue
            for snap in view.matches:
                if snap.word == word:
                    return snap.ref
        return None

    def _ensure_freed(self, gaddr: int, own_blocks):
        """Make sure an old object's free bit is set (batched-free
        recovery; generator).  False, and nothing is touched, unless the
        object lies in one of ``own_blocks``, the crashed client's:
        another client's memory is reclaimed by its owner."""
        if self.region_map.block_of(gaddr) not in own_blocks:
            return False
        region_id, offset = self.region_map.split(gaddr)
        word_off, mask = self.region_map.layout.free_bit(offset)
        placement = self.region_map.placement(region_id)
        current = yield from read_first_alive(self.fabric, placement,
                                              word_off, 8)
        if current is not None and not int.from_bytes(current, "big") & mask:
            ops = [FaaOp(mn_id, base + word_off, mask)
                   for mn_id, base in placement
                   if not self.fabric.node(mn_id).crashed]
            if ops:
                yield self.fabric.post(ops)
        return True

    def _construct_free_lists(self, cid: int, used_objects, heads, chains,
                              state: RecoveredClientState,
                              report: RecoveryReport, blocks):
        """Step 5 (generator): scanned blocks + bitmaps + used sets ->
        free lists."""
        layout = self.region_map.layout
        report.blocks_recovered = len(blocks)
        total_objects = 0
        for info in blocks:
            region_id, block = info["region"], info["block"]
            class_idx = info["class_idx"]
            size = self.size_classes[class_idx]
            state.blocks.append((region_id, block, class_idx))
            # An unreadable bitmap marks nothing freed: the used set decides.
            bitmap = yield from read_first_alive(
                self.fabric, self.region_map.placement(region_id),
                layout.bitmap_offset_of(block), layout.bitmap_bytes_per_block)
            freed = set(layout.freed_offsets(bitmap or b"", 0))
            start = self.region_map.block_gaddr(region_id, block)
            used = used_objects.get(class_idx, set())
            free_list = state.free_lists.setdefault(class_idx, [])
            for off in layout.object_offsets(size):
                total_objects += 1
                if start + off in used and off not in freed:
                    continue  # still allocated
                free_list.append(start + off)
        for class_idx, head in heads.items():
            state.heads[class_idx] = head
            chain = chains.get(class_idx, [])
            state.last_allocs[class_idx] = (
                chain[-1].gaddr if chain else NULL_ADDR)
        # CPU cost of scanning objects and rebuilding lists.
        yield self.env.timeout(
            FREE_LIST_CPU_PER_OBJECT_US * max(1, total_objects))
