"""The FUSEE client: SEARCH / INSERT / UPDATE / DELETE (§4, Fig. 9).

Each operation is a DES generator composed of *phases*; every phase posts
one doorbell batch (1 RTT), reproducing the paper's RTT counts:

* INSERT — ① write KV to all data replicas + read primary combined
  buckets; ② CAS backup slots; ③ commit old value into the embedded log;
  ④ CAS primary slot.
* UPDATE / DELETE — ① write KV (or the DELETE temp object) + read the
  primary slot + (cache hit) read the KV pair in parallel; ②-④ as above.
* SEARCH — ① read primary slot + cached KV pair in parallel; ② read the
  KV pair on a miss/invalidation.

Slot replication is pluggable through the strategy registry in
:mod:`repro.core.replication`: the SNAPSHOT protocol (default),
sequential CAS replication (the FUSEE-CR ablation) or SWARM-style 1-RTT
broadcast writes.  Disabling the cache yields FUSEE-NC.  Crash points
``c0``-``c3`` (Fig. 9) can be armed to leave real partial state behind
for the recovery path (§5.3).

Every way a key is found — slot ‖ cached KV block in one RTT, slot
*then* KV block when the adaptive cache bypasses a write-hot key,
combined buckets then fingerprint hits — is tabulated in
``docs/protocol.md`` ("How a key is found"), with the rule for
reclaiming an operation's staged object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdma import CasOp, Fabric, ReadOp, TIMEOUT, WriteOp
from .addressing import RegionMap
from .cache import AdaptiveIndexCache, CacheEntry
from .memory import AllocResult, ClientAllocator, ClientTable
from .oplog import (
    clear_used_ops,
    commit_old_value_ops,
    entry_for_alloc,
    replica_write_ops,
)
from .race import IndexFullError, KeyMeta, RaceHashing, SlotRef
from .readpolicy import READ_SPREAD_MODES, ReplicaReadPolicy
from .replication import create_protocol, validate_replication_mode
from .snapshot import Outcome
from .wire import (
    FLAG_INVALID,
    KV_HOLDS_KEY,
    KV_INVALID,
    KV_LIVE,
    KV_OTHER_KEY,
    LOG_ENTRY_SIZE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    SLOT_LEN_UNIT,
    encode_kv_body,
    encode_log_entry,
    kv_block_size,
    kv_len_units,
    match_kv,
    pack_slot,
    unpack_slot,
)

__all__ = ["FuseeClient", "ClientConfig", "OpResult", "ClientCrashed",
           "CrashPoint"]


class ClientCrashed(Exception):
    """Raised when an armed crash point fires; the client is dead after."""


class CrashPoint(str, enum.Enum):
    C0 = "c0"  # mid KV write: torn object
    C1 = "c1"  # winner decided, log not committed
    C2 = "c2"  # log committed, primary slot not CASed
    C3 = "c3"  # primary CASed, cleanup not done


@dataclass
class ClientConfig:
    """Behavioural switches; defaults are full FUSEE."""

    # Slot-replication strategy, resolved against the protocol registry
    # in repro.core.replication: "snapshot" (default), "sequential"
    # (FUSEE-CR) or "swarm" (1-RTT in-place broadcast writes).
    replication_mode: str = "snapshot"
    cache_enabled: bool = True          # False => FUSEE-NC
    cache_threshold: float = 0.5        # adaptive bypass threshold (Fig. 16)
    # Fig. 17 ablation: allocate every object via an MN-side RPC.
    mn_centric_alloc: bool = False
    # Log-maintenance ablation: False adds the separate log-entry write
    # RTT that the embedded scheme (§4.5) eliminates.
    embedded_log: bool = True
    # Which alive data replica serves KV-block READs: "primary" is the
    # paper-faithful first-alive replica; "round_robin"/"least_loaded"
    # spread reads across replicas (see repro.core.readpolicy).
    read_spread: str = "primary"

    def __post_init__(self):
        validate_replication_mode(self.replication_mode)
        if self.read_spread not in READ_SPREAD_MODES:
            raise ValueError(f"unknown read_spread {self.read_spread!r}; "
                             f"pick from {READ_SPREAD_MODES}")


@dataclass(slots=True, unsafe_hash=True)
class OpResult:
    ok: bool
    value: Optional[bytes] = None
    existed: bool = False      # INSERT: the key was already present
    outcome: Optional[Outcome] = None
    error: Optional[str] = None


class _Unavailable:
    """Sentinel: a locate/refresh could not determine whether the key
    exists (transport timeouts under fault injection) — distinct from a
    definite absence (None).  Ops that see it fail with a typed error
    instead of claiming the key was missing, which keeps fault-injected
    histories honest for the linearizability checker.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNAVAILABLE"


_UNAVAILABLE = _Unavailable()

#: A slot word's pointer field.  The op path reads a word's fields with
#: shifts (wire.py: fingerprint 8 bits | length 8 | pointer 48) instead
#: of decoding a ``Slot``.
_POINTER_MASK = (1 << 48) - 1

#: Two more statuses beside ``match_kv``'s, for a block a slot word named
#: but no READ returned: nothing was read (no alive data replica, or the
#: replica failed mid-read), or the READ timed out under fault injection
#: and the block's content is unknown.
_KV_UNREAD = "unread"
_KV_TIMED_OUT = "timed out"


def _as_located(ref: SlotRef, word, status):
    """A write's reading of a slot→KV probe: ``(ref, v_old)`` when the
    slot holds the key, None when it does not, :data:`_UNAVAILABLE` when
    a timeout left that unknown (a piggy-backed KV write may not have
    applied either, so neither proceeding nor falling back is safe)."""
    if status is _KV_TIMED_OUT:
        return _UNAVAILABLE
    return (ref, word) if status in KV_HOLDS_KEY else None


def _not_located(located) -> OpResult:
    """The result of a write whose key was not found: a plain failure
    for a definite absence (None), a typed one for :data:`_UNAVAILABLE`."""
    return OpResult(ok=False, error=None if located is None
                    else "index unavailable")


#: Link id of the client<->master connection for fault-fate draws (the
#: master lives in the compute pool, not on a memory node).
_MASTER_LINK = -1

#: The outcomes of a round that linearized just before its winner's.
_BEFORE_THE_WINNER = (Outcome.LOSE, Outcome.FINISH)

#: The pause before a client retries a lost or conflicting round.
RETRY_SLEEP_US = 2.0
#: Rounds an operation (or a bucket read) may retry before giving up.
MAX_OP_RETRIES = 64


@dataclass
class ClientStats:
    ops: Dict[str, int] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    master_escalations: int = 0

    def count_outcome(self, outcome: Outcome) -> None:
        self.outcomes[outcome.value] = self.outcomes.get(outcome.value, 0) + 1


class _PreparedKv:
    """A freshly allocated, not-yet-linked KV object (one per write op)."""

    __slots__ = ("alloc", "slot_word", "write_ops")

    def __init__(self, alloc: AllocResult, slot_word: int,
                 write_ops: List[WriteOp]):
        self.alloc = alloc
        self.slot_word = slot_word
        self.write_ops = write_ops


class FuseeClient:
    """One compute-pool client of the fully memory-disaggregated store."""

    def __init__(self, env, fabric: Fabric, region_map: RegionMap,
                 race: RaceHashing, client_table: ClientTable,
                 cid: int, size_classes: List[int],
                 master=None, config: Optional[ClientConfig] = None):
        self.env = env
        self.fabric = fabric
        self.region_map = region_map
        self.race = race
        self.cid = cid
        # the queue pair this client posts through (multi-queue port
        # affinity hashes on it); a raw Fabric means the shared QP 0
        self.qp = getattr(fabric, "qp", 0)
        self.config = config or ClientConfig()
        self.master = master
        self.allocator = ClientAllocator(
            env, fabric, region_map, client_table, cid, size_classes,
            mn_centric=self.config.mn_centric_alloc)
        self.cache = AdaptiveIndexCache(threshold=self.config.cache_threshold,
                                        enabled=self.config.cache_enabled)
        self.read_policy = ReplicaReadPolicy(
            fabric, region_map, mode=self.config.read_spread, cid=cid)
        # READ a KV block from the alive data replica the ``read_spread``
        # policy picks (None when none is alive): the policy's own method,
        # bound once, as several READs per op take it.
        self._kv_read_op = self.read_policy.read_op
        self.protocol = create_protocol(self.config.replication_mode)
        self.stats = ClientStats()
        self.crashed = False
        self._crash_point: Optional[CrashPoint] = None

    # ------------------------------------------------------------------ utils
    def arm_crash(self, point: CrashPoint) -> None:
        """Make the next operation crash at the given Fig. 9 point."""
        self._crash_point = CrashPoint(point)

    def _maybe_crash(self, point: CrashPoint) -> None:
        if self._crash_point is point:
            self.crashed = True
            raise ClientCrashed(point.value)

    def _require_alive(self) -> None:
        if self.crashed:
            raise ClientCrashed("client has crashed")

    def _start_op(self, op: str, key: bytes) -> None:
        """The top of every KV op: one key touch for the monitor's
        hot-key tracking (read where it is attached, ``fabric.monitor``,
        so traced and untraced beds count alike), the crash check, and
        the op count."""
        monitor = self.fabric.monitor
        if monitor is not None:
            monitor.on_key(op, key)
        if self.crashed:
            raise ClientCrashed("client has crashed")
        ops = self.stats.ops
        ops[op] = ops.get(op, 0) + 1

    def _traced(self, op: str, impl, key: Optional[bytes] = None,
                wrote: Optional[bytes] = None):
        """Wrap an operation generator in a tracer span (generator).

        The op entry points call this only on a traced fabric.  ``key``
        and ``wrote`` (the value argument, for insert/update) flow into
        the span so concurrent histories can be reconstructed for
        linearizability checking (docs/checking.md).  The ended span goes
        to the fabric's monitor, if one is attached — an op that raises
        too, as an error: this is the monitor's only span feed.
        """
        tracer = self.fabric.tracer
        span = tracer.begin_span(op, self.cid, key=key, wrote=wrote)
        try:
            result = yield from impl
        except BaseException as exc:
            tracer.end_span(span, ok=False, error=type(exc).__name__)
            raise
        else:
            tracer.end_span(
                span, ok=result.ok,
                outcome=result.outcome.value if result.outcome else None,
                error=result.error, value=result.value,
                existed=result.existed)
            return result
        finally:
            monitor = self.fabric.monitor
            if monitor is not None:
                monitor.on_span(span)

    def _retry(self) -> None:
        self.stats.retries += 1
        if self.fabric.tracer is not None:
            self.fabric.tracer.note_retry()

    def _slot_word_for(self, meta: KeyMeta, key: bytes, value: bytes,
                       alloc: AllocResult) -> int:
        return pack_slot(meta.fingerprint, kv_len_units(len(key), len(value)),
                         alloc.gaddr)

    def _note_kv_timeout(self, comp) -> None:
        """Tell the read policy a KV READ timed out, so its retry avoids
        that replica (gray/partitioned node) for the suspect window."""
        if comp.value is TIMEOUT and isinstance(comp.op, ReadOp):
            self.read_policy.note_timeout(comp.op.mn_id)

    def _prepare_kv(self, key: bytes, value: bytes, opcode: int,
                    meta: KeyMeta):
        """Allocate an object and build its replica WRITE ops (generator)."""
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase("alloc")
        need = kv_block_size(len(key), len(value))
        class_idx = self.allocator.class_for(need)
        alloc = yield from self.allocator.alloc(class_idx)
        entry = entry_for_alloc(alloc, opcode)
        if alloc.size < need:
            raise ValueError(
                f"block of {alloc.size}B cannot hold {need}B KV pair")
        # The padding between the KV body and the trailing log entry is
        # never transmitted: one doorbell batch carries two WRITEs per
        # replica (body, then entry — order-preserving, so the used bit
        # still lands last), so only the two wire images are built.
        body = encode_kv_body(key, value)
        entry_bytes = encode_log_entry(entry)
        if self._crash_point is CrashPoint.C0:
            body = body[:len(body) // 2]  # torn write: no used bit
            entry_bytes = b""
        ops = []
        for mn_id, addr in self.region_map.live_replicas(alloc.gaddr,
                                                         self.fabric.nodes):
            ops.append(WriteOp(mn_id, addr, body))
            if entry_bytes:
                ops.append(WriteOp(mn_id, addr + alloc.size - LOG_ENTRY_SIZE,
                                   entry_bytes))
        return _PreparedKv(alloc=alloc,
                           slot_word=self._slot_word_for(meta, key, value,
                                                         alloc),
                           write_ops=ops)

    def _discard_object(self, alloc: AllocResult, opcode: int) -> None:
        """Free an object that lost its round (used bit reset, §4.5).

        The used-bit write is posted unsignaled (fire-and-forget): the
        fabric applies it immediately and the client does not block, which
        is the paper's off-critical-path behaviour.
        """
        ops = clear_used_ops(self.region_map, self.fabric, alloc.gaddr,
                             alloc.size, opcode)
        if ops:
            if self.fabric.tracer is not None:
                self.fabric.tracer.phase("cleanup.discard")
            self.fabric.post(ops, unsignaled=True)
        self.allocator.note_free(alloc.gaddr)

    def _invalidate_object_ops(self, slot_word: int) -> List[WriteOp]:
        """WRITEs setting the invalidation flag of an old KV pair (§4.6)."""
        return replica_write_ops(self.region_map, self.fabric,
                                 unpack_slot(slot_word).pointer, 0,
                                 bytes([FLAG_INVALID]))

    def _separate_log(self, prepared: _PreparedKv):
        """Ablation (``embedded_log=False``): a conventional operation log
        writes its entry in its own round trip (generator)."""
        ops = replica_write_ops(self.region_map, self.fabric,
                                prepared.alloc.gaddr,
                                prepared.alloc.size - LOG_ENTRY_SIZE,
                                bytes(LOG_ENTRY_SIZE))
        if ops:
            if self.fabric.tracer is not None:
                self.fabric.tracer.phase("log.separate_write")
            yield self.fabric.post(ops)

    def _log_committer(self, prepared: _PreparedKv):
        """The ``on_win`` hook: Fig. 9 phase ③ plus crash points c1/c2.

        With a single index replica the paper skips the commit (it exists
        to make multi-replica rounds recoverable), so the hook is only
        installed when there are backups — see ``_replicated_write``.
        """
        def hook(v_old: int):
            if self._crash_point is not None:
                self._maybe_crash(CrashPoint.C1)
            ops = commit_old_value_ops(self.region_map, self.fabric,
                                       prepared.alloc.gaddr,
                                       prepared.alloc.size, v_old)
            if ops:
                if self.fabric.tracer is not None:
                    self.fabric.tracer.phase("log.commit")
                yield self.fabric.post(ops)
            if self._crash_point is not None:
                self._maybe_crash(CrashPoint.C2)
        return hook

    def _replicated_write(self, ref: SlotRef, v_old: int, v_new: int,
                          prepared: Optional[_PreparedKv]):
        """Run the configured replication protocol on one slot (generator)."""
        on_win = None
        if prepared is not None and len(ref.placement) > 1:
            on_win = self._log_committer(prepared)
        result = yield from self.protocol.write(
            self.fabric, ref, v_old, v_new, on_win=on_win,
            retry_sleep_us=RETRY_SLEEP_US,
            phase_guard=lambda: self._wait_if_blocked(ref.subtable))
        if self._crash_point is not None:
            self._maybe_crash(CrashPoint.C3)
        self.stats.count_outcome(result.outcome)
        return result

    # ------------------------------------------------------------- SEARCH
    def search(self, key: bytes):
        """SEARCH (generator): returns OpResult with the value or ok=False."""
        if self.fabric.tracer is None:
            # Skip the tracing wrapper frame entirely: a delegating
            # generator costs every event resume of the operation, not
            # just its start (same for the other op entry points).
            return self._search_impl(key)
        return self._traced("search", self._search_impl(key), key=key)

    def _search_impl(self, key: bytes):
        self._start_op("search", key)
        for _attempt in range(4):
            master = self.master
            epoch0 = master.epoch if master else -1
            meta = self.race.key_meta(key)
            if master is not None and master.barriers:
                # no call at all while no barrier is up
                yield from self._wait_if_blocked(meta.subtable)
            entry = self.cache.lookup_for_access(key)
            if entry is not None and not entry.bypassed:
                # The 1-RTT cached read (§4.6): the slot's primary word
                # and the KV block the cached word names (its fields read
                # with shifts), in one doorbell batch.
                word = entry.slot_word
                ref = self.race.current_ref(entry.slot_ref)
                slot_read = ref.primary_read
                fabric = self.fabric
                # a READ is chosen, and counted, only if it will be posted
                kv_read = None if fabric.nodes[slot_read.mn_id].crashed \
                    else self._kv_read_op(word & _POINTER_MASK,
                                          (word >> 48 & 0xFF) * SLOT_LEN_UNIT)
                if kv_read is not None:
                    if fabric.tracer is not None:
                        fabric.tracer.phase("search.cached_read")
                    slot_comp, kv_comp = yield fabric.post(
                        [slot_read, kv_read])
                    if slot_comp.failed or kv_comp.failed:
                        self._note_kv_timeout(kv_comp)
                    else:
                        word_now = int.from_bytes(slot_comp.value, "big")
                        if word_now == word:
                            status, value = match_kv(kv_comp.value, key)
                            if status is KV_LIVE:
                                return OpResult(True, value)
                        result = yield from self._search_stale(
                            key, meta, ref, word_now)
                        if result is not None:
                            return result
            elif entry is not None:
                result = yield from self._search_bypass(key, meta, entry)
                if result is not None:
                    return result
            found, error = yield from self._scan_buckets(
                key, meta, "search.bucket_read")
            if found is not None:
                ref, word, value = found
                self.cache.store(key, ref, word)
                return OpResult(ok=True, value=value)
            result = OpResult(ok=False, error=error)
            if self.master is None or self.master.epoch == epoch0:
                return result
            # a membership/directory change (failover or index split)
            # raced with this op: re-hash the key and retry
            self._retry()
        return result

    def _search_stale(self, key: bytes, meta: KeyMeta, ref: SlotRef,
                      word_now: int):
        """The cached read found the slot holding ``word_now``, not the
        cached word's live pair (generator); returns None to fall back to
        the full path.

        Kept apart from the cached probe of ``_locate_for_write`` on
        purpose: the two differ in whether an invalidated pair is a hit,
        what a timeout means, when the entry is charged, re-stored and
        dropped — a shared body would branch on its caller at each.
        """
        # The cached address was stale: charge the invalid counter (§4.6).
        self.cache.record_invalid(key)
        if word_now == 0:
            self.cache.drop(key)
            return None  # likely deleted; confirm via the full path
        # Same slot, new version: one more RTT fetches it.
        status, value = yield from self._read_slot_kv(
            key, meta, word_now, "search.kv_refetch")
        if status is KV_LIVE:
            self.cache.store(key, ref, word_now)
            return OpResult(ok=True, value=value)
        return None

    def _search_bypass(self, key: bytes, meta: KeyMeta,
                       entry: CacheEntry):
        """Write-intensive key: read the cached *slot* first, then the KV
        pair it currently names — 2 RTTs, but no bandwidth wasted on a
        probably-invalidated pair (§4.6).  A reader can always fall back:
        anything but the key's live pair returns None for the full path."""
        ref = self.race.current_ref(entry.slot_ref)
        word, status, value = yield from self._probe_slot(
            key, meta, ref, None,
            "search.bypass_slot_read", "search.bypass_kv_read")
        if status is KV_LIVE:
            self.cache.store(key, ref, word)
            return OpResult(ok=True, value=value)
        if status is KV_INVALID:
            self.cache.record_invalid(key)
        elif word == 0:
            self.cache.drop(key)
        return None

    # ------------------------------------------------- index-access steps
    def _read_slot_kv(self, key: bytes, meta: KeyMeta, word: int,
                      phase: Optional[str] = None):
        """READ the KV block a non-null slot word names and say what it
        holds for ``key`` (generator).

        Returns a ``match_kv`` ``(status, value)``, or one of two more
        statuses when no image came back: :data:`_KV_UNREAD` (no alive
        data replica, or the replica failed mid-read) and
        :data:`_KV_TIMED_OUT` (the content is unknown).  A word carrying
        another fingerprint is another key's without a READ.  ``phase``
        labels the READ in traces; None leaves the caller's label on it.
        """
        if word >> 56 != meta.fingerprint:
            return KV_OTHER_KEY, None
        kv_read = self._kv_read_op(
            word & _POINTER_MASK, (word >> 48 & 0xFF) * SLOT_LEN_UNIT)
        if kv_read is None:
            return _KV_UNREAD, None
        if phase is not None and self.fabric.tracer is not None:
            self.fabric.tracer.phase(phase)
        comp = yield self.fabric.post_one(kv_read)
        if comp.failed:
            self._note_kv_timeout(comp)
            return (_KV_TIMED_OUT if comp.value is TIMEOUT
                    else _KV_UNREAD), None
        return match_kv(comp.value, key)

    def _probe_slot(self, key: bytes, meta: KeyMeta, ref: SlotRef,
                    piggyback: Optional[List[WriteOp]], slot_phase: str,
                    kv_phase: Optional[str] = None):
        """The 2-RTT probe of a known slot: READ its primary word, then
        the KV block the word names (generator).

        ``piggyback`` WRITEs (a write op's new-KV replica writes) share
        the slot READ's doorbell batch and are posted exactly once even
        when the primary is down.  Returns ``(word, status, value)``:
        ``word`` is None when the slot was not read and 0 when it is
        empty (both with :data:`_KV_UNREAD`, or :data:`_KV_TIMED_OUT` if
        anything in the first batch timed out); otherwise the rest is
        ``_read_slot_kv``'s verdict on the block.  What a timeout, an
        invalidated pair or an empty slot *mean* is the caller's policy.
        """
        primary_mn, primary_addr = ref.primary()
        if self.fabric.nodes[primary_mn].crashed:
            if piggyback:
                comps = yield self.fabric.post(piggyback)
                if any(c.value is TIMEOUT for c in comps):
                    return None, _KV_TIMED_OUT, None
            return None, _KV_UNREAD, None
        slot_read = ReadOp(primary_mn, primary_addr, 8)
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase(slot_phase)
        if piggyback is None:
            comp = yield self.fabric.post_one(slot_read)
            timed_out = comp.value is TIMEOUT
        else:
            # A list, even an empty one, keeps the batch form: to the
            # kernel post_one(x) is one event more than post([x]).
            comps = yield self.fabric.post(list(piggyback) + [slot_read])
            comp = comps[-1]
            timed_out = any(c.value is TIMEOUT for c in comps)
        if timed_out:
            return None, _KV_TIMED_OUT, None
        if comp.failed:
            return None, _KV_UNREAD, None
        word = int.from_bytes(comp.value, "big")
        if word == 0:
            return 0, _KV_UNREAD, None
        status, value = yield from self._read_slot_kv(key, meta, word,
                                                      kv_phase)
        return word, status, value

    def _scan_buckets(self, key: bytes, meta: KeyMeta, phase: str,
                      piggyback: Optional[List[WriteOp]] = None):
        """The full path: read the key's combined buckets and match the
        fingerprint hits against their KV blocks (generator).

        ``piggyback`` WRITEs ride the first bucket read only.  Returns
        ``(found, error)``: ``found`` is ``(ref, word, value)`` or None;
        with None, ``error`` None means the key is definitely absent and
        an error string that its presence could not be determined.
        """
        for _ in range(MAX_OP_RETRIES):
            view = yield from self._read_buckets(meta, phase, piggyback)
            piggyback = None
            if view is None:
                return None, "index unavailable"
            if not view.matches:
                return None, None
            found, saw_invalid, unreadable = yield from \
                self._match_candidates(key, view.matches)
            if found is not None or not (saw_invalid or unreadable):
                return found, None
            # The key's pair was invalidation-marked (a writer is
            # mid-replacement) or unreadable (transport timeout); re-read
            # the slot shortly rather than conclude absence.
            self._retry()
            yield self.env.attributed_timeout(
                RETRY_SLEEP_US, "backoff", "client.retry")
        return None, "retries exhausted"

    def _read_buckets(self, meta: KeyMeta, phase: str,
                      piggyback: Optional[List[WriteOp]] = None):
        """Read the key's combined buckets (generator): a BucketView, or
        None when none could be read or a ``piggyback`` WRITE timed out
        (it may never have applied, so the op must not link it).

        The WRITEs share the first primary read's doorbell batch, or are
        posted once alone while the primary is down.  Without the primary,
        Algorithm 4 READ applies: backup values may be *newer* than the
        committed primary value during write conflicts, so the backups
        are only safe to read if they all agree; on disagreement the
        client waits for the master's repair and retries.
        """
        if self.fabric.tracer is not None:
            self.fabric.tracer.phase(phase)
        # Round -1 is the entry: a primary read retried without a pause,
        # or, with the primary down, the WRITEs' post or nothing.
        for attempt in range(-1, MAX_OP_RETRIES):
            placement = self.race.placement(meta.subtable)
            if not self.fabric.nodes[placement[0][0]].crashed:
                ops = self.race.bucket_read_ops(meta, replica=0)
                n_reads = len(ops)
                if piggyback:
                    ops.extend(piggyback)
                comps = yield self.fabric.post(ops)
                if piggyback:
                    for comp in comps[n_reads:]:
                        if comp.value is TIMEOUT:
                            return None
                    piggyback = None
                payloads = []
                for comp in comps[:n_reads]:
                    if comp.failed:
                        break
                    payloads.append(comp.value)
                else:
                    return self.race.parse_buckets(meta, payloads)
                if attempt >= 0:
                    yield self.env.attributed_timeout(
                        RETRY_SLEEP_US, "backoff", "client.retry")
            elif piggyback:
                comps = yield self.fabric.post(list(piggyback))
                if any(c.value is TIMEOUT for c in comps):
                    return None
                piggyback = None
            elif attempt >= 0:
                alive = [replica for replica, (mn, _b) in enumerate(placement)
                         if not self.fabric.nodes[mn].crashed]
                if not alive:
                    return None
                all_ops = []
                for replica in alive:
                    ops = self.race.bucket_read_ops(meta, replica=replica)
                    per_replica = len(ops)
                    all_ops.extend(ops)
                comps = yield self.fabric.post(all_ops)
                payload_sets = []
                for i in range(0, len(comps), per_replica):
                    group = comps[i:i + per_replica]
                    if not any(c.failed for c in group):
                        payload_sets.append(tuple(c.value for c in group))
                if not payload_sets:
                    return None
                if all(p == payload_sets[0] for p in payload_sets):
                    return self.race.parse_buckets(meta, payload_sets[0])
                # Backups disagree: a write was in flight when the primary
                # died; wait for the master to act as representative last
                # writer (Algorithm 4), then retry.
                self.stats.master_escalations += 1
                yield from self._wait_if_blocked(meta.subtable)
                yield self.env.attributed_timeout(
                    RETRY_SLEEP_US, "backoff", "client.retry")
        return None

    def _candidate_reads(self, snaps, phase: str):
        """The READs of the KV blocks that slot snapshots name, one batch
        for the caller to post, and the snapshots they read (those whose
        block has an alive data replica); ``phase`` labels the batch."""
        reads = []
        usable = []
        for snap in snaps:
            word = snap.word
            op = self._kv_read_op(word & _POINTER_MASK,
                                  (word >> 48 & 0xFF) * SLOT_LEN_UNIT)
            if op is not None:
                reads.append(op)
                usable.append(snap)
        if reads and self.fabric.tracer is not None:
            self.fabric.tracer.phase(phase)
        return reads, usable

    def _match_candidates(self, key: bytes, matches):
        """Read fingerprint-hit KV blocks and return the true key match
        (lowest slot index wins so concurrent readers agree), as
        ``((ref, word, value) | None, saw_invalid_match, unreadable)``
        (generator).

        ``saw_invalid_match`` is True when a candidate held the key but was
        invalidation-marked — i.e. a concurrent writer is mid-replacement
        and the caller should re-read the slot rather than conclude the
        key is absent.  ``unreadable`` is True when a candidate read timed
        out (fault injection): the key's presence is unknown, so callers
        must not conclude absence from this view.
        """
        reads, usable = self._candidate_reads(matches, "kv.match_read")
        if not reads:
            return None, False, False
        comps = yield self.fabric.post(reads)
        saw_invalid = False
        unreadable = False
        for snap, comp in zip(usable, comps):
            if comp.failed:
                if comp.value is TIMEOUT:
                    unreadable = True
                    self._note_kv_timeout(comp)
                continue
            status, value = match_kv(comp.value, key)
            if status is KV_LIVE:
                return (snap.ref, snap.word, value), saw_invalid, False
            if status is not KV_OTHER_KEY:
                saw_invalid = True  # marked, or torn: a writer is mid-flight
        return None, saw_invalid, unreadable

    # ------------------------------------------------------------- INSERT
    def insert(self, key: bytes, value: bytes):
        """INSERT (generator): ok=False with existed=True if already present."""
        if self.fabric.tracer is None:
            return self._insert_impl(key, value)
        return self._traced("insert", self._insert_impl(key, value),
                            key=key, wrote=value)

    def _insert_impl(self, key: bytes, value: bytes):
        self._start_op("insert", key)
        meta = self.race.key_meta(key)
        yield from self._wait_if_blocked(meta.subtable)
        prepared = yield from self._prepare_kv(key, value, OP_INSERT, meta)
        try:
            result = yield from self._insert_staged(key, meta, prepared)
        except IndexFullError:
            self._discard_object(prepared.alloc, OP_INSERT)
            raise
        self._reclaim_unless_linked(prepared, OP_INSERT, result)
        return result

    def _insert_staged(self, key: bytes, meta: KeyMeta,
                       prepared: _PreparedKv):
        """INSERT from phase ① on, its object staged (generator).  Never
        reclaims the object: ``_insert_impl`` does, from the result."""
        # Phase ①: KV replica writes + combined-bucket read, one batch.
        view = yield from self._read_buckets(
            meta, "insert.kv_write+bucket_read", prepared.write_ops)
        if not self.config.embedded_log:
            yield from self._separate_log(prepared)
        if self._crash_point is not None:
            self._maybe_crash(CrashPoint.C0)
        if view is None:
            return OpResult(ok=False, error="index unavailable")
        for _expansion in range(8):
            if view.matches:
                found, saw_invalid, unreadable = yield from \
                    self._match_candidates(key, view.matches)
                if found is not None or saw_invalid:
                    # present (or mid-replacement by a concurrent writer)
                    return OpResult(ok=False, existed=True)
                if unreadable:
                    # A candidate KV read timed out: we cannot rule out
                    # that this key already exists, so we must not insert.
                    return OpResult(ok=False, error="index unavailable")
            if view.empties:
                break
            # Candidate buckets are full: ask the master to split the
            # subtable (RACE extendible resize), re-hash, and retry.
            if self.master is None:
                raise IndexFullError(
                    f"no free slot for key {key!r} in subtable "
                    f"{meta.subtable} and no master to expand it")
            expanded = yield from self._master_rpc(
                "expand",
                lambda token: self.master.request_expand(meta.subtable,
                                                         token=token))
            if expanded is _UNAVAILABLE:
                return OpResult(ok=False, error="master unavailable")
            if not expanded:
                raise IndexFullError(
                    f"subtable {meta.subtable} full and expansion failed")
            meta = self.race.key_meta(key)
            view = yield from self._read_buckets(meta, "insert.bucket_reread")
            if view is None:
                return OpResult(ok=False, error="index unavailable")
        empties = list(view.empties)
        for attempt in range(MAX_OP_RETRIES):
            if not empties:
                raise IndexFullError(
                    f"no free slot for key {key!r} in subtable "
                    f"{meta.subtable} after conflict retries")
            ref = self.race.slot_ref(meta.subtable, empties.pop(0))
            result = yield from self._replicated_write(ref, 0,
                                                       prepared.slot_word,
                                                       prepared)
            installed = result.outcome.won
            if result.outcome is Outcome.NEED_MASTER:
                # installed after all if the master completed our round
                installed = (yield from self._escalate(ref, 0)) \
                    == prepared.slot_word
            if installed:
                kept = yield from self._insert_dedup(key, meta, ref, prepared)
                if not kept:
                    return OpResult(ok=False, existed=True)
                self.cache.store(key, ref, prepared.slot_word)
                return OpResult(ok=True, outcome=result.outcome)
            # Lost the slot to a concurrent writer.  If it was a concurrent
            # INSERT of the same key, ours linearizes right before it.
            same_key = yield from self._insert_conflict_recheck(
                key, meta, result.committed)
            if same_key is None:
                # Could not read the winner's object (timeout): unknown
                # whether it holds our key, so neither success nor another
                # slot attempt is safe.
                return OpResult(ok=False, error="conflict check unavailable")
            if same_key:
                return OpResult(ok=True, outcome=result.outcome)
            self._retry()
            if not empties:
                view = yield from self._read_buckets(meta,
                                                     "insert.bucket_reread")
                if view is None:
                    break
                empties = list(view.empties)
        return OpResult(ok=False, error="retries exhausted")

    def _insert_dedup(self, key: bytes, meta: KeyMeta, ref: SlotRef,
                      prepared: _PreparedKv):
        """Post-install duplicate sweep — RACE's insert re-read check
        (generator; returns True to keep the slot, False after conceding).

        Winning an *empty-slot CAS* is not enough to rule out a duplicate:
        two inserters of the same key can pick **different** empty slots
        when a concurrent mutation (e.g. a DELETE freeing a slot in a
        candidate bucket) shifts the bucket view between their reads, so
        neither the fingerprint pre-check nor the CAS-conflict recheck
        fires and both CASes succeed.  The cross-protocol linearizability
        suite (``tests/test_model_based.py``) finds exactly this under
        every replication strategy.

        So, like RACE hashing's published insert, every winner re-reads its
        candidate buckets before returning.  A clean re-read (no foreign
        copy of the key) keeps the slot — and because any later duplicate
        winner's own re-read necessarily *sees us*, at most one inserter
        per episode gets a clean re-read.  An observer of a foreign copy
        escalates to the master, which serialises the verdicts
        (:meth:`repro.core.master.Master.arbitrate_insert`): last one
        standing wins, everyone else invalidates its object and zeroes its
        slot — batched in one post, so readers never see a committed
        duplicate.
        """
        view = yield from self._read_buckets(meta, "insert.dedup_check")
        if view is None:
            # Bucket read failed (primary crashed mid-failover): keep the
            # slot; the master's subtable repair owns consistency now.
            return True
        own_id = (ref.subtable, ref.slot_index)
        reads, usable = self._candidate_reads(
            [snap for snap in view.matches
             if (snap.ref.subtable, snap.ref.slot_index) != own_id],
            "insert.dedup_match_read")
        if not reads:
            return True
        comps = yield self.fabric.post(reads)
        # Invalidation-marked copies are already mid-concession (or
        # mid-replacement); they never reach a reader.
        foreigns = [snap for snap, comp in zip(usable, comps)
                    if not comp.failed
                    and match_kv(comp.value, key)[0] is KV_LIVE]
        if not foreigns:
            return True
        if self.master is None:
            # No arbiter: deterministic position rule.  Sound only when
            # every contender observes the other, which the master rule
            # does not require — master-less deployments are single-writer.
            verdict = ("win" if own_id < min(
                (s.ref.subtable, s.ref.slot_index) for s in foreigns)
                else "concede")
        else:
            verdict = yield from self._master_rpc(
                "arbitrate_insert",
                lambda token: self.master.arbitrate_insert(
                    key, own=own_id + (prepared.slot_word,),
                    foreigns=[(s.ref.subtable, s.ref.slot_index, s.word)
                              for s in foreigns],
                    token=token))
            if verdict is _UNAVAILABLE:
                return True
        if verdict == "win":
            clear = [(self.race.slot_ref(s.ref.subtable, s.ref.slot_index),
                      s.word) for s in foreigns]
        else:
            clear = [(ref, prepared.slot_word)]
        ops = []
        for slot_ref, word in clear:
            ops.extend(self._invalidate_object_ops(word))
            for mn_id, addr in slot_ref.locations():
                if not self.fabric.nodes[mn_id].crashed:
                    ops.append(CasOp(mn_id, addr, expected=word, swap=0))
        if ops:
            if self.fabric.tracer is not None:
                self.fabric.tracer.phase("insert.dedup_clear")
            yield self.fabric.post(ops)
        return verdict == "win"

    def _insert_conflict_recheck(self, key: bytes, meta: KeyMeta,
                                 committed: Optional[int]):
        """After losing a slot CAS, decide whether the winner inserted the
        *same* key (generator; returns bool, or None when the winner's
        object was unreadable under fault injection).

        A protocol decision point: skipping this re-check makes a losing
        inserter grab another empty slot and double-insert the key — the
        ``insert-skip-conflict-recheck`` mutation in ``repro.check``
        exercises exactly that, and the KV linearizability checker flags
        the resulting pair of ok=True inserts.
        """
        if committed is None or committed == 0:
            return False
        status, _value = yield from self._read_slot_kv(
            key, meta, committed, "insert.conflict_check")
        # A timeout means "could not tell" (None), not "different key".
        return None if status is _KV_TIMED_OUT else status in KV_HOLDS_KEY

    # ------------------------------------------------------ UPDATE / DELETE
    def update(self, key: bytes, value: bytes):
        """UPDATE (generator): ok=False if the key does not exist."""
        impl = self._write_impl("update", key, value, OP_UPDATE)
        if self.fabric.tracer is None:
            return impl
        return self._traced("update", impl, key=key, wrote=value)

    def delete(self, key: bytes):
        """DELETE (generator): sets the slot to null; ok=False if absent.

        A temporary object carries the operation's log entry and target
        key; it is freed once the request completes (§4.5).
        """
        impl = self._write_impl("delete", key, b"", OP_DELETE)
        if self.fabric.tracer is None:
            return impl
        return self._traced("delete", impl, key=key)

    def _write_impl(self, name: str, key: bytes, value: bytes, opcode: int):
        """UPDATE and DELETE are the same phases ①-④ (Fig. 9): DELETE
        stages a temp object and installs the null word instead of a
        pointer to it."""
        self._start_op(name, key)
        meta = self.race.key_meta(key)
        yield from self._wait_if_blocked(meta.subtable)
        prepared = yield from self._prepare_kv(key, value, opcode, meta)
        epoch0 = self.master.epoch if self.master else -1
        located = yield from self._locate_for_write(key, meta,
                                                    prepared.write_ops)
        if not self.config.embedded_log:
            yield from self._separate_log(prepared)
        if self._crash_point is not None:
            self._maybe_crash(CrashPoint.C0)
        if (located is None or located is _UNAVAILABLE) \
                and self.master is not None and self.master.epoch != epoch0:
            # directory/membership changed under us: re-hash and re-locate
            meta = self.race.key_meta(key)
            located = yield from self._locate_for_write(key, meta, [])
        if located is None or located is _UNAVAILABLE:
            result = _not_located(located)
        else:
            ref, v_old = located
            v_new = 0 if opcode == OP_DELETE else prepared.slot_word
            result = yield from self._write_slot(key, meta, prepared, ref,
                                                 v_old, v_new, opcode)
            if opcode == OP_DELETE:
                self.cache.drop(key)
        self._reclaim_unless_linked(prepared, opcode, result)
        return result

    # --------------------------------------------------------- write common
    def _reclaim_unless_linked(self, prepared: _PreparedKv, opcode: int,
                               result: OpResult) -> None:
        """The one exit every operation that staged an object leaves by:
        reclaim the object exactly once unless a slot now points at it.

        A slot points at it when the op succeeded by winning its round or
        by the master completing the round on its behalf — every ok
        outcome but LOSE / FINISH, which linearized just *before* the
        winner.  A DELETE's temp object is never linked.  An op that lost
        that way or failed for any reason leaves garbage, and reclaiming
        it here is what keeps recovery from replaying a request the
        application was told had failed.
        """
        linked = (opcode != OP_DELETE and result.ok
                  and result.outcome not in _BEFORE_THE_WINNER)
        if not linked:
            self._discard_object(prepared.alloc, opcode)

    def _write_slot(self, key: bytes, meta: KeyMeta, prepared: _PreparedKv,
                    ref: SlotRef, v_old: int, v_new: int, opcode: int):
        """Phases ②-④ for UPDATE/DELETE, including conflict retries."""
        for attempt in range(MAX_OP_RETRIES):
            # Pick up any placement reconfiguration done by the master.
            ref = self.race.slot_ref(ref.subtable, ref.slot_index)
            result = yield from self._replicated_write(ref, v_old, v_new,
                                                       prepared)
            outcome = result.outcome
            resolved = None
            if outcome is Outcome.NEED_MASTER:
                resolved = yield from self._escalate(ref, v_old)
                if resolved is None:
                    return OpResult(ok=False, error="unresolvable failure")
            if outcome.won or resolved == v_new:
                # We won, or the master completed our round on our behalf.
                self._after_win(key, meta, ref, v_old, v_new, opcode)
                return OpResult(ok=True, outcome=outcome)
            if outcome is Outcome.NEED_MASTER:
                # The master settled the slot at another value (possibly
                # v_old again): retry the write against it (Algorithm 4
                # line 38).
                v_old = resolved
                self._retry()
                continue
            # LOSE / FINISH: another writer won this round.
            if self.protocol.retry_on_lose:
                # FUSEE-CR serializes: a lost CAS means retry the op, if
                # the slot still holds our key.
                word, status, _value = yield from self._probe_slot(
                    key, meta, ref, None, "write.refresh_slot")
                located = _as_located(ref, word, status)
            elif (result.committed == 0 and v_new != 0
                    and outcome is Outcome.LOSE):
                # The slot emptied under us: a concurrent DELETE won,
                # or an index split moved the key.  Re-resolve the key
                # (the directory may have changed) and retry; if it is
                # gone, the op fails like any update of a missing key.
                meta = self.race.key_meta(key)
                located = yield from self._locate_for_write(key, meta, [])
            else:
                # SNAPSHOT: last-writer-wins — ours linearized just before
                # the winner's; the staged object is garbage now.
                if result.committed is not None and result.committed != 0:
                    self.cache.store(key, ref, result.committed)
                return OpResult(ok=True, outcome=outcome)
            if located is None or located is _UNAVAILABLE:
                return _not_located(located)
            ref, v_old = located
            self._retry()
        return OpResult(ok=False, error="retries exhausted")

    def _after_win(self, key: bytes, meta: KeyMeta, ref: SlotRef,
                   v_old: int, v_new: int, opcode: int) -> None:
        """Winner cleanup: invalidate + free the old object, fix the cache.

        Posted unsignaled (no await): coherence marking and freeing are off
        the critical path (§4.4, §4.6).
        """
        if v_old != 0:
            ops = self._invalidate_object_ops(v_old)
            if ops:
                if self.fabric.tracer is not None:
                    self.fabric.tracer.phase("cleanup.invalidate")
                self.fabric.post(ops, unsignaled=True)
            self.allocator.note_free(unpack_slot(v_old).pointer)
        if opcode == OP_DELETE:
            self.cache.drop(key)
        else:
            self.cache.store(key, ref, v_new)

    def _locate_for_write(self, key: bytes, meta: KeyMeta,
                          kv_write_ops: List[WriteOp]):
        """Phase ① of UPDATE/DELETE: find the key's slot and read its
        primary value, batching the new-KV writes into the same RTT.

        Returns ``(ref, v_old)``, None if the key is definitely absent, or
        :data:`_UNAVAILABLE` when transport timeouts left its presence
        unknown (generator).
        """
        entry = self.cache.lookup_for_access(key)
        if entry is not None:
            ref = self.race.current_ref(entry.slot_ref)
            if entry.bypassed:
                word, status, _value = yield from self._probe_slot(
                    key, meta, ref, kv_write_ops, "write.locate_bypass")
                located = _as_located(ref, word, status)
                if located is not None:
                    return located
                if word == 0:
                    self.cache.drop(key)
                kv_write_ops = []  # the KV writes were posted by the probe
                entry = None
        if entry is not None:
            # The 1-RTT cached probe; see _search_stale for why the
            # two are not one.
            word = entry.slot_word
            slot_read = ref.primary_read
            kv_read = None if self.fabric.nodes[slot_read.mn_id].crashed \
                else self._kv_read_op(word & _POINTER_MASK,
                                      (word >> 48 & 0xFF) * SLOT_LEN_UNIT)
            if kv_read is not None:
                batch = list(kv_write_ops)
                batch.append(slot_read)
                batch.append(kv_read)
                if self.fabric.tracer is not None:
                    self.fabric.tracer.phase("write.locate_cached")
                comps = yield self.fabric.post(batch)
                timed_out = False
                for c in comps:
                    if c.value is TIMEOUT:
                        timed_out = True
                        self._note_kv_timeout(c)
                if timed_out:
                    # A piggy-backed KV replica write (or the slot read)
                    # may not have applied; the op must not proceed to CAS
                    # a pointer at possibly-unwritten memory.
                    return _UNAVAILABLE
                slot_comp, kv_comp = comps[-2], comps[-1]
                if not slot_comp.failed:
                    word_now = int.from_bytes(slot_comp.value, "big")
                    if (word_now == word and not kv_comp.failed
                            and match_kv(kv_comp.value, key)[0]
                            in KV_HOLDS_KEY):
                        return ref, word_now
                    self.cache.record_invalid(key)
                    if word_now != 0:
                        # Same slot, newer version: verify the key (1 RTT).
                        status, _value = yield from self._read_slot_kv(
                            key, meta, word_now, "write.locate_refetch")
                        if status in KV_HOLDS_KEY:
                            return ref, word_now
                    self.cache.drop(key)
                # fall through to the full path (the KV writes already
                # happened; do not post them again)
                kv_write_ops = []
        # Cache miss / bypass / stale: full bucket path.
        found, error = yield from self._scan_buckets(
            key, meta, "write.locate_buckets", kv_write_ops)
        if error is not None:
            return _UNAVAILABLE
        if found is None:
            return None
        ref, word, _value = found
        return ref, word

    # ------------------------------------------------------------ failures
    def _wait_if_blocked(self, subtable: int):
        """Honour the master's membership barrier during MN failover.

        Returns what the caller ``yield from``-s: an empty tuple while no
        barrier is up (it yields nothing and evaluates to None, and no
        generator is made on the op path), else `_wait_out_barriers`,
        which evaluates to True."""
        master = self.master
        if master is None or master.barriers.get(subtable) is None:
            return ()
        return self._wait_out_barriers(subtable)

    def _wait_out_barriers(self, subtable: int):
        barriers = self.master.barriers
        barrier = barriers.get(subtable)
        while barrier is not None:
            yield barrier
            barrier = barriers.get(subtable)
        return True

    def _escalate(self, ref: SlotRef, v_old: int):
        """fail_query RPC to the master (Algorithm 4); returns the resolved
        slot value, or None without a master / an unreachable one
        (generator)."""
        if self.master is None:
            return None
        self.stats.master_escalations += 1
        resolved = yield from self._master_rpc(
            "fail_query",
            lambda token: self.master.fail_query(ref, v_old, token=token))
        return None if resolved is _UNAVAILABLE else resolved

    def _master_rpc(self, name: str, make_call):
        """Call a master RPC with fault-aware timeout/retry semantics
        (generator).

        Without a fault injector this is a plain call.  With one, the
        client↔master link suffers the plan's faults: a dropped request
        means this attempt never reached the master; a dropped reply
        means the call *did* run — the idempotency ``token`` (threaded to
        the master by ``make_call``) lets it answer the retry from its
        reply cache instead of re-applying.  Returns the RPC result, or
        :data:`_UNAVAILABLE` once the retry budget is exhausted.
        """
        inj = self.fabric.injector
        if inj is None:
            return (yield from make_call(None))
        stats = self.fabric.stats
        policy = inj.retry
        token = self.env.next_uid()
        ident = ("master", name, token)
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                stats.rpc_retries += 1
                if self.fabric.tracer is not None:
                    self.fabric.tracer.note_transport_retry()
            t0 = self.env.now
            fate = inj.fate(ident, _MASTER_LINK, attempt, t0)
            backoff = policy.backoff_us(attempt, fate.backoff_u)
            if fate.drop_request:
                stats.dropped_requests += 1
                yield self.env.attributed_timeout(
                    policy.rpc_timeout_us + backoff, "backoff",
                    "master.retry")
                continue
            result = yield from make_call(token)
            if fate.drop_reply:
                stats.dropped_replies += 1
                waited = self.env.now - t0
                yield self.env.attributed_timeout(
                    max(0.0, policy.rpc_timeout_us - waited) + backoff,
                    "backoff", "master.retry")
                continue
            return result
        stats.rpc_timeouts += 1
        return _UNAVAILABLE

    # ----------------------------------------------------------- background
    def maintenance(self, release_blocks: bool = False):
        """One background cycle: flush batched frees, reclaim bitmaps, and
        optionally hand fully-free blocks back to the memory nodes."""
        self._require_alive()
        yield from self.allocator.flush_frees()
        reclaimed = yield from self.allocator.reclaim()
        if release_blocks:
            yield from self.allocator.release_empty_blocks()
        return reclaimed

    def start_background(self, interval_us: float = 200.0):
        """Spawn the periodic free/reclaim thread (§4.4's background
        batched reclamation).  Every 8th cycle also returns fully-free
        blocks to the pool.  Returns the process."""
        def loop():
            cycle = 0
            while not self.crashed:
                yield self.env.timeout(interval_us)
                cycle += 1
                try:
                    yield from self.maintenance(
                        release_blocks=cycle % 8 == 0)
                except ClientCrashed:
                    return
        return self.env.process(loop(), name=f"bg-client-{self.cid}")
