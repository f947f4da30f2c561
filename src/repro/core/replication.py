"""Pluggable index-slot replication: the ``ReplicationProtocol`` seam.

FUSEE replicates every 8-byte index slot across ``r`` memory nodes and
keeps the replicas linearizable from the client side only.  *How* is a
protocol decision, and this module makes it pluggable:

* ``snapshot`` — the paper's SNAPSHOT protocol (§4.3, Algorithms 1-2):
  out-of-place values, backup-CAS broadcast, local conflict resolution
  (Rules 1-3), log commit, then a pointer-install CAS on the primary.
* ``sequential`` — the FUSEE-CR ablation (§6.1): CAS replicas one at a
  time; r RTTs, conflicting writers serialize.
* ``swarm`` — SWARM-style in-place replication (PAPERS.md): one CAS
  broadcast to *all* replicas — primary included — in a single doorbell
  batch, so the conflict-free fast path completes in **1 RTT**.

Every strategy implements the same two hooks:

``write(fabric, ref, v_old, v_new, ...)``
    The replicated slot write (a DES generator returning a
    :class:`~repro.core.snapshot.WriteResult`).  Outcome semantics are
    shared: ``won`` means this writer is the round's unique last writer,
    ``LOSE``/``FINISH`` mean the write linearized immediately before the
    winner's (last-writer-wins register semantics), and ``NEED_MASTER``
    escalates to the master through the client's existing seam.
``repair_choice(words, primary_alive)``
    The recovery hook: when the master repairs a subtable after an MN
    crash (Algorithm 3) and the surviving replicas of a slot disagree,
    this picks the index of the word to install everywhere.  SNAPSHOT
    prefers a backup (backups are never older than the committed
    primary); SWARM prefers the primary (the primary CAS *is* the commit
    point, and backups may hold uncommitted loser values).

The SWARM strategy
------------------

SWARM (arxiv 2409.16258) replicates shared disaggregated-memory data in
place with single-round-trip writes ordered by per-slot logical
timestamps.  This port maps the idea onto FUSEE's slot words:

* **Timestamps.**  Slot values are out-of-place object words whose
  48-bit pointer is freshly allocated per operation, so each round's
  committed word is unique — the word itself serves as the slot's
  logical timestamp, and the primary replica always carries the
  authoritative latest one.  (The 8-byte slot layout
  ``fingerprint | length | pointer`` has no spare bits for a separate
  counter; pointer freshness gives the same uniqueness-per-round
  property modulo allocator ABA, the assumption the paper itself makes
  for its CAS installs.)
* **WRITE** (:func:`swarm_write`) — broadcast
  ``CAS(expected=v_old, swap=v_new)`` to *every* replica, primary
  first, in one doorbell batch.  The primary CAS is the commit point:

  - all CASes succeed → ``WIN_SWARM`` in **1 RTT** (the conflict-free
    fast path);
  - primary CAS succeeds but some backups returned a conflicting
    writer's value → we won the round; converge the divergent backups
    with timestamp-guarded ``CAS(observed → v_new)`` (conflict path
    only) → ``WIN_SWARM_FIXUP``.  Each fixup round first re-reads the
    primary and abandons if it moved past ``v_new``: the observed
    conflict can be a *later* round's committed word (our backup CAS
    delivered late), and since any later-round word reaches a backup
    only after that round's primary commit, the guard read — issued
    after the observation — always catches it before the CAS could
    regress the replica;
  - primary CAS fails → another writer committed first; our write
    linearizes immediately before it (``LOSE``, still 1 RTT — swarm
    losers never spin).  Any backup our broadcast polluted was observed
    by the winner's own broadcast and is converged by its fixup;
  - any replica FAIL/TIMEOUT → ``NEED_MASTER`` (the CAS may have
    applied; only the master can resolve the slot, exactly as in
    SNAPSHOT).
* **Reads.**  The store reads buckets the same way under every
  strategy: ``FuseeClient._read_buckets`` reads the primary index
  replica and, once it has crashed, runs Algorithm 4's all-replica
  read.  :func:`swarm_read` (like
  :func:`repro.core.snapshot.snapshot_read`) is a slot-level reader that
  only the schedule explorer's scenarios and the unit tests drive, until
  ``ReplicationProtocol`` gains a read hook.  It reads the least-loaded
  alive *backup* and the primary's timestamp word in the same doorbell
  batch (two 8-byte READs to different MNs: still 1 RTT).  A value is
  returned only when the backup vouches for the primary's word (the
  broadcast reached both): a word the primary alone holds may still be
  in flight to every backup, and returning it would let a post-crash
  survivor read travel backwards in time.  On a torn mismatch the reader
  re-reads a bounded number of rounds (never repairing the slot itself
  — a reader CAS would race the writer's broadcast), then defers to
  the master.  When the primary is unreachable, a survivor read must
  be complete and unanimous; otherwise defer to the master
  (``value=None`` → the client's ``NEED_MASTER`` escalation).

The protocol functions are looked up dynamically
(``replication_mod.swarm_write``) so the seeded mutations in
:mod:`repro.check.mutations` can patch them per run, mirroring how the
scenarios treat ``snapshot_mod.snapshot_write``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..rdma import CasOp, Fabric, ReadOp
from . import snapshot as snapshot_mod
from .race import SlotRef
from .snapshot import Outcome, ReadResult, WriteResult

__all__ = [
    "ReplicationProtocol",
    "SnapshotProtocol",
    "SequentialProtocol",
    "SwarmProtocol",
    "REPLICATION_PROTOCOLS",
    "register_protocol",
    "create_protocol",
    "registered_protocols",
    "validate_replication_mode",
    "swarm_write",
    "swarm_read",
]


# --------------------------------------------------------------------------
# The strategy interface + registry
# --------------------------------------------------------------------------

class ReplicationProtocol:
    """One slot-replication strategy; subclasses register by ``name``."""

    #: registry key; set by subclasses
    name: str = ""
    #: does a lost round mean "retry the op from a refreshed v_old"
    #: (chain replication serializes writers) rather than
    #: last-writer-wins "we linearized before the winner"?
    retry_on_lose: bool = False

    def write(self, fabric: Fabric, ref: SlotRef, v_old: int, v_new: int,
              on_win: Optional[Callable[[int], object]] = None,
              retry_sleep_us: float = 2.0,
              phase_guard: Optional[Callable[[], object]] = None):
        """Replicated slot write: a generator (a strategy may return one
        it delegates to) whose value is the WriteResult."""
        raise NotImplementedError

    @staticmethod
    def repair_choice(words: List[int], primary_alive: bool) -> int:
        """Master recovery hook: index of the word to install when the
        surviving replicas of a slot disagree (Algorithm 3 repair)."""
        raise NotImplementedError


REPLICATION_PROTOCOLS: Dict[str, Type[ReplicationProtocol]] = {}


def register_protocol(cls: Type[ReplicationProtocol]
                      ) -> Type[ReplicationProtocol]:
    """Class decorator: add a strategy to the registry under its name."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no protocol name")
    REPLICATION_PROTOCOLS[cls.name] = cls
    return cls


def registered_protocols() -> List[str]:
    """Sorted names of every registered replication strategy."""
    return sorted(REPLICATION_PROTOCOLS)


def validate_replication_mode(name: str) -> None:
    """Registry-driven config validation: unknown protocols fail with
    the list of registered names."""
    if name not in REPLICATION_PROTOCOLS:
        raise ValueError(
            f"unknown replication mode {name!r}; registered protocols: "
            f"{', '.join(registered_protocols())}")


def create_protocol(name: str) -> ReplicationProtocol:
    """Instantiate a registered strategy."""
    validate_replication_mode(name)
    return REPLICATION_PROTOCOLS[name]()


# --------------------------------------------------------------------------
# snapshot / sequential: the existing protocols behind the seam
# --------------------------------------------------------------------------

@register_protocol
class SnapshotProtocol(ReplicationProtocol):
    """The paper's SNAPSHOT protocol (§4.3) — the default."""

    name = "snapshot"

    def write(self, fabric, ref, v_old, v_new, on_win=None,
              retry_sleep_us=2.0, phase_guard=None):
        return snapshot_mod.snapshot_write(
            fabric, ref, v_old, v_new, on_win=on_win,
            retry_sleep_us=retry_sleep_us, phase_guard=phase_guard)

    @staticmethod
    def repair_choice(words: List[int], primary_alive: bool) -> int:
        # Prefer the first alive *backup*: backups are CASed before the
        # primary install, so they are never older than the committed
        # primary.  Fall back to the primary only with no backup left.
        return 1 if (primary_alive and len(words) > 1) else 0


@register_protocol
class SequentialProtocol(SnapshotProtocol):
    """FUSEE-CR ablation: CAS replicas one at a time (r RTTs)."""

    name = "sequential"
    retry_on_lose = True  # a lost CAS aborts the round; retry the op

    def write(self, fabric, ref, v_old, v_new, on_win=None,
              retry_sleep_us=2.0, phase_guard=None):
        return snapshot_mod.sequential_write(
            fabric, ref, v_old, v_new, on_win=on_win,
            phase_guard=phase_guard)


# --------------------------------------------------------------------------
# swarm: 1-RTT in-place broadcast writes
# --------------------------------------------------------------------------

def swarm_write(fabric: Fabric, ref: SlotRef, v_old: int, v_new: int,
                on_win: Optional[Callable[[int], object]] = None,
                max_fixup_rounds: int = 8,
                phase_guard: Optional[Callable[[], object]] = None):
    """SWARM-style replicated write (generator): one CAS broadcast to
    every replica — primary included — in a single doorbell batch.

    The primary CAS is the commit point; see the module docstring for
    the full state machine.  ``on_win`` (the embedded-log commit) runs
    *after* the win is decided — in SWARM the commit happens inside the
    broadcast, so the log write is post-commit durability for the
    crash-recovery path rather than a pre-install barrier.
    """
    if v_old == v_new:
        raise ValueError("out-of-place modification guarantees v_old != v_new")
    locations = ref.locations()  # primary first
    if phase_guard is not None:
        yield from phase_guard()
    if fabric.tracer is not None:
        fabric.tracer.phase("repl.swarm_broadcast")
    comps = yield fabric.post([CasOp(mn, addr, expected=v_old, swap=v_new)
                               for mn, addr in locations])
    rtts = 1
    if any(c.failed for c in comps):
        # A FAIL/TIMEOUT CAS is uncertain — it may have applied with the
        # reply lost.  Never guessed here: the master resolves the slot.
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    primary_comp = comps[0]
    if not primary_comp.cas_succeeded():
        # Another writer's round committed at the primary first.  Ours
        # linearizes immediately before it (last-writer-wins) and — in
        # contrast to SNAPSHOT losers — never waits: the winner is
        # already committed, its value is in primary_comp.value, and any
        # backup our broadcast polluted was observed by the winner's own
        # broadcast returns, so its fixup converges them.
        return WriteResult(Outcome.LOSE, v_old, v_new, primary_comp.value,
                           rtts)
    # We won the round.  Backups whose CAS we lost hold exactly one
    # conflicting writer's value each (per-replica CAS atomicity), and
    # our broadcast returns tell us which — converge them with
    # timestamp-guarded CASes.
    divergent = [(loc, comp.value)
                 for loc, comp in zip(locations[1:], comps[1:])
                 if not comp.cas_succeeded()]
    outcome = Outcome.WIN_SWARM_FIXUP if divergent else Outcome.WIN_SWARM
    primary_mn, primary_addr = ref.primary()
    for _ in range(max_fixup_rounds):
        if not divergent:
            break
        # Guard read BEFORE the fixup CAS, every round.  The conflicting
        # value we observed on a backup is not always same-round debris:
        # our backup CAS can be delivered late, after a *newer* round
        # already committed and converged that replica, and a guarded
        # CAS(seen -> v_new) would then regress it.  Any later-round
        # value lands on a backup happens-after that round's primary
        # commit (its broadcast CAS there requires our round applied
        # first; its fixup runs post-commit), so a primary read issued
        # after the observation must see the newer round — making
        # "primary still holds v_new" a sound licence to CAS.
        if phase_guard is not None:
            yield from phase_guard()
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.swarm_recheck")
        check = yield fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
        rtts += 1
        if check.failed:
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        if int.from_bytes(check.value, "big") != v_new:
            break  # a later round committed; its winner converges
        if phase_guard is not None:
            yield from phase_guard()
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.swarm_fixup")
        fix_comps = yield fabric.post(
            [CasOp(mn, addr, expected=seen, swap=v_new)
             for (mn, addr), seen in divergent])
        rtts += 1
        if any(c.failed for c in fix_comps):
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        divergent = [(loc, comp.value)
                     for (loc, _seen), comp in zip(divergent, fix_comps)
                     if not comp.cas_succeeded() and comp.value != v_new]
    else:
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    if on_win is not None:
        yield from on_win(v_old)
        rtts += 1
    return WriteResult(outcome, v_old, v_new, v_new, rtts)


def swarm_read(fabric: Fabric, ref: SlotRef, rotation: int = 0,
               max_validate_rounds: int = 4):
    """SWARM local read (generator): least-loaded backup + the primary
    timestamp word in one doorbell batch (1 RTT fast path).

    ``rotation`` breaks backlog ties deterministically (per reader), so
    an idle fabric still spreads reads over the backups.  The primary
    word is the authoritative timestamp, but it is only *returned* when
    the chosen backup carries the same word — a value vouched for by
    the primary alone may not have reached any backup yet, and
    returning it would let a later primary-crash read travel backwards
    in time.  A mismatch is a torn in-flight broadcast: re-read (the
    lagging CAS is one fabric hop behind) up to ``max_validate_rounds``
    times, then defer to the master rather than guess.  Readers never
    repair slots themselves — a reader CAS would race the writer's own
    broadcast and fixup.

    With the primary unreachable, fall back to a survivor read that
    must be unanimous *and* complete (every alive replica answered) —
    any weaker quorum could miss the one backup that validated an
    already-returned read.
    """
    locations = ref.locations()
    primary = locations[0]
    rtts = 0
    if len(locations) == 1:
        if fabric.tracer is not None:
            fabric.tracer.phase("read.swarm_local")
        comp = yield fabric.post_one(ReadOp(primary[0], primary[1], 8))
        if comp.failed:
            return ReadResult(value=None, from_backups=False, rtts=1)
        return ReadResult(value=int.from_bytes(comp.value, "big"),
                          from_backups=False, rtts=1, validated=True)
    now = fabric.env.now
    backups = [loc for loc in locations[1:]
               if not fabric.node(loc[0]).crashed]
    if backups and not fabric.node(primary[0]).crashed:
        chosen = min(
            enumerate(backups),
            key=lambda pair: (fabric.node(pair[1][0]).tx_backlog(now),
                              (pair[0] + rotation) % len(backups)))[1]
        for _ in range(max_validate_rounds):
            if fabric.tracer is not None:
                fabric.tracer.phase("read.swarm_local")
            comps = yield fabric.post([ReadOp(chosen[0], chosen[1], 8),
                                       ReadOp(primary[0], primary[1], 8)])
            rtts += 1
            if comps[1].failed:
                break  # primary unreachable mid-read: degrade below
            ts_word = int.from_bytes(comps[1].value, "big")
            if (not comps[0].failed
                    and int.from_bytes(comps[0].value, "big") == ts_word):
                return ReadResult(value=ts_word, from_backups=False,
                                  rtts=rtts, validated=True)
        else:
            # Still torn after every round: a conflict storm is in
            # flight; the master (NEED_MASTER seam) resolves the slot.
            return ReadResult(value=None, from_backups=False, rtts=rtts)
    # Degraded: the primary is gone.  Read every alive replica; only a
    # complete, unanimous survivor set is safely committed.
    alive = [loc for loc in locations if not fabric.node(loc[0]).crashed]
    if not alive:
        return ReadResult(value=None, from_backups=True, rtts=rtts)
    if fabric.tracer is not None:
        fabric.tracer.phase("read.swarm_majority")
    comps = yield fabric.post([ReadOp(mn, addr, 8) for mn, addr in alive])
    rtts += 1
    values = {int.from_bytes(c.value, "big") for c in comps if not c.failed}
    if len(values) == 1 and not any(c.failed for c in comps):
        return ReadResult(value=values.pop(), from_backups=True, rtts=rtts)
    return ReadResult(value=None, from_backups=True, rtts=rtts)


@register_protocol
class SwarmProtocol(ReplicationProtocol):
    """SWARM-style in-place replication: 1-RTT conflict-free writes."""

    name = "swarm"

    def write(self, fabric, ref, v_old, v_new, on_win=None,
              retry_sleep_us=2.0, phase_guard=None):
        # A module global, looked up per call: repro.check.mutations
        # patches swarm_write.
        return (yield from swarm_write(
            fabric, ref, v_old, v_new, on_win=on_win,
            phase_guard=phase_guard))

    @staticmethod
    def repair_choice(words: List[int], primary_alive: bool) -> int:
        # The primary CAS is the commit point, so the primary's word is
        # authoritative whenever it survived; backups may hold a loser's
        # never-committed value.  Without the primary, install the
        # majority word among the survivors (first index on ties).
        if primary_alive or len(words) == 1:
            return 0
        target, _count = Counter(words).most_common(1)[0]
        return words.index(target)
