"""Known-bad protocol mutations, for validating the schedule explorer.

Each mutation, called with no arguments, gives a context manager that
monkey-patches one protocol decision the FUSEE papers argue is
load-bearing (through :func:`_patch`).  The harness
(``tests/test_check.py``, ``python -m repro check``) asserts that the
explorer finds a violating schedule for every mutation within its
documented budget — i.e. that the checker would actually catch these
bugs — and that the unmutated protocol survives the same exploration.

Clients reach ``snapshot_write`` through their replication strategy and
scenarios through the module attribute (``snapshot_mod.snapshot_write``),
so patching that one attribute mutates both.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict

from ..core import client as client_mod
from ..core import replication as replication_mod
from ..core import snapshot as snapshot_mod
from ..core.snapshot import Outcome, ReadResult, RuleDecision, WriteResult
from ..core.wire import OP_DELETE, unpack_slot
from ..rdma import FAIL, CasOp, ReadOp, WriteOp

__all__ = ["MUTATIONS", "MUTATION_SPECS", "MutationSpec"]


@dataclass(frozen=True)
class MutationSpec:
    """Where and how hard to look for a mutation's violating schedule.

    ``max_schedules`` is the *documented budget*: the explorer must find
    a violation within this many schedules of ``scenario`` (enforced by
    ``tests/test_check.py``), and the unmutated protocol must survive
    the same exploration clean.
    """

    scenario: str            # key into repro.check.scenarios.SCENARIOS
    max_schedules: int
    max_decisions: int
    description: str


@contextmanager
def _patch(owner, name: str, replacement):
    """Set ``owner.name`` to ``replacement`` for the ``with`` block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


# --------------------------------------------------------------------------
# skip-cas-recheck — Algorithm 2 without re-checking CAS results
# --------------------------------------------------------------------------

def skip_cas_recheck():
    """Writers no longer re-check that the unanimous/majority value in
    ``v_list`` is *their own* before declaring victory.

    Every conflicting writer then decides it is the last writer: all of
    them run the winner path (fix-up + primary CAS), and since the
    winner path trusts the conflict resolution and does not re-validate
    its primary CAS, two writers report WIN for one round and the
    replicas diverge.
    """
    original = snapshot_mod.evaluate_rules

    def mutated(v_list, v_new, check_value=None, v_old=None):
        if any(v is FAIL for v in v_list):
            return RuleDecision.FAIL
        counts = Counter(v_list)
        _v_maj, cnt = counts.most_common(1)[0]
        if cnt == len(v_list):
            return RuleDecision.RULE1   # BUG: never compares v_maj to v_new
        if 2 * cnt > len(v_list):
            return RuleDecision.RULE2   # BUG: same
        return original(v_list, v_new, check_value=check_value, v_old=v_old)

    return _patch(snapshot_mod, "evaluate_rules", mutated)


# --------------------------------------------------------------------------
# reorder-replica-writes — primary committed before the backups
# --------------------------------------------------------------------------

def _primary_first_write(fabric, ref, v_old: int, v_new: int, on_win=None,
                         retry_sleep_us: float = 2.0,
                         max_wait_rounds: int = 10_000, phase_guard=None):
    """A plausible-looking but wrong replication order: CAS the primary
    first, then broadcast to the backups.

    Between the two phases the new value is visible on the primary while
    the backups still hold the old one — a reader that completes a
    primary read and then (after the primary fails) falls back to the
    backups observes new-then-old, which no register linearization
    admits.
    """
    if v_old == v_new:
        raise ValueError("out-of-place modification guarantees v_old != v_new")
    primary_mn, primary_addr = ref.primary()
    comp = yield fabric.post_one(CasOp(primary_mn, primary_addr,
                                       expected=v_old, swap=v_new))
    rtts = 1
    if comp.failed:
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    if not comp.cas_succeeded():
        return WriteResult(Outcome.LOSE, v_old, v_new, comp.value, rtts)
    if on_win is not None:
        yield from on_win(v_old)
        rtts += 1
    backups = ref.backups()
    if backups:
        comps = yield fabric.post([CasOp(mn, addr, expected=v_old,
                                         swap=v_new)
                                   for mn, addr in backups])
        rtts += 1
        if any(c.failed for c in comps):
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    return WriteResult(Outcome.WIN_RULE1, v_old, v_new, v_new, rtts)


# --------------------------------------------------------------------------
# drop-invalidation-write — winner skips marking the displaced object
# --------------------------------------------------------------------------

def drop_invalidation_write():
    """The winning writer frees the displaced object but never writes its
    invalidation flag (§4.6), so clients with a stale cached pointer can
    keep validating the dead value forever."""

    def mutated(self, key, meta, ref, v_old, v_new, opcode):
        if v_old != 0:
            self.allocator.note_free(unpack_slot(v_old).pointer)
        if opcode == OP_DELETE:
            self.cache.drop(key)
        else:
            self.cache.store(key, ref, v_new)

    return _patch(client_mod.FuseeClient, "_after_win", mutated)


# --------------------------------------------------------------------------
# insert-skip-conflict-recheck — lost insert CAS treated as a foreign key
# --------------------------------------------------------------------------

@contextmanager
def insert_skip_conflict_recheck():
    """An inserter trusts its empty-slot CAS win unconditionally.

    The insert path has two independent duplicate defenses: the
    CAS-conflict recheck (a loser reads the winner's KV block before
    moving to the next empty slot) and the post-install dedup sweep
    (RACE's bucket re-read, catching two winners in *different* slots).
    Each masks the other's absence in the common interleavings, so this
    mutation strips both — modelling an insert path with no duplicate
    detection at all, which double-inserts the key."""

    def mutated_recheck(self, key, meta, committed):
        return False
        yield  # pragma: no cover — keeps this a generator like the original

    def mutated_dedup(self, key, meta, ref, prepared):
        return True
        yield  # pragma: no cover — keeps this a generator like the original

    with _patch(client_mod.FuseeClient, "_insert_conflict_recheck",
                mutated_recheck), \
            _patch(client_mod.FuseeClient, "_insert_dedup", mutated_dedup):
        yield


# --------------------------------------------------------------------------
# insert-skip-dedup-sweep — winner skips the post-install duplicate re-read
# --------------------------------------------------------------------------

def insert_skip_dedup_sweep():
    """A winning inserter skips RACE's post-install bucket re-read.

    The CAS-conflict recheck only fires when two inserters collide on the
    *same* empty slot.  When a concurrent mutation (a DELETE freeing a
    slot in a candidate bucket) shifts the bucket view between their
    reads, the two inserters pick *different* empty slots, both CASes
    succeed, and only the post-install sweep can notice the duplicate —
    skipping it yields two ok=True inserts of one key."""

    def mutated(self, key, meta, ref, prepared):
        return True
        yield  # pragma: no cover — keeps this a generator like the original

    return _patch(client_mod.FuseeClient, "_insert_dedup", mutated)


# --------------------------------------------------------------------------
# swarm-skip-ts-validation — local reads without the timestamp check
# --------------------------------------------------------------------------

def _unvalidated_swarm_read(fabric, ref, rotation=0,
                            max_validate_rounds=4):
    """A SWARM read that trusts whatever its local replica holds.

    Without comparing the local word to the primary's timestamp, a
    reader pinned to a backup hands out whatever the backup happens to
    hold — including a conflicting writer's *uncommitted* debris that
    never reached the primary and that the validated read would have
    rejected.  A returned value no write in the history ever committed
    is non-linearizable by construction.
    """
    locations = ref.locations()
    backups = [loc for loc in locations[1:]
               if not fabric.node(loc[0]).crashed] or \
        [loc for loc in locations if not fabric.node(loc[0]).crashed]
    if not backups:
        return ReadResult(value=None, from_backups=False, rtts=0)
    now = fabric.env.now
    chosen = min(
        enumerate(backups),
        key=lambda pair: (fabric.node(pair[1][0]).tx_backlog(now),
                          (pair[0] + rotation) % len(backups)))[1]
    comp = yield fabric.post_one(ReadOp(chosen[0], chosen[1], 8))
    if comp.failed:
        return ReadResult(value=None, from_backups=True, rtts=1)
    return ReadResult(value=int.from_bytes(comp.value, "big"),
                      from_backups=chosen != locations[0], rtts=1,
                      validated=True)  # BUG: claimed, never checked


# --------------------------------------------------------------------------
# swarm-early-ack — WIN acknowledged before every replica is written
# --------------------------------------------------------------------------

def _early_ack_swarm_write(fabric, ref, v_old, v_new, on_win=None,
                           max_fixup_rounds=8, phase_guard=None):
    """A SWARM write that commits at the primary and hands the backup
    CASes to a detached replicator: 'the broadcast is in flight, that's
    as good as done'.

    It is not: the write is acknowledged while every backup may still
    hold the old value, so a primary crash strands the acked value —
    the survivors unanimously report the *previous* round, which the
    completed write forbids.
    """
    if v_old == v_new:
        raise ValueError("out-of-place modification guarantees v_old != v_new")
    locations = ref.locations()
    primary_mn, primary_addr = locations[0]
    comp = yield fabric.post_one(CasOp(primary_mn, primary_addr,
                                       expected=v_old, swap=v_new))
    rtts = 1
    if comp.failed:
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    if not comp.cas_succeeded():
        return WriteResult(Outcome.LOSE, v_old, v_new, comp.value, rtts)
    if len(locations) > 1:
        def _replicate_later():
            yield fabric.post([CasOp(mn, addr, expected=v_old, swap=v_new)
                               for mn, addr in locations[1:]],
                              unsignaled=True)

        # Fire-and-forget: the ack below does not wait for this process.
        fabric.env.process(_replicate_later(), name="early-ack-replicator")
    if on_win is not None:
        yield from on_win(v_old)
        rtts += 1
    return WriteResult(Outcome.WIN_SWARM, v_old, v_new, v_new, rtts)


# --------------------------------------------------------------------------
# swarm-nonmonotonic-fixup — convergence by blind write, not guarded CAS
# --------------------------------------------------------------------------

def _blind_fixup_swarm_write(fabric, ref, v_old, v_new, on_win=None,
                             max_fixup_rounds=8, phase_guard=None):
    """A SWARM write whose fixup overwrites divergent backups with a
    plain RDMA_WRITE instead of the timestamp-guarded CAS.

    The blind write cannot lose to a later round, so a delayed fixup
    re-installs its stale value over a newer committed round's — the
    replicas diverge at quiescence and chained readers see time move
    backwards.
    """
    if v_old == v_new:
        raise ValueError("out-of-place modification guarantees v_old != v_new")
    locations = ref.locations()
    if phase_guard is not None:
        yield from phase_guard()
    if fabric.tracer is not None:
        fabric.tracer.phase("repl.swarm_broadcast")
    comps = yield fabric.post([CasOp(mn, addr, expected=v_old, swap=v_new)
                               for mn, addr in locations])
    rtts = 1
    if any(c.failed for c in comps):
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    if not comps[0].cas_succeeded():
        return WriteResult(Outcome.LOSE, v_old, v_new, comps[0].value, rtts)
    divergent = [loc for loc, comp in zip(locations[1:], comps[1:])
                 if not comp.cas_succeeded()]
    outcome = Outcome.WIN_SWARM_FIXUP if divergent else Outcome.WIN_SWARM
    if divergent:
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.swarm_fixup")
        fix_comps = yield fabric.post(
            [WriteOp(mn, addr, v_new.to_bytes(8, "big"))
             for mn, addr in divergent])  # BUG: unguarded overwrite
        rtts += 1
        if any(c.failed for c in fix_comps):
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
    if on_win is not None:
        yield from on_win(v_old)
        rtts += 1
    return WriteResult(outcome, v_old, v_new, v_new, rtts)


# --------------------------------------------------------------------------
# Registry + documented detection budgets
# --------------------------------------------------------------------------

MUTATIONS: Dict[str, Callable] = {
    "skip-cas-recheck": skip_cas_recheck,
    "reorder-replica-writes": partial(
        _patch, snapshot_mod, "snapshot_write", _primary_first_write),
    "drop-invalidation-write": drop_invalidation_write,
    "insert-skip-conflict-recheck": insert_skip_conflict_recheck,
    "insert-skip-dedup-sweep": insert_skip_dedup_sweep,
    "swarm-skip-ts-validation": partial(
        _patch, replication_mod, "swarm_read", _unvalidated_swarm_read),
    "swarm-early-ack": partial(
        _patch, replication_mod, "swarm_write", _early_ack_swarm_write),
    "swarm-nonmonotonic-fixup": partial(
        _patch, replication_mod, "swarm_write", _blind_fixup_swarm_write),
}

MUTATION_SPECS: Dict[str, MutationSpec] = {
    "skip-cas-recheck": MutationSpec(
        scenario="slot-write-race",
        max_schedules=256,
        max_decisions=24,
        description="writers claim victory without re-checking whose "
                    "value the backup CASes installed",
    ),
    "reorder-replica-writes": MutationSpec(
        scenario="slot-crash-read",
        max_schedules=256,
        max_decisions=24,
        description="primary replica committed before the backups",
    ),
    "drop-invalidation-write": MutationSpec(
        scenario="cluster-update-invalidate",
        max_schedules=64,
        max_decisions=24,
        description="winner never marks the displaced object invalid",
    ),
    "insert-skip-conflict-recheck": MutationSpec(
        scenario="cluster-insert-race",
        max_schedules=256,
        max_decisions=32,
        description="losing inserter assumes the slot went to a foreign "
                    "key and double-inserts",
    ),
    "insert-skip-dedup-sweep": MutationSpec(
        scenario="cluster-insert-delete-race",
        max_schedules=16384,   # catch ~330; clean exhausts ~9.8k (complete)
        max_decisions=40,
        description="winning inserter skips the post-install bucket "
                    "re-read, missing a duplicate in a different slot",
    ),
    "swarm-skip-ts-validation": MutationSpec(
        scenario="swarm-write-race",
        max_schedules=32768,   # catch ~3.2k; clean exhausts ~25.4k
        max_decisions=24,
        description="swarm readers return the local replica's word "
                    "without validating the primary timestamp",
    ),
    "swarm-early-ack": MutationSpec(
        scenario="swarm-crash-read",
        max_schedules=1024,    # catch ~16; clean exhausts ~150
        max_decisions=24,
        description="swarm writer acks after the primary CAS with the "
                    "backup broadcast still in flight",
    ),
    "swarm-nonmonotonic-fixup": MutationSpec(
        scenario="swarm-write-chain",
        max_schedules=2048,    # catch ~260; clean exhausts ~380
        max_decisions=32,
        description="swarm fixup blindly overwrites divergent backups, "
                    "re-installing a stale round over a newer one",
    ),
}
