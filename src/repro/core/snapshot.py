"""The SNAPSHOT client-centric replication protocol (§4.3, Algorithms 1-2).

SNAPSHOT keeps ``r`` replicas of each 8-byte index slot linearizable
without server CPUs and without serializing conflicting writers:

* READ — fetch the primary slot with one RDMA_READ (1 RTT).
* WRITE — all conflicting writers broadcast RDMA_CAS to the *backup*
  slots (expected = the old primary value, swap = their own new value).
  The atomicity of CAS fixes each backup exactly once per round, and the
  returned old values (``v_list``) let every writer *locally* decide the
  unique last writer via three rules:

  - **Rule 1**: a writer that modified *all* backups wins (fast path).
  - **Rule 2**: a writer that modified a *majority* of backups wins.
  - **Rule 3**: otherwise, after confirming via one extra READ that the
    primary is still unmodified, the writer whose proposed value is the
    *minimum* value present in ``v_list`` wins.

  The winner makes all backups hold its value, commits its operation log,
  and finally CASes the primary.  Losers spin on the primary until it
  changes; their writes linearize immediately before the winner's
  (last-writer-wins register semantics), so they report success.

Bounded worst-case cost (§4.3 "Performance"): 1 RTT for the backup
broadcast, +1 for Rule-2/3 fix-up, +1 for the Rule-3 check read, +1 for
the primary CAS — 3/4/5 RTTs for Rules 1/2/3 on top of the caller's
initial primary read.

Failure handling (Algorithm 4) surfaces as the ``NEED_MASTER`` outcome:
the caller (client) escalates to the master, which acts as a
representative last writer (§5.2).

``sequential_write`` implements the FUSEE-CR ablation: CAS every replica
in order, which costs ``r`` RTTs and serializes conflicting writers.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..rdma import FAIL, CasOp, Fabric, ReadOp
from .race import SlotRef

__all__ = [
    "Outcome",
    "WriteResult",
    "ReadResult",
    "evaluate_rules",
    "snapshot_read",
    "snapshot_write",
    "sequential_write",
    "RuleDecision",
]


class Outcome(enum.Enum):
    WIN_RULE1 = "rule1"
    WIN_RULE2 = "rule2"
    WIN_RULE3 = "rule3"
    # SWARM strategy wins (repro.core.replication): the broadcast CAS won
    # the primary — conflict-free in 1 RTT, or after backup fix-up.
    WIN_SWARM = "swarm"
    WIN_SWARM_FIXUP = "swarm_fixup"
    LOSE = "lose"          # another writer won; our write linearized before it
    FINISH = "finish"      # round already committed when Rule 3 was checked
    NEED_MASTER = "need_master"  # a replica failed; escalate (Algorithm 4)

    @property
    def won(self) -> bool:
        return self in (Outcome.WIN_RULE1, Outcome.WIN_RULE2,
                        Outcome.WIN_RULE3, Outcome.WIN_SWARM,
                        Outcome.WIN_SWARM_FIXUP)

    @property
    def completed(self) -> bool:
        """Did the WRITE operation take effect (win or linearized-before)?"""
        return self is not Outcome.NEED_MASTER


class RuleDecision(enum.Enum):
    """Raw result of Algorithm 2 before the caller acts on it."""

    RULE1 = 1
    RULE2 = 2
    RULE3 = 3
    LOSE = 4
    FINISH = 5
    FAIL = 6
    NEED_CHECK = 7  # Rule 3 requires the extra primary read first


@dataclass(frozen=True)
class WriteResult:
    outcome: Outcome
    v_old: int
    v_new: int
    committed: Optional[int]  # value observed/known committed for this round
    rtts: int


@dataclass(frozen=True)
class ReadResult:
    value: Optional[int]   # None when escalation to the master is required
    from_backups: bool
    rtts: int
    # SWARM reads only: did the least-loaded local replica's word match
    # the primary's timestamp word (None for protocols without local
    # read validation)?
    validated: Optional[bool] = None


def evaluate_rules(v_list: List[object], v_new: int,
                   check_value: Optional[int] = None,
                   v_old: Optional[int] = None) -> RuleDecision:
    """Algorithm 2, as a pure function.

    ``v_list`` holds, per backup slot, the value known to be in that slot
    after the CAS broadcast (or FAIL).  ``check_value`` is the primary
    value from the Rule-3 check read; pass ``None`` on the first call and
    re-invoke with the read value if ``NEED_CHECK`` is returned.
    """
    if any(v is FAIL for v in v_list):
        return RuleDecision.FAIL
    if not v_list:
        raise ValueError("evaluate_rules requires at least one backup")
    counts = Counter(v_list)
    v_maj, cnt_maj = counts.most_common(1)[0]
    if cnt_maj == len(v_list):
        return RuleDecision.RULE1 if v_maj == v_new else RuleDecision.LOSE
    if 2 * cnt_maj > len(v_list):
        return RuleDecision.RULE2 if v_maj == v_new else RuleDecision.LOSE
    if v_new not in v_list:
        return RuleDecision.LOSE
    if check_value is None:
        return RuleDecision.NEED_CHECK
    if check_value is FAIL:
        return RuleDecision.FAIL
    if check_value != v_old:
        return RuleDecision.FINISH
    if min(v_list) == v_new:  # type: ignore[type-var]
        return RuleDecision.RULE3
    return RuleDecision.LOSE


def snapshot_read(fabric: Fabric, ref: SlotRef):
    """Algorithm 4 READ (generator).

    Reads the primary slot; on primary failure reads all backups and
    returns their common value if they agree, else defers to the master
    (``value=None``).
    """
    primary_mn, primary_addr = ref.primary()
    if fabric.tracer is not None:
        fabric.tracer.phase("read.primary")
    comp = yield fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
    if not comp.failed:
        return ReadResult(value=int.from_bytes(comp.value, "big"),
                          from_backups=False, rtts=1)
    backups = ref.backups()
    if not backups:
        return ReadResult(value=None, from_backups=False, rtts=1)
    if fabric.tracer is not None:
        fabric.tracer.phase("read.backups")
    comps = yield fabric.post([ReadOp(mn, addr, 8) for mn, addr in backups])
    values = {int.from_bytes(c.value, "big") for c in comps if not c.failed}
    if len(values) == 1:
        return ReadResult(value=values.pop(), from_backups=True, rtts=2)
    return ReadResult(value=None, from_backups=True, rtts=2)


def snapshot_write(fabric: Fabric, ref: SlotRef, v_old: int, v_new: int,
                   on_win: Optional[Callable[[int], object]] = None,
                   retry_sleep_us: float = 2.0,
                   max_wait_rounds: int = 10_000,
                   phase_guard: Optional[Callable[[], object]] = None):
    """Algorithm 1 WRITE (generator), starting after the caller has read
    the primary slot (the read is batched into the caller's first phase).

    ``on_win(v_old)`` — optional generator factory run by the decided last
    writer after conflict resolution but *before* the primary CAS: FUSEE
    commits the embedded operation log there (Fig. 9 phase 3).

    Returns a :class:`WriteResult`; ``NEED_MASTER`` means a replica failed
    mid-protocol and the caller must consult the master (Algorithm 4).
    """
    if v_old == v_new:
        raise ValueError("out-of-place modification guarantees v_old != v_new")
    backups = ref.backups()
    rtts = 0

    if not backups:
        # Degenerate r=1 configuration: plain RACE-style CAS on the only
        # replica.  A failed CAS means a conflicting writer committed first;
        # last-writer-wins lets us linearize immediately before it.
        if on_win is not None:
            yield from on_win(v_old)
            rtts += 1
        primary_mn, primary_addr = ref.primary()
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.primary_cas")
        comp = yield fabric.post_one(CasOp(primary_mn, primary_addr,
                                           expected=v_old, swap=v_new))
        rtts += 1
        if comp.failed:
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        if comp.cas_succeeded():
            return WriteResult(Outcome.WIN_RULE1, v_old, v_new, v_new, rtts)
        return WriteResult(Outcome.LOSE, v_old, v_new, comp.value, rtts)

    # Phase: broadcast CAS to all backup slots (one doorbell batch, 1 RTT).
    # Lease check before each phase: clients must not modify slots the
    # master is repairing (Appendix A.4, "clients check and extend their
    # leases before performing each read and write").  The None-check is
    # inlined at each phase: a guard() sub-generator would allocate a
    # generator per phase even with no guard installed.
    if phase_guard is not None:
        yield from phase_guard()
    if fabric.tracer is not None:
        fabric.tracer.phase("repl.backup_cas")
    comps = yield fabric.post([CasOp(mn, addr, expected=v_old, swap=v_new)
                               for mn, addr in backups])
    rtts += 1
    v_list: List[object] = []
    for comp in comps:
        if comp.failed:
            # Covers both crashed-replica FAIL and fault-injected TIMEOUT:
            # an uncertain CAS (it may have applied with the reply lost)
            # escalates to NEED_MASTER, and fail_query resolves the slot's
            # true committed value once the link heals — never guessed here.
            v_list.append(FAIL)
        elif comp.value == v_old:   # our CAS took effect: slot now holds v_new
            v_list.append(v_new)
        else:                       # someone else's value is in the slot
            v_list.append(comp.value)

    decision = evaluate_rules(v_list, v_new)
    if decision is RuleDecision.NEED_CHECK:
        primary_mn, primary_addr = ref.primary()
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.rule3_check")
        comp = yield fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
        rtts += 1
        check = FAIL if comp.failed else int.from_bytes(comp.value, "big")
        decision = evaluate_rules(v_list, v_new, check_value=check,
                                  v_old=v_old)

    if decision is RuleDecision.FAIL:
        return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)

    if decision is RuleDecision.FINISH:
        # The primary moved past v_old: a last writer for this round has
        # already committed; our write linearizes before it.
        return WriteResult(Outcome.FINISH, v_old, v_new, None, rtts)

    if decision in (RuleDecision.RULE1, RuleDecision.RULE2, RuleDecision.RULE3):
        if decision is not RuleDecision.RULE1:
            # Fix-up: make every backup hold v_new (CAS from the observed
            # values; only the unique winner does this, so no races).
            fix = [CasOp(mn, addr, expected=seen, swap=v_new)
                   for (mn, addr), seen in zip(backups, v_list)
                   if seen != v_new]
            if fix:
                if phase_guard is not None:
                    yield from phase_guard()
                if fabric.tracer is not None:
                    fabric.tracer.phase("repl.fixup")
                fix_comps = yield fabric.post(fix)
                rtts += 1
                if any(c.failed for c in fix_comps):
                    return WriteResult(Outcome.NEED_MASTER, v_old, v_new,
                                       None, rtts)
        if on_win is not None:
            yield from on_win(v_old)
            rtts += 1
        if phase_guard is not None:
            yield from phase_guard()
        primary_mn, primary_addr = ref.primary()
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.primary_cas")
        comp = yield fabric.post_one(CasOp(primary_mn, primary_addr,
                                           expected=v_old, swap=v_new))
        rtts += 1
        if comp.failed:
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        outcome = {RuleDecision.RULE1: Outcome.WIN_RULE1,
                   RuleDecision.RULE2: Outcome.WIN_RULE2,
                   RuleDecision.RULE3: Outcome.WIN_RULE3}[decision]
        return WriteResult(outcome, v_old, v_new, v_new, rtts)

    # LOSE: wait until the last writer commits the primary slot.
    env = fabric.env
    primary_mn, primary_addr = ref.primary()
    for _ in range(max_wait_rounds):
        yield env.attributed_timeout(retry_sleep_us, "backoff",
                                     "write.wait_primary")
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.wait_primary")
        comp = yield fabric.post_one(ReadOp(primary_mn, primary_addr, 8))
        rtts += 1
        if comp.failed:
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        v_check = int.from_bytes(comp.value, "big")
        if v_check != v_old:
            return WriteResult(Outcome.LOSE, v_old, v_new, v_check, rtts)
    # The winner must have crashed without committing: escalate.
    return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)


def sequential_write(fabric: Fabric, ref: SlotRef, v_old: int, v_new: int,
                     on_win: Optional[Callable[[int], object]] = None,
                     phase_guard: Optional[Callable[[], object]] = None):
    """FUSEE-CR ablation (§6.1): CAS replicas one at a time, backups first.

    Costs one RTT per replica (latency grows linearly with r, Fig. 19) and
    serializes conflicting writers: losing the first CAS aborts the round.
    Like SNAPSHOT, every CAS round (the undo included) first passes
    ``phase_guard``, so no replica is touched while the master holds the
    subtable.  A guard that had to wait (it returns True) after this round
    already swapped a replica means the master repaired or split the
    subtable mid-round, from replicas that held part of this round: the
    slot is then the master's to settle (``NEED_MASTER``), and the round
    neither goes on from its stale ``v_old`` nor undoes what the repair
    may have kept.
    """
    rtts = 0
    locations = ref.backups() + [ref.primary()]
    committed: List[Tuple[int, int]] = []

    def held_mid_round():
        return (phase_guard is not None and (yield from phase_guard())
                and bool(committed))

    for i, (mn, addr) in enumerate(locations):
        is_primary = i == len(locations) - 1
        if is_primary and on_win is not None:
            yield from on_win(v_old)
            rtts += 1
        if (yield from held_mid_round()):
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        if fabric.tracer is not None:
            fabric.tracer.phase("repl.seq_primary_cas" if is_primary
                                else "repl.seq_backup_cas")
        comp = yield fabric.post_one(CasOp(mn, addr, expected=v_old,
                                           swap=v_new))
        rtts += 1
        if comp.failed:
            return WriteResult(Outcome.NEED_MASTER, v_old, v_new, None, rtts)
        if not comp.cas_succeeded():
            # Conflict: roll back our partial modifications and lose.
            if committed:
                if (yield from held_mid_round()):
                    return WriteResult(Outcome.NEED_MASTER, v_old, v_new,
                                       None, rtts)
                undo = [CasOp(mn2, addr2, expected=v_new, swap=v_old)
                        for mn2, addr2 in committed]
                if fabric.tracer is not None:
                    fabric.tracer.phase("repl.seq_undo")
                yield fabric.post(undo)
                rtts += 1
            return WriteResult(Outcome.LOSE, v_old, v_new, comp.value, rtts)
        committed.append((mn, addr))
    return WriteResult(Outcome.WIN_RULE1, v_old, v_new, v_new, rtts)
