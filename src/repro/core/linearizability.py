"""Linearizability checkers for replicated-slot and whole-KV histories.

The paper verifies SNAPSHOT with TLA+; here we mechanically check the same
safety property on *actual executions*.  Two checkers run one classical
Wing & Gong search (:func:`_linearize`), memoised on (set of linearized
ops, abstract state), which is exact and fast for the history sizes our
protocol tests produce (well under ~25 operations per partition).  They
differ only in the ``step`` function that gives the object's semantics:

* :func:`check_linearizable` — a history of READ/WRITE operations on one
  replicated 8-byte slot is linearizable iff there is a total order of the
  operations that (1) respects real-time precedence and (2) is legal for a
  register: every read returns the most recently written value
  (:func:`_register_step`).

* :func:`check_kv_linearizable` — a history of SEARCH / INSERT / UPDATE /
  DELETE operations against the whole store, with operations that *truly
  overlap* in time (collected from concurrent client processes, e.g. via
  the tracer's spans — see :func:`repro.check.history.kv_ops_from_spans`).
  By the Herlihy & Wing locality theorem, and because FUSEE keys are
  independent objects, the history is linearizable iff each per-key
  subhistory is — so the checker partitions by key and runs an
  independent search per partition against map semantics
  (:func:`_legal`).  Each partition is further decomposed at
  **quiescent cuts** (instants with no op on that key in flight): real
  time totally orders the bursts on either side, so the search runs per
  concurrent burst, threading the set of legally reachable states
  across cuts.  Long paced histories (production traffic scenarios)
  therefore check in time linear in run length — the exponential search
  is bounded by the widest burst.

Both checkers accept **pending** operations (``required=False``): an
operation that was invoked but never completed (its issuer crashed, or it
escalated to the master and gave up) may either have taken effect or not —
the search is free to linearize it anywhere after its invocation or to
drop it entirely.  This is what makes crash schedules checkable: a write
whose client died mid-protocol is exactly such a pending operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Op",
    "History",
    "check_linearizable",
    "KvOp",
    "KvViolation",
    "check_kv_linearizable",
]


# --------------------------------------------------------------------------
# Single-slot register histories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation on the replicated slot.

    ``required=False`` marks a pending operation: invoked but never
    completed (``completed`` should then be ``math.inf``).  The checker
    may linearize it or drop it.
    """

    kind: str          # "r" or "w"
    value: int         # value written, or value returned by the read
    invoked: float
    completed: float
    op_id: int = 0
    required: bool = True

    def __post_init__(self):
        if self.kind not in ("r", "w"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.completed < self.invoked:
            raise ValueError("completion precedes invocation")


@dataclass
class History:
    """A mutable collection of operations, with recording helpers."""

    initial_value: int = 0
    ops: List[Op] = field(default_factory=list)
    _next_id: int = 0

    def record(self, kind: str, value: int, invoked: float,
               completed: float) -> Op:
        op = Op(kind=kind, value=value, invoked=invoked,
                completed=completed, op_id=self._next_id)
        self._next_id += 1
        self.ops.append(op)
        return op

    def record_pending(self, kind: str, value: int, invoked: float) -> Op:
        """Record an operation that never completed (crash / escalation)."""
        op = Op(kind=kind, value=value, invoked=invoked,
                completed=math.inf, op_id=self._next_id, required=False)
        self._next_id += 1
        self.ops.append(op)
        return op

    def __len__(self) -> int:
        return len(self.ops)


def _linearize(ops: Sequence, initial, step, max_states: int,
               finals: Optional[Set] = None) -> bool:
    """The Wing & Gong search, memoised on (linearized set, state).

    ``step(op, state)`` is the object's semantics: is ``op``'s reported
    result legal in ``state``, and the state after it.  True iff some
    order respecting real-time precedence linearizes every required op
    (the pending ones may be dropped).  With ``finals`` given the search
    does not stop at the first linearization: it adds the end state of
    every complete one to ``finals`` (and returns False).

    Raises ``ValueError`` beyond 63 ops (the bitmask) and
    ``RuntimeError`` once the search exceeds ``max_states`` states.
    """
    n = len(ops)
    if n > 63:
        raise ValueError(f"too many concurrent ops for the bitmask "
                         f"checker ({n})")
    required = sum(1 << i for i, op in enumerate(ops) if op.required)
    seen: Set[Tuple[int, object]] = set()
    states = 0

    def search(done: int, state) -> bool:
        nonlocal states
        if done & required == required:
            # Every completed op is linearized; the remaining (pending)
            # ops may simply never have taken effect.
            if finals is None:
                return True
            finals.add(state)
            return False
        if (done, state) in seen:
            return False
        seen.add((done, state))
        states += 1
        if states > max_states:
            raise RuntimeError("linearizability search exploded")
        # Candidates: not done, and no *other* undone op completes
        # strictly before their invocation.
        undone = [i for i in range(n) if not done & (1 << i)]
        horizon = min(ops[i].completed for i in undone)
        for i in undone:
            if ops[i].invoked <= horizon:
                ok, after = step(ops[i], state)
                if ok and search(done | (1 << i), after):
                    return True
        return False

    return search(0, initial)


def _register_step(op: Op, value: int) -> Tuple[bool, int]:
    """Register semantics: a read returns the current value, a write
    replaces it."""
    if op.kind == "r":
        return op.value == value, value
    return True, op.value


def check_linearizable(history: History,
                       max_states: int = 2_000_000) -> bool:
    """True iff the history linearizes against register semantics.

    The whole history is one search (no cut decomposition), so more than
    63 operations raise ``ValueError``.  Raises ``RuntimeError`` if the
    search exceeds ``max_states`` explored states (never observed for
    protocol-test-sized histories).
    """
    # A pending read constrains nothing (its result was never returned),
    # so drop them up front; pending writes stay as optional candidates.
    ops = [op for op in history.ops if op.required or op.kind == "w"]
    return _linearize(ops, history.initial_value, _register_step,
                      max_states)


# --------------------------------------------------------------------------
# Whole-store KV histories (partitioned by key)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KvOp:
    """One completed (or pending) client operation against the store.

    ``kind``    one of ``search`` / ``insert`` / ``update`` / ``delete``;
    ``key``     the operation's key;
    ``wrote``   the value argument (insert/update), else ``None``;
    ``ok``      the reported success flag;
    ``value``   the value a successful search returned;
    ``existed`` insert's already-present flag;
    ``lost``    True when the operation reported success *because it lost*
                a SNAPSHOT round (outcome LOSE/FINISH): last-writer-wins
                linearizes it next to the concurrent winner, so its own
                effect is never observable — the checker treats it as a
                legal no-op (for insert/update: only while the key is
                present, i.e. the winner has linearized);
    ``required`` False for pending ops (crashed client), which the checker
                may linearize anywhere after invocation or drop.
    """

    kind: str
    key: bytes
    invoked: float
    completed: float
    ok: bool = True
    wrote: Optional[bytes] = None
    value: Optional[bytes] = None
    existed: bool = False
    lost: bool = False
    op_id: int = 0
    required: bool = True

    def __post_init__(self):
        if self.kind not in ("search", "insert", "update", "delete"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.completed < self.invoked:
            raise ValueError("completion precedes invocation")


@dataclass(frozen=True)
class KvViolation:
    """A non-linearizable per-key subhistory, with context for reports."""

    key: bytes
    ops: Tuple[KvOp, ...]

    def __str__(self) -> str:
        lines = [f"key {self.key!r}: no legal linearization of "
                 f"{len(self.ops)} ops:"]
        for op in self.ops:
            outcome = "pending" if not op.required else (
                "ok" if op.ok else
                ("existed" if op.existed else "failed"))
            detail = ""
            if op.kind in ("insert", "update"):
                detail = f" wrote={op.wrote!r}"
            elif op.kind == "search" and op.ok:
                detail = f" -> {op.value!r}"
            lines.append(f"  [{op.invoked:g},{op.completed:g}] "
                         f"{op.kind}{detail} ({outcome})")
        return "\n".join(lines)


def _legal(op: KvOp, state: Optional[bytes]
           ) -> Tuple[bool, Optional[bytes]]:
    """Map semantics: is ``op``'s reported result legal in ``state``
    (the key's current value, None = absent), and the state after it."""
    if op.lost and op.ok:
        # SNAPSHOT last-writer-wins: the op succeeded but lost its round,
        # so its effect was superseded by the concurrent winner before
        # anyone could observe it — a no-op.  A lost insert/update proved
        # the key present (conflict re-check / located slot); a lost
        # delete may have lost to another delete, so it is always legal.
        if op.kind == "delete":
            return True, state
        return state is not None, state
    if op.kind == "search":
        if op.ok:
            return (state is not None and op.value == state), state
        return state is None, state
    if op.kind == "insert":
        if op.ok:
            return state is None, op.wrote
        # A failed insert must be due to the key existing.
        return (op.existed and state is not None), state
    if op.kind == "update":
        if op.ok:
            return state is not None, op.wrote
        return state is None, state
    # delete.  Success is *idempotent*: a DELETE's v_new is the null slot
    # word, which aliases the empty slot, so a deleter whose CAS raced a
    # completed concurrent delete sees every replica already holding its
    # target value and (correctly, per SNAPSHOT's rules) reports a win.
    # The spec is therefore "ok means the key is absent afterwards", legal
    # from either state; a failed delete proved the key absent at locate
    # time.
    if op.ok:
        return True, None
    return state is None, state


def _segments(ops: Sequence[KvOp]) -> List[List[KvOp]]:
    """Split a per-key history at quiescent cuts.

    Sorted by invocation, a cut falls wherever every earlier op
    completed *strictly* before every later op invoked: real time then
    totally orders the two sides, so any linearization of the whole
    history is a linearization of the left segment followed by one of
    the right (and vice versa, threading the key's state across the
    cut).  Pending ops (``completed == inf``) glue everything after
    their invocation into one final segment, so only the last segment
    can ever contain them.
    """
    ordered = sorted(ops, key=lambda o: (o.invoked, o.completed))
    segments: List[List[KvOp]] = []
    current: List[KvOp] = []
    frontier = -math.inf
    for op in ordered:
        if current and frontier < op.invoked:
            segments.append(current)
            current = []
        current.append(op)
        if op.completed > frontier:
            frontier = op.completed
    if current:
        segments.append(current)
    return segments


def _check_partition(ops: Sequence[KvOp], initial: Optional[bytes],
                     max_states: int) -> bool:
    """Check one per-key subhistory, decomposed at quiescent cuts.

    Long paced histories (production traffic scenarios run thousands of
    ops against a hot key) are mostly sequential; the bitmask search
    only ever sees one concurrent burst at a time, so its 63-op cap
    applies to genuine overlap, not run length.  The set of states a
    burst can legally end in is threaded into the next burst.
    """
    if not ops:
        return True
    segments = _segments(ops)
    possible: Set[Optional[bytes]] = {initial}
    for segment in segments[:-1]:
        reached: Set[Optional[bytes]] = set()
        for state in possible:
            _linearize(segment, state, _legal, max_states, finals=reached)
        if not reached:
            return False
        possible = reached
    return any(_linearize(segments[-1], state, _legal, max_states)
               for state in sorted(possible,
                                   key=lambda s: (s is None, s)))


def check_kv_linearizable(
        ops: Sequence[KvOp],
        initial: Optional[Dict[bytes, bytes]] = None,
        max_states: int = 2_000_000) -> Optional[KvViolation]:
    """Check a concurrent whole-store history against map semantics.

    Returns ``None`` when the history is linearizable, else a
    :class:`KvViolation` naming the first key whose subhistory admits no
    legal total order.  ``initial`` seeds per-key starting values (keys
    absent from it start empty).

    Pending operations (``required=False``) may be linearized anywhere
    after their invocation or dropped; pending searches are ignored.
    """
    initial = initial or {}
    partitions: Dict[bytes, List[KvOp]] = {}
    for op in ops:
        if not op.required and op.kind == "search":
            continue
        partitions.setdefault(op.key, []).append(op)
    for key in sorted(partitions):
        part = partitions[key]
        if not _check_partition(part, initial.get(key), max_states):
            return KvViolation(key=key, ops=tuple(
                sorted(part, key=lambda o: (o.invoked, o.completed))))
    return None
