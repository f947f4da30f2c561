"""A frozen copy of the three Wing & Gong searches the linearizability
checkers used before they were folded into one.

``tests/test_linearizability.py`` runs this copy and
:mod:`repro.core.linearizability` on the same random histories and
requires the same verdict (or the same exception type).  Do not edit it
to follow the checker: a difference is exactly what the property test is
there to catch.
"""

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.linearizability import History, KvOp, KvViolation


def reference_check_linearizable(history: History,
                       max_states: int = 2_000_000) -> bool:
    """True iff the history linearizes against register semantics.

    Raises ``RuntimeError`` if the search exceeds ``max_states`` explored
    states (never observed for protocol-test-sized histories).
    """
    # A pending read constrains nothing (its result was never returned),
    # so drop them up front; pending writes stay as optional candidates.
    ops = [op for op in history.ops if op.required or op.kind == "w"]
    n = len(ops)
    if n == 0:
        return True
    if n > 63:
        raise ValueError("history too large for the bitmask checker")

    all_required = 0
    for i, op in enumerate(ops):
        if op.required:
            all_required |= 1 << i
    seen: Set[Tuple[int, int]] = set()
    states = 0

    def candidates(done_mask: int) -> List[int]:
        """Ops that may be linearized next: not done, and no *other*
        pending op completes strictly before their invocation."""
        pending = [i for i in range(n) if not done_mask & (1 << i)]
        if not pending:
            return []
        min_completed = min(ops[i].completed for i in pending)
        return [i for i in pending if ops[i].invoked <= min_completed]

    def search(done_mask: int, value: int) -> bool:
        nonlocal states
        if done_mask & all_required == all_required:
            # Every completed op is linearized; the remaining (pending)
            # ops may simply never have taken effect.
            return True
        key = (done_mask, value)
        if key in seen:
            return False
        seen.add(key)
        states += 1
        if states > max_states:
            raise RuntimeError("linearizability search exploded")
        for i in candidates(done_mask):
            op = ops[i]
            if op.kind == "r":
                if op.value != value:
                    continue
                if search(done_mask | (1 << i), value):
                    return True
            else:
                if search(done_mask | (1 << i), op.value):
                    return True
        return False

    return search(0, history.initial_value)


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


def _segment_guard(n: int) -> None:
    if n > 63:
        raise ValueError(
            f"per-key concurrent burst too large for the bitmask "
            f"checker ({n} overlapping ops)")


def _final_states(ops: Sequence[KvOp], initial: Optional[bytes],
                  max_states: int) -> Set[Optional[bytes]]:
    """All states a complete linearization of ``ops`` can leave the key
    in (empty set = no legal linearization).  Only called on non-final
    segments, where every op is required and completed."""
    n = len(ops)
    _segment_guard(n)
    full = (1 << n) - 1
    seen: Set[Tuple[int, Optional[bytes]]] = set()
    finals: Set[Optional[bytes]] = set()
    states = 0

    def candidates(done_mask: int) -> List[int]:
        pending = [i for i in range(n) if not done_mask & (1 << i)]
        if not pending:
            return []
        min_completed = min(ops[i].completed for i in pending)
        return [i for i in pending if ops[i].invoked <= min_completed]

    def search(done_mask: int, state: Optional[bytes]) -> None:
        nonlocal states
        if done_mask == full:
            finals.add(state)
            return
        key = (done_mask, state)
        if key in seen:
            return
        seen.add(key)
        states += 1
        if states > max_states:
            raise RuntimeError("kv linearizability search exploded")
        for i in candidates(done_mask):
            ok, next_state = _legal(ops[i], state)
            if ok:
                search(done_mask | (1 << i), next_state)

    search(0, initial)
    return finals


def _segment_linearizable(ops: Sequence[KvOp], initial: Optional[bytes],
                          max_states: int) -> bool:
    n = len(ops)
    if n == 0:
        return True
    _segment_guard(n)
    all_required = 0
    for i, op in enumerate(ops):
        if op.required:
            all_required |= 1 << i
    seen: Set[Tuple[int, Optional[bytes]]] = set()
    states = 0

    def candidates(done_mask: int) -> List[int]:
        pending = [i for i in range(n) if not done_mask & (1 << i)]
        if not pending:
            return []
        min_completed = min(ops[i].completed for i in pending)
        return [i for i in pending if ops[i].invoked <= min_completed]

    def search(done_mask: int, state: Optional[bytes]) -> bool:
        nonlocal states
        if done_mask & all_required == all_required:
            return True
        key = (done_mask, state)
        if key in seen:
            return False
        seen.add(key)
        states += 1
        if states > max_states:
            raise RuntimeError("kv linearizability search exploded")
        for i in candidates(done_mask):
            ok, next_state = _legal(ops[i], state)
            if ok and search(done_mask | (1 << i), next_state):
                return True
        return False

    return search(0, initial)


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
            reached |= _final_states(segment, state, max_states)
        if not reached:
            return False
        possible = reached
    return any(_segment_linearizable(segments[-1], state, max_states)
               for state in sorted(possible,
                                   key=lambda s: (s is None, s)))


def reference_check_kv_linearizable(
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
