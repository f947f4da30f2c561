"""The controlled scheduler: decision-driven event ordering for the DES.

The simulation kernel serializes every effect through
:meth:`repro.sim.Environment.step`.  When several queued events share the
minimum timestamp they are *co-runnable*: the kernel's default order
(priority, then insertion) is only one of ``k!`` valid serializations, and
protocol races live exactly in that choice.  A
:class:`ControlledScheduler` intercepts the choice:

* **Replay** — a recorded *decision sequence* (one small integer per
  branch point, indexing into the canonically ordered candidate list)
  reproduces a schedule exactly; decisions beyond the sequence fall back
  to the default policy, so any prefix is a complete schedule.  Decision
  indices always refer to the *raw* co-runnable group in heap order, so a
  sequence recorded during sleep-set exploration replays byte-identically
  on a plain scheduler with no sleep state.
* **Record** — every run records the full decision trace, the candidate
  counts, and per-event *footprints* (which shared state each event's
  callbacks touched: memory words, resources, RPC endpoints, crash
  flags), which the explorer's sleep-set reduction consumes.
* **Random** — with ``rng`` set, unconstrained decisions are drawn from a
  seeded RNG instead of the default, giving seed -> schedule fuzzing that
  is still perfectly replayable from the recorded trace.

**Sleep sets.**  The explorer passes ``sleep`` entries of the form
``(branch_index, candidate_index, footprint)``: when the run reaches that
branch, the named candidate is put to sleep — it stays in the queue and
keeps its timestamp, but cannot be chosen.  A sleeper wakes as soon as a
dispatched event's footprint *conflicts* with its own (recorded in the
run that spawned the entry); until then every schedule that runs it early
is Mazurkiewicz-equivalent to one that runs it late, which is exactly the
redundancy sleep sets remove.  If every co-runnable candidate is asleep
the whole continuation is redundant and the run aborts with
:class:`RedundantSchedule`.

The scheduler also maintains a **logical clock** (bumped on every query)
used to timestamp history events: at zero simulated latency every
protocol step happens at t=0, so wall-of-simulation time cannot order
invocations and completions — the step-serialization order can, and is
the true real-time order of the execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = ["ControlledScheduler", "BranchPoint", "Footprint", "SleepEntry",
           "ScheduleBudgetExceeded", "RedundantSchedule"]


class ScheduleBudgetExceeded(Exception):
    """Raised when a controlled run exceeds its step budget (an unfair or
    divergent schedule); the explorer abandons the branch."""


class RedundantSchedule(Exception):
    """Raised when every co-runnable event is asleep: each continuation of
    this schedule is equivalent to one in an already-scheduled subtree."""


@dataclass(frozen=True)
class Footprint:
    """Shared-state accesses performed while one event was dispatched."""

    reads: FrozenSet = frozenset()
    writes: FrozenSet = frozenset()

    def conflicts(self, other: "Footprint") -> bool:
        """Two footprints conflict iff they touch a common token and at
        least one side writes it (the classical dependency relation)."""
        if self.writes & other.writes:
            return True
        if self.writes & other.reads:
            return True
        return bool(self.reads & other.writes)


# (branch index, candidate index within that branch's raw group, footprint
# the candidate exhibited in the run that created the entry).
SleepEntry = Tuple[int, int, Footprint]


@dataclass
class BranchPoint:
    """One point where >1 event was co-runnable.

    ``position`` is the global step index at which the choice was made;
    ``events`` the candidates in canonical (heap) order; ``chosen`` the
    index actually dispatched; ``sleeping`` the candidate indices that
    were asleep when the choice was made (not eligible, not worth
    re-exploring — their subtrees are covered elsewhere).
    """

    index: int
    position: int
    events: List[object]
    chosen: int
    sleeping: FrozenSet[int] = frozenset()

    @property
    def n(self) -> int:
        return len(self.events)


class ControlledScheduler:
    """Drives :meth:`Environment.step` from a decision sequence.

    Install with ``env.set_scheduler(sched)`` *before* creating any
    process whose ordering matters.  One scheduler serves one run; build
    a fresh one (and a fresh world) per explored schedule.
    """

    def __init__(self, decisions: Optional[List[int]] = None,
                 rng=None, max_steps: int = 100_000,
                 sleep: Optional[Sequence[SleepEntry]] = None):
        self.env = None
        self.decisions = list(decisions or [])
        self.rng = rng
        self.max_steps = max_steps
        # -- sleep-set state ------------------------------------------------
        self._arm: Dict[int, List[Tuple[int, Footprint]]] = {}
        for bi, ci, fp in (sleep or []):
            self._arm.setdefault(bi, []).append((ci, fp))
        self._sleeping: Dict[object, Footprint] = {}   # event -> footprint
        # -- recorded trace -------------------------------------------------
        self.trace: List[int] = []        # chosen index per branch point
        self.branch_counts: List[int] = []
        self.branches: List[BranchPoint] = []
        self.steps = 0                    # events dispatched so far
        self.timeline: List[Footprint] = []   # per-step footprints
        self._footprints = {}             # event -> Footprint
        self._clock = 0
        self._cur_reads: set = set()
        self._cur_writes: set = set()

    # ------------------------------------------------------------- clock
    def logical_clock(self) -> int:
        """A strictly increasing logical timestamp.

        Each call returns a fresh value, so two queries from the same
        process step are still ordered (program order) — which makes
        histories recorded at zero simulated latency carry true
        real-time precedence.
        """
        self._clock += 1
        return self._clock

    # ------------------------------------------------------- kernel hooks
    def select(self, env) -> Tuple:
        """Pop and return the entry to dispatch next (kernel callback)."""
        queue = env._queue
        t_min = queue[0][0]
        group = [heapq.heappop(queue)]
        while queue and queue[0][0] == t_min:
            group.append(heapq.heappop(queue))
        if len(group) == 1:
            return group[0]
        branch_idx = len(self.trace)
        # Arm sleep entries addressed to this branch (candidate indices are
        # valid because replaying the same prefix rebuilds the same group).
        for ci, fp in self._arm.pop(branch_idx, []):
            if ci < len(group):
                self._sleeping[group[ci][2]] = fp
        sleeping_idx = frozenset(
            i for i, entry in enumerate(group) if entry[2] in self._sleeping)
        allowed = [i for i in range(len(group)) if i not in sleeping_idx]
        if not allowed:
            raise RedundantSchedule(
                f"all {len(group)} co-runnable events asleep at branch "
                f"{branch_idx}")
        chosen = self._choose(len(group), allowed)
        self.branches.append(BranchPoint(
            index=branch_idx, position=self.steps,
            events=[entry[2] for entry in group], chosen=chosen,
            sleeping=sleeping_idx))
        entry = group.pop(chosen)
        for other in group:
            heapq.heappush(queue, other)
        return entry

    def _choose(self, n: int, allowed: List[int]) -> int:
        at = len(self.trace)
        if at < len(self.decisions):
            # Clamp instead of raising: the minimizer perturbs sequences,
            # and a clamped decision is still a valid (default-ish) run.
            chosen = max(0, min(self.decisions[at], n - 1))
            if chosen not in allowed:
                chosen = allowed[0]
        elif self.rng is not None:
            chosen = self.rng.choice(allowed)
        else:
            chosen = allowed[0]
        self.trace.append(chosen)
        self.branch_counts.append(n)
        return chosen

    def begin_event(self, event) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ScheduleBudgetExceeded(
                f"schedule exceeded {self.max_steps} steps")
        self._clock += 1
        self._cur_reads = set()
        self._cur_writes = set()

    def end_event(self, event) -> None:
        footprint = Footprint(frozenset(self._cur_reads),
                              frozenset(self._cur_writes))
        self._footprints[event] = footprint
        self.timeline.append(footprint)
        if self._sleeping and (footprint.reads or footprint.writes):
            # A dependent step just ran: wake every sleeper it conflicts
            # with — delaying them past this point is no longer a no-op.
            woken = [ev for ev, fp in self._sleeping.items()
                     if footprint.conflicts(fp)]
            for ev in woken:
                del self._sleeping[ev]

    def note_access(self, token, write: bool) -> None:
        if write:
            self._cur_writes.add(token)
        else:
            self._cur_reads.add(token)

    # ------------------------------------------------------------ queries
    def footprint_of(self, event) -> Optional[Footprint]:
        return self._footprints.get(event)
