"""Systematic schedule exploration with sleep-set (DPOR-lite) reduction.

The explorer enumerates interleavings of a *scenario* — a callable that
builds a fresh simulated world, installs the :class:`ControlledScheduler`
it is handed, runs the workload, checks its invariants, and returns
``None`` (clean) or a violation message.  Exploration is a depth-first
search over decision-sequence prefixes:

1. Run the scenario with prefix ``P`` (decisions beyond ``P`` default to
   the lowest awake candidate, the kernel's canonical order), recording
   the full trace, every branch point's candidates, and per-event
   footprints.
2. For every branch point at depth ``i >= len(P)`` (shallower points are
   someone else's subtree — expanding them here would enumerate the same
   schedule many times), push ``P' = trace[:i] + [j]`` for each awake
   alternative ``j``.
3. Repeat until the frontier drains or the schedule budget is spent.

**Sleep sets (DPOR-lite).**  Naive expansion re-explores equivalent
interleavings factorially.  Instead of *pruning* alternatives — any local
pruning rule discards subtrees containing orderings of the alternative's
causal successors, which is unsound — each child carries *sleep entries*
for its already-covered siblings: the sibling stays schedulable in the
child's run but cannot be chosen until some dispatched event's footprint
(memory words, RPC endpoints, crash flags) conflicts with it.  While it
sleeps, running it early commutes with everything that has run, so the
child would only re-create schedules its sibling's subtree already
covers; a conflict wakes it and the genuinely new orderings are explored.
Runs in which every co-runnable event sleeps abort as *redundant*.  This
is the classical sleep-set algorithm (Godefroid) with dynamically
recorded footprints as the independence relation.

Depth-bounded exploration is *exhaustive up to the bound*: every
inequivalent schedule whose branch decisions fit within ``max_decisions``
is visited (unless ``max_schedules`` truncates the run — reported via
``ExploreResult.complete``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .scheduler import (ControlledScheduler, RedundantSchedule,
                        ScheduleBudgetExceeded, SleepEntry)

__all__ = ["ScheduleExplorer", "ExploreResult"]

Scenario = Callable[[ControlledScheduler], Optional[str]]

# Events one run may dispatch before it is abandoned as unfair or
# divergent (``ExploreResult.aborted``); the minimizer replays with it too.
MAX_STEPS = 50_000


@dataclass
class ExploreResult:
    """Outcome of one exploration."""

    schedules: int = 0                 # scenario runs executed
    redundant: int = 0                 # runs aborted as sleep-set-redundant
    aborted: int = 0                   # runs that blew the step budget
    violation: Optional[str] = None
    violating_decisions: Optional[List[int]] = None
    complete: bool = False             # frontier drained, nothing truncated
    max_branch_depth: int = 0          # deepest branch point seen

    @property
    def found(self) -> bool:
        return self.violation is not None

    def summary(self) -> str:
        status = ("VIOLATION" if self.found else
                  ("exhausted" if self.complete else "budget reached"))
        return (f"{status}: {self.schedules} schedules run, "
                f"{self.redundant} redundant, {self.aborted} aborted")


class ScheduleExplorer:
    """Depth-first exploration of a scenario's schedule space."""

    def __init__(self, scenario: Scenario, *,
                 max_schedules: int = 2_000,
                 max_decisions: int = 40,
                 dpor: bool = True):
        self.scenario = scenario
        self.max_schedules = max_schedules
        self.max_decisions = max_decisions
        self.dpor = dpor

    # ----------------------------------------------------------------- run
    def run_one(self, decisions: List[int],
                sleep: Optional[Sequence[SleepEntry]] = None
                ) -> tuple[ControlledScheduler, Optional[str], bool, bool]:
        """Run the scenario once under ``decisions`` (+ sleep entries).

        Returns ``(scheduler, violation, aborted, redundant)``.
        """
        sched = ControlledScheduler(decisions=decisions,
                                    max_steps=MAX_STEPS, sleep=sleep)
        try:
            violation = self.scenario(sched)
        except ScheduleBudgetExceeded:
            return sched, None, True, False
        except RedundantSchedule:
            return sched, None, False, True
        return sched, violation, False, False

    def explore(self) -> ExploreResult:
        """Explore until the first violation, the schedule budget, or
        an exhausted frontier."""
        result = ExploreResult(complete=True)
        # Stack of (prefix, sleep entries) still to expand; seeded with the
        # canonical run (empty prefix, nothing asleep).
        frontier: List[tuple[List[int], List[SleepEntry]]] = [([], [])]
        while frontier:
            if result.schedules >= self.max_schedules:
                result.complete = False
                break
            prefix, sleep = frontier.pop()
            sched, violation, aborted, redundant = self.run_one(prefix, sleep)
            result.schedules += 1
            if sched.branch_counts:
                result.max_branch_depth = max(result.max_branch_depth,
                                              len(sched.branch_counts))
            if aborted:
                result.aborted += 1
            if redundant:
                result.redundant += 1
                continue   # covered by a sibling subtree: nothing to expand
            if violation is not None:
                result.violation = violation
                result.violating_decisions = list(sched.trace)
                result.complete = False
                return result
            self._expand(sched, prefix, sleep, aborted, frontier, result)
        if frontier:
            result.complete = False
        return result

    # -------------------------------------------------------------- expand
    def _expand(self, sched: ControlledScheduler, prefix: List[int],
                sleep: List[SleepEntry], aborted: bool,
                frontier: List[tuple[List[int], List[SleepEntry]]],
                result: ExploreResult) -> None:
        depth_cap = min(len(sched.trace), self.max_decisions)
        if len(sched.trace) > self.max_decisions:
            # Branch points beyond the bound exist but won't be expanded.
            result.complete = False
        for bp in sched.branches:
            i = bp.index
            if i < len(prefix) or i >= depth_cap:
                continue
            # Sleeping candidates are covered by subtrees already on (or
            # through) the frontier; expanding them would double-count.
            siblings = [j for j in range(bp.n)
                        if j != bp.chosen and j not in bp.sleeping]
            # Each child puts the branch's already-covered choices to
            # sleep: the baseline's pick, plus every sibling enumerated
            # before it.  A sibling whose footprint is unknown (it never
            # ran before the scenario ended) cannot be slept soundly and
            # is simply left out — later children may re-explore it.
            covered: List[SleepEntry] = []
            if not aborted:
                fp_chosen = sched.footprint_of(bp.events[bp.chosen])
                if fp_chosen is not None:
                    covered.append((i, bp.chosen, fp_chosen))
            for j in siblings:
                child_sleep = sleep + covered if self.dpor else []
                frontier.append((sched.trace[:i] + [j], child_sleep))
                if not aborted:
                    fp_j = sched.footprint_of(bp.events[j])
                    if fp_j is not None:
                        covered.append((i, j, fp_j))
