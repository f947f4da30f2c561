"""Deterministic schedule exploration and concurrency checking.

The pieces (see docs/checking.md for the full story):

* :class:`ControlledScheduler` — drives the DES kernel's event choice
  from a recorded decision sequence (replay), a seeded RNG (fuzz), or
  the default policy, recording decisions + per-event footprints.
* :class:`ScheduleExplorer` — depth-bounded exhaustive exploration with
  DPOR-lite sleep-set pruning over the footprints.
* :func:`minimize_schedule` — delta-debugs a failing decision sequence
  to a minimal reproducer; :func:`format_repro` prints it as a test.
* :data:`SCENARIOS` — zero-latency slot- and cluster-level workloads
  with invariant + linearizability checks.
* :data:`MUTATIONS` — known-bad protocol mutations the explorer must
  catch within the budgets in :data:`MUTATION_SPECS`.
"""

from .._lazy import lazy_exports
from .history import LogicalClockTracer, kv_ops_from_spans

# The explorer and its scenarios, mutations and minimiser are imported
# when first named: a bed only turns spans into a history.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".explore": ("ExploreResult", "ScheduleExplorer"),
    ".minimize": ("MinimizeResult", "format_repro", "minimize_schedule"),
    ".mutations": ("MUTATION_SPECS", "MUTATIONS", "MutationSpec"),
    ".scenarios": ("SCENARIOS",),
    ".scheduler": ("BranchPoint", "ControlledScheduler", "Footprint",
                   "RedundantSchedule", "ScheduleBudgetExceeded"),
})

__all__ = [
    "ControlledScheduler",
    "BranchPoint",
    "Footprint",
    "ScheduleBudgetExceeded",
    "RedundantSchedule",
    "ScheduleExplorer",
    "ExploreResult",
    "minimize_schedule",
    "MinimizeResult",
    "format_repro",
    "kv_ops_from_spans",
    "LogicalClockTracer",
    "SCENARIOS",
    "MUTATIONS",
    "MUTATION_SPECS",
    "MutationSpec",
]
