"""Delta-debugging minimizer for failing decision sequences.

A violating schedule found by the explorer is typically dozens of
decisions long, most of them incidental.  :func:`minimize_schedule`
shrinks it to a locally minimal reproducer with a ddmin-style loop over
two reduction moves, re-running the scenario after each candidate edit
and keeping only edits that still fail:

* **truncate** — drop a suffix of the sequence (replay pads missing
  decisions with the default index 0, so every prefix is a complete
  schedule);
* **zero** — reset a chunk of decisions to 0, i.e. revert those branch
  points to the kernel's canonical order.

The result is 1-minimal: no single remaining non-zero decision can be
zeroed, and no shorter prefix still fails.  :func:`format_repro` renders
the minimized schedule as a copy-pasteable pytest snippet that replays it
through the named scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .explore import MAX_STEPS
from .scheduler import ControlledScheduler, ScheduleBudgetExceeded

__all__ = ["MinimizeResult", "minimize_schedule", "format_repro"]

Scenario = Callable[[ControlledScheduler], Optional[str]]

# Scenario runs one minimization may spend; past it the sequence found
# so far is returned.
MAX_RUNS = 500


@dataclass
class MinimizeResult:
    decisions: List[int]          # the minimal failing sequence
    violation: str                # the violation it still produces
    runs: int                     # scenario executions spent minimizing
    original_length: int

    def __str__(self) -> str:
        return (f"minimized {self.original_length} -> "
                f"{len(self.decisions)} decisions in {self.runs} runs: "
                f"{self.decisions}")


def _strip_zeros(decisions: List[int]) -> List[int]:
    """Trailing zeros are no-ops under replay (padding is 0)."""
    end = len(decisions)
    while end > 0 and decisions[end - 1] == 0:
        end -= 1
    return decisions[:end]


def minimize_schedule(scenario: Scenario,
                      decisions: List[int]) -> Optional[MinimizeResult]:
    """Shrink ``decisions`` to a minimal sequence that still violates.

    Returns ``None`` if the input sequence does not reproduce a violation
    (stale trace, nondeterministic scenario) — callers should treat that
    as a bug in the scenario, not in the minimizer.
    """
    runs = 0

    def fails(candidate: List[int]) -> Optional[str]:
        nonlocal runs
        if runs >= MAX_RUNS:
            return None
        runs += 1
        sched = ControlledScheduler(decisions=candidate, max_steps=MAX_STEPS)
        try:
            return scenario(sched)
        except ScheduleBudgetExceeded:
            return None

    original = list(decisions)
    violation = fails(original)
    if violation is None:
        return None

    current = _strip_zeros(original)

    # Phase 1: binary-search the shortest failing prefix.
    lo, hi = 0, len(current)        # invariant: prefix of hi fails
    while lo < hi:
        mid = (lo + hi) // 2
        v = fails(current[:mid])
        if v is not None:
            hi = mid
            violation = v
        else:
            lo = mid + 1
    current = _strip_zeros(current[:hi])

    # Phase 2: ddmin on the non-zero entries — zero chunks, halving the
    # chunk size until single decisions; restart after any success.
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        shrunk = False
        i = 0
        while i < len(current):
            if all(d == 0 for d in current[i:i + chunk]):
                i += chunk
                continue
            candidate = current[:i] + [0] * len(current[i:i + chunk]) \
                + current[i + chunk:]
            v = fails(candidate)
            if v is not None:
                current = _strip_zeros(candidate)
                violation = v
                shrunk = True
            else:
                i += chunk
        if not shrunk:
            chunk //= 2

    return MinimizeResult(decisions=current, violation=violation,
                          runs=runs, original_length=len(decisions))


def format_repro(scenario_name: str, result: MinimizeResult,
                 mutation: Optional[str] = None) -> str:
    """Render a minimized schedule as a copy-pasteable pytest test."""
    test_name = scenario_name.replace("-", "_")
    lines = [
        "# Auto-generated reproducer — paste into a test file.",
        f"# Violation: {result.violation.splitlines()[0]}",
        "from repro.check import ControlledScheduler, SCENARIOS",
    ]
    if mutation:
        lines.append("from repro.check.mutations import MUTATIONS")
    lines += [
        "",
        "",
        f"def test_repro_{test_name}():",
        f"    scenario = SCENARIOS[{scenario_name!r}]()",
        f"    sched = ControlledScheduler(decisions={result.decisions!r})",
    ]
    if mutation:
        lines += [
            f"    with MUTATIONS[{mutation!r}]():",
            "        violation = scenario(sched)",
        ]
    else:
        lines.append("    violation = scenario(sched)")
    lines += [
        "    assert violation is not None, \"schedule no longer fails\"",
        "",
    ]
    return "\n".join(lines)
