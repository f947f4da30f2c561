"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` states a service-level objective over the KV
operation stream — a latency target ("p99 of search <= 8 us"), an error
-rate ceiling, or an availability floor.  Each spec defines an **error
budget**: the fraction of requests allowed to be bad (slower than the
latency threshold, failed, or unavailable).  Per window the monitor
computes the **burn rate** — the fraction of bad requests divided by
the budget, so burn 1.0 means "spending budget exactly as fast as
allowed" — and alerts Google-SRE style on *two* windows at once: the
alert fires only when both the fast window (default: the last pane) and
the slow window (default: the last 6 panes, merged) burn above the
threshold.  The fast window gives detection latency, the slow window
suppresses one-pane blips.

Specs parse from compact CLI strings (``--slo`` flags)::

    latency:search:p99:8.5     p99 of search latency <= 8.5 us
    latency:all:p99.9:40       p99.9 over all four KV ops <= 40 us
    errors:0.01                <= 1% of KV ops may fail
    availability:0.999         >= 99.9% of KV ops must succeed

Tripped windows are emitted into the tracer as ``alert.slo.<name>``
spans, so alerts land on the Chrome-trace timeline and in JSONL next to
the operations that caused them (docs/monitoring.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .windows import WindowStore

__all__ = ["SloSpec", "SloState", "KV_OPS"]

KV_OPS = ("search", "insert", "update", "delete")

# Stream names the monitor feeds from ended tracer spans.
LATENCY_STREAM = "span.latency_us.{op}"
OK_STREAM = "span.ok"
ERR_STREAM = "span.err"

# The default burn-rate rule: the fast and slow windows (panes) that must
# both burn at least the threshold.
FAST_PANES = 1
SLOW_PANES = 6
BURN_THRESHOLD = 2.0


@dataclass(frozen=True)
class SloSpec:
    """One objective.  ``budget`` is the allowed bad-request fraction."""

    kind: str                  # "latency" | "errors" | "availability"
    name: str
    op: str = "all"            # latency only: a KV op or "all"
    percentile: float = 99.0   # latency only
    threshold_us: float = 0.0  # latency only
    target: float = 0.0        # errors: max rate; availability: min rate

    @property
    def budget(self) -> float:
        if self.kind == "latency":
            return 1.0 - self.percentile / 100.0
        if self.kind == "errors":
            return self.target
        return 1.0 - self.target      # availability

    def describe(self) -> str:
        if self.kind == "latency":
            return (f"p{self.percentile:g}({self.op}) "
                    f"<= {self.threshold_us:g}us")
        if self.kind == "errors":
            return f"error rate <= {self.target:g}"
        return f"availability >= {self.target:g}"

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        """Parse a compact ``--slo`` string (see module docstring)."""
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "latency":
                op, pct, threshold = parts[1], parts[2], parts[3]
                if op != "all" and op not in KV_OPS:
                    raise ValueError(f"unknown op {op!r}")
                if not pct.startswith("p"):
                    raise ValueError("percentile must look like p99")
                percentile = float(pct[1:])
                if not 0.0 < percentile <= 100.0:
                    raise ValueError("percentile out of range")
                threshold_us = float(threshold)
                if not math.isfinite(threshold_us) or threshold_us <= 0.0:
                    raise ValueError("latency threshold must be a finite "
                                     "positive number")
                return cls(kind="latency", name=f"latency.{op}.{pct}",
                           op=op, percentile=percentile,
                           threshold_us=threshold_us)
            if kind == "errors":
                rate = float(parts[1])
                # NaN fails both range checks below, but spell the
                # rejection out: a NaN target makes every burn rate NaN.
                if not math.isfinite(rate) or not 0.0 <= rate < 1.0:
                    raise ValueError("error rate out of range")
                return cls(kind="errors", name="errors", target=rate)
            if kind == "availability":
                rate = float(parts[1])
                if not math.isfinite(rate) or not 0.0 < rate <= 1.0:
                    raise ValueError("availability out of range")
                return cls(kind="availability", name="availability",
                           target=rate)
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"bad SLO spec {text!r}: {exc} "
                "(expected latency:<op>:p<pct>:<us>, errors:<rate> "
                "or availability:<rate>)") from None
        raise ValueError(f"bad SLO spec {text!r}: unknown kind {kind!r}")


@dataclass
class SloAlert:
    """One tripped evaluation window."""

    pane: int
    t0: float
    t1: float
    burn_fast: float
    burn_slow: float
    bad: int
    total: int

    def to_dict(self) -> dict:
        return {"pane": self.pane, "t0": self.t0, "t1": self.t1,
                "burn_fast": self.burn_fast, "burn_slow": self.burn_slow,
                "bad": self.bad, "total": self.total}


class SloState:
    """Per-run evaluation state of one :class:`SloSpec`."""

    def __init__(self, spec: SloSpec, fast_panes: int = FAST_PANES,
                 slow_panes: int = SLOW_PANES,
                 burn_threshold: float = BURN_THRESHOLD,
                 min_volume: int = 20):
        self.spec = spec
        self.fast_panes = max(1, fast_panes)
        self.slow_panes = max(self.fast_panes, slow_panes)
        self.burn_threshold = burn_threshold
        self.min_volume = min_volume
        self.windows_evaluated = 0
        self.windows_tripped = 0
        self.alerts: List[SloAlert] = []

    # ---------------------------------------------------------- internals
    def _bad_total(self, store: WindowStore, pane: int,
                   k: int) -> Tuple[int, int]:
        spec = self.spec
        if spec.kind == "latency":
            sketch = store.sketch(LATENCY_STREAM.format(op=spec.op),
                                  pane, k)
            return sketch.count_above(spec.threshold_us), sketch.count
        ok = store.count(OK_STREAM, pane, k)
        err = store.count(ERR_STREAM, pane, k)
        return int(err), int(ok + err)

    def _burn(self, bad: int, total: int) -> float:
        if not total:
            return 0.0
        frac = bad / total
        budget = self.spec.budget
        if budget <= 0.0:
            return float("inf") if bad else 0.0
        return frac / budget

    # ---------------------------------------------------------- evaluate
    def evaluate(self, store: WindowStore,
                 pane: int) -> Optional[SloAlert]:
        """Evaluate the pane that just closed; returns the alert if the
        multi-window burn-rate condition trips, else ``None``."""
        self.windows_evaluated += 1
        bad_fast, total_fast = self._bad_total(store, pane, self.fast_panes)
        bad_slow, total_slow = self._bad_total(store, pane, self.slow_panes)
        if total_slow < self.min_volume:
            return None
        burn_fast = self._burn(bad_fast, total_fast)
        burn_slow = self._burn(bad_slow, total_slow)
        # NaN burns compare False against any threshold and would slip
        # past the gate below as a nonsense alert; an idle pane (zero
        # arrivals in a diurnal trough) must simply not trip.
        if math.isnan(burn_fast) or math.isnan(burn_slow):
            return None
        if burn_fast < self.burn_threshold \
                or burn_slow < self.burn_threshold:
            return None
        self.windows_tripped += 1
        alert = SloAlert(pane=pane, t0=store.pane_start(pane),
                         t1=store.pane_start(pane + 1),
                         burn_fast=burn_fast, burn_slow=burn_slow,
                         bad=bad_fast, total=total_fast)
        self.alerts.append(alert)
        return alert

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "objective": self.spec.describe(),
            "budget": self.spec.budget,
            "burn_threshold": self.burn_threshold,
            "fast_panes": self.fast_panes,
            "slow_panes": self.slow_panes,
            "windows_evaluated": self.windows_evaluated,
            "windows_tripped": self.windows_tripped,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }
