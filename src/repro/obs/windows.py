"""Views over simulated-time windows: tumbling panes, sliding merges.

Whole-run aggregates (``Histogram``, end-of-run counters) cannot see a
30-second latency storm — a storm and a healthy run produce the same
final p99.  :class:`WindowStore` fixes that by bucketing every
observation into **tumbling panes** of ``width_us`` simulated
microseconds (pane ``k`` covers ``[k * width_us, (k + 1) * width_us)``)
and answering per-window rate / p50 / p99 queries per pane, or over a
**sliding window** of ``k`` consecutive panes by merging their
:class:`~repro.obs.sketches.DDSketch` states (merging is exact, so the
relative-error bound survives).

Pane boundaries are a pure function of simulated time
(``int(t // width_us)``), so window edges are byte-identical across
same-seed runs (tests/test_trace_determinism.py).
"""

from __future__ import annotations

from typing import Dict, List

from .sketches import DDSketch

__all__ = ["WindowStore"]


class WindowStore:
    """Per-pane counters and quantile sketches.

    ``env`` supplies simulated time; instruments read ``env.now`` at
    observation time so call sites never pass timestamps.  Memory is
    bounded by :meth:`prune` — the monitor drops panes older than its
    longest sliding window after evaluating them.
    """

    def __init__(self, env, width_us: float, alpha: float = 0.01):
        if width_us <= 0.0:
            raise ValueError("window width must be > 0")
        self.env = env
        self.width_us = width_us
        self.alpha = alpha
        # name -> pane -> value
        self.counts: Dict[str, Dict[int, float]] = {}
        self.sketches: Dict[str, Dict[int, DDSketch]] = {}

    # ------------------------------------------------------------- panes
    def pane_of(self, t: float) -> int:
        return int(t // self.width_us)

    @property
    def current_pane(self) -> int:
        return self.pane_of(self.env.now)

    def pane_start(self, pane: int) -> float:
        return pane * self.width_us

    def panes(self) -> List[int]:
        """Sorted pane indices that received any observation."""
        seen = set()
        for per_pane in self.counts.values():
            seen.update(per_pane)
        for per_pane in self.sketches.values():
            seen.update(per_pane)
        return sorted(seen)

    # -------------------------------------------------------------- feed
    def inc(self, name: str, n: float = 1) -> None:
        pane = int(self.env.now // self.width_us)
        per_pane = self.counts.get(name)
        if per_pane is None:
            per_pane = self.counts[name] = {}
        per_pane[pane] = per_pane.get(pane, 0) + n

    def observe(self, name: str, value: float) -> None:
        pane = int(self.env.now // self.width_us)
        per_pane = self.sketches.get(name)
        if per_pane is None:
            per_pane = self.sketches[name] = {}
        sketch = per_pane.get(pane)
        if sketch is None:
            sketch = per_pane[pane] = DDSketch(self.alpha)
        sketch.add(value)

    # ------------------------------------------------------------ queries
    def count(self, name: str, pane: int, k: int = 1) -> float:
        """Total of counter ``name`` over panes ``(pane-k, pane]``."""
        per_pane = self.counts.get(name)
        if not per_pane:
            return 0
        return sum(per_pane.get(p, 0) for p in range(pane - k + 1, pane + 1))

    def rate(self, name: str, pane: int, k: int = 1) -> float:
        """Counter rate per simulated microsecond over the window."""
        return self.count(name, pane, k) / (self.width_us * k)

    def sketch(self, name: str, pane: int, k: int = 1) -> DDSketch:
        """The quantile sketch for ``name`` over panes ``(pane-k, pane]``.

        ``k=1`` returns the tumbling pane's own sketch; ``k>1`` merges
        ``k`` consecutive panes into a sliding-window view (fresh
        object, exact merge — the ``alpha`` bound is preserved).
        """
        per_pane = self.sketches.get(name, {})
        if k == 1:
            sketch = per_pane.get(pane)
            return sketch if sketch is not None else DDSketch(self.alpha)
        return DDSketch.merged(
            (per_pane[p] for p in range(pane - k + 1, pane + 1)
             if p in per_pane),
            alpha=self.alpha)

    # ------------------------------------------------------------- prune
    def prune(self, before_pane: int) -> None:
        """Drop state of panes strictly older than ``before_pane``."""
        for table in (self.counts, self.sketches):
            for name in list(table):
                per_pane = table[name]
                for pane in [p for p in per_pane if p < before_pane]:
                    del per_pane[pane]
                if not per_pane:
                    del table[name]
