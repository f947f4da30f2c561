"""Windowed views over simulated time: tumbling panes, sliding merges.

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

:class:`windowed_metrics` builds a :class:`~repro.obs.metrics.Metrics`
registry whose instruments *also* feed a ``WindowStore`` — existing call
sites (``metrics.counter("ops.search").inc()``) gain per-window views
without any changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .metrics import Counter, Gauge, Histogram, Metrics, TimeSeries
from .sketches import DDSketch

__all__ = ["WindowStore", "WindowedCounter", "WindowedGauge",
           "WindowedHistogram", "WindowedTimeSeries", "windowed_metrics"]


class WindowStore:
    """Per-pane counters, gauges and quantile sketches.

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
        self.gauges: Dict[str, Dict[int, float]] = {}
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
        for per_pane in self.gauges.values():
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

    def set_gauge(self, name: str, value: float) -> None:
        pane = int(self.env.now // self.width_us)
        per_pane = self.gauges.get(name)
        if per_pane is None:
            per_pane = self.gauges[name] = {}
        per_pane[pane] = value

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

    def gauge(self, name: str, pane: int) -> Optional[float]:
        per_pane = self.gauges.get(name)
        return per_pane.get(pane) if per_pane else None

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

    def pane_summary(self, pane: int) -> dict:
        """Per-window rate/p50/p99 view of every instrument (sorted)."""
        width = self.width_us
        out: dict = {"pane": pane, "t0": pane * width, "t1": (pane + 1) * width}
        counters = {}
        for name in sorted(self.counts):
            n = self.counts[name].get(pane, 0)
            if n:
                counters[name] = {"count": n, "rate_per_us": n / width}
        quantiles = {}
        for name in sorted(self.sketches):
            sketch = self.sketches[name].get(pane)
            if sketch is not None and sketch.count:
                quantiles[name] = {"count": sketch.count,
                                   "mean": sketch.mean,
                                   "p50": sketch.quantile(0.50),
                                   "p99": sketch.quantile(0.99),
                                   "max": sketch.max_seen}
        gauges = {name: per_pane[pane]
                  for name, per_pane in sorted(self.gauges.items())
                  if pane in per_pane}
        out["counters"] = counters
        out["quantiles"] = quantiles
        if gauges:
            out["gauges"] = gauges
        return out

    # ------------------------------------------------------------- prune
    def prune(self, before_pane: int) -> None:
        """Drop state of panes strictly older than ``before_pane``."""
        for table in (self.counts, self.gauges, self.sketches):
            for name in list(table):
                per_pane = table[name]
                for pane in [p for p in per_pane if p < before_pane]:
                    del per_pane[pane]
                if not per_pane:
                    del table[name]


# ---------------------------------------------------------------------------
# Windowed instrument proxies: drop-in replacements that feed the base
# instrument *and* the window store.  They expose the base attributes
# call sites read (`value`, `summary()`, percentiles), so `Metrics`
# snapshots and reports work unchanged.
# ---------------------------------------------------------------------------
class WindowedCounter:
    __slots__ = ("base", "store", "name")

    def __init__(self, base: Counter, store: WindowStore, name: str):
        self.base = base
        self.store = store
        self.name = name

    @property
    def value(self):
        return self.base.value

    def inc(self, n: int = 1) -> None:
        self.base.inc(n)
        self.store.inc(self.name, n)


class WindowedGauge:
    __slots__ = ("base", "store", "name")

    def __init__(self, base: Gauge, store: WindowStore, name: str):
        self.base = base
        self.store = store
        self.name = name

    @property
    def value(self):
        return self.base.value

    def set(self, value: float) -> None:
        self.base.set(value)
        self.store.set_gauge(self.name, value)


class WindowedHistogram:
    __slots__ = ("base", "store", "name")

    def __init__(self, base: Histogram, store: WindowStore, name: str):
        self.base = base
        self.store = store
        self.name = name

    def observe(self, value: float) -> None:
        self.base.observe(value)
        self.store.observe(self.name, value)

    # read-side delegation (reports, snapshots, tests)
    @property
    def count(self):
        return self.base.count

    @property
    def mean(self):
        return self.base.mean

    def percentile(self, p: float) -> float:
        return self.base.percentile(p)

    def summary(self) -> dict:
        return self.base.summary()


class WindowedTimeSeries:
    """Sampler series that also lands in a per-window quantile sketch,
    so fabric utilisation/backlog gain p50/p99-per-window views."""

    __slots__ = ("base", "store", "name")

    def __init__(self, base: TimeSeries, store: WindowStore, name: str):
        self.base = base
        self.store = store
        self.name = name

    def record(self, t: float, value: float) -> None:
        self.base.record(t, value)
        self.store.observe(self.name, value)

    @property
    def points(self):
        return self.base.points

    @property
    def values(self):
        return self.base.values

    def mean(self) -> float:
        return self.base.mean()

    def peak(self) -> float:
        return self.base.peak()

    def summary(self) -> dict:
        return self.base.summary()


class _WindowedMetrics(Metrics):
    """A registry whose instruments mirror into a :class:`WindowStore`."""

    def __init__(self, store: WindowStore,
                 max_series_points: Optional[int] = None):
        super().__init__(max_series_points=max_series_points)
        self.windows = store

    def counter(self, name: str):
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = WindowedCounter(
                Counter(), self.windows, name)
        return inst

    def gauge(self, name: str):
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = WindowedGauge(
                Gauge(), self.windows, name)
        return inst

    def histogram(self, name: str, base: float = 0.1,
                  growth: float = 2 ** 0.25):
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = WindowedHistogram(
                Histogram(base, growth), self.windows, name)
        return inst

    def timeseries(self, name: str):
        inst = self.series.get(name)
        if inst is None:
            inst = self.series[name] = WindowedTimeSeries(
                TimeSeries(max_points=self.max_series_points),
                self.windows, name)
        return inst


def windowed_metrics(store: WindowStore,
                     max_series_points: Optional[int] = None) -> Metrics:
    """A :class:`Metrics` registry that mirrors every observation into
    ``store``, giving existing call sites per-window views for free."""
    return _WindowedMetrics(store, max_series_points=max_series_points)
