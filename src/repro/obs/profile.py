"""Simulated-time profiler: exact latency attribution for spans.

The tracer (PR 1) records *that* an op took N RTTs; this module records
*where* the simulated microseconds went.  Instrumented layers emit typed
time intervals through ``env.profiler``:

====================  =====================================================
category              emitted by
====================  =====================================================
``cpu_service``       :class:`repro.sim.Resource` (core held: handler time)
``cpu_wait``          :class:`repro.sim.Resource` (FIFO queue time)
``nic_service``       :class:`repro.sim.NicPort` (slot on the wire)
``nic_wait``          :class:`repro.sim.NicPort` (serialisation queue)
``backoff``           retry/timeout sleeps (``Environment.attributed_timeout``)
``propagation``       link travel time (fabric / RpcServer)
``client``            client-side post overhead
====================  =====================================================

Whatever a span's intervals do not cover is the **client compute**
residual — time the client process spent between fabric interactions.
Per-span breakdowns are a *partition* of ``[start_us, end_us]``: the
span's intervals are clipped to the window and each elementary segment is
charged to the highest-priority covering category, so the breakdown is
additive by construction (enforced by ``tests/test_profile.py``).

Attribution works without explicit context passing, like the tracer:
``current_span`` resolves (1) an explicit batch override (fire-and-forget
batches are posted inside the client's step but never waited on, so their
time must stay out of the span), then (2) the tracer's per-process span
stack, then (3) explicit process bindings registered by the fabric for
its spawned delivery/RPC processes.

Disabled cost: every instrumentation site checks ``env.profiler is
None`` — one attribute read, covered by the <5% guard in
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["CATEGORIES", "RESIDUAL", "Profiler", "span_breakdown",
           "RunProfile", "profile_report"]

#: Overlap-resolution priority (first wins).  Service beats wait beats
#: sleeps beats wire time: when a NIC-service slot overlaps the request's
#: propagation window, the segment is NIC service, not propagation.
CATEGORIES: Tuple[str, ...] = ("cpu_service", "cpu_wait", "nic_service",
                               "nic_wait", "backoff", "propagation",
                               "client")
_PRIORITY = {cat: i for i, cat in enumerate(CATEGORIES)}

_UNSET = object()   # "span not passed" sentinel (None is meaningful)

#: Residual bucket: span time covered by no interval.
RESIDUAL: Tuple[str, str] = ("client", "compute")


class Profiler:
    """Collects typed time intervals and attributes them to spans.

    ``tracer`` provides span context (the per-process span stacks); the
    profiler works with any tracer, including one private to the profile
    harness when the system under test does not trace itself (the
    baseline beds).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.env = None
        #: Flat interval log: ``(span|None, category, label, t0, t1)``.
        self.intervals: List[tuple] = []
        self._override: List[object] = []
        self._bindings: Dict[object, object] = {}

    # ---------------------------------------------------------- lifecycle
    def install(self, env) -> "Profiler":
        """Hook into ``env`` (sets ``env.profiler``); returns self."""
        if self.tracer is not None:
            self.tracer.bind(env)
        self.env = env
        env.profiler = self
        return self

    def uninstall(self) -> None:
        if self.env is not None and self.env.profiler is self:
            self.env.profiler = None

    def clear(self) -> None:
        """Drop recorded intervals (bindings of live processes are kept)."""
        self.intervals = []

    # -------------------------------------------------- span resolution
    def current_span(self):
        if self._override:
            return self._override[-1]
        if self.tracer is not None:
            span = self.tracer.current_span()
            if span is not None:
                return span
        env = self.env
        proc = env.active_process if env is not None else None
        if proc is not None:
            return self._bindings.get(proc)
        return None

    def bind(self, proc, span) -> None:
        """Attribute intervals emitted inside ``proc`` to ``span``.

        Used by the fabric for spawned delivery/RPC processes, whose
        ``active_process`` is not the client's.  ``span=None`` explicitly
        suppresses span attribution (unsignaled batches).  The binding is
        removed when the process completes.
        """
        self._bindings[proc] = span
        proc.callbacks.append(self._unbind)

    def _unbind(self, proc) -> None:
        self._bindings.pop(proc, None)

    def begin_batch(self, span) -> None:
        """Override span resolution for a synchronous batch post."""
        self._override.append(span)

    def end_batch(self) -> None:
        self._override.pop()

    # ------------------------------------------------------- recording
    def note(self, category: str, label: str, t0: float, t1: float,
             span=_UNSET) -> None:
        """Record one interval; ``span`` defaults to the active span."""
        if t1 <= t0:
            return
        if span is _UNSET:
            span = self.current_span()
        self.intervals.append((span, category, label, t0, t1))

    def note_nic(self, label: str, arrive: float, start: float,
                 end: float) -> None:
        """NIC occupancy: queueing ``[arrive, start)``, then service."""
        span = self.current_span()
        if start > arrive:
            self.intervals.append((span, "nic_wait", label, arrive, start))
        if end > start:
            self.intervals.append((span, "nic_service", label, start, end))

    # --------------------------------------------------------- queries
    def intervals_of(self, span) -> List[Tuple[str, str, float, float]]:
        return [(cat, label, t0, t1)
                for s, cat, label, t0, t1 in self.intervals if s is span]

    def breakdown(self, span) -> Dict[Tuple[str, str], float]:
        """Partition ``[span.start_us, span.end_us]``; see module doc."""
        if span.end_us is None:
            raise ValueError("cannot attribute an unfinished span")
        return span_breakdown(self.intervals_of(span), span.start_us,
                              span.end_us)


def span_breakdown(intervals, t0: float, t1: float
                   ) -> Dict[Tuple[str, str], float]:
    """Partition ``[t0, t1]`` over ``(category, label, a, b)`` intervals.

    Each elementary segment between interval boundaries is charged to the
    highest-priority covering interval; uncovered segments go to
    :data:`RESIDUAL`.  The result's values sum to ``t1 - t0`` (exactly in
    exact arithmetic; to float precision here).
    """
    out: Dict[Tuple[str, str], float] = {}
    if t1 <= t0:
        return out
    clipped = []
    points = {t0, t1}
    for cat, label, a, b in intervals:
        a = max(a, t0)
        b = min(b, t1)
        if b > a:
            clipped.append((_PRIORITY[cat], cat, label, a, b))
            points.add(a)
            points.add(b)
    bounds = sorted(points)
    for lo, hi in zip(bounds, bounds[1:]):
        best = None
        for pr, cat, label, a, b in clipped:
            if a <= lo and b >= hi and (best is None or pr < best[0]):
                best = (pr, cat, label)
        key = (best[1], best[2]) if best is not None else RESIDUAL
        out[key] = out.get(key, 0.0) + (hi - lo)
    return out


class RunProfile:
    """Aggregated attribution for a whole run.

    ``ops``       per op-kind: count, total/mean duration, breakdown
                  (``"category:label" -> us``) summed over ended spans;
    ``overall``   the same summed over every ended span;
    ``resources`` per label: total wait and service time *demanded* (all
                  intervals, span-attributed or not — a resource's view);
    ``tail``      breakdown restricted to the slowest ``tail_pct`` percent
                  of spans — where "a majority of p99 latency" claims are
                  checked.
    """

    def __init__(self):
        self.ops: Dict[str, dict] = {}
        self.overall: dict = {"count": 0, "total_us": 0.0, "breakdown": {}}
        self.resources: Dict[str, dict] = {}
        self.tail: dict = {"pct": 0.0, "count": 0, "total_us": 0.0,
                           "breakdown": {}}
        self.unfinished_spans = 0

    # ------------------------------------------------------------ build
    @classmethod
    def collect(cls, profiler: Profiler, spans, tail_pct: float = 99.0
                ) -> "RunProfile":
        """Aggregate ``spans`` (e.g. ``tracer.spans``) against ``profiler``.

        Unfinished spans (cut off at the run deadline) are counted and
        skipped — they have no defined duration to partition.
        """
        if not 0 <= tail_pct <= 100:   # also rejects NaN
            raise ValueError(f"tail_pct={tail_pct!r} outside [0, 100]")
        prof = cls()
        by_span: Dict[int, List[tuple]] = {}
        for span, cat, label, a, b in profiler.intervals:
            if span is not None:
                by_span.setdefault(id(span), []).append((cat, label, a, b))
            res = prof.resources.setdefault(
                label, {"wait_us": 0.0, "service_us": 0.0, "other_us": 0.0})
            if cat in ("cpu_wait", "nic_wait"):
                res["wait_us"] += b - a
            elif cat in ("cpu_service", "nic_service"):
                res["service_us"] += b - a
            else:
                res["other_us"] += b - a

        ended = []
        for span in spans:
            if span.end_us is None:
                prof.unfinished_spans += 1
                continue
            parts = span_breakdown(by_span.get(id(span), ()),
                                   span.start_us, span.end_us)
            ended.append((span, parts))
            prof._add(prof.overall, span, parts)
            entry = prof.ops.setdefault(
                span.op, {"count": 0, "total_us": 0.0, "breakdown": {}})
            prof._add(entry, span, parts)

        # Tail: the slowest (100 - tail_pct)% of ended spans.
        prof.tail["pct"] = tail_pct
        if ended:
            durations = sorted(s.duration_us for s, _p in ended)
            rank = min(len(durations) - 1,
                       max(0, math.ceil(tail_pct / 100.0 * len(durations))
                           - 1))
            threshold = durations[rank]
            for span, parts in ended:
                if span.duration_us >= threshold:
                    prof._add(prof.tail, span, parts)
        return prof

    @staticmethod
    def _add(entry: dict, span, parts: Dict[Tuple[str, str], float]) -> None:
        entry["count"] += 1
        entry["total_us"] += span.duration_us
        breakdown = entry["breakdown"]
        for (cat, label), us in parts.items():
            key = f"{cat}:{label}"
            breakdown[key] = breakdown.get(key, 0.0) + us

    # ---------------------------------------------------------- queries
    @staticmethod
    def _share(entry: dict, category: str, label: Optional[str] = None
               ) -> float:
        total = entry["total_us"]
        if total <= 0.0:
            return 0.0
        hit = 0.0
        for key, us in entry["breakdown"].items():
            cat, _, lbl = key.partition(":")
            if cat == category and (label is None or lbl == label):
                hit += us
        return hit / total

    def share(self, category: str, op: Optional[str] = None,
              label: Optional[str] = None) -> float:
        """Fraction of attributed time in ``category`` (0..1)."""
        entry = self.overall if op is None else self.ops.get(
            op, {"count": 0, "total_us": 0.0, "breakdown": {}})
        return self._share(entry, category, label)

    def tail_share(self, category: str, label: Optional[str] = None
                   ) -> float:
        """Like :meth:`share`, over the slowest-tail spans only."""
        return self._share(self.tail, category, label)

    def to_dict(self) -> dict:
        """Plain-data view with sorted keys (deterministic JSON)."""
        def _entry(entry):
            out = {"count": entry["count"],
                   "total_us": round(entry["total_us"], 6),
                   "mean_us": round(entry["total_us"] / entry["count"], 6)
                   if entry["count"] else 0.0,
                   "breakdown_us": {k: round(v, 6) for k, v
                                    in sorted(entry["breakdown"].items())}}
            if "pct" in entry:
                out["pct"] = entry["pct"]
            return out

        return {
            "overall": _entry(self.overall),
            "tail": _entry(self.tail),
            "ops": {op: _entry(self.ops[op]) for op in sorted(self.ops)},
            "resources": {label: {k: round(v, 6) for k, v
                                  in sorted(self.resources[label].items())}
                          for label in sorted(self.resources)},
            "unfinished_spans": self.unfinished_spans,
        }


def profile_report(profile: RunProfile) -> str:
    """Aligned text rendering of a :class:`RunProfile`."""
    lines: List[str] = []

    def _render(title: str, entry: dict) -> None:
        total = entry["total_us"]
        lines.append(f"{title}: {entry['count']} spans, "
                     f"{total:.1f} us attributed")
        for key, us in sorted(entry["breakdown"].items(),
                              key=lambda kv: (-kv[1], kv[0])):
            pct = 100.0 * us / total if total else 0.0
            lines.append(f"  {key:<36} {us:>12.2f} us  {pct:5.1f}%")

    _render("overall", profile.overall)
    lines.append("")
    _render(f"slowest tail (>= p{profile.tail['pct']:g})", profile.tail)
    for op in sorted(profile.ops):
        lines.append("")
        _render(f"op {op}", profile.ops[op])
    if profile.resources:
        lines.append("")
        lines.append("resources (all demand, including unsignaled):")
        for label in sorted(profile.resources):
            res = profile.resources[label]
            lines.append(f"  {label:<24} service={res['service_us']:>12.2f} "
                         f"us  wait={res['wait_us']:>12.2f} us")
    if profile.unfinished_spans:
        lines.append("")
        lines.append(f"({profile.unfinished_spans} spans still in flight "
                     "at the deadline were skipped)")
    return "\n".join(lines)
