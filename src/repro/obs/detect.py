"""Comparative gray-failure detection over windowed service times.

A gray failure (degraded-but-not-dead hardware: a slow NIC port, an
overheating MN, a wedged RPC core) is invisible to liveness checks — the
node still answers, just slowly.  The classic detection strategy is
**peer comparison**: in a homogeneous cluster, every MN / NIC port / RPC
shard should serve like its peers, so a scope whose per-window
service-time median diverges from the peer group is suspect.

Per closed window the detector scores every scope against its peers:

* **Service rule** — observations are per-delivery NIC/CPU service
  times, bucketed by *family* ``(verb kind, payload-size octave)`` (or
  RPC handler name) so scopes are only ever compared on like-for-like
  work, never confounded by a different verb or payload mix.  For each
  (peer class, family) with enough volume, a scope's median ``x`` is
  compared to the median of its peers' medians (leave-one-out):
  flagged when ``x / peer_median >= rel_threshold`` (default 2.0 —
  campaign gray factors are 4-8x) **and**, when 4+ peers exist, the
  robust z-score ``0.6745 * (x - peer_median) / MAD`` clears
  ``z_threshold`` (the MAD is floored at 5% of the peer median so a
  zero-variance clean group cannot divide by zero).  In a clean
  homogeneous bed every scope's median is the same pure function of
  (profile, verb, bytes), so the ratio is exactly 1.0 and the clean
  false-positive rate is structurally zero.
* **Drop rule** — a port whose requests vanish (port-scoped partition
  or link fault) produces *no* service observations, so it is caught by
  its per-window drop rate instead: flagged when
  ``drops / (drops + ops) >= drop_rate_threshold`` with at least
  ``drop_min_attempts`` attempts while the peer-median drop rate stays
  under 10%.

Scopes are labelled like the profiler's resources: ``mn0`` (whole-MN
verb service), ``mn0.nic_tx.p2`` (one port of a multi-queue NIC),
``mn0.cpu`` / ``mn0.cpu.s1`` (RPC shard).  Peer classes keep rx ports,
tx ports, MNs and shards in separate comparison pools.

:func:`detector_verdict` turns flags plus a seeded
:class:`~repro.faults.model.FaultPlan` into the campaign acceptance
verdict: every gray node / port-scoped fault must be flagged within a
bounded number of windows of onset, and every flag must be explained by
an active fault (unexplained flags are the false positives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .sketches import DDSketch

__all__ = ["DetectorFlag", "GrayDetector", "detector_verdict"]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _scope_class(scope: str) -> str:
    if ".nic_rx" in scope:
        return "rx-port"
    if ".nic_tx" in scope:
        return "tx-port"
    if ".cpu" in scope:
        return "shard"
    return "mn"


@dataclass
class DetectorFlag:
    """One (scope, window) anomaly."""

    scope: str
    scope_class: str
    kind: str            # "service" | "drops"
    family: str
    pane: int
    t0: float
    t1: float
    value: float         # median service us, or drop rate
    peer: float          # peer median of the same quantity
    rel: float
    z: float
    count: int

    def to_dict(self) -> dict:
        return {"scope": self.scope, "class": self.scope_class,
                "kind": self.kind, "family": self.family,
                "pane": self.pane, "t0": self.t0, "t1": self.t1,
                "value": self.value, "peer": self.peer,
                "rel": self.rel, "z": self.z, "count": self.count}


class GrayDetector:
    """Per-window peer-comparison scoring (see module docstring)."""

    def __init__(self, alpha: float = 0.01, rel_threshold: float = 2.0,
                 z_threshold: float = 3.5, min_count: int = 8,
                 min_gap_us: float = 0.05,
                 drop_rate_threshold: float = 0.5,
                 drop_min_attempts: int = 5):
        self.alpha = alpha
        self.rel_threshold = rel_threshold
        self.z_threshold = z_threshold
        self.min_count = min_count
        self.min_gap_us = min_gap_us
        self.drop_rate_threshold = drop_rate_threshold
        self.drop_min_attempts = drop_min_attempts
        # pane -> (scope, family) -> sketch of service times
        self._panes: Dict[int, Dict[Tuple[str, str], DDSketch]] = {}
        self.scopes_seen: set = set()
        self.flags: List[DetectorFlag] = []

    # -------------------------------------------------------------- feed
    def observe(self, pane: int, scope: str, family: str, value: float,
                n: int = 1) -> None:
        per_pane = self._panes.get(pane)
        if per_pane is None:
            per_pane = self._panes[pane] = {}
        key = (scope, family)
        sketch = per_pane.get(key)
        if sketch is None:
            sketch = per_pane[key] = DDSketch(self.alpha)
            self.scopes_seen.add(scope)
        sketch.add(value, n)

    # ---------------------------------------------------------- evaluate
    def evaluate(self, pane: int, t0: float, t1: float,
                 port_rates: Optional[Dict[str, Tuple[int, int]]] = None,
                 ) -> List[DetectorFlag]:
        """Score the pane that just closed; returns (and records) flags.

        ``port_rates`` maps port label -> ``(ops, drops)`` deltas for
        the pane (from ``FabricStats.per_port_ops`` /
        ``per_port_drops``), driving the drop rule.
        """
        flags = self._service_flags(pane, t0, t1)
        if port_rates:
            flags.extend(self._drop_flags(pane, t0, t1, port_rates))
        self.flags.extend(flags)
        return flags

    def _service_flags(self, pane: int, t0: float,
                       t1: float) -> List[DetectorFlag]:
        per_pane = self._panes.get(pane)
        if not per_pane:
            return []
        # (class, family) -> list of (scope, median, count)
        groups: Dict[Tuple[str, str], List[Tuple[str, float, int]]] = {}
        for (scope, family), sketch in per_pane.items():
            if sketch.count < self.min_count:
                continue
            groups.setdefault((_scope_class(scope), family), []).append(
                (scope, sketch.quantile(0.5), sketch.count))
        flags = []
        for (scope_class, family), rows in sorted(groups.items()):
            if len(rows) < 2:
                continue
            for scope, x, count in sorted(rows):
                others = [m for s, m, _c in rows if s != scope]
                peer_med = _median(others)
                if x - peer_med < self.min_gap_us:
                    continue
                rel = x / peer_med if peer_med > 0.0 else float("inf")
                mad = _median([abs(m - peer_med) for m in others])
                mad = max(mad, 0.05 * peer_med, 1e-9)
                z = 0.6745 * (x - peer_med) / mad
                if rel < self.rel_threshold:
                    continue
                if len(others) >= 4 and z < self.z_threshold:
                    continue
                flags.append(DetectorFlag(
                    scope=scope, scope_class=scope_class, kind="service",
                    family=family, pane=pane, t0=t0, t1=t1, value=x,
                    peer=peer_med, rel=rel, z=z, count=count))
        return flags

    def _drop_flags(self, pane: int, t0: float, t1: float,
                    port_rates: Dict[str, Tuple[int, int]],
                    ) -> List[DetectorFlag]:
        rates = {}
        for label, (ops, drops) in port_rates.items():
            attempts = ops + drops
            if attempts >= self.drop_min_attempts:
                rates[label] = (drops / attempts, attempts, drops)
        if len(rates) < 2:
            return []
        flags = []
        for label, (rate, attempts, drops) in sorted(rates.items()):
            if drops == 0 or rate < self.drop_rate_threshold:
                continue
            others = [r for other, (r, _a, _d) in rates.items()
                      if other != label]
            peer_med = _median(others)
            if peer_med > 0.1:
                continue    # cluster-wide loss, not a scoped fault
            rel = rate / peer_med if peer_med > 0.0 else float("inf")
            flags.append(DetectorFlag(
                scope=label, scope_class=_scope_class(label),
                kind="drops", family="drop_rate", pane=pane, t0=t0, t1=t1,
                value=rate, peer=peer_med, rel=rel,
                z=float("inf") if peer_med == 0.0 else rel,
                count=attempts))
        return flags

    # ------------------------------------------------------------- prune
    def prune(self, before_pane: int) -> None:
        for pane in [p for p in self._panes if p < before_pane]:
            del self._panes[pane]

    def to_dict(self) -> dict:
        return {
            "rel_threshold": self.rel_threshold,
            "z_threshold": self.z_threshold,
            "min_count": self.min_count,
            "scopes_seen": sorted(self.scopes_seen),
            "flags": [flag.to_dict() for flag in self.flags],
        }


# ---------------------------------------------------------------------------
# Campaign verdicts: flags vs the seeded fault plan
# ---------------------------------------------------------------------------
def _covers(mn_id: int, port: Optional[int], scope: str) -> bool:
    """Does a fault on ``mn_id`` (optionally scoped to ``port``) cover a
    flag on ``scope``?"""
    if not (scope == f"mn{mn_id}" or scope.startswith(f"mn{mn_id}.")):
        return False
    if port is None:
        return True
    # Port-scoped: the MN-level rollup or the matching port index.
    return "." not in scope or scope.endswith(f".p{port}")


def _active(start_us: float, end_us: float, t0: float, t1: float,
            slack_us: float) -> bool:
    return start_us < t1 and end_us > t0 - slack_us


def detector_verdict(plan, flags: List[DetectorFlag], width_us: float,
                     windows: int = 3,
                     traffic_end_us: Optional[float] = None) -> dict:
    """Score detector output against a seeded fault plan.

    *Expected*: every ``GrayNode`` and every port-scoped
    ``Partition``/lossy ``LinkFault`` must have a covering flag whose
    window closes within ``windows`` panes of the fault's onset.  A
    comparative detector can only see faults that requests actually
    experience, so with ``traffic_end_us`` set (the completion time of
    the run's last KV op) faults whose onset falls after it are not
    expected — e.g. a gray window seeded into a campaign's quiescent
    tail.  *Unexplained*: flags not covered by any fault active during
    (or one pane before) their window — the false positives.  A
    campaign's detector verdict is ``ok`` iff nothing is missed and
    nothing is unexplained.
    """
    def _observable(onset_us: float) -> bool:
        return traffic_end_us is None or onset_us < traffic_end_us

    expected = []
    for gray in plan.gray_nodes:
        if _observable(gray.start_us):
            expected.append({"fault": "gray", "mn": gray.mn_id,
                             "port": gray.port, "onset_us": gray.start_us,
                             "end_us": gray.end_us, "kinds": ("service",)})
    for part in plan.partitions:
        if part.port is not None and _observable(part.start_us):
            mn = part.b if part.a == "cn" else part.a
            expected.append({"fault": "partition", "mn": mn,
                             "port": part.port, "onset_us": part.start_us,
                             "end_us": part.end_us,
                             "kinds": ("drops", "service")})
    for link in plan.link_faults:
        if link.port is not None and link.drop_p > 0.0 \
                and link.mn_id is not None and _observable(link.start_us):
            expected.append({"fault": "link", "mn": link.mn_id,
                             "port": link.port, "onset_us": link.start_us,
                             "end_us": link.end_us,
                             "kinds": ("drops", "service")})

    caught = []
    missed = []
    deadline_panes = windows
    for exp in expected:
        hit = None
        for flag in flags:
            if flag.kind not in exp["kinds"]:
                continue
            if not _covers(exp["mn"], exp["port"], flag.scope):
                continue
            if flag.t1 <= exp["onset_us"]:
                continue
            if flag.t0 > exp["onset_us"] + deadline_panes * width_us:
                continue
            hit = flag
            break
        row = dict(exp)
        if hit is None:
            missed.append(row)
        else:
            row["flag_scope"] = hit.scope
            row["detected_at_us"] = hit.t1
            row["latency_windows"] = max(
                0, hit.pane - int(exp["onset_us"] // width_us))
            caught.append(row)

    unexplained = []
    for flag in flags:
        explained = False
        for gray in plan.gray_nodes:
            if _covers(gray.mn_id, None, flag.scope) \
                    and _active(gray.start_us, gray.end_us, flag.t0,
                                flag.t1, width_us):
                explained = True
                break
        if not explained and flag.kind == "drops":
            for part in plan.partitions:
                mn = part.b if part.a == "cn" else part.a
                if _covers(mn, None, flag.scope) \
                        and _active(part.start_us, part.end_us, flag.t0,
                                    flag.t1, width_us):
                    explained = True
                    break
            if not explained:
                for link in plan.link_faults:
                    if link.drop_p <= 0.0:
                        continue
                    if link.mn_id is not None \
                            and not _covers(link.mn_id, None, flag.scope):
                        continue
                    if _active(link.start_us, link.end_us, flag.t0,
                               flag.t1, width_us):
                        explained = True
                        break
        if not explained:
            unexplained.append(flag.to_dict())

    return {
        "expected": len(expected),
        "caught": caught,
        "missed": missed,
        "unexplained": unexplained,
        "ok": not missed and not unexplained,
    }
