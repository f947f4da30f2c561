"""The online monitor: windows + sketches + SLOs + gray detection.

:class:`Monitor` composes the telemetry plane (docs/monitoring.md) over
one live cluster:

* a :class:`~repro.obs.windows.WindowStore` of tumbling panes fed from
  the ended span of every traced client KV op (per-op latency sketches,
  ok/err counters);
* optional Space-Saving hot-key / hot-bucket sketches fed by every
  client KV op (:meth:`Monitor.on_key`), plus per-MN skew from fabric
  op counters;
* :class:`~repro.obs.slo.SloState` burn-rate evaluation per closed
  pane, emitting ``alert.slo.*`` spans into the tracer;
* a :class:`~repro.obs.detect.GrayDetector` fed the fabric's service
  times (``note_rpc`` per call; ``note_verb`` tallied and fed once per
  distinct slot and pane before a pane is scored) and per-port drop/op
  deltas, emitting ``alert.gray.*`` spans.

The monitor runs as one DES process that wakes at every pane boundary
(pure function of simulated time, so window edges are deterministic),
evaluates the pane that just closed, then prunes state older than the
longest sliding window — memory stays O(windows x instruments), never
O(operations).

The monitor only *observes*: it reads resource counters and listens to
hooks, never takes simulated time or resources, so an enabled monitor
does not perturb operation timing (asserted by
tests/test_trace_determinism.py: a monitored clean run's operation
records are byte-identical to the unmonitored run).  Detached
(``fabric.monitor is None``), every hook site is a single ``is None``
test and no monitor code runs (tests/test_obs.py::TestUntracedBed).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .detect import REL_THRESHOLD, Z_THRESHOLD, GrayDetector
from .sketches import SpaceSaving
from .slo import (BURN_THRESHOLD, ERR_STREAM, FAST_PANES, OK_STREAM,
                  SLOW_PANES, SloSpec, SloState)
from .tracer import VERB_KINDS
from .windows import WindowStore

__all__ = ["MonitorConfig", "Monitor", "render_health", "write_health",
           "load_health", "health_fingerprint"]

#: Health-report window rows (and skew rows) retained.
_KEEP_ROWS = 512


@dataclass(frozen=True)
class MonitorConfig:
    """The two settings of the telemetry plane (docs/monitoring.md); the
    sketch accuracy, SLO windows and detector thresholds are the defaults
    of :class:`WindowStore`, :class:`SloState` and :class:`GrayDetector`."""

    window_us: float = 250.0       # tumbling pane width (simulated us)
    hotkey_capacity: int = 0       # Space-Saving size; 0 = off

    def __post_init__(self):
        if not self.window_us > 0.0:   # also rejects NaN
            raise ValueError(f"window_us must be > 0, got {self.window_us!r}")
        if self.hotkey_capacity < 0:
            raise ValueError(f"hotkey_capacity must be >= 0 (0 = off), "
                             f"got {self.hotkey_capacity!r}")


class Monitor:
    """Online telemetry over one cluster (see module docstring).

    Attach with :meth:`FuseeCluster.attach_monitor`, which sets
    ``fabric.monitor`` — the one place the fabric's service/drop hooks
    and every client's key touch and ended span read it — then starts
    the pane-boundary evaluation process.  ``env`` must be the fabric's.
    """

    def __init__(self, env, fabric, config: Optional[MonitorConfig] = None,
                 slos: Sequence[SloSpec] = (), race=None):
        if env is not fabric.env:
            raise ValueError("the monitor's Environment is not the fabric's")
        self.env = env
        self.fabric = fabric
        self.config = cfg = config or MonitorConfig()
        self.race = race
        self.width = cfg.window_us
        self.windows = WindowStore(env, cfg.window_us)
        self.slo_states = [SloState(spec) for spec in slos]
        self.detector = GrayDetector()
        if cfg.hotkey_capacity > 0:
            self.hot_total = SpaceSaving(cfg.hotkey_capacity)
            self.bucket_total = SpaceSaving(cfg.hotkey_capacity)
            self._hot_panes: Dict[int, SpaceSaving] = {}
            self._bucket_panes: Dict[int, SpaceSaving] = {}
        else:
            self.hot_total = self.bucket_total = None
            self._hot_panes = self._bucket_panes = None
        # which MNs expose per-port scopes (single-port == the MN itself)
        self._multiport = {mn_id: node.num_ports > 1
                           for mn_id, node in fabric.nodes.items()}
        # note_verb's slots, counted per (pane, mn, port label, verb class,
        # payload bytes, service, slot width) until _flush_verbs feeds
        # them to the detector — service times take a handful of values
        # per pane, so a verb costs one dict increment
        self._verb_tally: Dict[tuple, int] = {}
        # the detector's family and scope strings, formatted at flush once
        # per (verb class, payload bytes) and once per MN
        self._families: Dict[tuple, str] = {}
        self._scopes: Dict[int, str] = {}
        self.rows: List[dict] = []
        self.skew_rows: List[dict] = []
        self._last_port_ops: Dict[str, int] = {}
        self._last_port_drops: Dict[str, int] = {}
        self._last_mn_ops: Dict[int, int] = {}
        self._next_pane = 0
        self._panes_evaluated = 0
        self._running = False
        self._proc = None
        self._start_us: Optional[float] = None
        self.hook_calls = 0
        self._start_wall: Optional[float] = None
        self._eval_wall = 0.0
        self._health: Optional[dict] = None

    # -------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin pane-boundary evaluation (idempotent)."""
        if self._running:
            return
        self._running = True
        self._start_wall = time.perf_counter()
        self._start_us = self.env.now
        self._next_pane = self.windows.current_pane
        # Baseline the fabric counters so the first pane sees deltas
        # from attach time, not from the (unmonitored) bulk load.
        stats = self.fabric.stats
        self._last_port_ops = dict(stats.per_port_ops)
        self._last_port_drops = dict(stats.per_port_drops)
        self._last_mn_ops = dict(stats.per_mn_ops)
        self._proc = self.env.process(self._tick(), name="monitor")

    def stop(self) -> None:
        self._running = False

    def _tick(self):
        width = self.width
        env = self.env
        while self._running:
            now = env.now
            next_edge = (int(now // width) + 1) * width
            yield env.timeout(next_edge - now)
            if not self._running:
                return
            self._evaluate_through(int(env.now // width) - 1)

    def finish(self) -> dict:
        """Stop, evaluate the final (possibly partial) pane, and build
        the health report (cached; safe to call repeatedly)."""
        if self._health is not None:
            return self._health
        self._running = False
        self._evaluate_through(self.windows.current_pane)
        self._health = self._build_health()
        return self._health

    # ------------------------------------------------------------ hooks
    def on_span(self, span) -> None:
        """Client hook: the ended span of one traced KV op."""
        self.hook_calls += 1
        windows = self.windows
        duration = span.duration_us
        windows.inc(OK_STREAM if span.ok else ERR_STREAM)
        windows.observe(f"span.latency_us.{span.op}", duration)
        windows.observe("span.latency_us.all", duration)

    def on_key(self, op: str, key: bytes) -> None:
        """Client hook: one KV-op key touch (hot-key tracking), called at
        the top of every op by every client of the fabric."""
        if self.hot_total is None:
            return
        self.hook_calls += 1
        pane = int(self.env.now // self.width)
        sketch = self._hot_panes.get(pane)
        if sketch is None:
            sketch = self._hot_panes[pane] = SpaceSaving(
                self.config.hotkey_capacity)
        sketch.offer(key)
        self.hot_total.offer(key)
        if self.race is not None:
            meta = self.race.key_meta(key)
            bucket = (meta.subtable, meta.group1)
            bsketch = self._bucket_panes.get(pane)
            if bsketch is None:
                bsketch = self._bucket_panes[pane] = SpaceSaving(
                    self.config.hotkey_capacity)
            bsketch.offer(bucket)
            self.bucket_total.offer(bucket)

    def note_verb(self, mn_id: int, port_label: str, verb_cls, nbytes: int,
                  service_us: float, n: int = 1) -> None:
        """Fabric hook: one NIC serialisation slot's service time (``n``
        verbs sharing the slot), tallied for the detector."""
        key = (int(self.env._now // self.width), mn_id, port_label,
               verb_cls, nbytes, service_us, n)
        tally = self._verb_tally
        tally[key] = tally.get(key, 0) + 1

    def _flush_verbs(self) -> None:
        """Feed the tallied slots to the detector: one observation per
        distinct slot and pane, weighted by how often it was seen."""
        detector = self.detector
        families = self._families
        scopes = self._scopes
        for (pane, mn_id, port_label, verb_cls, nbytes, service_us,
             n), seen in self._verb_tally.items():
            family = families.get((verb_cls, nbytes))
            if family is None:
                bits = int(nbytes).bit_length()
                family = families[(verb_cls, nbytes)] = \
                    f"{VERB_KINDS.get(verb_cls, 'verb')}@{bits}"
            scope = scopes.get(mn_id)
            if scope is None:
                scope = scopes[mn_id] = f"mn{mn_id}"
            per_verb = service_us / n if n > 1 else service_us
            detector.observe(pane, scope, family, per_verb, n * seen)
            if self._multiport.get(mn_id):
                detector.observe(pane, port_label, family, per_verb, n * seen)
            self.hook_calls += seen
        self._verb_tally.clear()

    def note_rpc(self, mn_id: int, shard_label: str, name: str,
                 cpu_us: float) -> None:
        """Fabric hook: one RPC handler's CPU service time."""
        self.hook_calls += 1
        pane = int(self.env._now // self.width)
        self.detector.observe(pane, shard_label, f"rpc:{name}", cpu_us)

    # --------------------------------------------------------- evaluate
    def _evaluate_through(self, last_pane: int) -> None:
        t_wall = time.perf_counter()
        if self._verb_tally:
            self._flush_verbs()    # before any pane is scored
        while self._next_pane <= last_pane:
            self._evaluate_pane(self._next_pane)
            self._next_pane += 1
        self._eval_wall += time.perf_counter() - t_wall

    def _pane_deltas(self):
        stats = self.fabric.stats
        d_port: Dict[str, int] = {}
        for label, total in stats.per_port_ops.items():
            d_port[label] = total - self._last_port_ops.get(label, 0)
            self._last_port_ops[label] = total
        d_drop: Dict[str, int] = {}
        for label, total in stats.per_port_drops.items():
            d_drop[label] = total - self._last_port_drops.get(label, 0)
            self._last_port_drops[label] = total
        d_mn: Dict[int, int] = {}
        for mn_id, total in stats.per_mn_ops.items():
            d_mn[mn_id] = total - self._last_mn_ops.get(mn_id, 0)
            self._last_mn_ops[mn_id] = total
        port_rates = {label: (d_port.get(label, 0), d_drop.get(label, 0))
                      for label in set(d_port) | set(d_drop)}
        return port_rates, d_mn

    def _evaluate_pane(self, pane: int) -> None:
        t0 = pane * self.width
        t1 = (pane + 1) * self.width
        tracer = self.fabric.tracer
        port_rates, d_mn = self._pane_deltas()

        # per-MN skew over the pane's verb dispatches
        skew = 1.0
        total_ops = sum(d_mn.values())
        if total_ops and len(d_mn) > 1:
            skew = max(d_mn.values()) / (total_ops / len(d_mn))
            self.skew_rows.append(
                {"pane": pane, "t0": t0, "skew": skew,
                 "per_mn": {f"mn{mn}": d_mn[mn] for mn in sorted(d_mn)}})
            del self.skew_rows[:-_KEEP_ROWS]

        alerts = []
        for state in self.slo_states:
            alert = state.evaluate(self.windows, pane)
            if alert is not None:
                alerts.append(state.spec.name)
                if tracer is not None:
                    tracer.alert(
                        f"alert.slo.{state.spec.name}", alert.t0, alert.t1,
                        outcome=(f"burn_fast={alert.burn_fast:.2f} "
                                 f"burn_slow={alert.burn_slow:.2f} "
                                 f"bad={alert.bad}/{alert.total}"))

        flags = self.detector.evaluate(pane, t0, t1, port_rates)
        for flag in flags:
            if tracer is not None:
                tracer.alert(
                    f"alert.gray.{flag.scope}", t0, t1,
                    outcome=(f"{flag.kind} {flag.family} "
                             f"rel={flag.rel:.2f} z={flag.z:.2f}"))
        self.detector.prune(pane + 1)

        latency = self.windows.sketch("span.latency_us.all", pane)
        row = {
            "pane": pane, "t0": t0, "t1": t1,
            "ops": int(self.windows.count(OK_STREAM, pane)),
            "errors": int(self.windows.count(ERR_STREAM, pane)),
            "p50_us": latency.quantile(0.50),
            "p99_us": latency.quantile(0.99),
            "mn_skew": skew,
        }
        if self._hot_panes is not None:
            hot = self._hot_panes.pop(pane, None)
            if hot is not None:
                row["hot_keys"] = [
                    {"key": _key_repr(key), "count": count, "error": error}
                    for key, count, error in hot.top(5)]
            buckets = self._bucket_panes.pop(pane, None)
            if buckets is not None:
                row["hot_buckets"] = [
                    {"bucket": _key_repr(key), "count": count,
                     "error": error}
                    for key, count, error in buckets.top(3)]
        if alerts:
            row["alerts"] = alerts
        if flags:
            row["flags"] = [flag.scope for flag in flags]
        self.rows.append(row)
        del self.rows[:-_KEEP_ROWS]
        self._panes_evaluated += 1

        # bound memory: keep only the panes the slow SLO window needs
        self.windows.prune(pane - SLOW_PANES + 2)

    # ------------------------------------------------------------ health
    def _build_health(self) -> dict:
        cfg = self.config
        wall = (time.perf_counter() - self._start_wall
                if self._start_wall is not None else 0.0)
        health: dict = {
            "config": {
                "window_us": cfg.window_us,
                "alpha": self.windows.alpha,
                "fast_panes": FAST_PANES,
                "slow_panes": SLOW_PANES,
                "burn_threshold": BURN_THRESHOLD,
                "hotkey_capacity": cfg.hotkey_capacity,
                "detector": True,
                "detect_rel": REL_THRESHOLD,
                "detect_z": Z_THRESHOLD,
            },
            "run": {
                "start_us": self._start_us,
                "end_us": self.env.now,
                "panes_evaluated": self._panes_evaluated,
            },
            "windows": {"width_us": self.width, "rows": self.rows},
            "slos": [state.to_dict() for state in self.slo_states],
            "detector": self.detector.to_dict(),
            "hot_keys": (self.hot_total.to_dict(_key_repr)
                         if self.hot_total is not None else None),
            "hot_buckets": (self.bucket_total.to_dict(_key_repr)
                            if self.bucket_total is not None else None),
            "mn_skew": self.skew_rows,
            # Wall-clock cost of running the monitor: the evaluation
            # share is monitor-only work; hook calls approximate the
            # per-observation overhead (each is O(1) dict/sketch work).
            "overhead": {
                "run_wall_s": wall,
                "eval_wall_s": self._eval_wall,
                "eval_share": (self._eval_wall / wall) if wall > 0 else 0.0,
                "hook_calls": self.hook_calls,
            },
        }
        return health


def _key_repr(key) -> str:
    if isinstance(key, bytes):
        try:
            text = key.decode("ascii")
            if text.isprintable():
                # YCSB-style keys end in the interesting digits; keep the
                # tail when truncating.
                return text if len(text) <= 24 else "…" + text[-23:]
        except UnicodeDecodeError:
            pass
        return key.hex()
    if isinstance(key, tuple):
        return "st{}/g{}".format(*key)
    return repr(key)


# ---------------------------------------------------------------------------
# Health artifact: text render + JSON round trip
# ---------------------------------------------------------------------------
def render_health(health: dict) -> str:
    """Human-readable end-of-run health report."""
    run = health["run"]
    lines = [
        "== health report ==",
        f"window {health['windows']['width_us']:g}us, "
        f"{run['panes_evaluated']} pane(s) evaluated over "
        f"[{run['start_us']:.0f}, {run['end_us']:.0f}]us",
    ]
    rows = health["windows"]["rows"]
    if rows:
        shown = rows[-8:]
        lines.append(f"last {len(shown)} window(s):")
        for row in shown:
            extra = ""
            if row.get("alerts"):
                extra += "  ALERT " + ",".join(row["alerts"])
            if row.get("flags"):
                extra += "  FLAG " + ",".join(row["flags"])
            if row.get("hot_keys"):
                top = row["hot_keys"][0]
                extra += f"  hot={top['key']}x{top['count']}"
            lines.append(
                f"  [{row['t0']:>8.0f}] ops={row['ops']:<6d} "
                f"err={row['errors']:<4d} p50={row['p50_us']:.2f}us "
                f"p99={row['p99_us']:.2f}us skew={row['mn_skew']:.2f}"
                + extra)
    for slo in health["slos"]:
        lines.append(
            f"slo {slo['name']}: {slo['objective']} — "
            f"{slo['windows_tripped']}/{slo['windows_evaluated']} "
            f"window(s) tripped"
            + (f", first alert at {slo['alerts'][0]['t0']:.0f}us"
               if slo["alerts"] else ""))
    detector = health.get("detector")
    if detector is not None:
        flags = detector["flags"]
        lines.append(f"gray detector: {len(flags)} flag(s) over "
                     f"{len(detector['scopes_seen'])} scope(s)")
        for flag in flags[:12]:
            lines.append(
                f"  [{flag['t0']:>8.0f}] {flag['scope']} {flag['kind']} "
                f"{flag['family']} rel={flag['rel']:.2f} "
                f"z={flag['z']:.2f}")
        if len(flags) > 12:
            lines.append(f"  ... and {len(flags) - 12} more")
    hot = health.get("hot_keys")
    if hot is not None and hot["top"]:
        top = ", ".join(f"{row['key']}x{row['count']}"
                        for row in hot["top"][:5])
        lines.append(f"hot keys (run total, n={hot['n']}): {top}")
    buckets = health.get("hot_buckets")
    if buckets is not None and buckets["top"]:
        top = ", ".join(f"{row['key']}x{row['count']}"
                        for row in buckets["top"][:3])
        lines.append(f"hot buckets: {top}")
    overhead = health["overhead"]
    lines.append(
        f"monitor overhead: {overhead['eval_wall_s'] * 1e3:.1f}ms "
        f"evaluation ({overhead['eval_share'] * 100:.1f}% of monitored "
        f"wall), {overhead['hook_calls']} hook calls")
    return "\n".join(lines)


def write_health(health: dict, path) -> None:
    """Write the JSON health artifact (sorted keys, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(health, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_health(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def health_fingerprint(health: dict) -> str:
    """Deterministic serialisation of the health report: everything but
    the wall-clock ``overhead`` section (byte-identical across same-seed
    runs; see tests/test_trace_determinism.py)."""
    data = {key: value for key, value in health.items()
            if key != "overhead"}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
