"""Production traffic scenarios: time-varying load, shifting popularity,
multi-tenant key spaces, and compound fault+load events.

The YCSB generators (:mod:`repro.workloads.ycsb`) model *stationary*
Zipfian mixes; production traffic is not stationary.  This module layers
three composable processes on top of them:

* **Rate schedules** — the aggregate arrival rate as a function of
  simulated time: :class:`DiurnalRate` curves with an idle trough,
  :class:`FlashCrowdRate` steps, linear :class:`RampRate` segments, and
  sums of all three (``schedule_a + schedule_b``).  Every schedule knows
  its own analytic integral, so tests can check *conservation*: the
  arrivals a seeded stream generates match ``integral(t0, t1)`` within
  Poisson tolerance.
* **Popularity shifts** — a monotonic rotation of the Zipf head over
  time: :class:`HotKeyStorm` rotates the hot set once per epoch (the
  FlexKV regime: index hot spots that only exist while a key is hot),
  :class:`WorkingSetDrift` slides it continuously.
* **Tenants** — disjoint per-tenant key namespaces with their own mix,
  skew and value size.  Per-tenant throughput/latency/error shares are
  recorded through the PR-9 telemetry plane (``tenant.<name>.*``
  instruments) and summarised by :func:`tenant_report`.

A :class:`Scenario` ties the three together plus an optional list of
:class:`FaultEvent` windows (expressed as *fractions* of the scenario
duration, so trimming a scenario keeps its compound fault+load alignment
— e.g. a flash crowd arriving inside a gray-node window).  Scenario
streams are **seeded and deterministic**: the same seed yields a
byte-identical operation stream, which is what makes the fault-campaign
and linearizability verdicts shipped with every scenario replayable
(``tests/test_scenarios.py``, ``repro faults --scenario``).

The registry :data:`SCENARIOS` maps a name to a factory; every entry
belongs to one of the five shipped families (``storm``, ``flash_crowd``,
``diurnal``, ``multi_tenant``, ``compound``).  See docs/scenarios.md for
the catalog and the verdict policy.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .ycsb import (FNV_OFFSET, FNV_PRIME, ZIPFIAN_CONSTANT, ZipfianGenerator,
                   make_value, scatter)

__all__ = [
    "RateSchedule",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "RampRate",
    "SumRate",
    "PopularityShift",
    "HotKeyStorm",
    "WorkingSetDrift",
    "TenantSpec",
    "FaultEvent",
    "ScenarioOp",
    "Scenario",
    "ScenarioStream",
    "SaturatingStream",
    "SCENARIOS",
    "SCENARIO_FAMILIES",
    "SMOKE_TRIM",
    "get_scenario",
    "tenant_report",
]


# ==================================================================
# Rate schedules
# ==================================================================
class RateSchedule:
    """Aggregate arrival rate (ops per simulated microsecond) over time.

    Subclasses implement :meth:`rate`, :meth:`integral` (analytic — the
    conservation property in tests checks generated arrivals against
    it) and :meth:`peak_rate` (a tight upper bound used for Lewis &
    Shedler thinning).  Schedules compose by addition.
    """

    def rate(self, t_us: float) -> float:
        raise NotImplementedError

    def integral(self, t0_us: float, t1_us: float) -> float:
        """Exact expected arrivals in ``[t0_us, t1_us)``."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        raise NotImplementedError

    def __add__(self, other: "RateSchedule") -> "SumRate":
        return SumRate(parts=(self, other))


@dataclass(frozen=True)
class ConstantRate(RateSchedule):
    """A stationary arrival rate (the degenerate schedule)."""

    rate_per_us: float

    def __post_init__(self):
        if self.rate_per_us < 0.0:
            raise ValueError("rate must be >= 0")

    def rate(self, t_us: float) -> float:
        return self.rate_per_us

    def integral(self, t0_us: float, t1_us: float) -> float:
        return self.rate_per_us * max(0.0, t1_us - t0_us)

    def peak_rate(self) -> float:
        return self.rate_per_us


@dataclass(frozen=True)
class DiurnalRate(RateSchedule):
    """A raised-cosine day/night curve.

    ``rate(t) = trough + (peak - trough) * (1 - cos(2*pi*t/period
    + phase)) / 2`` — with ``phase=0`` the schedule *starts* in the
    trough, so the first telemetry panes of a diurnal run see (near-)
    zero arrivals: exactly the idle-trough case the windowed metrics
    must survive without NaN burn rates (tests/test_telemetry.py).
    """

    trough: float
    peak: float
    period_us: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.trough <= self.peak:
            raise ValueError("need 0 <= trough <= peak")
        if self.period_us <= 0.0:
            raise ValueError("period must be > 0")

    def _angle(self, t_us: float) -> float:
        return 2.0 * math.pi * t_us / self.period_us + self.phase

    def rate(self, t_us: float) -> float:
        swing = self.peak - self.trough
        return self.trough + swing * (1.0 - math.cos(self._angle(t_us))) / 2.0

    def integral(self, t0_us: float, t1_us: float) -> float:
        if t1_us <= t0_us:
            return 0.0
        swing = self.peak - self.trough
        mid = self.trough + swing / 2.0
        scale = self.period_us / (2.0 * math.pi)
        anti = (math.sin(self._angle(t1_us)) - math.sin(self._angle(t0_us)))
        return mid * (t1_us - t0_us) - swing / 2.0 * scale * anti

    def peak_rate(self) -> float:
        return self.peak


@dataclass(frozen=True)
class FlashCrowdRate(RateSchedule):
    """A base rate plus a rectangular surge (the flash-crowd step)."""

    base: float
    surge: float
    at_us: float
    duration_us: float

    def __post_init__(self):
        if self.base < 0.0 or self.surge < 0.0:
            raise ValueError("rates must be >= 0")
        if self.duration_us < 0.0:
            raise ValueError("surge duration must be >= 0")

    def rate(self, t_us: float) -> float:
        if self.at_us <= t_us < self.at_us + self.duration_us:
            return self.base + self.surge
        return self.base

    def integral(self, t0_us: float, t1_us: float) -> float:
        if t1_us <= t0_us:
            return 0.0
        overlap = max(0.0, min(t1_us, self.at_us + self.duration_us)
                      - max(t0_us, self.at_us))
        return self.base * (t1_us - t0_us) + self.surge * overlap

    def peak_rate(self) -> float:
        return self.base + self.surge


@dataclass(frozen=True)
class RampRate(RateSchedule):
    """Linear ramp from ``lo`` to ``hi`` between ``t0_us`` and ``t1_us``
    (flat on both sides)."""

    lo: float
    hi: float
    t0_us: float
    t1_us: float

    def __post_init__(self):
        if self.lo < 0.0 or self.hi < 0.0:
            raise ValueError("rates must be >= 0")
        if self.t1_us <= self.t0_us:
            raise ValueError("need t1_us > t0_us")

    def rate(self, t_us: float) -> float:
        if t_us <= self.t0_us:
            return self.lo
        if t_us >= self.t1_us:
            return self.hi
        frac = (t_us - self.t0_us) / (self.t1_us - self.t0_us)
        return self.lo + (self.hi - self.lo) * frac

    def integral(self, t0_us: float, t1_us: float) -> float:
        if t1_us <= t0_us:
            return 0.0
        total = 0.0
        # flat head, ramp middle (trapezoid), flat tail
        head = max(0.0, min(t1_us, self.t0_us) - t0_us)
        total += self.lo * head
        a = max(t0_us, self.t0_us)
        b = min(t1_us, self.t1_us)
        if b > a:
            total += (self.rate(a) + self.rate(b)) / 2.0 * (b - a)
        tail = max(0.0, t1_us - max(t0_us, self.t1_us))
        total += self.hi * tail
        return total

    def peak_rate(self) -> float:
        return max(self.lo, self.hi)


@dataclass(frozen=True)
class SumRate(RateSchedule):
    """The sum of component schedules (flash crowd *on top of* a
    diurnal curve, and so on)."""

    parts: Tuple[RateSchedule, ...]

    def rate(self, t_us: float) -> float:
        return sum(p.rate(t_us) for p in self.parts)

    def integral(self, t0_us: float, t1_us: float) -> float:
        return sum(p.integral(t0_us, t1_us) for p in self.parts)

    def peak_rate(self) -> float:
        return sum(p.peak_rate() for p in self.parts)


# ==================================================================
# Popularity shifts
# ==================================================================
class PopularityShift:
    """A monotonic (never-rewinding) rotation of the popularity head.

    :meth:`offset` maps simulated time to a rank-space offset; streams
    add it to the Zipf rank before scattering, so the *identity* of the
    hot keys moves while the skew stays fixed.  Monotonicity (``t1 <=
    t2`` implies ``offset(t1) <= offset(t2)``) is a tested property —
    a hot set must never rotate backwards.
    """

    def offset(self, t_us: float) -> int:
        raise NotImplementedError

    def epoch(self, t_us: float) -> int:
        """A label that changes whenever the hot set moves."""
        return self.offset(t_us)


@dataclass(frozen=True)
class HotKeyStorm(PopularityShift):
    """Rotate the Zipf head by ``stride`` ranks once per ``period_us``:
    each epoch crowns a different hot-key set."""

    period_us: float
    stride: int = 1

    def __post_init__(self):
        if self.period_us <= 0.0:
            raise ValueError("period must be > 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    def offset(self, t_us: float) -> int:
        return int(t_us // self.period_us) * self.stride

    def epoch(self, t_us: float) -> int:
        return int(t_us // self.period_us)


@dataclass(frozen=True)
class WorkingSetDrift(PopularityShift):
    """Slide the working set continuously at ``keys_per_us``."""

    keys_per_us: float

    def __post_init__(self):
        if self.keys_per_us < 0.0:
            raise ValueError("drift must be >= 0")

    def offset(self, t_us: float) -> int:
        return int(t_us * self.keys_per_us)


# ==================================================================
# Tenants
# ==================================================================
@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a private key namespace plus its own mix and skew.

    ``mix`` is ``(search, update, insert, delete)`` fractions.  Deletes
    target keys the same stream freshly inserted (so alloc/free churn
    stays per-tenant and the history stays checkable); a delete drawn
    with nothing live degrades to a search.
    """

    name: str
    n_keys: int
    weight: float = 1.0
    mix: Tuple[float, float, float, float] = (0.50, 0.45, 0.05, 0.00)
    theta: float = ZIPFIAN_CONSTANT
    value_size: int = 64

    def __post_init__(self):
        if not self.name or ":" in self.name:
            raise ValueError("tenant name must be non-empty, ':'-free")
        if self.n_keys < 1:
            raise ValueError("tenant needs at least one key")
        if self.weight <= 0.0:
            raise ValueError("tenant weight must be > 0")
        if abs(sum(self.mix) - 1.0) > 1e-9 or any(f < 0 for f in self.mix):
            raise ValueError("mix fractions must be >= 0 and sum to 1")

    def key(self, index: int) -> bytes:
        """A preloaded key of this tenant's namespace."""
        return f"{self.name}:user{index % self.n_keys:012d}".encode()

    def fresh_key(self, client_index: int, serial: int) -> bytes:
        """A never-preloaded key for INSERT churn (per-stream private)."""
        return (f"{self.name}:c{client_index:04d}"
                f"n{serial:010d}").encode()

    def preload_items(self) -> Iterator[Tuple[bytes, bytes]]:
        for i in range(self.n_keys):
            yield self.key(i), make_value(self.value_size, salt=i)


# ==================================================================
# Compound fault events
# ==================================================================
@dataclass(frozen=True)
class FaultEvent:
    """A declarative fault window carried by a compound scenario.

    Times are *fractions of the scenario duration* so a trimmed
    scenario keeps the fault aligned with its load event (the flash
    crowd still lands inside the gray window).  The faults layer
    translates these into a :class:`repro.faults.model.FaultPlan`
    (:func:`repro.faults.campaign.scenario_fault_plan`) — this module
    stays import-free of the fault layer.
    """

    kind: str                      # "gray" | "loss" | "partition"
    start_frac: float
    end_frac: float
    mn_id: int = 0
    factor: float = 4.0            # gray service-time multiplier
    drop_p: float = 0.0
    dup_p: float = 0.0
    jitter_us: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gray", "loss", "partition"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.start_frac < self.end_frac <= 1.0:
            raise ValueError("need 0 <= start_frac < end_frac <= 1")


# ==================================================================
# Scenario + streams
# ==================================================================
class ScenarioOp(tuple):
    """``(at_us, tenant, op, key, value)`` — one timed arrival."""
    __slots__ = ()

    def __new__(cls, at_us, tenant, op, key, value):
        return tuple.__new__(cls, (at_us, tenant, op, key, value))

    at_us = property(lambda self: self[0])
    tenant = property(lambda self: self[1])
    op = property(lambda self: self[2])
    key = property(lambda self: self[3])
    value = property(lambda self: self[4])

    def encode(self) -> bytes:
        """Canonical byte form (the determinism property compares these)."""
        value = self.value if self.value is not None else b""
        return b"|".join([repr(self.at_us).encode(),
                          self.tenant.encode(), self.op.encode(),
                          self.key, value])


@dataclass(frozen=True)
class Scenario:
    """A named, seeded production-traffic scenario.

    ``schedule`` paces the *aggregate* arrival process (split evenly
    over ``n_clients`` independent thinned streams); ``tenants`` carve
    the key space; ``shift`` rotates each tenant's popularity head;
    ``faults`` declares the compound fault windows (empty for pure-load
    scenarios).  Instances are frozen — use :func:`dataclasses.replace`
    or :func:`get_scenario` overrides to resize one.
    """

    name: str
    family: str                    # one of SCENARIO_FAMILIES
    schedule: RateSchedule
    tenants: Tuple[TenantSpec, ...]
    duration_us: float
    n_clients: int = 4
    shift: Optional[PopularityShift] = None
    faults: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self):
        if self.family not in SCENARIO_FAMILIES:
            raise ValueError(f"unknown family {self.family!r} "
                             f"(one of {sorted(SCENARIO_FAMILIES)})")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.duration_us <= 0.0:
            raise ValueError("duration must be > 0")
        if self.n_clients < 1:
            raise ValueError("need at least one client")

    # ------------------------------------------------------------ keys
    def preload_items(self) -> List[Tuple[bytes, bytes]]:
        """Every tenant's preloaded key set (the linearizability
        checker's initial map)."""
        items: List[Tuple[bytes, bytes]] = []
        for tenant in self.tenants:
            items.extend(tenant.preload_items())
        return items

    def hot_index(self, tenant: TenantSpec, t_us: float) -> int:
        """The key index a rank-0 (hottest) draw maps to at ``t_us``."""
        off = self.shift.offset(t_us) if self.shift is not None else 0
        return scatter(off, tenant.n_keys)

    # ---------------------------------------------------------- streams
    def client_stream(self, client_index: int,
                      seed: Optional[int] = None) -> "ScenarioStream":
        """The timed, deterministic op stream of one client."""
        return ScenarioStream(self, client_index,
                              self.seed if seed is None else seed)

    def saturating_workload(self, client_index: int,
                            seed: Optional[int] = None
                            ) -> "SaturatingStream":
        """A closed-loop adapter: same op sequence, no pacing.

        The scheduled arrival times still drive the popularity
        rotation, so a saturating run sees the same hot-set churn —
        this is the workload behind ``fig21_elasticity``'s
        saturating-load mode.
        """
        return SaturatingStream(self.client_stream(client_index, seed))

    def ops(self, seed: Optional[int] = None) -> List[ScenarioOp]:
        """All clients' streams merged in arrival order (analysis/tests)."""
        merged: List[ScenarioOp] = []
        for index in range(self.n_clients):
            merged.extend(self.client_stream(index, seed))
        merged.sort(key=lambda op: (op.at_us, op.key))
        return merged


class ScenarioStream:
    """One client's seeded arrival stream (iterator of ScenarioOp).

    Arrivals come from Lewis & Shedler thinning of the scenario
    schedule at ``1/n_clients`` of the aggregate rate, so the union of
    all client streams realises the schedule.  Everything downstream of
    the seed is deterministic: same ``(scenario, client_index, seed)``
    means a byte-identical stream.
    """

    def __init__(self, scenario: Scenario, client_index: int, seed: int):
        self.scenario = scenario
        self.client_index = client_index
        self.seed = seed
        self._rng = random.Random(
            (seed * 0x9E3779B97F4A7C15 + client_index * 0x100000001B3 + 1)
            & 0xFFFFFFFFFFFFFFFF)
        self._choosers = {
            t.name: ZipfianGenerator(
                t.n_keys, t.theta,
                seed=(seed << 16) ^ (client_index << 4) ^ hash_name(t.name))
            for t in scenario.tenants}
        self._weights = [t.weight for t in scenario.tenants]
        self._total_weight = sum(self._weights)
        self._live: Dict[str, List[bytes]] = {t.name: []
                                              for t in scenario.tenants}
        self._serial = 0

    # ------------------------------------------------------------ draw
    def _pick_tenant(self) -> TenantSpec:
        tenants = self.scenario.tenants
        if len(tenants) == 1:
            return tenants[0]
        roll = self._rng.random() * self._total_weight
        acc = 0.0
        for tenant, weight in zip(tenants, self._weights):
            acc += weight
            if roll < acc:
                return tenant
        return tenants[-1]

    def _pick_key(self, tenant: TenantSpec, t_us: float) -> bytes:
        rank = self._choosers[tenant.name].next()
        shift = self.scenario.shift
        off = shift.offset(t_us) if shift is not None else 0
        return tenant.key(scatter(rank + off, tenant.n_keys))

    def _make_op(self, at_us: float) -> ScenarioOp:
        tenant = self._pick_tenant()
        search_f, update_f, insert_f, _delete_f = tenant.mix
        roll = self._rng.random()
        self._serial += 1
        if roll < search_f:
            return ScenarioOp(at_us, tenant.name, "search",
                              self._pick_key(tenant, at_us), None)
        if roll < search_f + update_f:
            key = self._pick_key(tenant, at_us)
            value = make_value(tenant.value_size, salt=self._serial)
            return ScenarioOp(at_us, tenant.name, "update", key, value)
        if roll < search_f + update_f + insert_f:
            key = tenant.fresh_key(self.client_index, self._serial)
            self._live[tenant.name].append(key)
            value = make_value(tenant.value_size, salt=self._serial)
            return ScenarioOp(at_us, tenant.name, "insert", key, value)
        live = self._live[tenant.name]
        if live:
            return ScenarioOp(at_us, tenant.name, "delete", live.pop(0),
                              None)
        return ScenarioOp(at_us, tenant.name, "search",
                          self._pick_key(tenant, at_us), None)

    # -------------------------------------------------------- iterate
    def __iter__(self) -> Iterator[ScenarioOp]:
        scenario = self.scenario
        lam_max = scenario.schedule.peak_rate() / scenario.n_clients
        if lam_max <= 0.0:
            return
        t = 0.0
        while True:
            t += self._rng.expovariate(lam_max)
            if t >= scenario.duration_us:
                return
            accept = (scenario.schedule.rate(t) / scenario.n_clients
                      / lam_max)
            if self._rng.random() < accept:
                yield self._make_op(t)


class SaturatingStream:
    """Closed-loop view of a :class:`ScenarioStream`: ``next_op()``
    returns plain ``(op, key, value)`` tuples as fast as they are asked
    for; once the timed stream is exhausted it wraps around on a fresh
    pass (saturation outlives the scheduled arrivals)."""

    def __init__(self, stream: ScenarioStream):
        self._stream = stream
        self._it = iter(stream)
        self._passes = 0

    def next_op(self) -> Tuple[str, bytes, Optional[bytes]]:
        for _ in range(2):
            try:
                event = next(self._it)
            except StopIteration:
                self._passes += 1
                self._it = iter(ScenarioStream(
                    self._stream.scenario, self._stream.client_index,
                    self._stream.seed + 7919 * self._passes))
                continue
            return event.op, event.key, event.value
        raise RuntimeError("scenario stream produced no arrivals; "
                           "raise the schedule's rate")


def hash_name(name: str) -> int:
    """Stable (non-PYTHONHASHSEED) tenant-name hash for seeding."""
    h = FNV_OFFSET
    for b in name.encode():
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# ==================================================================
# Per-tenant isolation report
# ==================================================================
def tenant_report(metrics, scenario: Scenario) -> Dict[str, dict]:
    """Summarise per-tenant isolation from a run's ``Metrics``.

    The paced/open-loop runner records ``tenant.<name>.ops``,
    ``tenant.<name>.errors`` and ``tenant.<name>.latency_us``.
    Returns per tenant: op count, throughput share, error
    share, and p50/p99 latency — the numbers a multi-tenant SLO would
    be written against.
    """
    total_ops = 0
    total_errors = 0
    rows: Dict[str, dict] = {}
    for tenant in scenario.tenants:
        ops = metrics.counter(f"tenant.{tenant.name}.ops").value
        errors = metrics.counter(f"tenant.{tenant.name}.errors").value
        total_ops += ops
        total_errors += errors
    for tenant in scenario.tenants:
        ops = metrics.counter(f"tenant.{tenant.name}.ops").value
        errors = metrics.counter(f"tenant.{tenant.name}.errors").value
        hist = metrics.histogram(f"tenant.{tenant.name}.latency_us")
        rows[tenant.name] = {
            "ops": int(ops),
            "errors": int(errors),
            "throughput_share": (ops / total_ops) if total_ops else 0.0,
            "error_share": (errors / total_errors) if total_errors else 0.0,
            "p50_us": hist.percentile(50.0),
            "p99_us": hist.percentile(99.0),
        }
    return rows


# ==================================================================
# The shipped catalog (one factory per family)
# ==================================================================
SCENARIO_FAMILIES = ("storm", "flash_crowd", "diurnal", "multi_tenant",
                     "compound")


def _storm(duration_us: float = 20_000.0, keys_per_tenant: int = 600,
           n_clients: int = 4, rate_scale: float = 1.0,
           seed: int = 0) -> Scenario:
    """Hot-key storm: constant saturating-ish load, the Zipf head
    rotates every eighth of the run."""
    return Scenario(
        name="hot-key-storm", family="storm",
        schedule=ConstantRate(0.16 * rate_scale),
        tenants=(TenantSpec("storm", keys_per_tenant,
                            mix=(0.50, 0.45, 0.05, 0.00)),),
        shift=HotKeyStorm(period_us=duration_us / 8.0, stride=7),
        duration_us=duration_us, n_clients=n_clients, seed=seed,
        description="constant load; the hot-key set rotates 8x per run")


def _flash_crowd(duration_us: float = 20_000.0,
                 keys_per_tenant: int = 600, n_clients: int = 4,
                 rate_scale: float = 1.0, seed: int = 0) -> Scenario:
    """Flash crowd: a 4x surge arriving in the middle third of the run."""
    return Scenario(
        name="flash-crowd", family="flash_crowd",
        schedule=FlashCrowdRate(base=0.05 * rate_scale,
                                surge=0.20 * rate_scale,
                                at_us=duration_us / 3.0,
                                duration_us=duration_us / 3.0),
        tenants=(TenantSpec("crowd", keys_per_tenant,
                            mix=(0.70, 0.25, 0.05, 0.00)),),
        duration_us=duration_us, n_clients=n_clients, seed=seed,
        description="4x step surge over the middle third of the run")


def _diurnal(duration_us: float = 20_000.0, keys_per_tenant: int = 600,
             n_clients: int = 4, rate_scale: float = 1.0,
             seed: int = 0) -> Scenario:
    """Diurnal curve with working-set drift; starts in the idle trough
    (the zero-arrival panes the telemetry plane must survive)."""
    return Scenario(
        name="diurnal", family="diurnal",
        schedule=DiurnalRate(trough=0.0, peak=0.22 * rate_scale,
                             period_us=duration_us / 2.0),
        tenants=(TenantSpec("day", keys_per_tenant,
                            mix=(0.60, 0.35, 0.05, 0.00)),),
        shift=WorkingSetDrift(keys_per_us=keys_per_tenant
                              / (4.0 * duration_us)),
        duration_us=duration_us, n_clients=n_clients, seed=seed,
        description="two day/night cycles from an idle trough, with "
                    "slow working-set drift")


def _multi_tenant(duration_us: float = 20_000.0,
                  keys_per_tenant: int = 400, n_clients: int = 4,
                  rate_scale: float = 1.0, seed: int = 0) -> Scenario:
    """Three tenants with disjoint key spaces and different mixes: a
    read-mostly tenant, a write-heavy tenant, and a churn tenant doing
    insert/delete cycles."""
    return Scenario(
        name="multi-tenant", family="multi_tenant",
        schedule=ConstantRate(0.15 * rate_scale)
        + RampRate(lo=0.0, hi=0.06 * rate_scale,
                   t0_us=0.0, t1_us=duration_us),
        tenants=(
            TenantSpec("readmost", keys_per_tenant, weight=3.0,
                       mix=(0.92, 0.08, 0.00, 0.00)),
            TenantSpec("writer", keys_per_tenant, weight=2.0,
                       mix=(0.30, 0.65, 0.05, 0.00)),
            TenantSpec("churn", max(32, keys_per_tenant // 4), weight=1.0,
                       mix=(0.40, 0.20, 0.25, 0.15), value_size=48),
        ),
        duration_us=duration_us, n_clients=n_clients, seed=seed,
        description="3 tenants (read-mostly / write-heavy / "
                    "insert-delete churn) on a slowly ramping base load")


def _flash_crowd_gray(duration_us: float = 20_000.0,
                      keys_per_tenant: int = 600, n_clients: int = 4,
                      rate_scale: float = 1.0, seed: int = 0) -> Scenario:
    """Compound event: the flash crowd arrives while MN 0 is gray
    (slow-but-alive) and the fabric drops/duplicates a little."""
    return Scenario(
        name="flash-crowd-gray", family="compound",
        schedule=FlashCrowdRate(base=0.05 * rate_scale,
                                surge=0.18 * rate_scale,
                                at_us=duration_us * 0.35,
                                duration_us=duration_us * 0.30),
        tenants=(TenantSpec("crowd", keys_per_tenant,
                            mix=(0.60, 0.33, 0.05, 0.02)),),
        faults=(
            FaultEvent("gray", start_frac=0.25, end_frac=0.75,
                       mn_id=0, factor=4.0),
            FaultEvent("loss", start_frac=0.05, end_frac=0.95,
                       drop_p=0.005, dup_p=0.005),
        ),
        duration_us=duration_us, n_clients=n_clients, seed=seed,
        description="flash crowd landing inside a gray-MN window, on a "
                    "mildly lossy fabric")


SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "hot-key-storm": _storm,
    "flash-crowd": _flash_crowd,
    "diurnal": _diurnal,
    "multi-tenant": _multi_tenant,
    "flash-crowd-gray": _flash_crowd_gray,
}


# The canonical CI/test trim: small enough that a full fault-campaign +
# linearizability verdict per family runs in seconds, spread enough that
# no single key's history overflows the bitmask linearizability checker.
SMOKE_TRIM = {"duration_us": 3_000.0, "keys_per_tenant": 150,
              "n_clients": 3, "rate_scale": 0.6}


def get_scenario(name: str, **overrides) -> Scenario:
    """Resolve a scenario name to a built instance.

    ``overrides`` are factory knobs: ``duration_us``,
    ``keys_per_tenant``, ``n_clients``, ``rate_scale``, ``seed`` —
    the trimmed smoke variants in CI pass small values here; replayed
    verdicts pass the recorded seed.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (one of: {known})")
    return factory(**overrides)
