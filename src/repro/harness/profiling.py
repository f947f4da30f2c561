"""Observed workload runs: where do the simulated microseconds go?

Glue between the harness beds and :mod:`repro.obs`.
:func:`observed_run` is the one recipe that stands up the observers on a
loaded bed — tracer, profiler, fabric sampler, online monitor — spawns
the clients and drives them; every CLI subcommand and experiment that
watches a run calls it.  :func:`profile_ycsb` is its profiled YCSB front
end: it returns the full attribution bundle — per-op breakdowns, tail
attribution, the critical path, folded flamegraph stacks, and sampled
resource counters — in one deterministic, JSON-serialisable result.

FUSEE traces its own spans (`attach_tracer`); the baseline beds (Clover,
pDPM) have no internal tracing, so their ``execute`` is wrapped in a
begin/end span per operation — coarser (no phases) but attribution of
wait/service/propagation still lands via the resource layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from ..obs import (
    CriticalPath,
    Metrics,
    Monitor,
    Profiler,
    RunProfile,
    Tracer,
    analyze_critical_path,
    critical_report,
    folded_stacks,
    profile_report,
    sample_fabric,
)
from ..workloads.scenarios import get_scenario
from .runner import RunResult, run_closed_loop, run_open_loop
from .systems import Scale, SystemBed, _dataset, _make_system, _ycsb_factory

__all__ = ["ProfiledRun", "observed_run", "profile_ycsb", "PROFILE_SYSTEMS"]

PROFILE_SYSTEMS = ("fusee", "clover", "pdpm")


@dataclass
class ProfiledRun:
    """Everything an observed run produced.

    The field of an observer :func:`observed_run` was not asked for is
    ``None``; the reports and ``to_dict`` need a profiled run with a
    metrics registry (what :func:`profile_ycsb` returns).
    """

    system: str
    workload: str
    run: RunResult
    profile: Optional[RunProfile] = None
    critical: Optional[CriticalPath] = None
    tracer: Optional[Tracer] = None
    profiler: Optional[Profiler] = None
    metrics: Optional[Metrics] = None
    # Monitor health report (repro.obs.monitor); None when the run was
    # not monitored.
    health: Optional[dict] = None

    @property
    def spans(self):
        return self.tracer.spans

    def folded(self) -> List[str]:
        return folded_stacks(self.profiler, self.tracer.spans)

    def attribution(self) -> str:
        """The latency-breakdown and critical-path reports."""
        return "\n\n".join([profile_report(self.profile),
                            critical_report(self.critical)])

    def report(self) -> str:
        return (f"profile: {self.system} YCSB-{self.workload} "
                f"({self.run.ops} ops, {self.run.mops:.3f} Mops)\n\n"
                + self.attribution())

    def to_dict(self) -> dict:
        """Deterministic payload for ``BENCH_profile.json``."""
        return {
            "system": self.system,
            "workload": self.workload,
            "ops": self.run.ops,
            "errors": self.run.errors,
            "duration_us": self.run.duration_us,
            "mops": round(self.run.mops, 6),
            "profile": self.profile.to_dict(),
            "critical_path": self.critical.to_dict(),
            "series": {name: self.metrics.series[name].summary()
                       for name in sorted(self.metrics.series)},
            # the health report minus its wall-clock "overhead" section,
            # keeping this payload deterministic across same-seed runs
            **({"health": {k: v for k, v in self.health.items()
                           if k != "overhead"}}
               if self.health is not None else {}),
        }


def _traced_execute(bed: SystemBed, tracer: Tracer):
    """Wrap ``bed.execute`` in one span per op (for untraced beds)."""
    inner = bed.execute

    def execute(client, op, key, value):
        span = tracer.begin_span(op, getattr(client, "cid", 0), key=key)
        ok = yield from inner(client, op, key, value)
        tracer.end_span(span, bool(ok))
        return ok

    return execute


def observed_run(bed: SystemBed, n_clients: int, source_factory: Callable,
                 duration_us: float, *, paced: bool = False,
                 trace: bool = False, profile: bool = False,
                 metrics: bool = False,
                 sample_interval_us: Optional[float] = None,
                 monitor_config=None, slos=(), tail_pct: float = 99.0,
                 **run_kw) -> ProfiledRun:
    """Attach the requested observers to a loaded ``bed``, spawn
    ``n_clients`` clients and drive them for ``duration_us``.

    ``source_factory(index)`` is a per-client workload for the closed
    loop, or — with ``paced=True`` — a stream of timed arrivals for
    :func:`run_open_loop`; ``run_kw`` (``warmup_us``, ``events``,
    ``timeline_bucket_us``, ``collect_latency``) goes to the runner as is.

    Observers attach *after* the bulk load, so the load stays untraced and
    unprofiled on the kernel's fast drain loop, and always in this order —
    the sampler and the monitor are simulation processes, so event ids
    (and with them every same-seed trace) depend on it:

    1. a :class:`Tracer` iff something needs spans (``trace``, ``profile``
       or a monitor): ``attach_tracer`` on FUSEE; Clover and pDPM get one
       coarse span per op around ``bed.execute``;
    2. ``profile`` installs the :class:`Profiler`; the run is then
       hook-aware (``fast=False``) and ``tail_pct`` sets the tail of the
       collected :class:`RunProfile`.  Anything else asserts the fast path;
    3. ``metrics`` hands the runner a :class:`Metrics` registry;
       ``sample_interval_us`` additionally samples NIC/CPU series into it;
    4. ``monitor_config`` (a :class:`repro.obs.MonitorConfig`, with
       ``slos``) attaches the online monitor; its report lands in
       ``ProfiledRun.health``.  Only a FUSEE bed can host one.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    self_traced = hasattr(bed.cluster, "attach_tracer")
    if monitor_config is not None and not self_traced:
        raise ValueError(f"monitor_config needs a FUSEE bed; a {bed.name} "
                         "bed cannot host the online monitor")
    # Guards against a check hook accidentally left on the bed: without
    # this a profiled run (fast=False) would silently inherit it.
    bed.env.require_fast()
    tracer = profiler = registry = monitor = None
    execute = bed.execute
    if trace or profile or monitor_config is not None:
        tracer = Tracer()
        if self_traced:
            bed.cluster.attach_tracer(tracer)
        else:
            execute = _traced_execute(bed, tracer)
    if profile:
        profiler = Profiler(tracer=tracer).install(bed.env)
    if metrics or sample_interval_us is not None:
        registry = Metrics()
    if sample_interval_us is not None:
        sample_fabric(bed.env, registry, bed.cluster.fabric,
                      interval_us=sample_interval_us)
    if monitor_config is not None:
        monitor = Monitor(bed.env, bed.cluster.fabric, config=monitor_config,
                          slos=slos, race=bed.cluster.race)
        bed.cluster.attach_monitor(monitor)
    clients = [bed.new_client() for _ in range(n_clients)]
    drive = run_open_loop if paced else run_closed_loop
    run = drive(bed.env, clients, source_factory, execute,
                duration_us=duration_us, metrics=registry,
                fast=profiler is None, monitor=monitor, **run_kw)
    result = ProfiledRun(system=bed.name, workload="", run=run,
                         tracer=tracer, profiler=profiler, metrics=registry,
                         health=run.health)
    if profiler is not None:
        result.profile = RunProfile.collect(profiler, tracer.spans,
                                            tail_pct=tail_pct)
        result.critical = analyze_critical_path(profiler, tracer.spans)
    return result


def profile_ycsb(system: str = "fusee", workload: str = "A",
                 scale: Optional[Scale] = None,
                 n_clients: Optional[int] = None,
                 tail_pct: float = 99.0,
                 sample_interval_us: float = 50.0,
                 monitor_config=None,
                 slos=(),
                 scenario: Optional[object] = None,
                 seed: int = 0,
                 **bed_kw) -> ProfiledRun:
    """Run a profiled closed-loop YCSB mix and attribute its time.

    The bulk load runs unprofiled on the fast kernel (the observers
    attach after it, see :func:`observed_run`).  No warmup: every span
    that *ends* inside the run is attributed; spans cut off at the
    deadline are skipped and counted (``RunProfile.unfinished_spans``).

    ``bed_kw`` goes untouched to the builder of ``system``'s bed, which
    owns the knob names and rejects the ones it does not have:
    :func:`fusee_bed` (``n_memory_nodes``, ``replication``, the hot-path
    and multi-queue knobs, ...), :func:`clover_bed` (``n_memory_nodes``,
    ``metadata_cores`` — 2 here unless given) or :func:`pdpm_bed`.
    ``n_clients=None`` means the scenario's, else the scale's, count.

    ``monitor_config`` (a :class:`repro.obs.MonitorConfig`) attaches the
    online monitor to the measured window — windowed quantiles, SLO
    burn-rate alerts from ``slos``, the gray-failure detector — and
    lands its health report in ``ProfiledRun.health`` (FUSEE only).

    ``scenario`` (a name from ``repro.workloads.SCENARIOS`` or a
    :class:`~repro.workloads.Scenario`) replaces the YCSB mix with the
    scenario's multi-tenant key population driven at saturation
    (closed-loop, so the profiler attributes pure service time rather
    than pacing idle).
    """
    scale = scale or Scale.bench()
    if isinstance(scenario, str):
        scenario = get_scenario(scenario, seed=seed)
    if n_clients is None:
        n_clients = (scale if scenario is None else scenario).n_clients
    if system == "fusee":
        # scaled beds run hundreds of clients; keep headroom for the
        # loader client and background churn
        bed_kw.setdefault("max_clients", max(256, n_clients + 8))
    elif system == "clover":
        bed_kw.setdefault("metadata_cores", 2)
    bed = _make_system(system, scale, load=False, **bed_kw)
    if scenario is not None:
        bed.load(scenario.preload_items())
        factory = scenario.saturating_workload
        duration_us = scenario.duration_us
        workload = f"scenario:{scenario.name}"
    else:
        bed.load(_dataset(scale))
        factory = _ycsb_factory(scale, workload)
        duration_us = scale.duration_us
    result = observed_run(bed, n_clients, factory, duration_us,
                          profile=True, metrics=True,
                          sample_interval_us=sample_interval_us,
                          monitor_config=monitor_config, slos=slos,
                          tail_pct=tail_pct)
    return replace(result, system=system, workload=workload)
