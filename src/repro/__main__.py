"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every reproducible paper artefact and its description.
``run <name> [...]``
    Regenerate one artefact (or ``all``) and print its table; optionally
    write tables to a directory.
``demo``
    A 30-second smoke demo of the store itself.
``ycsb``
    Drive a closed-loop YCSB workload against a FUSEE bed, optionally
    exporting a Chrome trace (``--trace``), a JSONL event log
    (``--jsonl``) and a metrics report (``--metrics``).
``profile``
    Run a profiled YCSB mix on any system bed (FUSEE, Clover, pDPM) and
    attribute where the simulated microseconds go: per-op queueing
    breakdowns, tail attribution, the critical path, folded flamegraph
    stacks (``--flame``) and a Chrome trace with resource counter tracks
    (``--trace``).  See docs/profiling.md.
``check``
    Systematic schedule exploration (see docs/checking.md): explore a
    scenario clean, verify a protocol mutation is caught, replay a
    recorded decision sequence, or (default) run the whole
    mutation-detection matrix.
``faults``
    Run a fault-injection campaign (see docs/faults.md): a scripted or
    seeded-random timeline of packet loss, duplication, partitions and
    gray nodes under a multi-client workload, with a fault/outcome
    report and linearizability verdict.
``monitor``
    Exercise the online telemetry plane (see docs/monitoring.md): run a
    monitored clean-bed YCSB workload (asserting the gray-failure
    detector raises zero flags) or a monitored fault campaign
    (``--campaign``, asserting every seeded gray/port fault is caught),
    printing the end-of-run health report either way.

Observability flags (``demo`` and ``ycsb``)
-------------------------------------------
``--trace out.json``   write a Chrome ``trace_event`` file — open it at
                       https://ui.perfetto.dev to see every KV operation
                       span and RDMA verb on the simulated timeline.
``--jsonl out.jsonl``  write one JSON record per span/batch (stable field
                       order; byte-identical across same-seed runs).
``--metrics``          print counters, latency histograms and NIC/CPU
                       utilisation series at the end of the run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .harness import ALL_EXPERIMENTS, PROFILE_SYSTEMS, Scale
from .harness.report import render


def _scale_from(name: str) -> Scale:
    presets = {"tiny": Scale.tiny, "bench": Scale.bench, "full": Scale.full,
               "production": Scale.production}
    if name not in presets:
        raise SystemExit(f"unknown scale {name!r}; pick from "
                         f"{sorted(presets)}")
    return presets[name]()


def cmd_list(_args) -> int:
    width = max(len(name) for name in ALL_EXPERIMENTS)
    for name, fn in ALL_EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<{width}}  {doc}")
    return 0


def cmd_run(args) -> int:
    names = list(ALL_EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    scale = _scale_from(args.scale)
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        started = time.time()
        result = ALL_EXPERIMENTS[name](scale)
        elapsed = time.time() - started
        print(render(result, args.format))
        print(f"[{elapsed:.1f}s wall]\n")
        if out_dir:
            ext = {"table": "txt", "csv": "csv", "md": "md",
                   "chart": "txt"}[args.format]
            (out_dir / f"{name}.{ext}").write_text(
                render(result, args.format) + "\n")
    return 0


def _export_obs(args, tracer, metrics) -> None:
    """Write/print whatever observability sinks the flags asked for."""
    from .harness.report import obs_report
    from .obs import write_chrome_trace, write_jsonl

    if tracer is not None and args.trace:
        write_chrome_trace(tracer, args.trace, metrics=metrics)
        print(f"chrome trace: {args.trace} ({len(tracer.spans)} spans; "
              f"open at https://ui.perfetto.dev)")
    if tracer is not None and args.jsonl:
        write_jsonl(tracer, args.jsonl)
        print(f"jsonl events: {args.jsonl}")
    if tracer is not None or metrics is not None:
        print()
        print(obs_report(tracer, metrics))


def cmd_demo(args) -> int:
    from . import ClusterConfig, FuseeCluster, FuseeKV

    tracer = metrics = None
    if args.trace or args.jsonl:
        from .obs import Tracer
        tracer = Tracer()
    cluster = FuseeCluster(ClusterConfig(n_memory_nodes=2,
                                         replication_factor=2),
                           tracer=tracer)
    if args.metrics:
        from .obs import Metrics, sample_fabric
        metrics = Metrics()
        sample_fabric(cluster.env, metrics, cluster.fabric, interval_us=5.0)
    kv = FuseeKV(cluster=cluster)
    kv.insert(b"demo", b"it works")
    print("insert/search:", kv.search(b"demo").decode())
    kv.update(b"demo", b"it still works")
    print("update/search:", kv.search(b"demo").decode())
    kv.delete(b"demo")
    print("after delete:", kv.search(b"demo"))
    stats = kv.cluster.fabric.stats
    print(f"verbs used: {stats.reads} reads, {stats.writes} writes, "
          f"{stats.atomics} atomics ({kv.now_us:.1f} simulated us)")
    _export_obs(args, tracer, metrics)
    return 0


def _resolve_scenario(args):
    """Resolve ``--scenario [--smoke]`` into a Scenario (None without)."""
    from .workloads import SMOKE_TRIM, get_scenario

    if not args.scenario:
        return None
    overrides = dict(SMOKE_TRIM) if getattr(args, "smoke", False) else {}
    return get_scenario(args.scenario, seed=args.seed, **overrides)


def _hotpath_kw(args) -> dict:
    """The ``fusee_bed`` keywords chosen by the hot-path and replication
    flags: the one place a knob is named between its flag and its builder."""
    return dict(read_spread=args.read_spread,
                max_coalesce_width=args.coalesce_width,
                nic_ports=args.nic_ports, rpc_shards=args.rpc_shards,
                port_affinity=args.port_affinity,
                replication=args.replication)


def _observed_ycsb(args, scn, bed_kw, **observers):
    """Load a FUSEE bed and drive it under the observed-run recipe: the
    paced tenant streams of scenario ``scn``, else closed-loop YCSB.
    Prints the load and throughput lines; returns the ``ProfiledRun``."""
    from .harness.profiling import observed_run
    from .harness.systems import fusee_bed
    from .workloads import YcsbConfig, YcsbWorkload

    n_clients = args.clients if scn is None else scn.n_clients
    bed = fusee_bed(n_memory_nodes=args.memory_nodes,
                    dataset_bytes=args.keys * 1024 if scn is None
                    else max(args.keys * 1024, 1 << 21),
                    max_clients=max(256, n_clients + 8), **bed_kw)
    if scn is not None:
        loaded = bed.load(scn.preload_items())
        print(f"loaded {loaded} keys across {len(scn.tenants)} tenant(s) "
              f"(scenario {scn.name}, family {scn.family}, seed {scn.seed})")
        source, duration_us = scn.client_stream, scn.duration_us
        offered = scn.schedule.integral(0.0, scn.duration_us)
        suffix = f"; ~{offered:.0f} offered"
    else:
        config = YcsbConfig(workload=args.workload, n_keys=args.keys)
        seeder = YcsbWorkload(config, seed=args.seed)
        loaded = bed.load((key, seeder.load_value(i))
                          for i, key in enumerate(seeder.load_keys()))
        print(f"loaded {loaded}/{args.keys} keys "
              f"(YCSB-{args.workload}, seed {args.seed})")

        def source(index):
            return YcsbWorkload(config, seed=args.seed + 1 + index)
        duration_us, suffix = args.duration_us, ""
    # Observers attach inside the recipe, after the load: it stays untraced.
    result = observed_run(bed, n_clients, source, duration_us,
                          paced=scn is not None, **observers)
    run = result.run
    print(f"{run.ops} ops in {run.duration_us:.0f} simulated us "
          f"-> {run.mops:.3f} Mops ({run.errors} errors{suffix})")
    return result


def cmd_ycsb(args) -> int:
    from .workloads import tenant_report

    scn = _resolve_scenario(args)
    monitor_config, slos = _monitor_setup(args)
    result = _observed_ycsb(
        args, scn, dict(replication_factor=args.replicas,
                        variant=args.variant, **_hotpath_kw(args)),
        trace=bool(args.trace or args.jsonl), profile=args.profile,
        # a scenario's tenant report reads the registry, --metrics or not
        metrics=args.metrics or scn is not None,
        sample_interval_us=args.sample_interval if args.metrics else None,
        monitor_config=monitor_config, slos=slos)
    if scn is not None:
        print()
        print(f"{'tenant':>10} {'ops':>6} {'share':>6} {'err':>4} "
              f"{'p50_us':>8} {'p99_us':>8}")
        for name, row in tenant_report(result.metrics, scn).items():
            print(f"{name:>10} {row['ops']:>6} "
                  f"{row['throughput_share']:>6.2f} {row['errors']:>4} "
                  f"{row['p50_us']:>8.2f} {row['p99_us']:>8.2f}")
    if result.health is not None:
        _report_health(args, result.health)
    if args.profile:
        print()
        print(result.attribution())
    _export_obs(args, result.tracer,
                result.metrics if args.metrics else None)
    return 0


def cmd_profile(args) -> int:
    import inspect
    import json

    from .harness.profiling import profile_ycsb
    from .harness.systems import fusee_bed
    from .obs import write_chrome_trace, write_folded

    monitor_config, slos = _monitor_setup(args)
    bed_kw = {"n_memory_nodes": args.memory_nodes}
    if args.system == "fusee":
        bed_kw.update(_hotpath_kw(args))
    else:
        # A baseline bed has none of FUSEE's knobs and cannot host the
        # monitor: refuse the flags instead of reporting on a bed that
        # silently ignored them.
        defaults = inspect.signature(fusee_bed).parameters
        refused = [f"{k}={v}" for k, v in _hotpath_kw(args).items()
                   if v != defaults[k].default]
        if monitor_config is not None:
            refused.append("--windows/--slo/--hotkeys")
        if refused:
            print(f"profile --system {args.system}: {', '.join(refused)} "
                  "need(s) a FUSEE bed", file=sys.stderr)
            return 2
        if args.system == "clover":
            bed_kw["metadata_cores"] = args.metadata_cores
    result = profile_ycsb(system=args.system, workload=args.workload,
                          scale=_scale_from(args.scale),
                          n_clients=args.clients,
                          tail_pct=args.tail_pct,
                          sample_interval_us=args.sample_interval,
                          monitor_config=monitor_config, slos=slos,
                          scenario=_resolve_scenario(args), seed=args.seed,
                          **bed_kw)
    print(result.report())
    if result.health is not None:
        _report_health(args, result.health)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nprofile json: {args.out}")
    if args.flame:
        write_folded(result.profiler, result.spans, args.flame)
        print(f"folded stacks: {args.flame} "
              "(render with flamegraph.pl or speedscope)")
    if args.trace:
        write_chrome_trace(result.tracer, args.trace,
                           metrics=result.metrics)
        print(f"chrome trace: {args.trace} (counter tracks included; "
              "open at https://ui.perfetto.dev)")
    return 0


def cmd_check(args) -> int:
    from .check import (MUTATION_SPECS, MUTATIONS, SCENARIOS,
                        ControlledScheduler, ScheduleExplorer,
                        format_repro, minimize_schedule)

    if args.list:
        print("scenarios:")
        for name in SCENARIOS:
            print(f"  {name}")
        print("mutations (scenario, schedule budget, decision depth):")
        for name, spec in MUTATION_SPECS.items():
            print(f"  {name:30s} {spec.scenario}, "
                  f"{spec.max_schedules}, {spec.max_decisions}")
        return 0

    for kind, name, known in (("scenario", args.scenario, SCENARIOS),
                              ("mutation", args.mutation, MUTATIONS)):
        if name and name not in known:
            print(f"unknown {kind} {name!r}", file=sys.stderr)
            print(f"available: {', '.join(known)}", file=sys.stderr)
            return 2

    if args.replay is not None:
        if not args.scenario:
            print("--replay needs --scenario", file=sys.stderr)
            return 2
        decisions = args.replay
        scenario = SCENARIOS[args.scenario]()
        if args.mutation:
            with MUTATIONS[args.mutation]():
                violation = scenario(ControlledScheduler(decisions=decisions))
        else:
            violation = scenario(ControlledScheduler(decisions=decisions))
        print(f"replay {decisions} on {args.scenario}"
              + (f" (mutation {args.mutation})" if args.mutation else ""))
        print(f"  -> {violation or 'clean'}")
        return 0 if (violation is not None) == bool(args.mutation) else 1

    def bounds(schedules: int, decisions: int):
        """The documented bounds, unless a flag overrides them."""
        return (schedules if args.max_schedules is None
                else args.max_schedules,
                decisions if args.max_decisions is None
                else args.max_decisions)

    def detect(name: str) -> bool:
        """Explore a mutated protocol; True iff the mutation is caught."""
        spec = MUTATION_SPECS[name]
        factory = SCENARIOS[spec.scenario]
        budget, depth = bounds(spec.max_schedules, spec.max_decisions)
        with MUTATIONS[name]():
            result = ScheduleExplorer(factory(), max_schedules=budget,
                                      max_decisions=depth).explore()
            print(f"{name} on {spec.scenario}: {result.summary()}")
            if not result.found:
                return False
            minimized = minimize_schedule(factory(),
                                          result.violating_decisions)
        if minimized is not None:
            print(f"  {minimized}")
            print(format_repro(spec.scenario, minimized, mutation=name))
        return True

    def clean(scenario_name: str, budget: int, depth: int) -> bool:
        """Explore the unmutated protocol; True iff it survives."""
        result = ScheduleExplorer(SCENARIOS[scenario_name](),
                                  max_schedules=budget,
                                  max_decisions=depth).explore()
        print(f"clean {scenario_name}: {result.summary()}")
        if result.found:
            print(f"  violation: {result.violation}")
            print(f"  decisions: {result.violating_decisions}")
            return False
        return True

    if args.mutation:
        return 0 if detect(args.mutation) else 1
    if args.scenario:
        spec_budget = max((s.max_schedules for s in MUTATION_SPECS.values()
                           if s.scenario == args.scenario), default=2000)
        spec_depth = max((s.max_decisions for s in MUTATION_SPECS.values()
                          if s.scenario == args.scenario), default=40)
        return 0 if clean(args.scenario,
                          *bounds(spec_budget, spec_depth)) else 1

    # Default: the full matrix — every mutation caught, every scenario
    # clean at the same documented bounds.
    ok = True
    for name in MUTATION_SPECS:
        ok = detect(name) and ok
    for name, spec in MUTATION_SPECS.items():
        ok = clean(spec.scenario,
                   *bounds(spec.max_schedules, spec.max_decisions)) and ok
    print("check matrix:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _decisions(text: str) -> list:
    """An argparse type: comma-separated non-negative integers."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative integers, got {text!r}")
    return [int(part) for part in parts]


def cmd_faults(args) -> int:
    from .faults.campaign import CAMPAIGNS, run_campaign

    if args.list:
        from .workloads import SCENARIOS
        for name in (*CAMPAIGNS, "random"):
            print(name)
        for name in sorted(SCENARIOS):
            print(f"scenario:{name}")
        return 0
    monitor_config, slos = _monitor_setup(args)
    report = run_campaign(args.campaign, seed=args.seed,
                          retries=not args.no_retries,
                          clients=args.clients,
                          ops_per_client=args.ops_per_client,
                          replication=args.replication,
                          index_replication=args.index_replication,
                          monitor_config=monitor_config, slos=slos,
                          scenario=_resolve_scenario(args))
    print(report.render())
    if report.health is not None:
        _report_health(args, report.health)
    return 0 if report.sound else 1


def cmd_monitor(args) -> int:
    monitor_config, slos = _monitor_setup(args)
    if monitor_config is None:
        # The subcommand IS the opt-in: monitor with defaults even when
        # no --windows/--slo/--hotkeys flag was given.
        from .obs import MonitorConfig
        monitor_config = MonitorConfig()

    scenario = _resolve_scenario(args)
    if args.campaign or (scenario is not None and scenario.faults):
        # Faulted mode: every seeded gray/port fault must be caught.
        # A compound scenario (one carrying fault events) routes here
        # even without --campaign; its own fault plan applies.
        from .faults.campaign import run_campaign
        report = run_campaign(args.campaign or "mixed", seed=args.seed,
                              clients=args.clients,
                              nic_ports=args.nic_ports,
                              rpc_shards=args.rpc_shards,
                              monitor_config=monitor_config, slos=slos,
                              scenario=scenario)
        print(report.render())
        _report_health(args, report.health)
        det = report.detector or {}
        if det:
            verdict = "ok" if det.get("ok") else "FAIL"
            print(f"\ndetector verdict: {verdict} "
                  f"({len(det.get('caught', []))}/{det.get('expected', 0)} "
                  f"caught, {len(det.get('unexplained', []))} unexplained)")
        return 0 if report.sound else 1

    # Clean-bed mode: a monitored YCSB (or pure-load scenario) run on a
    # healthy cluster must produce zero detector flags (the
    # zero-false-positive guarantee).
    result = _observed_ycsb(
        args, scenario, dict(nic_ports=args.nic_ports,
                             rpc_shards=args.rpc_shards),
        monitor_config=monitor_config, slos=slos)
    _report_health(args, result.health)
    flags = (result.health.get("detector") or {}).get("flags", [])
    if flags:
        print(f"\nmonitor verdict: FAIL ({len(flags)} detector flag(s) "
              f"on a clean bed)")
        return 1
    print("\nmonitor verdict: clean (no detector flags)")
    return 0


def _add_replication_flag(parser, default=None) -> None:
    from .core.replication import registered_protocols
    parser.add_argument("--replication", default=default,
                        choices=registered_protocols(),
                        help="slot replication strategy (default: the "
                             "variant's own — snapshot unless noted)")


def _add_hotpath_flags(parser) -> None:
    parser.add_argument("--read-spread", default="primary",
                        choices=("primary", "round_robin", "least_loaded"),
                        help="spread KV READs across alive replicas "
                             "(default: paper-faithful primary)")
    parser.add_argument("--coalesce-width", type=int, default=1,
                        metavar="N",
                        help="max verbs folded into one NIC doorbell "
                             "serialisation slot (default 1 = "
                             "paper-faithful, no coalescing)")
    parser.add_argument("--nic-ports", type=int, default=1, metavar="N",
                        help="rx/tx NIC port pairs per memory node "
                             "(default 1 = paper-faithful single queue)")
    parser.add_argument("--rpc-shards", type=int, default=1, metavar="N",
                        help="independent RPC CPU shards per memory "
                             "node (default 1 = one pooled server loop)")
    parser.add_argument("--port-affinity", default="qp",
                        choices=("qp", "rss"),
                        help="how client QPs hash onto NIC ports "
                             "(default qp = per-QP affinity)")


def _add_obs_flags(parser) -> None:
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="write a Chrome trace_event file "
                             "(Perfetto-loadable)")
    parser.add_argument("--jsonl", default=None, metavar="OUT.jsonl",
                        help="write one JSON record per span/verb batch")
    parser.add_argument("--metrics", action="store_true",
                        help="print a metrics report after the run")


def _add_scenario_flags(parser) -> None:
    parser.add_argument("--scenario", default=None, metavar="NAME",
                        help="drive a production traffic scenario "
                             "instead of the YCSB mix "
                             "(docs/scenarios.md; 'faults --list' "
                             "prints the names)")
    parser.add_argument("--smoke", action="store_true",
                        help="apply the CI smoke trim to --scenario "
                             "(short duration, fewer keys/clients)")


def _add_monitor_flags(parser, default_hotkeys: int = 0) -> None:
    parser.add_argument("--windows", type=float, default=None,
                        metavar="US",
                        help="attach the online monitor with tumbling "
                             "windows of US simulated microseconds "
                             "(docs/monitoring.md)")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="SPEC",
                        help="SLO spec with burn-rate alerting "
                             "(latency:<op>:p<pct>:<us>, errors:<rate>, "
                             "availability:<rate>); repeatable; implies "
                             "--windows")
    parser.add_argument("--hotkeys", type=int, default=default_hotkeys,
                        metavar="K",
                        help="track the top-K hot keys and index buckets "
                             "per window (Space-Saving sketch); implies "
                             "--windows"
                             + (" (default: off)" if not default_hotkeys
                                else f" (default {default_hotkeys})"))
    parser.add_argument("--health-out", default=None, metavar="OUT.json",
                        help="write the end-of-run health report as JSON")


def _monitor_setup(args, default_window_us: float = 250.0):
    """Resolve the monitor flags to ``(MonitorConfig | None, slos)``."""
    from .obs import MonitorConfig, SloSpec

    slos = [SloSpec.parse(spec) for spec in getattr(args, "slo", ())]
    hotkeys = getattr(args, "hotkeys", 0)
    windows = getattr(args, "windows", None)
    if windows is None and not slos and not hotkeys:
        return None, []
    config = MonitorConfig(
        window_us=windows if windows is not None else default_window_us,
        hotkey_capacity=hotkeys)
    return config, slos


def _report_health(args, health) -> None:
    from .obs import render_health, write_health

    # Write the artifact before touching stdout: a downstream consumer
    # closing the pipe (| head) must not lose the requested JSON.
    out = getattr(args, "health_out", None)
    if out:
        write_health(health, out)
    print()
    print(render_health(health))
    if out:
        print(f"health json: {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FUSEE (FAST'23) reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible paper artefacts") \
        .set_defaults(func=cmd_list)

    run_parser = sub.add_parser("run", help="regenerate artefacts")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names (or 'all')")
    run_parser.add_argument("--scale", default="bench",
                            choices=("tiny", "bench", "full", "production"))
    run_parser.add_argument("--out", default=None,
                            help="directory to write tables into")
    run_parser.add_argument("--format", default="table",
                            choices=("table", "csv", "md", "chart"))
    run_parser.set_defaults(func=cmd_run)

    demo_parser = sub.add_parser("demo", help="smoke-test the store")
    _add_obs_flags(demo_parser)
    demo_parser.set_defaults(func=cmd_demo)

    ycsb_parser = sub.add_parser(
        "ycsb", help="run a closed-loop YCSB workload (traceable)")
    ycsb_parser.add_argument("--workload", default="A",
                             choices=sorted("ABCD"))
    ycsb_parser.add_argument("--keys", type=_at_least(1), default=2000)
    ycsb_parser.add_argument("--clients", type=_at_least(1), default=4)
    ycsb_parser.add_argument("--duration-us", type=float, default=20_000.0)
    ycsb_parser.add_argument("--seed", type=int, default=42)
    ycsb_parser.add_argument("--memory-nodes", type=int, default=2)
    ycsb_parser.add_argument("--replicas", type=int, default=2)
    ycsb_parser.add_argument("--variant", default="fusee",
                             choices=("fusee", "fusee-cr", "fusee-nc",
                                      "fusee-swarm"))
    _add_replication_flag(ycsb_parser)
    ycsb_parser.add_argument("--profile", action="store_true",
                             help="attribute span time (profiler) and "
                                  "print the latency breakdown")
    _add_hotpath_flags(ycsb_parser)
    _add_obs_flags(ycsb_parser)
    ycsb_parser.add_argument("--sample-interval", type=float,
                             default=50.0, metavar="US",
                             help="fabric counter sampling interval for "
                                  "--metrics (simulated us, default 50)")
    _add_monitor_flags(ycsb_parser)
    _add_scenario_flags(ycsb_parser)
    ycsb_parser.set_defaults(func=cmd_ycsb)

    profile_parser = sub.add_parser(
        "profile",
        help="run a profiled YCSB mix and print/write the latency "
             "attribution (see docs/profiling.md)")
    profile_parser.add_argument("--system", default="fusee",
                                choices=PROFILE_SYSTEMS)
    profile_parser.add_argument("--workload", default="A",
                                choices=sorted("ABCD"))
    profile_parser.add_argument("--scale", default="bench",
                                choices=("tiny", "bench", "full",
                                         "production"))
    profile_parser.add_argument("--clients", type=_at_least(1), default=None,
                                help="override the scale's client count")
    profile_parser.add_argument("--memory-nodes", type=int, default=2)
    profile_parser.add_argument("--metadata-cores", type=int, default=2,
                                help="Clover metadata-server cores "
                                     "(Fig. 2 knob)")
    profile_parser.add_argument("--tail-pct", type=float, default=99.0,
                                help="tail percentile for the slowest-"
                                     "spans breakdown")
    profile_parser.add_argument("--out", default="profile.json",
                                metavar="OUT.json",
                                help="write the attribution bundle "
                                     "(default profile.json; '' "
                                     "to skip)")
    profile_parser.add_argument("--flame", default=None,
                                metavar="OUT.folded",
                                help="write folded flamegraph stacks")
    profile_parser.add_argument("--trace", default=None,
                                metavar="OUT.json",
                                help="write a Chrome trace with counter "
                                     "tracks")
    profile_parser.add_argument("--sample-interval", type=float,
                                default=50.0, metavar="US",
                                help="fabric counter sampling interval "
                                     "(simulated us, default 50)")
    profile_parser.add_argument("--seed", type=int, default=0,
                                help="scenario stream seed (with "
                                     "--scenario)")
    _add_replication_flag(profile_parser)
    _add_hotpath_flags(profile_parser)
    _add_monitor_flags(profile_parser)
    _add_scenario_flags(profile_parser)
    profile_parser.set_defaults(func=cmd_profile)

    check_parser = sub.add_parser(
        "check", help="systematic schedule exploration / mutation matrix")
    check_parser.add_argument("--list", action="store_true",
                              help="list scenarios and mutations")
    check_parser.add_argument("--scenario", default=None,
                              help="explore one scenario (expects clean)")
    check_parser.add_argument("--mutation", default=None,
                              help="explore one mutated protocol "
                                   "(expects a violation)")
    check_parser.add_argument("--replay", type=_decisions, default=None,
                              metavar="0,1,0",
                              help="replay a recorded decision sequence "
                                   "(with --scenario, optionally "
                                   "--mutation)")
    check_parser.add_argument("--max-schedules", type=_at_least(1),
                              default=None,
                              help="override the documented schedule budget")
    check_parser.add_argument("--max-decisions", type=_at_least(0),
                              default=None,
                              help="override the branch depth bound (0: "
                                   "the canonical schedule only)")
    check_parser.set_defaults(func=cmd_check)

    faults_parser = sub.add_parser(
        "faults", help="run a network-fault-injection campaign")
    faults_parser.add_argument("--campaign", default="mixed",
                               help="campaign name (see --list); "
                                    "'random' draws a seeded plan")
    faults_parser.add_argument("--seed", type=int, default=0,
                               help="fate seed (and plan seed for "
                                    "'random')")
    faults_parser.add_argument("--clients", type=_at_least(1), default=3)
    faults_parser.add_argument("--ops-per-client", type=_at_least(1),
                               default=120)
    faults_parser.add_argument("--no-retries", action="store_true",
                               help="disable the client retry layer "
                                    "(negative control)")
    faults_parser.add_argument("--list", action="store_true",
                               help="list campaign names")
    _add_replication_flag(faults_parser, default="snapshot")
    faults_parser.add_argument("--index-replication", type=int, default=1,
                               help="index replica count (capped at the "
                                    "MN count); raise to exercise "
                                    "multi-replica protocol paths under "
                                    "faults (default: 1)")
    _add_monitor_flags(faults_parser)
    _add_scenario_flags(faults_parser)
    faults_parser.set_defaults(func=cmd_faults)

    monitor_parser = sub.add_parser(
        "monitor",
        help="watch a run through the online telemetry plane "
             "(docs/monitoring.md): windowed quantiles, SLO burn "
             "rates, hot keys, and the gray-failure detector")
    monitor_parser.add_argument("--campaign", default=None,
                                help="monitor a fault campaign instead "
                                     "of a clean YCSB bed; the seeded "
                                     "gray/port faults must be caught")
    monitor_parser.add_argument("--seed", type=int, default=0)
    monitor_parser.add_argument("--clients", type=_at_least(1), default=4)
    monitor_parser.add_argument("--duration-us", type=float,
                                default=20_000.0)
    monitor_parser.add_argument("--keys", type=_at_least(1), default=2000)
    monitor_parser.add_argument("--workload", default="A",
                                choices=sorted("ABCD"))
    monitor_parser.add_argument("--memory-nodes", type=int, default=2)
    monitor_parser.add_argument("--nic-ports", type=int, default=1,
                                metavar="N")
    monitor_parser.add_argument("--rpc-shards", type=int, default=1,
                                metavar="N")
    _add_monitor_flags(monitor_parser, default_hotkeys=8)
    _add_scenario_flags(monitor_parser)
    monitor_parser.set_defaults(func=cmd_monitor)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
