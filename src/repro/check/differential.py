"""The differential catalogue behind ``python -m repro differential``:
named, seeded builds reduced to the digests of :data:`FIELDS` and recorded
in ``DIFFERENTIAL.json`` (docs/simulation_model.md, "Differential
catalogue")."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import fnmatch
import functools
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import pathlib
import random
import re
import sys
import tempfile
import time
from unittest import mock

from .. import __main__ as cli
from ..core import ClientConfig, ClusterConfig, FuseeCluster
from ..core.addressing import RegionConfig
from ..core.client import CrashPoint
from ..core.race import RaceConfig
from ..faults import FaultPlan, campaign
from ..harness.profiling import observed_run
from ..harness.systems import fusee_bed
from ..obs import (MonitorConfig, SloSpec, Tracer, chrome_trace,
                   health_fingerprint, jsonl_lines)
from ..workloads import SMOKE_TRIM, YcsbConfig, YcsbWorkload
from . import MUTATION_SPECS, MUTATIONS, SCENARIOS, ScheduleExplorer

__all__ = ["CATALOGUE", "FIELDS", "build", "digest", "main", "recorded"]

PATH = pathlib.Path(__file__).resolve().parents[3] / "DIFFERENTIAL.json"
FIELDS = ("trace", "eid", "now", "fabric", "memory", "alloc", "out", "verdict")
Cell = collections.namedtuple("Cell", "name builder seed")
_canon = functools.partial(json.dumps, sort_keys=True,
                           separators=(",", ":"), default=str)


def digest(data) -> str:
    """12-hex sha256 prefix of text, bytes or a buffer (not copied)."""
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()[:12]


def _state(cluster, tracer, report) -> dict:
    """A cluster's fields; ``out`` is ``report`` plus the client stats."""
    env, fabric, clients = cluster.env, cluster.fabric, cluster.clients
    alloc = [[[c.cid, [[list(s.free), s.last_alloc, s.head, s.head_written]
                       for s in c.allocator._classes],
               c.allocator._owned_blocks, list(c.allocator._pending_frees),
               c.allocator.stats_blocks_allocated] for c in clients],
             {mn: list(a._free_blocks) for mn, a in
              sorted(cluster.mn_allocators.items())}]
    stats = [[dataclasses.asdict(c.stats), dataclasses.asdict(c.cache.stats)]
             for c in clients]
    return {"trace": digest("\n".join(jsonl_lines(tracer))), "eid": env._eid,
            "now": float(env.now).hex(),
            "fabric": digest(_canon(dataclasses.asdict(
                fabric.stats.snapshot()))),
            "memory": [digest(node.memory)
                       for _mn, node in sorted(fabric.nodes.items())],
            "alloc": digest(_canon(alloc)),
            "out": digest(_canon([report, stats]))}


_BED = dict(n_memory_nodes=3, dataset_bytes=1 << 18,
            background_interval_us=300.0)
# The bed of tests/test_trace_determinism.py::observed_ycsb.
_TRACE_BED = dict(replication_factor=2, dataset_bytes=1 << 18,
                  background_interval_us=0.0)
BED_VARIANTS = {
    "default": {}, "bypass": {"cache_threshold": 0.0},
    "sequential": {"replication": "sequential", "index_replication": 2},
    "swarm": {"replication": "swarm", "index_replication": 2},
    "mn1-crash": {"index_replication": 2}, "fusee-nc": {"variant": "fusee-nc"}}


def _ycsb_bed(seed, workload="A", bed_kw=_BED, n_clients=3,
              duration_us=2000.0, crash_mn=None, chrome=False) -> dict:
    """Seeded YCSB on a loaded bed; ``chrome``: ``out`` is the trace's."""
    bed = fusee_bed(**bed_kw)
    config = YcsbConfig(workload=workload, n_keys=200)
    seeder = YcsbWorkload(config, seed=seed)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    events = [] if crash_mn is None else [
        (500.0, lambda: bed.cluster.crash_memory_node(crash_mn))]
    result = observed_run(
        bed, n_clients, lambda i: YcsbWorkload(config, seed=seed + 1 + i),
        duration_us, trace=True, events=events)
    run = result.run
    fields = _state(bed.cluster, result.tracer,
                    [run.ops, run.errors, run.per_op_counts])
    return {**fields, "out": digest(_canon(chrome_trace(result.tracer)))} \
        if chrome else fields


def _scripted(seed, n_clients=4, n_keys=6, race=None) -> dict:
    """Seeded op mixes on shared keys (inserts split a small ``race``)."""
    bed = fusee_bed(**dict(_BED, race=race))
    tracer, outcomes, cluster, env = Tracer(), [], bed.cluster, bed.env
    cluster.attach_tracer(tracer)
    clients = [bed.new_client() for _ in range(n_clients)]
    keys = [b"k%02d" % i for i in range(n_keys)]

    def loop(client, rng, script):
        for i, (op, key) in enumerate(script):
            value = b"%d-%d" % (client.cid, i) * rng.randint(1, 40)
            ok = yield from bed.execute(client, op, key, value)
            outcomes.append((client.cid, op, bool(ok)))

    rngs = [random.Random(seed * 10 + i) for i in range(n_clients)]
    if race is not None:
        cluster.run_op(loop(clients[0], rngs[0], [("insert", key)
                                                  for key in keys]))
    env.run(until=env.all_of([env.process(loop(c, rng, [(rng.choice(
        ("insert", "update", "delete", "search")), rng.choice(keys))
        for _ in range(40)])) for c, rng in zip(clients, rngs)]))
    if race is not None:
        cluster.run_op(cluster.master.request_expand(0))
    return _state(cluster, tracer, outcomes)


#: name -> ((MNs, data replicas, index replicas), replication protocol)
RECOVERY_CONFIGS = {
    "2mn_rf2": ((2, 2, 2), "snapshot"), "seq_idx2": ((3, 2, 2), "sequential"),
    "3mn_rf2_idx2": ((3, 2, 2), "snapshot"), "3mn_rf3_idx3": ((3, 3, 3),
                                                              "snapshot"),
    "swarm_idx2": ((3, 2, 2), "swarm"), "swarm_idx3": ((3, 3, 3), "swarm")}
CRASH_OPS = ("update", "delete", "insert", "update")  # crashes at c0..c3


def _recovery(seed, config, point, mn_crash) -> dict:
    """Churn, crash at ``c<point>`` (and MN ``mn_crash``), recover, revive."""
    (mns, rf, idx), mode = RECOVERY_CONFIGS[config]
    tracer = Tracer()
    cluster = FuseeCluster(ClusterConfig(
        n_memory_nodes=mns, replication_factor=rf, index_replication=idx,
        regions_per_mn=2, region=RegionConfig(1 << 18, 1 << 13),
        race=RaceConfig(4, 16, 7), max_clients=32,
        client=ClientConfig(replication_mode=mode)), tracer=tracer)
    env, run = cluster.env, cluster.run_op
    rng = random.Random(f"{config}/{seed}/{point}/{mn_crash}")
    clients = [cluster.new_client() for _ in range(3)]
    victim, keys, live = clients[0], [b"r%02d" % i for i in range(24)], {}

    def do(client, op, key):
        if op == "delete":
            return run(client.delete(key)).ok and live.pop(key)
        value = b"%d" % rng.randrange(10) * rng.choice(
            (8, 40, 100, 200, 400, 700, 900))    # seven size classes
        if run(getattr(client, op)(key, value)).ok:
            live[key] = value

    for i in range(120):       # the victim runs two ops of three
        client = clients[0 if i % 3 else 1 + i // 3 % 2]
        key, roll = rng.choice(keys), rng.random()
        if key in live and roll >= 0.8:
            run(client.search(key))
        else:
            do(client, "insert" if key not in live else
               "update" if roll < 0.5 else "delete", key)
        for c in clients if i % 10 == 9 else ():
            run(c.maintenance(release_blocks=i % 20 == 19))
    op = CRASH_OPS[point]
    victim.arm_crash(CrashPoint(f"c{point}"))
    try:
        do(victim, op, rng.choice(sorted(live)) if op != "insert"
           else next(k for k in keys if k not in live))
        verdict = "survived"
    except Exception as exc:  # noqa: BLE001 - ClientCrashed is the point
        verdict = type(exc).__name__
    if mn_crash is not None:
        cluster.crash_memory_node(mn_crash)
        env.run(until=env.now + 200.0)
    report, state = run(cluster.master.recover_client(victim.cid))
    revived = cluster.revive_client(victim, state)
    for key in [rng.choice(keys) for _ in range(30)]:
        do(revived, "update" if key in live else "insert", key)
    for _ in range(2):
        run(revived.maintenance(release_blocks=True))
    values = [run(clients[2].search(key)).value for key in keys]
    return {**_state(cluster, tracer, [
        report.rows(), dataclasses.asdict(report), dataclasses.asdict(state),
        values]), "verdict": verdict}


def _campaign(seed, **kw) -> dict:
    """``run_campaign`` with its cluster and tracer kept for digesting."""
    kept = []

    def keep(factory):
        return lambda *a, **k: kept.append(factory(*a, **k)) or kept[-1]

    with mock.patch.object(campaign, "_small_cluster",
                           keep(campaign._small_cluster)), \
            mock.patch.object(campaign, "Tracer", keep(campaign.Tracer)):
        report = campaign.run_campaign(seed=seed, **kw)
    return {**_state(*kept, [report.render(), report.health and
                             health_fingerprint(report.health)]),
            "verdict": "CLEAN" if report.clean
            else "sound" if report.sound else "unsound"}


CLI = """\
{Y}|{Y} --trace t.json --jsonl t.jsonl --metrics|{Y} --profile
{Y} --windows 250 --slo errors:0.05 --hotkeys 4 --metrics \
--sample-interval 25 --health-out h.json
{Y} --replication swarm --variant fusee-nc --read-spread least_loaded \
--coalesce-width 4 --nic-ports 2 --rpc-shards 2 --port-affinity rss --metrics
{Y} --variant fusee-cr --workload D --seed 7 --jsonl t.jsonl
ycsb --keys 300 --duration-us 3000 --coalesce-width 8 --clients 16
ycsb --scenario multi-tenant --smoke --seed 0 --metrics
ycsb --scenario flash-crowd --smoke --seed 1 --profile --windows 250 \
--jsonl t.jsonl --health-out h.json
{M} --duration-us 5000 --slo errors:0.05 --health-out h.json
{M} --duration-us 3000 --nic-ports 2 --rpc-shards 2 --workload C
monitor --scenario diurnal --smoke --seed 0 --health-out h.json
monitor --hotkeys 8 --duration-us 5000 --keys 300 --health-out h.json
{P} --out p.json --flame p.folded --trace p_trace.json
{P} --system clover --clients 4 --out p.json
{P} --system pdpm --clients 4 --workload B --out p.json
{P} --read-spread least_loaded --coalesce-width 8 --windows 250 --hotkeys 4 \
--health-out h.json --out p.json
{P} --clients 12 --memory-nodes 3 --nic-ports 2 --rpc-shards 2 \
--port-affinity rss --replication swarm --out p.json
{P} --scenario hot-key-storm --smoke --seed 3 --out p.json
faults --campaign mixed --seed 0 --windows 250
faults --scenario flash-crowd-gray --smoke --seed 0
check --list|check --mutation swarm-early-ack|demo --metrics --jsonl d.jsonl
list""".format(Y="ycsb --keys 300 --clients 3 --duration-us 3000",
               M="monitor --clients 4 --keys 300",
               P="profile --scale tiny").replace("\n", "|").split("|") + [
    f"run {name} --scale tiny" for name in "fig02 fig10 fig11 fig12 fig13 "
    "fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 scenarios table1".split()
] + [f"{command} --help" for command in
     "list run demo ycsb profile check faults monitor".split()]
_WALL = re.compile(r"monitor overhead: .*|\[\d+\.\d+s wall\]")


def _cli(seed, argv: str) -> dict:
    """``main(argv)`` in an empty directory, its wall clocks masked."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            status = cli.main(argv.split())
        except SystemExit as exc:
            status = exc.code
        finally:
            os.chdir(cwd)
        files = {path.name: path.read_bytes()
                 for path in pathlib.Path(tmp).iterdir()}
    return {"out": digest(_canon([_WALL.sub("<wall>", out.getvalue()),
                                  err.getvalue(), {
        name: digest(health_fingerprint(json.loads(data))
                     if name.endswith("h.json") else data)
        for name, data in files.items()}])), "verdict": f"exit {status}"}


def _explore(seed, scenario, budget, depth, mutation=None) -> dict:
    """Every :class:`ExploreResult` field of one bounded exploration."""
    with MUTATIONS[mutation]() if mutation else contextlib.nullcontext():
        result = ScheduleExplorer(SCENARIOS[scenario](), max_schedules=budget,
                                  max_decisions=depth).explore()
    return {"out": digest(_canon(dataclasses.asdict(result))),
            "verdict": "violation" if result.found else "clean"}


def _catalogue() -> dict[str, Cell]:
    cells, product = [], itertools.product

    def add(name, builder, seed=0, /, **kw):
        cells.append(Cell(name, functools.partial(builder, **kw), seed))
    for workload, (variant, kw) in product("AD", BED_VARIANTS.items()):
        add(f"bed/{workload}/{variant}", _ycsb_bed, workload=workload,
            bed_kw=dict(_BED, **kw),
            crash_mn=1 if variant == "mn1-crash" else None)
    add("bed/churn", _scripted)
    add("bed/split", _scripted, n_clients=1, n_keys=96,
        race=RaceConfig(n_subtables=2, n_groups=2, slots_per_bucket=2))
    for seed in (7, 8):
        add(f"bed/trace/{seed}", _ycsb_bed, seed, bed_kw=_TRACE_BED,
            n_clients=2, duration_us=1500.0, chrome=True)
    for clients, mns, seed, us in ((256, 8, 13, 250.0), (64, 4, 14, 150.0)):
        add(f"bed/scaled-{clients}c-{mns}mn/{seed}", _ycsb_bed, seed,
            bed_kw=dict(_TRACE_BED, n_memory_nodes=mns, nic_ports=4,
                        rpc_shards=2, port_affinity="rss",
                        max_clients=clients + 8),
            n_clients=clients, duration_us=us)
    for config, (point, op), mn in product(RECOVERY_CONFIGS,
                                           enumerate(CRASH_OPS), (None, 1)):
        add(f"recovery/{config}/c{point}-{op}/{'mn1' if mn else 'no-mn'}",
            _recovery, config=config, point=point, mn_crash=mn)
    for name, seed, mode in product(("mixed", "loss", "random"), (1, 2, 3),
                                    ("snapshot", "swarm")):
        add(f"campaign/{name}/{seed}/{mode}-idx2", _campaign, seed,
            name=name, replication=mode, index_replication=2)
    for name, seed in product(("partition-heal", "gray"), (1, 2, 3)):
        add(f"campaign/{name}/{seed}", _campaign, seed, name=name)
    for scenario, seed in product(
            ("flash-crowd-gray", "multi-tenant", "hot-key-storm"), (1, 2, 3)):
        add(f"campaign/{scenario}/{seed}", _campaign, seed, scenario=scenario,
            scenario_overrides=SMOKE_TRIM)
    add("campaign/monitored/flash-crowd-gray/0", _campaign,
        scenario="flash-crowd-gray", scenario_overrides=SMOKE_TRIM,
        monitor_config=MonitorConfig(250.0, 4),
        slos=[SloSpec.parse("errors:0.05")])
    add("campaign/monitored/mixed/0", _campaign,
        monitor_config=MonitorConfig(250.0))
    add("campaign/monitored/gray/1", _campaign, 1, name="gray", clients=4,
        monitor_config=MonitorConfig(250.0, 8))
    add("campaign/monitored/flash-crowd-gray-full/1", _campaign, 1,
        scenario="flash-crowd-gray", monitor_config=MonitorConfig(250.0, 8))
    add("campaign/empty-plan/0", _campaign, plan=FaultPlan())
    add("campaign/random/17/sequential-idx2", _campaign, 17, name="random",
        replication="sequential", index_replication=2)
    for argv in CLI:
        add(f"cli/{argv}", _cli, argv=argv)
    for scenario in SCENARIOS:
        add(f"check/{scenario}", _explore, scenario=scenario, budget=300,
            depth=16)
    for mutation, spec in MUTATION_SPECS.items():
        add(f"check/mutation/{mutation}", _explore, scenario=spec.scenario,
            budget=spec.max_schedules, depth=spec.max_decisions,
            mutation=mutation)
    return {cell.name: cell for cell in cells}


CATALOGUE = _catalogue()


def build(name: str) -> dict:
    """Run one cell; its fields as ``DIFFERENTIAL.json`` stores them."""
    cell = CATALOGUE[name]
    try:
        return cell.builder(cell.seed)
    except Exception as exc:  # noqa: BLE001 - the verdict of the cell
        return {"verdict": f"{type(exc).__name__}: {exc}"}


def recorded(path: pathlib.Path = PATH) -> dict[str, dict]:
    """The recorded cells (none without a file)."""
    return json.loads(path.read_text())["cells"] if path.exists() else {}


def main(action: str, patterns: list[str], path: pathlib.Path = PATH) -> int:
    """``list``, ``record`` or ``verify`` the cells the patterns name."""
    old, started = recorded(path), time.perf_counter()
    names, stale = ([name for name in pool if not patterns or any(
        fnmatch.fnmatchcase(name, p) for p in patterns)] for pool in
        (CATALOGUE, [name for name in old if name not in CATALOGUE]))
    if patterns and not names and not stale:
        print(f"no cell matches {' '.join(patterns)}", file=sys.stderr)
        return 2
    if action == "list":
        print("\n".join(f"{n}  (seed {CATALOGUE[n].seed})" for n in names))
        return 0
    failing = stale + [n for n in names if n not in old and action != "record"]
    todo = [name for name in names if name not in failing]
    # two workers: a cell shares no state with the cells built before it;
    # they hash under one seed whatever the caller's shell says
    with mock.patch.dict(os.environ, PYTHONHASHSEED="0"), \
            multiprocessing.get_context("spawn").Pool(2) as pool:
        fresh = dict(zip(todo, pool.map(build, todo, chunksize=1)))
    for name in failing:
        print(f"{'stale' if name in stale else 'unrecorded':11} {name}")
    for name, cell in fresh.items() if action == "verify" else ():
        field = next((f for f in FIELDS if cell.get(f) != old[name].get(f)),
                     None)
        if field is not None:
            failing.append(name)
            print(f"moved       {name}: {field} {old[name].get(field)} -> "
                  f"{cell.get(field)}")
    if action == "record":
        cells = sorted({**{n: c for n, c in old.items() if n not in stale},
                        **fresh}.items())
        header = {"python": sys.version.split()[0], "cells": len(cells),
                  "PYTHONHASHSEED": "0"}
        path.write_text(f'{{"header": {_canon(header)},\n"cells": {{\n'
                        + ",\n".join(f"{json.dumps(n)}: {_canon(c)}"
                                      for n, c in cells) + "}}\n")
        failing = []
    print(f"{action}: {len(names)} cell(s), {len(failing)} failing "
          f"({time.perf_counter() - started:.1f}s)")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
