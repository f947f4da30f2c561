"""One repetition of one workload, in its own process.

The orchestrator (:mod:`benchmarks.perf.driver`) spawns this module as
``python -m benchmarks.perf _rep ...`` with ``PYTHONHASHSEED=0`` and reads
one JSON object from the last line of its standard output.  Three modes:

``plain``  the measured path; its host times feed the end-to-end metrics.
``host``   the identical path under ``cProfile``: self time and call
           counts folded by source file into the ``hostshare.*`` /
           ``hostcalls.*`` layers.  Its host times feed nothing else.
``sim``    Tracer + Profiler attached after the bulk load and the run on
           the hooked kernel path: ``simshare.*`` and ``rtts.*``.  Its
           simulated metrics must equal the plain run's.

Phase spans are ``(name, start, end)`` in seconds since the orchestrator
spawned the process, so ``harness.import`` includes interpreter start-up
and ``setup_s`` is truly process start to first op issued.  The run phase
is timed in slices with a calibration point between any two
(:mod:`benchmarks.perf.calibration`): the ``harness.run`` span holds both,
``run_s`` is the slices alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from typing import List, Optional

from . import SRC
from .calibration import SlicedTimer

#: Layers of ``hostshare.*`` / ``hostcalls.*``: module names under
#: ``src/repro`` (a directory, or single files where one directory holds
#: several layers).  ``core.replication`` is replication.py + snapshot.py.
_LAYER_OF_PATH = {
    "sim": "sim",
    "rdma/fabric.py": "rdma.fabric",
    "rdma/memory_node.py": "rdma.memory_node",
    "rdma/verbs.py": "rdma.verbs",
    "core/client.py": "core.client",
    "core/replication.py": "core.replication",
    "core/snapshot.py": "core.replication",
    "core/race.py": "core.race",
    "core/wire.py": "core.wire",
    "core/cache.py": "core.cache",
    "core/memory.py": "core.memory",
    "core/master.py": "core.master",
    "core/oplog.py": "core.oplog",
    "core/linearizability.py": "core.linearizability",
    "workloads": "workloads",
    "harness": "harness",
    "obs": "obs",
    "faults": "faults",
}
HOST_LAYERS = tuple(dict.fromkeys(_LAYER_OF_PATH.values())) + (
    "builtins", "other")


class Phases:
    """In-memory phase spans, relative to the orchestrator's spawn time."""

    def __init__(self, spawned_at: float):
        # seconds already spent since the spawn (interpreter start-up and
        # this package's import), measured once on the wall clock
        self._offset = time.time() - spawned_at
        self._origin = time.perf_counter()
        self.spans: List[dict] = []

    def now(self) -> float:
        return self._offset + (time.perf_counter() - self._origin)

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):
        """Record one span around the block; yields its record, whose
        ``end`` is filled in when the block exits."""
        record = {"name": name,
                  "start": self.now() if start is None else start,
                  "end": None}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self.now()


def _layer_of(filename: str, repro_root: str, bench_root: str) -> str:
    if filename.startswith(repro_root):
        rel = filename[len(repro_root):].lstrip("/")
        return (_LAYER_OF_PATH.get(rel)
                or _LAYER_OF_PATH.get(rel.split("/", 1)[0], "other"))
    if filename.startswith(bench_root):
        # the benchmark's own loops play the harness role
        return "harness"
    return "other"


def fold_profile(profiler) -> dict:
    """Fold cProfile self time and call counts into the host layers."""
    repro_root = str(SRC / "repro")
    bench_root = os.path.dirname(os.path.abspath(__file__))
    seconds = dict.fromkeys(HOST_LAYERS, 0.0)
    calls = dict.fromkeys(HOST_LAYERS, 0)
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            layer = "builtins"
        else:
            layer = _layer_of(code.co_filename, repro_root, bench_root)
        seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    total = sum(seconds.values()) or 1.0
    return {"hostshare": {k: v / total for k, v in seconds.items()},
            "hostcalls": calls}


def run(args) -> dict:
    phases = Phases(args.spawned_at)
    profiler = None
    if args.mode == "host":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()

    with phases.span("harness.import", start=0.0):
        sys.path.insert(0, str(SRC))
        from . import metrics, workloads

    bench = workloads.WORKLOADS[args.workload](
        args.seed, args.factor, traced_sim=args.mode == "sim")

    sys_before = os.times().system
    with phases.span("harness.bed_build"):
        bench.build_bed()
    bed_build_sys_s = os.times().system - sys_before
    with phases.span("harness.bulk_load"):
        bench.bulk_load()
    with phases.span("obs.attach"):
        bench.attach_observers()
    with phases.span("harness.client_spawn"):
        bench.spawn_clients()
    with phases.span("workloads.construct"):
        bench.construct()
    setup_s = phases.now()

    bench.timer = timer = SlicedTimer(profiler)
    with phases.span("harness.run"):
        timer.start()
        bench.run()
        timer.stop()

    with phases.span("harness.collect"):
        # before verification adds its own traffic to the counters
        fingerprint = bench.fingerprint()
        sim = metrics.sim_metrics(bench.outcome)
        counts = metrics.count_metrics(bench, sim)
        bench.detach_profiler()
    with phases.span("harness.verify"):
        checks, failures = bench.verify()
    with phases.span("harness.collect"):
        sim_profile = bench.sim_profile()
    outcome = bench.outcome
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "factor": args.factor,
        "mode": args.mode,
        "rep": args.rep,
        "sizes": bench.sizes(),
        "sim": {k: sim[k] for k in ("sim_mops", "sim_p50_us", "sim_p99_us",
                                    "samples", "window_us")},
        "counts": counts,
        "fingerprint": fingerprint,
        "attempted": outcome.attempted + checks,
        "failed": outcome.errors + outcome.unfinished + len(failures),
        "messages": (outcome.messages
                     + failures)[:workloads.MAX_MESSAGES],
        "host": {
            "setup_s": setup_s,
            "run_s": timer.run_s,
            "calibrated_slices_s": timer.calibrated_slices,
            "run_events": bench.run_events,
            "run_wall_s": timer.wall_s,
            "calibration_s": timer.points,
            "bed_build_sys_s": bed_build_sys_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if sim_profile is not None:
        result["sim_profile"] = sim_profile
    if profiler is not None:
        profiler.disable()
        result["host_profile"] = fold_profile(profiler)
    result["phases"] = phases.spans
    result["host"]["emitted_at"] = phases.now()
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf _rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--factor", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "host", "sim"),
                        required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the bed's half-gigabyte heap
    # object by object is host time no metric should wait for.
    os._exit(0)
