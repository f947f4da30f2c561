"""Command line of the benchmark.

::

    python -m benchmarks.perf                 # every workload, traced:
                                              # prints every metric, writes
                                              # benchmarks/perf/out/result.json
    python -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1
                                              # the driver contract: last
                                              # stdout line is one JSON object
    python -m benchmarks.perf --smoke         # ~1/20 size, 2 repetitions
    python -m benchmarks.perf --probes        # layer probes, <= 15 s
    python -m benchmarks.perf compare A.json B.json
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List

from . import driver


def _terminate(_signum, _frame):
    # raised inside subprocess.run, which kills and reaps the repetition
    # before the exception propagates: no orphan outlives this process
    sys.exit(143)


def _run(args) -> int:
    manifest = driver.load_manifest()
    seconds = (args.seconds if args.seconds is not None
               else manifest["run_seconds"])
    if seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.smoke:
        factor, reps, warmups = driver.SMOKE_FACTOR, driver.SMOKE_REPS, 0
    else:
        factor = seconds / driver.REFERENCE_SECONDS
        reps, warmups = driver.MEASURED_REPS, driver.WARMUP_REPS
    names = [args.workload] if args.workload else list(driver.WORKLOADS)
    traced = args.trace != 0

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    results = []
    for name in names:
        result = driver.run_workload(name, args.seed, factor, traced,
                                     manifest, reps=reps, warmups=warmups,
                                     log=log)
        driver.check_manifest_coverage(result, args.trace, manifest)
        print(driver.render(result, end_to_end=args.trace in (None, 0),
                            per_layer=args.trace in (None, 1)), flush=True)
        results.append(result)
    out = args.out
    if out is None and args.workload and args.trace is not None:
        out = driver.OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    path = driver.write_result(results, seconds, out)
    print(f"wrote {path}", file=sys.stderr)
    if args.trace is not None and args.workload:
        print(driver.contract_line(results[0], args.trace), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


def main(argv: List[str]) -> int:
    if argv and argv[0] == "_rep":
        from . import rep
        return rep.main(argv[1:])
    if argv and argv[0] == "compare":
        from . import compare
        return compare.main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Two-clock, layer-attributed benchmark of repro.")
    parser.add_argument("--workload", choices=driver.WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds the measured repetitions' run "
                             "phases add up to (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, untraced; 1: "
                             "per-layer metrics (adds the traced "
                             "repetitions); default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size, 2 repetitions, no warm-up")
    parser.add_argument("--probes", action="store_true",
                        help="time single layers in isolation and exit")
    parser.add_argument("--out", default=None,
                        help="result file (default: under "
                             "benchmarks/perf/out/)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.probes:
            from . import probes
            return probes.main()
        return _run(args)
    except driver.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
