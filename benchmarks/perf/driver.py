"""Orchestrates the repetitions of one workload and folds them into metrics.

Method (README, "Method"): one load-generating process at a time; a
workload run is ``WARMUP_REPS`` discarded + ``MEASURED_REPS`` measured
repetitions, each a fresh subprocess with ``PYTHONHASHSEED=0``; host
metrics are medians over the measured repetitions (host speed is rated
slice by slice over them, see ``_rated_run_s``), simulated metrics and
every count must be *identical* across all of them (a mismatch is a
benchmark failure, not noise); then, when tracing, one traced-host and
one traced-sim repetition whose host times feed no end-to-end metric.

This module never imports :mod:`repro`.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import MANIFEST, OUT_DIR, ROOT, SRC

WARMUP_REPS = 1
MEASURED_REPS = 5
#: ``--seconds`` is the host time the measured repetitions' run phases
#: add up to; the issue's reference sizes give ~5 s per repetition, i.e.
#: 25 s per workload run, so the common size factor is ``seconds / 25``.
REFERENCE_SECONDS = 25.0
SMOKE_FACTOR = 0.05
SMOKE_REPS = 2
#: One repetition may not take longer (the contract allows a whole
#: invocation 180 s).
REP_TIMEOUT_S = 120.0
#: A result whose measured repetitions' calibrated host rates spread
#: (inter-quartile / median) by more than this is flagged ``noisy``.
NOISY_SPREAD = 0.05

WORKLOADS = ("ycsb_a_sat", "ycsb_c_hot", "crud_1c_default_bed",
             "scenario_faulty_obs")
SIM_KEYS = ("sim_mops", "sim_p50_us", "sim_p99_us")
_PHASE_METRICS = {
    "harness.import_s": "harness.import",
    "harness.bed_build_s": "harness.bed_build",
    "harness.bulk_load_s": "harness.bulk_load",
    "harness.client_spawn_s": "harness.client_spawn",
    "workloads.construct_s": "workloads.construct",
    "harness.verify_s": "harness.verify",
}


class BenchError(RuntimeError):
    """The benchmark itself failed (as opposed to measuring a slow or
    incorrect program)."""


def load_manifest() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


# ------------------------------------------------------------ repetitions
def spawn_rep(workload: str, seed: int, factor: float, mode: str,
              rep: int) -> dict:
    """Run one repetition subprocess to completion; returns its record
    plus ``spawned``/``ended`` stamps on this process's clock."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_wall = time.time()
    spawned = time.perf_counter()
    cmd = [sys.executable, "-m", "benchmarks.perf", "_rep",
           "--workload", workload, "--seed", str(seed),
           "--factor", repr(factor), "--mode", mode, "--rep", str(rep),
           "--spawned-at", repr(spawned_wall)]
    try:
        # subprocess.run kills and reaps the child on timeout or on any
        # exception (including the SystemExit our SIGTERM handler raises)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=REP_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} rep {rep} ({mode}) exceeded "
                         f"{REP_TIMEOUT_S:.0f} s") from exc
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"{workload} rep {rep} ({mode}) exited with "
                         f"code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} rep {rep} ({mode}) printed nothing")
    record = json.loads(lines[-1])
    record["spawned"] = spawned
    record["ended"] = ended
    return record


def _phase_seconds(record: dict, phase: str) -> float:
    return sum(s["end"] - s["start"] for s in record["phases"]
               if s["name"] == phase)


def _spread(values: List[float]) -> dict:
    """Median, extremes and quartiles of the measured repetitions."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": statistics.median(ordered), "min": ordered[0],
            "q1": q1, "q3": q3, "max": ordered[-1], "reps": values}


def _calibrated_run_s(record: dict) -> float:
    """One repetition's run phase in calibrated seconds (see
    ``calibration.py``)."""
    return sum(record["host"]["calibrated_slices_s"])


def _rated_run_s(measured: List[dict]) -> float:
    """The run phase in calibrated seconds, rated slice by slice over the
    measured repetitions.

    The simulation is deterministic, so slice ``k`` is the same work in
    every repetition, and what it took longer in one of them than in
    another is the machine's, not the program's.  Interference only ever
    adds time, so every slice counts the repetition at its lower quartile
    (the second fastest of five: one lucky calibration does not decide,
    and up to three disturbed repetitions do not either)."""
    rank = (len(measured) - 1) // 4
    columns = zip(*(r["host"]["calibrated_slices_s"] for r in measured))
    return sum(sorted(column)[rank] for column in columns)


def _identity(record: dict) -> tuple:
    """Everything that must repeat exactly for one (workload, seed)."""
    return (record["fingerprint"], record["attempted"], record["failed"],
            json.dumps(record["sim"], sort_keys=True),
            json.dumps(record["counts"], sort_keys=True))


def _first_difference(a: dict, b: dict) -> str:
    for section in ("sim", "counts"):
        for key in a[section]:
            if a[section][key] != b[section].get(key):
                return (f"{section}.{key}: {a[section][key]!r} vs "
                        f"{b[section].get(key)!r}")
    for key in ("fingerprint", "attempted", "failed"):
        if a[key] != b[key]:
            return f"{key}: {a[key]!r} vs {b[key]!r}"
    return "no difference"


def _end_to_end(reference: dict, measured: List[dict]) -> Dict[str, dict]:
    rows = {key: {"value": reference["sim"][key]} for key in SIM_KEYS}
    rows["sim_p99_us"]["samples"] = reference["sim"]["samples"]
    # quartiles and extremes are those of the repetitions' own rates
    rows["host_kops_per_s"] = _spread(
        [r["sim"]["samples"] / _calibrated_run_s(r) / 1000.0
         for r in measured])
    rows["host_kops_per_s"]["value"] = (
        reference["sim"]["samples"] / _rated_run_s(measured) / 1000.0)
    rows["setup_s"] = _spread([r["host"]["setup_s"] for r in measured])
    rows["peak_rss_mb"] = _spread([r["host"]["peak_rss_mb"]
                                   for r in measured])
    return rows


def _per_layer(reference: dict, measured: List[dict]):
    """The untraced per-layer metrics, as ``(exact, timed)``: counts that
    repeat exactly for one seed, and host times (medians)."""
    exact = dict(reference["counts"])
    exact["failed_op_ratio"] = reference["failed"] / reference["attempted"]
    timed = {metric: statistics.median(_phase_seconds(r, phase)
                                       for r in measured)
             for metric, phase in _PHASE_METRICS.items()}
    # wall seconds of the slices alone: the ``harness.run`` span holds
    # the calibration points too
    timed["harness.run_s"] = statistics.median(
        r["host"]["run_wall_s"] for r in measured)
    timed["harness.bed_build_sys_s"] = statistics.median(
        r["host"]["bed_build_sys_s"] for r in measured)
    events = reference["host"]["run_events"]
    timed["sim.host_us_per_event"] = (
        _rated_run_s(measured) * 1e6 / events if events else 0.0)
    timed["host.raw_kops_per_s"] = statistics.median(
        r["sim"]["samples"] / r["host"]["run_wall_s"] / 1000.0
        for r in measured)
    timed["host.run_cpu_share"] = statistics.median(
        r["host"]["run_s"] / r["host"]["run_wall_s"] for r in measured)
    timed["host.calibration_s"] = statistics.median(
        statistics.median(r["host"]["calibration_s"]) for r in measured)
    run_s = _spread([r["host"]["run_wall_s"] for r in measured])
    timed["host.run_s_iqr_ratio"] = (run_s["q3"] - run_s["q1"]) / run_s["value"]
    return exact, timed


def run_workload(name: str, seed: int, factor: float, traced: bool,
                 manifest: dict, reps: int = MEASURED_REPS,
                 warmups: int = WARMUP_REPS, log=None) -> dict:
    """All repetitions of one workload, folded into one result record."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is "
                         f"missing")
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    say = log or (lambda _msg: None)
    origin = time.perf_counter()

    plain: List[dict] = []
    for rep in range(warmups + reps):
        say(f"{name}: repetition {rep}"
            + (" (warm-up, discarded)" if rep < warmups else ""))
        plain.append(spawn_rep(name, seed, factor, "plain", rep))
    measured = plain[warmups:]
    problems: List[str] = []
    reference = measured[0]
    for other in plain:
        if _identity(other) != _identity(reference):
            problems.append(
                f"simulated results differ between repetitions "
                f"{reference['rep']} and {other['rep']} of one seed: "
                f"{_first_difference(reference, other)}")
            break

    traced_reps: Dict[str, dict] = {}
    if traced:
        for offset, mode in enumerate(("host", "sim")):
            say(f"{name}: traced-{mode} repetition")
            record = spawn_rep(name, seed, factor, mode,
                               warmups + reps + offset)
            traced_reps[mode] = record
            if _identity(record) != _identity(reference):
                problems.append(
                    f"the traced-{mode} repetition perturbed the "
                    f"simulation: {_first_difference(reference, record)}")

    end_to_end = _end_to_end(reference, measured)
    rate = end_to_end["host_kops_per_s"]
    noisy = rate["q3"] - rate["q1"] > NOISY_SPREAD * rate["value"]
    exact, timed = _per_layer(reference, measured)
    if traced:
        host, sim = traced_reps["host"], traced_reps["sim"]
        rated_run_s = _rated_run_s(measured)
        for layer_name, share in host["host_profile"]["hostshare"].items():
            timed[f"hostshare.{layer_name}"] = share
        for layer_name, calls in host["host_profile"]["hostcalls"].items():
            exact[f"hostcalls.{layer_name}"] = calls
        for category, share in sim["sim_profile"]["simshare"].items():
            exact[f"simshare.{category}"] = share
        for kind, rtts in sim["sim_profile"]["rtts"].items():
            exact[f"rtts.{kind}"] = rtts
        timed["obs.hooked_overhead_ratio"] = (
            _calibrated_run_s(sim) / rated_run_s)
        timed["trace.cprofile_overhead_ratio"] = (
            _calibrated_run_s(host) / rated_run_s)
    unknown = sorted((set(exact) | set(timed)) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    for key, row in end_to_end.items():
        row["unit"] = units[key]
    # ``compare`` reports any movement of an exact row (it repeats exactly
    # for one seed) and only movements beyond noise of a timed one
    per_layer = {key: {"value": value, "unit": units[key],
                       "exact": key in exact}
                 for key, value in {**timed, **exact}.items()}

    failed = reference["failed"] + len(problems)
    return {
        "workload": name,
        "seed": seed,
        "factor": factor,
        "reps": reps,
        "warmups": warmups,
        "sizes": reference["sizes"],
        "correct": failed == 0,
        "attempted": reference["attempted"],
        "failed": failed,
        "messages": problems + reference["messages"],
        "fingerprint": reference["fingerprint"],
        "noisy": noisy,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": _spans(name, origin, plain + list(traced_reps.values())),
    }


def _spans(workload: str, origin: float, records: List[dict]) -> List[dict]:
    """Phase spans of every repetition, on the orchestrator's clock:
    ``workload`` > ``rep`` > phases (+ the teardown the child cannot
    see: from its last stamp until this process reaped it)."""
    top = f"workload:{workload}"
    spans = [{"name": top, "start": 0.0,
              "end": time.perf_counter() - origin, "parent": None,
              "rep": None}]
    for record in records:
        base = record["spawned"] - origin
        rep_name = f"rep:{record['rep']}:{record['mode']}"
        spans.append({"name": rep_name, "start": base,
                      "end": record["ended"] - origin, "parent": top,
                      "rep": record["rep"]})
        for phase in record["phases"]:
            spans.append({"name": phase["name"],
                          "start": base + phase["start"],
                          "end": base + phase["end"], "parent": rep_name,
                          "rep": record["rep"]})
        spans.append({"name": "harness.teardown",
                      "start": base + record["host"]["emitted_at"],
                      "end": record["ended"] - origin, "parent": rep_name,
                      "rep": record["rep"]})
    return spans


def environment() -> dict:
    """What a result file records about where it was measured."""
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "pythonhashseed": "0 (repetition subprocesses)"}


def write_result(results: List[dict], seconds: float, path=None) -> str:
    """Write one result file (the input of ``compare``); the spans of
    every workload go to ``out/spans.json``."""
    OUT_DIR.mkdir(exist_ok=True)
    if path is None:
        path = OUT_DIR / "result.json"
    path = os.fspath(path)
    payload = {
        "schema": 1,
        "seconds": seconds,
        "environment": environment(),
        "workloads": {
            r["workload"]: {k: v for k, v in r.items() if k != "spans"}
            for r in results},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(OUT_DIR / "spans.json", "w") as fh:
        json.dump({r["workload"]: r["spans"] for r in results}, fh)
        fh.write("\n")
    return path


# ---------------------------------------------------------------- printing
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def render(result: dict, end_to_end: bool = True,
           per_layer: bool = True) -> str:
    """Every metric by name with its unit, for one workload."""
    lines = [f"== {result['workload']}  seed={result['seed']} "
             f"factor={result['factor']:.4g} reps={result['reps']} "
             f"fingerprint={result['fingerprint']}"
             + ("  NOISY MACHINE" if result["noisy"] else "")]
    if end_to_end:
        lines.append("  end to end (host metrics: value [min q1 q3 max] "
                     f"of {result['reps']} repetitions)")
        for name, row in result["end_to_end"].items():
            text = f"    {name:<28} {_fmt(row['value']):>12} {row['unit']}"
            if "q1" in row:
                text += (f"   [{_fmt(row['min'])} {_fmt(row['q1'])} "
                         f"{_fmt(row['q3'])} {_fmt(row['max'])}]")
            if "samples" in row:
                text += f"   (n={row['samples']})"
            lines.append(text)
    if per_layer:
        lines.append("  per layer")
        for name, row in result["per_layer"].items():
            lines.append(f"    {name:<34} {_fmt(row['value']):>12} "
                         f"{row['unit']}")
    lines.append(f"  correct={result['correct']} "
                 f"attempted={result['attempted']} "
                 f"failed={result['failed']}")
    for message in result["messages"]:
        lines.append(f"  ! {message}")
    return "\n".join(lines)


def contract_line(result: dict, trace: int) -> str:
    """The one JSON object the driver contract asks for."""
    section = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in section.items()},
    })


def check_manifest_coverage(result: dict, trace: Optional[int],
                            manifest: dict) -> None:
    """Every metric BENCHMARK.json names must have been produced."""
    wanted = []
    if trace in (None, 0):
        wanted += [(m["name"], "end_to_end")
                   for m in manifest["end_to_end"]]
    if trace in (None, 1):
        wanted += [(m["name"], "per_layer") for m in manifest["per_layer"]]
    missing = [name for name, section in wanted
               if name not in result[section]]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not "
                         f"produced: {missing}")
