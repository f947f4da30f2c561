"""``python -m benchmarks.perf compare A.json B.json``

One row per workload x end-to-end metric with both medians, quartiles,
the ratio *with its base*, and a verdict against the bound BENCHMARK.json
fixes:

``improved``    B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unchanged``   within the bound either way
``unresolved``  a side's own inter-quartile spread exceeds the bound, so
                this pair of files cannot tell (run more repetitions or
                pairs; never read it as "unchanged")

Simulated metrics repeat exactly for a fixed seed (no quartiles): any
movement there is a modelled change.  Per-layer metrics that moved are
listed under their workload: exact ones (counts) on any movement, timed
ones beyond run-to-run noise.  Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .driver import load_manifest

#: ``failed_op_ratio`` may rise by this much (absolute) before it is a
#: regression; it is 0 on a healthy run, so it cannot have a relative
#: bound and lives with the per-layer metrics in BENCHMARK.json.
FAILED_RATIO_SLACK = 0.001
#: Timed per-layer rows are listed when they moved by more than this
#: share (run-to-run noise is below it); exact rows on any movement.
LAYER_DELTA_SHOWN = 0.10


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != 1 or "workloads" not in data:
        raise SystemExit(f"{path}: not a benchmarks.perf result file")
    return data


def _iqr_share(row: dict) -> float:
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Direction-aware comparison of two end-to-end rows."""
    base, new = a["value"], b["value"]
    if max(_iqr_share(a), _iqr_share(b)) > bound:
        return "unresolved"
    if not base:
        return "unchanged" if not new else "unresolved"
    change = (new - base) / abs(base)
    gain = change if better == "higher" else -change
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def _quartiles(row: dict) -> str:
    if "q1" not in row:
        return "exact"
    return f"[{row['q1']:.5g} .. {row['q3']:.5g}]"


def compare(a: dict, b: dict, manifest: dict, out=sys.stdout) -> int:
    """Print the comparison; returns the number of ``worse`` verdicts."""
    worse = 0
    env_a, env_b = a.get("environment"), b.get("environment")
    if env_a != env_b:
        print(f"note: environments differ: A={env_a} B={env_b}", file=out)
    header = (f"{'workload':<22}{'metric':<18}{'A median':>12} "
              f"{'A quartiles':>24}{'B median':>12} {'B quartiles':>24}"
              f"  {'B/A':>8}  bound  verdict")
    print(header, file=out)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<22}only in A", file=out)
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if (wa["seed"], wa["factor"]) != (wb["seed"], wb["factor"]):
            print(f"{name:<22}seed/size differ (A seed={wa['seed']} "
                  f"factor={wa['factor']}, B seed={wb['seed']} "
                  f"factor={wb['factor']}): simulated metrics are not "
                  f"comparable exactly", file=out)
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            ra, rb = wa["end_to_end"][key], wb["end_to_end"][key]
            result = verdict(ra, rb, metric["better"], metric["bound"])
            worse += result == "worse"
            ratio = (f"{rb['value'] / ra['value']:.4f}" if ra["value"]
                     else "n/a")
            print(f"{name:<22}{key:<18}{ra['value']:>12.5g} "
                  f"{_quartiles(ra):>24}{rb['value']:>12.5g} "
                  f"{_quartiles(rb):>24}  {ratio:>8}  "
                  f"{metric['bound']:<5.3g}  {result}"
                  f"  (base A={ra['value']:.5g} {metric['unit']})",
                  file=out)
        fa = wa["per_layer"]["failed_op_ratio"]["value"]
        fb = wb["per_layer"]["failed_op_ratio"]["value"]
        failed = "worse" if fb > fa + FAILED_RATIO_SLACK else "unchanged"
        worse += failed == "worse"
        print(f"{name:<22}{'failed_op_ratio':<18}{fa:>12.5g} "
              f"{'exact':>24}{fb:>12.5g} {'exact':>24}  {'':>8}  "
              f"+{FAILED_RATIO_SLACK} abs  {failed}", file=out)
        if wa["fingerprint"] != wb["fingerprint"]:
            print(f"  sim_fingerprint differs ({wa['fingerprint']} -> "
                  f"{wb['fingerprint']}): the simulation itself changed",
                  file=out)
        moved = _layer_deltas(wa["per_layer"], wb["per_layer"])
        if moved:
            print(f"  per-layer metrics of {name} that moved (counts: at "
                  f"all; timed: by more than {LAYER_DELTA_SHOWN:.0%}; B/A, "
                  f"base A):", file=out)
            for line in moved:
                print(f"    {line}", file=out)
    for name in b["workloads"]:
        if name not in a["workloads"]:
            print(f"{name:<22}only in B", file=out)
    print(f"{worse} worse", file=out)
    return worse


def _layer_deltas(a: dict, b: dict) -> List[str]:
    lines = []
    for key, ra in a.items():
        rb: Optional[dict] = b.get(key)
        if rb is None:
            lines.append(f"{key}: only in A")
            continue
        va, vb = ra["value"], rb["value"]
        if va == vb:
            continue
        if (not ra.get("exact") and va
                and abs(vb - va) / abs(va) <= LAYER_DELTA_SHOWN):
            continue
        ratio = f"{vb / va:.3f}" if va else "n/a"
        lines.append(f"{key:<34} {va:>12.5g} -> {vb:>12.5g} {ra['unit']:<8}"
                     f" x{ratio} (base {va:.5g})")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare A.json B.json",
              file=sys.stderr)
        return 2
    a, b = _load(argv[0]), _load(argv[1])
    return 1 if compare(a, b, load_manifest()) else 0
