"""From one repetition's observations to metrics.

Imported only inside a repetition subprocess (it imports :mod:`repro`).
"""

from __future__ import annotations

from typing import Dict

from repro.harness import percentile


def sim_metrics(outcome) -> dict:
    """The simulated end-to-end metrics and the per-kind latency rows.

    ``sim_p50_us`` / ``sim_p99_us`` are the op-count-weighted means of the
    per-kind percentiles, not percentiles of the pooled samples: the
    pooled median of a 50/50 two-cluster mix (YCSB-A) flips between the
    clusters with the seed, and the pooled median of a 60/40 mix does not
    move at all (see the README, "Why the latency metrics are per kind").
    """
    kinds = {}
    total = 0
    for kind, values in outcome.latencies.items():
        if not values:
            continue
        total += len(values)
        kinds[kind] = {"count": len(values),
                       "p50_us": percentile(values, 50.0),
                       "p99_us": percentile(values, 99.0)}
    if not total:
        raise RuntimeError("the run phase completed no operation")
    return {
        "sim_mops": total / outcome.window_us,
        "sim_p50_us": sum(k["p50_us"] * k["count"]
                          for k in kinds.values()) / total,
        "sim_p99_us": sum(k["p99_us"] * k["count"]
                          for k in kinds.values()) / total,
        "samples": total,
        "window_us": outcome.window_us,
        "kinds": kinds,
    }


def count_metrics(bench, sim: dict) -> Dict[str, float]:
    """Per-layer metrics that are exact functions of simulated state:
    they must repeat exactly across repetitions of one seed."""
    outcome = bench.outcome
    delta = bench.window.delta
    ops = sim["samples"]

    def per_op(name: str) -> float:
        return delta[name] / ops

    port_ops = list(bench.window.port_ops.values())
    lookups = (delta["cache.hits"] + delta["cache.misses"]
               + delta["cache.bypasses"])
    out = {
        "sim.events": delta["sim.events"],
        "sim.events_per_op": per_op("sim.events"),
        "fabric.batches_per_op": per_op("fabric.batches"),
        "fabric.verbs_per_op": (delta["fabric.reads"]
                                + delta["fabric.writes"]
                                + delta["fabric.atomics"]) / ops,
        "fabric.reads_per_op": per_op("fabric.reads"),
        "fabric.writes_per_op": per_op("fabric.writes"),
        "fabric.atomics_per_op": per_op("fabric.atomics"),
        "fabric.bytes_per_op": per_op("fabric.bytes_moved"),
        "fabric.rpcs_per_kop": 1000.0 * per_op("fabric.rpcs"),
        "fabric.port_skew": (max(port_ops) * len(port_ops) / sum(port_ops)
                             if port_ops and sum(port_ops) else 0.0),
        "fabric.coalesced_verbs": delta["fabric.coalesced_verbs"],
        "fabric.failed_verbs": delta["fabric.failed_verbs"],
        "fabric.transport_retries": delta["fabric.transport_retries"],
        "fabric.dropped_msgs": (delta["fabric.dropped_requests"]
                                + delta["fabric.dropped_replies"]),
        "fabric.dedup_hits": delta["fabric.dedup_hits"],
        "fabric.rpc_retries": delta["fabric.rpc_retries"],
        "fabric.verb_timeouts": delta["fabric.verb_timeouts"],
        "cache.hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
        "cache.bypasses": delta["cache.bypasses"],
        "cache.invalidations": delta["cache.invalidations"],
        "cache.evictions": delta["cache.evictions"],
        "client.retries_per_op": per_op("client.retries"),
        "client.master_escalations": delta["client.master_escalations"],
    }
    for kind in ("search", "update", "insert", "delete"):
        row = sim["kinds"].get(kind, {"count": 0, "p50_us": 0.0,
                                      "p99_us": 0.0})
        out[f"client.{kind}.count"] = row["count"]
        out[f"client.{kind}.sim_p50_us"] = row["p50_us"]
        # a p99 needs ten samples beyond it, i.e. at least 1000 in all
        out[f"client.{kind}.sim_p99_us"] = (
            row["p99_us"] if row["count"] >= 1000 else 0.0)
    lateness = outcome.lateness
    out["openloop.offered_mops"] = outcome.offered / outcome.window_us
    out["openloop.lateness_p50_us"] = (
        percentile(lateness, 50.0) if lateness else 0.0)
    out["openloop.lateness_p99_us"] = (
        percentile(lateness, 99.0) if lateness else 0.0)
    out["openloop.unfinished_ops"] = outcome.unfinished
    out.update(bench.obs_counts())
    return out
