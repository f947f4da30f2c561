"""Budget gates: the profiler must localise the paper's known bottlenecks.

These are the end-to-end checks that the attribution is *right*, not just
additive: run each system in a regime whose bottleneck the paper
establishes, and assert the profile points at it.

* Fig. 2 (motivation): Clover's metadata server is the CPU bottleneck —
  at the paper's operating point the slowest ops spend the majority of
  their time queueing for ``metadata.cpu``.
* Fig. 13 (YCSB scalability): FUSEE's throughput plateau is NIC-bound —
  under saturating client counts NIC serialisation (wait + service)
  overtakes wire propagation, which dominates when the fabric is idle.

Scales are pinned here (not taken from ``REPRO_BENCH_SCALE``): the gates
assert regime-dependent facts, and shrinking the client count moves the
regime.
"""

import json
import pathlib

from repro.harness import Scale
from repro.harness.profiling import profile_ycsb

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Enough clients to queue on the bottleneck, short enough for CI.
_CLOVER_SCALE = Scale(n_keys=800, n_clients=24, duration_us=1_000.0)
_FUSEE_LOADED = Scale(n_keys=800, n_clients=64, duration_us=1_000.0)
_FUSEE_IDLE = Scale(n_keys=800, n_clients=4, duration_us=1_000.0)
# The scale-test bed: hundreds of clients against many MNs, where the
# single tx NIC per MN used to wall off throughput entirely.
_FUSEE_SCALED = Scale(n_keys=800, n_clients=256, duration_us=600.0)


def _write_bench_section(section: str, payload: dict) -> None:
    """Merge one gate's evidence — its ``bed``, ``knobs`` and ``gate``
    numbers — into ``BENCH_profile.json``.

    The file holds one key per gate so the hotpath and multiqueue gates
    (and future ones) can each rewrite their own section without
    clobbering the others.  It holds no profile bundle: the differential
    catalogue's ``cli/profile ...`` cells pin a bundle's bytes."""
    path = _REPO_ROOT / "BENCH_profile.json"
    try:
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or "bed" in doc:
            doc = {}  # pre-section format: start fresh
    except (OSError, ValueError):
        doc = {}
    doc[section] = payload
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_fig02_clover_tail_is_metadata_cpu_wait():
    result = profile_ycsb(system="clover", workload="A",
                          scale=_CLOVER_SCALE, metadata_cores=2)
    profile = result.profile
    assert result.run.ops > 100
    # Majority of p99 latency is queueing for the metadata server's CPU
    # (calibrated ~0.84 at this operating point; 0.5 is the claim).
    assert profile.tail_share("cpu_wait", label="metadata.cpu") > 0.5
    # ... and it dominates overall too, with NIC/propagation minor.
    assert profile.share("cpu_wait", label="metadata.cpu") > 0.5
    assert profile.share("cpu_wait") > profile.share("propagation")
    # The critical path agrees: metadata CPU is the top attribution.
    top = max(result.critical.attribution.items(), key=lambda kv: kv[1])
    assert top[0] == ("cpu_wait", "metadata.cpu")


def test_fig13_fusee_plateau_is_nic_serialisation():
    result = profile_ycsb(system="fusee", workload="A",
                          scale=_FUSEE_LOADED, n_memory_nodes=2)
    profile = result.profile
    assert result.run.ops > 1000
    nic = profile.share("nic_wait") + profile.share("nic_service")
    # At saturation the NIC (queueing + serialisation) overtakes wire
    # propagation (calibrated ~0.51 vs ~0.43 at 64 clients / 2 MNs).
    assert nic > profile.share("propagation")
    assert profile.share("nic_wait") > 0.25
    # FUSEE has no RPC on the data path: MN CPU must stay negligible.
    assert profile.share("cpu_wait") + profile.share("cpu_service") < 0.1


def test_hotpath_knobs_lift_the_fig13_plateau():
    """Tentpole gate (before/after): replica read-spreading + adaptive
    doorbell coalescing must cut NIC serialisation queueing — nic_wait
    share drops — and lift saturated throughput >=10% over the
    paper-faithful seed on the same bed, with the numbers written to
    ``BENCH_profile.json``."""
    seed = profile_ycsb(system="fusee", workload="A",
                        scale=_FUSEE_LOADED, n_memory_nodes=2)
    tuned = profile_ycsb(system="fusee", workload="A",
                         scale=_FUSEE_LOADED, n_memory_nodes=2,
                         read_spread="least_loaded", max_coalesce_width=8)
    # the waits moved: less time queueing for a NIC serialisation slot
    assert tuned.profile.share("nic_wait") < seed.profile.share("nic_wait")
    # ... and it bought real throughput (calibrated ~+15% at this bed)
    assert tuned.run.mops >= 1.10 * seed.run.mops
    # the spread actually engaged: per-moment load balancing leaves the
    # hottest replica no further from its even share than the seed's
    # static primary placement does
    seed_skew = seed.metrics.series["kv_read_skew"].points[-1][1]
    tuned_skew = tuned.metrics.series["kv_read_skew"].points[-1][1]
    assert 1.0 <= tuned_skew <= seed_skew < 1.5

    payload = {
        "bed": {"workload": "A", "n_clients": _FUSEE_LOADED.n_clients,
                "n_memory_nodes": 2},
        "knobs": {"read_spread": "least_loaded", "max_coalesce_width": 8},
        "gate": {
            "mops_seed": round(seed.run.mops, 6),
            "mops_optimized": round(tuned.run.mops, 6),
            "speedup": round(tuned.run.mops / seed.run.mops, 4),
            "nic_wait_seed": round(seed.profile.share("nic_wait"), 4),
            "nic_wait_optimized": round(tuned.profile.share("nic_wait"),
                                        4),
        },
    }
    _write_bench_section("hotpath", payload)


def test_multiqueue_nics_break_the_tx_wall():
    """Tentpole gate (before/after): 4 NIC ports per MN with per-QP
    affinity plus a 2-way sharded MN RPC service must cut the saturated
    bed's nic_wait share from ~0.39+ to <=0.25 and lift throughput
    >=15%, with the numbers written to ``BENCH_profile.json``."""
    seed = profile_ycsb(system="fusee", workload="A",
                        scale=_FUSEE_LOADED, n_memory_nodes=2)
    mq = profile_ycsb(system="fusee", workload="A",
                      scale=_FUSEE_LOADED, n_memory_nodes=2,
                      nic_ports=4, rpc_shards=2)
    # the seed really is NIC-serialisation walled at this bed
    # (calibrated ~0.46; the issue's floor is 0.39-ish)
    assert seed.profile.share("nic_wait") > 0.35
    # ... and multi-queue dissolves the wall (calibrated ~0.02)
    assert mq.profile.share("nic_wait") <= 0.25
    # ... buying real throughput (calibrated ~+93% at this bed)
    assert mq.run.mops >= 1.15 * seed.run.mops
    # the ports actually spread: several tx ports carried real load
    # (the per-port counter tracks the profiler's edge ranking names)
    busy_tx = [name for name, series in mq.metrics.series.items()
               if ".nic_tx.p" in name and name.endswith(".util")
               and max(v for _, v in series.points) > 0.05]
    assert len(busy_tx) >= 2, busy_tx
    payload = {
        "bed": {"workload": "A", "n_clients": _FUSEE_LOADED.n_clients,
                "n_memory_nodes": 2},
        "knobs": {"nic_ports": 4, "rpc_shards": 2,
                  "port_affinity": "qp"},
        "gate": {
            "mops_seed": round(seed.run.mops, 6),
            "mops_optimized": round(mq.run.mops, 6),
            "speedup": round(mq.run.mops / seed.run.mops, 4),
            "nic_wait_seed": round(seed.profile.share("nic_wait"), 4),
            "nic_wait_optimized": round(mq.profile.share("nic_wait"), 4),
        },
    }
    _write_bench_section("multiqueue", payload)


def test_scaled_bed_plateau_is_multiqueue_high():
    """The scale-test gate: at 256 clients / 8 MNs the single-queue
    model is hopelessly tx-walled (~0.60 nic_wait); the multi-queue +
    sharded bed must lift throughput >=2x and hand the bottleneck back
    to wire propagation.  The numbers land in ``BENCH_profile.json``."""
    single = profile_ycsb(system="fusee", workload="A",
                          scale=_FUSEE_SCALED, n_memory_nodes=8)
    mq = profile_ycsb(system="fusee", workload="A",
                      scale=_FUSEE_SCALED, n_memory_nodes=8,
                      nic_ports=4, rpc_shards=2, port_affinity="rss")
    assert single.profile.share("nic_wait") > 0.5
    assert mq.run.ops > 10_000
    # calibrated: 13.8 -> 43.4 Mops, nic_wait 0.60 -> 0.04
    assert mq.run.mops >= 2.0 * single.run.mops
    assert mq.profile.share("nic_wait") <= 0.10
    # the new plateau is wire-bound, not queue-bound
    assert mq.profile.share("propagation") > \
        mq.profile.share("nic_wait") + mq.profile.share("nic_service")
    payload = {
        "bed": {"workload": "A", "n_clients": _FUSEE_SCALED.n_clients,
                "n_memory_nodes": 8},
        "knobs": {"nic_ports": 4, "rpc_shards": 2,
                  "port_affinity": "rss"},
        "gate": {
            "mops_single_queue": round(single.run.mops, 6),
            "mops_multiqueue": round(mq.run.mops, 6),
            "speedup": round(mq.run.mops / single.run.mops, 4),
            "nic_wait_single_queue":
                round(single.profile.share("nic_wait"), 4),
            "nic_wait_multiqueue":
                round(mq.profile.share("nic_wait"), 4),
        },
    }
    _write_bench_section("multiqueue_scaled", payload)


def test_fusee_unloaded_is_propagation_dominated():
    result = profile_ycsb(system="fusee", workload="A",
                          scale=_FUSEE_IDLE, n_memory_nodes=2)
    profile = result.profile
    # The RTT budget regime: with no queueing, ops are wire-bound.
    assert profile.share("propagation") > 0.6
    assert profile.share("nic_wait") < 0.1
    assert profile.share("backoff") == 0.0
