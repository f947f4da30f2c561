"""Gates on whole command-line runs that no unit test makes.

Each gate runs one command in a fresh process, as a user would, and
asserts on what that run wrote: a profile bundle, a health report, or
the JSON object on the last line of ``python -m benchmarks.perf``
stdout.  The perf gates are ratios of two timings from one process or
exact counts, so the runner's speed cancels, and ``peak_rss_mb`` is
read from the workload's own process.  Run them all with::

    PYTHONPATH=src python -m pytest benchmarks/test_smoke_gates.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _repro(command: str, cwd) -> str:
    """``python -m repro <command>`` run in ``cwd``; fails on exit != 0."""
    return _run(["-m", "repro", *command.split()], cwd)


def _perf(command: str) -> dict:
    """``python -m benchmarks.perf <command>`` from the repo root; the
    contract line: the last line of stdout is one JSON object."""
    stdout = _run(["-m", "benchmarks.perf", *command.split()], _REPO_ROOT)
    return json.loads(stdout.splitlines()[-1])


# --------------------------------------------------------------------------
# CLI runs: the artefacts a user gets are complete
# --------------------------------------------------------------------------
def test_traced_ycsb_run_emits_a_loadable_chrome_trace(tmp_path):
    _repro("ycsb --keys 500 --clients 2 --duration-us 3000 "
           "--trace trace.json --jsonl trace.jsonl --metrics", tmp_path)
    d = json.loads((tmp_path / "trace.json").read_text())
    assert d["traceEvents"], "empty trace"


def test_trimmed_multiqueue_bed_emits_per_port_attribution(tmp_path):
    _repro("profile --scale bench --clients 128 --memory-nodes 4 "
           "--nic-ports 4 --rpc-shards 2 --port-affinity rss "
           "--out BENCH_scale_smoke.json", tmp_path)
    doc = json.loads((tmp_path / "BENCH_scale_smoke.json").read_text())
    assert doc["profile"]["overall"]["count"] > 1000, "bed too small"
    ports = [k for k in doc["series"] if ".nic_tx.p" in k
             and k.endswith(".util")]
    assert len(ports) >= 4, f"per-port series missing: {ports}"
    shards = [k for k in doc["series"] if ".cpu.s" in k]
    assert shards, "per-shard series missing"


def test_clean_bed_stays_flag_free(tmp_path):
    """``monitor`` exits 1 on any detector flag."""
    from repro.obs import load_health

    _repro("monitor --clients 8 --duration-us 20000 --slo errors:0.05 "
           "--health-out health_clean.json", tmp_path)
    doc = load_health(tmp_path / "health_clean.json")
    assert doc["run"]["panes_evaluated"] > 0, "no windows closed"
    assert not doc["detector"]["flags"], doc["detector"]["flags"]
    assert doc["hot_keys"]["top"], "hot-key sketch empty"


def test_hot_path_knobs_engage_read_spreading(tmp_path):
    _repro("profile --scale tiny --read-spread least_loaded "
           "--coalesce-width 8 --out BENCH_profile_tuned.json", tmp_path)
    doc = json.loads((tmp_path / "BENCH_profile_tuned.json").read_text())
    assert doc["profile"]["overall"]["count"] > 0, "no spans profiled"
    assert "kv_read_skew" in doc["series"], "read-spread not engaged"


# --------------------------------------------------------------------------
# Perf gates on the benchmark's own layer probes and smoke workloads
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def probes():
    """One ``--probes`` process; its timings are min-of-5 each."""
    _run(["-m", "benchmarks.perf", "--probes"], _REPO_ROOT)
    path = _REPO_ROOT / "benchmarks" / "perf" / "out" / "probes.json"
    return json.loads(path.read_text())


def test_a_bucket_read_is_decoded_not_looked_up(probes):
    """The two probes parse one bucket read 5000 times: the same bytes
    (.hit) and 5000 content-distinct variants (.miss).  With one
    on-demand decoder they cost the same; an eager decode behind a
    content-keyed memo read 22.7x."""
    hit = probes["probe.race.parse_us.hit"]["value"]
    miss = probes["probe.race.parse_us.miss"]["value"]
    assert miss <= 2 * hit, (
        f"probe.race.parse_us.miss {miss:.2f} us > 2 x .hit "
        f"{hit:.2f} us: parse_buckets is memoised again")


def test_a_key_draw_costs_about_one_kernel_event(probes):
    """With the rank -> key scatter looked up per key space the ratio
    reads ~1.1; with FNV-1a run as a Python byte loop on every draw it
    read 2.09."""
    draw = probes["probe.ycsb.next_op_us"]["value"]
    event = probes["probe.sim.us_per_event"]["value"]
    assert draw <= 1.6 * event, (
        f"probe.ycsb.next_op_us {draw:.2f} us > 1.6 x "
        f"probe.sim.us_per_event {event:.2f} us: the rank -> key "
        "scatter is being hashed per draw again")


def test_the_cached_search_workload_runs_and_verifies():
    doc = _perf("--workload ycsb_c_hot --smoke --trace 0")
    assert doc["correct"] is True, doc


def test_a_batch_no_fault_touches_is_three_callbacks():
    """An exact count, not a timing: under the injector a clean doorbell
    batch is no process but three kernel callbacks on four event ids
    whatever its size, a touched one four events per verb plus three.
    At smoke size the workload reads 13.3 events per op; with a process
    per verb for every batch it read 31.0."""
    doc = _perf("--workload scenario_faulty_obs --smoke --trace 1")
    assert doc["correct"] is True, doc
    per_op = doc["metrics"]["sim.events_per_op"]["value"]
    assert per_op <= 18, (
        f"sim.events_per_op {per_op:.1f} > 18: "
        "a process per verb for clean batches again")


def test_a_default_bed_stays_lazily_zeroed():
    """A zero-filled 256 MB pool reads ~590 MB at smoke size, the lazily
    mapped one ~100 MB: a dense pool cannot come back unnoticed."""
    doc = _perf("--workload crud_1c_default_bed --smoke --trace 0")
    assert doc["correct"], doc
    rss = doc["metrics"]["peak_rss_mb"]["value"]
    assert rss <= 250, f"peak_rss_mb {rss} > 250: MN memory is dense"
