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


def _run(argv, cwd, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"), **env_vars)
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


@pytest.fixture(scope="module")
def bytecodes():
    """One ``python -m benchmarks.bytecodes`` process (~12 s): exact
    instruction counts, so the runner's speed does not enter."""
    stdout = _run(["-m", "benchmarks.bytecodes"], _REPO_ROOT,
                  PYTHONHASHSEED="0")
    return json.loads(stdout.splitlines()[-1])


#: Instructions per attempted op of `benchmarks.bytecodes`' YCSB-A run,
#: the count when the bound was set (4 142 / 3 943, generated code then
#: uncounted) plus 5 %, per Python (each compiles differently).
_YCSB_OP_BOUND = {"3.11": 4349, "3.12": 4140}


def test_a_clean_ycsb_op_costs_few_bytecodes(bytecodes):
    """An exact count, not a timing: the instructions a clean YCSB-A op
    executes in ``src/repro``, at seed 13 on the ``ycsb_a_sat`` geometry
    (``benchmarks/bytecodes.py``), code that a ``repro`` module generated
    (a dataclass's ``__init__`` / ``__eq__``, file ``<string>``)
    included.  Before the delivery loop paid per verb for its work only
    (one lane hit for port and service, the port reservation inlined, no
    generator on the op path while no barrier is up) an op executed
    4 882 (Python 3.11) / 4 639 (3.12) not counting generated code.  With
    it counted, the tree before the hot records became ``__slots__``
    classes executed 4 229 / 4 018 (4 142 / 3 943 without), and now
    4 174 / 3 969.  A cProfile call count would not do: it counts a
    ``dict.get`` like a Python frame."""
    version = bytecodes["python"]
    if version not in _YCSB_OP_BOUND:
        pytest.skip(f"no bytecode bound measured for Python {version}")
    per_op = bytecodes["ycsb_op"]["per_op"]
    bound = _YCSB_OP_BOUND[version]
    assert per_op <= bound, (
        f"{per_op:.0f} bytecodes per YCSB-A op > {bound} (Python "
        f"{version}): the op path pays for bookkeeping again")


#: Instructions per attempted op of `benchmarks.bytecodes`' YCSB-C run
#: (the cached SEARCH), the count when the bound was set (1 431 / 1 371)
#: plus 5 %, per Python.
_YCSB_C_OP_BOUND = {"3.11": 1502, "3.12": 1439}


def test_a_cached_search_costs_its_reads_not_its_bookkeeping(bytecodes):
    """An exact count, not a timing: the instructions a YCSB-C op executes
    in ``src/repro`` on the ``ycsb_c_hot`` geometry (64 clients, 200
    keys, every key cached after the warm-up), the key draw, kernel,
    fabric and runner included.  Before the read-hit path lost its
    per-op bookkeeping (an ``(entry, bypassed)`` tuple and an
    ``invalid_ratio`` call per probe, a live-replica list per KV read, a
    ``Slot`` and a ``SlotRef`` looked up per cached word, a body copy per
    CRC check, six frames per key draw, a ``trace_phase`` frame and two
    observer properties per op) it executed 1 705 (Python 3.11) / 1 615
    (3.12); now 1 431 / 1 371."""
    version = bytecodes["python"]
    if version not in _YCSB_C_OP_BOUND:
        pytest.skip(f"no bytecode bound measured for Python {version}")
    per_op = bytecodes["ycsb_c_op"]["per_op"]
    bound = _YCSB_C_OP_BOUND[version]
    assert per_op <= bound, (
        f"{per_op:.0f} bytecodes per YCSB-C op > {bound} (Python "
        f"{version}): the cached SEARCH pays for bookkeeping again")


#: Instructions per SEARCH of `benchmarks.bytecodes`' cold-SEARCH run
#: (the cache-miss path), the count when the bound was set (2 171 /
#: 2 066) plus 5 %, per Python.
_COLD_SEARCH_BOUND = {"3.11": 2280, "3.12": 2169}


def test_a_cold_search_is_one_bucket_read_and_one_candidate_match(
        bytecodes):
    """An exact count, not a timing: the instructions one fresh client's
    SEARCH executes in ``src/repro`` on the ``ycsb_a_sat`` geometry, each
    of the 2 000 loaded keys read once, so every SEARCH misses its cache
    and reads the combined buckets, then the fingerprint hits.  While the
    primary bucket read was a generator of its own, called from two
    places, and the candidate READ batch another, it executed 2 192
    (Python 3.11) / 2 086 (3.12); now 2 171 / 2 066."""
    version = bytecodes["python"]
    if version not in _COLD_SEARCH_BOUND:
        pytest.skip(f"no bytecode bound measured for Python {version}")
    assert bytecodes["cold_search"]["found"] == 2000
    per_op = bytecodes["cold_search"]["per_op"]
    bound = _COLD_SEARCH_BOUND[version]
    assert per_op <= bound, (
        f"{per_op:.0f} bytecodes per cold SEARCH > {bound} (Python "
        f"{version}): the cache-miss path grew a step again")


def test_a_key_draw_is_a_lookup_not_a_hash(bytecodes):
    """An exact count, not a timing: a ``YcsbWorkload.next_op`` draw on
    a warmed key space looks its rank -> key scatter up.  It executes 153
    instructions (Python 3.11; 139 on 3.12); with FNV-1a run as a Python
    byte loop on every draw it executed 319 (305)."""
    per_op = bytecodes["next_op"]["per_op"]
    assert per_op <= 200, (
        f"{per_op:.0f} bytecodes per next_op > 200: the rank -> key "
        "scatter is being hashed per draw again")


def test_the_cached_search_workload_runs_and_verifies():
    doc = _perf("--workload ycsb_c_hot --smoke --trace 0")
    assert doc["correct"] is True, doc


@pytest.fixture(scope="module")
def faulty_obs():
    """One traced smoke run of ``scenario_faulty_obs`` for the gates on
    its exact counts."""
    doc = _perf("--workload scenario_faulty_obs --smoke --trace 1")
    assert doc["correct"] is True, doc
    return doc


def test_a_verb_no_fault_touches_is_one_event(faulty_obs):
    """An exact count, not a timing: under the injector a verb whose first
    fate is clean goes through the bare fabric's loop, so a batch of them
    is one kernel event whatever its size, and only a touched verb gets
    a delivery process.  At smoke size the workload reads 5.0 events per
    op; with an untouched batch taking three callbacks on four event ids
    it read 13.3, and with a process per verb for every batch 31.0."""
    per_op = faulty_obs["metrics"]["sim.events_per_op"]["value"]
    assert per_op <= 8, (
        f"sim.events_per_op {per_op:.1f} > 8: "
        "clean-fated verbs no longer take the loop")


def test_a_fate_is_one_hash(faulty_obs):
    """An exact count, not a timing: a fate packs the message into one
    key and takes one keyed digest per active link fault, so the fault
    layer makes 28.4 calls per attempted op at smoke size.  With the
    ``repr`` of the message hashed afresh for each of its three to five
    draws it made 44.8."""
    calls = faulty_obs["metrics"]["hostcalls.faults"]["value"]
    per_op = calls / faulty_obs["attempted"]
    assert per_op <= 36, (
        f"hostcalls.faults / attempted op {per_op:.1f} > 36: "
        "a fate draws more than one digest per active fault again")


def test_a_default_bed_stays_lazily_zeroed():
    """A zero-filled 256 MB pool reads ~590 MB at smoke size, the lazily
    mapped one ~100 MB: a dense pool cannot come back unnoticed."""
    doc = _perf("--workload crud_1c_default_bed --smoke --trace 0")
    assert doc["correct"], doc
    rss = doc["metrics"]["peak_rss_mb"]["value"]
    assert rss <= 250, f"peak_rss_mb {rss} > 250: MN memory is dense"
