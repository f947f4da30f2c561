"""Layer probes: public functions timed in isolation at fixed inputs.

``python -m benchmarks.perf --probes`` (<= 15 s, min-of-5 each).  A probe
answers "did this layer get cheaper?" without the rest of the stack; it
is not end-to-end, and ``PREDICTS`` names the workload host share
(``hostshare.*``, see the README tables) that bounds what a probe's gain
can return there.  BENCHMARK.json has no room for this mapping (its keys
are fixed), so it lives here and in the README.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, Tuple

from . import OUT_DIR, SRC

REPEATS = 5

#: probe metric -> (unit, the workload share it predicts)
PREDICTS: Dict[str, Tuple[str, str]] = {
    "probe.sim.us_per_event": (
        "us", "hostshare.sim on every workload; largest on ycsb_c_hot"),
    "probe.fabric.post_us_per_batch.read": (
        "us", "hostshare.rdma.fabric on ycsb_c_hot (read-only batches)"),
    "probe.fabric.post_us_per_batch.write": (
        "us", "hostshare.rdma.fabric on ycsb_a_sat and "
              "crud_1c_default_bed (WRITE+CAS rounds)"),
    "probe.mn.construct_ms": (
        "ms", "harness.bed_build_s / hostshare.rdma.memory_node on "
              "crud_1c_default_bed"),
    "probe.mn.construct_sys_ms": (
        "ms", "harness.bed_build_sys_s on crud_1c_default_bed"),
    "probe.wire.kv_roundtrip_us.64": (
        "us", "hostshare.core.wire on crud_1c_default_bed (small values)"),
    "probe.wire.kv_roundtrip_us.1024": (
        "us", "hostshare.core.wire on ycsb_a_sat (1 KB values)"),
    "probe.wire.slot_us": (
        "us", "hostshare.core.wire on every write path"),
    "probe.race.parse_us.hit": (
        "us", "hostshare.core.race on ycsb_c_hot (memoised bucket reads)"),
    "probe.race.parse_us.miss": (
        "us", "hostshare.core.race on ycsb_a_sat (the miss path)"),
    "probe.ycsb.construct_ms": (
        "ms", "workloads.construct_s on ycsb_a_sat (128 Zipf tables)"),
    "probe.ycsb.next_op_us": (
        "us", "hostshare.workloads on ycsb_a_sat and ycsb_c_hot"),
    "probe.obs.span_us": (
        "us", "hostshare.obs on scenario_faulty_obs"),
    "probe.obs.sketch_add_us": (
        "us", "hostshare.obs on scenario_faulty_obs (monitor panes)"),
}


def _best(fn: Callable[[], float]) -> float:
    """Minimum of ``REPEATS`` timings: the least-disturbed run."""
    return min(fn() for _ in range(REPEATS))


def _timed(fn: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def probe_sim() -> Dict[str, float]:
    from repro.sim import Environment
    procs, hops = 64, 2000

    def once() -> float:
        env = Environment()

        def hopper():
            for _ in range(hops):
                yield env.timeout(1.0)

        for _ in range(procs):
            env.process(hopper())
        return _timed(lambda: env.run(until=hops + 1.0))

    return {"probe.sim.us_per_event": _best(once) * 1e6 / (procs * hops)}


def probe_fabric() -> Dict[str, float]:
    from repro.rdma import CasOp, Fabric, MemoryNode, ReadOp, WriteOp
    from repro.sim import Environment

    def post_batches(make_batch, n: int) -> float:
        env = Environment()
        fabric = Fabric(env)
        fabric.add_node(MemoryNode(env, 0, 1 << 20))

        def poster():
            for i in range(n):
                yield fabric.post(make_batch(i))

        done = env.process(poster())
        return _timed(lambda: env.run(until=done)) * 1e6 / n

    payload = bytes(64)
    reads = _best(lambda: post_batches(
        lambda i: [ReadOp(0, (i % 512) * 128, 112),
                   ReadOp(0, 65536 + (i % 512) * 128, 112)], 20_000))
    writes = _best(lambda: post_batches(
        lambda i: [WriteOp(0, (i % 512) * 128, payload),
                   CasOp(0, 131072 + (i % 512) * 8, 0, 0)], 10_000))
    return {"probe.fabric.post_us_per_batch.read": reads,
            "probe.fabric.post_us_per_batch.write": writes}


def probe_memory_node() -> Dict[str, float]:
    from repro.rdma import MemoryNode
    from repro.sim import Environment
    wall, system = [], []
    for _ in range(REPEATS):
        env = Environment()
        sys_before = os.times().system
        wall.append(_timed(lambda: MemoryNode(env, 0, 64 << 20)))
        system.append(os.times().system - sys_before)
    return {"probe.mn.construct_ms": min(wall) * 1e3,
            "probe.mn.construct_sys_ms": min(system) * 1e3}


def probe_wire() -> Dict[str, float]:
    from repro.core.wire import (LogEntry, OP_INSERT, decode_kv_block,
                                 encode_kv_block, kv_block_size, pack_slot,
                                 unpack_slot)
    key = b"user00000000000000000042"
    entry = LogEntry(next_ptr=0, prev_ptr=0, old_value=0, old_value_crc=0,
                     opcode=OP_INSERT, used=True)
    n = 20_000
    out = {}
    for size in (64, 1024):
        value = bytes(size)
        block = kv_block_size(len(key), size)

        def roundtrip():
            for _ in range(n):
                decode_kv_block(encode_kv_block(key, value, block, entry))

        out[f"probe.wire.kv_roundtrip_us.{size}"] = (
            _best(lambda: _timed(roundtrip)) * 1e6 / n)

    def slots():
        for i in range(n):
            unpack_slot(pack_slot(i & 0xFF, 17, 0x1234_5678 + i))

    out["probe.wire.slot_us"] = _best(lambda: _timed(slots)) * 1e6 / n
    return out


def probe_race() -> Dict[str, float]:
    from repro.harness import fusee_bed
    from repro.workloads import YcsbConfig, YcsbWorkload
    bed = fusee_bed(dataset_bytes=1 << 20, background_interval_us=0.0)
    seeder = YcsbWorkload(YcsbConfig(workload="C", n_keys=500), seed=13)
    keys = seeder.load_keys()
    bed.load((key, seeder.load_value(i)) for i, key in enumerate(keys))
    race, fabric = bed.cluster.race, bed.cluster.fabric
    meta = race.key_meta(keys[7])

    def bucket_read():
        completions = yield fabric.post(race.bucket_read_ops(meta))
        return [c.value for c in completions]

    payloads = bed.cluster.run_op(bucket_read())
    n = 5000

    def hits():
        for _ in range(n):
            race.parse_buckets(meta, payloads)

    # Distinct payloads defeat the content-keyed memo: every variant
    # carries a fresh foreign-fingerprint word in the last slot of the
    # second bucket (fresh per timing too, or a second pass would hit).
    foreign = ((meta.fingerprint + 1) & 0xFF) << 56
    serial = itertools.count(1)

    def misses() -> float:
        variants = [
            [payloads[0],
             payloads[1][:-8] + (foreign | next(serial)).to_bytes(8, "big")]
            for _ in range(n)]
        return _timed(lambda: [race.parse_buckets(meta, v)
                               for v in variants])

    return {"probe.race.parse_us.hit": _best(lambda: _timed(hits)) * 1e6 / n,
            "probe.race.parse_us.miss": _best(misses) * 1e6 / n}


def probe_ycsb() -> Dict[str, float]:
    from repro.workloads import YcsbConfig, YcsbWorkload
    config = YcsbConfig(workload="A", n_keys=20_000)
    construct = _best(lambda: _timed(lambda: YcsbWorkload(config, seed=13)))
    workload = YcsbWorkload(config, seed=13)
    n = 20_000

    def draw():
        for _ in range(n):
            workload.next_op()

    return {"probe.ycsb.construct_ms": construct * 1e3,
            "probe.ycsb.next_op_us": _best(lambda: _timed(draw)) * 1e6 / n}


def probe_obs() -> Dict[str, float]:
    from repro.obs import DDSketch, Tracer
    from repro.sim import Environment
    n = 20_000

    def spans() -> float:
        tracer = Tracer(env=Environment())

        def loop():
            for _ in range(n):
                tracer.end_span(tracer.begin_span("search", 1, key=b"k"),
                                True)

        return _timed(loop)

    def sketch() -> float:
        dd = DDSketch()

        def loop():
            for i in range(n):
                dd.add(1.0 + (i % 97) * 0.25)

        return _timed(loop)

    return {"probe.obs.span_us": _best(spans) * 1e6 / n,
            "probe.obs.sketch_add_us": _best(sketch) * 1e6 / n}


PROBES = (probe_sim, probe_fabric, probe_memory_node, probe_wire,
          probe_race, probe_ycsb, probe_obs)


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to probe: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    values: Dict[str, float] = {}
    for probe in PROBES:
        values.update(probe())
    for name, value in values.items():
        unit, predicts = PREDICTS[name]
        print(f"{name:<40} {value:>10.4f} {unit:<3} predicts {predicts}")
    print(f"probes took {time.perf_counter() - started:.1f} s "
          f"(min of {REPEATS} each)")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "probes.json", "w") as fh:
        json.dump({name: {"value": value, "unit": PREDICTS[name][0]}
                   for name, value in values.items()}, fh, indent=1)
        fh.write("\n")
    return 0
