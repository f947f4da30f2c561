"""Bytecodes the simulator executes in ``src/repro`` per unit of work.

An exact count, not a timing: at a fixed seed and under
``PYTHONHASHSEED=0`` the same run executes the same instructions on any
host, so a gate on it cannot flake the way a wall-clock ratio does on a
busy two-core runner, and it measures the interpreter's share of host
time (memory stalls it does not see).  Counted with ``sys.settrace`` and
``frame.f_trace_opcodes``: one ``opcode`` event per instruction executed
in a frame whose code lives under ``src/repro``, or was generated by one
of its modules (a dataclass's ``__init__`` / ``__eq__`` / ``__hash__``,
whose file name is ``<string>``).  It is Python-version
specific (3.11 and 3.12 compile differently), so a bound is stated per
version.

    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.bytecodes [--top N]

prints one JSON object: ``ycsb_op`` (per attempted op of the YCSB-A run
below), ``ycsb_c_op`` (per attempted op of the YCSB-C run, the cached
SEARCH), ``cold_search`` (per SEARCH of a fresh client, the cache-miss
path) and ``next_op`` (per `YcsbWorkload.next_op` draw on a warmed key
space).  ``--top N`` first prints, per run, the N code objects that
executed the most instructions, with their instructions and calls per
unit of work (a generator's call count is its resumes); the last line
stays the JSON object.  It needs nothing but the standard library and
``repro``, so it runs on an interpreter that has no pytest.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys

import repro

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: The YCSB-A run: closed loop, 32 clients, 2 000 keys of 1 KB on the
#: ycsb_a_sat geometry (4 MNs, 4 NIC ports each, rss affinity, two data
#: replicas); 300 us of warm-up fill the memo tables untraced, then
#: 700 us are counted.
YCSB_CLIENTS = 32
YCSB_KEYS = 2_000
YCSB_WARMUP_US = 300.0
YCSB_DURATION_US = 1_000.0
#: The ycsb_a_sat geometry the YCSB-A and cold-SEARCH runs share.
A_SAT_BED = dict(n_memory_nodes=4, replication_factor=2, nic_ports=4,
                 rpc_shards=2, port_affinity="rss", dataset_bytes=4 << 20)
#: The key draws: YCSB-A over 20 000 keys, 2 000 draws to warm the
#: rank -> key scatter, then the same 2 000 (same seed) counted.
DRAW_KEYS = 20_000
DRAWS = 2_000
#: The YCSB-C run: closed loop, 64 clients, 200 keys of 1 KB on the
#: ycsb_c_hot geometry (2 MNs, one NIC port each, two data replicas),
#: every key cached after the warm-up; 1 000 us of warm-up, then
#: 2 000 us counted.
YCSB_C_CLIENTS = 64
YCSB_C_KEYS = 200
YCSB_C_WARMUP_US = 1_000.0
YCSB_C_DURATION_US = 3_000.0


def _prime_opcode_events() -> None:
    """CPython 3.12.1 delivers no opcode event to the first ``settrace``
    session of a process that asks for them, and every one to the later
    sessions: open and close one such session on a function that does
    nothing."""
    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return trace

    sys.settrace(trace)
    _nothing()
    sys.settrace(None)


def _nothing() -> None:
    pass


class OpcodeCounter:
    """Counts instructions executed in ``src/repro`` while active; with
    ``by_code``, also per code object (``instructions`` and ``calls``,
    keyed by code object) at the same total."""

    def __init__(self, by_code: bool = False):
        self.count = 0
        self._ours = {}
        self.instructions = collections.Counter()
        self.calls = collections.Counter()
        self._by_code = by_code
        if by_code:
            self._local = self._local_by_code

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

    def _local_by_code(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
            self.instructions[frame.f_code] += 1
        return self._local_by_code

    def top(self, n: int, per: int) -> list:
        """The ``n`` code objects that executed the most instructions:
        ``(name, instructions / per, calls / per)``, most first."""
        rows = []
        for code, count in self.instructions.most_common(n):
            module = os.path.relpath(code.co_filename, _REPRO_ROOT) \
                if code.co_filename.startswith(_REPRO_ROOT) \
                else code.co_filename
            name = "%s:%d %s" % (module, code.co_firstlineno,
                                 getattr(code, "co_qualname",
                                         code.co_name))
            rows.append((name, count / per, self.calls[code] / per))
        return rows

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename == "<string>":
            # code generated at import time (a dataclass's ``__init__``,
            # ``__eq__``, ``__hash__``) is ours if its module is
            name = frame.f_globals.get("__name__", "")
            ours = name == "repro" or name.startswith("repro.")
        else:
            ours = self._ours.get(filename)
            if ours is None:
                ours = self._ours[filename] = filename.startswith(
                    _REPRO_ROOT)
        if not ours:
            return None
        if self._by_code:
            self.calls[frame.f_code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    def start(self) -> None:
        """Count from here on, in the frames already running too."""
        _prime_opcode_events()
        frame = sys._getframe(1)
        while frame is not None:
            if self._global(frame, "call", None) is not None:
                frame.f_trace = self._local
            frame = frame.f_back
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)


def _loaded_bed(workload: str, n_keys: int, seed: int, max_clients: int,
                **bed_kwargs):
    """A FUSEE bed holding the YCSB load of ``n_keys`` keys; returns
    ``(bed, config, load keys)``."""
    from repro.harness import fusee_bed
    from repro.workloads import YcsbConfig, YcsbWorkload

    config = YcsbConfig(workload=workload, n_keys=n_keys)
    seeder = YcsbWorkload(config, seed=seed)
    keys = seeder.load_keys()
    bed = fusee_bed(background_interval_us=0.0, max_clients=max_clients,
                    **bed_kwargs)
    bed.load((key, seeder.load_value(i)) for i, key in enumerate(keys))
    return bed, config, keys


def _closed_ycsb(counter: OpcodeCounter, workload: str, n_keys: int,
                 n_clients: int, warmup_us: float, duration_us: float,
                 seed: int, **bed_kwargs) -> dict:
    """Count a closed-loop YCSB run from ``warmup_us`` on, per attempted
    op."""
    from repro.harness import run_closed_loop
    from repro.workloads import YcsbWorkload

    bed, config, _keys = _loaded_bed(workload, n_keys, seed, n_clients + 8,
                                     **bed_kwargs)
    clients = [bed.new_client() for _ in range(n_clients)]
    streams = [YcsbWorkload(config, seed=seed * 1009 + 1 + i)
               for i in range(n_clients)]
    try:
        result = run_closed_loop(
            bed.env, clients, lambda index: streams[index], bed.execute,
            duration_us=duration_us, warmup_us=warmup_us,
            events=[(warmup_us, counter.start)])
    finally:
        counter.stop()
    attempted = result.ops + result.errors
    return {"bytecodes": counter.count, "attempted": attempted,
            "per_op": counter.count / attempted}


def ycsb_op_bytecodes(seed: int = 13,
                      counter: OpcodeCounter = None) -> dict:
    """Instructions per attempted op of the fixed YCSB-A run."""
    return _closed_ycsb(
        counter or OpcodeCounter(), "A", YCSB_KEYS, YCSB_CLIENTS,
        YCSB_WARMUP_US, YCSB_DURATION_US, seed, **A_SAT_BED)


def ycsb_c_op_bytecodes(seed: int = 13,
                        counter: OpcodeCounter = None) -> dict:
    """Instructions per attempted op of the fixed YCSB-C run."""
    return _closed_ycsb(
        counter or OpcodeCounter(), "C", YCSB_C_KEYS, YCSB_C_CLIENTS,
        YCSB_C_WARMUP_US, YCSB_C_DURATION_US, seed, n_memory_nodes=2,
        replication_factor=2, nic_ports=1, rpc_shards=1)


def cold_search_bytecodes(seed: int = 13,
                          counter: OpcodeCounter = None) -> dict:
    """Instructions per SEARCH of one fresh client reading each key of
    the YCSB-A load once: every SEARCH misses its cache, so it reads the
    combined buckets and then the fingerprint hits."""
    bed, _config, keys = _loaded_bed("A", YCSB_KEYS, seed, 8, **A_SAT_BED)
    client = bed.new_client()

    def searches():
        found = 0
        for key in keys:
            result = yield from client.search(key)
            found += result.ok
        return found

    counter = counter or OpcodeCounter()
    counter.start()
    try:
        found = bed.cluster.run_op(searches())
    finally:
        counter.stop()
    return {"bytecodes": counter.count, "searches": len(keys),
            "found": found, "per_op": counter.count / len(keys)}


def next_op_bytecodes(seed: int = 7,
                      counter: OpcodeCounter = None) -> dict:
    """Instructions per ``next_op`` draw once its ranks are scattered."""
    from repro.workloads import YcsbConfig, YcsbWorkload

    config = YcsbConfig(workload="A", n_keys=DRAW_KEYS)
    warm = YcsbWorkload(config, seed=seed)
    for _ in range(DRAWS):
        warm.next_op()
    stream = YcsbWorkload(config, seed=seed)
    draw = stream.next_op
    counter = counter or OpcodeCounter()
    counter.start()
    try:
        for _ in range(DRAWS):
            draw()
    finally:
        counter.stop()
    return {"bytecodes": counter.count, "draws": DRAWS,
            "per_op": counter.count / DRAWS}


#: The runs: their key in the JSON object, the key of their unit count
#: in their result, and what one unit is.
RUNS = (("ycsb_op", ycsb_op_bytecodes, "attempted", "attempted op"),
        ("ycsb_c_op", ycsb_c_op_bytecodes, "attempted", "attempted op"),
        ("cold_search", cold_search_bytecodes, "searches", "SEARCH"),
        ("next_op", next_op_bytecodes, "draws", "draw"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bytecodes")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="first print each run's N costliest code "
                             "objects per unit of work")
    args = parser.parse_args(argv)
    doc = {"python": "%d.%d" % sys.version_info[:2]}
    for name, run, units, unit in RUNS:
        counter = OpcodeCounter(by_code=args.top > 0)
        doc[name] = run(counter=counter)
        if args.top > 0:
            print(f"{name}: {doc[name]['per_op']:.1f} instructions per "
                  f"{unit}; top {args.top} code objects, per {unit}:")
            print(f"  {'instr':>8} {'calls':>6}  code")
            for code, per, calls in counter.top(args.top, doc[name][units]):
                print(f"  {per:8.1f} {calls:6.2f}  {code}")
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
