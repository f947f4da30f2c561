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

    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.bytecodes

prints one JSON object: ``ycsb_op`` (per attempted op of the YCSB-A run
below) and ``next_op`` (per `YcsbWorkload.next_op` draw on a warmed key
space).  It needs nothing but the standard library and ``repro``, so it
runs on an interpreter that has no pytest.
"""

from __future__ import annotations

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
#: The key draws: YCSB-A over 20 000 keys, 2 000 draws to warm the
#: rank -> key scatter, then the same 2 000 (same seed) counted.
DRAW_KEYS = 20_000
DRAWS = 2_000


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
    """Counts instructions executed in ``src/repro`` while active."""

    def __init__(self):
        self.count = 0
        self._ours = {}

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

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


def ycsb_op_bytecodes(seed: int = 13) -> dict:
    """Instructions per attempted op of the fixed YCSB-A run."""
    from repro.harness import fusee_bed, run_closed_loop
    from repro.workloads import YcsbConfig, YcsbWorkload

    config = YcsbConfig(workload="A", n_keys=YCSB_KEYS)
    seeder = YcsbWorkload(config, seed=seed)
    bed = fusee_bed(n_memory_nodes=4, replication_factor=2, nic_ports=4,
                    rpc_shards=2, port_affinity="rss",
                    dataset_bytes=4 << 20, background_interval_us=0.0,
                    max_clients=YCSB_CLIENTS + 8)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    clients = [bed.new_client() for _ in range(YCSB_CLIENTS)]
    streams = [YcsbWorkload(config, seed=seed * 1009 + 1 + i)
               for i in range(YCSB_CLIENTS)]
    counter = OpcodeCounter()
    try:
        result = run_closed_loop(
            bed.env, clients, lambda index: streams[index], bed.execute,
            duration_us=YCSB_DURATION_US, warmup_us=YCSB_WARMUP_US,
            events=[(YCSB_WARMUP_US, counter.start)])
    finally:
        counter.stop()
    attempted = result.ops + result.errors
    return {"bytecodes": counter.count, "attempted": attempted,
            "per_op": counter.count / attempted}


def next_op_bytecodes(seed: int = 7) -> dict:
    """Instructions per ``next_op`` draw once its ranks are scattered."""
    from repro.workloads import YcsbConfig, YcsbWorkload

    config = YcsbConfig(workload="A", n_keys=DRAW_KEYS)
    warm = YcsbWorkload(config, seed=seed)
    for _ in range(DRAWS):
        warm.next_op()
    stream = YcsbWorkload(config, seed=seed)
    draw = stream.next_op
    counter = OpcodeCounter()
    counter.start()
    try:
        for _ in range(DRAWS):
            draw()
    finally:
        counter.stop()
    return {"bytecodes": counter.count, "draws": DRAWS,
            "per_op": counter.count / DRAWS}


def main() -> int:
    doc = {"python": "%d.%d" % sys.version_info[:2],
           "ycsb_op": ycsb_op_bytecodes(), "next_op": next_op_bytecodes()}
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
