"""How fast is this machine *right now*?

The sandbox this benchmark runs in changes speed by up to 30 % (measured:
the 5000-round loop below takes 3.0, 3.2, 3.5 or 3.9 ms; all of it user
time, no steal, no page faults), and it stays at one speed for 0.1 s to a
few seconds only.  A wall-clock rate measured once is therefore not
comparable with one measured a minute later, and one calibration per run
phase says little about a run phase of seconds.  So every repetition
times its run phase in *slices* of ~50 ms (:class:`SlicedTimer`), with
one short run of this fixed pure-Python loop between any two slices, and
the host-speed metrics are reported per *calibrated* second: each slice
counts ``slice_s * REFERENCE_S / mean(loop before, loop after)``.  The
loop's instruction mix is the one ``benchmarks/kernel_beds.py`` gates
calibrate with; it is copied from there so the figure suite stays free to
change.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

ROUNDS = 5_000
#: One calibration point is the best of this many runs of the loop
#: (~10 ms together): a run hit by a timer tick or a preemption is
#: dropped, the machine's speed is what is left.
POINT_RUNS = 3
#: Calibration point of the reference sandbox at its fastest (Python
#: 3.11.7, 2 vCPU Xeon @ 2.1 GHz): there a calibrated second is a second.
REFERENCE_S = 0.00300


class _CalNode:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def bump(self, delta: int) -> int:
        self.value = (self.value + delta) & 0xFFFFFFFF
        return self.value


def calibration_seconds(rounds: int = ROUNDS) -> float:
    """Heap churn, bound-method calls, small tuples, dict traffic: the
    instruction mix of the DES hot loop."""
    t0 = time.process_time()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    node = _CalNode(0x9E3779B9)
    table: dict = {}
    x = 12345
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x & 0xFFFF, i, node.bump(x)))
        table[x & 1023] = table.get((x >> 10) & 1023, 0) + 1
        if len(heap) > 64:
            pop(heap)
            pop(heap)
    while heap:
        pop(heap)
    return time.process_time() - t0


def calibration_point() -> float:
    """Best of ``POINT_RUNS``, with the cyclic collector off: inside a
    repetition the heap holds a whole bed, and a generation-2 pass
    triggered by the loop's own tuples would time the bed, not the CPU."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(calibration_seconds() for _ in range(POINT_RUNS))
    finally:
        if was_enabled:
            gc.enable()


class SlicedTimer:
    """Times a run phase as slices with a calibration point between them.

    ``start()``, then ``mark()`` wherever a slice ends (from a timeline
    action of the runner, or every so many ops of the benchmark's own
    loop), then ``stop()``.  The calibration points are not part of any
    slice; with ``profiler`` (the traced-host repetition's ``cProfile``)
    they are not part of the profile either.

    Slices and points are timed on the process's CPU clock: the program
    is one thread that never blocks, so on an idle machine CPU seconds
    are wall seconds (``host.run_cpu_share``, ``run_s / wall_s``, says how
    far from idle it was), and
    time spent descheduled in favour of a neighbour is not the program's.
    """

    def __init__(self, profiler=None):
        self._profiler = profiler
        self._cpu = self._wall = 0.0
        self.slices: List[float] = []    # CPU seconds, one per slice
        self.points: List[float] = []    # len(slices) + 1 calibrations
        self.wall_s = 0.0                # wall seconds of all slices

    def _point(self) -> None:
        profiler = self._profiler
        if profiler is not None:
            profiler.disable()
        self.points.append(calibration_point())
        if profiler is not None:
            profiler.enable()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def start(self) -> None:
        self._point()

    def mark(self) -> None:
        self.slices.append(time.process_time() - self._cpu)
        self.wall_s += time.perf_counter() - self._wall
        self._point()

    stop = mark

    @property
    def run_s(self) -> float:
        """CPU seconds of the slices (the calibration points excluded)."""
        return sum(self.slices)

    @property
    def calibrated_slices(self) -> List[float]:
        """The slices in calibrated seconds: each is rated by the two
        calibration points around it."""
        points = self.points
        return [seconds * REFERENCE_S * 2.0 / (points[i] + points[i + 1])
                for i, seconds in enumerate(self.slices)]
