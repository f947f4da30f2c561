"""The repository's performance benchmark: two clocks, every layer.

``python -m benchmarks.perf`` drives four fixed workloads through the
public entry points of :mod:`repro` and reports, for each, simulated
metrics (the paper's claims), host metrics (what bounds every sweep and
CI job) and a per-layer breakdown of both.  ``README.md`` in this
directory is the glossary; ``BENCHMARK.json`` at the repository root
names every metric with its unit, direction and bound.

Nothing here imports the sibling figure suite (``benchmarks/*.py``), and
the orchestrating process does not import :mod:`repro` at all: every
repetition runs in a fresh subprocess that puts the checkout's ``src/``
first on ``sys.path``.
"""

from pathlib import Path

#: Repository root (``benchmarks/perf/`` is two levels below it).
ROOT = Path(__file__).resolve().parents[2]
#: The package under test, measured from source.
SRC = ROOT / "src"
#: The metric manifest (names, units, directions, bounds).
MANIFEST = ROOT / "BENCHMARK.json"
#: Where runs leave result/span files (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"
